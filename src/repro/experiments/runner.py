"""``mbs-repro`` command-line entry point.

Experiments are declarative :class:`~repro.runtime.spec.ExperimentSpec`
entries scheduled through the :mod:`repro.runtime` engine: parameter
grids are sharded across a process pool (``--jobs N``) and every result
is written to a content-addressed cache keyed on spec name + parameters
+ code fingerprint, so an unchanged experiment is never recomputed.

Subcommands::

    mbs-repro run <artifact> [--set k=v ...] [--quick] [--no-cache]
    mbs-repro all [--jobs N] [--only a,b] [--full] [--out DIR]
    mbs-repro all --render-from-cache [--only a,b] [--out DIR]
    mbs-repro sweep <artifact> [--set axis=v1,v2,... ...] [--jobs N]
                    [--shard I/N] [--resume]
    mbs-repro merge DIR [DIR ...] --out DIR [--check REF]
    mbs-repro bench [--only a,b] [--json PATH] [--profile]
    mbs-repro schedule (<network> | --graph FILE.json) [policy]
                       [buffer MiB] [--objective OBJ] [--json]
    mbs-repro sweep-schedule <network> [policy] [--buffers MiB,..]
                             [--objective OBJ]
    mbs-repro serve [--host H] [--port P] [--workers N] [--timeout S]
                    [--lease-timeout S] [--max-attempts N]
    mbs-repro submit-sweep <artifact> [--set axis=v1,v2 ...] [--quick]
                           [--coordinator URL] [--wait] [--out DIR]
    mbs-repro work --coordinator URL [--jobs N] [--batch M]
    mbs-repro export [results.json] [--full] [--jobs N]
    mbs-repro fingerprint [--spec NAME]
    mbs-repro list

``mbs-repro <subcommand> -h`` prints every flag of one subcommand.

``all --render-from-cache`` replays the stored manifests without any
recomputation (a spec whose manifest is missing is reported, not run);
with ``--out DIR`` it *diffs* each stored manifest against
``DIR/<spec>.json`` instead of overwriting, so regenerated figure dumps
can be checked for staleness.

Common flags: ``--jobs N`` worker processes (default 1 = serial),
``--no-cache`` force recomputation, ``--cache-dir DIR`` cache root
(default ``.mbs-cache`` or ``$MBS_REPRO_CACHE``), ``--out DIR`` copy
result manifests to DIR, ``--timeout S`` per-task budget.

``sweep --shard I/N`` runs the I-th of N deterministic partitions of
the grid (point j lands on shard ``j mod N``), so N machines can split
one sweep; ``--resume`` skips points whose manifest already exists
before dispatching anything, making an interrupted sweep cheap to
restart.  ``merge`` unions the ``--out`` manifest dumps of several
shard runs into one directory, failing on any byte-level conflict;
``--check REF`` additionally verifies the union is byte-identical to a
reference dump (e.g. a single-process run) — see ``docs/caching.md``
for the full shard/resume/merge workflow.

``fingerprint`` prints the package-wide code fingerprint (CI uses it
in the ``actions/cache`` key for ``.mbs-cache``); ``fingerprint --spec
NAME`` prints the dependency-scoped fingerprint that spec's cache keys
actually use — the digest of its producing module's import closure.
``schedule --objective latency|latency+traffic|energy`` builds the
adaptive schedule that minimizes simulated step time / time-then-bytes
lexicographic / simulated step energy instead of DRAM bytes.

``schedule`` and ``sweep-schedule`` are thin shells over the
:mod:`repro.api` facade — the same calls the ``serve`` HTTP endpoints
make, so the CLI, the Python API, and the server print bit-identical
costs.  ``schedule --graph FILE.json`` prices an arbitrary schema-1
wire graph (:mod:`repro.graph.serialize`) instead of a zoo network;
``--json`` emits the exact :class:`~repro.api.ScheduleResult` wire
object.  ``serve`` runs the scheduling-as-a-service HTTP server
(:mod:`repro.serve`): request dedup, buffer-size batching, a
persistent result cache, and greedy degradation under load.
``sweep-schedule`` shares one set of pricing caches across the whole
sweep and reports the group-price memo hit rate that makes dense
sweeps cheap.  ``bench --profile`` runs each produce-fn under
:mod:`cProfile` and prints the top cumulative-time functions instead
of wall-clock rows.

``submit-sweep`` and ``work`` are the dynamic-queue alternative to
static ``--shard`` partitioning: ``submit-sweep`` enqueues one sweep
job on a running ``serve`` coordinator (``--wait`` polls it to
completion, ``--out DIR`` downloads the manifests into a
``merge``-compatible dump), and ``work`` leases point batches from the
coordinator, computes them through the normal cached engine, and
uploads manifests until every job is terminal — see
``docs/distributed.md`` for lease/retry semantics and how the queue
composes with ``--shard`` and ``--resume``.

Artifacts: fig3 fig4 fig6 fig10 fig11 fig12 fig13 fig14 tab2 ablation
precision headline latency_sweep energy_sweep scaling.
"""
from __future__ import annotations

import argparse
import ast
import math
import sys
from pathlib import Path

from repro import api
from repro.runtime import (
    ResultCache,
    Task,
    all_specs,
    code_fingerprint,
    get_spec,
    manifest_bytes,
    run_tasks,
    spec_names,
    task_key,
)
from repro.types import MIB


def _checked(convert, ok, want: str):
    """An argparse ``type=``: ``convert`` the text, then require ``ok``.

    Anything else is a usage error (exit 2) naming ``want`` — the CLI
    refuses the same out-of-range sizes and counts the wire path does.
    """
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")

    return parse


_positive = _checked(int, lambda v: v > 0, "an integer > 0")
_non_negative = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive_s = _checked(float, lambda v: v > 0, "seconds > 0")
_non_negative_s = _checked(float, lambda v: v >= 0, "seconds >= 0")
_port = _checked(int, lambda v: 0 <= v <= 65535, "a port in 0..65535")
_mib_list = _checked(
    lambda text: tuple(float(v) for v in text.split(",") if v),
    lambda mibs: bool(mibs) and all(1 <= v * MIB < math.inf for v in mibs),
    "comma-separated MiB values > 0",
)


def _cmd_schedule(args) -> int:
    """Inspect the MBS schedule of any network from the shell.

    A thin shell over :func:`repro.api.price` — the same facade the
    HTTP server and Python callers use, so every surface prints the
    same costs bit-for-bit.
    """
    import json

    from repro.graph.serialize import GraphSchemaError, loads_network

    policy, buffer_mib = args.policy, args.buffer_mib
    if args.graph is None:
        if args.network is None:
            print("schedule: give a <network> or --graph FILE.json",
                  file=sys.stderr)
            return 2
        network = args.network
    else:
        # --graph stands in for <network>, so the positionals shift one
        # slot left: `schedule --graph F mbs2 1` reads mbs2 as the policy.
        if buffer_mib is not None:
            print("schedule: --graph takes at most [policy] [buffer MiB]",
                  file=sys.stderr)
            return 2
        policy, buffer_mib = args.network, args.policy
        try:
            buffer_mib = None if buffer_mib is None else _positive(buffer_mib)
        except argparse.ArgumentTypeError as exc:
            print(f"schedule: buffer MiB: {exc}", file=sys.stderr)
            return 2
        # Malformed graph input is a data error (exit 1), not a usage
        # error: the command line itself was fine.
        try:
            text = Path(args.graph).read_text()
        except OSError as exc:
            print(f"cannot read --graph file: {exc}", file=sys.stderr)
            return 1
        try:
            network = loads_network(text)
        except GraphSchemaError as exc:
            print(f"--graph {args.graph}: {exc}", file=sys.stderr)
            return 1
    try:
        result = api.price(
            network, "mbs2" if policy is None else policy,
            buffer_bytes=(buffer_mib or 10) * MIB,
            objective=args.objective,
        )
    except ValueError as exc:
        # unknown network / policy / objective combination: usage error
        print(str(exc).strip("'\""), file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(result.to_wire(), indent=1))
    else:
        print(result.describe())
    return 0


def _cmd_sweep_schedule(args) -> int:
    """Build one schedule per buffer size through the batch sweep engine.

    A thin shell over :func:`repro.api.sweep`; the per-point rows are
    :class:`~repro.api.ScheduleResult` digests.
    """
    from repro.core.policies import SweepCaches
    from repro.experiments.tables import format_table

    caches = SweepCaches()
    try:
        results = api.sweep(
            args.network, args.policy, [int(b * MIB) for b in args.buffers],
            objective=args.objective, caches=caches,
        )
    except ValueError as exc:
        print(str(exc).strip("'\""), file=sys.stderr)
        return 2
    rows = []
    for buf, res in zip(args.buffers, results):
        subs = [g.sub_batch for g in res.groups]
        rows.append([
            f"{buf:g} MiB", str(len(res.groups)),
            f"{min(subs)}..{max(subs)}" if subs else "-",
            str(res.relu_mask),
            f"{res.traffic_bytes / 2**30:.3f}",
        ])
    print(format_table(
        ["buffer", "groups", "sub-batch", "relu mask", "DRAM GiB/step"],
        rows,
        title=(f"sweep-schedule — {args.network} {args.policy} "
               f"objective={args.objective}"),
    ))
    total = caches.hits + caches.misses
    if total:
        print(f"\ngroup-price memo: {caches.hits} hits / "
              f"{caches.misses} misses "
              f"({100.0 * caches.hits / total:.1f}% hit rate)")
    return 0


def _cmd_serve(args) -> int:
    """Run the scheduling-as-a-service HTTP server until interrupted."""
    import asyncio

    from repro.runtime.journal import JournalError
    from repro.serve import run_server

    try:
        asyncio.run(run_server(
            host=args.host, port=args.port, workers=args.workers,
            timeout_s=args.timeout, max_pending=args.max_pending,
            cache=None if args.no_cache else _make_cache(args),
            cache_max_entries=args.cache_max_entries or None,
            cache_max_bytes=args.cache_max_bytes or None,
            lease_timeout_s=args.lease_timeout,
            max_attempts=args.max_attempts,
            state_dir=args.state_dir,
        ))
    except JournalError as exc:
        print(f"serve: cannot restore state: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("\nserve: interrupted, shutting down")
    return 0


def _cmd_submit_sweep(args) -> int:
    """Enqueue one sweep job on a running coordinator.

    A thin shell over :class:`repro.api.SweepJobRequest` +
    :class:`~repro.serve.worker.CoordinatorClient`.  A submission the
    coordinator rejects (unknown artifact, malformed axis) prints the
    server's path-qualified message and exits 1.
    """
    import time

    from repro.serve.worker import CoordinatorClient, CoordinatorError

    try:
        axes = _parse_sets(args.set, multi=True)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    request = api.SweepJobRequest(
        artifact=args.artifact,
        axes=axes or None,
        quick=args.quick,
        max_attempts=args.max_attempts,
        lease_timeout_s=args.lease_timeout,
    )
    try:
        client = CoordinatorClient(args.coordinator)
    except ValueError as exc:
        print(f"submit-sweep: {exc}", file=sys.stderr)
        return 2
    try:
        status = client.submit(request)
    except CoordinatorError as exc:
        print(f"submit-sweep: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"submit-sweep: cannot reach {args.coordinator}: {exc}",
              file=sys.stderr)
        return 1
    print(status.describe())
    if args.wait:
        while status.state == "running":
            time.sleep(args.poll)
            status = client.job(status.job_id)
        print(status.describe())
    if args.out:
        wire = client.manifests(status.job_id)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for manifest in wire["manifests"]:
            name = f"{manifest['spec']}--{manifest['key']}.json"
            (out / name).write_bytes(manifest_bytes(manifest))
        print(f"wrote {len(wire['manifests'])} manifest(s) to {out}")
    return 0 if status.state != "failed" else 1


def _cmd_work(args) -> int:
    """Run one sweep worker against a coordinator until jobs drain."""
    from repro.serve.worker import (
        CoordinatorClient,
        CoordinatorError,
        work_loop,
    )

    try:
        client = CoordinatorClient(args.coordinator)
    except ValueError as exc:
        print(f"work: {exc}", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    try:
        work_loop(
            client,
            worker=args.worker_id,
            jobs=args.jobs,
            batch=args.batch,
            poll_s=args.poll,
            cache=cache,
            use_cache=not args.no_cache,
            timeout_s=args.timeout,
            stall_s=args.stall,
            max_leases=args.max_leases,
            reconnect_s=args.reconnect,
        )
    except KeyboardInterrupt:
        print("\nwork: interrupted", file=sys.stderr)
        return 1
    except (CoordinatorError, OSError) as exc:
        print(f"work: {exc}", file=sys.stderr)
        return 1
    return 0


def _parse_value(text: str):
    """``--set`` values: Python literals when possible, else strings."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_sets(pairs: list[str], multi: bool = False) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects k=v, got {pair!r}")
        key, _, raw = pair.partition("=")
        if multi:
            out[key] = tuple(_parse_value(v) for v in raw.split(","))
        else:
            out[key] = _parse_value(raw)
    return out


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=_positive, default=1, metavar="N",
                   help="worker processes (default: 1, serial)")
    p.add_argument("--no-cache", action="store_true",
                   help="recompute even when a cached result exists")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="cache root (default: .mbs-cache or $MBS_REPRO_CACHE)")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="also write result manifests under DIR")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-task wall-clock budget in seconds "
                        "(enforced in pool mode, --jobs >= 2)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbs-repro",
        description="MBS paper-artifact runner (parallel, cached).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment and print its figure")
    p.add_argument("artifact")
    p.add_argument("--set", action="append", default=[], metavar="k=v",
                   help="override one produce-fn parameter")
    p.add_argument("--quick", action="store_true",
                   help="use the spec's cheaper CI parameters")
    _add_engine_flags(p)

    p = sub.add_parser("all", help="run every registered experiment")
    p.add_argument("--only", metavar="a,b", default=None,
                   help="comma-separated subset of artifacts")
    p.add_argument("--full", action="store_true",
                   help="disable the specs' --quick parameter overrides")
    p.add_argument("--summary", action="store_true",
                   help="suppress rendered figures, print the table only")
    p.add_argument("--render-from-cache", action="store_true",
                   help="replay stored manifests without recomputation; "
                        "with --out, diff against DIR instead of writing")
    _add_engine_flags(p)

    p = sub.add_parser("sweep", help="run an experiment's parameter grid")
    p.add_argument("artifact")
    p.add_argument("--set", action="append", default=[],
                   metavar="axis=v1,v2",
                   help="override one sweep axis (comma-separated values)")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--shard", metavar="I/N", default=None,
                   help="run only the I-th of N deterministic grid "
                        "partitions (grid index mod N == I)")
    p.add_argument("--resume", action="store_true",
                   help="skip points whose manifest already exists in "
                        "the cache (presence check, nothing reloaded)")
    _add_engine_flags(p)

    p = sub.add_parser(
        "merge",
        help="union shard --out manifest dumps into one directory",
    )
    p.add_argument("dirs", nargs="+", metavar="DIR",
                   help="manifest dump directories (sweep --out)")
    p.add_argument("--out", metavar="DIR", required=True,
                   help="directory receiving the merged manifests")
    p.add_argument("--check", metavar="REF", default=None,
                   help="verify the merged set is byte-identical to "
                        "this reference dump (non-zero exit otherwise)")

    p = sub.add_parser("bench", help="time each experiment produce-fn")
    p.add_argument("--only", metavar="a,b", default=None)
    p.add_argument("--full", action="store_true")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write timings as JSON")
    p.add_argument("--profile", action="store_true",
                   help="run each produce-fn under cProfile and print "
                        "the top cumulative-time functions")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="where fresh manifests land (cache is bypassed)")

    policies = " ".join(api.policies())
    p = sub.add_parser("schedule",
                       help="build and price one schedule (repro.api.price)")
    p.add_argument("network", nargs="?",
                   help="zoo network name (omitted with --graph)")
    p.add_argument("policy", nargs="?",
                   help=f"one of: {policies} (default: mbs2)")
    p.add_argument("buffer_mib", nargs="?", type=_positive,
                   metavar="buffer-MiB",
                   help="global buffer size in MiB (default: 10)")
    p.add_argument("--objective", choices=api.objectives(),
                   default="traffic")
    p.add_argument("--graph", metavar="FILE.json",
                   help="price this schema-1 wire graph instead of a "
                        "zoo network")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print the ScheduleResult wire object")

    p = sub.add_parser("sweep-schedule",
                       help="price one schedule per buffer size "
                            "(repro.api.sweep)")
    p.add_argument("network", help="zoo network name")
    p.add_argument("policy", nargs="?", default="mbs-auto",
                   help=f"one of: {policies} (default: mbs-auto)")
    p.add_argument("--buffers", type=_mib_list, default="1,2,5,10,20,40",
                   metavar="MiB,..",
                   help="buffer sizes in MiB (default: 1,2,5,10,20,40)")
    p.add_argument("--objective", choices=api.objectives(),
                   default="traffic")

    p = sub.add_parser("serve", help="run the scheduling HTTP server "
                                     "and sweep-queue coordinator")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=8787,
                   help="0 picks a free port (see the startup banner)")
    p.add_argument("--workers", type=_non_negative, default=1)
    p.add_argument("--timeout", type=_positive_s, default=30.0)
    p.add_argument("--max-pending", type=_non_negative, default=64)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-cache", action="store_true")
    # Bounded by default: a long-lived server must not grow its result
    # store without limit.  0 disables a bound (unbounded).
    p.add_argument("--cache-max-entries", type=_non_negative, default=4096)
    p.add_argument("--cache-max-bytes", type=_non_negative, default=0)
    # work-queue defaults for hosted sweep jobs (/v1/jobs)
    p.add_argument("--lease-timeout", type=_positive_s, default=60.0)
    p.add_argument("--max-attempts", type=_positive, default=3)
    # journal + snapshots: a restart on the same dir resumes the queue
    p.add_argument("--state-dir", default=None)

    p = sub.add_parser("submit-sweep",
                       help="enqueue an experiment's sweep on a coordinator")
    p.add_argument("artifact")
    p.add_argument("--set", action="append", default=[],
                   metavar="axis=v1,v2")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--coordinator", default="http://127.0.0.1:8787")
    p.add_argument("--lease-timeout", type=float, default=None)
    p.add_argument("--max-attempts", type=int, default=None)
    p.add_argument("--wait", action="store_true")
    p.add_argument("--poll", type=float, default=1.0)
    p.add_argument("--out", metavar="DIR", default=None)

    p = sub.add_parser("work",
                       help="compute leased sweep points until jobs drain")
    p.add_argument("--coordinator", default="http://127.0.0.1:8787")
    p.add_argument("--jobs", type=_positive, default=1)
    p.add_argument("--batch", type=_positive, default=None)
    p.add_argument("--poll", type=float, default=1.0)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--worker-id", default=None)
    p.add_argument("--timeout", type=float, default=None)
    # fault-injection hook: sleep after each lease grant before
    # computing (the kill tests use it to die while holding a lease)
    p.add_argument("--stall", type=float, default=0.0)
    p.add_argument("--max-leases", type=int, default=None)
    # how long the coordinator may stay unreachable before the worker
    # gives up (a bounce within this budget looks like a slow poll)
    p.add_argument("--reconnect", type=_non_negative_s, default=60.0)

    p = sub.add_parser("export", help="dump every artifact to one JSON file")
    p.add_argument("path", nargs="?", default="results.json")
    p.add_argument("--full", action="store_true")
    p.add_argument("--jobs", type=_positive, default=1, metavar="N",
                   help="worker processes (default: 1, serial)")
    p.add_argument("--no-cache", action="store_true",
                   help="recompute even when a cached result exists")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="cache root (default: .mbs-cache or $MBS_REPRO_CACHE)")

    p = sub.add_parser(
        "fingerprint",
        help="print the package code fingerprint (CI cache key for "
             ".mbs-cache), or one spec's dependency-scoped fingerprint",
    )
    p.add_argument("--spec", metavar="NAME", default=None,
                   help="print NAME's per-spec fingerprint (the import-"
                        "closure digest its cache keys use) instead of "
                        "the package-wide digest")

    sub.add_parser("list", help="list registered experiments")
    return parser


def _make_cache(args) -> ResultCache:
    return ResultCache(args.cache_dir) if args.cache_dir else ResultCache()


def _write_out(results, out_dir: str, per_spec_names: bool) -> None:
    """Copy manifests to ``--out``: deterministic bytes, no timings."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for r in results:
        if r.manifest is None:
            continue
        name = (f"{r.spec_name}.json" if per_spec_names
                else f"{r.spec_name}--{r.key}.json")
        (out / name).write_bytes(manifest_bytes(r.manifest))


def _summary_table(results) -> str:
    from repro.experiments.tables import format_table

    rows = [
        [r.spec_name, r.status, f"{r.seconds:6.2f}", r.key,
         r.manifest_path or "-"]
        for r in results
    ]
    return format_table(
        ["artifact", "status", "secs", "key", "manifest"], rows,
        title="runtime summary",
    )


def _print_failures(results) -> None:
    for r in results:
        if not r.ok:
            print(f"\n[{r.spec_name}] {r.status}:\n{r.error}",
                  file=sys.stderr)


def _cmd_run(args) -> int:
    try:
        spec = get_spec(args.artifact)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        overrides = _parse_sets(args.set)
        task = Task(spec, overrides, quick=args.quick)
        task.params()
    except (KeyError, SystemExit) as exc:
        print(exc, file=sys.stderr)
        return 2
    results = run_tasks(
        [task], jobs=args.jobs, cache=_make_cache(args),
        use_cache=not args.no_cache, timeout_s=args.timeout,
    )
    r = results[0]
    if not r.ok:
        _print_failures(results)
        return 1
    print(r.rendered, end="")
    if args.out:
        _write_out(results, args.out, per_spec_names=False)
    print(f"\n[{r.spec_name}] {r.status}  key={r.key}  "
          f"manifest={r.manifest_path}")
    return 0


def _select_specs(only: str | None):
    names = spec_names()
    if only:
        requested = [n.strip() for n in only.split(",") if n.strip()]
        unknown = [n for n in requested if n not in names]
        if unknown:
            raise SystemExit(
                f"unknown artifact(s) {' '.join(unknown)}; choose from "
                f"{' '.join(names)}"
            )
        names = requested
    return [get_spec(n) for n in names]


def _render_from_cache(specs, args) -> int:
    """Replay cached manifests; optionally diff them against ``--out``.

    Never recomputes: a spec without a stored manifest for the current
    parameters + dependency-scoped fingerprint is reported as
    ``missing``.  With ``--out DIR`` each manifest's canonical bytes
    are compared against ``DIR/<spec>.json`` (``match`` / ``differs`` /
    ``no-file``) instead of overwriting — the staleness check for
    regenerated figure dumps.  Exit code is 0 only when everything is
    cached and, if diffing, everything matches.
    """
    from repro.experiments.tables import format_table

    cache = _make_cache(args)
    out_dir = Path(args.out) if args.out else None
    rows = []
    ok = True
    for spec in specs:
        params = Task(spec, {}, quick=not args.full).params()
        key = task_key(spec, params)
        manifest = cache.lookup(spec.name, key)
        if manifest is None:
            rows.append([spec.name, "missing", key, "-"])
            ok = False
            continue
        if not args.summary:
            print(f"\n{'=' * 72}\n== {spec.name}\n{'=' * 72}")
            print(manifest.get("rendered", ""), end="")
        diff = "-"
        if out_dir is not None:
            target = out_dir / f"{spec.name}.json"
            if not target.exists():
                diff = "no-file"
                ok = False
            elif target.read_bytes() == manifest_bytes(manifest):
                diff = "match"
            else:
                diff = "differs"
                ok = False
        rows.append([spec.name, "cached", key, diff])
    print()
    print(format_table(
        ["artifact", "status", "key", "diff vs --out"], rows,
        title="render-from-cache summary",
    ))
    return 0 if ok else 1


def _cmd_all(args) -> int:
    try:
        specs = _select_specs(args.only)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.render_from_cache:
        if args.no_cache:
            print("--render-from-cache contradicts --no-cache: the mode "
                  "never recomputes", file=sys.stderr)
            return 2
        return _render_from_cache(specs, args)
    tasks = [Task(spec, {}, quick=not args.full) for spec in specs]
    results = run_tasks(
        tasks, jobs=args.jobs, cache=_make_cache(args),
        use_cache=not args.no_cache, timeout_s=args.timeout,
    )
    if not args.summary:
        for r in results:
            print(f"\n{'=' * 72}\n== {r.spec_name}\n{'=' * 72}")
            print(r.rendered, end="")
    if args.out:
        _write_out(results, args.out, per_spec_names=True)
    print()
    print(_summary_table(results))
    _print_failures(results)
    return 0 if all(r.ok for r in results) else 1


def _parse_shard(text: str) -> tuple[int, int]:
    """``--shard I/N`` → (index, count); raises SystemExit on nonsense."""
    index, sep, count = text.partition("/")
    try:
        i, n = int(index), int(count)
    except ValueError:
        i, n = -1, 0
    if not sep or n < 1 or not (0 <= i < n):
        raise SystemExit(
            f"--shard expects I/N with 0 <= I < N, got {text!r}"
        )
    return i, n


def _cmd_sweep(args) -> int:
    from repro.runtime import expand_grid, task_key

    try:
        spec = get_spec(args.artifact)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    axes = dict(spec.sweep)
    try:
        axes.update(_parse_sets(args.set, multi=True))
        shard = _parse_shard(args.shard) if args.shard else None
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    if not axes:
        print(f"{spec.name} declares no sweep axes; use --set axis=v1,v2",
              file=sys.stderr)
        return 2
    try:
        tasks = [
            Task(spec, point, quick=args.quick)
            for point in expand_grid(axes)
        ]
        for t in tasks:
            t.params()
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    total = len(tasks)
    if shard is not None:
        # Deterministic round-robin partition over the grid enumeration
        # order: point j belongs to shard j mod N.  Every shard sees the
        # same grid, so N machines each running one shard cover it all.
        index, count = shard
        tasks = tasks[index::count]
    cache = _make_cache(args)
    skipped: list[Task] = []
    if args.resume:
        # Presence check only — nothing is reloaded or recomputed, so a
        # restarted sweep pays one stat() per already-finished point.
        pending = []
        for t in tasks:
            key = task_key(t.spec, t.params())
            if cache.path(t.spec.name, key).is_file():
                skipped.append(t)
            else:
                pending.append(t)
        tasks = pending
    shard_note = (f"  shard {shard[0]}/{shard[1]}" if shard else "")
    print(f"sweep {spec.name}: {len(tasks)} of {total} point(s) over "
          f"{', '.join(axes)}  (jobs={args.jobs}){shard_note}"
          + (f"  resume-skipped={len(skipped)}" if args.resume else ""))
    # Per-point progress, in the same spelling a queue worker logs —
    # long shards are no longer silent until the end table.
    from repro.runtime import format_point_line

    for t in skipped:
        print(format_point_line(t.spec.name, t.overrides, "skipped"))
    results = run_tasks(
        tasks, jobs=args.jobs, cache=cache,
        use_cache=not args.no_cache, timeout_s=args.timeout,
        on_result=lambda t, r: print(
            format_point_line(r.spec_name, t.overrides, r.status)
        ),
    )
    if args.out:
        _write_out(results, args.out, per_spec_names=False)
    from repro.experiments.tables import format_table

    def point_label(t: Task) -> str:
        return " ".join(
            f"{k}={v}" for k, v in sorted(t.overrides.items())
        ) or "(defaults)"

    rows = [
        [point_label(t), r.status, f"{r.seconds:6.2f}", r.key]
        for t, r in zip(tasks, results)
    ] + [
        [point_label(t), "skipped", f"{0.0:6.2f}",
         task_key(t.spec, t.params())]
        for t in skipped
    ]
    print(format_table(["point", "status", "secs", "key"], rows,
                       title=f"sweep {spec.name}"))
    _print_failures(results)
    return 0 if all(r.ok for r in results) else 1


def _cmd_merge(args) -> int:
    """Union shard manifest dumps; verify byte-level agreement.

    Manifests are canonical, timestamp-free JSON, so the same point
    produced by any shard (or any worker count) must be byte-identical
    — a name collision with different bytes means nondeterminism or
    mixed code versions, and fails the merge.  ``--check REF`` then
    compares the merged set against a reference dump (typically a
    single-process run) name-by-name and byte-by-byte.
    """
    merged: dict[str, bytes] = {}
    sources: dict[str, str] = {}
    duplicates = 0
    for d in args.dirs:
        root = Path(d)
        if not root.is_dir():
            print(f"merge: not a directory: {d}", file=sys.stderr)
            return 2
        for path in sorted(root.glob("*.json")):
            data = path.read_bytes()
            if path.name in merged:
                duplicates += 1
                if merged[path.name] != data:
                    print(f"merge: conflict on {path.name}: "
                          f"{sources[path.name]} and {d} disagree "
                          f"byte-for-byte", file=sys.stderr)
                    return 1
                continue
            merged[path.name] = data
            sources[path.name] = d
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in merged.items():
        (out / name).write_bytes(data)
    print(f"merged {len(merged)} manifest(s) from {len(args.dirs)} "
          f"dump(s) into {out}  ({duplicates} duplicate(s) verified "
          f"identical)")
    if args.check is None:
        return 0
    ref = Path(args.check)
    ref_names = {p.name for p in ref.glob("*.json")} if ref.is_dir() else None
    if ref_names is None:
        print(f"merge: --check is not a directory: {args.check}",
              file=sys.stderr)
        return 2
    missing = sorted(ref_names - merged.keys())
    extra = sorted(merged.keys() - ref_names)
    differ = sorted(
        name for name in merged.keys() & ref_names
        if (ref / name).read_bytes() != merged[name]
    )
    if not (missing or extra or differ):
        print(f"check vs {ref}: {len(ref_names)} manifest(s) "
              f"byte-identical")
        return 0
    for name in missing:
        print(f"check: missing from merge: {name}", file=sys.stderr)
    for name in extra:
        print(f"check: not in reference: {name}", file=sys.stderr)
    for name in differ:
        print(f"check: bytes differ: {name}", file=sys.stderr)
    return 1


def _cmd_bench(args) -> int:
    """Cold-start timing of every produce-fn.

    Serial by design: each task runs inline with the memoized-network
    cache cleared first, so timings are comparable across artifacts
    (a shared worker or warm memo would hide each spec's build cost).
    """
    from repro.experiments.common import clear_caches

    try:
        specs = _select_specs(args.only)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.profile:
        return _bench_profile(specs, full=args.full)
    cache = _make_cache(args)
    results = []
    for spec in specs:
        clear_caches()
        results.extend(run_tasks(
            [Task(spec, {}, quick=not args.full)],
            jobs=1, cache=cache, use_cache=False,
        ))
    from repro.experiments.tables import format_table

    rows = [[r.spec_name, r.status, f"{r.seconds:8.3f}"] for r in results]
    print(format_table(["artifact", "status", "secs"], rows,
                       title="bench (cold start, serial, cache bypassed)"))
    if args.json:
        import json

        payload = [
            {"artifact": r.spec_name, "status": r.status,
             "seconds": r.seconds, "key": r.key}
            for r in results
        ]
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.json}")
    _print_failures(results)
    return 0 if all(r.ok for r in results) else 1


def _bench_profile(specs, full: bool) -> int:
    """``bench --profile``: cProfile each produce-fn, print hot spots.

    Each spec runs inline (serial, cache bypassed, memoized networks
    cleared) so the profile covers exactly one cold produce call; the
    top functions by cumulative time show where a slow artifact spends
    it — typically the schedule search or the per-layer pricing loops.
    """
    import cProfile
    import pstats

    from repro.experiments.common import clear_caches

    for spec in specs:
        clear_caches()
        params = Task(spec, {}, quick=not full).params()
        prof = cProfile.Profile()
        prof.enable()
        spec.produce(**params)
        prof.disable()
        print(f"\n{'=' * 72}\n== {spec.name} (cProfile, cumulative)\n"
              f"{'=' * 72}")
        stats = pstats.Stats(prof, stream=sys.stdout)
        stats.strip_dirs().sort_stats("cumulative").print_stats(25)
    return 0


def _cmd_export(args) -> int:
    from repro.experiments.export import export_all

    results = export_all(
        args.path, quick=not args.full, jobs=args.jobs,
        cache=_make_cache(args), use_cache=not args.no_cache,
    )
    print(f"wrote {len(results)} experiment results to {args.path}")
    return 0


def _cmd_fingerprint(args) -> int:
    if args.spec is None:
        print(code_fingerprint())
        return 0
    from repro.runtime import spec_fingerprint

    try:
        spec = get_spec(args.spec)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(spec_fingerprint(spec))
    return 0


def _cmd_list(args) -> int:
    from repro.experiments.tables import format_table

    rows = []
    for spec in all_specs():
        rows.append([
            spec.name, spec.title,
            ", ".join(spec.sweep) or "-",
            "yes" if spec.quick else "-",
        ])
    print(format_table(
        ["artifact", "title", "sweep axes", "quick"], rows,
        title="registered experiments",
    ))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse --help (0) or usage error (2)
        return int(exc.code or 0)
    handler = {
        "run": _cmd_run,
        "all": _cmd_all,
        "sweep": _cmd_sweep,
        "merge": _cmd_merge,
        "bench": _cmd_bench,
        "schedule": _cmd_schedule,
        "sweep-schedule": _cmd_sweep_schedule,
        "serve": _cmd_serve,
        "submit-sweep": _cmd_submit_sweep,
        "work": _cmd_work,
        "export": _cmd_export,
        "fingerprint": _cmd_fingerprint,
        "list": _cmd_list,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
