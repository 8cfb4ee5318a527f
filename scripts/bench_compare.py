#!/usr/bin/env python
"""Gate pytest-benchmark results against committed baselines.

CI's ``bench-gate`` job runs the scheduler and micro-kernel benchmark
suites and feeds their ``--benchmark-json`` dumps through this script,
which diffs each benchmark's median against ``benchmarks/baselines.json``
with a *generous* tolerance (default 3x): shared runners are noisy, so
only gross regressions — an accidentally quadratic scheduler, a
traffic-walk explosion — should block a merge.  The job uploads the
raw dumps as artifacts, pass or fail.

Usage::

    python scripts/bench_compare.py bench-artifacts/scheduler.json \
        bench-artifacts/micro-kernels.json
    python scripts/bench_compare.py --update NEW.json ...   # refresh
    python scripts/bench_compare.py --tolerance 5 ...       # looser gate

Benchmarks without a committed baseline are reported as ``new`` and
pass (commit the refreshed file to start gating them); baselines whose
benchmark disappeared are reported as ``absent`` and pass, so renames
do not block — but both are printed loudly so lost coverage is visible.
Benchmarks whose baseline median sits below the noise floor (default
1 ms) are reported as ``tiny`` and not gated: at microsecond scale the
ratio measures the runner's timer jitter, not the code.

Baselines and results usually come from *different machines* (committed
from a dev box, gated on a shared runner), so with enough gated
benchmarks the comparison is normalized by the median now/baseline
ratio (clamped to [0.2, 5]): a uniformly slower runner scales every
benchmark equally and cancels out, while a single genuinely regressed
benchmark barely moves the median and still trips the gate.
Normalization cannot absolve arbitrarily large slowdowns: a raw ratio
past ``tolerance * 3`` fails regardless (a *uniform* real regression
moves the median with it, so only the hard cap catches it).  Exit
status is 1 when some gated benchmark's normalized ratio exceeds the
tolerance or its raw ratio exceeds the hard cap.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / (
    "benchmarks/baselines.json"
)
DEFAULT_TOLERANCE = 3.0
DEFAULT_NOISE_FLOOR = 1e-3  # seconds; don't gate sub-millisecond medians
#: Minimum gated benchmarks before machine-speed normalization kicks in
#: (with fewer, the median ratio is dominated by the regression itself).
MIN_BENCHES_TO_NORMALIZE = 5
#: Sanity clamp on the inferred machine-speed factor.
SCALE_CLAMP = (0.2, 5.0)
#: Normalization must not absolve arbitrarily large slowdowns: a raw
#: (unnormalized) ratio past ``tolerance * HARD_CAP_FACTOR`` fails even
#: when the median ratio moved with it (a *uniform* real regression).
HARD_CAP_FACTOR = 3.0


def load_medians(path: Path) -> dict[str, float]:
    """``fullname -> median seconds`` of one pytest-benchmark dump."""
    data = json.loads(path.read_text())
    out = {}
    for bench in data.get("benchmarks", []):
        out[bench["fullname"]] = float(bench["stats"]["median"])
    return out


def update_baselines(baseline_path: Path, medians: dict[str, float]) -> None:
    """Merge fresh medians into the baseline file.

    Merging (not overwriting) lets one suite be refreshed at a time
    without silently dropping the other suites' baselines — a dropped
    baseline would downgrade its benchmark to ungated ``new`` status.
    """
    merged: dict[str, float] = {}
    if baseline_path.exists():
        merged.update(json.loads(baseline_path.read_text())["benchmarks"])
    kept = len(merged.keys() - medians.keys())
    merged.update(medians)
    payload = {
        "comment": (
            "Committed benchmark baselines (median seconds). Regenerate "
            "with: python scripts/bench_compare.py --update <json files>. "
            "bench-gate fails only past a generous runner-noise tolerance."
        ),
        "benchmarks": {
            name: round(median, 9)
            for name, median in sorted(merged.items())
        },
    }
    baseline_path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(merged)} baselines to {baseline_path} "
          f"({len(medians)} refreshed, {kept} kept)")


def machine_scale(
    baselines: dict[str, float],
    medians: dict[str, float],
    noise_floor: float,
) -> float:
    """Median now/baseline ratio over the gated benchmarks (clamped).

    Approximates how much faster/slower this machine is than the one
    that committed the baselines; per-benchmark ratios are divided by it
    before gating, so uniform machine speed cancels while an isolated
    regression survives.  Returns 1.0 when too few benchmarks overlap
    for the median to be robust.
    """
    ratios = [
        medians[name] / base
        for name, base in baselines.items()
        if name in medians and base >= noise_floor
    ]
    if len(ratios) < MIN_BENCHES_TO_NORMALIZE:
        return 1.0
    lo, hi = SCALE_CLAMP
    return min(hi, max(lo, statistics.median(ratios)))


def compare(
    baselines: dict[str, float],
    medians: dict[str, float],
    tolerance: float,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
) -> int:
    width = max((len(n) for n in {*baselines, *medians}), default=10)
    scale = machine_scale(baselines, medians, noise_floor)
    if scale != 1.0:
        print(f"  machine-speed normalization: median ratio {scale:.2f}x "
              "divided out before gating")
    if scale > 2.0:
        print("  WARNING: inferred machine factor exceeds a plausible "
              "runner-speed gap — refresh the baselines from this "
              "environment, or suspect a uniform regression",
              file=sys.stderr)
    failures = 0
    for name in sorted({*baselines, *medians}):
        base = baselines.get(name)
        now = medians.get(name)
        if base is None:
            status, detail = "new", "no baseline yet (commit --update)"
        elif now is None:
            status, detail = "absent", "baseline has no current result"
        else:
            raw = now / base if base > 0 else float("inf")
            ratio = raw / scale
            detail = (
                f"{now * 1e3:9.3f} ms vs {base * 1e3:9.3f} ms "
                f"({ratio:5.2f}x normalized, limit {tolerance:.1f}x)"
            )
            if base < noise_floor:
                status = "tiny"
                detail += "  [below noise floor, not gated]"
            elif raw > tolerance * HARD_CAP_FACTOR:
                # normalization must not absolve a slowdown this large
                status = "FAIL"
                detail += f"  [raw {raw:.1f}x past the hard cap]"
                failures += 1
            elif ratio > tolerance:
                status = "FAIL"
                failures += 1
            else:
                status = "ok"
        print(f"  {status:6s} {name:<{width}}  {detail}")
    if failures:
        print(f"\n{failures} gross regression(s) past the {tolerance:.1f}x "
              "tolerance", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff pytest-benchmark JSON dumps against committed "
                    "baselines; fail only on gross regressions.",
    )
    parser.add_argument("results", nargs="+", type=Path,
                        help="pytest-benchmark --benchmark-json files")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help=f"baseline file (default: {DEFAULT_BASELINE})")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed median ratio before failing "
                             f"(default: {DEFAULT_TOLERANCE}x)")
    parser.add_argument("--noise-floor", type=float,
                        default=DEFAULT_NOISE_FLOOR, metavar="S",
                        help="baselines below this many seconds are "
                             "reported but not gated (default: "
                             f"{DEFAULT_NOISE_FLOOR})")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline file from the results "
                             "instead of gating")
    args = parser.parse_args(argv)

    medians: dict[str, float] = {}
    for path in args.results:
        if not path.exists():
            print(f"missing results file: {path}", file=sys.stderr)
            return 2
        medians.update(load_medians(path))
    if not medians:
        print("no benchmarks found in the results files", file=sys.stderr)
        return 2

    if args.update:
        update_baselines(args.baseline, medians)
        return 0

    if not args.baseline.exists():
        print(f"missing baseline file {args.baseline}; run with --update "
              "to create it", file=sys.stderr)
        return 2
    baselines = {
        name: float(v)
        for name, v in json.loads(
            args.baseline.read_text()
        )["benchmarks"].items()
    }
    print(f"bench gate: {len(medians)} result(s) vs {len(baselines)} "
          f"baseline(s), tolerance {args.tolerance:.1f}x, noise floor "
          f"{args.noise_floor * 1e3:.1f} ms")
    return compare(baselines, medians, args.tolerance, args.noise_floor)


if __name__ == "__main__":
    raise SystemExit(main())
