"""The ``/v1`` wire envelope: one reader at every trust boundary.

* the readers in :mod:`repro.api` that every request and response
  decoder calls;
* a hostile-body table over every POST route of a live coordinator:
  each row is a 400 whose ``error`` names the field, never a 500 or a
  dropped connection, counts no engine ``errors``, and leaves the
  serve cache and the queue's journal unchanged;
* a job route whose manifest store fails answers 500 and loses no
  point;
* a hypothesis property: any JSON value put in place of any field of a
  valid body makes the decoders and the lease-route handlers return or
  raise ``ValueError``, never anything else.
"""

import asyncio
import http.client
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.graph.serialize import network_to_dict
from repro.runtime.cache import ResultCache
from repro.runtime.journal import Journal
from repro.runtime.queue import JobQueue
from repro.runtime.spec import get_spec
from repro.serve import JobHost, ScheduleEngine, Server
from repro.wire import read_bool, read_choice, read_ints, read_list
from repro.zoo import build
from test_graph_boundary import DEEP_ARRAY, DEEP_GRAPH

AXES = {"net_name": ["resnet50"], "mini_batch": [16], "buffer_mib": [5, 10]}
SCHEDULE = {"schema": 1, "network": "toy_chain", "policy": "mbs2",
            "buffer_bytes": 64 << 10}


def run(coro):
    return asyncio.run(coro)


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# ---------------------------------------------------------------------------
# the readers
# ---------------------------------------------------------------------------

class TestReaders:
    @pytest.mark.parametrize("schema", [True, 1.0, 2, "1", None])
    def test_schema_must_be_the_integer_one(self, schema):
        with pytest.raises(ValueError, match="unsupported thing schema"):
            api.read_envelope({"schema": schema}, "thing", ())

    def test_returns_the_known_keys_present(self):
        wire = {"schema": 1, "a": 1, "c": 3}
        assert api.read_envelope(wire, "thing", ("a", "b", "c")) \
            == {"a": 1, "c": 3}
        assert api.read_envelope({"a": 1, "z": 0}, "thing", ("a",),
                                 required=("a",), strict=False) == {"a": 1}

    @pytest.mark.parametrize("wire, needle", [
        ([], "thing must be a JSON object, got list"),
        ({"a": 1, "b": 2}, r"unknown thing key\(s\) \['b'\]"),
        ({}, r"thing missing key\(s\) \['a'\]"),
    ])
    def test_rejections_name_the_noun(self, wire, needle):
        with pytest.raises(ValueError, match=needle):
            api.read_envelope(wire, "thing", ("a",), required=("a",))

    @pytest.mark.parametrize("value", [0, -1, True, 1.0, "1", None,
                                       api.MAX_WIRE_INT + 1])
    def test_read_int_rejects(self, value):
        with pytest.raises(ValueError, match="^n: expected a positive"):
            api.read_int(value, "n", maximum=api.MAX_WIRE_INT)

    def test_read_int_bounds(self):
        assert api.read_int(api.MAX_WIRE_INT, "n",
                            maximum=api.MAX_WIRE_INT) == api.MAX_WIRE_INT
        assert api.read_int(0, "i", minimum=0) == 0
        with pytest.raises(ValueError, match="^i: expected a non-negative"):
            api.read_int(-1, "i", minimum=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), 0, -1.5, True,
                                       10**400, "5"])
    def test_read_seconds_rejects(self, value):
        with pytest.raises(ValueError, match="^t: expected a positive "
                                             "finite number"):
            api.read_seconds(value, "t")

    def test_read_seconds_keeps_the_value(self):
        assert api.read_seconds(5, "t") == 5
        assert type(api.read_seconds(5, "t")) is int  # response bytes
        assert api.read_seconds(0.25, "t") == 0.25

    @pytest.mark.parametrize("value", ["", None, 5, ["x"]])
    def test_read_str_rejects(self, value):
        with pytest.raises(ValueError, match="^s: expected a non-empty"):
            api.read_str(value, "s")

    def test_read_ints(self):
        assert read_ints([1, 2], "p", 2) == [1, 2]
        assert read_ints([0, 0], "p", 2, minimum=0) == [0, 0]
        for bad in ([0, 1], [1], (1, 1), [True, 1], [1.0, 1],
                    [1, api.MAX_WIRE_INT + 1], None):
            with pytest.raises(ValueError, match=r"^p: expected an array "
                                                 r"of 2 positive integers"):
                read_ints(bad, "p", 2)

    def test_read_bool_list_and_choice(self):
        assert read_bool(False, "b") is False
        assert read_list([], "l") == []
        assert read_choice("a", "c", ("a", "b")) == "a"
        for call in (lambda: read_bool(0, "b"),
                     lambda: read_list((1,), "l"),
                     lambda: read_choice(["a"], "c", ("a",)),
                     lambda: read_choice("z", "c", ("a",))):
            with pytest.raises(ValueError, match=r"^[blc]: expected "):
                call()

    @pytest.mark.parametrize("groups, needle", [
        (5, "groups: expected an array, got int"),
        ([7], r"groups\[0\] must be a JSON object, got int"),
        ([{"first_block": 0}], r"groups\[0\] missing key\(s\)"),
    ])
    def test_result_groups_decode_through_the_reader(self, groups, needle):
        wire = api.price("toy_chain", "mbs2").to_wire()
        wire["groups"] = groups
        with pytest.raises(ValueError, match=needle):
            api.ScheduleResult.from_wire(wire)

    def test_result_groups_ignore_unknown_keys(self):
        result = api.price("toy_chain", "mbs2")
        wire = result.to_wire()
        wire["groups"][0]["from_a_newer_server"] = 1
        assert api.ScheduleResult.from_wire(wire).groups == result.groups

    def test_responses_ignore_unknown_keys_but_check_schema(self):
        status = api.SweepJobStatus(
            job_id="job-1", artifact="fig3", quick=False, state="done",
            total=1, pending=0, leased=0, done=1, poisoned=0,
            max_attempts=3, lease_timeout_s=60.0,
        )
        wire = {**status.to_wire(), "added_by_a_newer_server": 1}
        assert api.SweepJobStatus.from_wire(wire) == status
        with pytest.raises(ValueError, match="unsupported job status"):
            api.SweepJobStatus.from_wire({**wire, "schema": True})


# ---------------------------------------------------------------------------
# hostile bodies over HTTP
# ---------------------------------------------------------------------------

def _call(port, method, path, body=None):
    text = body if body is None or isinstance(body, str) \
        else json.dumps(body)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=text,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())
    finally:
        conn.close()


def _tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` with its bytes: a store's whole state."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


async def _with_coordinator(fn, root: Path, *, coord_cache=None):
    """Run ``fn(port, host, clock)`` against a serve + queue coordinator.

    The pricing surface has a result cache under ``root/serve-cache``;
    the queue journals to ``root/state``.  Fails if the event loop
    reported any exception while the server ran.
    """
    clock = _Clock()
    host = JobHost(
        JobQueue.restore(Journal(root / "state", fsync=False),
                         specs=get_spec, clock=clock, lease_timeout_s=30.0),
        cache=coord_cache,
    )
    engine = ScheduleEngine(workers=0, cache=ResultCache(root / "serve-cache"))
    loop = asyncio.get_running_loop()
    reported = []
    loop.set_exception_handler(lambda _loop, context: reported.append(context))
    server = Server(engine, jobs=host)
    await server.start()
    try:
        result = await loop.run_in_executor(None, fn, server.port, host,
                                            clock)
    finally:
        await server.aclose()
        host.queue.journal.close()
    assert not reported, f"event loop reported: {reported}"
    return result


def _graph(schema):
    graph = network_to_dict(build("toy_chain"))
    graph["schema"] = schema
    return {"schema": 1, "graph": graph, "policy": "mbs2"}


#: (route, body, status, needle).  ``<lease>`` in a route is a live
#: lease; ``INDEX`` in a body, or ``<index>`` in a body string, is the
#: index of one of its points, and ``<key>`` in a body string is that
#: point's key.
INDEX = object()
HOSTILE = [
    # POST /v1/schedule
    ("/v1/schedule", {**SCHEDULE, "schema": True}, 400, "schema"),
    ("/v1/schedule", {**SCHEDULE, "schema": 1.0}, 400, "schema"),
    ("/v1/schedule", {**SCHEDULE, "schema": 2}, 400, "schema"),
    ("/v1/schedule", _graph(True), 400, "unsupported $ schema True"),
    ("/v1/schedule", _graph(1.0), 400, "unsupported $ schema 1.0"),
    ("/v1/schedule", {**SCHEDULE, "mini_batch": 2**64}, 400, "mini_batch"),
    ("/v1/schedule", {**SCHEDULE, "buffer_bytes": 2**53 + 1}, 400,
     "buffer_bytes"),
    ("/v1/schedule", {**SCHEDULE, "buffer_bytes": 10**30}, 400,
     "buffer_bytes"),
    ("/v1/schedule", {**SCHEDULE, "word_bytes": 2**60}, 400, "word_bytes"),
    ("/v1/schedule", {**SCHEDULE, "buffer_bytes": 0}, 400, "buffer_bytes"),
    ("/v1/schedule", {**SCHEDULE, "policy": ["mbs2"]}, 400, "policy"),
    ("/v1/schedule", {"schema": 1, "graph": []}, 400, "$"),
    ("/v1/schedule", {**SCHEDULE, "relu_mask": [True]}, 400, "relu_mask"),
    ("/v1/schedule", {**SCHEDULE, "nope": 1}, 400, "unknown request key"),
    ("/v1/schedule", "not json at all", 400, "not valid JSON"),
    # POST /v1/jobs
    ("/v1/jobs", {"schema": 1, "artifact": "fig3", "axes": AXES,
                  "lease_timeout_s": float("nan")}, 400, "lease_timeout_s"),
    ("/v1/jobs", {"schema": 1, "artifact": "fig3", "axes": AXES,
                  "lease_timeout_s": float("inf")}, 400, "lease_timeout_s"),
    ("/v1/jobs", {"schema": 1, "axes": AXES}, 400,
     "job request missing key(s) ['artifact']"),
    ("/v1/jobs", {"schema": 1.0, "artifact": "fig3", "axes": AXES}, 400,
     "schema"),
    ("/v1/jobs", {"schema": 1, "artifact": "fig3", "axes": {"nope": [1]}},
     400, "axes"),
    ("/v1/jobs", {"schema": 1, "artifact": "fig3", "max_attempts": True},
     400, "max_attempts"),
    # POST /v1/lease
    ("/v1/lease", {"schema": 1, "worker": "w2", "job": ["x"]}, 400, "job"),
    ("/v1/lease", {"schema": 1, "worker": "w2", "job": 5}, 400, "job"),
    ("/v1/lease", {"schema": True, "worker": "w2"}, 400, "schema"),
    ("/v1/lease", {"schema": 1, "worker": ""}, 400, "worker"),
    ("/v1/lease", {"schema": 1, "worker": "w2", "max_points": 1.5}, 400,
     "max_points"),
    # POST /v1/lease/<id>/{heartbeat,complete,fail}
    ("/v1/lease/<lease>/heartbeat", "not json at all", 400,
     "not valid JSON"),
    ("/v1/lease/<lease>/heartbeat", {"schema": 2}, 400, "schema"),
    ("/v1/lease/<lease>/heartbeat", {"schema": 1, "junk": 1}, 400,
     "unknown heartbeat request key"),
    ("/v1/lease/<lease>/complete",
     {"schema": 2, "index": INDEX, "manifest": {}, "junk": 1}, 400,
     "schema"),
    ("/v1/lease/<lease>/complete",
     {"schema": 1, "index": INDEX, "manifest": {}, "junk": 1}, 400,
     "unknown complete request key"),
    ("/v1/lease/<lease>/complete",
     {"schema": 1, "index": True, "manifest": {}}, 400, "index"),
    ("/v1/lease/<lease>/complete",
     {"schema": 1, "index": INDEX, "manifest": []}, 400, "manifest"),
    ("/v1/lease/<lease>/fail",
     {"schema": 9, "index": INDEX, "error": "boom", "junk": 2}, 400,
     "schema"),
    ("/v1/lease/<lease>/fail",
     {"schema": 1, "index": INDEX, "error": ""}, 400, "error"),
    # nested too deeply, on every POST route (appended, so the rows
    # above keep their ids)
    ("/v1/schedule", DEEP_ARRAY, 400, "nested too deeply"),
    ("/v1/schedule", '{"schema": 1, "policy": "mbs2", "graph": %s}'
     % DEEP_GRAPH, 400, "nested too deeply"),
    ("/v1/jobs", DEEP_ARRAY, 400, "nested too deeply"),
    ("/v1/jobs", '{"schema": 1, "artifact": "fig3", "axes": {"mini_batch": '
     '[%s]}}' % DEEP_GRAPH, 400, "axes: a value is nested too deeply"),
    ("/v1/lease", DEEP_ARRAY, 400, "nested too deeply"),
    ("/v1/lease/<lease>/heartbeat", DEEP_ARRAY, 400, "nested too deeply"),
    ("/v1/lease/<lease>/complete", DEEP_ARRAY, 400, "nested too deeply"),
    ("/v1/lease/<lease>/fail", DEEP_ARRAY, 400, "nested too deeply"),
    # a manifest json parses but the cache cannot encode
    ("/v1/lease/<lease>/complete",
     '{"schema": 1, "index": <index>, "manifest": {"spec": "fig3", '
     '"key": "<key>", "artifact": %s}}' % ("[" * 600 + "]" * 600), 400,
     "manifest: nested too deeply"),
]


@pytest.mark.parametrize("route, body, status, needle", HOSTILE,
                         ids=[f"{r[0]}-{i}" for i, r in enumerate(HOSTILE)])
def test_hostile_body_is_rejected_without_side_effects(
        tmp_path, route, body, status, needle):
    def fn(port, host, clock):
        # a priced request in the serve cache, a job with a live lease
        assert _call(port, "POST", "/v1/schedule", SCHEDULE)[0] == 200
        st, job = _call(port, "POST", "/v1/jobs",
                        {"schema": 1, "artifact": "fig3", "axes": AXES,
                         "quick": True})
        assert st == 200, job
        st, grant = _call(port, "POST", "/v1/lease",
                          {"schema": 1, "worker": "w1"})
        lease = grant["lease"]
        point = lease["points"][0]["index"]
        key = host.queue.jobs[lease["job_id"]].points[point].key
        path = route.replace("<lease>", lease["lease_id"])
        if isinstance(body, str):
            wire = body.replace("<index>", str(point)).replace("<key>", key)
        else:
            wire = {k: point if v is INDEX else v for k, v in body.items()}
        before = _tree(tmp_path)
        errors = _call(port, "GET", "/v1/stats")[1]["errors"]
        answer = _call(port, "POST", path, wire)
        errors -= _call(port, "GET", "/v1/stats")[1]["errors"]
        return answer, before, _tree(tmp_path), errors

    # the coordinator stores manifests in a result cache, as
    # `mbs-repro serve` does
    (got, error), before, after, errors = run(_with_coordinator(
        fn, tmp_path, coord_cache=ResultCache(tmp_path / "coord-cache")))
    assert got == status, error
    assert needle in error["error"]
    assert errors == 0, "a rejected body counted an engine error"
    assert after == before, "a rejected body changed the cache or journal"


# ---------------------------------------------------------------------------
# a job route that fails inside answers 500
# ---------------------------------------------------------------------------

class _FullDiskCache(ResultCache):
    def store(self, manifest):
        raise OSError(28, "No space left on device")


def test_store_failure_is_a_500_and_the_point_survives(tmp_path):
    def fn(port, host, clock):
        _call(port, "POST", "/v1/jobs",
              {"schema": 1, "artifact": "fig3", "axes": AXES, "quick": True})
        _, grant = _call(port, "POST", "/v1/lease",
                         {"schema": 1, "worker": "w1"})
        lease = grant["lease"]
        point = lease["points"][0]["index"]
        key = host.queue.jobs[lease["job_id"]].points[point].key
        failed = _call(port, "POST",
                       f"/v1/lease/{lease['lease_id']}/complete",
                       {"schema": 1, "index": point,
                        "manifest": {"spec": "fig3", "key": key}})
        clock.t += 31.0  # the lease expires; its points re-queue
        _, again = _call(port, "POST", "/v1/lease",
                         {"schema": 1, "worker": "w2", "max_points": 2})
        return failed, again["lease"]

    (status, body), again = run(_with_coordinator(
        fn, tmp_path, coord_cache=_FullDiskCache(tmp_path / "coord")))
    assert status == 500
    assert body["error"].startswith("internal error: ")
    assert "No space left on device" in body["error"]
    assert [p["index"] for p in again["points"]] == [0, 1]


# ---------------------------------------------------------------------------
# any JSON value in any field: return or ValueError
# ---------------------------------------------------------------------------

_scalars = (st.none() | st.booleans() | st.integers()
            | st.sampled_from([2**53, 2**53 + 1, 2**64, -2**64, 10**30,
                               10**400])
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(max_size=6))
_json = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6,
)


def _mutations(valid):
    """Bodies that differ from ``valid`` in one field (or one extra key,
    or one missing key)."""
    keys = [*valid, "schema", "extra"]
    substituted = st.tuples(st.sampled_from(keys), _json).map(
        lambda kv: {**valid, kv[0]: kv[1]})
    dropped = st.sampled_from(list(valid)).map(
        lambda key: {k: v for k, v in valid.items() if k != key})
    return substituted | dropped


def _holds(call, wire):
    try:
        call(wire)
    except ValueError:
        pass


_property = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_property
@given(_mutations({"schema": 1, "network": "toy_chain", "policy": "mbs2",
                   "buffer_bytes": 65536, "mini_batch": 8,
                   "objective": "traffic", "relu_mask": False,
                   "word_bytes": 2}))
def test_schedule_request_decodes_or_raises_value_error(wire):
    def decode(wire):
        api.request_fingerprint(api.ScheduleRequest.from_wire(wire))

    _holds(decode, wire)


@_property
@given(_mutations({"schema": 1, "artifact": "fig3", "axes": AXES,
                   "quick": True, "max_attempts": 2,
                   "lease_timeout_s": 5.0}))
def test_job_request_decodes_or_raises_value_error(wire):
    _holds(api.SweepJobRequest.from_wire, wire)


def _leased_host():
    """A host with one job and one live lease over its first point."""
    host = JobHost(JobQueue(clock=_Clock()))
    host.submit_wire({"artifact": "fig3", "axes": AXES, "quick": True})
    lease = host.lease_wire({"worker": "w1"})["lease"]
    point = host.queue.jobs[lease["job_id"]].points[0]
    return host, lease["lease_id"], point


@_property
@given(st.data())
def test_lease_route_handlers_return_or_raise_value_error(data):
    host, lease_id, point = _leased_host()
    bodies = {
        "lease": {"schema": 1, "worker": "w2", "max_points": 2,
                  "job": "job-1"},
        "heartbeat": {"schema": 1},
        "complete": {"schema": 1, "index": point.index,
                     "manifest": {"spec": "fig3", "key": point.key}},
        "fail": {"schema": 1, "index": point.index, "error": "boom"},
    }
    route = data.draw(st.sampled_from(sorted(bodies)))
    wire = data.draw(_mutations(bodies[route]))
    if route == "lease":
        _holds(host.lease_wire, wire)
    else:
        handler = getattr(host, f"{route}_wire")
        _holds(lambda w: handler(lease_id, w), wire)
