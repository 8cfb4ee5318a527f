"""Sweep engine: caching, invalidation, determinism, failure isolation.

The produce-fns live at module level so they pickle by reference into
pool workers.  Cross-process assertions use sentinel files (worker-side
counters don't propagate back to the test process).
"""
import time
from pathlib import Path

from repro.runtime import (
    ExperimentSpec,
    ResultCache,
    Task,
    manifest_bytes,
    run_tasks,
)


def produce_sum(x=1, y=2):
    return {"sum": x + y, "x": x, "y": y}


def render_sum(res):
    print(f"sum is {res['sum']}")


def produce_touch(out_dir="", x=1):
    """Leaves one file per invocation — visible across processes."""
    stamp = Path(out_dir) / f"ran-{x}-{time.monotonic_ns()}"
    stamp.touch()
    return {"x": x}


def produce_boom(x=1):
    raise RuntimeError("deliberate failure")


def produce_sleep(seconds=30.0):
    time.sleep(seconds)
    return {"slept": seconds}


def spec_sum(**kw):
    base = dict(name="pool_sum", title="t", produce=produce_sum,
                render=render_sum, artifact=("sum",))
    base.update(kw)
    return ExperimentSpec(**base)


class TestInlineEngine:
    def test_miss_runs_and_persists(self, tmp_path):
        cache = ResultCache(tmp_path)
        (r,) = run_tasks([Task(spec_sum())], cache=cache)
        assert r.status == "ran"
        assert r.artifact == {"sum": 3, "x": 1, "y": 2}
        assert r.rendered == "sum is 3\n"
        assert cache.lookup("pool_sum", r.key) is not None

    def test_second_run_is_cached_without_rerunning(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        marks = tmp_path / "marks"
        marks.mkdir()
        spec = ExperimentSpec(name="pool_touch", title="t",
                              produce=produce_touch)
        task = Task(spec, {"out_dir": str(marks)})
        (first,) = run_tasks([task], cache=cache)
        (second,) = run_tasks([task], cache=cache)
        assert (first.status, second.status) == ("ran", "cached")
        assert len(list(marks.iterdir())) == 1
        assert second.manifest == first.manifest

    def test_no_cache_recomputes_but_still_stores(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        marks = tmp_path / "marks"
        marks.mkdir()
        spec = ExperimentSpec(name="pool_touch", title="t",
                              produce=produce_touch)
        task = Task(spec, {"out_dir": str(marks)})
        run_tasks([task], cache=cache)
        (again,) = run_tasks([task], cache=cache, use_cache=False)
        assert again.status == "ran"
        assert len(list(marks.iterdir())) == 2

    def test_param_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_tasks([Task(spec_sum())], cache=cache)
        (r,) = run_tasks([Task(spec_sum(), {"x": 7})], cache=cache)
        assert r.status == "ran"
        assert r.artifact["sum"] == 9

    def test_fingerprint_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        (a,) = run_tasks([Task(spec_sum())], cache=cache, fingerprint="v1")
        (b,) = run_tasks([Task(spec_sum())], cache=cache, fingerprint="v1")
        (c,) = run_tasks([Task(spec_sum())], cache=cache, fingerprint="v2")
        assert (a.status, b.status, c.status) == ("ran", "cached", "ran")
        assert a.key == b.key != c.key

    def test_version_bump_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        (a,) = run_tasks([Task(spec_sum())], cache=cache)
        (b,) = run_tasks([Task(spec_sum(version="2"))], cache=cache)
        assert (a.status, b.status) == ("ran", "ran")

    def test_artifact_schema_violation_is_error(self, tmp_path):
        spec = spec_sum(artifact=("sum", "not_there"))
        (r,) = run_tasks([Task(spec)], cache=ResultCache(tmp_path))
        assert r.status == "error"
        assert "not_there" in r.error
        assert r.manifest is None

    def test_producer_exception_is_isolated(self, tmp_path):
        cache = ResultCache(tmp_path)
        boom = ExperimentSpec(name="pool_boom", title="t",
                              produce=produce_boom)
        results = run_tasks(
            [Task(spec_sum()), Task(boom), Task(spec_sum(), {"x": 3})],
            cache=cache,
        )
        assert [r.status for r in results] == ["ran", "error", "ran"]
        assert "deliberate failure" in results[1].error


class TestProcessPool:
    def test_results_keep_input_order(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = [Task(spec_sum(), {"x": x}) for x in range(6)]
        results = run_tasks(tasks, jobs=3, cache=cache)
        assert [r.artifact["x"] for r in results] == list(range(6))
        assert all(r.status == "ran" for r in results)

    def test_worker_error_does_not_poison_run(self, tmp_path):
        boom = ExperimentSpec(name="pool_boom", title="t",
                              produce=produce_boom)
        results = run_tasks(
            [Task(boom), Task(spec_sum(), {"x": 5})],
            jobs=2, cache=ResultCache(tmp_path),
        )
        assert results[0].status == "error"
        assert "deliberate failure" in results[0].error
        assert results[1].status == "ran"

    def test_timeout_marks_task_and_spares_others(self, tmp_path):
        slow = ExperimentSpec(name="pool_slow", title="t",
                              produce=produce_sleep, timeout_s=0.5)
        results = run_tasks(
            [Task(slow, {"seconds": 3.0}), Task(spec_sum())],
            jobs=2, cache=ResultCache(tmp_path),
        )
        assert results[0].status == "timeout"
        assert "timed out" in results[0].error
        assert results[1].status == "ran"

    def test_pool_hits_cache_populated_serially(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        marks = tmp_path / "marks"
        marks.mkdir()
        spec = ExperimentSpec(name="pool_touch", title="t",
                              produce=produce_touch)
        tasks = [Task(spec, {"out_dir": str(marks), "x": x})
                 for x in range(4)]
        run_tasks(tasks, jobs=1, cache=cache)
        results = run_tasks(tasks, jobs=4, cache=cache)
        assert all(r.status == "cached" for r in results)
        assert len(list(marks.iterdir())) == 4  # nothing re-ran


class TestDeterminism:
    def test_serial_and_parallel_manifests_byte_identical(self, tmp_path):
        """Real specs: --jobs 1 and --jobs 4 agree to the byte."""
        import repro.experiments  # noqa: F401  (registers the specs)
        from repro.runtime import get_spec

        specs = [get_spec(n) for n in ("fig3", "fig4", "tab2", "precision")]
        serial_cache = ResultCache(tmp_path / "serial")
        pool_cache = ResultCache(tmp_path / "pool")
        tasks = [Task(s, {}, quick=True) for s in specs]
        serial = run_tasks(tasks, jobs=1, cache=serial_cache)
        parallel = run_tasks(tasks, jobs=4, cache=pool_cache)
        for a, b in zip(serial, parallel):
            assert a.status == "ran" and b.status == "ran"
            assert a.key == b.key
            assert manifest_bytes(a.manifest) == manifest_bytes(b.manifest)
