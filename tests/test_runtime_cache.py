"""Content-addressed cache: keys, manifests, invalidation, robustness."""
import json

from repro.runtime import (
    ExperimentSpec,
    ResultCache,
    code_fingerprint,
    manifest_bytes,
    task_key,
)
from repro.runtime.cache import build_manifest


def produce_demo(x=1):
    return {"x": x}


SPEC = ExperimentSpec(name="cache_demo", title="t", produce=produce_demo)


def manifest_for(spec=SPEC, params=None, key=None, fp="f" * 16):
    params = params if params is not None else {"x": 1}
    key = key or task_key(spec, params, fingerprint=fp)
    return build_manifest(spec, params, key, fp, {"x": 1}, "rendered\n")


class TestTaskKey:
    def test_stable(self):
        key = task_key(SPEC, {"x": 1}, "fp")
        assert key == task_key(SPEC, {"x": 1}, "fp")
        assert len(key) == 24

    def test_param_change_changes_key(self):
        assert task_key(SPEC, {"x": 1}, "fp") != task_key(
            SPEC, {"x": 2}, "fp"
        )

    def test_fingerprint_change_changes_key(self):
        assert task_key(SPEC, {"x": 1}, "fp-a") != task_key(
            SPEC, {"x": 1}, "fp-b"
        )

    def test_version_bump_changes_key(self):
        v2 = ExperimentSpec(
            name="cache_demo", title="t", produce=produce_demo, version="2"
        )
        assert task_key(SPEC, {"x": 1}, "fp") != task_key(v2, {"x": 1}, "fp")

    def test_param_order_is_canonical(self):
        assert task_key(SPEC, {"a": 1, "b": 2}, "fp") == task_key(
            SPEC, {"b": 2, "a": 1}, "fp"
        )

    def test_default_fingerprint_is_code_fingerprint(self):
        assert task_key(SPEC, {}) == task_key(
            SPEC, {}, fingerprint=code_fingerprint()
        )


def test_code_fingerprint_shape_and_stability():
    fp = code_fingerprint()
    assert len(fp) == 16
    assert int(fp, 16) >= 0
    assert code_fingerprint() == fp


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        manifest = manifest_for()
        path = cache.store(manifest)
        assert path == cache.path("cache_demo", manifest["key"])
        assert cache.lookup("cache_demo", manifest["key"]) == json.loads(
            manifest_bytes(manifest)
        )

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).lookup("cache_demo", "nothere") is None

    def test_corrupt_manifest_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        manifest = manifest_for()
        path = cache.store(manifest)
        path.write_text("{not json")
        assert cache.lookup("cache_demo", manifest["key"]) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        """A manifest renamed onto the wrong address must not hit."""
        cache = ResultCache(tmp_path)
        manifest = manifest_for()
        cache.store(manifest)
        other = task_key(SPEC, {"x": 99}, "f" * 16)
        stored = cache.path("cache_demo", manifest["key"])
        stored.rename(cache.path("cache_demo", other))
        assert cache.lookup("cache_demo", other) is None

    def test_env_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MBS_REPRO_CACHE", str(tmp_path / "envroot"))
        assert ResultCache().root == tmp_path / "envroot"

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(manifest_for())
        cache.store(manifest_for(params={"x": 2}))
        assert cache.clear("cache_demo") == 2
        assert list(cache.entries()) == []


def test_manifest_bytes_deterministic():
    """Byte encoding must not depend on dict insertion order."""
    m1 = manifest_for()
    m2 = dict(reversed(list(m1.items())))
    assert manifest_bytes(m1) == manifest_bytes(m2)
    assert manifest_bytes(m1).endswith(b"\n")
