"""Content-addressed result cache for experiment artifacts.

A task's identity is ``sha256(spec name, spec version, fully resolved
parameters, code fingerprint)``.  The fingerprint is *dependency
scoped*: :func:`spec_fingerprint` hashes only the transitive import
closure of the spec's producing module (static AST analysis via
:class:`~repro.runtime.deps.ImportGraph` — every file the produce-fn
can reach through ``import`` statements, and nothing else).  Editing
one leaf experiment file therefore invalidates that spec alone; the
other specs' manifests keep hitting.  A module the analyzer cannot
resolve inside the :mod:`repro` package falls back to the package-wide
:func:`code_fingerprint` (every ``.py`` under ``repro/``) — coarse,
but never under-invalidating.  Closure semantics are documented in
``docs/caching.md``.

Manifests are single JSON files under ``<cache root>/<spec>/<key>.json``
with deterministic byte encoding and no timestamps, so a manifest
produced by a pool worker is byte-identical to one produced serially.
The cache root defaults to ``.mbs-cache`` in the working directory and
can be overridden with ``--cache-dir`` or ``$MBS_REPRO_CACHE``.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.runtime.deps import ImportGraph
from repro.runtime.serialize import canonical_dumps, jsonify
from repro.runtime.spec import ExperimentSpec

#: environment override for the cache root
CACHE_ENV = "MBS_REPRO_CACHE"

MANIFEST_SCHEMA = ("spec", "version", "key", "fingerprint", "params",
                   "artifact", "rendered")


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else Path(".mbs-cache")


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of the installed ``repro`` package source (every file)."""
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@functools.lru_cache(maxsize=1)
def package_graph() -> ImportGraph:
    """Import graph of the installed ``repro`` package."""
    import repro

    return ImportGraph(Path(repro.__file__).resolve().parent, "repro")


@functools.lru_cache(maxsize=None)
def module_fingerprint(*modules: str) -> str:
    """Dependency-scoped digest of the given modules' import closures.

    Any module the static analyzer cannot resolve inside the ``repro``
    package (a spec defined in a test file, say) degrades the whole
    call to the package-wide :func:`code_fingerprint` — the safe
    over-approximation.
    """
    graph = package_graph()
    if not modules or not all(graph.covers(m) for m in modules):
        return code_fingerprint()
    return graph.fingerprint(modules)


def spec_fingerprint(spec: ExperimentSpec) -> str:
    """The fingerprint ``spec``'s cache keys are scoped to."""
    return module_fingerprint(spec.module)


def reset_fingerprint_caches() -> None:
    """Forget every memoized fingerprint and parsed import graph.

    Tests that edit package sources on disk (or monkeypatch the package
    location) call this so the next fingerprint request re-reads the
    tree instead of replaying a stale digest.
    """
    code_fingerprint.cache_clear()
    module_fingerprint.cache_clear()
    package_graph.cache_clear()


def task_key(
    spec: ExperimentSpec,
    params: Mapping[str, Any],
    fingerprint: str | None = None,
) -> str:
    """Content address of one (spec, params, code) combination.

    Without an explicit ``fingerprint`` the key is scoped to the spec's
    dependency closure via :func:`spec_fingerprint`.
    """
    blob = json.dumps(
        {
            "spec": spec.name,
            "version": spec.version,
            "params": jsonify(dict(params)),
            "code": fingerprint or spec_fingerprint(spec),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def build_manifest(
    spec: ExperimentSpec,
    params: Mapping[str, Any],
    key: str,
    fingerprint: str,
    artifact: Any,
    rendered: str,
) -> dict[str, Any]:
    return {
        "spec": spec.name,
        "version": spec.version,
        "key": key,
        "fingerprint": fingerprint,
        "params": jsonify(dict(params)),
        "artifact": artifact,
        "rendered": rendered,
    }


def manifest_bytes(manifest: Mapping[str, Any]) -> bytes:
    return (canonical_dumps(manifest) + "\n").encode()


class ResultCache:
    """JSON-manifest store addressed by :func:`task_key`."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def path(self, spec_name: str, key: str) -> Path:
        return self.root / spec_name / f"{key}.json"

    def lookup(self, spec_name: str, key: str) -> dict[str, Any] | None:
        """Return the stored manifest, or None on miss/corruption."""
        path = self.path(spec_name, key)
        try:
            with open(path) as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if manifest.get("key") != key:
            return None
        return manifest

    def store(self, manifest: Mapping[str, Any]) -> Path:
        """Persist a manifest atomically (write-temp + rename).

        The manifest is encoded first, so one that cannot be encoded
        touches no file."""
        data = manifest_bytes(manifest)
        path = self.path(manifest["spec"], manifest["key"])
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return path

    def entries(self, spec_name: str | None = None) -> Iterator[Path]:
        pattern = f"{spec_name or '*'}/*.json"
        yield from sorted(self.root.glob(pattern))

    def clear(self, spec_name: str | None = None) -> int:
        """Delete manifests (one spec's, or all); returns count removed."""
        removed = 0
        for path in self.entries(spec_name):
            path.unlink()
            removed += 1
        return removed
