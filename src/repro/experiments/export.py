"""JSON export of all experiment artifacts.

``mbs-repro export results.json`` serializes every registered spec's
``run()`` output into one file, so the reproduced numbers can be
regenerated and diffed.  Export rides on the :mod:`repro.runtime`
engine: results come from the content-addressed cache when available
and the misses can be fanned out across workers with ``jobs``.
"""
from __future__ import annotations

import json
from typing import Any


def export_all(
    path: str,
    quick: bool = True,
    jobs: int = 1,
    cache=None,
    use_cache: bool = True,
) -> dict:
    """Run every experiment (cache-aware) and dump the results to ``path``."""
    from repro.runtime import Task, all_specs, run_tasks

    tasks = [Task(spec, {}, quick=quick) for spec in all_specs()]
    task_results = run_tasks(
        tasks, jobs=jobs, cache=cache, use_cache=use_cache
    )
    failed = [r.spec_name for r in task_results if not r.ok]
    if failed:
        raise RuntimeError(f"experiment(s) failed: {' '.join(failed)}")
    results: dict[str, Any] = {
        r.spec_name: r.artifact for r in task_results
    }
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1, default=repr)
    return results
