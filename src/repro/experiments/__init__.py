"""Experiment drivers: one module per table/figure of the paper.

Each driver exposes ``run(...)`` returning plain data structures, a
``render(res)`` that prints the figure/table, and registers an
:class:`~repro.runtime.spec.ExperimentSpec` into the global runtime
registry at import time.  The ``mbs-repro`` console script
(:mod:`repro.experiments.runner`) schedules the registered specs
through the :mod:`repro.runtime` pool/cache engine.

Import order below defines the canonical experiment ordering: the
registry preserves registration order, and the CLI's ``all``/``list``
and ``export`` iterate the registry (:func:`repro.runtime.all_specs`).
"""
from repro.experiments import (  # noqa: F401  (imports register the specs)
    fig03_footprint,
    fig04_grouping,
    fig06_normalization,
    fig10_main,
    fig11_buffer_sweep,
    fig12_memory_types,
    fig13_gpu_comparison,
    fig14_utilization,
    tab02_area,
    ablation_grouping,
    ablation_precision,
    headline,
    latency_sweep,
    energy_sweep,
    scalability,
    export,
)
