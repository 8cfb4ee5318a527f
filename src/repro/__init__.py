"""MBS: Mini-batch Serialization for CNN training — paper reproduction.

Reproduces Lym et al., "Mini-batch Serialization: CNN Training with
Inter-layer Data Reuse" (SysML/MLSys 2019).  The public API surfaces the
four things a user does:

* build or define a network — :mod:`repro.zoo`, :mod:`repro.graph`;
* price a schedule for it — :mod:`repro.api` (the supported, stable
  facade: :func:`repro.api.price` / :func:`repro.api.sweep`), or serve
  prices over HTTP — :mod:`repro.serve`;
* simulate the WaveCore accelerator — :func:`repro.wavecore.simulate_step`;
* verify/re-run the training numerics — :mod:`repro.nn`.

The deeper entry points (:func:`repro.core.make_schedule`,
:func:`repro.core.compute_traffic`) remain importable but only
:mod:`repro.api` carries the stability promise.

``mbs-repro all`` (:mod:`repro.experiments.runner`) regenerates every
table and figure of the paper; ``docs/`` covers the scheduler, the
result cache, the server and the sweep queue.
"""
from repro import api
from repro.core import compute_traffic, make_schedule
from repro.types import GIB, KIB, MIB, Shape
from repro.wavecore import simulate_step

__version__ = "1.0.0"

__all__ = [
    "GIB",
    "KIB",
    "MIB",
    "Shape",
    "__version__",
    "api",
    "compute_traffic",
    "make_schedule",
    "simulate_step",
]
