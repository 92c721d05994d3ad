"""Experiment definitions — one module per table/figure in EXPERIMENTS.md.

The package itself loads only :mod:`repro.experiments.common`, whose
``ExperimentTable`` and ``build_instance`` it re-exports.  The experiment
modules and the process-pool runner (``multiprocessing``,
``concurrent.futures``) load when a caller names them, as in
``from repro.experiments import ablation``, so a session process that only
builds an instance does not carry them.
"""

from repro.experiments.common import ExperimentTable, build_instance

__all__ = ["ExperimentTable", "build_instance"]
