"""The interval-stepped simulation: configuration, engine, results.

The engine advances the model one time interval at a time (the
paper's ``S(C_i)`` quantum), delegating storage decisions to a
:class:`~repro.simulation.policy.StoragePolicy` — either staggered
striping (:mod:`repro.core.scheduler`) or the virtual-data-replication
baseline (:mod:`repro.vdr.scheduler`).
"""

from repro.simulation.config import PaperConfig, ScaledConfig, SimulationConfig
from repro.simulation.engine import IntervalEngine
from repro.simulation.export import write_csv, write_json
from repro.simulation.policy import Completion, Request, StoragePolicy
from repro.simulation.results import SimulationResult
from repro.simulation.runner import run_experiment, run_sweep

__all__ = [
    "Completion",
    "IntervalEngine",
    "PaperConfig",
    "Request",
    "ScaledConfig",
    "SimulationConfig",
    "SimulationResult",
    "StoragePolicy",
    "run_experiment",
    "run_sweep",
    "write_csv",
    "write_json",
]
