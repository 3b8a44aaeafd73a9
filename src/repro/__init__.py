"""repro — a reproduction of *Staggered Striping in Multimedia
Information Systems* (Berson, Ghandeharizadeh, Muntz, Ju; SIGMOD 1994).

Quick start::

    from repro import ScaledConfig, run_experiment

    result = run_experiment(ScaledConfig(technique="simple",
                                         num_stations=16))
    print(result.summary())

Layers (see DESIGN.md for the full inventory):

* :mod:`repro.sim` — seeded random streams and the runtime invariant
  sanitizer (the interval engine plays CSIM's role; its DES
  cross-check lives in ``tests/oracles/``).
* :mod:`repro.hardware` — disk / disk-array / tertiary / buffer models.
* :mod:`repro.media` — objects, subobjects, fragments, striping layouts.
* :mod:`repro.core` — the staggered-striping scheduler (the paper's
  contribution).
* :mod:`repro.vdr` — the virtual-data-replication baseline.
* :mod:`repro.workload` / :mod:`repro.simulation` — closed-loop
  stations and the interval-stepped engine.
* :mod:`repro.experiments` — the Figure 8 / Table 4, open-workload and
  fault grids the CLI runs; :mod:`repro.analysis` — their table
  formatting.  §3's closed forms and the Figure 1/3/4/5 drivers are test
  oracles (``tests/oracles/``).
"""

from repro.simulation.config import PaperConfig, ScaledConfig, SimulationConfig
from repro.simulation.results import SimulationResult, improvement_percent
from repro.simulation.runner import run_experiment, run_sweep

__version__ = "1.0.0"

__all__ = [
    "PaperConfig",
    "ScaledConfig",
    "SimulationConfig",
    "SimulationResult",
    "improvement_percent",
    "run_experiment",
    "run_sweep",
    "__version__",
]
