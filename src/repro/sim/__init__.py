"""Discrete-event simulation support: kernel, statistics, random streams.

The paper implemented its model in CSIM [Sch85], a proprietary
C-based process-oriented simulation language.  This package keeps
only the parts of that vocabulary the reproduction uses:

* :class:`~repro.sim.kernel.Simulation` — the event calendar and clock.
  **Processes** are plain generator functions that ``yield``
  :func:`~repro.sim.kernel.hold` commands; :meth:`Simulation.spawn`
  starts one and :meth:`Simulation.run` drains the calendar.
* :class:`~repro.sim.monitor.Tally` / :class:`~repro.sim.monitor.TimeWeighted`
  — statistics collectors.
* :class:`~repro.sim.rng.RandomStream` — seeded random variates,
  including the truncated geometric distribution used by the paper's
  workload.
* :mod:`~repro.sim.sanitize` — opt-in runtime invariant checks.
"""

from repro.sim.kernel import Process, Simulation, hold
from repro.sim.monitor import Tally, TimeWeighted
from repro.sim.rng import RandomStream

__all__ = [
    "Process",
    "RandomStream",
    "Simulation",
    "Tally",
    "TimeWeighted",
    "hold",
]
