"""Simulation support: seeded random streams and the invariant sanitizer.

The paper implemented its model in CSIM [Sch85], a proprietary
C-based process-oriented simulation language.  Here the
interval-stepped :class:`~repro.simulation.engine.IntervalEngine`
plays that role; a process-oriented DES kernel survives only as a test
oracle (``tests/oracles/``) that cross-checks it.  This package holds
what the engine shares with every model component:

* :class:`~repro.sim.rng.RandomStream` — seeded random variates,
  including the truncated geometric distribution used by the paper's
  workload.
* :mod:`~repro.sim.sanitize` — opt-in runtime invariant checks.

The statistics collectors live in :mod:`repro.obs.metrics`.
"""
