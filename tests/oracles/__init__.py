"""Reference implementations the tests compare the package against.

* :mod:`tests.oracles.kernel` — a process-oriented DES kernel (event
  calendar, generator processes that ``hold``): the CSIM stand-in.
* :mod:`tests.oracles.des_engine` — :class:`DESEngine`, the
  interval-stepped engine's work driven from one kernel clock process.
* :mod:`tests.oracles.delivery` — Algorithm 1 replayed with one kernel
  process per lane.
* :mod:`tests.oracles.scalar` — the scalar versions of the batched,
  memoized and incremental admission and occupancy paths.

Nothing under ``src/`` imports these modules
(tests/test_src_imports.py).
"""
