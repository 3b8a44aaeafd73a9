"""Reference implementations the tests compare the package against.

* :mod:`tests.oracles.kernel` — a process-oriented DES kernel (event
  calendar, generator processes that ``hold``): the CSIM stand-in.
* :mod:`tests.oracles.des_engine` — :class:`DESEngine`, the
  interval-stepped engine's work driven from one kernel clock process.
* :mod:`tests.oracles.delivery` — Algorithm 1 replayed with one kernel
  process per lane.
* :mod:`tests.oracles.coalesce` — Algorithm 2 (dynamic coalescing) and
  the delivery trace both algorithms record, checked against Fig. 6.
* :mod:`tests.oracles.lowbw` — Figure 7's low-bandwidth sharing
  schedule and its validator, and the whole- vs half-drive rounding
  waste (§3.2.3).
* :mod:`tests.oracles.station` — a station's buffer through one
  cluster switch, checking Equation 1 (§3.1).
* :mod:`tests.oracles.analytic` — Erlang-B/C and M/M/c closed forms
  with server-bank policies the open engine is checked against.
* :mod:`tests.oracles.access` — an inverse-CDF truncated-geometric
  sampler and the working-set ladder of §4.1.
* :mod:`tests.oracles.tape` — §3.2.4's fragment-ordered tape write
  batches, repositions and wasted device time.
* :mod:`tests.oracles.closed_forms` — §3's closed forms: effective
  bandwidth vs fragment size, initiation latency, Equation 1's memory
  and the §3.2.2 stride/skew arithmetic.
* :mod:`tests.oracles.seek_buffering` — §5's seek-buffering study: a
  random reposition model and the bandwidth a playout buffer buys.
* :mod:`tests.oracles.layouts` — Figures 1, 3, 4 and 5: placement grids
  and the cluster schedule.
* :mod:`tests.oracles.mixed_media` — §3.2's staggered vs widest-cluster
  design and §5's fairness runs on a mixed-media database.
* :mod:`tests.oracles.scalar` — the scalar versions of the batched,
  memoized and incremental admission and occupancy paths.
* :mod:`tests.oracles.physical` — the slot pool's schedules replayed
  drive by drive: no drive oversubscribed, every read at its
  fragment's home.

Nothing under ``src/`` imports these modules
(tests/test_src_imports.py).
"""
