"""Runtime invariant sanitizer (``--sanitize off|check|strict``).

The simulator's correctness rests on a handful of conservation
invariants that no unit test can pin for *every* configuration:

* **half-slot accounting** — a drive's claims never exceed its two
  half-slots per interval, a failed drive holds zero claims, and the
  array's running claim total equals the per-drive sum;
* **buffer conservation** — the scheduler's staging-memory gauge
  equals the sum of the buffer demand of its active time-fragmented
  displays (never negative, never leaking on completion);
* **event-time monotonicity** — no scheduler heap retains an event
  that should already have fired, and the engine's interval counter
  never runs backwards (the ``engine.interval`` watermark that
  :meth:`Sanitizer.check_interval` keeps);
* **quiet skips** — the engine jumps over intervals its sources
  promise are quiet; no scheduled event may fall inside a skipped
  span and no queued request may be admissible in it (heaps pop with
  ``<=``, so a late wake-up would silently process events late);
* **RNG substream non-reuse** — no two subsystems of one run draw
  from the same derived stream (which would silently correlate the
  workload with, say, the fault schedule).

A :class:`Sanitizer` carries one of three modes:

``off``
    No sanitizer object is built at all; every call site skips on a
    single ``is None`` test and results are byte-identical to an
    unsanitized build.
``check``
    Violations are tallied per check as ``sanitize.<check>`` counters
    (mirrored into the run's obs registry when telemetry is on) and
    the run continues.
``strict``
    The first violation raises :class:`~repro.errors.SanitizeError`
    with the check name and the offending state.

Components expose ``verify_invariants(sanitizer, interval)`` hooks
(:class:`~repro.hardware.disk_array.DiskArray`,
:class:`~repro.core.virtual_disks.SlotPool`, both storage policies);
the :class:`~repro.simulation.engine.IntervalEngine` drives them once
per stepped interval, and their ``verify_skip`` hooks once per skipped
span.  The RNG hook is module-global (streams are forked deep
inside builders that have no sanitizer parameter): the active run
registers its sanitizer with :func:`activation` and
:class:`~repro.sim.rng.RandomStream` reports every derived seed
through :func:`note_stream_seed`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigurationError, SanitizeError

#: Recognised sanitize modes.
SANITIZE_MODES = ("off", "check", "strict")

#: Environment override applied when a config leaves sanitize "off" —
#: lets CI run an entire existing suite under ``strict`` without
#: touching any config (see docs/resilient_execution.md).
SANITIZE_ENV = "REPRO_SANITIZE"


def parse_mode(value: Optional[str]) -> str:
    """Validate and normalise a sanitize mode string."""
    mode = (value or "off").lower()
    if mode not in SANITIZE_MODES:
        raise ConfigurationError(
            f"sanitize must be one of {'/'.join(SANITIZE_MODES)}, "
            f"got {value!r}"
        )
    return mode


class Sanitizer:
    """Tallies (``check``) or raises on (``strict``) invariant breaks.

    One instance lives for one run; it is deliberately cheap — plain
    dict counters, no telemetry objects — so ``check`` mode can ride
    along production sweeps.
    """

    def __init__(self, mode: str = "check", obs=None) -> None:
        mode = parse_mode(mode)
        if mode == "off":
            raise ConfigurationError(
                "build_sanitizer returns None for mode 'off'; "
                "Sanitizer only exists for check/strict"
            )
        self.mode = mode
        self.strict = mode == "strict"
        self.obs = obs
        #: Violation tallies, keyed by check name.
        self.counts: Dict[str, int] = {}
        #: Derived RNG seeds seen during this activation.
        self._stream_seeds: Dict[int, int] = {}
        #: Monotonicity watermarks, keyed by clock label.
        self._watermarks: Dict[str, float] = {}

    def __repr__(self) -> str:
        return f"<Sanitizer mode={self.mode} violations={self.total}>"

    @property
    def total(self) -> int:
        """Total violations recorded so far."""
        return sum(self.counts.values())

    # ------------------------------------------------------------------
    # Core verdict
    # ------------------------------------------------------------------
    def violation(self, check: str, message: str) -> None:
        """Record one invariant break of ``check``.

        Raises :class:`SanitizeError` in strict mode, tallies in check
        mode.
        """
        if self.strict:
            raise SanitizeError(f"[sanitize.{check}] {message}")
        self.counts[check] = self.counts.get(check, 0) + 1
        if self.obs is not None:
            self.obs.registry.counter(f"sanitize.{check}").inc()

    def expect(self, condition: bool, check: str, message: str) -> None:
        """``violation(check, message)`` unless ``condition`` holds."""
        if not condition:
            self.violation(check, message)

    # ------------------------------------------------------------------
    # Cross-component checks
    # ------------------------------------------------------------------
    def note_time(self, clock: str, time: float) -> None:
        """Assert ``clock`` never moves backwards."""
        last = self._watermarks.get(clock)
        if last is not None and time < last:
            self.violation(
                "event_time",
                f"clock {clock!r} moved backwards: {time} < {last}",
            )
            return
        self._watermarks[clock] = time

    def note_stream_seed(self, seed: int) -> None:
        """Assert no derived RNG seed is handed out twice in one run."""
        hits = self._stream_seeds.get(seed, 0)
        self._stream_seeds[seed] = hits + 1
        if hits:
            self.violation(
                "rng_substream_reuse",
                f"derived RNG seed {seed} handed out {hits + 1} times — "
                "two subsystems would draw correlated variates",
            )

    # ------------------------------------------------------------------
    # Per-interval driver
    # ------------------------------------------------------------------
    def check_interval(self, policy, interval: int) -> None:
        """Run the per-interval invariant suite against ``policy``.

        Dispatches to the policy's ``verify_invariants`` hook (both
        storage policies implement it); policies without one are
        skipped rather than failed, so third-party policies opt in.
        """
        self.note_time("engine.interval", float(interval))
        verify = getattr(policy, "verify_invariants", None)
        if verify is not None:
            verify(self, interval)

    def check_skip(self, start: int, stop: int, *components) -> None:
        """Assert that intervals ``start .. stop - 1`` are quiet.

        Dispatches to each component's ``verify_skip`` hook (both
        storage policies, both arrival sources and the engine's
        deadline queue implement it), which recomputes from raw state
        that nothing is scheduled in the span and nothing queued could
        be admitted in it.  Violations are reported as ``skip``.
        """
        for component in components:
            verify = getattr(component, "verify_skip", None)
            if verify is not None:
                verify(self, start, stop)

    def summary(self) -> Dict[str, int]:
        """The violation tallies (empty when the run was clean)."""
        return dict(self.counts)


def build_sanitizer(mode: Optional[str], obs=None) -> Optional[Sanitizer]:
    """A sanitizer for ``mode``, or ``None`` when off.

    ``None`` is the zero-cost contract: call sites guard with a single
    ``is None`` test, exactly like the ``obs`` threading.
    """
    mode = parse_mode(mode)
    if mode == "off":
        return None
    return Sanitizer(mode, obs=obs)


# ----------------------------------------------------------------------
# Module-global activation (RNG hook)
# ----------------------------------------------------------------------
#: The sanitizer of the run currently executing in this process, or
#: None.  Runs are single-threaded per process (the exec layer gives
#: every worker process its own run), so a plain global suffices.
_ACTIVE: Optional[Sanitizer] = None


def current_sanitizer() -> Optional[Sanitizer]:
    """The active run's sanitizer (None outside an activation)."""
    return _ACTIVE


def note_stream_seed(seed: int) -> None:
    """RNG hook: report a derived seed to the active sanitizer.

    A no-op (one global load + ``is None`` test) when no sanitizer is
    active — the cost the seed path pays for the hook.
    """
    if _ACTIVE is not None:
        _ACTIVE.note_stream_seed(seed)


class activation:
    """Context manager installing ``sanitizer`` as the active one.

    Re-entrant in the practical sense: the previous active sanitizer
    is restored on exit, so nested experiment runs (e.g. the jobs=1
    executor path running specs in-process) each see their own.
    """

    def __init__(self, sanitizer: Optional[Sanitizer]) -> None:
        self.sanitizer = sanitizer
        self._previous: Optional[Sanitizer] = None

    def __enter__(self) -> Optional[Sanitizer]:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self.sanitizer
        return self.sanitizer

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        _ACTIVE = self._previous
