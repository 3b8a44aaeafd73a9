"""Exception hierarchy for the ``repro`` package.

Every error raised deliberately by this library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A configuration value is invalid or inconsistent.

    Raised eagerly at construction time (e.g. a stride outside
    ``1..D``, a fragment size that is not a whole number of sectors,
    or a database that cannot fit a single object on disk).
    """


class SimulationError(ReproError):
    """A simulation component was driven incorrectly.

    Examples: asking the tertiary device about a request that has not
    started service, or holding for a negative duration in the DES
    kernel the tests use as an oracle.
    """


class SchedulingError(ReproError):
    """The striping scheduler reached an inconsistent state.

    Raised when an invariant of the delivery protocol is violated:
    a disk asked to read two fragments in one time interval, a display
    missing its interval (a *hiccup*), or a buffer underflow.
    """


class AdmissionError(ReproError):
    """A display request could not be admitted.

    Carries enough context for callers to decide whether to queue the
    request or report failure to the display station.
    """


class CapacityError(ReproError):
    """Storage capacity was exceeded and could not be reclaimed."""


class FaultError(ReproError):
    """A fault-tolerance invariant was violated.

    Examples: claiming bandwidth on a failed drive, failing a drive
    that is already down, or repairing a healthy one.
    """


class SanitizeError(ReproError):
    """A runtime invariant check failed under ``--sanitize strict``.

    Raised by :mod:`repro.sim.sanitize` the moment a conservation
    invariant (half-slot accounting, buffer conservation, event-time
    monotonicity, RNG substream reuse) is observed to be violated.  In
    ``check`` mode the same violations are tallied as ``sanitize.*``
    counters instead.
    """


class SweepInterrupted(ReproError):
    """A supervised sweep stopped before finishing (SIGINT/SIGTERM).

    Completed rows are already flushed to the sweep journal and result
    cache; :attr:`resume_command` re-runs only the remainder.
    """

    def __init__(
        self,
        sweep_id: str,
        journal_path,
        completed: int,
        pending: int,
        signal_name: str = "SIGINT",
    ) -> None:
        self.sweep_id = sweep_id
        self.journal_path = journal_path
        self.completed = completed
        self.pending = pending
        self.signal_name = signal_name
        self.resume_command = (
            f"repro sweep-resume {sweep_id}" if sweep_id else ""
        )
        detail = (
            f"(journal: {journal_path}); resume with `{self.resume_command}`"
            if sweep_id
            else "(no journal — re-run the same command to continue "
            "from the result cache)"
        )
        super().__init__(
            f"sweep interrupted by {signal_name}: {completed} rows done, "
            f"{pending} pending {detail}"
        )


class LayoutError(ReproError):
    """A data-placement (striping layout) request was invalid."""


class ClusterError(ReproError):
    """Distributed execution failed (see :mod:`repro.cluster`).

    Raised when a master and a client/agent cannot agree: the master
    is unreachable past the retry budget, speaks a different protocol
    version, or runs a different code version (``code_salt``) — the
    last because content-addressed digests computed under different
    salts can never match, so mixed-version clusters would silently
    cache-miss forever instead of erroring once, loudly, here.
    """
