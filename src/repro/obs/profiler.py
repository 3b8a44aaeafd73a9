"""Wall-clock phase profiling.

The :class:`PhaseProfiler` accumulates real (host) time per named
phase.  Hot loops use the allocation-free :meth:`PhaseProfiler.add`
with an explicit ``perf_counter`` pair; coarser call sites can use the
:meth:`PhaseProfiler.phase` context manager.

Wall-clock numbers are inherently nondeterministic, so profiles are
surfaced *next to* simulation results
(:attr:`~repro.simulation.results.SimulationResult.profile`) and in
the metrics document — never inside the result rows, which must stay
byte-identical run to run.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator


class PhaseProfiler:
    """Accumulates wall-clock seconds and entry counts per phase."""

    __slots__ = ("seconds", "counts")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def __repr__(self) -> str:
        return f"<PhaseProfiler phases={sorted(self.seconds)}>"

    def add(self, name: str, elapsed: float) -> None:
        """Charge ``elapsed`` wall-clock seconds to phase ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        self.counts[name] = self.counts.get(name, 0) + 1

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a ``with`` block as one entry of phase ``name``."""
        start = perf_counter()
        try:
            yield
        finally:
            self.add(name, perf_counter() - start)

    def totals(self) -> Dict[str, float]:
        """Accumulated seconds per phase, sorted by name."""
        return {name: self.seconds[name] for name in sorted(self.seconds)}

    def report(self) -> Dict[str, Dict[str, float]]:
        """Seconds, entries, and mean microseconds per entry, per phase."""
        return {
            name: {
                "seconds": self.seconds[name],
                "entries": self.counts[name],
                "mean_us": (
                    1e6 * self.seconds[name] / self.counts[name]
                    if self.counts[name]
                    else 0.0
                ),
            }
            for name in sorted(self.seconds)
        }
