"""Metric primitives and the :class:`MetricsRegistry`.

This module is the one home of the statistics collectors used
throughout the repository: the schedulers, the tertiary device and the
fault coordinator import :class:`Tally` and :class:`Histogram` from
here.

Instruments
-----------
* :class:`Counter` — monotonically increasing count.
* :class:`Gauge` — a value that goes up and down; tracks min/max.
* :class:`Tally` — streaming sample statistics (Welford).
* :class:`Histogram` — fixed-bin histogram with approximate quantiles.
* :class:`TimeSeries` — a bounded ``(t, value)`` series with uniform
  decimation when full (the stride doubles; memory stays bounded).
* :class:`UtilizationMatrix` — per-device busy fractions over time:
  one column per device, one row per sampling window.

The :class:`MetricsRegistry` hands out instruments keyed by
``(name, labels)`` so call sites can build *families* (per-disk,
per-tertiary, per-buffer) without bookkeeping, and renders a
deterministic, JSON-serialisable snapshot of everything it owns.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "") -> None:
        self.name = name or "counter"
        self.value = 0.0

    def __repr__(self) -> str:
        return f"<Counter {self.name} value={self.value:g}>"

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value; remembers its extremes and update count."""

    __slots__ = ("name", "value", "minimum", "maximum", "updates")

    def __init__(self, name: str = "") -> None:
        self.name = name or "gauge"
        self.value = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.updates = 0

    def __repr__(self) -> str:
        return f"<Gauge {self.name} value={self.value:g}>"

    def set(self, value: float) -> None:
        """Record the gauge's new level."""
        self.value = value
        self.updates += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "gauge",
            "value": self.value,
            "min": self.minimum if self.updates else 0.0,
            "max": self.maximum if self.updates else 0.0,
            "updates": self.updates,
        }


class Tally:
    """Streaming sample statistics (Welford's algorithm)."""

    def __init__(self, name: str = "") -> None:
        self.name = name or "tally"
        self.count = 0
        self.total = 0.0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def __repr__(self) -> str:
        return f"<Tally {self.name} n={self.count} mean={self.mean:.6g}>"

    def record(self, value: float) -> None:
        """Add one observation."""
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when no observations)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than 2 samples)."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "tally",
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "total": self.total,
        }


class Histogram:
    """A fixed-bin histogram for response-time distributions."""

    def __init__(
        self, low: float, high: float, bins: int = 20, name: str = ""
    ) -> None:
        if bins < 1:
            raise ValueError(f"histogram needs >= 1 bin, got {bins}")
        if not high > low:
            raise ValueError(f"histogram needs high > low, got [{low}, {high}]")
        self.name = name or "histogram"
        self.low = low
        self.high = high
        self.bins = bins
        self.counts: List[int] = [0] * bins
        self.underflow = 0
        self.overflow = 0
        self.tally = Tally(name=f"{self.name}.tally")

    def record(self, value: float) -> None:
        """Add one observation to the appropriate bin."""
        self.tally.record(value)
        if value < self.low:
            self.underflow += 1
        elif value >= self.high:
            self.overflow += 1
        else:
            width = (self.high - self.low) / self.bins
            self.counts[int((value - self.low) / width)] += 1

    @property
    def count(self) -> int:
        """Total observations including under/overflow."""
        return self.tally.count

    def quantile(self, q: float) -> Optional[float]:
        """Approximate quantile from bin midpoints (None when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        target = q * self.count
        seen = float(self.underflow)
        if seen >= target:
            return self.low
        width = (self.high - self.low) / self.bins
        for i, bucket in enumerate(self.counts):
            seen += bucket
            if seen >= target:
                return self.low + (i + 0.5) * width
        return self.high

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "low": self.low,
            "high": self.high,
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
            "count": self.count,
            "mean": self.tally.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class TimeSeries:
    """A bounded ``(t, value)`` series with uniform decimation.

    Every :meth:`record` call counts; only every ``stride``-th sample
    is kept.  When the kept points reach ``max_points`` the series
    drops every other point and doubles the stride, so memory stays
    bounded while coverage of the whole run is preserved.
    """

    def __init__(self, name: str = "", max_points: int = 1024) -> None:
        if max_points < 2:
            raise ConfigurationError(
                f"time series needs max_points >= 2, got {max_points}"
            )
        self.name = name or "series"
        self.max_points = max_points
        self.stride = 1
        self.seen = 0
        self.points: List[Tuple[float, float]] = []
        self.stats = Tally(name=f"{self.name}.stats")

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"<TimeSeries {self.name} kept={len(self.points)}/{self.seen}>"

    def record(self, t: float, value: float) -> None:
        """Observe ``value`` at time ``t``."""
        self.stats.record(value)
        if self.seen % self.stride == 0:
            self.points.append((t, value))
            if len(self.points) >= self.max_points:
                self.points = self.points[::2]
                self.stride *= 2
        self.seen += 1

    def values(self) -> List[float]:
        """Kept sample values in time order."""
        return [v for _t, v in self.points]

    def quantile(self, q: float) -> Optional[float]:
        """Quantile of the *kept* samples (None when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.points:
            return None
        ordered = sorted(v for _t, v in self.points)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "series",
            "seen": self.seen,
            "stride": self.stride,
            "mean": self.stats.mean,
            "min": self.stats.minimum if self.stats.count else 0.0,
            "max": self.stats.maximum if self.stats.count else 0.0,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
            "points": [[t, v] for t, v in self.points],
        }


class UtilizationMatrix:
    """Per-device busy fractions over time.

    Call :meth:`mark` for each busy device in the current sampling
    window, then :meth:`tick` once per interval.  Every ``window``
    intervals a row of per-device busy fractions is appended; when
    ``max_rows`` is reached adjacent rows are averaged pairwise and
    the window doubles, bounding memory for arbitrarily long runs.
    """

    def __init__(
        self,
        num_devices: int,
        name: str = "",
        window: int = 1,
        max_rows: int = 256,
    ) -> None:
        if num_devices < 1:
            raise ConfigurationError(
                f"utilization matrix needs >= 1 device, got {num_devices}"
            )
        if window < 1 or max_rows < 2:
            raise ConfigurationError(
                f"need window >= 1 and max_rows >= 2, got {window}/{max_rows}"
            )
        self.name = name or "utilization"
        self.num_devices = num_devices
        self.window = window
        self.max_rows = max_rows
        self.intervals = 0
        self._window_busy = [0] * num_devices
        self._window_ticks = 0
        self._total_busy = [0] * num_devices
        self.rows: List[Tuple[float, List[float]]] = []

    def __repr__(self) -> str:
        return (
            f"<UtilizationMatrix {self.name} devices={self.num_devices} "
            f"intervals={self.intervals}>"
        )

    def mark_many(self, devices) -> None:
        """Mark every device in ``devices`` busy (hot-path bulk form)."""
        window = self._window_busy
        total = self._total_busy
        for device in devices:
            window[device] += 1
            total[device] += 1

    def tick(self, t: float) -> None:
        """Close one interval ending at time ``t``."""
        self.intervals += 1
        self._window_ticks += 1
        if self._window_ticks >= self.window:
            self.rows.append(
                (t, [busy / self._window_ticks for busy in self._window_busy])
            )
            self._window_busy = [0] * self.num_devices
            self._window_ticks = 0
            if len(self.rows) >= self.max_rows:
                merged: List[Tuple[float, List[float]]] = []
                for i in range(0, len(self.rows) - 1, 2):
                    t0, a = self.rows[i]
                    _t1, b = self.rows[i + 1]
                    merged.append(
                        (t0, [(x + y) / 2.0 for x, y in zip(a, b)])
                    )
                if len(self.rows) % 2:
                    merged.append(self.rows[-1])
                self.rows = merged
                self.window *= 2

    def utilization(self) -> List[float]:
        """Whole-run busy fraction per device."""
        if self.intervals == 0:
            return [0.0] * self.num_devices
        return [busy / self.intervals for busy in self._total_busy]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "utilization_matrix",
            "devices": self.num_devices,
            "intervals": self.intervals,
            "window": self.window,
            "utilization": self.utilization(),
            "rows": [[t, values] for t, values in self.rows],
        }


LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _label_key(name: str, labels: Dict[str, Any]) -> LabelKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(key: LabelKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Instruments keyed by name + labels, with deterministic snapshots.

    ``registry.counter("disk.reads", disk=3)`` returns the same
    :class:`Counter` on every call, so call sites never need to cache
    instruments themselves (though they may, for hot paths).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name or "metrics"
        self._instruments: Dict[LabelKey, Any] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:
        return f"<MetricsRegistry {self.name} instruments={len(self)}>"

    def _get(self, name: str, labels: Dict[str, Any], factory) -> Any:
        key = _label_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory(_render_key(key))
            self._instruments[key] = instrument
        return instrument

    # ------------------------------------------------------------------
    # Instrument factories
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(name, labels, Gauge)

    def tally(self, name: str, **labels) -> Tally:
        return self._get(name, labels, Tally)

    def histogram(
        self, name: str, low: float, high: float, bins: int = 20, **labels
    ) -> Histogram:
        return self._get(
            name, labels, lambda key: Histogram(low, high, bins=bins, name=key)
        )

    def series(self, name: str, max_points: int = 1024, **labels) -> TimeSeries:
        return self._get(
            name, labels, lambda key: TimeSeries(name=key, max_points=max_points)
        )

    def utilization_matrix(
        self,
        name: str,
        num_devices: int,
        window: int = 1,
        max_rows: int = 256,
        **labels,
    ) -> UtilizationMatrix:
        return self._get(
            name,
            labels,
            lambda key: UtilizationMatrix(
                num_devices, name=key, window=window, max_rows=max_rows
            ),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Tuple[str, Any]]:
        for key in sorted(self._instruments):
            yield _render_key(key), self._instruments[key]

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic, JSON-serialisable view of every instrument."""
        return {key: inst.snapshot() for key, inst in self}
