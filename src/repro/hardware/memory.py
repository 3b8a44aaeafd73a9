"""Buffer memory accounting.

Equation 1 of the paper gives the minimum memory per drive needed to
mask cluster-switch repositioning:

    ``B_disk × (T_switch + T_sector)``

Beyond that minimum, the time-fragmentation machinery of §3.2.1 holds
whole fragments in buffers for one or more intervals; the scheduler
sizes those from each display's steady-state buffers
(:meth:`repro.core.display.Display.buffer_demand`).
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def minimum_display_memory(
    effective_bandwidth: float, t_switch: float, t_sector: float
) -> float:
    """Equation 1: minimum per-drive memory (megabits) for hiccup-free
    display across cluster switches."""
    if effective_bandwidth <= 0:
        raise ConfigurationError(
            f"effective_bandwidth must be > 0, got {effective_bandwidth}"
        )
    if t_switch < 0 or t_sector < 0:
        raise ConfigurationError("T_switch and T_sector must be >= 0")
    return effective_bandwidth * (t_switch + t_sector)
