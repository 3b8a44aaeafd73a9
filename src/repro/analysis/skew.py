"""Stride and data-skew analysis (§3.2.2).

The paper's rules:

* an object's subobject starts visit the residues ``p + i·k (mod D)``,
  a coset of size ``D / gcd(D, k)``;
* per-drive load is perfectly balanced when the subobject count is a
  multiple of ``D / gcd(D, k)`` — in particular ``k = 1`` (or any
  ``k`` relatively prime to ``D``) guarantees no data skew;
* with strides ``k <= M`` an object of ``n`` subobjects touches
  ``min(D, (n-1)·k + M)`` drives — the paper's example: 100 cylinders
  (``n = 25``, ``M = 4``) over ``D = 100`` drives spans 28 drives at
  ``k = 1`` but all 100 at ``k = M``.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.errors import ConfigurationError
from repro.media.layout import stride_fragment_counts


def residue_classes(num_disks: int, stride: int) -> int:
    """Distinct start-drive residues: ``D / gcd(D, k)``."""
    _check(num_disks, stride)
    return num_disks // math.gcd(num_disks, stride)


def stride_is_skew_free(num_disks: int, stride: int) -> bool:
    """True when every subobject count balances: ``gcd(D, k) == 1``."""
    _check(num_disks, stride)
    return math.gcd(num_disks, stride) == 1


def is_perfectly_balanced(
    num_disks: int, stride: int, num_subobjects: int, degree: int
) -> bool:
    """The full §3.2.2 GCD rule.

    "The subobject size of every object in the system must be a
    multiple of the GCD of D and k": load is perfectly balanced across
    all drives exactly when the degree ``M`` (the subobject's width in
    drives) is a multiple of ``gcd(D, k)`` *and* the subobject count
    is a multiple of ``D / gcd(D, k)`` (one whole tour of the start
    residues).  ``k = 1`` satisfies the first condition for every
    object — the paper's "a stride of 1 guarantees no data skew".
    """
    g = math.gcd(num_disks, stride)
    return degree % g == 0 and num_subobjects % (num_disks // g) == 0


def disks_used_by_object(
    num_disks: int, stride: int, num_subobjects: int, degree: int
) -> int:
    """Distinct drives an object touches."""
    _check(num_disks, stride)
    if num_subobjects < 1 or degree < 1:
        raise ConfigurationError("num_subobjects and degree must be >= 1")
    counts = stride_fragment_counts(num_disks, stride, num_subobjects, degree, 0)
    return sum(1 for c in counts if c)


def skew_profile(
    num_disks: int, stride: int, num_subobjects: int, degree: int
) -> Dict[str, float]:
    """Per-drive fragment-count statistics for one object.

    Returns min/max/mean over the drives the object touches plus the
    relative skew ``(max - min) / mean``.
    """
    _check(num_disks, stride)
    counts = stride_fragment_counts(num_disks, stride, num_subobjects, degree, 0)
    touched = [c for c in counts if c > 0]
    mean = sum(touched) / len(touched)
    return {
        "min": float(min(touched)),
        "max": float(max(touched)),
        "mean": mean,
        "relative_skew": (max(touched) - min(touched)) / mean if mean else 0.0,
        "disks_used": float(len(touched)),
    }


def _check(num_disks: int, stride: int) -> None:
    if num_disks < 1:
        raise ConfigurationError(f"num_disks must be >= 1, got {num_disks}")
    if not 1 <= stride <= num_disks:
        raise ConfigurationError(f"stride must be in 1..{num_disks}, got {stride}")
