"""Experiment scripts: one module per paper artifact.

Each module exposes plain functions returning data structures (rows,
grids, series) so the same code drives the tier-1 tests that assert
each artifact's shape (``tests/integration/``) and the runnable
examples.  See DESIGN.md §3 for the
experiment index.
"""

from repro.experiments import (
    faults,
    figure8,
    latency_profile,
    layouts,
    mixed_media,
    open_workload,
    section31,
    stride,
    table4,
    tertiary,
)

__all__ = [
    "faults",
    "figure8",
    "latency_profile",
    "layouts",
    "mixed_media",
    "open_workload",
    "section31",
    "stride",
    "table4",
    "tertiary",
]
