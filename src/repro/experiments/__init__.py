"""The paper-artifact grids the CLI runs: Figure 8, Table 4, the open
workload's operating curves and the fault grid.

Each module exposes plain functions returning data structures (rows,
grids, series) so the same code drives the CLI subcommands, the
tier-1 tests that assert each artifact's shape (``tests/integration/``)
and the runnable examples.  The §3 drivers with no production caller
(Figures 1/3/4/5, the stride sweep, the tape-order and mixed-media
comparisons) live with the tests.  See DESIGN.md §3 for the
experiment index.
"""
