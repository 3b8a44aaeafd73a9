#!/usr/bin/env python3
"""Reproduce Figure 8 and Table 4 of the paper.

By default runs the 1/10-scale configuration (0.4 s wall on a 2-CPU
x86-64 VM, Python 3.11).  ``--full`` runs the paper's exact Table 3
parameters — 1000 drives, 2000 objects of 3000 subobjects, stations
1..256 — in about 2 s on the same machine.

Run:  python examples/paper_figure8.py [--full] [--scale N]
"""

from __future__ import annotations

import argparse
import time

from repro.analysis.reporting import format_table
from repro.experiments.figure8 import (
    PAPER_MEANS,
    PAPER_STATIONS,
    figure8_rows,
    run_figure8,
    scaled_means,
    scaled_stations,
)
from repro.experiments.table4 import (
    PAPER_TABLE4,
    PAPER_TABLE4_STATIONS,
    run_table4,
    scaled_table4_stations,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run the paper's full-scale configuration")
    parser.add_argument("--scale", type=int, default=10,
                        help="linear scale divisor (ignored with --full)")
    args = parser.parse_args()
    scale = 1 if args.full else args.scale

    stations = PAPER_STATIONS if scale == 1 else scaled_stations(scale)
    means = list(PAPER_MEANS) if scale == 1 else scaled_means(scale)

    print(f"Figure 8 at scale 1/{scale}: stations={stations}, means={means}")
    started = time.time()
    curves = run_figure8(scale=scale, stations=stations, means=means)
    print(f"({time.time() - started:.0f}s)")
    for mean in means:
        label = PAPER_MEANS.get(mean * scale, f"mean {mean:g}")
        print(f"\n--- Figure 8: {label} (mean {mean:g}) ---")
        rows = [r for r in figure8_rows(curves) if r["mean"] == mean]
        print(format_table(rows, columns=[
            "technique", "stations", "displays_per_hour", "hit_rate",
            "tertiary_util", "latency_s",
        ]))

    table4_stations = (
        PAPER_TABLE4_STATIONS if scale == 1 else scaled_table4_stations(scale)
    )
    print("\n--- Table 4: % improvement of simple striping over VDR ---")
    rows = run_table4(scale=scale, stations=table4_stations, means=means)
    print(format_table(rows))
    print("\nPaper's Table 4 for comparison:")
    paper_rows = []
    for paper_stations in PAPER_TABLE4_STATIONS:
        row = {"stations": paper_stations}
        for paper_mean in PAPER_MEANS:
            row[f"mean {paper_mean:g}"] = (
                f"{PAPER_TABLE4[(paper_stations, paper_mean)]:.2f}%"
            )
        paper_rows.append(row)
    print(format_table(paper_rows))


if __name__ == "__main__":
    main()
