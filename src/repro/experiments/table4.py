"""Table 4: percentage throughput improvement of simple striping over
virtual data replication at 16 / 64 / 128 / 256 display stations for
the three access distributions.

Paper values (for shape comparison in EXPERIMENTS.md)::

    stations   mean 10    mean 20    mean 43.5
    16           5.10%      2.15%     114.75%
    64          11.06%    131.86%     508.79%
    128         52.67%    350.73%     469.94%
    256        126.10%    602.49%     413.10%
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.exec import execute, experiment_spec, records_to_results
from repro.experiments.figure8 import base_config, point_config, scaled_means
from repro.simulation.config import SimulationConfig
from repro.simulation.results import improvement_percent

#: The paper's station counts for Table 4.
PAPER_TABLE4_STATIONS = [16, 64, 128, 256]

#: The paper's reported improvements, keyed by (stations, mean).
PAPER_TABLE4 = {
    (16, 10.0): 5.10,
    (16, 20.0): 2.15,
    (16, 43.5): 114.75,
    (64, 10.0): 11.06,
    (64, 20.0): 131.86,
    (64, 43.5): 508.79,
    (128, 10.0): 52.67,
    (128, 20.0): 350.73,
    (128, 43.5): 469.94,
    (256, 10.0): 126.10,
    (256, 20.0): 602.49,
    (256, 43.5): 413.10,
}


def scaled_table4_stations(scale: int = 10) -> List[int]:
    """Table 4's station counts shrunk with the system."""
    return [max(1, s // scale) for s in PAPER_TABLE4_STATIONS]


def run_table4(
    scale: int = 10,
    stations: Optional[Sequence[int]] = None,
    means: Optional[Sequence[float]] = None,
    config: Optional[SimulationConfig] = None,
    obs=None,
    jobs: int = 1,
    cache=None,
    supervision=None,
) -> List[Dict]:
    """One row per station count; one improvement column per mean.

    All (stations × means × technique) cells run through
    :func:`repro.exec.execute` before the improvement arithmetic, so
    ``jobs`` and ``cache`` apply exactly as for Figure 8.
    """
    config = config if config is not None else base_config(scale)
    stations = list(stations) if stations else scaled_table4_stations(scale)
    means = list(means) if means else scaled_means(scale)
    cells = [
        (count, mean, technique)
        for count in stations
        for mean in means
        for technique in ("simple", "vdr")
    ]
    specs = [
        experiment_spec(point_config(config, technique, mean, count))
        for count, mean, technique in cells
    ]
    results = dict(zip(cells, records_to_results(
        execute(specs, jobs=jobs, cache=cache, obs=obs, supervision=supervision)
    )))
    rows: List[Dict] = []
    for count in stations:
        row: Dict = {"stations": count}
        for mean in means:
            striping = results[(count, mean, "simple")]
            vdr = results[(count, mean, "vdr")]
            row[f"mean_{mean:g}_improvement_pct"] = round(
                improvement_percent(striping, vdr), 2
            )
            row[f"mean_{mean:g}_striping"] = round(striping.throughput_per_hour, 1)
            row[f"mean_{mean:g}_vdr"] = round(vdr.throughput_per_hour, 1)
        rows.append(row)
    return rows
