"""Golden regression on the fault path: degraded reads, aborts, rebuilds.

The DES ≡ interval identity checks share the one fault coordinator
under test, so they cannot catch a change that moves both engines the
same way.  This fixture pins the full serialised result of:

* the ``repro faults --scale 50 --values 300`` grid
  ({simple, staggered, vdr} × {none, mirror, parity});
* staggered mirror and parity cells that abort instead of hiccuping;
* a scripted single-drive failure with a two-half-slot online rebuild.
"""

from __future__ import annotations

import os

from repro.exec import execute, experiment_spec, records_to_results
from repro.experiments.faults import (
    REDUNDANCY_SCHEMES,
    TECHNIQUES,
    cell_config,
)
from repro.experiments.figure8 import base_config

JOBS = int(os.environ.get("REPRO_EXEC_JOBS", "1"))
SCALE = 50
MTTF = 300.0


def fault_cells():
    """``(name, config)`` for every pinned cell, in fixture order."""
    config = base_config(SCALE)
    cells = [
        (f"{technique}/{redundancy}",
         cell_config(config, technique, redundancy, MTTF))
        for technique in TECHNIQUES
        for redundancy in REDUNDANCY_SCHEMES
    ]
    cells += [
        (f"staggered/{redundancy}/abort",
         cell_config(config, "staggered", redundancy, MTTF).with_(
             on_fault="abort"))
        for redundancy in ("mirror", "parity")
    ]
    cells.append((
        "staggered/mirror/scripted",
        config.with_(
            technique="staggered", redundancy="mirror", access_mean=0.2,
            num_stations=2, fail_at=((3, 100),), mttr=40.0, rebuild_rate=2,
        ),
    ))
    return cells


def test_faults_scale50_golden(golden):
    cells = fault_cells()
    results = records_to_results(execute(
        [experiment_spec(config) for _, config in cells], jobs=JOBS,
    ))
    rows = [
        {"cell": name, "result": result.to_dict()}
        for (name, _), result in zip(cells, results)
    ]
    # Every cell actually failed a drive.
    assert all(row["result"]["policy_stats"]["fault_failures"] > 0
               for row in rows)
    golden("faults_scale50", rows)
