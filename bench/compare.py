"""Compare benchmark result documents of a parent and a change.

    python bench/compare.py PARENT.json [PARENT2.json ...] -- CHANGE.json [...]

Each side pools the pass values of its documents; the i-th value of one
side is paired with the i-th of the other, so documents from interleaved
parent/change invocations pair up run by run.  For every workload and
end-to-end metric it prints both sides' median and quartiles, the share
of pairs the change won, and a verdict:

* ``worse`` — the change's median is worse by more than the metric's
  bound (relative and absolute) and the spread does not hide it;
* ``unresolved`` — an interquartile range is wider than the bound;
* ``better`` — the change won at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range (or every change
  value beats every parent value);
* ``unchanged`` — otherwise.

Exit status: 0, 3 when any verdict is ``worse``, 2 when the documents
come from different machines, seeds or benchmark definitions.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import quartiles  # noqa: E402

#: Machine fields that must agree (commit and host name may differ).
MACHINE_KEYS = ("cpu_count", "cpu_affinity", "python", "numpy", "platform", "machine")


def _worse_by(better: str, base: float, value: float) -> float:
    """How much worse ``value`` is than ``base`` (negative: better)."""
    return value - base if better == "lower" else base - value


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return math.copysign(math.inf, delta) if delta else 0.0


def judge(better: str, bound: float, floor: float,
          parent: Sequence[float], change: Sequence[float]) -> Tuple[str, float]:
    """(verdict, share of pairs the change won) for one metric."""
    p1, p_median, p3 = quartiles(list(parent))
    c1, c_median, c3 = quartiles(list(change))
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if _worse_by(better, p, c) < 0)
    won_share = won / len(pairs) if pairs else 0.0
    delta = _worse_by(better, p_median, c_median)
    spread = max(_relative(p3 - p1, p_median), _relative(c3 - c1, c_median))
    all_better = all(_worse_by(better, p, c) < 0 for p in parent for c in change)
    all_worse = all(_worse_by(better, p, c) > 0 for p in parent for c in change)
    # An exact metric (bound 0) has no noise: its spread comes from the
    # passes' different inputs, which both sides share.
    noisy = bound > 0 and spread > bound
    if _relative(delta, p_median) > bound and delta > floor:
        return ("unresolved" if noisy and not all_worse else "worse"), won_share
    if noisy and not all_better:
        return "unresolved", won_share
    if all_better or (won_share >= 0.9 and -delta > max(p3 - p1, floor)):
        return "better", won_share
    return "unchanged", won_share


def mismatch(documents: Sequence[Dict]) -> str:
    """Why the documents cannot be compared, or ''."""
    first = documents[0]
    for document in documents[1:]:
        for key in MACHINE_KEYS:
            if document["machine"].get(key) != first["machine"].get(key):
                return (f"different machines: {key} "
                        f"{first['machine'].get(key)!r} vs "
                        f"{document['machine'].get(key)!r}")
        for key, what in (("seed", "seeds"), ("definitions", "benchmark definitions"),
                          ("workloads", "workload sets")):
            if document["settings"][key] != first["settings"][key]:
                return f"different {what}"
    return ""


def pooled(documents: Sequence[Dict], workload: str, metric: str) -> List[float]:
    values: List[float] = []
    for document in documents:
        row = document["workloads"][workload]["metrics"].get(metric)
        if row is not None:
            values.extend(row["values"])
    return values


def compare(parents: Sequence[Dict], changes: Sequence[Dict]) -> Tuple[List[Dict], str]:
    """One row per workload × metric, and the mismatch reason (if any)."""
    reason = mismatch(list(parents) + list(changes))
    if reason:
        return [], reason
    rows = []
    for workload, section in parents[0]["workloads"].items():
        for metric, definition in section["metrics"].items():
            parent = pooled(parents, workload, metric)
            change = pooled(changes, workload, metric)
            if not parent or not change:
                continue
            verdict, won = judge(definition["better"], definition["bound"],
                                 definition["floor"], parent, change)
            rows.append({
                "workload": workload, "metric": metric, "unit": definition["unit"],
                "parent": quartiles(parent), "change": quartiles(change),
                "n": (len(parent), len(change)), "won": won, "verdict": verdict,
            })
    return rows, ""


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    split = list(argv).index("--")
    sides = [argv[:split], argv[split + 1:]]
    if not all(sides):
        print("compare: need at least one document per side", file=sys.stderr)
        return 2
    parents, changes = ([json.loads(Path(p).read_text()) for p in side]
                        for side in sides)
    rows, reason = compare(parents, changes)
    if reason:
        print(f"compare: {reason}", file=sys.stderr)
        return 2
    print(f"{'workload':<16} {'metric':<17} {'unit':<5} "
          f"{'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'won':>5}  verdict")
    for row in rows:
        cells = [f"{m:.4g} [{q1:.4g}, {q3:.4g}] n={n}"
                 for (q1, m, q3), n in ((row["parent"], row["n"][0]),
                                        (row["change"], row["n"][1]))]
        print(f"{row['workload']:<16} {row['metric']:<17} {row['unit']:<5} "
              f"{cells[0]:>34} {cells[1]:>34} {row['won']:>5.0%}  {row['verdict']}")
    return 3 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
