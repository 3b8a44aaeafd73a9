"""End-to-end benchmark of the reproduction: four workloads, timing and
memory metrics with regression bounds, output checks, and an optional
traced pass that breaks each workload's time down by layer.

    PYTHONPATH=src python bench/run.py [--workload NAME ...] [--repeats N]
        [--seconds S] [--seed S] [--trace [0|1]] [--output FILE]

Passes are interleaved across the chosen workloads, each in a fresh
interpreter.  Pass ``i`` of a run with ``--seed S`` simulates input set
``(S + i) mod INPUT_SETS``, whose result digests bench/expected.json
holds, so every pass's output is checked whatever the seed.  A
workload runs ``--repeats`` passes (default 5); with ``--seconds`` it
runs passes until the next would overrun that budget (at least one).
A metric's value is the mean over input sets of each set's median
(:func:`suite_value`); its quartiles are over passes.  ``--trace`` adds
one traced pass per workload.  The last line of standard output is a
JSON summary; ``--output`` also writes the full result document
(README.md).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCHEMA = "repro-e2e-bench/2"
#: Input sets a pass draws from; bench/expected.json holds the result
#: digests of every one.  A run of 30 seconds covers all of them.
INPUT_SETS = 4
#: A pass that runs longer than this is killed and counted as failed.
PASS_TIMEOUT_S = 120.0
#: Passes per workload without --seconds, and the cap with it.
DEFAULT_REPEATS = 5
MAX_PASSES = 100
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Metric:
    """An end-to-end metric.  A change is a regression when it worsens
    the median by more than ``bound`` (a share of the baseline median)
    *and* by more than ``floor`` (in the metric's unit)."""

    name: str
    unit: str
    better: str
    bound: float
    floor: float
    workloads: Tuple[str, ...]
    definition: str


METRICS: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, 0.05, ALL,
           "normalised CPU seconds of Σ build_engine per cell; sweep: a "
           "cold start (median of 3), spec planning and digests, master "
           "and agent start"),
    Metric("sim_s", "s", "lower", 0.10, 0.05, ALL,
           "normalised CPU seconds of Σ IntervalEngine.run per cell; "
           "sweep: of the cold jobs=1 phase"),
    Metric("wall_s", "s", "lower", 0.10, 0.0, ALL,
           "the pass's interpreter, from start to exit"),
    Metric("peak_rss_mb", "MB", "lower", 0.10, 0.0, ALL,
           "ru_maxrss, the larger of SELF and CHILDREN"),
    Metric("failed_share", "ratio", "lower", 0.0, 0.0, ALL,
           "cells or runs that raised or failed a check ÷ attempted"),
    Metric("table4_err_pp", "pp", "lower", 0.0, 0.0, ("fig8_s4",),
           "mean |repro − paper| Table 4 improvement at (64, 10), "
           "(256, 10) and (256, 43.5); simulated, exact"),
    Metric("sweep_jobs1_s", "s", "lower", 0.10, 0.0, ("sweep_s10",),
           "cold sweep, jobs=1"),
    Metric("sweep_jobs2_s", "s", "lower", 0.10, 0.0, ("sweep_s10",),
           "cold sweep, jobs=2"),
    Metric("parallel_speedup", "x", "higher", 0.10, 0.0, ("sweep_s10",),
           "sweep_jobs1_s ÷ sweep_jobs2_s, same grid and machine"),
    Metric("warm_replay_s", "s", "lower", 0.10, 0.005, ("sweep_s10",),
           "median of 20 fully cached replays at jobs=2"),
    Metric("cluster_s", "s", "lower", 0.10, 0.0, ("sweep_s10",),
           "the sweep through a loopback master and one jobs=2 agent"),
)
METRIC_BY_NAME = {metric.name: metric for metric in METRICS}

#: The end-to-end metrics of BENCHMARK.json, which gate every change:
#: the ones every workload reports that are never 0 (failed_share is
#: the summary's failed ÷ attempted).  wall_s is host time and moves
#: with the machine's load, so only compare.py judges it.
DRIVER_METRICS = ("setup_s", "sim_s", "peak_rss_mb")


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def machine() -> Dict[str, Any]:
    """What the numbers were measured on."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    affinity = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    )
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "node": platform.node(),
        "git_commit": commit,
    }


def definition_digest() -> str:
    """Identifies the benchmark code (workloads, layers, metrics and
    tracing) a document was measured with."""
    digest = hashlib.sha256()
    for name in ("workloads.py", "layers.py", "run.py", "tracer.py"):
        digest.update((BENCH / name).read_bytes())
    return digest.hexdigest()


def run_child(workload: str, inputs: int, traced: bool, work: Path,
              chrome: Optional[Path]) -> Dict[str, Any]:
    """One pass in a fresh interpreter and a fresh scratch directory
    (caches and journals start empty); returns its document + wall_s."""
    scratch = Path(tempfile.mkdtemp(dir=work))
    out = scratch / "pass.json"
    command = [sys.executable, str(BENCH / "workloads.py"), workload,
               str(inputs), "1" if traced else "0", str(out)]
    if chrome is not None:
        command.append(str(chrome))
    env = dict(os.environ, TMPDIR=str(scratch))
    start = perf_counter()
    # Its own session, so a timeout can stop the pass's worker
    # processes with it.
    child = subprocess.Popen(command, env=env, stdout=sys.stderr,
                             start_new_session=True)
    try:
        child.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass  # killed below and reported as a failed pass
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    wall_s = perf_counter() - start
    if child.returncode != 0 or not out.exists():
        document = {"workload": workload, "metrics": {}, "stats": {}, "digests": {},
                    "attempted": 1, "failed_units": ["pass"],
                    "failures": [f"{workload}/pass: exited {child.returncode}"]}
    else:
        document = json.loads(out.read_text())
    shutil.rmtree(scratch)
    document.update(wall_s=wall_s, traced=traced, inputs=inputs)
    return document


def pass_inputs(seed: int, index: int) -> int:
    """The input set of pass ``index`` of a run with ``--seed``."""
    return (seed + index) % INPUT_SETS


def run_passes(args, work: Path) -> Tuple[Dict[str, List[Dict]], Dict[str, Dict]]:
    """Untraced passes interleaved across workloads, then one traced
    pass (the inputs of pass 0) each when asked."""
    passes: Dict[str, List[Dict]] = {name: [] for name in args.workload}
    spent = {name: 0.0 for name in args.workload}
    limit = args.repeats or (MAX_PASSES if args.seconds else DEFAULT_REPEATS)
    # A traced pass takes about twice an untraced one: keep the run
    # within its budget.
    budget = args.seconds / 2 if args.seconds and args.trace else args.seconds
    for index in range(limit):
        for name in args.workload:
            done = passes[name]
            if len(done) < index:
                continue  # its time budget ran out at an earlier pass
            if budget is not None and done and (
                spent[name] + done[-1]["wall_s"] > budget
            ):
                continue
            document = run_child(name, pass_inputs(args.seed, index), False, work,
                                 None)
            document["pass"] = index
            spent[name] += document["wall_s"]
            done.append(document)
            print(f"  {name} pass {index}: {document['wall_s']:.1f} s",
                  file=sys.stderr)
    traced: Dict[str, Dict] = {}
    for name in args.workload if args.trace else ():
        chrome = None
        if args.output:
            chrome = args.output.with_name(f"{args.output.stem}.{name}.trace.json")
        traced[name] = run_child(name, pass_inputs(args.seed, 0), True, work, chrome)
        traced[name]["pass"] = 0
        print(f"  {name} traced pass: {traced[name]['wall_s']:.1f} s",
              file=sys.stderr)
    return passes, traced


def check_digests(name: str, documents: List[Dict]) -> None:
    """Every pass must reproduce the committed result digests of its
    input set, and a traced pass its untraced twin's; failures join the
    pass."""
    expected = json.loads((BENCH / "expected.json").read_text())["digests"]
    untraced = {d["inputs"]: d["digests"] for d in documents if not d["traced"]}
    for document in documents:
        inputs = document["inputs"]
        for unit, digest in document["digests"].items():
            problems = []
            want = expected.get(f"{name}/{inputs}/{unit}")
            if want is None:
                problems.append("bench/expected.json holds no result digest")
            elif digest != want:
                problems.append("result digest differs from bench/expected.json")
            if digest != untraced.get(inputs, {}).get(unit, digest):
                problems.append("traced result digest differs from untraced")
            for problem in problems:
                document["failures"].append(f"{name}/{unit}: {problem}")
                if unit not in document["failed_units"]:
                    document["failed_units"].append(unit)


def suite_value(passes: List[Dict], metric: str) -> float:
    """The mean, over the input sets the passes covered, of the median
    of each set's values.

    Input sets differ in cost (the open cells' by about 7 %), so the
    median of all passes would move with the set a run starts on and with
    how many passes fit; once a run covers every set, this does not.
    """
    by_input: Dict[int, List[float]] = {}
    for document in passes:
        if metric in document["metrics"]:
            by_input.setdefault(document["inputs"], []).append(
                document["metrics"][metric])
    return statistics.fmean(statistics.median(values) for values in by_input.values())


def summarize(name: str, untraced: List[Dict], traced: Optional[Dict]) -> Dict:
    """One workload's section of the result document."""
    for document in untraced:
        document["metrics"]["wall_s"] = document["wall_s"]
        document["metrics"]["failed_share"] = (
            len(document["failed_units"]) / max(1, document["attempted"])
        )
    metrics = {}
    for metric in METRICS:
        if name not in metric.workloads:
            continue
        values = [d["metrics"][metric.name] for d in untraced
                  if metric.name in d["metrics"]]
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        metrics[metric.name] = {
            "unit": metric.unit, "better": metric.better, "bound": metric.bound,
            "floor": metric.floor, "definition": metric.definition,
            "value": suite_value(untraced, metric.name),
            "median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values,
        }
    section: Dict[str, Any] = {
        "why": WORKLOADS[name],
        "metrics": metrics,
        "stats": untraced[0]["stats"],
        "passes": untraced,
    }
    if traced is not None:
        section["traced"] = traced
        section["layers"] = layer_metrics(traced, metrics)
    return section


def layer_metrics(traced: Dict, metrics: Dict) -> Dict[str, float]:
    """Every per-layer metric of the traced pass (0 for layers the
    workload never entered)."""
    table = traced.get("layers", {})
    ratios = traced.get("ratios", {})
    values: Dict[str, float] = {}
    for layer in layers.LAYERS:
        row = table.get(layer.name, {})
        values[f"{layer.name}.calls"] = row.get("calls", 0)
        values[f"{layer.name}.self_s"] = row.get("self_s", 0.0)
        if layer.ratio:
            values[layer.ratio] = ratios.get(layer.ratio, 0.0)
    values["exec.worker_run_s"] = traced["stats"].get("exec.worker_run_s", 0.0)
    values["unattributed_s"] = traced.get("unattributed_s", traced["wall_s"])
    untraced_wall = metrics.get("wall_s", {}).get("median")
    values["trace_overhead_pct"] = (
        (traced["wall_s"] / untraced_wall - 1.0) * 100.0 if untraced_wall else 0.0
    )
    for stat in layers.COMPONENT_STATS:
        values[stat] = traced["stats"].get(stat, 0.0)
    return values


def print_report(document: Dict) -> None:
    """The human-readable tables (standard output, before the summary)."""
    for name, section in document["workloads"].items():
        print(f"\n== {name}: {section['why']}")
        print(f"{'metric':<18} {'unit':<6} {'value':>12} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'n':>3}  bound")
        for metric, row in section["metrics"].items():
            bound = f"+{row['bound']:.0%}"
            if row["floor"]:
                bound += f" and {row['floor']:g} {row['unit']}"
            print(f"{metric:<18} {row['unit']:<6} {row['value']:>12.4f} "
                  f"{row['median']:>12.4f} {row['q1']:>12.4f} {row['q3']:>12.4f} "
                  f"{row['n']:>3}  {bound}")
        if "layers" in section:
            values = section["layers"]
            print(f"{'layer':<24} {'calls':>10} {'self_s':>10}")
            for layer in layers.LAYERS:
                calls = values[f"{layer.name}.calls"]
                if calls:
                    extra = (f"  {layer.ratio} = {values[layer.ratio]:.3f}"
                             if layer.ratio else "")
                    print(f"{layer.name:<24} {calls:>10} "
                          f"{values[layer.name + '.self_s']:>10.3f}{extra}")
            for key in layers.TRACE_TOTALS:
                print(f"{key:<24} {values[key]:>21.3f}")
        for stat in layers.COMPONENT_STATS:
            if stat in section["stats"]:
                print(f"{stat:<24} {section['stats'][stat]:>21.4f}")
    for failure in document["failures"]:
        print(f"FAIL {failure}")


def summary_line(document: Dict, trace: bool) -> Dict[str, Any]:
    """The one-line JSON summary: correctness counts and, per workload,
    the end-to-end metrics (or, with ``trace``, the per-layer ones)."""
    sections = document["workloads"]
    metrics: Dict[str, Dict[str, Any]] = {}
    units = layers.metric_definitions()
    for name, section in sections.items():
        prefix = "" if len(sections) == 1 else f"{name}."
        if trace:
            for key, value in section["layers"].items():
                metrics[prefix + key] = {"value": value, "unit": units[key][0]}
        else:
            for key in DRIVER_METRICS:
                row = section["metrics"].get(key)
                if row is not None:  # missing only when every pass failed
                    metrics[prefix + key] = {"value": row["value"], "unit": row["unit"]}
    return {"correct": document["correct"], "attempted": document["attempted"],
            "failed": document["failed"], "metrics": metrics}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="extend", nargs="+",
                        choices=ALL, metavar="NAME",
                        help=f"workloads to run (default: all of {', '.join(ALL)})")
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"untraced passes per workload (default "
                        f"{DEFAULT_REPEATS}; with --seconds, as many as fit)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per workload (untraced passes get "
                        "half of it with --trace); no pass starts that would "
                        "overrun it, but one always runs")
    parser.add_argument("--seed", type=int, default=0,
                        help=f"pass i simulates input set (seed + i) mod {INPUT_SETS}")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add one traced pass per workload")
    parser.add_argument("--output", type=Path, help="write the result document")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be > 0")
    args.workload = list(dict.fromkeys(args.workload or ALL))
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Bytecode is compiled before timing: users do not pay that per run.
    compileall.compile_dir(ROOT / "src", quiet=1)
    # Caches, journals and temporary files stay inside the checkout.
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        passes, traced = run_passes(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sections = {}
    every = []
    for name in args.workload:
        documents = passes[name] + ([traced[name]] if name in traced else [])
        check_digests(name, documents)
        sections[name] = summarize(name, passes[name], traced.get(name))
        every += documents
    document = {
        "schema": SCHEMA,
        "machine": machine(),
        "settings": {"seed": args.seed, "repeats": args.repeats,
                     "seconds": args.seconds, "trace": bool(args.trace),
                     "workloads": args.workload,
                     "definitions": definition_digest()},
        "workloads": sections,
        "attempted": sum(d["attempted"] for d in every),
        "failed": sum(len(d["failed_units"]) for d in every),
        "failures": [f for d in every for f in d["failures"]],
    }
    document["correct"] = document["failed"] == 0
    print_report(document)
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(summary_line(document, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
