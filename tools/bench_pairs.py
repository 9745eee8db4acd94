"""Interleaved parent/change runs of perfbench, with interpreter floors.

    python3 tools/bench_pairs.py --parent PARENT --change CHANGE > BENCH_n.json

PARENT and CHANGE are the roots of two source checkouts, each with ``src/rsse``,
``perfbench/`` and ``BENCHMARK.json``.  S is the parent's ``run_seconds`` in
``BENCHMARK.json``.  For every workload and pair p = 1..10, each checkout runs
``python3 perfbench/run.py --workload W --seed 100+p --seconds S --trace 0``
from its own root, the parent first on odd pairs and the change first on even
ones.  Before every run the ``__pycache__`` directories under the checkout's
``src/`` are deleted, and every child runs with ``PYTHONDONTWRITEBYTECODE=1``,
so both sides compile rsse from source alike and no cache left by an earlier
run skews a pair.  After each pair the three floors run once each:
``python -c pass``, ``python -S -c pass`` and ``python -c "import numpy"``,
timed from process start to exit.  Finally each checkout runs every workload
once with ``--trace 1``, for its correctness flag only.

The end-to-end metrics, which way each is better and their bounds are those
of the parent's ``BENCHMARK.json``.  The JSON on stdout holds every run, each
side's median and quartiles per metric, the median and quartiles of the
per-pair change/parent ratio beside them, and the median of each floor over
all pairs.  Per metric it also gives ``wins``, the pairs in which each side
is better (a tie counts for neither), and ``resolved``, whether the parent's
IQR is within the metric's bound of its median; where it is not, the
benchmark cannot tell a change of that size from noise.  One run at a time;
nothing runs in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10
WORKLOADS = ("cli_cold", "numerov_solve", "fd_report")
FLOORS = {
    "python -c pass": [sys.executable, "-c", "pass"],
    "python -S -c pass": [sys.executable, "-S", "-c", "pass"],
    'python -c "import numpy"': [sys.executable, "-c", "import numpy"],
}


# children still read numpy's installed bytecode; they write none of their own
CHILD_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def perfbench(
    root: Path, workload: str, seed: int, seconds: float, trace: int, metrics: tuple = ()
) -> dict:
    """The result JSON of one perfbench run in ``root``, flattened to ``metrics``."""
    for cache in sorted((root / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=root, env=CHILD_ENV, capture_output=True, text=True,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    run = {"correct": result["correct"], "failed": result["failed"]}
    if trace == 0:
        run.update({name: result["metrics"][name]["value"] for name in metrics})
    return run


def wall_s(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=CHILD_ENV, check=True, capture_output=True)
    return time.perf_counter() - start


def spread(values: list[float]) -> dict:
    """Median and quartiles, rounded for reading."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(runs: dict, end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: spreads, per-pair ratios, wins and resolution."""
    summary = {}
    for workload, rows in runs.items():
        by_pair = {}
        for row in rows:
            by_pair.setdefault(row["pair"], {})[row["side"]] = row
        pairs = list(by_pair.values())
        summary[workload] = {"pairs": len(pairs)}
        for metric in end_to_end:
            name = metric["name"]
            parent = spread([pair["parent"][name] for pair in pairs])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            gains = [sign * (pair["parent"][name] - pair["change"][name]) for pair in pairs]
            ratios = [pair["change"][name] / pair["parent"][name] for pair in pairs]
            summary[workload][name] = {
                "parent": parent,
                "change": spread([pair["change"][name] for pair in pairs]),
                "ratio": spread(ratios),
                "wins": {"change": sum(g > 0 for g in gains), "parent": sum(g < 0 for g in gains)},
                "resolved": parent["q3"] - parent["q1"] <= metric["bound"] * parent["median"],
            }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args()
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    metrics = tuple(metric["name"] for metric in benchmark["end_to_end"])
    sides = {"parent": args.parent, "change": args.change}
    runs = {}
    floors = {name: [] for name in FLOORS}
    for workload in WORKLOADS:
        runs[workload] = []
        for pair in range(1, PAIRS + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                run = perfbench(sides[side], workload, 100 + pair, seconds, 0, metrics)
                runs[workload].append({"pair": pair, "side": side, **run})
                print(f"# {workload} pair {pair} {side}: {run}", file=sys.stderr)
            for name, argv in FLOORS.items():
                floors[name].append(wall_s(argv))
    summary = summarize(runs, benchmark["end_to_end"])
    trace_1 = {
        side: {w: perfbench(root, w, 1, seconds, 1) for w in WORKLOADS}
        for side, root in sides.items()
    }
    json.dump(
        {
            "command": "python3 perfbench/run.py --workload W --seed 100+pair "
            f"--seconds {seconds:g} --trace 0",
            "order": "the parent runs first on odd pairs, the change on even ones",
            "floors_s": {name: round(statistics.median(v), 6) for name, v in floors.items()},
            "trace_1": trace_1,
            "summary": summary,
            "runs": runs,
        },
        sys.stdout,
        indent=1,
    )
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
