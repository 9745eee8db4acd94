import importlib.util
import json
import sys
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "t", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def _runs(parent, change):
    rows = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        rows.append({"pair": pair, "side": "parent", "t": p[0], "rate": p[1]})
        rows.append({"pair": pair, "side": "change", "t": c[0], "rate": c[1]})
    return {"w": rows}


def test_summary_counts_wins_in_each_metrics_direction_and_flags_wide_parents():
    parent = [(1.0, 10.0), (1.0, 20.0), (1.0, 30.0), (1.0, 40.0)]
    change = [(0.9, 11.0), (1.0, 20.0), (1.1, 29.0), (0.8, 41.0)]
    summary = bench_pairs.summarize(_runs(parent, change), END_TO_END)["w"]
    assert summary["pairs"] == 4
    # lower t is better, higher rate is better; the tie in pair 2 counts for neither
    assert summary["t"]["wins"] == {"change": 2, "parent": 1}
    assert summary["rate"]["wins"] == {"change": 2, "parent": 1}
    # the parent's t has no spread; its rate has an IQR of 15 about a median of 25
    assert summary["t"]["resolved"] is True
    assert summary["rate"]["parent"] == {"median": 25.0, "q1": 17.5, "q3": 32.5}
    assert summary["rate"]["resolved"] is False
    assert summary["t"]["ratio"]["median"] == 0.95


def test_main_runs_the_parents_declared_workloads_with_its_declared_command(
    tmp_path, monkeypatch, capsys
):
    # one of today's workloads and one that no version of the tool has named
    workloads = ["cli_cold", "brand_new"]
    declared = {
        "command": ["python3", "bench/go.py"],
        "run_seconds": 3,
        "workloads": [{"name": name} for name in workloads],
        "end_to_end": END_TO_END[:1],
    }
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        root.mkdir()
        (root / "BENCHMARK.json").write_text(json.dumps(declared))
    calls = []

    def perfbench(root, command, workload, seed, seconds, trace, metrics=()):
        calls.append((root, command, workload, seed, seconds, trace))
        return {"correct": True, "failed": 0, **dict.fromkeys(metrics, 1.0)}

    monkeypatch.setattr(bench_pairs, "perfbench", perfbench)
    monkeypatch.setattr(bench_pairs, "wall_s", lambda argv: 0.05)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change)]) == 0
    record = json.loads(capsys.readouterr().out)

    # the declared command, with this interpreter for its first word, and run_seconds
    assert all(call[1] == [sys.executable, "bench/go.py"] and call[4] == 3 for call in calls)
    timed = [(root, workload, seed) for root, _, workload, seed, _, trace in calls if trace == 0]
    expected = []
    for workload in workloads:
        for pair in range(1, 11):
            order = (parent, change) if pair % 2 else (change, parent)
            expected += [(root, workload, 100 + pair) for root in order]
    assert timed == expected
    traced = [(root, workload) for root, _, workload, _, _, trace in calls if trace == 1]
    assert sorted(traced) == sorted((root, w) for root in (parent, change) for w in workloads)
    assert record["command"] == (
        "python3 bench/go.py --workload W --seed 100+pair --seconds 3 --trace 0"
    )
    assert list(record["runs"]) == list(record["summary"]) == workloads
    assert [record["summary"][w]["pairs"] for w in workloads] == [10, 10]
