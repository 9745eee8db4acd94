import importlib.util
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
