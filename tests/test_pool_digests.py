import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from rsse.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "pool_digests", Path(__file__).resolve().parent.parent / "tools" / "pool_digests.py"
)
pool_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pool_digests)

SOLVE = ["solve", "--preset", "oscillator", "--n-max", "2"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_rows_are_read_from_the_report_in_either_format(tmp_path, fmt, to_file):
    argv = SOLVE + ["--format", fmt] + (["--output", "{dir}/report." + fmt] if to_file else [])
    record = pool_digests.digest(main, argv, rows=True)
    assert record["digest"] == pool_digests.digest(main, argv)
    rows = record["rows"]
    assert [row["n"] for row in rows] == [0, 1]
    assert [row["nodes"] for row in rows] == [0, 1]
    assert all(math.isclose(row["epsilon_hartree"], n + 0.5, rel_tol=1e-4)
               for n, row in enumerate(rows))


def test_a_failed_op_has_no_rows():
    argv = ["solve", "--preset", "oscillator", "--grid-n", "16", "--n-max", "15"]
    assert pool_digests.digest(main, argv, rows=True)["rows"] == []


def test_largest_relative_changes_per_numeric_column():
    old = {
        "a": {"rows": [{"n": 0.0, "eps": -0.5, "tag": "x"}, {"n": 1.0, "eps": 2.0, "tag": "y"}]},
        "b": {"rows": [{"n": 0.0, "eps": 0.0, "tag": "z"}]},
        "gone": {"rows": [{"n": 0.0, "eps": 1.0, "tag": "z"}]},
    }
    new = {
        "a": {"rows": [{"n": 0.0, "eps": -0.5005, "tag": "x"}, {"n": 1.0, "eps": 2.2, "tag": "w"}]},
        "b": {"rows": [{"n": 0.0, "eps": 0.0, "tag": "z"}]},
    }
    changes = pool_digests.largest_relative_changes(old, new)
    assert list(changes) == ["eps", "n"]
    assert changes["eps"] == pytest.approx(0.1) and changes["n"] == 0.0
    new["b"]["rows"][0]["eps"] = 1e-300
    assert pool_digests.largest_relative_changes(old, new)["eps"] == math.inf


def test_rows_flag_prints_digest_and_rows(monkeypatch, capsys):
    monkeypatch.setattr(pool_digests, "pool_argvs", lambda: [SOLVE])
    monkeypatch.delenv("RSSE_PRESET_DIR", raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts SRC first
    src = str(Path(__file__).resolve().parent.parent / "src")
    assert pool_digests.main(["--rows", src]) == 0
    (entry,) = json.loads(capsys.readouterr().out).values()
    assert entry["digest"] == pool_digests.digest(main, SOLVE)
    assert len(entry["rows"]) == 2
    assert pool_digests.main([src, "extra"]) == 2
