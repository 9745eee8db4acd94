import importlib.util
import json
import math
import os
import subprocess
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
ROOT = Path(__file__).resolve().parent.parent


def test_every_pool_op_gives_the_bytes_of_the_manifest():
    # byte identity of every benchmark pool op against the committed manifest;
    # a change that moves bytes regenerates it with `tools/pool_digests.py --write src`
    manifest = json.loads(pool_digests.MANIFEST.read_text())
    made_with = {name: manifest[name] for name in ("numpy", "scipy")}
    assert pool_digests.versions() == made_with, (
        f"the manifest was made with {made_with}, this run has {pool_digests.versions()}"
    )
    env = {key: value for key, value in os.environ.items() if key != "RSSE_PRESET_DIR"}
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pool_digests.py"), str(ROOT / "src")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    digests, expected = json.loads(out), manifest["digests"]
    assert sorted(digests) == sorted(expected), "the pool and the manifest name different argvs"
    moved = [argv for argv in sorted(digests) if digests[argv] != expected[argv]]
    assert moved == [], f"{len(moved)} pool ops changed bytes: {moved}"


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
    assert pool_digests.main(["--rows", "--write", src]) == 2


def test_write_flag_regenerates_the_manifest(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(pool_digests, "pool_argvs", lambda: [SOLVE])
    monkeypatch.setattr(pool_digests, "MANIFEST", tmp_path / "manifest.json")
    monkeypatch.delenv("RSSE_PRESET_DIR", raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert pool_digests.main(["--write", str(ROOT / "src")]) == 0
    assert capsys.readouterr().out == ""
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest == {
        **pool_digests.versions(),
        "digests": {" ".join(SOLVE): pool_digests.digest(main, SOLVE)},
    }
