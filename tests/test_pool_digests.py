import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rsse.cli import COMMANDS, main
from rsse.presets import builtin_presets

_SPEC = importlib.util.spec_from_file_location(
    "pool_digests", Path(__file__).resolve().parent.parent / "tools" / "pool_digests.py"
)
pool_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pool_digests)

SOLVE = ["solve", "--preset", "oscillator", "--n-max", "2"]
ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads(pool_digests.MANIFEST.read_text())
TOO_COARSE = "solve --preset oscillator --method numerov --grid-n 16 --n-max 13"


@pytest.fixture(scope="module")
def digests():
    """The tool's digests of this checkout's ``src``, made once in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pool_digests.py"), str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def test_the_manifest_was_made_with_this_numpy_and_scipy():
    made_with = {name: MANIFEST[name] for name in ("numpy", "scipy")}
    assert pool_digests.versions() == made_with, (
        f"the manifest was made with {made_with}, this run has {pool_digests.versions()}"
    )


def test_the_tool_and_the_manifest_name_the_same_argvs(digests):
    assert sorted(digests) == sorted(MANIFEST["digests"]), (
        "the tool and the manifest name different argvs"
    )


# byte identity of every op against the committed manifest, one test per argv;
# a change that moves bytes regenerates it with `tools/pool_digests.py --write src`
@pytest.mark.parametrize("argv", sorted(MANIFEST["digests"]))
def test_op_gives_the_bytes_of_the_manifest(digests, argv):
    assert digests.get(argv) == MANIFEST["digests"][argv]


def _config(key: str) -> tuple[str, dict]:
    """The command of a manifest argv and its options, defaults filled in."""
    command, *flags = key.split()
    config = {option: default for option, (_, default, _) in COMMANDS[command][2].items()}
    for flag, value in zip(flags[::2], flags[1::2]):
        config[flag[2:].replace("-", "_")] = value
    return command, config


def test_the_manifest_covers_every_command_preset_and_path():
    # a shorter PINNED list must not drop what these cover
    keys = MANIFEST["digests"]
    assert {"--help", *(command + " --help" for command in COMMANDS)} <= keys.keys()
    ops = [_config(key) for key in keys if not key.endswith("--help")]
    formats = ("csv", "json")
    commands = {(command, config["format"]) for command, config in ops}
    assert commands >= {(command, fmt) for command in COMMANDS for fmt in formats}
    compared = {(config["preset"], config["format"]) for command, config in ops
                if command == "compare"}
    assert compared >= {(preset, fmt) for preset in builtin_presets() for fmt in formats}
    assert TOO_COARSE in MANIFEST["digests"] and main(TOO_COARSE.split()) == 2
    assert any(config.get("wavefunctions_dir") for _, config in ops)
    assert ("convergence", "numerov") in {(command, config.get("method")) for command, config in ops}
    assert any(command == "solve" and config["preset"] not in builtin_presets()
               for command, config in ops)


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
    monkeypatch.setattr(pool_digests, "PINNED", [])
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
    monkeypatch.setattr(pool_digests, "PINNED", [])
    monkeypatch.setattr(pool_digests, "MANIFEST", tmp_path / "manifest.json")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert pool_digests.main(["--write", str(ROOT / "src")]) == 0
    assert capsys.readouterr().out == ""
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest == {
        **pool_digests.versions(),
        "digests": {" ".join(SOLVE): pool_digests.digest(main, SOLVE)},
    }


def test_write_flag_names_the_argvs_that_moved(monkeypatch, tmp_path, capsys):
    kept, fresh = SOLVE + ["--format", "json"], SOLVE + ["--n-max", "1"]
    monkeypatch.setattr(pool_digests, "pool_argvs", lambda: [fresh, SOLVE])
    monkeypatch.setattr(pool_digests, "PINNED", [kept, SOLVE])
    manifest = tmp_path / "manifest.json"
    monkeypatch.setattr(pool_digests, "MANIFEST", manifest)
    monkeypatch.setattr(sys, "path", list(sys.path))
    old = {" ".join(SOLVE): "0" * 64, " ".join(kept): pool_digests.digest(main, kept), "gone": "1"}
    manifest.write_text(json.dumps({"digests": old}))
    assert pool_digests.main(["--write", str(ROOT / "src")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "added " + " ".join(fresh),
        "removed gone",
        "changed " + " ".join(SOLVE),
        f"wrote 3 digests to {manifest}",
    ]
    assert sorted(json.loads(manifest.read_text())["digests"]) == sorted(
        " ".join(argv) for argv in (fresh, kept, SOLVE)
    )


def test_the_tool_restores_the_environment_and_ignores_the_callers(monkeypatch, tmp_path, capsys):
    # help wraps at COLUMNS, and a caller's hydrogen.conf shadows the built-in preset
    pinned = [["solve", "--help"], ["solve", "--preset", "hydrogen", "--n-max", "1"],
              ["solve", "--preset", "well", "--n-max", "1"]]
    monkeypatch.setattr(pool_digests, "pool_argvs", lambda: [])
    monkeypatch.setattr(pool_digests, "PINNED", pinned)
    monkeypatch.setattr(sys, "path", list(sys.path))
    (tmp_path / "hydrogen.conf").write_text(pool_digests.PRESET_CONF)
    outputs = []
    for caller in ({}, {"COLUMNS": "200", "RSSE_PRESET_DIR": str(tmp_path)}):
        for key in ("COLUMNS", "RSSE_PRESET_DIR"):
            monkeypatch.delenv(key, raising=False)
        for key, value in caller.items():
            monkeypatch.setenv(key, value)
        before = dict(os.environ)
        assert pool_digests.main([str(ROOT / "src")]) == 0
        assert dict(os.environ) == before
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    # outside the tool the caller's environment moves every one of these ops
    assert all(pool_digests.digest(main, argv) != outputs[1][" ".join(argv)] for argv in pinned)
