"""SHA-256 digests of every distinct benchmark pool op, run in process.

    python3 tools/pool_digests.py [--rows] SRC > digests.json
    python3 tools/pool_digests.py --write src

SRC is the directory that holds the ``rsse`` package of the tree under test
(``src`` of a checkout).  The ops are the distinct argvs of the pools in
``perfbench/workloads.py`` of the checkout that holds this script: four
rounds of seeds 0-39 of every workload, plus the three warm-ups.  Each op
runs once through ``rsse.cli.main`` in this process, in sorted order, with
its ``{dir}`` placeholder set to a fresh temporary directory.  The output
maps each argv, joined by spaces, to one digest of its exit code, stdout,
stderr and every file it wrote, with the temporary directory replaced by
``{dir}`` wherever it appears.

Two trees give the same reports, dumps, messages and exit codes on the pool
when their outputs are equal::

    python3 tools/pool_digests.py /path/to/parent/src > parent.json
    python3 tools/pool_digests.py src > change.json
    diff parent.json change.json

``tools/pool_digests.json`` is the committed manifest: the digests of this
checkout's ``src`` with the numpy and scipy versions they were made with
(FD bytes are LAPACK's).  ``tests/test_pool_digests.py`` checks the pool
against it.  ``--write`` regenerates it from SRC instead of printing; a change
that moves report bytes commits the new manifest and names the moved argvs.

With ``--rows`` each argv maps to ``{"digest": ..., "rows": [...]}``, where
the rows are those of its report (stdout, or the ``report.*`` file it
wrote), parsed from CSV or JSON, with every cell that reads as a number a
float.  :func:`largest_relative_changes` then says how far digits moved,
as the largest ``|new - old| / |old|`` per numeric column over every
argv::

    python3 tools/pool_digests.py --rows /path/to/parent/src > parent.json
    python3 tools/pool_digests.py --rows src > change.json
    PYTHONPATH=tools python3 -c 'import json, sys, pool_digests as p; \\
        print(p.largest_relative_changes(*map(json.load, map(open, sys.argv[1:]))))' \\
        parent.json change.json
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tools" / "pool_digests.json"
SEEDS = range(40)
ROUNDS = 4


def _workloads():
    """``perfbench/workloads.py``, loaded from its file without touching the package."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pool_argvs() -> list[list[str]]:
    """The distinct argvs of every pool, sorted."""
    workloads = _workloads()
    argvs = {tuple(argv) for argv in workloads.WARMUP.values()}
    for workload in workloads.SLOTS:
        for seed in SEEDS:
            rounds = workloads.rounds(workload, seed)
            for _ in range(ROUNDS):
                argvs.update(tuple(argv) for argv in next(rounds))
    return [list(argv) for argv in sorted(argvs)]


def report_rows(record: dict) -> list[dict]:
    """The rows of the report in an op's record: its stdout, else its ``report.*`` file."""
    texts = [record["stdout"]] + [
        text for name, text in record["files"].items() if Path(name).stem == "report"
    ]
    text = next((text for text in texts if text), "")
    if text.startswith("{"):
        return json.loads(text)["rows"]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        return []
    columns = lines[0].split(",")
    return [dict(zip(columns, map(_cell, line.split(",")))) for line in lines[1:]]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def largest_relative_changes(old: dict, new: dict) -> dict[str, float]:
    """Column -> largest ``|new - old| / |old|`` over the ``--rows`` outputs of two trees.

    Only numeric cells of argvs and rows present in both count; a change
    from an exact 0 is infinite.
    """
    largest: dict[str, float] = {}
    for argv in old.keys() & new.keys():
        for row_old, row_new in zip(old[argv]["rows"], new[argv]["rows"]):
            for column, a in row_old.items():
                b = row_new.get(column)
                if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                    change = 0.0 if a == b else abs(b - a) / abs(a) if a else math.inf
                    largest[column] = max(largest.get(column, 0.0), change)
    return dict(sorted(largest.items()))


def digest(main, template: list[str], rows: bool = False):
    """One digest of everything the op leaves: exit code, streams and files.

    With ``rows``, ``{"digest": ..., "rows": ...}`` with the report's rows too.
    """
    with tempfile.TemporaryDirectory() as opdir:
        argv = [arg.replace("{dir}", opdir) for arg in template]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        record = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": {}}
        for path in sorted(Path(opdir).rglob("*")):
            if path.is_file():
                record["files"][str(path.relative_to(opdir))] = path.read_text()
        text = json.dumps(record, sort_keys=True).replace(json.dumps(opdir)[1:-1], "{dir}")
    sha = hashlib.sha256(text.encode()).hexdigest()
    return {"digest": sha, "rows": report_rows(record)} if rows else sha


def versions() -> dict[str, str]:
    """The installed numpy and scipy versions, read without importing either."""
    from importlib.metadata import version

    return {name: version(name) for name in ("numpy", "scipy")}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    flags = {flag for flag in ("--rows", "--write") if flag in args}
    args = [arg for arg in args if arg not in flags]
    rows, write = "--rows" in flags, "--write" in flags
    if len(args) != 1 or rows and write:
        print(f"usage: {Path(__file__).name} [--rows | --write] SRC", file=sys.stderr)
        return 2
    src = Path(args[0]).resolve()
    if os.environ.get("RSSE_PRESET_DIR"):
        print("unset RSSE_PRESET_DIR: the pools use the built-in presets", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import rsse.cli

    if not Path(rsse.cli.__file__).resolve().is_relative_to(src):
        print(f"rsse was imported from {rsse.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    digests = {
        " ".join(template): digest(rsse.cli.main, template, rows) for template in pool_argvs()
    }
    if write:
        manifest = {**versions(), "digests": digests}
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {MANIFEST}", file=sys.stderr)
        return 0
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
