"""SHA-256 digests of every distinct benchmark pool op, run in process.

    python3 tools/pool_digests.py SRC > digests.json

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
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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


def digest(main, template: list[str]) -> str:
    """One digest of everything the op leaves: exit code, streams and files."""
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
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(f"usage: {Path(__file__).name} SRC", file=sys.stderr)
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
    digests = {" ".join(template): digest(rsse.cli.main, template) for template in pool_argvs()}
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
