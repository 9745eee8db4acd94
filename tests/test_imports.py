"""The import graph: no command imports the scipy package.

The analytic commands load nothing of scipy; the solvers load only its
compiled LAPACK extension, ``scipy.linalg._flapack``, from its file.

Each case starts a fresh interpreter, so modules imported by other tests
do not leak into ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# runs rsse.cli.main on argv with stdout swallowed
RUN_MAIN = """
import contextlib, io
import rsse.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = rsse.cli.main({argv!r})
assert code == 0, code
"""
# prints the loaded scipy modules as JSON on stderr
REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))), file=sys.stderr)
"""


def scipy_modules_after(code):
    result = subprocess.run(
        [sys.executable, "-c", code + REPORT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stderr.splitlines()[-1])


@pytest.mark.parametrize(
    "code",
    [
        "import rsse",
        "import rsse.cli",
        RUN_MAIN.format(argv=["kinematics"]),
        RUN_MAIN.format(argv=["invert-demo"]),
        RUN_MAIN.format(argv=["compare", "--preset", "hydrogen"]),
    ],
    ids=["import-rsse", "import-rsse.cli", "kinematics", "invert-demo", "compare"],
)
def test_analytic_paths_load_no_scipy(code):
    assert scipy_modules_after(code) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--preset", "hydrogen", "--n-max", "1"],
        ["solve", "--preset", "hydrogen", "--n-max", "1", "--method", "numerov"],
        ["convergence", "--preset", "oscillator"],
    ],
    ids=["solve-fd", "solve-numerov", "convergence-fd"],
)
def test_solvers_load_only_the_lapack_extension(argv):
    # neither scipy nor scipy.linalg; the extension itself may be registered
    assert set(scipy_modules_after(RUN_MAIN.format(argv=argv))) <= {"scipy.linalg._flapack"}
