"""The import graph and the lazily bound public names.

``import rsse`` loads no submodule: each public name loads the submodule
that defines it when first read.  The analytic commands load neither numpy
nor scipy: ``rsse.eigensolver`` is the only module that imports numpy at
module level, and ``rsse`` and ``rsse.cli`` import it on the first read of a
solver name or the first solve.  The solvers then load only scipy's compiled
LAPACK extension, ``scipy.linalg._flapack``, from its file, never the scipy
package.

Each import-graph case starts a fresh interpreter, so modules imported by
other tests do not leak into ``sys.modules``.
"""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rsse
import rsse.eigensolver

SRC = Path(__file__).resolve().parents[1] / "src"

# runs rsse.cli.main on argv with stdout swallowed
RUN_MAIN = """
import contextlib, io
import rsse.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = rsse.cli.main({argv!r})
assert code == 0, code
"""
# prints the loaded numpy and scipy modules as JSON on stderr
REPORT = """
import json, sys
loaded = (m for m in sys.modules if m.split(".")[0] == "numpy" or m.startswith("scipy"))
print(json.dumps(sorted(loaded)), file=sys.stderr)
"""


def run_fresh(code):
    """Run ``code`` in a fresh interpreter; returns its stderr."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stderr


def array_modules_after(code):
    return json.loads(run_fresh(code + REPORT).splitlines()[-1])


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
    # and no numpy either
    assert array_modules_after(code) == []


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
    loaded = array_modules_after(RUN_MAIN.format(argv=argv))
    assert "numpy" in loaded
    # neither scipy nor scipy.linalg; the extension itself may be registered
    assert {m for m in loaded if m.startswith("scipy")} <= {"scipy.linalg._flapack"}


# prints the loaded rsse modules as JSON on stderr
RSSE_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "rsse")), file=sys.stderr)
"""


def rsse_modules_after(code):
    return json.loads(run_fresh(code + RSSE_REPORT).splitlines()[-1])


def test_reading_a_cli_solver_name_before_any_solve_binds_all_five():
    # a benchmark tracer reads and wraps rsse.cli.solve_lowest_k this way
    run_fresh(
        """
import sys
import rsse.cli
assert "rsse.eigensolver" not in sys.modules and "solve_lowest_k" not in vars(rsse.cli)
solver = rsse.cli.solve_lowest_k
import rsse.eigensolver
assert solver is rsse.eigensolver.solve_lowest_k
for name in rsse.cli._SOLVERS:
    assert vars(rsse.cli)[name] is getattr(rsse.eigensolver, name), name
"""
    )


def test_import_rsse_loads_no_submodule():
    assert rsse_modules_after("import rsse") == ["rsse"]


def test_kinematics_loads_only_the_numpy_free_modules_it_needs():
    assert rsse_modules_after(RUN_MAIN.format(argv=["kinematics"])) == [
        "rsse",
        "rsse.cli",
        "rsse.inversion",
        "rsse.kinematics",
        "rsse.presets",
        "rsse.problem",
        "rsse.spectra",
        "rsse.units",
    ]


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["kinematics"], False),
        (["invert-demo"], False),
        (["compare", "--preset", "hydrogen"], False),
        (["convergence", "--preset", "oscillator"], False),
        (["solve", "--preset", "hydrogen", "--n-max", "1"], False),
        (["solve", "--preset", "hydrogen", "--n-max", "1", "--wavefunctions-dir", "{tmp}"], True),
    ],
    ids=["kinematics", "invert-demo", "compare", "convergence", "solve", "solve-dump"],
)
def test_only_a_wavefunction_dump_loads_the_dump_formatter(tmp_path, argv, loads):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert ("rsse._g17" in rsse_modules_after(RUN_MAIN.format(argv=argv))) == loads


# ---------------------------------------------------------------------------
# the rsse namespace
# ---------------------------------------------------------------------------


def defining_module(name, obj):
    """The rsse submodule whose source defines ``name`` at top level."""
    if isinstance(obj, (type, types.FunctionType)):
        return obj.__module__
    assigned = re.compile(rf"^{name}\s*[:=]", re.M)
    loaded = [m for m in sys.modules if m.startswith("rsse.")]
    (module,) = [m for m in loaded if assigned.search(inspect.getsource(sys.modules[m]))]
    return module


EIGENSOLVER_NAMES = [
    "EigenResult",
    "TridiagonalOperator",
    "assemble_tridiagonal",
    "convergence_order",
    "numerov_solve",
    "rayleigh_quotient",
    "solve_lowest_k",
    "solve_numerov_lowest_k",
]


def test_every_public_name_resolves():
    for name in rsse.__all__:
        assert getattr(rsse, name) is not None, name
    namespace = {}
    exec("from rsse import *", namespace)
    assert set(rsse.__all__) <= set(namespace)


@pytest.mark.parametrize(
    "name", [*EIGENSOLVER_NAMES, "GridSpec", "RadialProblem", "ConvergenceError"]
)
def test_solver_names_are_the_eigensolver_objects(name):
    assert name in rsse.__all__
    assert getattr(rsse, name) is getattr(rsse.eigensolver, name)


@pytest.mark.parametrize("name", rsse.__all__)
def test_public_names_are_the_objects_of_their_defining_modules(name):
    obj = getattr(rsse, name)
    home = defining_module(name, obj)
    assert obj is getattr(sys.modules[home], name)
    assert f"rsse.{rsse._MODULE_OF[name]}" == home  # the module its first read loads


def test_dir_lists_all_public_names():
    # fresh, so that no earlier read has bound the eigensolver names
    run_fresh(
        "import sys\n"
        "import rsse\n"
        "assert set(rsse.__all__) <= set(dir(rsse))\n"
        "assert 'numpy' not in sys.modules\n"
    )


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rsse.no_such_name  # noqa: B018
    assert not hasattr(rsse, "no_such_name")


def test_first_read_of_a_solver_name_loads_the_eigensolver():
    run_fresh(
        "import sys\n"
        "import rsse\n"
        "assert 'rsse.eigensolver' not in sys.modules\n"
        "solve = rsse.solve_lowest_k\n"
        "assert solve is sys.modules['rsse.eigensolver'].solve_lowest_k\n"
    )


# ---------------------------------------------------------------------------
# rsse.cli keeps wrappers set before the first solve
# ---------------------------------------------------------------------------

WRAP_BEFORE_FIRST_SOLVE = """
import collections, contextlib, io, sys
import rsse.cli
assert "rsse.eigensolver" not in sys.modules
calls = collections.Counter()

def counting(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper

# as a benchmark tracer does: read the name from rsse.cli, set a wrapper
for name in ("solve_lowest_k", "solve_numerov_lowest_k", "convergence_order"):
    setattr(rsse.cli, name, counting(name, getattr(rsse.cli, name)))
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["solve", "--n-max", "1"],
        ["solve", "--n-max", "1", "--method", "numerov"],
        ["convergence"],
    ):
        assert rsse.cli.main(argv) == 0, argv
print(dict(calls), file=sys.stderr)
"""


def test_cli_keeps_wrappers_set_before_the_first_solve():
    calls = run_fresh(WRAP_BEFORE_FIRST_SOLVE).splitlines()[-1]
    assert calls == str(
        {"solve_lowest_k": 1, "solve_numerov_lowest_k": 1, "convergence_order": 1}
    )


# ---------------------------------------------------------------------------
# the solvers read the problem in one place
# ---------------------------------------------------------------------------


def reads(tree, what):
    """The calls of ``what`` in ``tree``; a leading dot names a method or attribute."""
    if what.startswith("."):
        nodes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        return [node for node in nodes if node.attr == what[1:]]
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return [func for func in calls if isinstance(func, ast.Name) and func.id == what]


@pytest.mark.parametrize("what", ["effective_potential", "_check_origin", ".nodes", ".hbar"])
def test_eigensolver_reads_the_problem_only_in_its_radial_form(what):
    # one radial form checks the origin, builds the nodes, evaluates V_eff and
    # forms the hbar**2 / mu prefactors; both solvers read it
    tree = ast.parse(Path(rsse.eigensolver.__file__).read_text())
    (form,) = [
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_RadialForm"
    ]
    assert len(reads(tree, what)) == 1
    assert len(reads(form, what)) == 1


@pytest.mark.parametrize(
    "what, callers",
    [
        ("_tridiagonal_lowest", ["_fd_brackets", "_fd_states"]),
        ("numerov_solve", ["_numerov_states"]),
    ],
)
def test_each_route_solves_its_states_in_one_generator(what, callers):
    # the list solves and solve_state read the per-state records of one
    # generator per route; the FD seed is the only other LAPACK eigensolve
    tree = ast.parse(Path(rsse.eigensolver.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_seeded_numerov" not in functions
    assert sorted(name for name, node in functions.items() if reads(node, what)) == callers
    assert len(reads(tree, what)) == sum(len(reads(functions[name], what)) for name in callers)


# ---------------------------------------------------------------------------
# one positivity rule
# ---------------------------------------------------------------------------


def test_only_units_check_positive_says_a_parameter_must_be_positive():
    # every mass, charge, frequency, energy and unit scale goes through it
    package = SRC / "rsse"
    units = ast.parse((package / "units.py").read_text())
    (check,) = [
        node
        for node in units.body
        if isinstance(node, ast.FunctionDef) and node.name == "_check_positive"
    ]
    inside = range(check.lineno, check.end_lineno + 1)
    found = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        assert "_check_rest_mass" not in text, path.name
        for number, line in enumerate(text.splitlines(), start=1):
            for phrase in ("strictly positive", "must be positive"):
                if phrase in line:
                    found.append((path.name, number in inside, phrase))
    assert found == [("units.py", True, "must be positive")]


def test_only_units_check_index_decides_a_count_or_index_is_valid():
    # every n, l, k, n_index and node count goes through it
    package = SRC / "rsse"
    units = ast.parse((package / "units.py").read_text())
    (check,) = [
        node
        for node in units.body
        if isinstance(node, ast.FunctionDef) and node.name == "_check_index"
    ]
    inside = range(check.lineno, check.end_lineno + 1)
    phrases = (
        "operator.index",
        "must be an integer",
        "must be in [",
        "must be nonnegative",
        "must be at least",
        "must be >=",
        "needs at least",
    )
    found = []
    for path in sorted(package.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            for phrase in phrases:
                if phrase in line:
                    found.append((path.name, number in inside, phrase))
    assert found == [
        ("units.py", True, "operator.index"),
        ("units.py", True, "must be an integer"),
        ("units.py", True, "must be in ["),
    ]


def test_only_check_finite_and_check_samples_reject_a_non_finite_real_or_sample():
    # every energy, bracket end, float option and table value goes through
    # units._check_finite, and every sampled array through problem._check_samples
    package = SRC / "rsse"
    rules = {"units.py": "_check_finite", "problem.py": "_check_samples"}
    inside = {}
    for module, rule in rules.items():
        tree = ast.parse((package / module).read_text())
        (check,) = [
            node
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == rule
        ]
        inside[module] = range(check.lineno, check.end_lineno + 1)
    found = []
    for path in sorted(package.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            for phrase in ("must be finite, got", "sample shape mismatch"):
                if phrase in line:
                    found.append((path.name, number in inside.get(path.name, ()), phrase))
    assert sorted(found) == [
        ("problem.py", True, "sample shape mismatch"),
        ("units.py", True, "must be finite, got"),
    ]


def test_only_parse_kv_file_types_or_rejects_a_flat_file_value():
    # --config files and preset .conf files share one reader, its checks and its messages
    package = SRC / "rsse"
    presets = ast.parse((package / "presets.py").read_text())
    (reader,) = [
        node
        for node in presets.body
        if isinstance(node, ast.FunctionDef) and node.name == "parse_kv_file"
    ]
    inside = range(reader.lineno, reader.end_lineno + 1)
    phrases = re.compile(r"invalid choice|unknown (?:config|preset|\{what\}) key|invalid \S+ value")
    found = []
    for path in sorted(package.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            found += [(path.name, number in inside, match) for match in phrases.findall(line)]
    assert found == [
        ("presets.py", True, "unknown {what} key"),
        ("presets.py", True, "invalid choice"),
        ("presets.py", True, "invalid {kind.__name__} value"),
    ]
