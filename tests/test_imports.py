"""The import graph and the lazily bound public names.

``import rsse`` loads no submodule: each public name loads the submodule
that defines it when first read.  The analytic commands load neither numpy
nor scipy: ``rsse.eigensolver`` is the only module that imports numpy at
module level, and ``rsse`` and ``rsse.cli`` import it on the first read of a
solver name or the first solve.  The solvers then load only scipy's compiled
LAPACK extension, ``scipy.linalg._flapack``, from its file, never the scipy
package.  Each analytic command loads only the rsse modules it runs, and no
command loads ``dataclasses`` or ``inspect``.

Each import-graph case starts a fresh interpreter, so modules imported by
other tests do not leak into ``sys.modules``.
"""

import ast
import builtins
import importlib.util
import inspect
import os
import re
import subprocess
import symtable
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
# prints every loaded module's name on stderr, before importing anything itself
PROBE = """
import sys
print(repr(sorted(sys.modules)), file=sys.stderr)
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


def loaded_after(code, *packages):
    """The sorted modules a fresh interpreter has loaded after ``code``, of ``packages`` if given."""
    loaded = ast.literal_eval(run_fresh(code + PROBE).splitlines()[-1])
    return [m for m in loaded if not packages or m.split(".")[0] in packages]


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
    assert loaded_after(code, "numpy", "scipy") == []


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
    loaded = loaded_after(RUN_MAIN.format(argv=argv), "numpy", "scipy")
    assert "numpy" in loaded
    # neither scipy nor scipy.linalg; the extension itself may be registered
    assert {m for m in loaded if m.startswith("scipy")} <= {"scipy.linalg._flapack"}


def test_reading_a_cli_library_name_loads_only_the_module_that_defines_it():
    # a benchmark tracer reads and wraps rsse.cli.solve_lowest_k this way
    run_fresh(
        """
import sys
import rsse.cli
assert "gamma_factor" not in vars(rsse.cli)
gamma_factor = rsse.cli.gamma_factor
assert vars(rsse.cli)["gamma_factor"] is gamma_factor
assert "momentum" not in vars(rsse.cli)  # one name, not its module's all
assert gamma_factor is sys.modules["rsse.kinematics"].gamma_factor
assert "rsse.eigensolver" not in sys.modules and "numpy" not in sys.modules
solver = rsse.cli.solve_lowest_k
import rsse.eigensolver
assert solver is rsse.eigensolver.solve_lowest_k
"""
    )


def test_import_rsse_loads_no_submodule():
    assert loaded_after("import rsse", "rsse") == ["rsse"]


def test_kinematics_loads_only_the_numpy_free_modules_it_needs():
    assert loaded_after(RUN_MAIN.format(argv=["kinematics"]), "rsse") == [
        "rsse",
        "rsse.cli",
        "rsse.inversion",
        "rsse.kinematics",
        "rsse.units",
    ]


ANALYTIC = ["rsse", "rsse.cli", "rsse.units"]
COMPARE = [*ANALYTIC, "rsse.presets", "rsse.problem", "rsse.spectra"]
INVERSION = [*ANALYTIC, "rsse.inversion", "rsse.kinematics"]


@pytest.mark.parametrize(
    "argv, modules, absent",
    [
        (["kinematics", "--beta", "0.1,0.9"], INVERSION, {"json"}),
        (["kinematics", "--format", "json"], INVERSION, set()),
        (["invert-demo", "--beta", "0.9"], INVERSION, {"json"}),
        (["compare", "--preset", "hydrogen", "--n-max", "2"], COMPARE, {"json"}),
        (["compare", "--preset", "oscillator", "--format", "json"], COMPARE, set()),
        (["kinematics", "--config", "{config}"], [*INVERSION, "rsse.presets", "rsse.problem"],
         {"json"}),
    ],
    ids=["kinematics", "kinematics-json", "invert-demo", "compare-csv", "compare-json", "config"],
)
def test_each_analytic_command_loads_only_its_own_modules(tmp_path, argv, modules, absent):
    # no command loads dataclasses or inspect, and a CSV report loads no json
    config = tmp_path / "run.conf"
    config.write_text("beta = 0.5\nm0 = 2.0\n")
    argv = [arg.format(config=config) for arg in argv]
    loaded = loaded_after(RUN_MAIN.format(argv=argv))
    assert sorted(m for m in loaded if m.split(".")[0] == "rsse") == sorted(modules)
    assert not {"dataclasses", "inspect", *absent} & set(loaded)


def test_no_rsse_module_imports_dataclasses():
    for path in sorted((SRC / "rsse").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not {"dataclasses", "inspect"} & set(imported), path.name


def test_no_rsse_module_reads_a_global_it_does_not_define():
    # a function may read a global only if its module assigns or imports it,
    # or it is a builtin: cli reads library names as attributes of its module
    found = []
    for path in sorted((SRC / "rsse").glob("*.py")):
        top = symtable.symtable(path.read_text(), path.name, "exec")
        defined = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
        tables = list(top.get_children())
        while tables:
            table = tables.pop()
            tables += table.get_children()
            if table.get_type() == "function":
                found += [
                    (path.name, table.get_name(), s.get_name())
                    for s in table.get_symbols()
                    if s.is_global() and s.is_referenced()
                    and s.get_name() not in defined and not hasattr(builtins, s.get_name())
                ]
    assert found == []


def test_a_failing_analytic_command_still_exits_with_its_code():
    # main classifies the solver errors without importing them up front
    run_fresh(
        """
import contextlib, io, sys
import rsse.cli
with contextlib.redirect_stderr(io.StringIO()) as err:
    assert rsse.cli.main(["kinematics", "--beta", "1.5"]) == 2
assert err.getvalue() == "rsse: error: beta must satisfy |beta| < 1, got 1.5\\n", err.getvalue()
"""
    )


def test_main_reraises_a_runtime_error_that_is_not_a_solver_failure(monkeypatch):
    import rsse.cli

    def broken(config):
        raise RuntimeError("not a solver failure")

    _, command_help, options = rsse.cli.COMMANDS["kinematics"]
    monkeypatch.setitem(rsse.cli.COMMANDS, "kinematics", (broken, command_help, options))
    with pytest.raises(RuntimeError, match="not a solver failure"):
        rsse.cli.main(["kinematics"])


def test_every_name_the_benchmark_tracer_wraps_is_readable_from_a_fresh_cli():
    spec = importlib.util.spec_from_file_location(
        "tracer", SRC.parent / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    calls = {layer: list(names) for layer, names in tracer.CLI_CALLS.items()}
    run_fresh(
        f"""
import importlib
import rsse.cli
for layer, names in {calls!r}.items():
    for name in names:
        value = getattr(rsse.cli, name)
        assert value is getattr(importlib.import_module("rsse." + layer), name), name
"""
    )


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
    assert ("rsse._g17" in loaded_after(RUN_MAIN.format(argv=argv), "rsse")) == loads


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
# rsse.cli keeps wrappers set before the first call
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
for name in ("solve_lowest_k", "solve_numerov_lowest_k", "convergence_order",
             "gamma_factor", "compare_report"):
    setattr(rsse.cli, name, counting(name, getattr(rsse.cli, name)))
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["solve", "--n-max", "1"],
        ["solve", "--n-max", "1", "--method", "numerov"],
        ["convergence"],
        ["kinematics", "--beta", "0.1,0.2"],
        ["compare"],
    ):
        assert rsse.cli.main(argv) == 0, argv
print(dict(calls), file=sys.stderr)
"""


def test_cli_keeps_wrappers_set_before_the_first_solve():
    calls = run_fresh(WRAP_BEFORE_FIRST_SOLVE).splitlines()[-1]
    assert calls == str(
        {
            "solve_lowest_k": 1,
            "solve_numerov_lowest_k": 1,
            "convergence_order": 1,
            "gamma_factor": 2,
            "compare_report": 1,
        }
    )


# ---------------------------------------------------------------------------
# the solvers read the problem in one place
# ---------------------------------------------------------------------------


EIGENSOLVER = ast.parse(Path(rsse.eigensolver.__file__).read_text())


def defined(tree, kind):
    """The ``kind`` nodes (``ast.ClassDef``, ``ast.FunctionDef``) at the top of ``tree``, by name."""
    return {node.name: node for node in tree.body if isinstance(node, kind)}


def reads(tree, what):
    """The calls of ``what`` in ``tree``; a leading dot names a method or attribute."""
    if what.startswith("."):
        nodes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        return [node for node in nodes if node.attr == what[1:]]
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return [func for func in calls if isinstance(func, ast.Name) and func.id == what]


# the coefficients the solvers read before the form stated u'' = (q - eps w) u
GONE = [".veff", ".pref", ".f_base", ".f_max"]


@pytest.mark.parametrize(
    "what", ["effective_potential", "_check_origin", ".nodes", ".hbar", *GONE]
)
def test_eigensolver_reads_the_problem_only_in_its_radial_form(what):
    # one radial form checks the origin, builds the nodes, evaluates V_eff and
    # forms w = 2 mu / hbar**2 and q = w V_eff; both solvers read it, and no
    # code reads the old coefficients
    classes = defined(EIGENSOLVER, ast.ClassDef)
    assert "_Shooter" not in classes
    expected = 0 if what in GONE else 1
    assert len(reads(EIGENSOLVER, what)) == len(reads(classes["_RadialForm"], what)) == expected


NUMEROV_METHODS = ["stencil", "check_stencil", "count_states_below", "match_index", "cooley_step"]


def test_numerov_reads_only_h_q_w_and_the_outward_start():
    # and its own stencil cache; check_stencil's error message also names the
    # grid and the node of the first bad sample
    methods = defined(defined(EIGENSOLVER, ast.ClassDef)["_RadialForm"], ast.FunctionDef)
    for name in NUMEROV_METHODS:
        read = {
            node.attr
            for node in ast.walk(methods[name])
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self" and node.attr not in NUMEROV_METHODS
        }
        allowed = {"h", "q", "w", "start_out", "_stencil"}
        if name == "check_stencil":
            allowed |= {"grid", "r"}
        assert read <= allowed, name


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
    functions = defined(EIGENSOLVER, ast.FunctionDef)
    assert "_seeded_numerov" not in functions
    assert sorted(name for name, node in functions.items() if reads(node, what)) == callers
    assert len(reads(EIGENSOLVER, what)) == sum(len(reads(functions[name], what)) for name in callers)


# ---------------------------------------------------------------------------
# one rule says each check
# ---------------------------------------------------------------------------


def said(rules, pattern):
    """Each match of ``pattern`` on a line of an rsse module, as (file, inside its rule, match).

    ``rules`` maps a module file to the function there that owns the phrases.
    """
    found = []
    for path in sorted((SRC / "rsse").glob("*.py")):
        text = path.read_text()
        inside = ()
        if path.name in rules:
            rule = defined(ast.parse(text), ast.FunctionDef)[rules[path.name]]
            inside = range(rule.lineno, rule.end_lineno + 1)
        for number, line in enumerate(text.splitlines(), start=1):
            found += [(path.name, number in inside, match) for match in re.findall(pattern, line)]
    return found


def test_only_units_check_positive_says_a_parameter_must_be_positive():
    # every mass, charge, frequency, energy and unit scale goes through it
    assert said({}, "_check_rest_mass") == []
    assert said({"units.py": "_check_positive"}, "strictly positive|must be positive") == [
        ("units.py", True, "must be positive")
    ]


def test_only_units_check_index_decides_a_count_or_index_is_valid():
    # every n, l, k, n_index and node count goes through it
    phrases = ("operator.index", "must be an integer", "must be in [", "must be nonnegative",
               "must be at least", "must be >=", "needs at least")
    assert said({"units.py": "_check_index"}, "|".join(map(re.escape, phrases))) == [
        ("units.py", True, "operator.index"),
        ("units.py", True, "must be an integer"),
        ("units.py", True, "must be in ["),
    ]


def test_only_check_finite_and_check_samples_reject_a_non_finite_real_or_sample():
    # every energy, bracket end, float option and table value goes through
    # units._check_finite, and every sampled array through problem._check_samples
    rules = {"units.py": "_check_finite", "problem.py": "_check_samples"}
    assert said(rules, "must be finite, got|sample shape mismatch") == [
        ("problem.py", True, "sample shape mismatch"),
        ("units.py", True, "must be finite, got"),
    ]


def test_only_parse_kv_file_types_or_rejects_a_flat_file_value():
    # --config files and preset .conf files share one reader, its checks and its messages
    pattern = r"invalid choice|unknown (?:config|preset|\{what\}) key|invalid \S+ value"
    assert said({"presets.py": "parse_kv_file"}, pattern) == [
        ("presets.py", True, "unknown {what} key"),
        ("presets.py", True, "invalid choice"),
        ("presets.py", True, "invalid {kind.__name__} value"),
    ]
