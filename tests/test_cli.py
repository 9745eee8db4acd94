import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import rsse.cli
import rsse.eigensolver
import rsse.presets
from rsse.cli import COMMANDS, build_parser, main
from rsse.eigensolver import assemble_tridiagonal, solve_lowest_k, solve_numerov_lowest_k
from rsse.presets import SolverPreset, builtin_presets, load_presets
from rsse.problem import (
    ConvergenceError,
    GridSpec,
    PotentialSpec,
    RadialProblem,
    WrongStateError,
)


def run_csv(tmp_path, argv, name="out.csv"):
    path = tmp_path / name
    code = main(argv + ["--output", str(path)])
    return code, path.read_text() if path.exists() else ""


def csv_rows(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def csv_header(text):
    pairs = {}
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            pairs[key] = value
    return pairs


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_hydrogen_numerov(tmp_path):
    code, text = run_csv(
        tmp_path,
        ["solve", "--preset", "hydrogen", "--n-max", "3", "--method", "numerov", "--format", "csv"],
    )
    assert code == 0
    rows = csv_rows(text)
    assert len(rows) == 3
    bohr = [-0.5, -0.125, -1.0 / 18.0]
    for row, expected in zip(rows, bohr):
        assert abs(float(row["epsilon_hartree"]) - expected) < 2e-6
    assert [int(r["nodes"]) for r in rows] == [0, 1, 2]


@pytest.mark.filterwarnings("error")
def test_numerov_solve_on_a_wide_box_reports_finite_residuals(tmp_path):
    # the merged solutions peak near 1.3e154 there; squaring them in the
    # normalisation used to overflow, and the report exited 2 on a nan residual
    code, text = run_csv(
        tmp_path,
        ["solve", "--preset", "oscillator", "--method", "numerov", "--r-min", "-28",
         "--r-max", "28", "--grid-n", "8001", "--n-max", "2"],
    )
    assert code == 0
    rows = csv_rows(text)
    assert [float(row["epsilon_hartree"]) for row in rows] == pytest.approx([0.5, 1.5], abs=1e-9)
    assert all(0.0 < float(row["residual"]) < 1e-12 for row in rows)


def test_solve_oscillator_single_row(tmp_path):
    code, text = run_csv(tmp_path, ["solve", "--preset", "oscillator", "--n-max", "1"])
    assert code == 0
    rows = csv_rows(text)
    assert len(rows) == 1
    assert abs(float(rows[0]["epsilon_hartree"]) - 0.5) < 5e-6


def test_solve_coulomb_r_min_zero_exits_2(tmp_path, capsys):
    code = main(["solve", "--preset", "coulomb", "--r-min", "0", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "r_min" in capsys.readouterr().err


def test_solve_wavefunction_dump(tmp_path):
    wf_dir = tmp_path / "wf"
    code, _ = run_csv(
        tmp_path,
        [
            "solve", "--preset", "oscillator", "--n-max", "2",
            "--wavefunctions-dir", str(wf_dir),
        ],
    )
    assert code == 0
    files = sorted(wf_dir.glob("*.dat"))
    assert [f.name for f in files] == [
        "oscillator_fd_state0.dat",
        "oscillator_fd_state1.dat",
    ]
    lines = files[0].read_text().splitlines()
    assert lines[0].startswith("# ")  # config header block
    data = [line.split() for line in lines if not line.startswith("#")]
    assert len(data) == 3000  # one (r, u) pair per grid node
    assert all(len(pair) == 2 for pair in data[:10])
    assert float(data[0][1]) == 0.0 and float(data[-1][1]) == 0.0


def read_dump(path):
    """(header lines, data lines) of one wavefunction dump."""
    lines = path.read_text().splitlines()
    split = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return lines[:split], lines[split:]


@pytest.mark.parametrize(
    "preset, method, k",
    [("oscillator", "fd", 3), ("hydrogen", "fd", 3), ("hydrogen", "numerov", 2)],
)
def test_wavefunction_dump_bytes(tmp_path, preset, method, k):
    wf_dir = tmp_path / "wf"
    argv = ["solve", "--preset", preset, "--method", method, "--n-max", str(k),
            "--wavefunctions-dir", str(wf_dir)]
    code, report = run_csv(tmp_path, argv)
    assert code == 0
    preset_spec = load_presets()[preset]
    if method == "fd":
        grid = preset_spec.fd_grid
        result = solve_lowest_k(assemble_tridiagonal(preset_spec.problem, grid), k)
    else:
        grid = preset_spec.numerov_grid
        result = solve_numerov_lowest_k(preset_spec.problem, grid, k)
    # the header is the resolved config of the report without output
    config = {key: value for key, value in csv_header(report).items()
              if key != "version" and not key.startswith("units_")}
    expected_header = [f"# {key} = {value}" for key, value in config.items()]
    assert list(config) == ["command"] + [key for key in COMMANDS["solve"][2] if key != "output"]
    r_columns = set()
    for i in range(k):
        header, data = read_dump(wf_dir / f"{preset}_{method}_state{i}.dat")
        assert header == expected_header + [f"# state = {i}"]
        assert data == [f"{float(r):.17g} {float(u):.17g}"
                        for r, u in zip(grid.nodes(), result.wavefunctions[i])]
        r_columns.add(tuple(line.split()[0] for line in data))
    assert len(r_columns) == 1


def test_wavefunction_dump_formats_special_floats(tmp_path):
    r = np.array([-0.0, 5e-324, 1e-4, 1.0 / 3.0, 1e300, 7.0])
    u = np.array([
        [-0.0, 5e-324, 1e300, math.nan, -math.inf, 0.1],
        [0.0, -5e-324, -1e300, math.inf, math.nan, -0.1],
    ])
    result = SimpleNamespace(grid=SimpleNamespace(nodes=lambda: r.copy()), wavefunctions=u)
    config = {"command": "solve", "preset": "stub", "method": "fd", "n_max": 2,
              "wavefunctions_dir": str(tmp_path), "output": "ignored"}
    rsse.cli._dump_wavefunctions(config, result)
    dumps = [read_dump(tmp_path / f"stub_fd_state{i}.dat") for i in range(2)]
    for i, (header, data) in enumerate(dumps):
        assert header == ["# command = solve", "# preset = stub", "# method = fd", "# n_max = 2",
                          f"# wavefunctions_dir = {tmp_path}", f"# state = {i}"]
        assert data == [f"{x:.17g} {y:.17g}" for x, y in zip(r.tolist(), u[i].tolist())]
    assert dumps[0][1] == [
        "-0 -0",
        "4.9406564584124654e-324 4.9406564584124654e-324",
        "0.0001 1.0000000000000001e+300",
        "0.33333333333333331 nan",
        "1.0000000000000001e+300 -inf",
        "7 0.10000000000000001",
    ]


def test_numerov_wavefunction_dump(tmp_path):
    wf_dir = tmp_path / "wf"
    k = 3
    code, _ = run_csv(tmp_path, ["solve", "--preset", "oscillator", "--method", "numerov",
                                 "--n-max", str(k), "--wavefunctions-dir", str(wf_dir)])
    assert code == 0
    grid = load_presets()["oscillator"].numerov_grid
    assert sorted(f.name for f in wf_dir.iterdir()) == [
        f"oscillator_numerov_state{i}.dat" for i in range(k)
    ]
    for i in range(k):
        _, data = read_dump(wf_dir / f"oscillator_numerov_state{i}.dat")
        r, u = np.array([[float(x) for x in line.split()] for line in data]).T
        assert len(data) == grid.n  # one row per Numerov-grid node
        np.testing.assert_array_equal(r, grid.nodes())
        assert u[0] == 0.0 and u[-1] == 0.0
        assert abs(np.sum(u * u) * grid.h - 1.0) < 1e-12  # trapezoid with zero ends
        interior = u[1:-1][u[1:-1] != 0.0]
        assert np.count_nonzero(np.diff(np.sign(interior))) == i


def test_solve_header_echoes_config(tmp_path):
    code, text = run_csv(tmp_path, ["solve", "--preset", "oscillator", "--n-max", "1"])
    header = csv_header(text)
    assert header["command"] == "solve"
    assert header["preset"] == "oscillator"
    assert header["units_energy"] == "hartree"
    assert header["units_hbar"] == "1"
    assert "version" in header


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_hydrogen_json(tmp_path):
    path = tmp_path / "cmp.json"
    code = main(
        ["compare", "--preset", "hydrogen", "--n-max", "2", "--format", "json", "--output", str(path)]
    )
    assert code == 0
    payload = json.loads(path.read_text())
    rows = {row["state"]: row for row in payload["rows"]}
    assert abs(rows["1s1/2"]["delta_rel_vs_dirac"]) < 1e-9
    assert rows["2s1/2"]["B_rel"] == rows["2p1/2"]["B_rel"]
    assert payload["config"]["preset"] == "hydrogen"


def test_compare_positronium_value(tmp_path):
    code, text = run_csv(tmp_path, ["compare", "--preset", "positronium", "--n-max", "1"])
    assert code == 0
    row = csv_rows(text)[0]
    assert abs(float(row["B_rel"]) - 0.2500008320579529) < 1e-10


def test_compare_oscillator_drops_dirac_columns(tmp_path):
    code, text = run_csv(tmp_path, ["compare", "--preset", "oscillator", "--n-max", "2"])
    assert code == 0
    rows = csv_rows(text)
    assert "B_dirac" not in rows[0]
    assert "B_rel" in rows[0]


def test_compare_coulomb_alias_matches_hydrogen(tmp_path):
    args = ["compare", "--n-max", "2"]
    code, alias = run_csv(tmp_path, args + ["--preset", "coulomb"], name="alias.csv")
    assert code == 0
    _, hydrogen = run_csv(tmp_path, args + ["--preset", "hydrogen"], name="hydrogen.csv")
    alias_lines, hydrogen_lines = alias.splitlines(), hydrogen.splitlines()
    differing = [a for a, h in zip(alias_lines, hydrogen_lines) if a != h]
    assert len(alias_lines) == len(hydrogen_lines)
    assert differing == ["# preset = coulomb"]


def test_compare_reads_preset_dir(tmp_path, monkeypatch):
    (tmp_path / "tight_oscillator.conf").write_text(
        "potential = harmonic\nomega = 2\nfd_r_min = -6\nfd_r_max = 6\nfd_n = 500\n"
    )
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    code, text = run_csv(tmp_path, ["compare", "--preset", "tight_oscillator", "--n-max", "3"])
    assert code == 0
    rows = csv_rows(text)
    assert [row["state"] for row in rows] == ["n0", "n1", "n2"]
    assert [float(row["epsilon"]) for row in rows] == [1.0, 3.0, 5.0]
    assert "B_dirac" not in rows[0]


# (l, fd_r_min, lowest radial levels omega (2 n + l + 3/2)) of a unit
# oscillator whose grid starts at the origin
HALF_LINE_OSCILLATORS = [("1", "1e-4", [2.5, 4.5]), ("0", "0", [1.5, 3.5])]


def use_half_line_oscillator(tmp_path, monkeypatch, l, r_min):
    (tmp_path / "half.conf").write_text(
        f"potential = harmonic\nl = {l}\nfd_r_min = {r_min}\nfd_r_max = 12\nfd_n = 3000\n"
    )
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))


@pytest.mark.parametrize("l, r_min, levels", HALF_LINE_OSCILLATORS)
def test_compare_half_line_oscillator_gives_radial_levels(tmp_path, monkeypatch, l, r_min, levels):
    use_half_line_oscillator(tmp_path, monkeypatch, l, r_min)
    code, text = run_csv(tmp_path, ["compare", "--preset", "half", "--n-max", "2"])
    assert code == 0
    assert [float(row["epsilon"]) for row in csv_rows(text)] == levels
    code, text = run_csv(tmp_path, ["solve", "--preset", "half", "--n-max", "2"], name="solve.csv")
    assert code == 0
    solved = [float(row["epsilon_hartree"]) for row in csv_rows(text)]
    assert np.allclose(solved, levels, rtol=0.0, atol=1e-4)


@pytest.mark.parametrize("method, order", [("fd", 2.0), ("numerov", 4.0)])
@pytest.mark.parametrize("l, r_min, levels", HALF_LINE_OSCILLATORS)
def test_convergence_half_line_oscillator_refines_its_own_grid(
    tmp_path, monkeypatch, l, r_min, levels, method, order
):
    use_half_line_oscillator(tmp_path, monkeypatch, l, r_min)
    path = tmp_path / "conv.json"
    code = main(
        ["convergence", "--preset", "half", "--method", method, "--format", "json",
         "--output", str(path)]
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["epsilon_exact"] == levels[0]
    assert [row["grid_n"] for row in payload["rows"]] == [375, 750, 1500, 3000]
    assert payload["config"]["preset"] == "half"
    assert abs(payload["slope"] - order) < 0.05


def use_finite_well(monkeypatch):
    grid = GridSpec(-3.0, 3.0, 100)
    well = SolverPreset("well", RadialProblem(PotentialSpec.finite_well(1.0, 1.0)), grid, grid)
    monkeypatch.setattr(rsse.presets, "builtin_presets", lambda: {"well": well})


def test_compare_without_analytic_levels_exits_2(tmp_path, monkeypatch, capsys):
    use_finite_well(monkeypatch)
    code = main(["compare", "--preset", "well", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "no analytic levels" in capsys.readouterr().err


def test_convergence_without_analytic_levels_exits_2_like_compare(tmp_path, monkeypatch, capsys):
    use_finite_well(monkeypatch)
    errors = []
    for command in ("compare", "convergence"):
        code = main([command, "--preset", "well", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "no analytic levels" in errors[0]


def test_line_oscillator_with_l_exits_2_in_compare_like_the_solvers(tmp_path, monkeypatch, capsys):
    (tmp_path / "line.conf").write_text(
        "potential = harmonic\nl = 1\nfd_r_min = -12\nfd_r_max = 12\nfd_n = 3000\n"
    )
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    errors = []
    for command in ("compare", "solve", "convergence"):
        code = main([command, "--preset", "line", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "singular at r = 0" in errors[0] and "singular at r = 0" in errors[2]


@pytest.mark.parametrize("potential", ["harmonic", "coulomb"])
def test_half_line_wall_off_the_origin_has_no_analytic_levels(tmp_path, monkeypatch, capsys, potential):
    (tmp_path / "walled.conf").write_text(
        f"potential = {potential}\nfd_r_min = 1.0\nfd_r_max = 12\nfd_n = 3000\n"
    )
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    errors = []
    for command in ("compare", "convergence"):
        code = main([command, "--preset", "walled", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "no analytic levels for a wall at r_min = 1.0" in errors[0]
    # the solvers still take the grid: its levels are just not the textbook ones
    code, text = run_csv(tmp_path, ["solve", "--preset", "walled", "--n-max", "2"])
    assert code == 0 and len(csv_rows(text)) == 2


def test_wall_that_shifts_the_level_past_h_squared_has_no_analytic_levels(
    tmp_path, monkeypatch, capsys
):
    # h = 0.015: r_min <= h, but the 1s level moves by about 2 r_min
    (tmp_path / "near.conf").write_text(
        "potential = coulomb\nfd_r_min = 0.015\nfd_r_max = 30\nfd_n = 2000\n"
    )
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    for command in ("compare", "convergence"):
        code = main([command, "--preset", "near", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "no analytic levels for a wall at r_min = 0.015" in capsys.readouterr().err


@pytest.mark.parametrize("fd_n", [100, 120])
def test_convergence_on_a_small_half_line_preset_names_its_fd_n(tmp_path, monkeypatch, capsys, fd_n):
    # the coarsest grid of the ladder keeps every 8th node, and a grid needs 16
    (tmp_path / "small.conf").write_text(
        f"potential = coulomb\nfd_r_min = 1e-4\nfd_r_max = 30\nfd_n = {fd_n}\n"
    )
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    code = main(["convergence", "--preset", "small", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"rsse: error: half-line preset fd_n must be at least 121, got {fd_n}\n"
    )
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "r_min, r_max, fd_n, ladder",
    [(1e-4, 30.0, 121, [16, 31, 61, 121]), (-12.0, 12.0, 100, [128, 255, 509, 1017])],
)
def test_convergence_ladder_of_a_preset_file(tmp_path, monkeypatch, r_min, r_max, fd_n, ladder):
    # a half-line preset refines its own grid from fd_n = 121 on; a full-line
    # preset keeps the fixed ladder whatever its fd_n
    potential = "coulomb" if r_min > 0.0 else "harmonic"
    (tmp_path / "p.conf").write_text(
        f"potential = {potential}\nfd_r_min = {r_min}\nfd_r_max = {r_max}\nfd_n = {fd_n}\n"
    )
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    path = tmp_path / "conv.json"
    assert main(["convergence", "--preset", "p", "--format", "json", "--output", str(path)]) == 0
    assert [row["grid_n"] for row in json.loads(path.read_text())["rows"]] == ladder


def test_numerov_solve_beyond_the_fd_seed_exits_2(tmp_path, capsys):
    argv = ["solve", "--preset", "oscillator", "--method", "numerov", "--grid-n", "16"]
    code = main(argv + ["--n-max", "15", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "n_max must be in [1, 13], got 15" in capsys.readouterr().err


@pytest.mark.parametrize("method, high", [("fd", 14), ("numerov", 13)])
@pytest.mark.parametrize("n_max", [0, 15])
def test_solve_names_n_max_when_it_does_not_fit_the_grid(tmp_path, capsys, method, high, n_max):
    # 14 interior nodes hold 14 FD levels; Numerov also needs the level above its top state
    argv = ["solve", "--preset", "oscillator", "--method", method, "--grid-n", "16"]
    code = main(argv + ["--n-max", str(n_max), "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"rsse: error: n_max must be in [1, {high}], got {n_max}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "preset, method, high",
    [("oscillator", "fd", 125), ("oscillator", "numerov", 124),
     ("hydrogen", "fd", 247), ("hydrogen", "numerov", 246)],
)
def test_convergence_names_n_index_when_it_does_not_fit_the_coarsest_grid(
    tmp_path, capsys, preset, method, high
):
    # the coarsest ladder grids have 128 (oscillator) and 250 (hydrogen) nodes
    argv = ["convergence", "--preset", preset, "--method", method, "--n-index", str(high + 1)]
    assert main(argv + ["--output", str(tmp_path / "x.csv")]) == 2
    message = f"n_index must be in [0, {high}], got {high + 1}"
    assert capsys.readouterr().err == f"rsse: error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


def test_convergence_with_an_empty_seeded_bracket_exits_3_naming_the_state(tmp_path, capsys):
    # state 124 fits the coarsest grid, but its FD seed level there
    # coincides with a neighbour's: a numerical failure, not a usage error
    argv = ["convergence", "--preset", "oscillator", "--method", "numerov", "--n-index", "124"]
    assert main(argv + ["--output", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("rsse: numerical failure: the seed leaves state 124 an empty bracket")
    assert not (tmp_path / "x.csv").exists()


def test_convergence_with_a_negative_state_index_exits_2_naming_it(tmp_path, capsys):
    # the analytic level rejects n_index itself, not the principal number 0 it implies
    code = main(["convergence", "--preset", "hydrogen", "--n-index", "-1",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "n_index must be nonnegative, got -1" in capsys.readouterr().err


def test_numerov_on_a_grid_too_coarse_for_the_stencil_exits_2(tmp_path, capsys):
    # h = 1.6 on the oscillator box: 1 - h**2 f / 12 turns negative
    argv = ["solve", "--preset", "oscillator", "--method", "numerov", "--grid-n", "16"]
    code = main(argv + ["--n-max", "13", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    grid = "GridSpec(r_min=-12.0, r_max=12.0, n=16)"
    assert f"{grid} is too coarse for the Numerov stencil" in capsys.readouterr().err


def test_compare_unknown_preset_exits_2(tmp_path, capsys):
    code = main(["compare", "--preset", "unknown", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "hydrogen" in err and "positronium" in err


# ---------------------------------------------------------------------------
# kinematics / invert-demo
# ---------------------------------------------------------------------------


def test_kinematics_beta_06(tmp_path):
    code, text = run_csv(tmp_path, ["kinematics", "--beta", "0.6"])
    assert code == 0
    row = csv_rows(text)[0]
    assert float(row["gamma"]) == pytest.approx(1.25, rel=1e-12)
    assert float(row["chi_over_theta"]) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert float(row["effective_mass"]) == pytest.approx(1.25, rel=1e-12)
    assert float(row["phase_residual"]) < 1e-10


def test_kinematics_rest_row_has_no_wavelength(tmp_path):
    code, text = run_csv(tmp_path, ["kinematics", "--beta", "0"])
    assert code == 0
    row = csv_rows(text)[0]
    assert row["lambda"] == ""  # p = 0: wavelength absent
    assert float(row["chi_over_theta"]) == 0.0


def test_kinematics_beta_list(tmp_path):
    code, text = run_csv(tmp_path, ["kinematics", "--beta", "0.1,0.5,0.9"])
    assert code == 0
    assert len(csv_rows(text)) == 3


def test_kinematics_superluminal_exits_2(tmp_path, capsys):
    code = main(["kinematics", "--beta", "1.2", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "beta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["kinematics", "--beta", "nan"], "beta"),
        (["kinematics", "--beta", "0.5,-nan"], "beta"),
        (["kinematics", "--m0", "inf"], "'m0'"),
        (["kinematics", "--time=-inf"], "'time'"),
        (["invert-demo", "--m0", "inf"], "'m0'"),
        (["solve", "--r-max", "nan"], "'r_max'"),
    ],
)
def test_non_finite_options_exit_2(tmp_path, capsys, argv, key):
    code = main(argv + ["--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "beta, m0, message",
    [
        ("0.9", "1e305", "kinematics column 'E' at beta 0.9 must be finite, got inf"),
        ("0.6", "1e308", "kinematics column 'p' at beta 0.6 must be finite, got inf"),
        ("0.1,0.9", "5e303", "kinematics column 'E' at beta 0.9 must be finite, got inf"),
        # both rows overflow; the rows are checked once built, and the first is named
        ("0.5,0.9", "1e305", "kinematics column 'E' at beta 0.5 must be finite, got inf"),
    ],
)
def test_kinematics_row_that_overflows_exits_2_naming_column_and_beta(
    tmp_path, capsys, beta, m0, message
):
    # a finite but huge m0 overflows E = hypot(m0 c**2, p c), the frequencies
    # and the phase check; as invert-demo, the run writes no report
    path = tmp_path / "x.csv"
    assert main(["kinematics", "--beta", beta, "--m0", m0, "--output", str(path)]) == 2
    assert capsys.readouterr().err == f"rsse: error: {message}\n"
    assert not path.exists()
    assert main(["invert-demo", "--beta", beta.split(",")[-1], "--m0", m0]) == 2


@pytest.mark.parametrize(
    "beta, m0, message",
    [
        ("0.9", "1e305", "invert-demo column 'E' at beta 0.9 must be finite, got inf"),
        ("0.9", "5e303", "invert-demo column 'E' at beta 0.9 must be finite, got inf"),
        ("0.6", "1e308", "invert-demo column 'p' at beta 0.6 must be finite, got inf"),
        # E * t overflows at 1 (3e303) or 4 (4e303) of the 26 lattice points: the
        # residual is nan, not the largest of the finite ones
        ("0.9", "3e303", "invert-demo column 'eval_identity_residual' at state electron"
         " must be finite, got nan"),
        ("0.9", "4e303", "invert-demo column 'eval_identity_residual' at state electron"
         " must be finite, got nan"),
    ],
)
def test_invert_demo_that_overflows_exits_2_naming_column_and_beta(
    tmp_path, capsys, beta, m0, message
):
    # as kinematics on the same input, not the plane wave's own energy check
    path = tmp_path / "x.csv"
    assert main(["invert-demo", "--beta", beta, "--m0", m0, "--output", str(path)]) == 2
    assert capsys.readouterr().err == f"rsse: error: {message}\n"
    assert not path.exists()
    assert main(["invert-demo", "--beta", beta, "--m0", "1e303", "--output", str(path)]) == 0


def test_negative_exponent_form_value_reaches_the_header_when_joined_with_equals(tmp_path):
    # argparse reads a separate "-1e1" as an option; joined with "=" it is the value
    code, text = run_csv(
        tmp_path, ["solve", "--preset", "oscillator", "--n-max", "1", "--r-min=-1e1"]
    )
    assert code == 0
    assert csv_header(text)["r_min"] == "-10"


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("m0 = nan\n")
    code = main(["invert-demo", "--config", str(cfg), "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "option 'm0' must be finite, got nan" in capsys.readouterr().err


def test_invert_demo_takes_one_beta(tmp_path, capsys):
    # one inversion table per run; a list would echo betas no row uses
    code = main(["invert-demo", "--beta", "0.6,0.9", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "exactly one beta, got '0.6,0.9'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "command, raw, position",
    [
        ("invert-demo", "0.6,", 2),
        ("invert-demo", ",0.6", 1),
        ("kinematics", "0.6,,0.7", 2),
        ("kinematics", "0.6, ", 2),
        ("kinematics", "", 1),
    ],
)
def test_empty_beta_entry_exits_2(tmp_path, capsys, command, raw, position):
    code = main([command, "--beta", raw, "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert f"beta entry {position} of {raw!r} is empty" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_invert_demo_quantum_number_table(tmp_path):
    code, text = run_csv(tmp_path, ["invert-demo"])
    assert code == 0
    rows = {row["state"]: row for row in csv_rows(text)}
    assert (int(rows["electron"]["Q"]), int(rows["electron"]["L"])) == (-1, 1)
    assert (int(rows["positron"]["Q"]), int(rows["positron"]["L"])) == (1, -1)
    assert rows["electron"]["branch"] == "matter"
    assert rows["positron"]["branch"] == "antimatter"
    assert float(rows["positron"]["eval_identity_residual"]) <= 1e-12
    # energies stay positive on both branches
    assert float(rows["positron"]["E"]) > 0.0


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------


def test_convergence_fd_slope(tmp_path):
    path = tmp_path / "conv.json"
    code = main(
        ["convergence", "--preset", "oscillator", "--method", "fd", "--format", "json", "--output", str(path)]
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert abs(payload["slope"] - 2.0) < 0.1
    errors = [row["abs_error"] for row in payload["rows"]]
    assert all(b < a for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize("method", ["fd", "numerov"])
def test_convergence_solves_each_grid_once(tmp_path, monkeypatch, method):
    # an FD row is one eigenvalues-only LAPACK solve; a Numerov row is one
    # shooting solve on one FD seed
    names = ("solve_lowest_k", "_tridiagonal_lowest", "numerov_solve")
    calls = dict.fromkeys(names, 0)
    with_vectors = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            if name == "_tridiagonal_lowest":
                with_vectors.append(kwargs["vectors"])
            return fn(*args, **kwargs)
        return wrapped

    for name in names:
        wrapped = counting(name, getattr(rsse.eigensolver, name))
        monkeypatch.setattr(rsse.eigensolver, name, wrapped)
    # the CLI's own reference too, so a direct call from the CLI counts
    monkeypatch.setattr(rsse.cli, "solve_lowest_k", rsse.eigensolver.solve_lowest_k)
    path = tmp_path / "conv.json"
    code = main(
        ["convergence", "--preset", "oscillator", "--method", method, "--format", "json",
         "--output", str(path)]
    )
    assert code == 0
    payload = json.loads(path.read_text())
    rows = len(payload["rows"])
    solvers = ["_tridiagonal_lowest"] + (["numerov_solve"] if method == "numerov" else [])
    assert calls == {name: rows if name in solvers else 0 for name in names}
    assert not any(with_vectors)  # eigenvalues only
    # the slope is the fit of the reported rows, errors floored at 1e-15
    exact = payload["epsilon_exact"]
    hs = [row["h"] for row in payload["rows"]]
    errors = [max(row["abs_error"], 1e-15 * max(1.0, abs(exact))) for row in payload["rows"]]
    assert payload["slope"] == float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def test_convergence_failure_exits_3(tmp_path, monkeypatch, capsys):
    def stalled(*args, **kwargs):
        raise ConvergenceError("stalled")

    monkeypatch.setattr(rsse.cli, "solve_numerov_lowest_k", stalled)
    code = main(
        ["solve", "--preset", "hydrogen", "--method", "numerov", "--output", str(tmp_path / "x.csv")]
    )
    assert code == 3
    assert "convergence failure" in capsys.readouterr().err


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_lapack_failure_exits_3(tmp_path, monkeypatch, capsys, routine):
    lapack = rsse.eigensolver._lapack()
    stub = SimpleNamespace(dstebz=lapack.dstebz, dstein=lapack.dstein)

    def failing(*args):
        return (*getattr(lapack, routine)(*args)[:-1], 1)

    setattr(stub, routine, failing)
    monkeypatch.setattr(rsse.eigensolver, "_lapack", lambda: stub)
    code = main(["solve", "--preset", "hydrogen", "--output", str(tmp_path / "x.csv")])
    assert code == 3
    assert f"convergence failure: LAPACK {routine} failed (info = 1)" in capsys.readouterr().err


def test_numerov_bracket_without_a_state_exits_3(tmp_path, capsys):
    argv = ["solve", "--preset", "oscillator", "--method", "numerov", "--r-min", "-4"]
    argv += ["--r-max", "4", "--grid-n", "16", "--n-max", "8"]
    assert main(argv + ["--output", str(tmp_path / "x.csv")]) == 3
    assert "holds no state; target state 5 is outside it" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    def failed(*args, **kwargs):
        raise WrongStateError("no bound state here")

    monkeypatch.setattr(rsse.cli, "solve_numerov_lowest_k", failed)
    code = main(
        ["solve", "--preset", "hydrogen", "--method", "numerov", "--output", str(tmp_path / "x.csv")]
    )
    assert code == 3
    assert "numerical failure: no bound state here" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config handling and determinism
# ---------------------------------------------------------------------------


def test_config_file_overrides_defaults_flags_override_file(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("preset = positronium\nn_max = 1\n")
    code, text = run_csv(tmp_path, ["compare", "--config", str(cfg)], name="a.csv")
    assert code == 0
    assert csv_header(text)["preset"] == "positronium"
    code, text = run_csv(
        tmp_path, ["compare", "--config", str(cfg), "--preset", "hydrogen"], name="b.csv"
    )
    assert code == 0
    assert csv_header(text)["preset"] == "hydrogen"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("mystery = 1\n")
    code = main(["compare", "--config", str(cfg), "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "mystery" in capsys.readouterr().err


def test_config_file_skips_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("# positronium\n\npreset = positronium\n   \n  # two shells\nn_max = 2\n")
    code, text = run_csv(tmp_path, ["compare", "--config", str(cfg)])
    assert code == 0
    header = csv_header(text)
    assert header["preset"] == "positronium" and header["n_max"] == "2"


def test_config_line_without_equals_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("preset = hydrogen\nn_max 2\n")
    code = main(["compare", "--config", str(cfg), "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert f"{cfg}: expected 'key = value', got 'n_max 2'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# a value for every option key, none of them the default
OPTION_VALUES = {
    "preset": "positronium",
    "method": "numerov",
    "n_max": "2",
    "r_min": "0.001",
    "r_max": "25",
    "grid_n": "1500",
    "wavefunctions_dir": "{tmp}/wf",
    "format": "json",
    "output": "{tmp}/report",
    "beta": "0.3,0.5",
    "time": "2.5",
    "m0": "2",
    "n_index": "1",
}
# where a command takes less than OPTION_VALUES gives
COMMAND_OPTION_VALUES = {("invert-demo", "beta"): "0.3"}


def option_value(command, key):
    return COMMAND_OPTION_VALUES.get((command, key), OPTION_VALUES[key])


@pytest.mark.parametrize(
    "command, key", [(command, key) for command, (_, _, options) in COMMANDS.items() for key in options]
)
def test_flag_and_config_file_give_the_same_report(tmp_path, command, key):
    report, config = tmp_path / "report", tmp_path / "run.conf"
    value = option_value(command, key).format(tmp=tmp_path)

    def run(argv, config_text):
        config.write_text(config_text)
        report.unlink(missing_ok=True)
        assert main([command, "--config", str(config)] + argv) == 0
        return report.read_bytes()

    to_file = [] if key == "output" else ["--output", str(report)]
    by_flag = run(["--" + key.replace("_", "-"), value] + to_file, "")
    assert run(to_file, f"{key} = {value}\n") == by_flag
    if key != "output":
        assert run(to_file, "") != by_flag


@pytest.mark.parametrize(
    "command, line",
    [("compare", "format = xml"), ("solve", "method = foo"), ("compare", "n_max = 2.5")],
)
def test_config_file_values_are_checked_like_flags(tmp_path, capsys, command, line):
    cfg = tmp_path / "run.conf"
    cfg.write_text(line + "\n")
    code = main([command, "--config", str(cfg), "--output", str(tmp_path / "x.csv")])
    assert code == 2
    key = line.split(" = ")[0]
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_command_is_not_a_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("command = solve\n")
    code = main(["solve", "--config", str(cfg), "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "unknown config key 'command'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "what, line, words",
    [
        ("config", "n_max 2", "expected 'key = value', got 'n_max 2'"),
        ("config", "mystery = 1", "unknown config key 'mystery'"),
        ("config", "n_max = 2e3", "config key 'n_max': invalid int value: '2e3'"),
        ("config", "format = xml", "config key 'format': invalid choice: 'xml'"),
        ("config", "n_max = 2\nn_max = 3", "config key 'n_max' is set twice"),
        ("preset", "fd_n 2", "expected 'key = value', got 'fd_n 2'"),
        ("preset", "mystery = 1", "unknown preset key 'mystery'"),
        ("preset", "fd_n = 2e3", "preset key 'fd_n': invalid int value: '2e3'"),
        ("preset", "potential = yukawa", "unsupported potential 'yukawa'"),
        ("preset", "mu = 1\nmu = 0.5", "preset key 'mu' is set twice"),
    ],
)
def test_bad_flat_file_line_exits_2_naming_the_file_once(
    tmp_path, monkeypatch, capsys, what, line, words
):
    # --config files and preset files are read by one reader, with one message form
    path = tmp_path / "bad.conf"
    if what == "config":
        path.write_text(f"preset = hydrogen\n{line}\n")
        argv = ["compare", "--config", str(path)]
    else:
        path.write_text(f"fd_r_min = 0.001\nfd_r_max = 30\nfd_n = 2000\n{line}\n")
        monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
        argv = ["compare", "--preset", "bad"]
    assert main(argv + ["--output", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rsse: error: {path}: {words}")
    assert err.count(str(path)) == 1
    assert not (tmp_path / "x.csv").exists()


def option_argvs():
    """Every command bare, with each option alone and with every option set."""
    argvs = []
    for command, (_, _, options) in COMMANDS.items():
        flags = [["--" + key.replace("_", "-"), option_value(command, key)] for key in options]
        argvs += [[command]] + [[command] + flag for flag in flags]
        argvs.append([command, "--config", "run.conf"] + sum(flags, []))
    return argvs


def test_one_parser_parses_every_command_like_a_fresh_one():
    assert rsse.cli._parser() is rsse.cli._parser()
    assert build_parser() is not build_parser()
    reused = build_parser()
    argvs = option_argvs()
    for argv in argvs + argvs[::-1]:
        parsed = reused.parse_args(argv)
        assert parsed == build_parser().parse_args(argv)
        assert set(vars(parsed)) == {"command", "config", *COMMANDS[argv[0]][2]}


def test_main_calls_in_a_row_do_not_share_options(tmp_path):
    def report(argv):
        code, text = run_csv(tmp_path, argv)
        assert code == 0
        return text

    plain_solve = report(["solve", "--preset", "oscillator"])
    plain_compare = report(["compare"])
    report(["solve", "--preset", "oscillator", "--n-max", "2", "--r-min", "-10", "--grid-n", "1500",
            "--wavefunctions-dir", str(tmp_path / "wf")])
    assert report(["compare"]) == plain_compare
    report(["compare", "--preset", "positronium", "--n-max", "2"])
    assert report(["solve", "--preset", "oscillator"]) == plain_solve
    solve, compare = csv_header(plain_solve), csv_header(plain_compare)
    assert [solve[key] for key in ("n_max", "r_min", "grid_n", "wavefunctions_dir")] == [
        "1", "-12", "3000", ""
    ]
    assert [compare[key] for key in ("preset", "n_max")] == ["hydrogen", "1"]


def test_byte_identical_reruns(tmp_path):
    args = ["compare", "--preset", "hydrogen", "--n-max", "2"]
    _, first = run_csv(tmp_path, args, name="one.csv")
    _, second = run_csv(tmp_path, args, name="two.csv")
    assert first == second
    args = ["solve", "--preset", "oscillator", "--n-max", "2"]
    _, first = run_csv(tmp_path, args, name="three.csv")
    _, second = run_csv(tmp_path, args, name="four.csv")
    assert first == second


# ---------------------------------------------------------------------------
# preset loading
# ---------------------------------------------------------------------------


def test_builtin_presets_cover_benchmarks():
    presets = builtin_presets()
    for name in ("hydrogen", "coulomb", "hydrogen_finite_mass", "positronium", "oscillator"):
        assert name in presets


def test_unknown_preset_key_is_rejected(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "typo.conf"
    conf.write_text("potential = harmonic\nomgea = 2\nfd_r_min = -6\nfd_r_max = 6\nfd_n = 500\n")
    with pytest.raises(ValueError, match="unknown preset key 'omgea'") as info:
        load_presets(str(tmp_path))
    assert str(conf) in str(info.value)
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    code = main(["compare", "--preset", "typo", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "omgea" in capsys.readouterr().err


def test_preset_without_grid_key_exits_2(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "gridless.conf"
    conf.write_text("potential = harmonic\nfd_r_min = -6\nfd_r_max = 6\n")
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    code = main(["compare", "--preset", "gridless", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(conf) in err and "missing preset key 'fd_n'" in err


@pytest.mark.parametrize(
    "line, words",
    [("fd_r_max = inf", "finite r_min < r_max"), ("mu = inf", "reduced mass")],
)
def test_non_finite_preset_value_exits_2(tmp_path, monkeypatch, capsys, line, words):
    # a preset file is checked like a flag: no silent rows from an infinite box or mass
    conf = tmp_path / "wild.conf"
    # the line takes the place of its key's value: a file sets each key once
    keys = {"potential": "coulomb", "fd_r_min": "0.001", "fd_r_max": "30", "fd_n": "2000"}
    key, value = line.split(" = ")
    conf.write_text("".join(f"{k} = {v}\n" for k, v in {**keys, key: value}.items()))
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    code = main(["solve", "--preset", "wild", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(conf) in err and words in err and "finite" in err
    assert not (tmp_path / "x.csv").exists()


def test_unparsable_preset_value_names_file_and_key(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "typed.conf"
    conf.write_text("potential = harmonic\nfd_r_min = -6\nfd_r_max = 6\nfd_n = 2e3\n")
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    code = main(["compare", "--preset", "typed", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{conf}: preset key 'fd_n': invalid int value: '2e3'" in err


def test_preset_with_an_unsupported_potential_exits_2(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "screened.conf"
    conf.write_text("potential = yukawa\nfd_r_min = 0.001\nfd_r_max = 30\nfd_n = 2000\n")
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    code = main(["solve", "--preset", "screened", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert f"{conf}: unsupported potential 'yukawa'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_preset_rejects_a_parameter_of_another_potential(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "mixed.conf"
    conf.write_text("potential = coulomb\nomega = 3\nfd_r_min = 0.001\nfd_r_max = 30\nfd_n = 2000\n")
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    code = main(["solve", "--preset", "mixed", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert f"{conf}: coulomb potential takes no omega, got 3.0" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_preset_with_tabulated_potential_exits_2(tmp_path, monkeypatch, capsys):
    # a flat key = value file has no format for the samples
    conf = tmp_path / "table.conf"
    conf.write_text("potential = tabulated\nfd_r_min = 0\nfd_r_max = 1\nfd_n = 500\n")
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    assert main(["solve", "--preset", "table", "--output", str(tmp_path / "x.csv")]) == 2
    assert f"{conf}: unsupported potential 'tabulated'" in capsys.readouterr().err


def test_finite_well_preset_solves_and_has_no_analytic_levels(tmp_path, monkeypatch, capsys):
    (tmp_path / "well.conf").write_text(
        "potential = finite_well\nV0 = 1\na = 2\nfd_r_min = -10\nfd_r_max = 10\nfd_n = 2000\n"
    )
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    code, text = run_csv(tmp_path, ["solve", "--preset", "well", "--n-max", "2"])
    assert code == 0
    problem = RadialProblem(PotentialSpec.finite_well(1.0, 2.0))
    expected = solve_lowest_k(assemble_tridiagonal(problem, GridSpec(-10.0, 10.0, 2000)), 2)
    assert [float(row["epsilon_hartree"]) for row in csv_rows(text)] == expected.epsilons.tolist()
    code = main(["compare", "--preset", "well", "--output", str(tmp_path / "c.csv")])
    assert code == 2
    assert "no analytic levels" in capsys.readouterr().err


def test_infinite_well_preset_rejects_a_width(tmp_path, monkeypatch, capsys):
    # the walls are the grid ends; a width would solve the grid's box and be ignored
    body = "potential = infinite_well\nfd_r_min = 0\nfd_r_max = 1\nfd_n = 500\n"
    conf = tmp_path / "box.conf"
    conf.write_text(body + "a = 5\n")
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    assert main(["solve", "--preset", "box", "--output", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{conf}: infinite_well takes no 'a'" in err and "the grid ends are the walls" in err
    assert not (tmp_path / "x.csv").exists()
    conf.write_text(body)
    code, text = run_csv(tmp_path, ["solve", "--preset", "box"])
    assert code == 0
    assert float(csv_rows(text)[0]["epsilon_hartree"]) == pytest.approx(math.pi**2 / 2, rel=1e-5)


def test_bad_preset_file_breaks_only_its_own_preset(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "a.conf"
    bad.write_text("potential = coulomb\nfd_r_min = 0.001\nfd_r_max = inf\nfd_n = 2000\n")
    (tmp_path / "b.conf").write_text(
        "potential = harmonic\nomega = 1\nfd_r_min = -6\nfd_r_max = 6\nfd_n = 500\n"
    )
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    for preset in ("b", "hydrogen"):
        assert main(["solve", "--preset", preset, "--output", str(tmp_path / "x.csv")]) == 0
    assert main(["solve", "--preset", "a", "--output", str(tmp_path / "y.csv")]) == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "y.csv").exists()
    assert main(["solve", "--preset", "c", "--output", str(tmp_path / "y.csv")]) == 2
    assert "valid presets: a, b, coulomb, hydrogen," in capsys.readouterr().err
    # listing every preset still parses every file
    with pytest.raises(ValueError, match="finite r_min < r_max"):
        load_presets()


def test_preset_dir_extends_and_overrides(tmp_path, monkeypatch):
    (tmp_path / "tight_oscillator.conf").write_text(
        "potential = harmonic\nomega = 1\nfd_r_min = -6\nfd_r_max = 6\nfd_n = 500\n"
    )
    (tmp_path / "hydrogen.conf").write_text(
        "potential = coulomb\nZ = 1\nfd_r_min = 0.001\nfd_r_max = 25\nfd_n = 1500\n"
    )
    monkeypatch.setenv("RSSE_PRESET_DIR", str(tmp_path))
    presets = load_presets()
    assert "tight_oscillator" in presets
    assert presets["hydrogen"].fd_grid.n == 1500  # override of a builtin
    code = main(
        ["solve", "--preset", "tight_oscillator", "--n-max", "1", "--output", str(tmp_path / "o.csv")]
    )
    assert code == 0
    row = csv_rows((tmp_path / "o.csv").read_text())[0]
    assert abs(float(row["epsilon_hartree"]) - 0.5) < 1e-3
