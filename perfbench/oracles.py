"""Correctness checks for every benchmark op, against analytic oracles.

Each checker takes the argv an op ran with and the bytes it produced and
returns a list of problems (empty when the op is correct).  Tolerances come
from error models, never from stored output:

* FD oscillator: the truncation shift ``(h^2/24) <x^4>_n`` of the
  second-difference stencil, with the 1.25 safety factor used by
  ``test_fd_oscillator_matches_truncation_model``.
* Numerov oscillator: the analogous fourth-order shift
  ``(h^4/480) <x^6>_n`` from the Numerov remainder ``h^6 u^(6) / 240``,
  with the same factor, plus the root finder's 1e-10 relative tolerance.
* Coulomb (singular origin, no clean order): the suite's tolerances at its
  reference grids (FD 2e-3 at h = 0.015, Numerov 2e-6 at h = 0.002, states
  n <= 3, in units of the reduced Bohr energy and radius), scaled by
  ``(h/h_ref)^2`` on coarser grids and held at the reference value on finer
  ones, where the box-truncation floor does not shrink.
* FD eigenvalues must also match an independent assembly of the same
  stencil solved here, to the backward-error level ``~eps_mach ||H||``.
* Numerov eigenvalues must match that same-grid FD spectrum within the FD
  model above.

The acceptance gate 04c (1e-5 on the FD oscillator) is deliberately not used:
it sits below the stencil's error floor.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import eigh_tridiagonal

MASS_RATIO = 1836.15267343  # proton / electron (CODATA)

# the preset table documented in README (problem parameters and grids)
_HYDROGEN = {
    "kind": "coulomb", "Z": 1.0, "mu": 1.0, "M": 1.0,
    "fd": (1e-4, 30.0, 2000), "numerov": (1e-5, 40.0, 20000),
}
PRESETS = {
    "hydrogen": _HYDROGEN,
    "coulomb": _HYDROGEN,
    "hydrogen_finite_mass": {
        **_HYDROGEN, "mu": MASS_RATIO / (1.0 + MASS_RATIO), "M": 1.0 + MASS_RATIO,
    },
    "positronium": {
        "kind": "coulomb", "Z": 1.0, "mu": 0.5, "M": 2.0,
        "fd": (1e-4, 60.0, 4000), "numerov": (1e-5, 80.0, 32000),
    },
    "oscillator": {
        "kind": "harmonic", "omega": 1.0, "mu": 1.0, "M": 1.0,
        "fd": (-12.0, 12.0, 3000), "numerov": (-12.0, 12.0, 6000),
    },
}

EPS = np.finfo(float).eps
# Coulomb states are checked only up to n = 3: higher ones are squeezed by
# the preset boxes (ROADMAP item 5) and have no agreed correct output yet
MAX_COULOMB_STATES = 3


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(got: float, want: float, tol: float, what: str) -> None:
    _require(
        math.isfinite(got) and abs(got - want) <= tol,
        f"{what}: got {got!r}, want {want!r} (|diff| = {abs(got - want):.3e} > tol {tol:.3e})",
    )


def _rel_close(got: float, want: float, rel: float, what: str) -> None:
    _close(got, want, rel * abs(want), what)


# ---------------------------------------------------------------------------
# report parsing (README report contract)
# ---------------------------------------------------------------------------


def _number(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse_report(text: str) -> tuple[dict, list[dict]]:
    """(header, rows) of a CSV or JSON report; CSV cells become numbers."""
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        header = dict(payload.pop("config"))
        rows = payload.pop("rows")
        header.update(payload)  # extra keys (slope, mu, M, ...)
        return header, rows
    header: dict = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition(" = ")
        header[key] = _number(value)
        i += 1
    _require(i < len(lines), "report has no column line")
    columns = lines[i].split(",")
    rows = []
    for line in lines[i + 1:]:
        cells = line.split(",")
        _require(len(cells) == len(columns), f"ragged CSV row {line!r}")
        rows.append({c: (None if v == "" else _number(v)) for c, v in zip(columns, cells)})
    return header, rows


def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


# ---------------------------------------------------------------------------
# eigenvalue oracles and error models
# ---------------------------------------------------------------------------


def exact_level(preset: dict, n: int) -> float:
    """Analytic l = 0 eigenvalue with n interior nodes (hartree)."""
    if preset["kind"] == "coulomb":
        return -preset["mu"] * preset["Z"] ** 2 / (2.0 * (n + 1) ** 2)
    return preset["omega"] * (n + 0.5)


def level_tolerance(preset: dict, method: str, h: float, n: int) -> float:
    """Allowed |eps - exact| for state n on a grid of spacing h."""
    if preset["kind"] == "harmonic":
        omega, mu = preset["omega"], preset["mu"]
        hs = h * math.sqrt(mu * omega)  # spacing in oscillator lengths
        if method == "fd":
            x4 = 0.75 * (2 * n * n + 2 * n + 1)
            return 1.25 * omega * hs**2 / 24.0 * x4 + 1e-12
        x6 = 0.625 * (4 * n**3 + 6 * n * n + 8 * n + 3)
        return 1.25 * omega * hs**4 / 480.0 * x6 + 1e-10 * omega * (n + 0.5) + 1e-12
    _require(n < MAX_COULOMB_STATES, f"Coulomb state {n} is outside the checked regime")
    energy = preset["mu"] * preset["Z"] ** 2
    x = h * preset["mu"] * preset["Z"]  # spacing in reduced Bohr radii
    if method == "fd":
        return energy * 2e-3 * max(1.0, (x / 0.015) ** 2)
    return energy * 2e-6 * max(1.0, (x / 0.002) ** 2)


def residual_tolerance(preset: dict, method: str, h: float) -> float:
    """Bound on the report's per-state residual column.

    FD: max|Hv - eps v| / max|v| of a backward-stable eigensolver, a modest
    multiple of eps_mach ||H|| with ||H|| ~ 2/(mu h^2) (the suite asserts
    1e-8 at h = 0.015).  Numerov: the recurrence defect, 1e-10 in the suite.
    """
    if method == "fd":
        return 1e4 * EPS * 2.0 / (preset["mu"] * h * h)
    return 1e-10


@functools.lru_cache(maxsize=64)  # ops repeat their grids every round
def fd_reference(name: str, grid: tuple[float, float, int], k: int) -> np.ndarray:
    """Lowest k eigenvalues of the second-difference operator, assembled here."""
    preset = PRESETS[name]
    r_min, r_max, n = grid
    h = (r_max - r_min) / (n - 1)
    r = np.linspace(r_min, r_max, n)[1:-1]
    mu = preset["mu"]
    if preset["kind"] == "coulomb":
        v = -preset["Z"] / r
    else:
        v = 0.5 * mu * preset["omega"] ** 2 * r * r
    kinetic = 1.0 / (mu * h * h)
    diagonal = kinetic + v
    off = np.full(n - 3, -0.5 * kinetic)
    return eigh_tridiagonal(diagonal, off, select="i", select_range=(0, k - 1), eigvals_only=True)


def _fd_same_grid_tolerance(preset: dict, h: float) -> float:
    # eigenvalues of a symmetric tridiagonal matrix are perturbed by at most
    # ~eps_mach ||H|| under any backward-stable algorithm
    return 64.0 * EPS * 4.0 / (preset["mu"] * h * h) + 1e-12


def _common_header(header: dict, command: str) -> None:
    _require(header.get("command") == command, f"header command {header.get('command')!r}")
    _require(header.get("units_energy") == "hartree", "units_energy is not hartree")
    _require(float(header.get("units_hbar")) == 1.0, "units_hbar is not 1")


def _preset(argv: list[str], default: str) -> dict:
    name = _flag(argv, "--preset", default)
    _require(name in PRESETS, f"unknown preset {name!r}")
    return PRESETS[name]


# ---------------------------------------------------------------------------
# per-command checkers
# ---------------------------------------------------------------------------


def check_solve(argv: list[str], text: str, wavefunction_files: dict[str, str]) -> None:
    header, rows = parse_report(text)
    _common_header(header, "solve")
    preset = _preset(argv, "hydrogen")
    method = _flag(argv, "--method", "fd")
    k = int(_flag(argv, "--n-max", 1))
    base = preset[method]
    grid_n = int(_flag(argv, "--grid-n", base[2]))
    _require(header["method"] == method and int(header["n_max"]) == k, "header echo mismatch")
    _require(
        (float(header["r_min"]), float(header["r_max"]), int(header["grid_n"]))
        == (base[0], base[1], grid_n),
        f"header grid {header['r_min']}, {header['r_max']}, {header['grid_n']}",
    )
    grid = (base[0], base[1], grid_n)
    h = (grid[1] - grid[0]) / (grid_n - 1)
    _require(len(rows) == k, f"{len(rows)} rows for n-max {k}")
    fd_ref = fd_reference(_flag(argv, "--preset", "hydrogen"), grid, k)
    fd_tol_same = _fd_same_grid_tolerance(preset, h)
    for i, row in enumerate(rows):
        eps = float(row["epsilon_hartree"])
        _require(int(row["n"]) == i and int(row["l"]) == 0, f"row {i} labels {row['n']}, {row['l']}")
        _require(int(row["nodes"]) == i, f"state {i} has {row['nodes']} nodes")
        res = float(row["residual"])
        _require(
            0.0 <= res <= residual_tolerance(preset, method, h),
            f"state {i} residual {res:.3e} above {residual_tolerance(preset, method, h):.3e}",
        )
        _close(eps, exact_level(preset, i), level_tolerance(preset, method, h, i), f"state {i} vs level")
        if method == "fd":
            _close(eps, float(fd_ref[i]), fd_tol_same, f"state {i} vs FD assembled here")
        else:
            # Numerov and FD on one grid differ by the FD truncation error
            _close(
                eps,
                float(fd_ref[i]),
                level_tolerance(preset, "fd", h, i) + level_tolerance(preset, "numerov", h, i),
                f"state {i} Numerov vs FD on the same grid",
            )
    if _flag(argv, "--wavefunctions-dir") is not None:
        _check_wavefunctions(argv, grid, k, wavefunction_files)


def _check_wavefunctions(argv, grid, k, files: dict[str, str]) -> None:
    name = _flag(argv, "--preset", "hydrogen")
    method = _flag(argv, "--method", "fd")
    expected = {f"{name}_{method}_state{i}.dat" for i in range(k)}
    _require(set(files) == expected, f"wavefunction files {sorted(files)}")
    r_ref = np.linspace(*grid)
    h = (grid[1] - grid[0]) / (grid[2] - 1)
    for i in range(k):
        lines = files[f"{name}_{method}_state{i}.dat"].splitlines()
        comments = [line for line in lines if line.startswith("#")]
        _require(f"# state = {i}" in comments, f"state file {i} lacks its state line")
        data = np.array([line.split() for line in lines if not line.startswith("#")], dtype=float)
        _require(data.shape == (grid[2], 2), f"state file {i} has shape {data.shape}")
        r, u = data[:, 0], data[:, 1]
        _require(np.allclose(r, r_ref, rtol=0.0, atol=4 * EPS * max(abs(grid[0]), abs(grid[1]))),
                 f"state file {i} r column is not the grid")
        _require(u[0] == 0.0 and u[-1] == 0.0, f"state file {i} is not zero at the walls")
        norm = h * (float(np.dot(u, u)) - 0.5 * (u[0] ** 2 + u[-1] ** 2))
        _close(norm, 1.0, 1e-9, f"state file {i} trapezoid norm")
        interior = u[1:-1]
        nodes = int(np.sum(interior[:-1] * interior[1:] < 0.0))
        _require(nodes == i, f"state file {i} has {nodes} nodes")


def dirac_binding(Z: float, n: int, j: float, c: float) -> float:
    """Exact point-Coulomb binding of a unit-mass fermion (hbar = 1)."""
    za = Z / c
    kappa = j + 0.5
    x = (za / (n - kappa + math.sqrt(kappa * kappa - za * za))) ** 2
    return -c * c * math.expm1(-0.5 * math.log1p(x))


def relativistic_binding(eps: float, M: float, c: float) -> float:
    mc2 = M * c * c
    return -mc2 * math.expm1(0.5 * math.log1p(2.0 * eps / mc2))


def check_compare(argv: list[str], text: str) -> None:
    header, rows = parse_report(text)
    _common_header(header, "compare")
    preset = _preset(argv, "hydrogen")
    n_max = int(_flag(argv, "--n-max", 1))
    c = float(header["units_c"])
    mu, M = preset["mu"], preset["M"]
    _rel_close(float(header["mu"]), mu, 1e-14, "header mu")
    _rel_close(float(header["M"]), M, 1e-14, "header M")
    if preset["kind"] == "coulomb":
        states = [
            (n, l, j)
            for n in range(1, n_max + 1)
            for l in range(n)
            for j in ([l - 0.5, l + 0.5] if l > 0 else [0.5])
        ]
    else:
        states = [(n, None, None) for n in range(n_max)]
    _require(len(rows) == len(states), f"{len(rows)} rows, want {len(states)}")
    for row, (n, l, j) in zip(rows, states):
        eps = float(row["epsilon"])
        label = row["state"]
        if preset["kind"] == "coulomb":
            _require(label == f"{n}{'spdfghik'[l]}{int(2 * j)}/2", f"state label {label!r}")
            _rel_close(eps, exact_level(preset, n - 1), 1e-15, f"{label} epsilon")
        else:
            _require(label == f"n{n}", f"state label {label!r}")
            _rel_close(eps, exact_level(preset, n), 1e-15, f"{label} epsilon")
        _require(float(row["B_nonrel"]) == -eps, f"{label} B_nonrel != -epsilon")
        b_rel = float(row["B_rel"])
        _rel_close(b_rel, relativistic_binding(eps, M, c), 1e-12, f"{label} B_rel")
        if preset["kind"] != "coulomb":
            _require("B_dirac" not in row, "Dirac column on a non-Coulomb system")
            continue
        b_dirac = mu * dirac_binding(preset["Z"], n, j, c)
        _rel_close(float(row["B_dirac"]), b_dirac, 1e-12, f"{label} B_dirac")
        _close(
            float(row["delta_rel_vs_dirac"]), b_rel - b_dirac, 4 * EPS * b_rel, f"{label} delta"
        )
        if mu == M and (n, l, j) == (1, 0, 0.5):
            # criterion 1: the corrected binding is the exact 1s1/2 binding
            _rel_close(b_rel, b_dirac, 1e-12, "B_rel vs Dirac 1s1/2")


def _betas(argv: list[str]) -> list[float]:
    return [float(b) for b in _flag(argv, "--beta", "0.6").split(",") if b.strip()]


def check_kinematics(argv: list[str], text: str) -> None:
    header, rows = parse_report(text)
    _common_header(header, "kinematics")
    c = float(header["units_c"])
    m0 = float(_flag(argv, "--m0", 1.0))
    t = float(_flag(argv, "--time", 1.0))
    betas = _betas(argv)
    _require(len(rows) == len(betas), f"{len(rows)} rows for {len(betas)} betas")
    for row, beta in zip(rows, betas):
        gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
        p = gamma * m0 * beta * c
        mc2 = m0 * c * c
        _rel_close(float(row["beta"]), beta, 0.0, "beta echo")
        _rel_close(float(row["gamma"]), gamma, 1e-12, f"gamma at beta {beta}")
        _rel_close(float(row["p"]), p, 1e-12, f"p at beta {beta}")
        _rel_close(float(row["E"]), math.hypot(mc2, p * c), 1e-12, f"E at beta {beta}")
        _rel_close(float(row["lambda"]), 2.0 * math.pi / p, 1e-12, f"lambda at beta {beta}")
        _rel_close(float(row["omega_clock"]), mc2 / gamma, 1e-12, f"omega_clock at beta {beta}")
        _rel_close(float(row["omega_wave"]), gamma * mc2, 1e-12, f"omega_wave at beta {beta}")
        _rel_close(
            float(row["chi_over_theta"]), gamma * beta / (gamma + 1.0), 1e-12,
            f"chi_over_theta at beta {beta}",
        )
        _rel_close(float(row["effective_mass"]), gamma * m0, 1e-12, f"effective_mass at beta {beta}")
        # the two phases are ~gamma m0 c^2 t in size; they agree to rounding
        bound = max(1e-10, 16.0 * EPS * 2.0 * gamma * mc2 * abs(t))
        _require(
            0.0 <= float(row["phase_residual"]) <= bound,
            f"phase_residual {row['phase_residual']} at beta {beta}",
        )


def check_invert_demo(argv: list[str], text: str) -> None:
    header, rows = parse_report(text)
    _common_header(header, "invert-demo")
    c = float(header["units_c"])
    m0 = float(_flag(argv, "--m0", 1.0))
    beta = _betas(argv)[0]
    _require([r["state"] for r in rows] == ["electron", "positron"], "row labels")
    electron, positron = rows
    _require((electron["branch"], int(electron["Q"]), int(electron["L"])) == ("matter", -1, 1),
             "electron quantum numbers")
    _require((positron["branch"], int(positron["Q"]), int(positron["L"])) == ("antimatter", 1, -1),
             "inversion did not flip Q and L")
    gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    p = gamma * m0 * beta * c
    ratio = gamma * abs(beta) / (gamma + 1.0)
    major = 1.0 / math.sqrt(1.0 + ratio * ratio)
    for row in rows:
        _rel_close(float(row["p"]), p, 1e-12, f"{row['state']} p")
        _rel_close(float(row["E"]), math.hypot(m0 * c * c, p * c), 1e-12, f"{row['state']} E")
    _rel_close(float(electron["theta_magnitude"]), major, 1e-12, "electron |theta|")
    _rel_close(float(electron["chi_magnitude"]), ratio * major, 1e-12, "electron |chi|")
    _require(
        float(positron["theta_magnitude"]) == float(electron["chi_magnitude"])
        and float(positron["chi_magnitude"]) == float(electron["theta_magnitude"]),
        "positron components are not the swapped electron components",
    )
    for row in rows:
        residual = float(row["eval_identity_residual"])
        _require(0.0 <= residual <= 1e-12, f"eval identity residual {residual}")


def check_convergence(argv: list[str], text: str) -> None:
    header, rows = parse_report(text)
    _common_header(header, "convergence")
    preset = _preset(argv, "oscillator")
    method = _flag(argv, "--method", "fd")
    n_index = int(_flag(argv, "--n-index", 0))
    exact = exact_level(preset, n_index)
    _rel_close(float(header["epsilon_exact"]), exact, 1e-15, "epsilon_exact")
    if preset["kind"] == "harmonic":
        bounds = (-8.0, 8.0)
        sizes = [128, 255, 509, 1017]
    else:
        r_min, r_max, n = preset["fd"]
        bounds = (r_min, r_max)
        sizes = [(n - 1) // s + 1 for s in (8, 4, 2, 1)]
    _require([int(r["grid_n"]) for r in rows] == sizes, f"grid sizes {[r['grid_n'] for r in rows]}")
    hs, errors = [], []
    for row, n in zip(rows, sizes):
        h = (bounds[1] - bounds[0]) / (n - 1)
        _rel_close(float(row["h"]), h, 1e-15, f"h at grid {n}")
        eps = float(row["epsilon"])
        _close(eps, exact, level_tolerance(preset, method, h, n_index), f"epsilon at grid {n}")
        err = float(row["abs_error"])
        _close(err, abs(eps - exact), 2 * EPS * max(1.0, abs(exact)), f"abs_error at grid {n}")
        hs.append(h)
        errors.append(max(err, 1e-15 * max(1.0, abs(exact))))
    slope = float(header["slope"])
    fitted = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    _close(slope, fitted, 1e-6, "slope vs a fit of the reported rows")
    if preset["kind"] == "harmonic":
        # nominal orders; Coulomb slopes are not asserted (singular origin)
        nominal, tol = (2.0, 0.1) if method == "fd" else (4.0, 0.3)
        _close(slope, nominal, tol, "convergence order")


_CHECKERS = {
    "compare": check_compare,
    "kinematics": check_kinematics,
    "invert-demo": check_invert_demo,
    "convergence": check_convergence,
}


def check_op(argv: list[str], text: str, wavefunction_files: dict[str, str] | None = None) -> list[str]:
    """Problems found in one op's report; empty when it passes."""
    try:
        if argv[0] == "solve":
            check_solve(argv, text, wavefunction_files or {})
        else:
            _CHECKERS[argv[0]](argv, text)
    except CheckFailed as exc:
        return [str(exc)]
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
    return []


def read_outputs(argv: list[str], stdout: str, cwd: Path) -> tuple[str, dict[str, str]]:
    """The report text and wavefunction files an op produced."""
    out = _flag(argv, "--output", "-")
    text = stdout if out == "-" else (cwd / out).read_text()
    files = {}
    wf_dir = _flag(argv, "--wavefunctions-dir")
    if wf_dir is not None:
        files = {p.name: p.read_text() for p in sorted((cwd / wf_dir).iterdir())}
    return text, files
