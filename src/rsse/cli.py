"""Command-line front end.

Every command resolves its configuration as defaults < config file < flags,
echoes the fully resolved configuration and the unit system into the output
header, and writes a machine-readable CSV or JSON report.  Output bytes are
deterministic for a fixed configuration and package version.

Exit codes: 0 on success, 2 on usage or domain errors, 3 on numerical
failure (non-convergence, a bracket without a sign change of the matching
defect, or a state with the wrong node count).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from . import __version__
from .eigensolver import (
    BracketError,
    ConvergenceError,
    GridSpec,
    WrongStateError,
    assemble_tridiagonal,
    convergence_order,
    solve_lowest_k,
    solve_numerov_lowest_k,
    solve_state,
)
from .inversion import (
    dirac_theta_chi,
    effective_mass,
    electron_plane_wave,
    evaluate_plane_wave,
    spacetime_invert,
)
from .kinematics import (
    check_phase_harmony,
    clock_and_wave_frequencies,
    gamma_factor,
    momentum,
    total_energy,
    wave_from_particle,
)
# load_presets, bohr_level and oscillator_level are unused here but stay
# importable: benchmark tracers wrap the layer functions in this namespace
from .presets import get_preset, load_presets, parse_kv_file  # noqa: F401
from .spectra import analytic_level, bohr_level, compare_report, oscillator_level  # noqa: F401
from .units import ATOMIC


def _fmt(value: Any) -> str:
    """Render one CSV cell; floats carry 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# config-file values arrive as strings; coerce the numeric keys
_CONFIG_TYPES = {
    "n_max": int,
    "grid_n": int,
    "n_index": int,
    "r_min": float,
    "r_max": float,
    "time": float,
    "m0": float,
}


def _resolve_config(args: argparse.Namespace, defaults: dict[str, Any]) -> dict[str, Any]:
    """defaults < config file < explicitly set flags."""
    resolved = dict(defaults)
    if getattr(args, "config", None):
        for key, value in parse_kv_file(args.config).items():
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r} for this command")
            resolved[key] = _CONFIG_TYPES.get(key, str)(value)
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _write_report(
    config: dict[str, Any],
    rows: Sequence[dict[str, Any]],
    fmt: str,
    output: str,
    extra: Optional[dict[str, Any]] = None,
) -> None:
    # the output destination is not a run parameter: identical configs give
    # identical bytes no matter where the report lands
    header = {
        "version": __version__,
        **{key: value for key, value in config.items() if key != "output"},
        "units_hbar": ATOMIC.hbar,
        "units_c": ATOMIC.c,
        "units_mass": ATOMIC.mass_unit,
        "units_energy": ATOMIC.energy_unit_name,
    }
    if fmt == "json":
        payload: dict[str, Any] = {"config": header, "rows": list(rows)}
        if extra:
            payload.update(extra)
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"# {key} = {_fmt(value)}" for key, value in header.items()]
        if extra:
            lines += [f"# {key} = {_fmt(value)}" for key, value in extra.items()]
        # the columns are the keys of the first row, in order
        columns = list(rows[0])
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[col]) for col in columns))
        text = "\n".join(lines) + "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w") as handle:
            handle.write(text)


def _grid_with_overrides(grid: GridSpec, config: dict[str, Any]) -> GridSpec:
    return GridSpec(
        r_min=config["r_min"] if config["r_min"] is not None else grid.r_min,
        r_max=config["r_max"] if config["r_max"] is not None else grid.r_max,
        n=config["grid_n"] if config["grid_n"] is not None else grid.n,
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> int:
    defaults = {
        "command": "solve",
        "preset": "hydrogen",
        "method": "fd",
        "n_max": 1,
        "r_min": None,
        "r_max": None,
        "grid_n": None,
        "wavefunctions_dir": None,
        "format": "csv",
        "output": "-",
    }
    config = _resolve_config(args, defaults)
    preset = get_preset(config["preset"])
    base_grid = preset.fd_grid if config["method"] == "fd" else preset.numerov_grid
    grid = _grid_with_overrides(base_grid, config)
    if config["method"] == "fd":
        result = solve_lowest_k(assemble_tridiagonal(preset.problem, grid), config["n_max"])
    elif config["method"] == "numerov":
        result = solve_numerov_lowest_k(preset.problem, grid, config["n_max"])
    else:
        raise ValueError(f"unknown method {config['method']!r}; expected 'fd' or 'numerov'")
    # echo the grid actually used
    config["r_min"], config["r_max"], config["grid_n"] = grid.r_min, grid.r_max, grid.n
    rows = [
        {
            "n": i,
            "l": preset.problem.l,
            "epsilon_hartree": float(result.epsilons[i]),
            "residual": float(result.residuals[i]),
            "nodes": int(result.nodes[i]),
        }
        for i in range(config["n_max"])
    ]
    if config["wavefunctions_dir"]:
        _dump_wavefunctions(config, grid, result)
    _write_report(config, rows, config["format"], config["output"])
    return 0


def _dump_wavefunctions(config: dict[str, Any], grid, result) -> None:
    """Plain two-column (r, u) plot-data files, one per state."""
    directory = Path(config["wavefunctions_dir"])
    directory.mkdir(parents=True, exist_ok=True)
    r = grid.nodes()
    header = [f"# {key} = {_fmt(value)}" for key, value in config.items() if key != "output"]
    for i, u in enumerate(result.wavefunctions):
        lines = list(header)
        lines.append(f"# state = {i}")
        lines += [f"{_fmt(float(x))} {_fmt(float(y))}" for x, y in zip(r, u)]
        path = directory / f"{config['preset']}_{config['method']}_state{i}.dat"
        path.write_text("\n".join(lines) + "\n")


def _cmd_compare(args: argparse.Namespace) -> int:
    defaults = {
        "command": "compare",
        "preset": "hydrogen",
        "n_max": 1,
        "format": "csv",
        "output": "-",
    }
    config = _resolve_config(args, defaults)
    report = compare_report(config["preset"], config["n_max"])
    rows = []
    for row in report.rows:
        cells: dict[str, Any] = {
            "state": row.state,
            "epsilon": row.epsilon,
            "B_nonrel": row.B_nonrel,
            "B_rel": row.B_rel,
        }
        if report.has_dirac:
            cells["B_dirac"] = row.B_dirac
            cells["delta_rel_vs_dirac"] = row.delta_rel_vs_dirac
        rows.append(cells)
    extra = {"mu": report.mu, "M": report.M}
    _write_report(config, rows, config["format"], config["output"], extra=extra)
    return 0


def _parse_betas(raw: str) -> list[float]:
    betas = [float(chunk) for chunk in raw.split(",") if chunk.strip()]
    if not betas:
        raise ValueError("no beta values supplied")
    for beta in betas:
        if abs(beta) >= 1.0:
            raise ValueError(f"beta must satisfy |beta| < 1, got {beta}")
    return betas


def _cmd_kinematics(args: argparse.Namespace) -> int:
    defaults = {
        "command": "kinematics",
        "beta": "0.6",
        "time": 1.0,
        "m0": 1.0,
        "format": "csv",
        "output": "-",
    }
    config = _resolve_config(args, defaults)
    betas = _parse_betas(str(config["beta"]))
    m0 = config["m0"]
    rows = []
    for beta in betas:
        v = beta * ATOMIC.c
        p = momentum(m0, v)
        wave = wave_from_particle(m0, v)
        omega_clock, omega_wave = clock_and_wave_frequencies(m0, v)
        harmony = check_phase_harmony(m0, v, config["time"])
        tc = dirac_theta_chi(m0, v)
        rows.append(
            {
                "beta": beta,
                "gamma": gamma_factor(v),
                "p": p,
                "E": total_energy(m0, p),
                "lambda": wave.wavelength,
                "omega_clock": omega_clock,
                "omega_wave": omega_wave,
                "phase_residual": harmony.residual,
                "chi_over_theta": abs(tc.chi) / abs(tc.theta),
                "effective_mass": effective_mass(m0, v),
            }
        )
    _write_report(config, rows, config["format"], config["output"])
    return 0


def _cmd_invert_demo(args: argparse.Namespace) -> int:
    defaults = {
        "command": "invert-demo",
        "beta": "0.6",
        "m0": 1.0,
        "format": "csv",
        "output": "-",
    }
    config = _resolve_config(args, defaults)
    betas = _parse_betas(str(config["beta"]))
    beta = betas[0]
    v = beta * ATOMIC.c
    electron = electron_plane_wave(v, m0=config["m0"])
    positron = spacetime_invert(electron)
    # evaluation identity checked on a fixed deterministic lattice
    points = [(-1.0 + 0.08 * i, -1.0 + 0.096 * i) for i in range(26)]
    residual = max(
        abs(evaluate_plane_wave(positron, x, t) - evaluate_plane_wave(electron, -x, -t))
        for x, t in points
    )
    rows = []
    for label, state in (("electron", electron), ("positron", positron)):
        tc = dirac_theta_chi(config["m0"], v, branch=state.branch)
        rows.append(
            {
                "state": label,
                "branch": state.branch,
                "Q": state.Q,
                "L": state.L,
                "p": state.p,
                "E": state.E,
                "theta_magnitude": abs(tc.theta),
                "chi_magnitude": abs(tc.chi),
                "eval_identity_residual": residual,
            }
        )
    _write_report(config, rows, config["format"], config["output"])
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    defaults = {
        "command": "convergence",
        "preset": "oscillator",
        "method": "fd",
        "n_index": 0,
        "format": "csv",
        "output": "-",
    }
    config = _resolve_config(args, defaults)
    preset = get_preset(config["preset"])
    problem = preset.problem
    n_index, method = config["n_index"], config["method"]
    # full-line presets share one fixed ladder; half-line presets refine
    # their own FD grid
    base = GridSpec(-8.0, 8.0, 1017) if preset.fd_grid.r_min < 0.0 else preset.fd_grid
    grids = [
        GridSpec(base.r_min, base.r_max, (base.n - 1) // scale + 1) for scale in (8, 4, 2, 1)
    ]
    exact = analytic_level(problem, n_index, base)
    table = [(grid.h, solve_state(problem, grid, n_index, method)) for grid in grids]
    rows = [
        {"grid_n": grid.n, "h": h, "epsilon": epsilon, "abs_error": abs(epsilon - exact)}
        for grid, (h, epsilon) in zip(grids, table)
    ]
    slope = convergence_order(problem, grids, exact, n_index=n_index, method=method, table=table)
    _write_report(
        config,
        rows,
        config["format"],
        config["output"],
        extra={"slope": slope, "epsilon_exact": exact},
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsse",
        description="Stationary eigenproblem solvers with a relativistic "
        "binding-energy correction and matter-wave demonstrations.",
    )
    parser.add_argument("--version", action="version", version=f"rsse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--output", default=None, help="output path, '-' for stdout")

    solve = sub.add_parser("solve", help="solve a preset eigenproblem")
    solve.add_argument("--preset", default=None)
    solve.add_argument("--method", choices=("fd", "numerov"), default=None)
    solve.add_argument("--n-max", dest="n_max", type=int, default=None)
    solve.add_argument("--r-min", dest="r_min", type=float, default=None)
    solve.add_argument("--r-max", dest="r_max", type=float, default=None)
    solve.add_argument("--grid-n", dest="grid_n", type=int, default=None)
    solve.add_argument(
        "--wavefunctions-dir",
        dest="wavefunctions_dir",
        default=None,
        help="also write per-state two-column (r, u) plot-data files here",
    )
    add_common(solve)
    solve.set_defaults(func=_cmd_solve)

    compare = sub.add_parser("compare", help="binding-energy comparison report")
    compare.add_argument("--preset", default=None)
    compare.add_argument("--n-max", dest="n_max", type=int, default=None)
    add_common(compare)
    compare.set_defaults(func=_cmd_compare)

    kin = sub.add_parser("kinematics", help="per-velocity kinematics table")
    kin.add_argument("--beta", default=None, help="comma-separated v/c values")
    kin.add_argument("--time", type=float, default=None, help="phase-check instant")
    kin.add_argument("--m0", type=float, default=None)
    add_common(kin)
    kin.set_defaults(func=_cmd_kinematics)

    inv = sub.add_parser("invert-demo", help="space-time-inversion table")
    inv.add_argument("--beta", default=None)
    inv.add_argument("--m0", type=float, default=None)
    add_common(inv)
    inv.set_defaults(func=_cmd_invert_demo)

    conv = sub.add_parser("convergence", help="measured convergence order")
    conv.add_argument("--preset", default=None)
    conv.add_argument("--method", choices=("fd", "numerov"), default=None)
    conv.add_argument("--n-index", dest="n_index", type=int, default=None)
    add_common(conv)
    conv.set_defaults(func=_cmd_convergence)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"rsse: convergence failure: {exc}", file=sys.stderr)
        return 3
    except (BracketError, WrongStateError) as exc:
        # numerical failures, although the classes subclass ValueError
        print(f"rsse: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"rsse: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
