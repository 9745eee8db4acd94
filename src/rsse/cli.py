"""Command-line front end.

``COMMANDS`` is the one declaration of every command and option: it builds
the argument parser, gives the defaults, checks config-file values against
the same types and choices as the flags, and orders the report header.
Every command resolves its configuration as defaults < config file < flags,
echoes the fully resolved configuration and the unit system into the output
header, and writes a machine-readable CSV or JSON report.  Output bytes are
deterministic for a fixed configuration and package version.

Exit codes: 0 on success, 2 on usage or domain errors (a Numerov grid too
coarse for its stencil and a non-finite report cell among them), 3 on
numerical failure (non-convergence or a state with the wrong node count).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from . import _PUBLIC, __version__
from .units import ATOMIC, _check_finite, _check_index

# The library names cli calls are bound into this namespace lazily, by
# module: each handler binds the modules it runs and then reads the names as
# globals, so ``kinematics`` never loads ``spectra``, and only ``solve`` and
# ``convergence`` load ``rsse.eigensolver`` and numpy.  Reading a name from
# outside binds its module too; a value set before that (a benchmark
# tracer's wrapper) is kept, and is the one the handlers call.
_PRIVATE = {"presets": ("get_preset", "parse_kv_file"), "eigensolver": ("solve_state",)}
_NAMES = {module: names + _PRIVATE.get(module, ()) for module, names in _PUBLIC.items()}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}


def _bind(*modules: str) -> None:
    for module in modules:
        # an import statement's path, which ``-X importtime`` reports
        __import__(f"{__package__}.{module}")
        loaded = sys.modules[f"{__package__}.{module}"]
        for name in _NAMES[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str) -> Any:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_MODULE_OF[name])
    return globals()[name]


def _fmt(value: Any) -> str:
    """Render one CSV cell; floats carry 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_report(
    config: dict[str, Any], rows: Sequence[dict[str, Any]], extra: Optional[dict[str, Any]] = None
) -> None:
    # one rule for every command: a float cell must be finite; the message names
    # its column and the first cell of its row
    for row in rows:
        first = next(iter(row))
        for column, value in row.items():
            if isinstance(value, float):
                _check_finite(
                    f"{config['command']} column {column!r} at {first} {row[first]}", value
                )
    extra = extra or {}
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
    if config["format"] == "json":
        import json

        text = json.dumps({"config": header, "rows": list(rows), **extra}, indent=2) + "\n"
    else:
        lines = [f"# {key} = {_fmt(value)}" for key, value in {**header, **extra}.items()]
        # the columns are the keys of the first row, in order
        columns = list(rows[0])
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[col]) for col in columns))
        text = "\n".join(lines) + "\n"
    if config["output"] == "-":
        sys.stdout.write(text)
    else:
        with open(config["output"], "w") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_solve(config: dict[str, Any]) -> int:
    _bind("presets", "problem", "eigensolver")
    preset = get_preset(config["preset"])
    base = preset.fd_grid if config["method"] == "fd" else preset.numerov_grid
    # the configuration overrides the preset's grid; the header echoes the grid used
    for key, value in zip(("r_min", "r_max", "grid_n"), (base.r_min, base.r_max, base.n)):
        if config[key] is None:
            config[key] = value
    grid = GridSpec(config["r_min"], config["r_max"], config["grid_n"])
    # FD has one level per interior node; Numerov also needs the FD level above its top state
    _check_index("n_max", config["n_max"], 1, grid.n - (2 if config["method"] == "fd" else 3))
    if config["method"] == "fd":
        result = solve_lowest_k(assemble_tridiagonal(preset.problem, grid), config["n_max"])
    else:
        result = solve_numerov_lowest_k(preset.problem, grid, config["n_max"])
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
        _dump_wavefunctions(config, result)
    _write_report(config, rows)
    return 0


def _dump_wavefunctions(config: dict[str, Any], result) -> None:
    """Plain two-column (r, u) plot-data files, one per state.

    Each file is the resolved config without ``output`` as ``# key = value``
    lines, then ``# state = i``, then one ``r u`` line per grid node.  Both
    columns are exactly ``'%.17g' % x`` (the same text as ``_fmt`` gives a
    float, ``-0``, ``inf`` and ``nan`` included), written in bulk by
    ``rsse._g17``: the ``r`` column once per solve, each state's ``u``
    column on its own.
    """
    from ._g17 import cells_text, g17_cells

    directory = Path(config["wavefunctions_dir"])
    directory.mkdir(parents=True, exist_ok=True)
    header = "".join(
        f"# {key} = {_fmt(value)}\n" for key, value in config.items() if key != "output"
    )
    r = g17_cells(result.grid.nodes(), " ")
    for i, u in enumerate(result.wavefunctions):
        path = directory / f"{config['preset']}_{config['method']}_state{i}.dat"
        path.write_text(f"{header}# state = {i}\n" + cells_text(r, g17_cells(u, "\n")))


def _cmd_compare(config: dict[str, Any]) -> int:
    _bind("spectra")
    report = compare_report(config["preset"], config["n_max"])
    columns = ["state", "epsilon", "B_nonrel", "B_rel"]
    if report.has_dirac:
        columns += ["B_dirac", "delta_rel_vs_dirac"]
    rows = [{column: getattr(row, column) for column in columns} for row in report.rows]
    extra = {"mu": report.mu, "M": report.M}
    _write_report(config, rows, extra)
    return 0


def _parse_betas(raw: str) -> list[float]:
    betas = []
    for position, chunk in enumerate(raw.split(","), 1):
        # a stray comma would otherwise be echoed in the header unused
        if not chunk.strip():
            raise ValueError(f"beta entry {position} of {raw!r} is empty")
        beta = float(chunk)
        if not abs(beta) < 1.0:
            raise ValueError(f"beta must satisfy |beta| < 1, got {beta}")
        betas.append(beta)
    return betas


def _cmd_kinematics(config: dict[str, Any]) -> int:
    _bind("kinematics", "inversion")
    betas = _parse_betas(config["beta"])
    m0 = config["m0"]
    rows = []
    for beta in betas:
        v = beta * ATOMIC.c
        p = momentum(m0, v)
        wave = wave_from_particle(m0, v)
        omega_clock, omega_wave = clock_and_wave_frequencies(m0, v)
        harmony = check_phase_harmony(m0, v, config["time"])
        tc = dirac_theta_chi(m0, v)
        rows.append({
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
        })
    # a huge m0 overflows E, the frequencies and the phase check: _write_report exits 2
    _write_report(config, rows)
    return 0


def _cmd_invert_demo(config: dict[str, Any]) -> int:
    _bind("kinematics", "inversion")
    betas = _parse_betas(config["beta"])
    if len(betas) != 1:
        raise ValueError(f"invert-demo takes exactly one beta, got {config['beta']!r}")
    beta = betas[0]
    v = beta * ATOMIC.c
    # a huge m0 overflows p or E; name the report column, as kinematics does
    p = momentum(config["m0"], v)
    for column, value in (("p", p), ("E", total_energy(config["m0"], p))):
        _check_finite(f"invert-demo column {column!r} at beta {beta}", value)
    electron = electron_plane_wave(v, m0=config["m0"])
    positron = spacetime_invert(electron)
    # evaluation identity checked on a fixed deterministic lattice
    points = [(-1.0 + 0.08 * i, -1.0 + 0.096 * i) for i in range(26)]
    # a nan (a phase overflowed at a lattice point) wins, so _write_report rejects it
    residual = max(
        (abs(evaluate_plane_wave(positron, x, t) - evaluate_plane_wave(electron, -x, -t))
         for x, t in points),
        key=lambda r: (r != r, r),
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
    _write_report(config, rows)
    return 0


def _cmd_convergence(config: dict[str, Any]) -> int:
    _bind("presets", "problem", "spectra", "eigensolver")
    preset = get_preset(config["preset"])
    problem = preset.problem
    n_index, method = config["n_index"], config["method"]
    # full-line presets share one fixed ladder; half-line presets refine
    # their own FD grid, whose every 8th node must still make a grid
    if preset.fd_grid.r_min < 0.0:
        base = GridSpec(-8.0, 8.0, 1017)
    else:
        base = preset.fd_grid
        _check_index("half-line preset fd_n", base.n, 121)
    grids = [
        GridSpec(base.r_min, base.r_max, (base.n - 1) // scale + 1) for scale in (8, 4, 2, 1)
    ]
    exact = analytic_level(problem, n_index, base)
    # as solve's n_max: the coarsest grid holds n - 2 FD levels, Numerov needs one above
    _check_index("n_index", n_index, 0, grids[0].n - (3 if method == "fd" else 4))
    table = [(grid.h, solve_state(problem, grid, n_index, method)) for grid in grids]
    rows = [
        {"grid_n": grid.n, "h": h, "epsilon": epsilon, "abs_error": abs(epsilon - exact)}
        for grid, (h, epsilon) in zip(grids, table)
    ]
    slope = convergence_order(problem, grids, exact, n_index=n_index, method=method, table=table)
    _write_report(config, rows, {"slope": slope, "epsilon_exact": exact})
    return 0


# ---------------------------------------------------------------------------
# the option table and the parser built from it
# ---------------------------------------------------------------------------

# an option is key -> (type, or a tuple of choices; default; help); the flag
# is the key with "-" for "_", and the key order is the report-header order
_METHOD = (("fd", "numerov"), "fd", None)
_COMMON = {
    "format": (("csv", "json"), "csv", None),
    "output": (str, "-", "output path, '-' for stdout"),
}

# command -> (handler, help, options)
COMMANDS: dict[str, tuple[Callable[[dict[str, Any]], int], str, dict[str, tuple]]] = {
    "solve": (_cmd_solve, "solve a preset eigenproblem", {
        "preset": (str, "hydrogen", None),
        "method": _METHOD,
        "n_max": (int, 1, None),
        "r_min": (float, None, None),
        "r_max": (float, None, None),
        "grid_n": (int, None, None),
        "wavefunctions_dir": (str, None, "also write per-state two-column (r, u) plot-data files here"),
        **_COMMON,
    }),
    "compare": (_cmd_compare, "binding-energy comparison report", {
        "preset": (str, "hydrogen", None),
        "n_max": (int, 1, None),
        **_COMMON,
    }),
    "kinematics": (_cmd_kinematics, "per-velocity kinematics table", {
        "beta": (str, "0.6", "comma-separated v/c values"),
        "time": (float, 1.0, "phase-check instant"),
        "m0": (float, 1.0, None),
        **_COMMON,
    }),
    "invert-demo": (_cmd_invert_demo, "space-time-inversion table", {
        "beta": (str, "0.6", None),
        "m0": (float, 1.0, None),
        **_COMMON,
    }),
    "convergence": (_cmd_convergence, "measured convergence order", {
        "preset": (str, "oscillator", None),
        "method": _METHOD,
        "n_index": (int, 0, None),
        **_COMMON,
    }),
}


def _resolve_config(command: str, args: argparse.Namespace) -> dict[str, Any]:
    """defaults < config file < explicitly set flags; float values must be finite."""
    options = COMMANDS[command][2]
    config = {"command": command, **{key: default for key, (_, default, _) in options.items()}}
    if args.config:
        _bind("presets")
        kinds = {key: kind for key, (kind, _, _) in options.items()}
        config.update(parse_kv_file(args.config, kinds, "config"))
    flags = vars(args)
    config.update({key: flags[key] for key in options if flags[key] is not None})
    for key, value in config.items():
        if isinstance(value, float):
            _check_finite(f"option {key!r}", value)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsse",
        description="Stationary eigenproblem solvers with a relativistic "
        "binding-energy correction and matter-wave demonstrations.",
    )
    parser.add_argument("--version", action="version", version=f"rsse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help, options) in COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for key, (kind, _, option_help) in options.items():
            if key == "format":  # --config goes before the flags every command shares
                p.add_argument("--config", help="flat key=value config file; flags override it")
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                type=None if choices else kind,
                choices=choices,
                help=option_help,
            )
    return parser


# argparse parses without changing the parser, so one per process serves
# every ``main`` call; ``build_parser`` itself still returns a fresh one
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](_resolve_config(args.command, args))
    except (RuntimeError, ValueError, OSError) as exc:
        # imported on a failure only, so a command that needs no rsse.problem loads none
        from .problem import ConvergenceError, WrongStateError

        if isinstance(exc, ConvergenceError):
            print(f"rsse: convergence failure: {exc}", file=sys.stderr)
            return 3
        if isinstance(exc, WrongStateError):
            # a numerical failure, although the class subclasses ValueError
            print(f"rsse: numerical failure: {exc}", file=sys.stderr)
            return 3
        if isinstance(exc, RuntimeError):
            raise
        print(f"rsse: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
