"""Named solver presets: a physical problem plus reference grids.

Built-in presets cover the shipped benchmark systems; a directory of flat
``key = value`` files named by the RSSE_PRESET_DIR environment variable
(or passed explicitly) can add new presets or override built-in ones.
All benchmark tolerances quoted in the test-suite refer to these grids.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .eigensolver import GridSpec, PotentialSpec, RadialProblem, reduce_two_body
from .units import PROTON_ELECTRON_MASS_RATIO

PRESET_DIR_ENV = "RSSE_PRESET_DIR"


@dataclass(frozen=True)
class SolverPreset:
    name: str
    problem: RadialProblem
    fd_grid: GridSpec
    numerov_grid: GridSpec
    description: str = ""


def builtin_presets() -> dict[str, SolverPreset]:
    hydrogen = SolverPreset(
        name="hydrogen",
        problem=RadialProblem(PotentialSpec.coulomb(1.0)),
        fd_grid=GridSpec(1e-4, 30.0, 2000),
        numerov_grid=GridSpec(1e-5, 40.0, 20000),
        description="electron in a fixed unit-charge Coulomb field",
    )
    presets = {
        "hydrogen": hydrogen,
        # generic Coulomb alias, same reference grids
        "coulomb": SolverPreset(
            name="coulomb",
            problem=hydrogen.problem,
            fd_grid=hydrogen.fd_grid,
            numerov_grid=hydrogen.numerov_grid,
            description="alias of the hydrogen preset",
        ),
        "hydrogen_finite_mass": SolverPreset(
            name="hydrogen_finite_mass",
            problem=reduce_two_body(1.0, PROTON_ELECTRON_MASS_RATIO, PotentialSpec.coulomb(1.0)),
            fd_grid=GridSpec(1e-4, 30.0, 2000),
            numerov_grid=GridSpec(1e-5, 40.0, 20000),
            description="hydrogen with the proton mass kept finite",
        ),
        "positronium": SolverPreset(
            name="positronium",
            problem=reduce_two_body(1.0, 1.0, PotentialSpec.coulomb(1.0)),
            fd_grid=GridSpec(1e-4, 60.0, 4000),
            numerov_grid=GridSpec(1e-5, 80.0, 32000),
            description="electron-positron bound state (mu = 1/2)",
        ),
        "oscillator": SolverPreset(
            name="oscillator",
            problem=RadialProblem(
                potential=PotentialSpec.harmonic(1.0), l=0, mu=1.0, M=1.0
            ),
            fd_grid=GridSpec(-12.0, 12.0, 3000),
            numerov_grid=GridSpec(-12.0, 12.0, 6000),
            description="unit-frequency harmonic oscillator on the full line",
        ),
    }
    return presets


def parse_kv_file(path: Path | str) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment line."""
    pairs: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def _preset_from_pairs(name: str, pairs: dict[str, str]) -> SolverPreset:
    kind = pairs.get("potential", "coulomb")
    if kind == "coulomb":
        potential = PotentialSpec.coulomb(float(pairs.get("Z", "1")))
    elif kind == "harmonic":
        potential = PotentialSpec.harmonic(float(pairs.get("omega", "1")))
    else:
        raise ValueError(f"preset {name!r}: unsupported potential {kind!r}")
    problem = RadialProblem(
        potential=potential,
        l=int(pairs.get("l", "0")),
        mu=float(pairs.get("mu", "1")),
        M=float(pairs.get("M", pairs.get("mu", "1"))),
    )
    fd_grid = GridSpec(
        float(pairs["fd_r_min"]), float(pairs["fd_r_max"]), int(pairs["fd_n"])
    )
    numerov_grid = GridSpec(
        float(pairs.get("numerov_r_min", pairs["fd_r_min"])),
        float(pairs.get("numerov_r_max", pairs["fd_r_max"])),
        int(pairs.get("numerov_n", pairs["fd_n"])),
    )
    return SolverPreset(
        name=name,
        problem=problem,
        fd_grid=fd_grid,
        numerov_grid=numerov_grid,
        description=pairs.get("description", f"loaded from {name}.conf"),
    )


def load_presets(preset_dir: str | None = None) -> dict[str, SolverPreset]:
    """Built-in presets, extended/overridden by *.conf files if a directory is set."""
    presets = builtin_presets()
    directory = preset_dir if preset_dir is not None else os.environ.get(PRESET_DIR_ENV)
    if directory:
        for path in sorted(Path(directory).glob("*.conf")):
            name = path.stem
            presets[name] = _preset_from_pairs(name, parse_kv_file(path))
    return presets


def get_preset(name: str) -> SolverPreset:
    """The preset called ``name`` among :func:`load_presets`."""
    presets = load_presets()
    if name not in presets:
        known = ", ".join(sorted(presets))
        raise ValueError(f"unknown preset {name!r}; valid presets: {known}")
    return presets[name]
