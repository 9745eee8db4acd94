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
from typing import Any

from .problem import _PARAMETERS, GridSpec, PotentialSpec, RadialProblem, reduce_two_body
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


def parse_kv_file(path: Path | str, kinds: dict[str, Any], what: str) -> dict[str, Any]:
    """The typed values of a flat ``key = value`` file; '#' starts a comment line.

    ``kinds`` maps every key the file may set, at most once, to a type, or to
    a tuple of the values it may take; ``what`` names the kind of file in the
    errors, each of which names the file once.
    """
    values: dict[str, Any] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: expected 'key = value', got {raw!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise ValueError(f"{path}: unknown {what} key {key!r}")
        kind = kinds[key]
        if isinstance(kind, tuple):
            if text not in kind:
                choices = ", ".join(map(repr, kind))
                raise ValueError(
                    f"{path}: {what} key {key!r}: invalid choice: {text!r} (choose from {choices})"
                )
            value = text
        else:
            try:
                value = kind(text)
            except ValueError:
                raise ValueError(
                    f"{path}: {what} key {key!r}: invalid {kind.__name__} value: {text!r}"
                ) from None
        if key in values:
            raise ValueError(f"{path}: {what} key {key!r} is set twice")
        values[key] = value
    return values


# the parameters of every potential kind, from the table that checks them
_POTENTIAL_KEYS = tuple(dict.fromkeys(name for kind in _PARAMETERS.values() for name, _ in kind))

# every key a preset .conf file may set, with its type
_PRESET_KEYS = {
    "potential": str, **dict.fromkeys(_POTENTIAL_KEYS, float), "l": int, "mu": float, "M": float,
    "fd_r_min": float, "fd_r_max": float, "fd_n": int,
    "numerov_r_min": float, "numerov_r_max": float, "numerov_n": int, "description": str,
}


def _preset_from_file(path: Path) -> SolverPreset:
    """The preset of one .conf file; every error names the file."""
    values = parse_kv_file(path, _PRESET_KEYS, "preset")
    try:
        # the FD grid has no default, and the Numerov grid falls back on it
        for key in ("fd_r_min", "fd_r_max", "fd_n"):
            if key not in values:
                raise ValueError(f"missing preset key {key!r}")
        kind = values.get("potential", "coulomb")
        # a flat file has no format for tabulated samples
        if kind not in _PARAMETERS or kind == "tabulated":
            raise ValueError(f"unsupported potential {kind!r}")
        # PotentialSpec.infinite_well(a) places no wall, so a width would be ignored
        if kind == "infinite_well" and "a" in values:
            raise ValueError(
                "infinite_well takes no 'a' in a preset file: the grid ends are the walls"
            )
        # the kind's own parameters default to 1; any other one given is
        # passed on, so that PotentialSpec rejects it by name
        own = {name for name, _ in _PARAMETERS[kind]}
        parameters = {
            name: values.get(name, 1.0) for name in _POTENTIAL_KEYS if name in own or name in values
        }
        problem = RadialProblem(
            potential=PotentialSpec(kind=kind, **parameters),
            l=values.get("l", 0),
            mu=values.get("mu", 1.0),
            M=values.get("M", values.get("mu", 1.0)),
        )
        fd_grid = GridSpec(values["fd_r_min"], values["fd_r_max"], values["fd_n"])
        numerov_grid = GridSpec(
            *(values.get("numerov_" + key, values["fd_" + key]) for key in ("r_min", "r_max", "n"))
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return SolverPreset(
        name=path.stem,
        problem=problem,
        fd_grid=fd_grid,
        numerov_grid=numerov_grid,
        description=values.get("description", f"loaded from {path.name}"),
    )


def _preset_files(preset_dir: str | None = None) -> dict[str, Path]:
    """The .conf files of the preset directory, by preset name."""
    directory = preset_dir if preset_dir is not None else os.environ.get(PRESET_DIR_ENV)
    if not directory:
        return {}
    return {path.stem: path for path in sorted(Path(directory).glob("*.conf"))}


def load_presets(preset_dir: str | None = None) -> dict[str, SolverPreset]:
    """Built-in presets, extended/overridden by *.conf files if a directory is set."""
    presets = builtin_presets()
    for name, path in _preset_files(preset_dir).items():
        presets[name] = _preset_from_file(path)
    return presets


def get_preset(name: str) -> SolverPreset:
    """The preset called ``name``: its .conf file if the preset directory has one, else built in.

    Only that one file is parsed, so a bad file breaks its own preset and
    no other.
    """
    files = _preset_files()
    if name in files:
        return _preset_from_file(files[name])
    presets = builtin_presets()
    if name not in presets:
        known = ", ".join(sorted({*presets, *files}))
        raise ValueError(f"unknown preset {name!r}; valid presets: {known}")
    return presets[name]
