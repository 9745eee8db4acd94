"""Unit systems and physical constants.

Everything numerical in this package runs in Hartree atomic units
(hbar = m_e = e = 1, c = 1/alpha); other energy units appear only at
I/O boundaries through :func:`convert_energy`.

The module also holds the three rules by which every module checks a scalar:
``_check_positive`` rejects a mass, charge, frequency, energy or unit scale
that is not positive and finite, and ``_check_index`` a count or state
index (n, l, k, n_index, a node count) that is not an integer in its range.
``_check_finite`` rejects an energy, bracket end or float option that is not finite.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

# CODATA 2018 values.
FINE_STRUCTURE = 0.0072973525693
HARTREE_EV = 27.211386245988
PROTON_ELECTRON_MASS_RATIO = 1836.15267343

# eV per one unit of each supported energy label.
_EV_PER_UNIT = {
    "hartree": HARTREE_EV,
    "eV": 1.0,
    "MeV": 1.0e6,
}


def _check_positive(what: str, value: Optional[float]) -> None:
    if value is None or not 0.0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {value}")


def _check_finite(what: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        got = values[0] if len(values) == 1 else "(" + ", ".join(map(str, values)) + ")"
        raise ValueError(f"{what} must be finite, got {got}")


def _check_index(what: str, value: int, low: int, high: Optional[int] = None) -> None:
    try:
        operator.index(value)  # numpy integers pass, floats and strings do not
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if high is not None and not low <= value <= high:
        raise ValueError(f"{what} must be in [{low}, {high}], got {value}")
    if value < low:
        bound = "nonnegative" if low == 0 else f"at least {low}"
        raise ValueError(f"{what} must be {bound}, got {value}")


@dataclass(frozen=True)
class UnitSystem:
    """Scale factors that make mechanical formulas dimensionally unambiguous.

    Attributes
    ----------
    hbar : float
        Reduced Planck constant in internal units.
    c : float
        Speed of light in internal units.
    mass_unit : float
        Reference rest mass (the electron mass in atomic units).
    energy_unit_name : str
        Label for energies expressed in this system.
    """

    hbar: float = 1.0
    c: float = 1.0 / FINE_STRUCTURE
    mass_unit: float = 1.0
    energy_unit_name: str = "hartree"

    def __post_init__(self) -> None:
        for name in ("hbar", "c", "mass_unit"):
            _check_positive(name, getattr(self, name))

    @property
    def alpha(self) -> float:
        """Fine-structure constant implied by this system (1/(hbar*c) with e = 1)."""
        return 1.0 / (self.hbar * self.c)


def make_atomic_units() -> UnitSystem:
    """Hartree atomic units: hbar = 1, electron mass = 1, c = 1/alpha (the defaults)."""
    return UnitSystem()


#: Default ``units`` of every function that takes a unit system.
ATOMIC = make_atomic_units()


def convert_energy(value: float, from_unit: str, to_unit: str) -> float:
    """Convert an energy between the labels hartree, eV and MeV.

    Raises ``ValueError`` naming the offending label if either unit is
    unknown.  Round trips are exact to a few ulp.
    """
    for label in (from_unit, to_unit):
        if label not in _EV_PER_UNIT:
            known = ", ".join(sorted(_EV_PER_UNIT))
            raise ValueError(f"unknown energy unit {label!r}; expected one of: {known}")
    if from_unit == to_unit:
        return value
    return value * (_EV_PER_UNIT[from_unit] / _EV_PER_UNIT[to_unit])
