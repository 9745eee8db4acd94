"""Unit systems and physical constants.

Everything numerical in this package runs in Hartree atomic units
(hbar = m_e = e = 1, c = 1/alpha); other energy units appear only at
I/O boundaries through :func:`convert_energy`.
"""

from __future__ import annotations

from dataclasses import dataclass

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
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive, got {value}")

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
