"""Unit systems and physical constants.

Everything numerical in this package runs in Hartree atomic units
(hbar = m_e = e = 1, c = 1/alpha); other energy units appear only at
I/O boundaries through :func:`convert_energy`.

The module also holds the three rules by which every module checks a scalar:
``_check_positive`` rejects a mass, charge, frequency, energy or unit scale
that is not positive and finite, and ``_check_index`` a count or state
index (n, l, k, n_index, a node count) that is not an integer in its range.
``_check_finite`` rejects an energy, bracket end or float option that is not finite.

``_value_class`` makes every frozen value class of the package.  It stands
in for ``dataclasses``, whose import (which loads ``inspect``) and per-class
processing every command paid for at start-up.
"""

from __future__ import annotations

import math
import operator
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


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _value_class(cls: type) -> type:
    """Make ``cls`` a frozen value class of its annotated fields, in order.

    As ``@dataclass(frozen=True)`` did: ``__init__`` takes the fields
    positionally or by keyword, class attributes are the defaults of the
    trailing fields, and ``__post_init__`` runs last if the class has one;
    instances are equal when their classes are the same and their field
    tuples equal, hash as that tuple and repr as ``Name(field=value, ...)``;
    assignment and deletion raise ``AttributeError``.  ``_replace(**changes)``
    builds a new instance, checks included, and ``_fields`` names the fields.
    Instances keep a ``__dict__``, so copy and pickle need nothing more.
    ``__init__`` is compiled once per class from its source, as
    ``collections.namedtuple`` does.
    """
    fields = tuple(cls.__annotations__)
    getter = operator.attrgetter(*fields)
    values = getter if len(fields) > 1 else lambda self: (getter(self),)
    lines = [f"def __init__(self, {', '.join(fields)}):"]
    lines += [f"    _set(self, {name!r}, {name})" for name in fields]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace: dict = {"_set": object.__setattr__}
    exec("\n".join(lines), namespace)
    init = namespace["__init__"]
    defaults = tuple(cls.__dict__[name] for name in fields if name in cls.__dict__)
    init.__defaults__ = defaults or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values(self)))
        return f"{self.__class__.__qualname__}({pairs})"

    def _replace(self, **changes):
        return self.__class__(**dict(zip(fields, values(self)), **changes))

    cls._fields = fields
    cls.__init__ = init
    cls.__eq__, cls.__hash__, cls.__repr__, cls._replace = __eq__, __hash__, __repr__, _replace
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    return cls


@_value_class
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
