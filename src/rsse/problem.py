"""The description of one eigenproblem: potential, grid, masses and units.

These are the inputs of both solvers in :mod:`rsse.eigensolver` and of the
analytic levels in :mod:`rsse.spectra`, together with the errors the
solvers raise.  The module imports no numpy: only
:meth:`PotentialSpec.evaluate` and :meth:`GridSpec.nodes` make arrays, and
they import it when called, so the analytic commands (``kinematics``,
``invert-demo``, ``compare``) start without numpy or scipy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

from .units import ATOMIC, UnitSystem, _check_index, _check_positive, _value_class

if TYPE_CHECKING:
    import numpy as np


class ConvergenceError(RuntimeError):
    """An iterative eigenvalue search failed to reach its tolerance."""


class BracketError(ValueError):
    """The matching function has no sign change over the supplied bracket.

    rsse no longer raises it: the Numerov search stops when its correction
    or its bracket falls to 1e-12 relative, and node counts report a bracket
    without the target state as :class:`WrongStateError`.  It stays in the
    public API so that code catching it keeps working.
    """


class WrongStateError(ValueError):
    """Node counting shows the bracket or the converged state is not the target."""


# the parameters each kind needs, with the labels their errors name them by;
# a kind takes no other field, and only ``tabulated`` takes the samples
_PARAMETERS = {
    "harmonic": (("omega", "harmonic frequency"),),
    "coulomb": (("Z", "coulomb charge"),),
    "finite_well": (("V0", "finite well depth V0"), ("a", "finite well half-width a")),
    "infinite_well": (("a", "well width"),),
    "tabulated": (),
}


@_value_class
class PotentialSpec:
    """One of the supported interaction potentials.

    The constructor checks the parameters that each kind needs and rejects
    the ones it does not use, so one potential has one spec; the factory
    methods are shorthands for it.
    """

    kind: str
    omega: Optional[float] = None
    Z: Optional[float] = None
    V0: Optional[float] = None
    a: Optional[float] = None
    r_samples: Optional[tuple] = None
    V_samples: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.kind not in _PARAMETERS:
            raise ValueError(
                f"unknown potential kind {self.kind!r}; expected one of {tuple(_PARAMETERS)}"
            )
        for name, label in _PARAMETERS[self.kind]:
            _check_positive(label, getattr(self, name))
        used = {"kind"} | {name for name, _ in _PARAMETERS[self.kind]}
        if self.kind == "tabulated":
            used |= {"r_samples", "V_samples"}
        for name in self._fields:
            value = getattr(self, name)
            if name not in used and value is not None:
                raise ValueError(f"{self.kind} potential takes no {name}, got {value!r}")
        if self.kind == "tabulated":
            for name in ("r_samples", "V_samples"):  # tuples keep every spec hashable
                if getattr(self, name) is not None:
                    object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
            r, v = self.r_samples, self.V_samples
            if r is None or v is None or len(r) != len(v) or len(r) < 2:
                raise ValueError("tabulated potential needs matching r and V samples (>= 2)")
            if not all(map(math.isfinite, r + v)):
                raise ValueError("tabulated samples must be finite")
            if any(b <= a for a, b in zip(r, r[1:])):
                raise ValueError("tabulated r samples must be strictly increasing")

    @staticmethod
    def harmonic(omega: float) -> "PotentialSpec":
        return PotentialSpec(kind="harmonic", omega=omega)

    @staticmethod
    def coulomb(Z: float) -> "PotentialSpec":
        return PotentialSpec(kind="coulomb", Z=Z)

    @staticmethod
    def finite_well(V0: float, a: float) -> "PotentialSpec":
        return PotentialSpec(kind="finite_well", V0=V0, a=a)

    @staticmethod
    def infinite_well(a: float) -> "PotentialSpec":
        """Zero potential between hard walls that are the grid ends.

        ``a`` is validated and stored but places no wall: the Dirichlet
        boundary at ``r_min`` and ``r_max`` of the solving grid does.
        """
        return PotentialSpec(kind="infinite_well", a=a)

    @staticmethod
    def tabulated(r_samples: Sequence[float], V_samples: Sequence[float]) -> "PotentialSpec":
        return PotentialSpec(kind="tabulated", r_samples=r_samples, V_samples=V_samples)

    @property
    def singular_at_origin(self) -> bool:
        return self.kind == "coulomb"

    def evaluate(self, r: np.ndarray, mu: float = 1.0) -> np.ndarray:
        """Potential values on the given radii (hartree)."""
        import numpy as np

        r = np.asarray(r, dtype=float)
        if self.kind == "harmonic":
            return 0.5 * mu * (self.omega * self.omega) * r * r
        if self.kind == "coulomb":
            return -self.Z / r
        if self.kind == "finite_well":
            return np.where(np.abs(r) < self.a, -self.V0, 0.0)
        if self.kind == "infinite_well":
            # walls live in the Dirichlet boundary, not in V
            return np.zeros_like(r)
        return np.interp(r, self.r_samples, self.V_samples)

    def asymptote(self) -> float:
        """lim V(r -> infinity); bound states must lie below this."""
        if self.kind in ("harmonic", "infinite_well"):
            return math.inf
        if self.kind == "tabulated":
            return self.V_samples[-1]
        return 0.0


@_value_class
class GridSpec:
    """Uniform grid with n nodes on [r_min, r_max]."""

    r_min: float
    r_max: float
    n: int

    def __post_init__(self) -> None:
        if not -math.inf < self.r_min < self.r_max < math.inf:
            raise ValueError(f"need finite r_min < r_max, got [{self.r_min}, {self.r_max}]")
        _check_index("grid node count n", self.n, 16)
        # the span can overflow, and its n - 1 steps underflow, between finite ends
        _check_positive("grid spacing h", self.h)

    @property
    def h(self) -> float:
        return (self.r_max - self.r_min) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        import numpy as np

        return np.linspace(self.r_min, self.r_max, self.n)


@_value_class
class RadialProblem:
    """Potential, angular momentum and masses defining one eigenproblem.

    ``mu`` is the mass in the kinetic term; ``M`` is the summed rest mass of
    the constituents (equal to mu for a single particle in an external
    potential, and at most M/2 after a two-body reduction).
    """

    potential: PotentialSpec
    l: int = 0
    mu: float = 1.0
    M: float = 1.0
    units: UnitSystem = ATOMIC

    def __post_init__(self) -> None:
        _check_positive("reduced mass", self.mu)
        _check_positive("total rest mass", self.M)
        _check_index("angular momentum l", self.l, 0)
        if self.mu != self.M and self.mu > 0.5 * self.M * (1.0 + 1e-12):
            raise ValueError(
                f"mu = {self.mu} is inconsistent: a two-body reduced mass is at most "
                f"M/2 = {0.5 * self.M} (single particles have mu = M)"
            )


def reduce_two_body(
    m1: float,
    m2: float,
    potential: PotentialSpec,
    l: int = 0,
    units: UnitSystem = ATOMIC,
) -> RadialProblem:
    """Reduce two interacting masses to an effective one-body radial problem."""
    _check_positive("mass m1", m1)
    _check_positive("mass m2", m2)
    return RadialProblem(potential, l=l, mu=m1 * m2 / (m1 + m2), M=m1 + m2, units=units)


def effective_potential(problem: RadialProblem, r: np.ndarray) -> np.ndarray:
    """V(r) plus the centrifugal term hbar**2 l(l+1) / (2 mu r**2)."""
    v = problem.potential.evaluate(r, problem.mu)
    if problem.l > 0:
        hbar = problem.units.hbar
        v = v + hbar * hbar * problem.l * (problem.l + 1) / (2.0 * problem.mu * r * r)
    return v


def _check_origin(problem: RadialProblem, grid: GridSpec) -> None:
    if (problem.potential.singular_at_origin or problem.l > 0) and grid.r_min <= 0.0:
        raise ValueError(
            "the effective potential is singular at r = 0; "
            f"choose r_min > 0 (got r_min = {grid.r_min})"
        )


def _check_samples(name: str, samples: np.ndarray, grid: GridSpec) -> None:
    import numpy as np

    shape = np.shape(samples)
    if shape != (grid.n,):  # a column would broadcast a residual to an n x n array
        raise ValueError(f"sample shape mismatch: grid has {grid.n} nodes, {name} has shape {shape}")
    if not np.isfinite(samples).all():
        raise ValueError(f"{name} samples must be finite")
