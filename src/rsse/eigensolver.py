"""Bound-state solvers for the stationary equation H psi = eps psi.

Two independent routes are provided for the radial/1-D problem

    -(hbar**2 / 2 mu) u''(r) + V_eff(r) u(r) = eps u(r),   u = 0 at both ends,

with V_eff = V + hbar**2 l(l+1) / (2 mu r**2):

* a symmetric tridiagonal second-difference discretization whose lowest
  eigenpairs are extracted by Sturm-sequence bisection plus inverse
  iteration (LAPACK, via ``scipy.linalg.eigh_tridiagonal``), and
* a Numerov shooting method with outward/inward integration, node
  counting and matching on the Numerov recurrence residual at the outer
  classical turning point, accurate to fourth order.  Each sweep solves the
  three-term recurrence as a lower-banded triangular system with LAPACK
  (``dtbtrs``), in chunks between which the samples are rescaled by a power
  of two so that they neither overflow nor lose their signs.

Grids are uniform.  Coulomb-type problems use the reduced radial function
u(r) = r R(r) and require r_min > 0.

scipy is imported inside the solver functions (``solve_lowest_k``,
``default_brackets``, ``_numerov_sweep``, ``numerov_solve``), not at module
level: every rsse module imports this one, and the analytic commands
(``kinematics``, ``invert-demo``, ``compare``) then start on numpy alone,
without the ~0.3 s import of ``scipy.linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .units import ATOMIC, UnitSystem


class ConvergenceError(RuntimeError):
    """An iterative eigenvalue search failed to reach its tolerance."""


class BracketError(ValueError):
    """The matching function has no sign change over the supplied bracket."""


class WrongStateError(ValueError):
    """Node counting shows the bracket or the converged state is not the target."""


# ---------------------------------------------------------------------------
# problem description
# ---------------------------------------------------------------------------

_POTENTIAL_KINDS = ("harmonic", "coulomb", "finite_well", "infinite_well", "tabulated")


@dataclass(frozen=True)
class PotentialSpec:
    """One of the supported interaction potentials.

    Use the factory methods rather than the raw constructor; they validate
    the parameters that each kind actually needs.
    """

    kind: str
    omega: Optional[float] = None
    Z: Optional[float] = None
    V0: Optional[float] = None
    a: Optional[float] = None
    r_samples: Optional[tuple] = None
    V_samples: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.kind not in _POTENTIAL_KINDS:
            raise ValueError(
                f"unknown potential kind {self.kind!r}; expected one of {_POTENTIAL_KINDS}"
            )

    @staticmethod
    def harmonic(omega: float) -> "PotentialSpec":
        if not omega > 0.0:
            raise ValueError(f"harmonic frequency must be positive, got {omega}")
        return PotentialSpec(kind="harmonic", omega=omega)

    @staticmethod
    def coulomb(Z: float) -> "PotentialSpec":
        if not Z > 0.0:
            raise ValueError(f"coulomb charge must be positive, got {Z}")
        return PotentialSpec(kind="coulomb", Z=Z)

    @staticmethod
    def finite_well(V0: float, a: float) -> "PotentialSpec":
        if not (V0 > 0.0 and a > 0.0):
            raise ValueError(f"finite well needs V0 > 0 and a > 0, got V0={V0}, a={a}")
        return PotentialSpec(kind="finite_well", V0=V0, a=a)

    @staticmethod
    def infinite_well(a: float) -> "PotentialSpec":
        """Zero potential between hard walls that are the grid ends.

        ``a`` is validated and stored but places no wall: the Dirichlet
        boundary at ``r_min`` and ``r_max`` of the solving grid does.
        """
        if not a > 0.0:
            raise ValueError(f"well width must be positive, got {a}")
        return PotentialSpec(kind="infinite_well", a=a)

    @staticmethod
    def tabulated(r_samples: Sequence[float], V_samples: Sequence[float]) -> "PotentialSpec":
        r = tuple(float(x) for x in r_samples)
        v = tuple(float(x) for x in V_samples)
        if len(r) != len(v) or len(r) < 2:
            raise ValueError("tabulated potential needs matching r and V samples (>= 2)")
        if any(b <= a for a, b in zip(r, r[1:])):
            raise ValueError("tabulated r samples must be strictly increasing")
        return PotentialSpec(kind="tabulated", r_samples=r, V_samples=v)

    @property
    def singular_at_origin(self) -> bool:
        return self.kind == "coulomb"

    def evaluate(self, r: np.ndarray, mu: float = 1.0) -> np.ndarray:
        """Potential values on the given radii (hartree)."""
        r = np.asarray(r, dtype=float)
        if self.kind == "harmonic":
            return 0.5 * mu * self.omega**2 * r * r
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
        if self.kind == "harmonic":
            return math.inf
        if self.kind == "tabulated":
            return self.V_samples[-1]
        if self.kind == "infinite_well":
            return math.inf
        return 0.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with n nodes on [r_min, r_max]."""

    r_min: float
    r_max: float
    n: int

    def __post_init__(self) -> None:
        if not self.r_min < self.r_max:
            raise ValueError(f"need r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if self.n < 16:
            raise ValueError(f"grid needs at least 16 nodes, got {self.n}")

    @property
    def h(self) -> float:
        return (self.r_max - self.r_min) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n)


@dataclass(frozen=True)
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
        if not self.mu > 0.0:
            raise ValueError(f"reduced mass must be positive, got {self.mu}")
        if not self.M > 0.0:
            raise ValueError(f"total rest mass must be positive, got {self.M}")
        if self.l < 0:
            raise ValueError(f"angular momentum must be nonnegative, got {self.l}")
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
    if not (m1 > 0.0 and m2 > 0.0):
        raise ValueError(f"masses must be positive, got {m1}, {m2}")
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


# ---------------------------------------------------------------------------
# finite-difference route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal discretization of H on the interior nodes."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    grid: GridSpec
    problem: RadialProblem

    @property
    def dim(self) -> int:
        return self.diagonal.shape[0]

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Matrix-vector product on an interior-node vector."""
        out = self.diagonal * u
        out[:-1] += self.off_diagonal * u[1:]
        out[1:] += self.off_diagonal * u[:-1]
        return out

    def todense(self) -> np.ndarray:
        dense = np.diag(self.diagonal)
        dense += np.diag(self.off_diagonal, 1)
        dense += np.diag(self.off_diagonal, -1)
        return dense


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues, normalized wavefunction samples and solver diagnostics.

    ``degenerate[i]`` marks states whose gap to an adjacent reported
    eigenvalue is below 1e-12 hartree; such states are kept in index order
    with no symmetry-based tie-breaking.
    """

    epsilons: np.ndarray
    wavefunctions: np.ndarray  # shape (n_states, grid.n), zero at both ends
    residuals: np.ndarray
    method: str
    grid: GridSpec
    nodes: np.ndarray
    degenerate: np.ndarray


DEGENERACY_GAP = 1e-12  # hartree


def _eigen_result(
    epsilons: np.ndarray, wavefunctions: np.ndarray, residuals: np.ndarray, method: str,
    grid: GridSpec,
) -> EigenResult:
    """The :class:`EigenResult` of either route.

    Node counts and degeneracy flags are derived here, once for both routes.
    """
    degenerate = np.zeros(epsilons.shape[0], dtype=bool)
    close = np.abs(np.diff(epsilons)) < DEGENERACY_GAP
    degenerate[:-1] |= close
    degenerate[1:] |= close
    return EigenResult(
        epsilons=epsilons,
        wavefunctions=wavefunctions,
        residuals=residuals,
        method=method,
        grid=grid,
        nodes=np.array([count_sign_changes(u[1:-1]) for u in wavefunctions], dtype=int),
        degenerate=degenerate,
    )


def assemble_tridiagonal(problem: RadialProblem, grid: GridSpec) -> TridiagonalOperator:
    """Second-difference Hamiltonian with Dirichlet boundaries.

    Diagonal entries are hbar**2/(mu h**2) + V_eff(r_i) on the interior
    nodes; off-diagonal entries are -hbar**2/(2 mu h**2).
    """
    _check_origin(problem, grid)
    r = grid.nodes()
    h = grid.h
    hbar = problem.units.hbar
    kinetic = hbar * hbar / (problem.mu * h * h)
    diagonal = kinetic + effective_potential(problem, r[1:-1])
    off = np.full(grid.n - 3, -0.5 * kinetic)
    return TridiagonalOperator(diagonal=diagonal, off_diagonal=off, grid=grid, problem=problem)


def _fix_sign(u: np.ndarray) -> np.ndarray:
    """Deterministic overall sign: first significant sample is positive."""
    magnitude = np.abs(u)
    significant = np.nonzero(magnitude > 1e-3 * magnitude.max())[0]
    if significant.size and u[significant[0]] < 0.0:
        return -u
    return u


def _trapezoid(y: np.ndarray, h: float) -> float:
    """Trapezoid rule on uniform samples, the same sum as scipy's ``trapezoid(y, dx=h)``."""
    return float(np.sum(h * (y[1:] + y[:-1]) / 2.0))


def _normalize(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    norm_sq = _trapezoid(u * u, grid.h)
    if norm_sq <= 0.0:
        raise ValueError("cannot normalize a zero wavefunction")
    return u / math.sqrt(norm_sq)


def solve_lowest_k(operator: TridiagonalOperator, k: int) -> EigenResult:
    """Lowest k eigenpairs of the tridiagonal operator.

    Eigenvalues come from Sturm-sequence bisection and eigenvectors from
    inverse iteration (LAPACK stebz/stein).  Wavefunctions are returned on
    the full grid, zero at both ends, trapezoid-normalized, with a
    deterministic sign convention.
    """
    if not 1 <= k <= operator.dim:
        raise ValueError(f"k must be in [1, {operator.dim}], got {k}")
    from scipy.linalg import eigh_tridiagonal

    epsilons, vectors = eigh_tridiagonal(
        operator.diagonal, operator.off_diagonal, select="i", select_range=(0, k - 1)
    )
    grid = operator.grid
    wavefunctions = np.zeros((k, grid.n))
    residuals = np.empty(k)
    for i in range(k):
        v = vectors[:, i]
        residuals[i] = np.max(np.abs(operator.apply(v) - epsilons[i] * v)) / np.max(np.abs(v))
        wavefunctions[i, 1:-1] = v
        wavefunctions[i] = _normalize(_fix_sign(wavefunctions[i]), grid)
    return _eigen_result(epsilons, wavefunctions, residuals, "fd", grid)


# ---------------------------------------------------------------------------
# Numerov route
# ---------------------------------------------------------------------------


# rows of the banded system solved per LAPACK call; halved while a chunk
# overflows, so a chunk starting at 2**600 may grow by up to 2**424
_SWEEP_CHUNK = 4096
_RESCALE_ABOVE = 2.0**600


def _numerov_sweep(f: np.ndarray, h: float, u0: float, u1: float) -> np.ndarray:
    """Integrate u'' = f u left to right with the Numerov three-term recurrence.

    With t = h**2 f / 12 the recurrence

        (1 - t[i]) u[i] - (2 + 10 t[i-1]) u[i-1] + (1 - t[i-2]) u[i-2] = 0

    is a lower-triangular banded system of bandwidth 2 in the unknowns
    u[2:], solved chunk by chunk with LAPACK ``dtbtrs``; the first two
    right-hand-side rows of a chunk carry the last two samples before it.
    Between chunks the prefix is renormalised (B. R. Johnson, J. Chem. Phys.
    69, 4678 (1978)): once the last two samples pass 2**600 it is scaled by
    a power of two, which is exact and keeps every sign bit, also where
    samples underflow to +-0.  A chunk that overflows is retried at half the
    length.

    Raises
    ------
    ConvergenceError
        If LAPACK reports a zero diagonal (1 - t = 0) or a single row still
        overflows.
    """
    from scipy.linalg.lapack import dtbtrs

    n = f.shape[0]
    t = (h * h / 12.0) * f
    u = np.empty(n)
    u[0] = u0
    u[1] = u1
    start = 2
    chunk = _SWEEP_CHUNK
    with np.errstate(over="ignore", invalid="ignore"):
        while start < n:
            stop = min(start + chunk, n)
            # band storage of the chunk's columns: diagonal, then the two
            # subdiagonals; Fortran order goes to LAPACK without a copy
            ab = np.empty((3, stop - start), order="F")
            ab[0] = 1.0 - t[start:stop]
            ab[1] = -(2.0 + 10.0 * t[start:stop])
            ab[2] = ab[0]
            b = np.zeros(stop - start)
            b[0] = (2.0 + 10.0 * t[start - 1]) * u[start - 1] - (1.0 - t[start - 2]) * u[start - 2]
            if b.shape[0] > 1:
                b[1] = -(1.0 - t[start - 1]) * u[start - 1]
            x, info = dtbtrs(ab, b, uplo="L", overwrite_b=1)
            if info != 0:
                raise ConvergenceError(
                    f"Numerov sweep is singular at sample {start + info - 1}: 1 - h^2 f / 12 = 0"
                )
            if not np.isfinite(x).all():
                if chunk == 1:
                    raise ConvergenceError(
                        f"Numerov sweep overflows within one step at sample {start}"
                    )
                chunk //= 2
                continue
            u[start:stop] = x
            start = stop
            peak = max(abs(u[stop - 2]), abs(u[stop - 1]))
            if peak > _RESCALE_ABOVE:
                u[:stop] = np.ldexp(u[:stop], -math.frexp(peak)[1])
    return u


def count_sign_changes(u: np.ndarray) -> int:
    """Sign changes between neighbouring samples, read from the sign bits.

    Samples that underflowed to +-0 in a rescale keep their sign, so their
    nodes still count.  Callers slice off boundary samples that are zero by
    construction.
    """
    sign = np.signbit(u)
    return int(np.count_nonzero(sign[:-1] != sign[1:]))


class NumerovResult(NamedTuple):
    epsilon: float
    wavefunction: np.ndarray


class _Shooter:
    """Shared machinery for one Numerov eigenvalue search."""

    def __init__(self, problem: RadialProblem, grid: GridSpec):
        _check_origin(problem, grid)
        self.grid = grid
        self.h = grid.h
        self.r = grid.nodes()
        hbar = problem.units.hbar
        self.pref = 2.0 * problem.mu / (hbar * hbar)
        self.veff = effective_potential(problem, self.r)
        self.f_base = self.pref * self.veff
        # power-law start for problems that exclude the origin, plain
        # Dirichlet start otherwise
        if grid.r_min > 0.0 and (problem.potential.singular_at_origin or problem.l > 0):
            lp1 = problem.l + 1
            self.start_out = (self.r[0] ** lp1, self.r[1] ** lp1)
        else:
            self.start_out = (0.0, 1.0)
        self.start_in = (0.0, 1.0)
        # brentq re-evaluates the bracket ends, so remember each defect.  The
        # root it returns is one end of its final bracket, which is the
        # latest energy tried with that sign of the defect: keeping the
        # latest merge per sign saves sweeping the root again.
        self._defects: dict[float, float] = {}
        self._latest_merged: dict[bool, tuple[float, np.ndarray]] = {}

    def f_values(self, epsilon: float) -> np.ndarray:
        return self.f_base - self.pref * epsilon

    def count_states_below(self, epsilon: float) -> int:
        """Nodes of the full outward solution = number of eigenvalues below."""
        u = _numerov_sweep(self.f_values(epsilon), self.h, *self.start_out)
        # index 0 may be an exact zero of the start; the far end has no wall
        return count_sign_changes(u[1:])

    def match_index(self, epsilon: float) -> int:
        """Outermost classical turning point, clipped to the interior."""
        diff = self.veff - epsilon
        crossings = np.nonzero(diff[:-1] * diff[1:] < 0.0)[0]
        m = int(crossings[-1]) if crossings.size else self.grid.n // 2
        return min(max(m, 2), self.grid.n - 3)

    def merged_solution(self, epsilon: float) -> tuple[np.ndarray, float]:
        """Outward/inward solutions joined at the turning point.

        Returns the merged samples and the normalized matching defect: the
        residual of the Numerov recurrence at the match point, which
        vanishes exactly at an eigenvalue and changes sign across it.
        """
        f = self.f_values(epsilon)
        m = self.match_index(epsilon)
        # a node can sit exactly on the match point; nudge inward if so
        for _ in range(3):
            u_out = _numerov_sweep(f[: m + 2], self.h, *self.start_out)
            u_in = _numerov_sweep(f[m - 1 :][::-1], self.h, *self.start_in)[::-1]
            if u_out[m] != 0.0 and u_in[1] != 0.0:
                break
            m -= 1
        c = self.h * self.h / 12.0
        scale = u_out[m] / u_in[1]  # u_in spans indices m-1 .. n-1
        merged = np.concatenate([u_out[: m + 1], scale * u_in[2:]])
        t = c * f[m - 1 : m + 2]
        defect = (
            (1.0 - t[2]) * scale * u_in[2]
            + (1.0 - t[0]) * u_out[m - 1]
            - (2.0 + 10.0 * t[1]) * u_out[m]
        )
        reference = max(abs(u_out[m - 1]), abs(u_out[m]), abs(scale * u_in[2]))
        return merged, defect / reference if reference > 0.0 else defect

    def defect(self, epsilon: float) -> float:
        """Matching defect of :meth:`merged_solution`, evaluated once per energy."""
        value = self._defects.get(epsilon)
        if value is None:
            merged, value = self.merged_solution(epsilon)
            self._defects[epsilon] = value
            self._latest_merged[value < 0.0] = (epsilon, merged)
        return value

    def solution(self, epsilon: float) -> np.ndarray:
        """Merged samples at ``epsilon``, reusing a kept merge when one matches."""
        for kept, merged in self._latest_merged.values():
            if kept == epsilon:
                return merged
        return self.merged_solution(epsilon)[0]


def numerov_solve(
    problem: RadialProblem,
    grid: GridSpec,
    n_index: int,
    bracket: tuple[float, float],
) -> NumerovResult:
    """Locate the eigenvalue with ``n_index`` interior nodes inside ``bracket``.

    The bracket is first narrowed by bisection on outward node counts until
    it isolates the target state, then the matching defect is driven to zero
    by Brent's method (``scipy.optimize.brentq``) to 1e-12 relative
    tolerance.  The returned wavefunction has exactly ``n_index`` interior
    nodes and unit trapezoid norm.

    Raises
    ------
    WrongStateError
        If node counting shows the bracket does not contain the target
        state, or the converged state has the wrong node count.
    BracketError
        If the matching defect has no sign change on the isolated interval.
    ConvergenceError
        If the eigenvalue iteration stalls before reaching tolerance.
    """
    if n_index < 0:
        raise ValueError(f"n_index must be nonnegative, got {n_index}")
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got ({lo}, {hi})")

    shooter = _Shooter(problem, grid)
    n_lo = shooter.count_states_below(lo)
    n_hi = shooter.count_states_below(hi)
    if n_lo > n_index or n_hi <= n_index:
        raise WrongStateError(
            f"bracket ({lo}, {hi}) holds states {n_lo}..{n_hi - 1}; "
            f"target state {n_index} is outside it"
        )

    # narrow until exactly the target eigenvalue lies inside
    while n_lo < n_index or n_hi > n_index + 1:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # pragma: no cover - fp exhaustion
            break
        n_mid = shooter.count_states_below(mid)
        if n_mid <= n_index:
            lo, n_lo = mid, n_mid
        else:
            hi, n_hi = mid, n_mid

    f_lo = shooter.defect(lo)
    f_hi = shooter.defect(hi)
    if f_lo * f_hi > 0.0:
        raise BracketError(
            f"matching defect does not change sign on ({lo}, {hi}): "
            f"F(lo) = {f_lo:.3e}, F(hi) = {f_hi:.3e}"
        )

    from scipy.optimize import brentq

    # a tiny xtol leaves the stopping rule to rtol
    epsilon, info = brentq(
        shooter.defect, lo, hi, xtol=1e-300, rtol=1e-12, full_output=True, disp=False
    )
    if not info.converged:
        raise ConvergenceError(
            f"eigenvalue iteration stalled near {epsilon} on ({lo}, {hi}) "
            f"after {info.iterations} Brent steps: {info.flag}"
        )

    u = shooter.solution(epsilon)
    got_nodes = count_sign_changes(u[1:-1])
    if got_nodes != n_index:
        raise WrongStateError(
            f"converged state at eps = {epsilon} has {got_nodes} interior nodes, "
            f"expected {n_index}"
        )
    u = _normalize(_fix_sign(u), grid)
    return NumerovResult(epsilon=epsilon, wavefunction=u)


def default_brackets(problem: RadialProblem, grid: GridSpec, k: int) -> list[tuple[float, float]]:
    """Per-state energy brackets seeded by the finite-difference spectrum.

    Each bracket spans half the gap to the neighbouring FD eigenvalues,
    which comfortably covers the FD truncation error on any usable grid.
    The top bracket needs the FD level above it, so k + 1 levels must fit
    on the grid's grid.n - 2 interior nodes: 1 <= k <= grid.n - 3.
    """
    operator = assemble_tridiagonal(problem, grid)
    if not 1 <= k < operator.dim:
        raise ValueError(f"k must be in [1, {operator.dim - 1}] to seed Numerov brackets, got {k}")
    from scipy.linalg import eigh_tridiagonal

    seed = eigh_tridiagonal(
        operator.diagonal, operator.off_diagonal, select="i", select_range=(0, k), eigvals_only=True
    )
    brackets = []
    for i in range(k):
        gap_below = seed[i] - seed[i - 1] if i > 0 else seed[1] - seed[0]
        brackets.append((seed[i] - 0.5 * gap_below, seed[i] + 0.5 * (seed[i + 1] - seed[i])))
    return brackets


def numerov_recurrence_defect(
    u: np.ndarray, problem: RadialProblem, grid: GridSpec, epsilon: float
) -> float:
    """Max residual of the Numerov three-term recurrence over the grid.

    For a converged shooting solution this is at the level of the matching
    defect; it serves as the per-state diagnostic of the Numerov route.
    """
    t = (grid.h**2 / 12.0) * _Shooter(problem, grid).f_values(epsilon)
    lhs = (
        (1.0 - t[2:]) * u[2:]
        - (2.0 + 10.0 * t[1:-1]) * u[1:-1]
        + (1.0 - t[:-2]) * u[:-2]
    )
    return float(np.max(np.abs(lhs)) / np.max(np.abs(u)))


def solve_numerov_lowest_k(
    problem: RadialProblem,
    grid: GridSpec,
    k: int,
    brackets: Sequence[tuple[float, float]] | None = None,
) -> EigenResult:
    """Numerov counterpart of :func:`solve_lowest_k` for the lowest k states."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if brackets is None:
        brackets = default_brackets(problem, grid, k)
    if len(brackets) != k:
        raise ValueError(f"need {k} brackets, got {len(brackets)}")
    epsilons = np.empty(k)
    wavefunctions = np.empty((k, grid.n))
    residuals = np.empty(k)
    for i in range(k):
        epsilons[i], wavefunctions[i] = numerov_solve(problem, grid, i, brackets[i])
        residuals[i] = numerov_recurrence_defect(wavefunctions[i], problem, grid, epsilons[i])
    return _eigen_result(epsilons, wavefunctions, residuals, "numerov", grid)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def rayleigh_quotient(wavefunction: np.ndarray, problem: RadialProblem, grid: GridSpec) -> float:
    """<u|H|u> / <u|u> by trapezoid quadrature, using the discretized H.

    Scale invariant; equals the eigenvalue to quadrature accuracy when fed
    an eigenstate.
    """
    u = np.asarray(wavefunction, dtype=float)
    if u.shape[0] != grid.n:
        raise ValueError(f"expected {grid.n} samples, got {u.shape[0]}")
    norm_sq = _trapezoid(u * u, grid.h)
    if norm_sq <= 0.0:
        raise ValueError("cannot form a Rayleigh quotient from a zero wavefunction")
    operator = assemble_tridiagonal(problem, grid)
    interior = u[1:-1]
    # boundary samples are (near) zero, so the trapezoid weights collapse to h
    numerator = grid.h * float(np.dot(interior, operator.apply(interior)))
    return numerator / norm_sq


def solve_state(
    problem: RadialProblem, grid: GridSpec, n_index: int, method: str = "fd"
) -> float:
    """Eigenvalue of the single state ``n_index`` on one grid by either route."""
    if method == "fd":
        result = solve_lowest_k(assemble_tridiagonal(problem, grid), n_index + 1)
        return float(result.epsilons[n_index])
    if method == "numerov":
        bracket = default_brackets(problem, grid, n_index + 1)[n_index]
        return numerov_solve(problem, grid, n_index, bracket).epsilon
    raise ValueError(f"unknown method {method!r}; expected 'fd' or 'numerov'")


def convergence_order(
    problem: RadialProblem,
    grids: Sequence[GridSpec],
    epsilon_exact: float,
    n_index: int = 0,
    method: str = "fd",
    *,
    table: Sequence[tuple[float, float]] | None = None,
) -> float:
    """Least-squares slope of log|eps_h - eps_exact| against log h.

    Expect about 2 for the finite-difference route and about 4 for the
    Numerov route.  Requires at least three distinct grids.  ``table``
    takes the ``(h, eps_h)`` pairs of ``grids``, in order, when the caller
    has already solved them; otherwise each grid is solved here.
    """
    if len(grids) < 3:
        raise ValueError(f"need at least 3 grids for a slope estimate, got {len(grids)}")
    if len({(g.r_min, g.r_max, g.n) for g in grids}) < len(grids):
        raise ValueError("degenerate fit: identical grids repeated")
    if method not in ("fd", "numerov"):
        raise ValueError(f"unknown method {method!r}; expected 'fd' or 'numerov'")
    if table is None:
        table = [(grid.h, solve_state(problem, grid, n_index, method)) for grid in grids]
    elif len(table) != len(grids):
        raise ValueError(f"need one (h, eps) pair per grid, got {len(table)} for {len(grids)}")
    hs = [h for h, _ in table]
    # floor the error at fp noise so the log never diverges
    floor = 1e-15 * max(1.0, abs(epsilon_exact))
    errors = [max(abs(epsilon - epsilon_exact), floor) for _, epsilon in table]
    slope, _ = np.polyfit(np.log(hs), np.log(errors), 1)
    return float(slope)
