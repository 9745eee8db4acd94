"""Bound-state solvers for the stationary equation H psi = eps psi.

Two independent routes solve the radial/1-D problem

    -(hbar**2 / 2 mu) u''(r) + V_eff(r) u(r) = eps u(r),   u = 0 at both ends,

V_eff = V + hbar**2 l(l+1) / (2 mu r**2), which one radial form,
:class:`_RadialForm`, states on the nodes of a grid as

    u'' = (q - eps w) u,   w = 2 mu / hbar**2,   q = w V_eff:

* a symmetric tridiagonal second-difference discretization, diagonal
  hbar**2 / (mu h**2) + V_eff, whose lowest eigenpairs are extracted by
  Sturm-sequence bisection plus inverse iteration (LAPACK ``dstebz`` and
  ``dstein``), and
* a Numerov shooting method that reads only h, q, w and the outward start,
  with outward/inward integration, node counting and matching on the
  recurrence residual at the outer classical turning point, the last sign
  change of q - eps w.  It is fourth order for smooth potentials; on a
  uniform grid the 1/r singularity of the Coulomb problems lowers the
  measured order to about 2 (2.33 for hydrogen, 2.12 for positronium on the
  ``convergence`` ladder).  The eigenvalue is found by one loop of Cooley's
  energy correction from a coarse FD seed, whose levels are bisected only
  until they are isolated, safeguarded by its bracket.  Node counts check
  the caller's bracket once, at the first anomaly (a merged solution with
  the wrong node count, a step that would leave the bracket, a bracket that
  closes first), and then pick the end that a bisection step moves; a seeded
  bracket rarely needs them.  :meth:`_RadialForm.stencil` forms, once per
  energy, the recurrence coefficients d = 1 - t and c = 2 + 10 t, where
  t = (h**2 / 12) (q - eps w), that every sweep and both recurrence defects
  read.  Each sweep solves the three-term recurrence as a lower-banded
  triangular system with LAPACK (``dtbtrs``), in chunks between which the
  samples are rescaled by a power of two so that they neither overflow nor
  lose their signs.

Each route yields its states, node counts included, from one generator,
:func:`_fd_states` or :func:`_numerov_states`, which the list solves read and
:func:`solve_state` reads without eigenvectors or recurrence defects.

Grids are uniform.  Coulomb-type problems use the reduced radial function
u(r) = r R(r) and require r_min > 0.

The three LAPACK routines come from scipy's compiled wrapper module
``scipy.linalg._flapack``, which :func:`_lapack` loads from its file on the
first solve; the ``scipy`` and ``scipy.linalg`` packages are never imported.
Their ~0.3 s import is mostly a copy of numpy's namespace that loads
``numpy.f2py``, ``numpy.testing`` and more, none of which rsse uses; the
extension alone loads in ~10 ms.

This is the only rsse module that imports numpy at module level.  The problem
description and the solver errors live in the numpy-free :mod:`rsse.problem`,
so the analytic commands (``kinematics``, ``invert-demo``, ``compare``) load
neither numpy nor scipy, and ``solve`` and ``convergence`` import this module
on their first solve.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .problem import (
    ConvergenceError,
    GridSpec,
    RadialProblem,
    WrongStateError,
    _check_origin,
    _check_samples,
    effective_potential,
)
from .units import _check_finite, _check_index, _value_class


# ---------------------------------------------------------------------------
# the radial form both routes read
# ---------------------------------------------------------------------------


class _RadialForm:
    """The problem on the nodes of one grid as u'' = (q - eps w) u; :func:`_form` keeps the last.

    This is the one place that checks the origin, builds the nodes ``r``
    and the spacing ``h``, evaluates ``v_eff`` = V_eff on every node, and
    forms the weight ``w`` = 2 mu / hbar**2 and ``q`` = w V_eff.  The FD
    diagonal reads ``kinetic`` = hbar**2 / (mu h**2) and ``v_eff``; the
    Numerov methods below read only ``h``, ``q``, ``w`` and ``start_out``,
    the first two samples of an outward solution: the power law r**(l+1)
    where the problem excludes the origin (scaled to end in 1 where
    r[1]**(l+1) is 0 or inf), else the Dirichlet start (0, 1).
    """

    def __init__(self, problem: RadialProblem, grid: GridSpec):
        _check_origin(problem, grid)
        self.grid = grid
        self.h = grid.h
        self.r = grid.nodes()
        hbar = problem.units.hbar
        self.w = 2.0 * problem.mu / (hbar * hbar)
        # an input that overflows leaves inf or nan here, not a numpy warning;
        # the finite rules of the FD matrix and of check_stencil reject it
        with np.errstate(all="ignore"):
            self.v_eff = effective_potential(problem, self.r)
            self.q = self.w * self.v_eff
            self.kinetic = np.divide(hbar * hbar, problem.mu * self.h * self.h)
            if grid.r_min > 0.0 and (problem.potential.singular_at_origin or problem.l > 0):
                lp1 = problem.l + 1
                self.start_out = (self.r[0] ** lp1, self.r[1] ** lp1)
                if not 0.0 < self.start_out[1] < math.inf:
                    # the power law's scale is free: this one neither vanishes nor overflows
                    self.start_out = ((self.r[0] / self.r[1]) ** lp1, 1.0)
            else:
                self.start_out = (0.0, 1.0)
        self._stencil = (math.nan, None)  # the last (epsilon, (d, c)) built

    def stencil(self, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
        """Recurrence coefficients d = 1 - t and c = 2 + 10 t, t = (h**2 / 12) (q - eps w).

        The arrays of the last energy are kept and returned again, read-only,
        so a Cooley step and the recurrence defect of its state share them.
        """
        last, coefficients = self._stencil
        if epsilon == last:
            return coefficients
        # h**2 and q are finite, but their product can overflow: check_stencil names it
        with np.errstate(over="ignore"):
            t = (self.h * self.h / 12.0) * (self.q - self.w * epsilon)
            d, c = 1.0 - t, 2.0 + 10.0 * t
        d.flags.writeable = c.flags.writeable = False
        self._stencil = (epsilon, (d, c))
        return d, c

    def check_stencil(self, epsilon: float) -> None:
        """Reject a stencil that is not finite, or d = 1 - t that is not positive at ``epsilon``.

        h**2 and every q must be finite; the FD matrix, which reads V_eff
        on the interior nodes only, does not check them all.  t falls as epsilon rises, so the low end of a bracket is the
        worst case for d.  Only the samples the sweeps divide by are checked
        for it (index 2 on); the start values may sit where q is huge.  Each
        rounded step of d = 1 - (h**2 / 12) (q - w epsilon) is monotone in
        q, so d at the largest q decides; the full stencil is built only to
        name the first bad sample.
        """
        _check_finite(
            f"grid {self.grid}: h**2 and the range of q",
            self.h * self.h, float(np.min(self.q)), float(np.max(self.q)),
        )
        q_max = float(np.max(self.q[2:]))
        if 1.0 - (self.h * self.h / 12.0) * (q_max - self.w * epsilon) > 0.0:
            return
        diagonal = self.stencil(epsilon)[0][2:]
        bad = np.nonzero(diagonal <= 0.0)[0]
        if bad.size:
            raise ValueError(
                f"grid {self.grid} is too coarse for the Numerov stencil at eps = {epsilon}: "
                f"1 - h^2 f / 12 = {diagonal[bad[0]]:.3g} <= 0 at r = {self.r[bad[0] + 2]:.6g}"
            )

    def count_states_below(self, epsilon: float) -> int:
        """Nodes of the full outward solution = number of eigenvalues below."""
        u = _numerov_sweep(*self.stencil(epsilon), *self.start_out)
        # index 0 may be an exact zero of the start; the far end has no wall
        return count_sign_changes(u[1:])

    def match_index(self, epsilon: float) -> int:
        """Outermost sign change of q - eps w (turning point), clipped to the interior."""
        f = self.q - self.w * epsilon
        with np.errstate(over="ignore"):  # an overflow to +-inf keeps the product's sign
            crossings = np.nonzero(f[:-1] * f[1:] < 0.0)[0]
        m = int(crossings[-1]) if crossings.size else len(f) // 2
        return min(max(m, 2), len(f) - 3)

    def cooley_step(self, epsilon: float) -> tuple[np.ndarray, float]:
        """Outward/inward solutions joined at the turning point, and the energy correction.

        The merged samples u satisfy the Numerov recurrence everywhere but
        at the match point m, where its residual D vanishes exactly at an
        eigenvalue.  The correction is Cooley's (J. W. Cooley, Math. Comp.
        15, 363 (1961)), delta = -D u[m] / (w h**2 sum u**2): first-order
        perturbation theory of the recurrence in epsilon.
        """
        d, c = self.stencil(epsilon)
        m = self.match_index(epsilon)
        # a node can sit exactly on the match point; nudge inward if so
        for _ in range(3):
            u_out = _numerov_sweep(d[: m + 2], c[: m + 2], *self.start_out)
            # the inward sweep starts at the far wall
            u_in = _numerov_sweep(d[m - 1 :][::-1], c[m - 1 :][::-1], 0.0, 1.0)[::-1]
            if u_out[m] != 0.0 and u_in[1] != 0.0:
                break
            m -= 1
        scale = u_out[m] / u_in[1]  # u_in spans indices m-1 .. n-1
        merged = np.concatenate([u_out[: m + 1], scale * u_in[2:]])
        # work on u / max|u|, so that neither D nor sum u**2 overflows
        peak = np.max(np.abs(merged))
        u = merged[m - 1 : m + 2] / peak
        defect = d[m + 1] * u[2] + d[m - 1] * u[0] - c[m] * u[1]
        norm_sq = float(np.sum(np.square(merged / peak)))
        return merged, -defect * u[1] / (self.w * self.h * self.h * norm_sq)


# every state of a Numerov solve and its recurrence defects share one form
_form = functools.lru_cache(maxsize=1)(_RadialForm)


# ---------------------------------------------------------------------------
# finite-difference route
# ---------------------------------------------------------------------------


@_value_class
class TridiagonalOperator:
    """Symmetric tridiagonal discretization of H on the interior nodes."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    grid: GridSpec
    problem: RadialProblem

    def __post_init__(self) -> None:
        # every consumer (the FD solves, the Numerov seed, rayleigh_quotient) reads a finite matrix
        if not (np.isfinite(self.diagonal).all() and np.isfinite(self.off_diagonal).all()):
            raise ValueError("tridiagonal matrix entries must be finite")

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


@_value_class
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


def _eigen_result(states: Iterator[tuple], method: str, grid: GridSpec) -> EigenResult:
    """The :class:`EigenResult` of one route's ``(epsilon, wavefunction, residual, nodes)`` records.

    Degeneracy flags are derived here, once for both routes.
    """
    epsilons, wavefunctions, residuals, nodes = (np.array(column) for column in zip(*states))
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
        nodes=nodes,
        degenerate=degenerate,
    )


def assemble_tridiagonal(problem: RadialProblem, grid: GridSpec) -> TridiagonalOperator:
    """Second-difference Hamiltonian with Dirichlet boundaries.

    Diagonal entries are hbar**2/(mu h**2) + V_eff(r_i) on the interior
    nodes; off-diagonal entries are -hbar**2/(2 mu h**2).
    """
    form = _RadialForm(problem, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # the operator rejects what overflows
        diagonal = form.kinetic + form.v_eff[1:-1]
    off = np.full(grid.n - 3, -0.5 * form.kinetic)
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
    # scaled exactly, by the power of two of its peak, so that u * u cannot overflow
    u = np.ldexp(u, -math.frexp(float(np.max(np.abs(u))))[1])
    norm_sq = _trapezoid(u * u, grid.h)
    if norm_sq <= 0.0:
        raise ValueError("cannot normalize a zero wavefunction")
    return u / math.sqrt(norm_sq)


@functools.cache
def _lapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, loaded from their file.

    ``find_spec`` locates the scipy package without running its
    ``__init__``, so neither ``scipy`` nor ``scipy.linalg`` is imported.  The
    file is the first that exists of ``_flapack`` with each extension suffix
    in turn, the order importlib's own finder uses.

    Raises
    ------
    ImportError
        If scipy is not installed or none of those files exists.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("the solvers need scipy's LAPACK wrappers, but scipy is not installed")
    stem = os.path.join(scipy.submodule_search_locations[0], "linalg", "_flapack")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((path for path in paths if os.path.isfile(path)), None)
    if path is None:
        raise ImportError(
            "the solvers need scipy's LAPACK wrappers scipy.linalg._flapack; "
            f"none of these files exists: {', '.join(paths)}"
        )
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tridiagonal_lowest(
    d: np.ndarray, e: np.ndarray, k: int, *, vectors: bool, abstol: float = 0.0
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Lowest k eigenvalues of the symmetric tridiagonal matrix (d, e), ascending.

    With ``vectors`` the eigenvectors come too, as columns, else None.  The
    LAPACK calls are those of ``scipy.linalg.eigh_tridiagonal(d, e,
    select="i", select_range=(0, k - 1))``: ``dstebz`` by index, then
    ``dstein`` on the block-ordered values, reordered by ``argsort``, so the
    results are scipy's bit for bit.  ``dstebz`` bisects each value until
    its interval is narrower than ``abstol``; the default 0 stands for
    LAPACK's own ulp * ||T||, which is 2e-12 hartree on the hydrogen preset
    FD grid and 3e-10 on 20000 oscillator nodes.  Only the Numerov seed
    (:func:`_fd_brackets`) passes a looser one.

    LAPACK solves T / 2**s, with the power of two that puts its
    ||T||inf = max|d| + 2 max|e| in [1, 2): the scaling is exact, and it
    keeps the squares of e and the pivots finite (unscaled, ``dstein``'s
    vectors were not finite from e ~ 2e152, and ``dstebz`` went wrong from
    e ~ 7e153 = sqrt(DBL_MAX) / 2).  The eigenvalues are scaled back; the
    eigenvectors need nothing.

    Raises
    ------
    ValueError
        If k is outside [1, d.size], or an eigenvalue overflows.
    ConvergenceError
        If LAPACK reports a nonzero ``info``.
    """
    _check_index("k", k, 1, d.shape[0])
    d_max, e_max = float(np.max(np.abs(d))), float(np.max(np.abs(e), initial=0.0))
    shift = math.frexp(max(d_max, e_max))[1]
    # ||T||inf / 2**shift, formed without overflow, lies in [0.5, 3)
    shift += math.frexp(math.ldexp(d_max, -shift) + math.ldexp(e_max, 1 - shift))[1] - 1
    d, e, abstol = np.ldexp(d, -shift), np.ldexp(e, -shift), math.ldexp(abstol, -shift)
    lapack = _lapack()
    # range 2: indices 1..k; dstein needs the values in block order ("B")
    m, w, iblock, isplit, info = lapack.dstebz(
        d, e, 2, 0.0, 1.0, 1, k, abstol, "B" if vectors else "E"
    )
    if info != 0:
        raise ConvergenceError(f"LAPACK dstebz failed (info = {info})")
    with np.errstate(over="ignore"):
        values = np.ldexp(w[:m], shift)
    _check_finite("the eigenvalues of the tridiagonal matrix", values.min(), values.max())
    if not vectors:
        return values, None
    v, info = lapack.dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise ConvergenceError(f"LAPACK dstein failed (info = {info})")
    order = np.argsort(values)
    return values[order], v[:, order]


def solve_lowest_k(operator: TridiagonalOperator, k: int) -> EigenResult:
    """Lowest k eigenpairs of the tridiagonal operator.

    Eigenvalues come from Sturm-sequence bisection and eigenvectors from
    inverse iteration (LAPACK stebz/stein).  Wavefunctions are returned on
    the full grid, zero at both ends, trapezoid-normalized, with a
    deterministic sign convention.
    """
    return _eigen_result(_fd_states(operator, k, vectors=True), "fd", operator.grid)


# an FD eigenvector's samples below this fraction of its peak are round-off
_FD_NOISE_FLOOR = 16.0 * np.finfo(float).eps


def _fd_states(operator: TridiagonalOperator, k: int, vectors: bool) -> Iterator[tuple]:
    """The lowest k (epsilon, wavefunction, residual, nodes) records, values only without ``vectors``.

    Inverse iteration leaves an eigenvector's tails with sign noise at
    round-off level (sign changes at 1e-45 of the peak in a deep centrifugal
    well), so only its samples above 16 eps_mach max|v| count as nodes.
    """
    epsilons, columns = _tridiagonal_lowest(
        operator.diagonal, operator.off_diagonal, k, vectors=vectors
    )
    if not vectors:
        yield from ((epsilon, None, None, None) for epsilon in epsilons)
        return
    for epsilon, v in zip(epsilons, columns.T):
        magnitude = np.abs(v)
        peak = np.max(magnitude)
        residual = np.max(np.abs(operator.apply(v) - epsilon * v)) / peak
        nodes = count_sign_changes(v[magnitude > _FD_NOISE_FLOOR * peak])
        u = np.concatenate(([0.0], v, [0.0]))
        yield epsilon, _normalize(_fix_sign(u), operator.grid), residual, nodes


# ---------------------------------------------------------------------------
# Numerov route
# ---------------------------------------------------------------------------


# rows of the banded system solved per LAPACK call; halved while a chunk
# overflows, so a chunk starting at 2**600 may grow by up to 2**424
_SWEEP_CHUNK = 4096
_RESCALE_ABOVE = 2.0**600


def _numerov_sweep(d: np.ndarray, c: np.ndarray, u0: float, u1: float) -> np.ndarray:
    """Integrate u'' = f u left to right with the Numerov three-term recurrence.

    With the coefficients d = 1 - t and c = 2 + 10 t (t = h**2 f / 12, here
    f = q - eps w) of :meth:`_RadialForm.stencil` on the swept samples, the
    recurrence

        d[i] u[i] - c[i-1] u[i-1] + d[i-2] u[i-2] = 0

    is a lower-triangular banded system of bandwidth 2 in the unknowns
    u[2:], solved chunk by chunk with LAPACK ``dtbtrs``; the first two
    right-hand-side rows of a chunk carry the last two samples before it.
    Between chunks the samples so far are renormalised (B. R. Johnson, J.
    Chem. Phys. 69, 4678 (1978)): once the last two pass 2**600 they are
    scaled by a power of two, which is exact and keeps every sign bit, also
    where samples underflow to +-0.  A chunk that overflows is retried at
    half the length.

    Raises
    ------
    ConvergenceError
        If LAPACK reports a zero diagonal (d = 0) or a single row still
        overflows.
    """
    dtbtrs = _lapack().dtbtrs
    n = d.shape[0]
    u = np.empty(n)
    u[:2] = u0, u1
    start = 2
    chunk = _SWEEP_CHUNK
    with np.errstate(over="ignore", invalid="ignore"):
        while start < n:
            stop = min(start + chunk, n)
            # band storage of the chunk's columns: diagonal, then the two
            # subdiagonals; Fortran order goes to LAPACK without a copy
            ab = np.empty((3, stop - start), order="F")
            ab[0] = d[start:stop]
            ab[1] = -c[start:stop]
            ab[2] = ab[0]
            b = np.zeros(stop - start)
            b[0] = c[start - 1] * u[start - 1] - d[start - 2] * u[start - 2]
            if b.shape[0] > 1:
                b[1] = -d[start - 1] * u[start - 1]
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


# Cooley steps allowed per solve: quadratic convergence needs a handful, and
# bisection from any bracket reaches 1e-12 relative width in about 45; 600
# brackets on hydrogen s and p, the oscillator and two finite wells, up to
# three level gaps wide, took at most 41
_COOLEY_MAX_STEPS = 100
_COOLEY_RTOL = 1e-12


def numerov_solve(
    problem: RadialProblem, grid: GridSpec, n_index: int, bracket: tuple[float, float]
) -> NumerovResult:
    """Locate the eigenvalue with ``n_index`` interior nodes inside ``bracket``.

    Cooley's energy correction (:meth:`_RadialForm.cooley_step`) iterates from
    the bracket midpoint, safeguarded by the bracket: each step moves one end.
    Where the merged solution has ``n_index`` nodes the sign of the correction
    picks the end and the next energy is the corrected one; elsewhere an
    outward node count picks the end and the next energy is the midpoint, as
    it is for a step that would leave the bracket.  The caller's bracket is
    checked once, by node counts at its ends, at the first anomaly: a merged
    solution without ``n_index`` nodes, a step that would leave the bracket,
    or a bracket that closes to 1e-12 relative before the correction does.
    The search stops when the correction of a solution with ``n_index`` nodes
    or the bracket falls to 1e-12 relative.  The returned wavefunction has
    exactly ``n_index`` interior nodes and unit trapezoid norm.

    Raises
    ------
    ValueError
        If the bracket ends are not finite with lo < hi, or if
        1 - (h**2 / 12) (q - eps w) is not positive on the grid at the
        bracket's low end, where node counts stop counting levels.
    WrongStateError
        If node counting shows the bracket does not contain the target
        state, or the converged state has the wrong node count.
    ConvergenceError
        If the iteration has not converged after a fixed number of steps.
    """
    _check_index("n_index", n_index, 0)
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got ({lo}, {hi})")
    # the sweep would report an infinite end as a numerical failure, not a usage error
    _check_finite("bracket ends", lo, hi)

    form = _form(problem, grid)
    form.check_stencil(lo)
    epsilon, checked = 0.5 * (lo + hi), False
    for _ in range(_COOLEY_MAX_STEPS):
        u, delta = form.cooley_step(epsilon)
        nodes = count_sign_changes(u[1:-1])
        tol = _COOLEY_RTOL * abs(epsilon)
        # with the target's node count the correction points at the root;
        # otherwise epsilon is past a pole of the mismatch, where it can point
        # at a neighbouring level, so count levels and bisect
        if nodes == n_index:
            if abs(delta) <= tol:
                break
            below, step = delta > 0.0, epsilon + delta
        else:
            checked = checked or _check_bracket(form, n_index, bracket)
            # a NaN step fails the bracket test below, so the loop bisects
            below, step = form.count_states_below(epsilon) <= n_index, math.nan
        if below:
            lo = epsilon
        else:
            hi = epsilon
        # node counts hold the root in a checked bracket; round-off can keep delta above tol
        closed = hi - lo <= tol
        if closed or not lo < step < hi:
            checked = checked or _check_bracket(form, n_index, bracket)
            if closed:
                break
            step = 0.5 * (lo + hi)
        epsilon = step
    else:
        raise ConvergenceError(
            f"eigenvalue iteration stalled near {epsilon} on ({lo}, {hi}) "
            f"after {_COOLEY_MAX_STEPS} Cooley steps"
        )
    if nodes != n_index:
        raise WrongStateError(
            f"converged state at eps = {epsilon} has {nodes} interior nodes, "
            f"expected {n_index}"
        )
    u = _normalize(_fix_sign(u), grid)
    return NumerovResult(epsilon=epsilon, wavefunction=u)


def _check_bracket(form: _RadialForm, n_index: int, bracket: tuple[float, float]) -> bool:
    """Check that outward node counts at the ends of ``bracket`` hold state ``n_index``.

    Returns True, which :func:`numerov_solve` keeps as its checked flag.

    Raises
    ------
    WrongStateError
        If they do not.
    """
    lo, hi = bracket
    n_lo = form.count_states_below(lo)
    n_hi = form.count_states_below(hi)
    if n_lo > n_index or n_hi <= n_index:
        held = f"states {n_lo}..{n_hi - 1}" if n_hi > n_lo else "no state"
        raise WrongStateError(
            f"bracket ({lo}, {hi}) holds {held}; target state {n_index} is outside it"
        )
    return True


def default_brackets(problem: RadialProblem, grid: GridSpec, k: int) -> list[tuple[float, float]]:
    """Per-state energy brackets seeded by a finite-difference spectrum.

    The seed is the FD spectrum on every 8th node of the box,
    ``(grid.n - 1) // 8 + 1`` nodes; the full grid seeds where that coarse
    grid has fewer than 16 nodes or cannot hold k + 1 levels.  Each bracket
    is symmetric about its seed level, ``seed +- min(gap_below, gap_above) / 2``,
    which comfortably covers the FD truncation error on any usable grid and
    puts the seed at the bracket midpoint, where :func:`numerov_solve`
    starts.  The seed levels are bisected only until they are isolated, to
    an absolute tolerance of 1e-10 ||T||inf (``max|d| + 2 max|e|`` of the
    seed matrix), far below the seed's own error against the Numerov level;
    where two of them lie closer than 1e3 times that, the seed is bisected
    again to LAPACK's own ulp * ||T|| (see :func:`_fd_brackets`).  The top
    bracket needs the FD level above it, so k + 1 levels must fit on the
    grid's grid.n - 2 interior nodes: 1 <= k <= grid.n - 3.
    """
    _check_index("k", k, 1, grid.n - 3)
    return _fd_brackets(problem, _seed_grid(grid, k), k)


def _seed_grid(grid: GridSpec, k: int) -> GridSpec:
    """Every 8th node of ``grid``'s box, or ``grid`` where that holds too few nodes or levels."""
    n = (grid.n - 1) // 8 + 1
    if n < 16 or k > n - 3:
        return grid
    return GridSpec(grid.r_min, grid.r_max, n)


# fraction of ||T||inf = max|d| + 2 max|e| (the norm LAPACK's own tolerance
# ulp * ||T|| scales with) that the seed is bisected to
_SEED_RTOL = 1e-10
_SEED_GUARD = 1e3


def _fd_brackets(problem: RadialProblem, grid: GridSpec, k: int) -> list[tuple[float, float]]:
    """The brackets of :func:`default_brackets`, seeded on ``grid`` itself.

    The seed levels only need to be isolated, not converged: ``dstebz``
    bisects them to tau = 1e-10 ||T||inf, so each lies within tau / 2 of
    the level it stands for.  Where two of them lie closer than 1e3 tau,
    the spectrum is seeded again with LAPACK's own tolerance, so no
    bracket is narrowed (or closed) by the looser one.
    """
    operator = assemble_tridiagonal(problem, grid)
    d, e = operator.diagonal, operator.off_diagonal
    tau = _SEED_RTOL * (float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e))))
    seed = _tridiagonal_lowest(d, e, k + 1, vectors=False, abstol=tau)[0]
    if np.diff(seed).min() < _SEED_GUARD * tau:
        seed = _tridiagonal_lowest(d, e, k + 1, vectors=False)[0]
    gaps = np.diff(seed)
    half = 0.5 * np.minimum(np.concatenate([gaps[:1], gaps[:-1]]), gaps)
    return [(float(seed[i] - half[i]), float(seed[i] + half[i])) for i in range(k)]


def _numerov_states(
    problem: RadialProblem, grid: GridSpec, k: int, states: Sequence[int],
    brackets: Sequence[tuple[float, float]] | None = None, vectors: bool = True,
) -> Iterator[tuple]:
    """:func:`numerov_solve` of ``states`` (each below k) on ``brackets``, else seeded ones.

    Each ``(epsilon, wavefunction, residual, nodes)`` record is yielded as
    soon as its state is solved; the residual is :func:`numerov_recurrence_defect`,
    or None without ``vectors``.  A seed (:func:`default_brackets`) on a
    coarse grid can miss a state it resolves badly, such as a narrow well's:
    on :class:`WrongStateError` every seeded bracket is re-seeded from the
    full grid, once.  A seeded bracket of zero width, where two seed levels
    coincide, counts as such a miss.  The caller's ``brackets`` are never
    re-seeded, and one with lo >= hi stays a ``ValueError``.
    """
    seeded = brackets is None
    reseeded = not seeded or _seed_grid(grid, k) == grid
    brackets = default_brackets(problem, grid, k) if seeded else brackets

    def solve(i: int) -> NumerovResult:
        lo, hi = brackets[i]
        if seeded and not lo < hi:
            raise WrongStateError(f"the seed leaves state {i} an empty bracket ({lo}, {hi})")
        return numerov_solve(problem, grid, i, (lo, hi))

    for i in states:
        try:
            epsilon, u = solve(i)
        except WrongStateError:
            if reseeded:
                raise
            brackets, reseeded = _fd_brackets(problem, grid, k), True
            epsilon, u = solve(i)
        # the defect follows its own solve, which leaves that energy's stencil in the form
        defect = numerov_recurrence_defect(u, problem, grid, epsilon) if vectors else None
        # numerov_solve returns only a solution with i interior nodes
        yield epsilon, u, defect, i


def numerov_recurrence_defect(
    u: np.ndarray, problem: RadialProblem, grid: GridSpec, epsilon: float
) -> float:
    """Max residual of the Numerov three-term recurrence over the grid.

    For a converged shooting solution this is at the level of the matching
    defect; it serves as the per-state diagnostic of the Numerov route.
    """
    d, c = _form(problem, grid).stencil(epsilon)
    lhs = d[2:] * u[2:] - c[1:-1] * u[1:-1] + d[:-2] * u[:-2]
    return float(np.max(np.abs(lhs)) / np.max(np.abs(u)))


def solve_numerov_lowest_k(
    problem: RadialProblem, grid: GridSpec, k: int,
    brackets: Sequence[tuple[float, float]] | None = None,
) -> EigenResult:
    """Numerov counterpart of :func:`solve_lowest_k` for the lowest k states."""
    _check_index("k", k, 1)
    if brackets is not None and len(brackets) != k:
        raise ValueError(f"need {k} brackets, got {len(brackets)}")
    return _eigen_result(_numerov_states(problem, grid, k, range(k), brackets), "numerov", grid)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def rayleigh_quotient(wavefunction: np.ndarray, problem: RadialProblem, grid: GridSpec) -> float:
    """<u|H|u> / <u|u> over the interior nodes, using the discretized H.

    Both sums run over the same interior samples, where H acts; the wall
    samples are ignored.  So the quotient is that of the FD matrix, scale
    invariant, never below its lowest eigenvalue, and equal to the
    eigenvalue when fed an eigenvector.
    """
    u = np.asarray(wavefunction, dtype=float)
    _check_samples("wavefunction", u, grid)
    peak = float(np.max(np.abs(u[1:-1])))
    if peak == 0.0:
        raise ValueError("cannot form a Rayleigh quotient from a zero wavefunction")
    # scaled exactly, as _normalize does, so that the squares neither overflow nor vanish
    interior = np.ldexp(u[1:-1], -math.frexp(peak)[1])
    norm_sq = float(np.dot(interior, interior))
    operator = assemble_tridiagonal(problem, grid)
    return float(np.dot(interior, operator.apply(interior))) / norm_sq


def solve_state(
    problem: RadialProblem, grid: GridSpec, n_index: int, method: str = "fd"
) -> float:
    """Eigenvalue of the single state ``n_index`` on one grid by either route."""
    _check_index("n_index", n_index, 0)
    if method == "fd":
        states = _fd_states(assemble_tridiagonal(problem, grid), n_index + 1, vectors=False)
    elif method == "numerov":
        states = _numerov_states(problem, grid, n_index + 1, [n_index], vectors=False)
    else:
        raise ValueError(f"unknown method {method!r}; expected 'fd' or 'numerov'")
    *_, (epsilon, *_) = states
    return float(epsilon)


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

    Expect about 2 for the finite-difference route.  The Numerov route
    gives about 4 for smooth potentials; on a uniform grid the 1/r
    singularity of a Coulomb problem lowers it to about 2.  Requires at
    least three distinct grids.  ``table`` takes the ``(h, eps_h)`` pairs
    of ``grids``, in order, when the caller has already solved them;
    otherwise each grid is solved here.
    """
    if len(grids) < 3:
        raise ValueError(f"need at least 3 grids for a slope estimate, got {len(grids)}")
    if len({(g.r_min, g.r_max, g.n) for g in grids}) < len(grids):
        raise ValueError("degenerate fit: identical grids repeated")
    if method not in ("fd", "numerov"):
        raise ValueError(f"unknown method {method!r}; expected 'fd' or 'numerov'")
    _check_finite("epsilon_exact", epsilon_exact)
    if table is None:
        table = [(grid.h, solve_state(problem, grid, n_index, method)) for grid in grids]
    elif len(table) != len(grids):
        raise ValueError(f"need one (h, eps) pair per grid, got {len(table)} for {len(grids)}")
    else:
        for pair in table:
            _check_finite("every (h, eps) pair", *pair)
    hs = [h for h, _ in table]
    # floor the error at fp noise so the log never diverges
    floor = 1e-15 * max(1.0, abs(epsilon_exact))
    errors = [max(abs(epsilon - epsilon_exact), floor) for _, epsilon in table]
    slope, _ = np.polyfit(np.log(hs), np.log(errors), 1)
    return float(slope)
