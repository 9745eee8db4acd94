"""Analytic level oracles and the maps between eigenvalue, total energy
and binding energy.

The nonrelativistic eigenvalue eps of a bound system of total rest mass M
is read either directly as eps = -B, or through the quadratic map

    eps = (E**2 - (M c**2)**2) / (2 M c**2),

whose inversion on the positive branch gives

    B = M c**2 * (1 - sqrt(1 + 2 eps / (M c**2))),

reducing to B = -eps at leading order in eps/(M c**2).  The exact
Dirac-Coulomb spectrum is included purely as an external benchmark for the
comparison reports.
"""

from __future__ import annotations

import math
from typing import Optional

from .problem import GridSpec, RadialProblem, _check_origin
from .presets import get_preset
from .units import (
    ATOMIC,
    UnitSystem,
    _check_finite,
    _check_index,
    _check_positive,
    _value_class,
)


# ---------------------------------------------------------------------------
# level oracles
# ---------------------------------------------------------------------------


def bohr_level(Z: float, mu: float, n: int) -> float:
    """Coulomb eigenvalue -mu Z**2 / (2 n**2) in hartree (atomic units)."""
    _check_index("principal quantum number n", n, 1)
    _check_positive("coulomb charge", Z)
    _check_positive("reduced mass", mu)
    return -mu * Z * Z / (2.0 * n * n)


def oscillator_level(omega: float, n: int) -> float:
    """Harmonic eigenvalue hbar*omega*(n + 1/2) in hartree (atomic units)."""
    _check_positive("harmonic frequency", omega)
    _check_index("oscillator index n", n, 0)
    return omega * (n + 0.5)


def analytic_level(problem: RadialProblem, n_index: int, grid: GridSpec) -> float:
    """Exact eigenvalue of state ``n_index`` (0-based, by node count) of ``problem``.

    Coulomb problems give the Bohr level of principal number n_index + l + 1.
    Harmonic problems give omega (n_index + 1/2) on a full-line grid
    (r_min < 0); on a half-line grid the wall at the origin makes them the
    radial oscillator, omega (2 n_index + l + 3/2).  These levels put the
    wall at the origin.  A wall at r_min > 0 moves a level by
    O(r_min**(2 l + 1)), so a half-line grid must have
    r_min**(2 l + 1) <= h**2, which keeps that shift at the order of the
    stencil's own error.  Walls further out, grids the solvers reject as
    singular at r = 0 and other potential kinds raise ValueError.
    """
    _check_index("n_index", n_index, 0)
    _check_origin(problem, grid)
    potential = problem.potential
    if grid.r_min ** (2 * problem.l + 1) > grid.h**2:
        raise ValueError(
            f"no analytic levels for a wall at r_min = {grid.r_min}: "
            f"r_min**(2 l + 1) > h**2 = {grid.h**2} for l = {problem.l}"
        )
    if potential.kind == "coulomb":
        return bohr_level(potential.Z, problem.mu, n_index + problem.l + 1)
    if potential.kind == "harmonic":
        if grid.r_min < 0.0:
            return oscillator_level(potential.omega, n_index)
        # omega (2 n_index + l + 3/2) is line level 2 n_index + l + 1
        return oscillator_level(potential.omega, 2 * n_index + problem.l + 1)
    raise ValueError(f"no analytic levels for potential {potential.kind!r}")


def _check_half_integer_j(j: float, n: int) -> None:
    twice = 2.0 * j
    if not 0.0 < j < math.inf or abs(twice - round(twice)) > 1e-9 or round(twice) % 2 == 0:
        raise ValueError(f"j must be a positive half-integer (1/2, 3/2, ...), got {j}")
    if j + 0.5 > n:
        raise ValueError(f"need j + 1/2 <= n, got j={j}, n={n}")


def dirac_coulomb_level(
    Z: float, n: int, j: float, units: UnitSystem = ATOMIC
) -> tuple[float, float]:
    """Exact point-Coulomb spectrum for a unit-mass fermion: (E_total, binding).

    E = m c**2 [1 + (Z alpha / (n - (j+1/2) + sqrt((j+1/2)**2 - (Z alpha)**2)))**2]**(-1/2)

    with B = m c**2 - E.  This is an external reference, independent of the
    other operations in this module.  Raises for the supercritical regime
    Z alpha >= j + 1/2.
    """
    _check_index("principal quantum number n", n, 1)
    _check_half_integer_j(j, n)
    _check_positive("coulomb charge", Z)
    za = Z * units.alpha
    kappa = j + 0.5
    if za >= kappa:
        raise ValueError(
            f"supercritical coupling: Z*alpha = {za} >= j + 1/2 = {kappa}; no bound state"
        )
    gamma_rel = math.sqrt((kappa - za) * (kappa + za))
    denom = n - kappa + gamma_rel
    x = (za / denom) ** 2
    mc2 = units.mass_unit * units.c * units.c
    # (1+x)**(-1/2) via expm1/log1p keeps the binding relative-accurate even
    # though it is a ~1e-5 fraction of the rest energy
    z = -0.5 * math.log1p(x)
    total = mc2 * math.exp(z)
    binding = -mc2 * math.expm1(z)
    return total, binding


# ---------------------------------------------------------------------------
# eigenvalue <-> energy maps
# ---------------------------------------------------------------------------


def binding_nonrel(epsilon: float) -> float:
    """Leading-order reading of the eigenvalue: B = -eps."""
    return -epsilon


def _rest_energy(M: float, units: UnitSystem) -> float:
    """M c**2 of a total rest mass M."""
    _check_positive("total rest mass", M)
    return M * units.c * units.c


def _check_domain(epsilon: float, mc2: float) -> float:
    _check_finite("epsilon", epsilon)
    y = 2.0 * epsilon / mc2
    if y < -1.0:
        raise ValueError(
            f"epsilon = {epsilon} lies below the domain bound -M*c**2/2 = {-0.5 * mc2}"
        )
    return y


def epsilon_from_total_energy(energy: float, M: float, units: UnitSystem = ATOMIC) -> float:
    """eps = (E**2 - (M c**2)**2) / (2 M c**2) on the E > 0 branch."""
    _check_positive("total energy", energy)
    mc2 = _rest_energy(M, units)
    # factored form keeps accuracy for E close to M c**2
    return (energy - mc2) * (energy + mc2) / (2.0 * mc2)


def total_energy_from_epsilon(epsilon: float, M: float, units: UnitSystem = ATOMIC) -> float:
    """E = M c**2 sqrt(1 + 2 eps / (M c**2)), positive branch.

    Defined for eps >= -M c**2 / 2; the lower edge maps to E = 0.
    """
    mc2 = _rest_energy(M, units)
    y = _check_domain(epsilon, mc2)
    return mc2 * math.sqrt(1.0 + y)


def binding_relativistic(epsilon: float, M: float, units: UnitSystem = ATOMIC) -> float:
    """B = M c**2 [1 - sqrt(1 + 2 eps / (M c**2))].

    Agrees with M c**2 - total_energy_from_epsilon(eps, M) and with -eps to
    leading order; the next correction is +eps**2/(2 M c**2).  Evaluated
    through expm1/log1p so small bindings keep full relative accuracy.
    """
    mc2 = _rest_energy(M, units)
    y = _check_domain(epsilon, mc2)
    if y == -1.0:
        return mc2  # E = 0 edge of the domain
    return -mc2 * math.expm1(0.5 * math.log1p(y))


# ---------------------------------------------------------------------------
# comparison report
# ---------------------------------------------------------------------------


_L_LETTERS = "spdfghik"


def state_label(n: int, l: int, j: float | None) -> str:
    letter = _L_LETTERS[l] if l < len(_L_LETTERS) else f"(l={l})"
    if j is None:
        return f"{n}{letter}"
    return f"{n}{letter}{int(round(2 * j))}/2"


@_value_class
class BindingRow:
    """One state of a comparison report.

    ``B_dirac`` (and its delta) is None for systems without a Coulomb
    benchmark.
    """

    state: str
    n: int
    l: Optional[int]
    j: Optional[float]
    epsilon: float
    B_nonrel: float
    B_rel: float
    B_dirac: Optional[float]
    delta_rel_vs_dirac: Optional[float]


@_value_class
class BindingReport:
    system: str
    n_max: int
    mu: float
    M: float
    has_dirac: bool
    rows: tuple[BindingRow, ...]


def compare_report(system: str, n_max: int, units: UnitSystem = ATOMIC) -> BindingReport:
    """Side-by-side eigenvalue and binding columns for a named preset.

    ``system`` is any preset name known to :func:`rsse.presets.load_presets`;
    its problem supplies Z or omega, mu and M, and every eigenvalue is
    :func:`analytic_level` on the preset's FD grid, so the report is fully
    deterministic; potentials without analytic levels raise ValueError.
    Coulomb rows run over n = 1..n_max and every l < n, whatever the
    preset's l; other rows are the lowest n_max states.  The Dirac column is
    an external reference, present only for Coulomb systems and scaled by
    the reduced mass.
    """
    preset = get_preset(system)
    problem, grid = preset.problem, preset.fd_grid
    _check_index("n_max", n_max, 1)
    potential, mu = problem.potential, problem.mu
    has_dirac = potential.kind == "coulomb"
    rows: list[BindingRow] = []

    def add_row(state: str, n: int, l: Optional[int], j: Optional[float], eps: float) -> None:
        b_rel = binding_relativistic(eps, problem.M, units)
        b_dirac = None
        if has_dirac:
            # unit-mass Dirac benchmark, scaled to the reduced mass
            b_dirac = mu * dirac_coulomb_level(potential.Z, n, j, units)[1]
        rows.append(
            BindingRow(
                state=state,
                n=n,
                l=l,
                j=j,
                epsilon=eps,
                B_nonrel=binding_nonrel(eps),
                B_rel=b_rel,
                B_dirac=b_dirac,
                delta_rel_vs_dirac=None if b_dirac is None else b_rel - b_dirac,
            )
        )

    if has_dirac:
        for n in range(1, n_max + 1):
            for l in range(n):
                eps = analytic_level(problem._replace(l=l), n - l - 1, grid)
                for j in [l - 0.5, l + 0.5] if l > 0 else [0.5]:
                    add_row(state_label(n, l, j), n, l, j, eps)
    else:
        for idx in range(n_max):
            add_row(f"n{idx}", idx, None, None, analytic_level(problem, idx, grid))
    return BindingReport(
        system=system,
        n_max=n_max,
        mu=mu,
        M=problem.M,
        has_dirac=has_dirac,
        rows=tuple(rows),
    )
