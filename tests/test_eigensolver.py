import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from rsse.eigensolver import (
    BracketError,
    GridSpec,
    PotentialSpec,
    RadialProblem,
    WrongStateError,
    _numerov_sweep,
    _Shooter,
    _trapezoid,
    assemble_tridiagonal,
    convergence_order,
    count_sign_changes,
    default_brackets,
    effective_potential,
    numerov_solve,
    rayleigh_quotient,
    reduce_two_body,
    solve_lowest_k,
    solve_numerov_lowest_k,
)
from rsse.spectra import bohr_level, oscillator_level
from rsse.units import PROTON_ELECTRON_MASS_RATIO

HYDROGEN = RadialProblem(PotentialSpec.coulomb(1.0))
OSCILLATOR = RadialProblem(PotentialSpec.harmonic(1.0))
POSITRONIUM = RadialProblem(PotentialSpec.coulomb(1.0), mu=0.5, M=2.0)

HYDROGEN_FD_GRID = GridSpec(1e-4, 30.0, 2000)
HYDROGEN_NUMEROV_GRID = GridSpec(1e-5, 40.0, 20000)
OSC_FD_GRID = GridSpec(-12.0, 12.0, 3000)
OSC_NUMEROV_GRID = GridSpec(-12.0, 12.0, 6000)


def oscillator_fd_error_bound(n: int, h: float) -> float:
    """First-order truncation shift of the second-difference oscillator.

    delta eps_n = (h**2/24) <psi_n''''> with <psi''''> = <x**4> = 3(2n^2+2n+1)/4
    for the unit oscillator; a 1.25 factor absorbs higher-order terms.
    """
    x4 = 0.75 * (2 * n * n + 2 * n + 1)
    return 1.25 * h * h / 24.0 * x4


# ---------------------------------------------------------------------------
# problem description
# ---------------------------------------------------------------------------


def test_potential_factories_validate():
    with pytest.raises(ValueError):
        PotentialSpec.harmonic(0.0)
    with pytest.raises(ValueError):
        PotentialSpec.coulomb(-1.0)
    with pytest.raises(ValueError):
        PotentialSpec.finite_well(-1.0, 2.0)
    with pytest.raises(ValueError):
        PotentialSpec.infinite_well(0.0)
    with pytest.raises(ValueError, match="increasing"):
        PotentialSpec.tabulated([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="kind"):
        PotentialSpec(kind="yukawa")


def test_potential_values():
    r = np.array([0.5, 1.0, 2.0])
    assert np.allclose(PotentialSpec.harmonic(2.0).evaluate(r, mu=3.0), 0.5 * 3.0 * 4.0 * r * r)
    assert np.allclose(PotentialSpec.coulomb(2.0).evaluate(r), -2.0 / r)
    well = PotentialSpec.finite_well(5.0, 1.5)
    assert np.allclose(well.evaluate(r), [-5.0, -5.0, 0.0])
    assert np.all(PotentialSpec.infinite_well(3.0).evaluate(r) == 0.0)
    tab = PotentialSpec.tabulated([0.0, 1.0, 2.0], [0.0, -1.0, 0.0])
    assert np.allclose(tab.evaluate(r), [-0.5, -1.0, 0.0])


def test_grid_spec():
    grid = GridSpec(0.0, 1.0, 101)
    assert grid.h == pytest.approx(0.01)
    nodes = grid.nodes()
    assert nodes[0] == 0.0 and nodes[-1] == 1.0 and nodes.size == 101
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.0, 100)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 15)


def test_radial_problem_validation():
    with pytest.raises(ValueError):
        RadialProblem(PotentialSpec.coulomb(1.0), mu=0.0)
    with pytest.raises(ValueError):
        RadialProblem(PotentialSpec.coulomb(1.0), M=-1.0)
    with pytest.raises(ValueError):
        RadialProblem(PotentialSpec.coulomb(1.0), l=-1)
    # mu between M/2 and M is not realizable by any reduction
    with pytest.raises(ValueError, match="reduced mass"):
        RadialProblem(PotentialSpec.coulomb(1.0), mu=0.9, M=1.0)


def test_reduce_two_body_hydrogen():
    problem = reduce_two_body(1.0, PROTON_ELECTRON_MASS_RATIO, PotentialSpec.coulomb(1.0))
    # CODATA mass ratio: mu = R/(1+R)
    assert problem.mu == pytest.approx(0.9994556794247628, rel=1e-12)
    assert problem.M == pytest.approx(1.0 + PROTON_ELECTRON_MASS_RATIO, rel=1e-15)


def test_reduce_two_body_positronium_and_symmetry():
    a = reduce_two_body(1.0, 1.0, PotentialSpec.coulomb(1.0))
    assert a.mu == 0.5 and a.M == 2.0
    b = reduce_two_body(3.0, 7.0, PotentialSpec.coulomb(1.0))
    c = reduce_two_body(7.0, 3.0, PotentialSpec.coulomb(1.0))
    assert b.mu == c.mu == pytest.approx(2.1, rel=1e-15)


def test_reduce_two_body_rejects_nonpositive():
    with pytest.raises(ValueError):
        reduce_two_body(0.0, 1.0, PotentialSpec.coulomb(1.0))
    with pytest.raises(ValueError):
        reduce_two_body(1.0, -2.0, PotentialSpec.coulomb(1.0))


def test_effective_potential_centrifugal():
    problem = RadialProblem(PotentialSpec.coulomb(1.0), l=2)
    r = np.array([1.0, 2.0])
    expected = -1.0 / r + 2 * 3 / (2.0 * r * r)
    assert np.allclose(effective_potential(problem, r), expected, rtol=1e-14)


# ---------------------------------------------------------------------------
# finite-difference route
# ---------------------------------------------------------------------------


def test_assemble_rejects_coulomb_at_origin():
    with pytest.raises(ValueError, match="r_min > 0"):
        assemble_tridiagonal(HYDROGEN, GridSpec(0.0, 30.0, 100))
    with pytest.raises(ValueError, match="r_min > 0"):
        assemble_tridiagonal(
            RadialProblem(PotentialSpec.infinite_well(1.0), l=1), GridSpec(0.0, 1.0, 100)
        )


def test_assembled_matrix_is_symmetric():
    operator = assemble_tridiagonal(OSCILLATOR, GridSpec(-5.0, 5.0, 64))
    dense = operator.todense()
    assert np.array_equal(dense, dense.T)


def test_assembled_entries():
    grid = GridSpec(-5.0, 5.0, 64)
    operator = assemble_tridiagonal(OSCILLATOR, grid)
    h = grid.h
    r = grid.nodes()[1:-1]
    assert np.allclose(operator.diagonal, 1.0 / (h * h) + 0.5 * r * r, rtol=1e-14)
    assert np.allclose(operator.off_diagonal, -0.5 / (h * h), rtol=1e-14)


def test_particle_in_box_limit():
    # V = 0 with Dirichlet walls: eps_k ~ (k pi / L)^2 / 2 with a known
    # second-difference bias of relative size -(k pi h / L)^2 / 12
    box = RadialProblem(PotentialSpec.infinite_well(1.0))
    grid = GridSpec(0.0, 1.0, 800)
    result = solve_lowest_k(assemble_tridiagonal(box, grid), 4)
    for k in range(1, 5):
        exact = (k * math.pi) ** 2 / 2.0
        rel_err = (result.epsilons[k - 1] - exact) / exact
        model = -((k * math.pi * grid.h) ** 2) / 12.0
        assert rel_err == pytest.approx(model, rel=0.05)
    assert np.all(np.diff(result.epsilons) > 0.0)


def test_fd_oscillator_matches_truncation_model():
    result = solve_lowest_k(assemble_tridiagonal(OSCILLATOR, OSC_FD_GRID), 5)
    for n in range(5):
        error = abs(result.epsilons[n] - oscillator_level(1.0, n))
        assert error <= oscillator_fd_error_bound(n, OSC_FD_GRID.h)
    assert result.epsilons[0] == pytest.approx(0.5, abs=5e-6)


def test_fd_hydrogen_ground_state():
    result = solve_lowest_k(assemble_tridiagonal(HYDROGEN, HYDROGEN_FD_GRID), 1)
    assert result.epsilons[0] == pytest.approx(-0.5, abs=5e-4)


def test_fd_hydrogen_three_states():
    result = solve_lowest_k(assemble_tridiagonal(HYDROGEN, HYDROGEN_FD_GRID), 3)
    for n in range(3):
        assert result.epsilons[n] == pytest.approx(bohr_level(1.0, 1.0, n + 1), abs=2e-3)


def test_fd_diagnostics_and_normalization():
    result = solve_lowest_k(assemble_tridiagonal(HYDROGEN, HYDROGEN_FD_GRID), 3)
    assert np.all(result.residuals < 1e-8)
    assert np.array_equal(result.nodes, [0, 1, 2])  # Sturm oscillation property
    for u in result.wavefunctions:
        assert abs(trapezoid(u * u, dx=HYDROGEN_FD_GRID.h) - 1.0) < 1e-10
        assert u[0] == 0.0 and u[-1] == 0.0


def test_fd_bound_state_energy_window():
    result = solve_lowest_k(assemble_tridiagonal(HYDROGEN, HYDROGEN_FD_GRID), 3)
    v_min = effective_potential(HYDROGEN, HYDROGEN_FD_GRID.nodes()[1:-1]).min()
    assert np.all(result.epsilons > v_min)
    assert np.all(result.epsilons < HYDROGEN.potential.asymptote())


def test_fd_k_out_of_range():
    operator = assemble_tridiagonal(OSCILLATOR, GridSpec(-5.0, 5.0, 64))
    with pytest.raises(ValueError):
        solve_lowest_k(operator, 0)
    with pytest.raises(ValueError):
        solve_lowest_k(operator, operator.dim + 1)


def test_finite_well_against_transcendental_oracle():
    # radial s-wave square well: bound levels solve k cot(k a) = -kappa with
    # k = sqrt(2(eps+V0)), kappa = sqrt(-2 eps); independent root-find below
    from scipy.optimize import brentq

    V0, a = 1.0, 2.0

    def matching(k):
        return k / math.tan(k * a) + math.sqrt(2.0 * V0 - k * k)

    k0 = brentq(matching, math.pi / (2 * a) + 1e-9, math.sqrt(2.0 * V0) - 1e-9, xtol=1e-14)
    eps_exact = 0.5 * k0 * k0 - V0

    well = RadialProblem(PotentialSpec.finite_well(V0, a))
    grid = GridSpec(0.0, 25.0, 4000)
    eps_fd = solve_lowest_k(assemble_tridiagonal(well, grid), 1).epsilons[0]
    eps_nv, _ = numerov_solve(well, grid, 0, (-0.99, -1e-4))
    # sampling a step potential quantizes the wall position to O(h); the
    # measured constant is 0.166 h, gated here at 0.25 h
    assert abs(eps_fd - eps_exact) <= 0.25 * grid.h
    assert abs(eps_nv - eps_exact) <= 0.25 * grid.h
    assert eps_nv == pytest.approx(eps_fd, abs=1e-4)


def test_degeneracy_flag_on_split_double_well():
    # two harmonic wells 16 apart: the tunneling splitting of the lowest
    # pair is ~exp(-60), far below both 1e-12 and the solver resolution
    grid = GridSpec(-16.0, 16.0, 2400)
    r = grid.nodes()
    double_well = PotentialSpec.tabulated(r, 0.5 * (np.abs(r) - 8.0) ** 2)
    result = solve_lowest_k(assemble_tridiagonal(RadialProblem(double_well), grid), 2)
    assert abs(result.epsilons[1] - result.epsilons[0]) < 1e-12
    assert bool(result.degenerate[0]) and bool(result.degenerate[1])


def test_no_degeneracy_flag_for_separated_spectrum():
    result = solve_lowest_k(assemble_tridiagonal(HYDROGEN, HYDROGEN_FD_GRID), 3)
    assert not result.degenerate.any()


def test_fd_boundary_independence():
    # doubling r_max at fixed h leaves the hydrogen ground state unchanged
    g1 = HYDROGEN_FD_GRID
    g2 = GridSpec(g1.r_min, g1.r_min + 2 * (g1.n - 1) * g1.h, 2 * (g1.n - 1) + 1)
    assert g2.h == pytest.approx(g1.h, rel=1e-15)
    e1 = solve_lowest_k(assemble_tridiagonal(HYDROGEN, g1), 1).epsilons[0]
    e2 = solve_lowest_k(assemble_tridiagonal(HYDROGEN, g2), 1).epsilons[0]
    assert abs(e1 - e2) < 1e-10


# ---------------------------------------------------------------------------
# Numerov route
# ---------------------------------------------------------------------------


def test_numerov_oscillator_ground_state():
    epsilon, u = numerov_solve(OSCILLATOR, OSC_NUMEROV_GRID, 0, (0.3, 0.7))
    assert epsilon == pytest.approx(0.5, abs=1e-8)
    assert abs(trapezoid(u * u, dx=OSC_NUMEROV_GRID.h) - 1.0) < 1e-10


def test_numerov_hydrogen_ground_state():
    epsilon, u = numerov_solve(HYDROGEN, HYDROGEN_NUMEROV_GRID, 0, (-0.6, -0.4))
    assert epsilon == pytest.approx(-0.5, abs=1e-6)


def test_numerov_positronium_ground_state():
    epsilon, _ = numerov_solve(POSITRONIUM, GridSpec(1e-5, 80.0, 32000), 0, (-0.3, -0.2))
    assert epsilon == pytest.approx(-0.25, abs=1e-6)


def test_numerov_excited_state_node_count():
    epsilon, u = numerov_solve(OSCILLATOR, OSC_NUMEROV_GRID, 3, (3.0, 4.0))
    assert epsilon == pytest.approx(3.5, abs=1e-7)
    interior = u[1:-1]
    assert int(np.sum(interior[:-1] * interior[1:] < 0.0)) == 3


def test_numerov_wide_bracket_is_narrowed_by_node_counts():
    # bracket holding several states still converges to the requested one
    epsilon, _ = numerov_solve(OSCILLATOR, OSC_NUMEROV_GRID, 1, (0.2, 3.2))
    assert epsilon == pytest.approx(1.5, abs=1e-8)


def test_numerov_bracket_missing_state():
    with pytest.raises(WrongStateError):
        numerov_solve(OSCILLATOR, OSC_NUMEROV_GRID, 0, (0.9, 1.2))
    with pytest.raises(WrongStateError):
        numerov_solve(OSCILLATOR, OSC_NUMEROV_GRID, 1, (1.8, 2.2))


def test_numerov_invalid_bracket():
    with pytest.raises(ValueError):
        numerov_solve(OSCILLATOR, OSC_NUMEROV_GRID, 0, (0.7, 0.3))


def test_error_taxonomy():
    # domain/usage errors are ValueErrors (CLI exit 2); non-convergence is a
    # RuntimeError (CLI exit 3); bracket and wrong-state failures stay
    # catchable as ValueError, although the CLI maps them to exit 3 too
    from rsse.eigensolver import ConvergenceError

    assert issubclass(BracketError, ValueError)
    assert issubclass(WrongStateError, ValueError)
    assert issubclass(ConvergenceError, RuntimeError)
    assert not issubclass(ConvergenceError, ValueError)


def test_numerov_unconverged_brent_raises(monkeypatch):
    from types import SimpleNamespace

    import scipy.optimize

    from rsse.eigensolver import ConvergenceError

    def unconverged(f, a, b, **kwargs):
        return 0.5 * (a + b), SimpleNamespace(converged=False, iterations=100, flag="stalled")

    monkeypatch.setattr(scipy.optimize, "brentq", unconverged)
    with pytest.raises(ConvergenceError, match="Brent"):
        numerov_solve(OSCILLATOR, OSC_NUMEROV_GRID, 0, (0.3, 0.7))


def test_numerov_rejects_origin_for_coulomb():
    with pytest.raises(ValueError, match="r_min > 0"):
        numerov_solve(HYDROGEN, GridSpec(0.0, 40.0, 1000), 0, (-0.6, -0.4))


def test_numerov_hydrogen_p_channel():
    # lowest l=1 state (2p); exercises the centrifugal term and the
    # r**(l+1) start values
    problem = RadialProblem(PotentialSpec.coulomb(1.0), l=1)
    eps, u = numerov_solve(problem, HYDROGEN_NUMEROV_GRID, 0, (-0.2, -0.05))
    assert eps == pytest.approx(bohr_level(1.0, 1.0, 2), abs=1e-8)
    assert count_nodes(u) == 0


def count_nodes(u):
    interior = u[1:-1]
    return int(np.sum(interior[:-1] * interior[1:] < 0.0))


def test_fd_hydrogen_p_channel():
    problem = RadialProblem(PotentialSpec.coulomb(1.0), l=1)
    result = solve_lowest_k(assemble_tridiagonal(problem, HYDROGEN_FD_GRID), 2)
    assert result.epsilons[0] == pytest.approx(bohr_level(1.0, 1.0, 2), abs=1e-4)
    assert result.epsilons[1] == pytest.approx(bohr_level(1.0, 1.0, 3), abs=2e-3)


def test_solve_numerov_lowest_k_hydrogen():
    result = solve_numerov_lowest_k(HYDROGEN, HYDROGEN_NUMEROV_GRID, 3)
    for n in range(3):
        assert result.epsilons[n] == pytest.approx(bohr_level(1.0, 1.0, n + 1), abs=2e-6)
    assert np.array_equal(result.nodes, [0, 1, 2])
    assert np.all(result.residuals < 1e-10)
    assert result.method == "numerov"


def _python_numerov(f: np.ndarray, h: float, u0: float, u1: float) -> np.ndarray:
    """Reference three-term Numerov recurrence, one sample at a time."""
    c = h * h / 12.0
    u = np.empty(f.shape[0])
    u[0], u[1] = u0, u1
    for i in range(1, f.shape[0] - 1):
        u[i + 1] = ((2.0 + 10.0 * c * f[i]) * u[i] - (1.0 - c * f[i - 1]) * u[i - 1]) / (
            1.0 - c * f[i + 1]
        )
    return u


@pytest.mark.parametrize("epsilon", [0.1, 1.0, 2.2, 4.0])
def test_numerov_sweep_matches_python_recurrence(epsilon):
    # away from an eigenvalue the growing solution dominates, so rounding is
    # not amplified and the banded solve must agree with the plain loop
    grid = GridSpec(-12.0, 12.0, 2000)
    f = 2.0 * (effective_potential(OSCILLATOR, grid.nodes()) - epsilon)
    got = _numerov_sweep(f, grid.h, 0.0, 1.0)
    want = _python_numerov(f, grid.h, 0.0, 1.0)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12


@pytest.mark.filterwarnings("error")
def test_numerov_sweep_halves_overflowing_chunks():
    # constant f with growth e**0.5 per step: a 4096-row chunk would reach
    # e**2048, so the sweep must shrink its chunks and rescale between them
    n, h = 20000, 0.5
    f = np.full(n, 4.0)
    u = _numerov_sweep(f, h, 1.0, math.exp(0.5))
    assert np.all(np.isfinite(u))
    assert count_sign_changes(u) == 0
    t = h * h / 12.0 * 4.0
    growth = (1.0 + 5.0 * t + math.sqrt((1.0 + 5.0 * t) ** 2 - (1.0 - t) ** 2)) / (1.0 - t)
    tail = u[-100:]
    assert np.allclose(tail[1:] / tail[:-1], growth, rtol=1e-12)


def test_numerov_sweep_failures_raise_convergence_error():
    from rsse.eigensolver import ConvergenceError

    f = np.zeros(100)
    f[50] = 12.0  # 1 - h**2 f / 12 = 0: a zero diagonal of the banded system
    with pytest.raises(ConvergenceError, match="singular"):
        _numerov_sweep(f, 1.0, 0.0, 1.0)
    f[50] = np.nan  # stays non-finite at any chunk length
    with pytest.raises(ConvergenceError, match="overflows"):
        _numerov_sweep(f, 1.0, 0.0, 1.0)


def test_count_sign_changes_reads_signed_zeros():
    # samples that underflowed in a rescale keep their sign bit
    assert count_sign_changes(np.array([1e-300, -0.0, -1.0, -0.0, 0.0, 2.0])) == 2
    assert count_sign_changes(np.array([1.0, 0.0, -1.0])) == 1
    assert count_sign_changes(np.array([3.0, 2.0, 1.0])) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "grid", [GridSpec(1e-5, 800.0, 40000), GridSpec(1e-5, 3000.0, 20000)], ids=["r800", "r3000"]
)
def test_count_states_below_on_long_boxes(grid):
    shooter = _Shooter(HYDROGEN, grid)
    assert [shooter.count_states_below(e) for e in (-0.6, -0.3, -0.1)] == [0, 1, 2]


@pytest.mark.filterwarnings("error")
def test_numerov_hydrogen_long_box():
    grid = GridSpec(1e-5, 800.0, 40000)
    result = solve_numerov_lowest_k(HYDROGEN, grid, 2)
    assert np.array_equal(result.nodes, [0, 1])
    tolerance = 2e-6 * (grid.h / 0.002) ** 2
    for n in range(2):
        assert result.epsilons[n] == pytest.approx(bohr_level(1.0, 1.0, n + 1), abs=tolerance)
    assert np.all(result.residuals < 1e-10)


def test_numerov_solve_evaluates_each_energy_once(monkeypatch):
    # neither the bracket ends brentq re-evaluates nor the converged root
    # are merged twice by the same shooter
    merged = []
    original = _Shooter.merged_solution

    def spy(self, epsilon):
        merged.append((self, epsilon))  # holding self keeps shooter ids distinct
        return original(self, epsilon)

    monkeypatch.setattr(_Shooter, "merged_solution", spy)
    solve_numerov_lowest_k(HYDROGEN, HYDROGEN_NUMEROV_GRID, 3)
    keys = [(id(shooter), epsilon) for shooter, epsilon in merged]
    assert len(keys) == len(set(keys))


def test_default_brackets_isolate_states():
    brackets = default_brackets(OSCILLATOR, OSC_FD_GRID, 3)
    for n, (lo, hi) in enumerate(brackets):
        assert lo < oscillator_level(1.0, n) < hi


def test_default_brackets_need_one_fd_level_above_the_top_state():
    grid = GridSpec(-6.0, 6.0, 16)  # 14 interior nodes, so 14 FD levels
    assert len(default_brackets(OSCILLATOR, grid, 13)) == 13
    for k in (0, 14, 15):
        with pytest.raises(ValueError, match=r"k must be in \[1, 13\]"):
            default_brackets(OSCILLATOR, grid, k)
    with pytest.raises(ValueError, match=r"k must be in \[1, 13\]"):
        solve_numerov_lowest_k(OSCILLATOR, grid, 15)


def test_fd_and_numerov_agree_within_fd_truncation():
    # the coarser route's truncation error (from the analytic oracle)
    # bounds the cross-method disagreement
    for problem, grid, exact in (
        (HYDROGEN, HYDROGEN_FD_GRID, bohr_level(1.0, 1.0, 1)),
        (OSCILLATOR, OSC_FD_GRID, oscillator_level(1.0, 0)),
        (POSITRONIUM, GridSpec(1e-4, 60.0, 4000), bohr_level(1.0, 0.5, 1)),
    ):
        eps_fd = solve_lowest_k(assemble_tridiagonal(problem, grid), 1).epsilons[0]
        eps_nv = solve_numerov_lowest_k(problem, grid, 1).epsilons[0]
        fd_truncation = abs(eps_fd - exact)
        assert abs(eps_fd - eps_nv) <= 10.0 * fd_truncation


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_trapezoid_matches_scipy_bit_for_bit():
    # normalisation feeds every reported wavefunction, so the inline rule
    # must reproduce scipy's sum exactly, not just to round-off
    rng = np.random.default_rng(7)
    for size in rng.integers(16, 40002, size=40):
        y = rng.standard_normal(size) ** 2
        h = float(rng.uniform(1e-4, 0.1))
        assert _trapezoid(y, h) == float(trapezoid(y, dx=h))


def test_rayleigh_quotient_analytic_gaussian():
    grid = GridSpec(-12.0, 12.0, 6001)
    x = grid.nodes()
    psi = math.pi**-0.25 * np.exp(-x * x / 2.0)
    assert rayleigh_quotient(psi, OSCILLATOR, grid) == pytest.approx(0.5, abs=1e-6)


def test_rayleigh_quotient_matches_solver():
    result = solve_lowest_k(assemble_tridiagonal(OSCILLATOR, OSC_FD_GRID), 2)
    for i in range(2):
        quotient = rayleigh_quotient(result.wavefunctions[i], OSCILLATOR, OSC_FD_GRID)
        assert abs(quotient - result.epsilons[i]) <= 10.0 * max(result.residuals[i], 1e-12)


def test_rayleigh_quotient_scale_invariant():
    grid = GridSpec(-12.0, 12.0, 3000)
    x = grid.nodes()
    psi = np.exp(-x * x / 2.0)
    assert rayleigh_quotient(7.3 * psi, OSCILLATOR, grid) == pytest.approx(
        rayleigh_quotient(psi, OSCILLATOR, grid), rel=1e-12
    )


def test_rayleigh_quotient_rejects_zero():
    grid = GridSpec(-12.0, 12.0, 3000)
    with pytest.raises(ValueError):
        rayleigh_quotient(np.zeros(grid.n), OSCILLATOR, grid)


def test_convergence_order_fd():
    grids = [GridSpec(-8.0, 8.0, n) for n in (128, 255, 509, 1017)]
    slope = convergence_order(OSCILLATOR, grids, 0.5, method="fd")
    assert slope == pytest.approx(2.0, abs=0.1)
    # a precomputed (h, eps) table gives the same fit without solving again
    table = [(g.h, float(solve_lowest_k(assemble_tridiagonal(OSCILLATOR, g), 1).epsilons[0]))
             for g in grids]
    assert convergence_order(OSCILLATOR, grids, 0.5, method="fd", table=table) == slope


def test_convergence_order_numerov():
    grids = [GridSpec(-8.0, 8.0, n) for n in (128, 255, 509, 1017)]
    slope = convergence_order(OSCILLATOR, grids, 0.5, method="numerov")
    assert slope == pytest.approx(4.0, abs=0.3)


def test_convergence_order_guards():
    grids = [GridSpec(-8.0, 8.0, n) for n in (128, 255)]
    with pytest.raises(ValueError, match="3 grids"):
        convergence_order(OSCILLATOR, grids, 0.5)
    same = GridSpec(-8.0, 8.0, 128)
    with pytest.raises(ValueError, match="degenerate"):
        convergence_order(OSCILLATOR, [same, same, same], 0.5)
    with pytest.raises(ValueError, match="method"):
        convergence_order(
            OSCILLATOR,
            [GridSpec(-8.0, 8.0, n) for n in (128, 255, 509)],
            0.5,
            method="spectral",
        )
    with pytest.raises(ValueError, match="one \\(h, eps\\) pair per grid"):
        convergence_order(
            OSCILLATOR, [GridSpec(-8.0, 8.0, n) for n in (128, 255, 509)], 0.5, table=[(0.1, 0.5)]
        )
