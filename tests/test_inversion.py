import numpy as np
import pytest

from rsse.eigensolver import assemble_tridiagonal, solve_lowest_k
from rsse.inversion import (
    ANTIMATTER,
    MATTER,
    PlaneWaveState,
    dirac_theta_chi,
    effective_mass,
    electron_plane_wave,
    evaluate_plane_wave,
    invert_theta_chi,
    is_on_shell,
    spacetime_invert,
    time_reversal_check,
)
from rsse.problem import GridSpec, PotentialSpec, RadialProblem
from rsse.units import ATOMIC

C = ATOMIC.c

# 40-digit evaluations of gamma*beta/(gamma+1) amplitudes at beta = 0.6
THETA_06 = 0.9486832980505138
CHI_06 = 0.31622776601683794
GAMMA_099 = 7.088812050083359


# ---------------------------------------------------------------------------
# plane waves and the inversion map
# ---------------------------------------------------------------------------


def test_electron_quantum_numbers():
    w = electron_plane_wave(0.6 * C)
    assert (w.Q, w.L) == (-1, +1)
    assert w.branch == MATTER
    assert w.E > 0.0
    assert is_on_shell(w)


def test_inversion_flips_q_and_l():
    w = electron_plane_wave(0.6 * C)
    pos = spacetime_invert(w)
    assert (pos.Q, pos.L) == (+1, -1)
    assert pos.branch == ANTIMATTER
    # kinematic content untouched, both energies positive
    assert pos.p == w.p and pos.E == w.E and pos.m0 == w.m0
    assert pos.E > 0.0


def test_inversion_is_involution():
    w = electron_plane_wave(0.37 * C, amplitude=0.5 + 0.25j)
    assert spacetime_invert(spacetime_invert(w)) == w


def test_evaluate_at_origin_is_amplitude():
    w = electron_plane_wave(0.6 * C, amplitude=0.3 - 0.4j)
    assert evaluate_plane_wave(w, 0.0, 0.0) == 0.3 - 0.4j


def test_evaluate_has_constant_magnitude():
    w = electron_plane_wave(0.6 * C, amplitude=0.3 - 0.4j)
    xs = np.linspace(-1.0, 1.0, 10)
    ts = np.linspace(-0.5, 0.5, 10)
    values = [abs(evaluate_plane_wave(w, x, t)) for x in xs for t in ts]
    assert np.allclose(values, 0.5, rtol=1e-12)


def test_evaluation_identity_on_random_points():
    # evaluate(invert(w), x, t) == evaluate(w, -x, -t) pointwise
    rng = np.random.default_rng(42)
    w = electron_plane_wave(0.6 * C)
    inverted = spacetime_invert(w)
    for x, t in rng.uniform(-1.0, 1.0, size=(50, 2)):
        lhs = evaluate_plane_wave(inverted, x, t)
        rhs = evaluate_plane_wave(w, -x, -t)
        assert abs(lhs - rhs) <= 1e-12


def test_branch_validation():
    with pytest.raises(ValueError, match="branch"):
        PlaneWaveState(p=1.0, E=2.0, branch="neutral", Q=0, L=0)
    with pytest.raises(ValueError, match="energy"):
        PlaneWaveState(p=1.0, E=-2.0, branch=MATTER, Q=-1, L=1)


# ---------------------------------------------------------------------------
# two-component amplitudes
# ---------------------------------------------------------------------------


def test_theta_chi_at_rest():
    tc = dirac_theta_chi(1.0, 0.0)
    assert abs(tc.chi) == 0.0
    assert abs(tc.theta) == 1.0


def test_theta_chi_at_beta_06():
    tc = dirac_theta_chi(1.0, 0.6 * C)
    ratio = abs(tc.chi) / abs(tc.theta)
    assert abs(ratio - 1.0 / 3.0) <= 1e-12
    assert abs(tc.theta) == pytest.approx(THETA_06, rel=1e-12)
    assert abs(tc.chi) == pytest.approx(CHI_06, rel=1e-12)


def test_theta_chi_ultra_relativistic():
    tc = dirac_theta_chi(1.0, 0.999999 * C)
    assert abs(tc.chi) / abs(tc.theta) > 0.998


def test_theta_chi_unit_norm_and_monotone():
    betas = np.linspace(0.0, 0.9999, 100)
    ratios = []
    for beta in betas:
        tc = dirac_theta_chi(1.0, beta * C)
        assert abs(tc.theta) ** 2 + abs(tc.chi) ** 2 == pytest.approx(1.0, rel=1e-12)
        ratios.append(abs(tc.chi) / abs(tc.theta))
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_theta_chi_branch_dominance():
    matter = dirac_theta_chi(1.0, 0.6 * C, branch=MATTER)
    assert abs(matter.theta) > abs(matter.chi)
    anti = dirac_theta_chi(1.0, 0.6 * C, branch=ANTIMATTER)
    assert abs(anti.chi) > abs(anti.theta)


def test_invert_theta_chi_swaps_amplitudes():
    tc = dirac_theta_chi(1.0, 0.6 * C)
    flipped = invert_theta_chi(tc)
    assert flipped.branch == ANTIMATTER
    assert abs(flipped.theta) == pytest.approx(CHI_06, rel=1e-12)
    assert abs(flipped.chi) == pytest.approx(THETA_06, rel=1e-12)
    assert abs(flipped.chi) > abs(flipped.theta)


def test_invert_theta_chi_involution():
    tc = dirac_theta_chi(1.0, 0.3 * C)
    assert invert_theta_chi(invert_theta_chi(tc)) == tc


def test_invert_theta_chi_at_rest():
    flipped = invert_theta_chi(dirac_theta_chi(1.0, 0.0))
    assert abs(flipped.theta) == 0.0
    assert abs(flipped.chi) == 1.0


# ---------------------------------------------------------------------------
# effective mass
# ---------------------------------------------------------------------------


def test_effective_mass_values():
    assert effective_mass(1.0, 0.0) == 1.0
    assert effective_mass(1.0, 0.6 * C) == pytest.approx(1.25, rel=1e-12)
    assert effective_mass(1.0, 0.99 * C) == pytest.approx(GAMMA_099, rel=1e-12)


def test_effective_mass_inverse_identity():
    for beta in np.linspace(0.0, 0.999, 40):
        m = effective_mass(2.0, beta * C)
        assert m * np.sqrt((1 - beta) * (1 + beta)) == pytest.approx(2.0, rel=1e-12)


def test_effective_mass_monotone_and_divergent():
    betas = np.linspace(0.0, 0.999999, 200)
    masses = [effective_mass(1.0, b * C) for b in betas]
    assert all(b > a for a, b in zip(masses, masses[1:]))
    assert masses[-1] > 100.0


def test_effective_mass_domain():
    with pytest.raises(ValueError):
        effective_mass(1.0, C)
    with pytest.raises(ValueError):
        effective_mass(-1.0, 0.0)


# ---------------------------------------------------------------------------
# time-reversal equivalence on stationary states
# ---------------------------------------------------------------------------


def test_time_reversal_real_hydrogen_ground_state():
    grid = GridSpec(1e-4, 30.0, 2000)
    r = grid.nodes()
    u = 2.0 * r * np.exp(-r)  # analytic 1s reduced radial function
    potential = -1.0 / r
    residual = time_reversal_check(u, -0.5, potential, grid)
    # independent truncation bound: |D2 u - u''| <= h^2/12 * max|u''''|,
    # with u'''' = 2 (r - 4) e^(-r) peaking at 8 near the origin
    bound = grid.h**2 / 12.0 * 8.0 / np.max(np.abs(u))
    assert 0.0 < residual <= bound
    # conjugation is a no-op for a real eigenfunction
    assert residual == time_reversal_check(u.astype(complex), -0.5, potential, grid)


def test_time_reversal_free_plane_wave_closed_form():
    grid = GridSpec(0.0, 20.0, 2000)
    x = grid.nodes()
    p = 3.0
    psi = np.exp(1j * p * x)
    residual = time_reversal_check(psi, p * p / 2.0, np.zeros(grid.n), grid)
    # the discrete kinetic symbol is (1 - cos(p h))/h^2, so the residual of
    # the momentum-reversed solution is the symbol mismatch; the slack
    # covers rounding of the grid nodes amplified by 1/h^2
    expected = abs(p * p / 2.0 - (1.0 - np.cos(p * grid.h)) / grid.h**2)
    assert residual == pytest.approx(expected, abs=1e-10)


def test_time_reversal_solver_state_within_solver_residual():
    problem = RadialProblem(PotentialSpec.harmonic(1.0))
    grid = GridSpec(-12.0, 12.0, 3000)
    result = solve_lowest_k(assemble_tridiagonal(problem, grid), 4)
    potential = 0.5 * grid.nodes() ** 2
    for i in range(4):
        residual = time_reversal_check(
            result.wavefunctions[i], result.epsilons[i], potential, grid
        )
        assert residual <= 10.0 * result.residuals[i]


def test_time_reversal_length_mismatch():
    grid = GridSpec(0.0, 1.0, 32)
    with pytest.raises(ValueError, match="mismatch"):
        time_reversal_check(np.zeros(31), 0.0, np.zeros(32), grid)
    with pytest.raises(ValueError, match="mismatch"):
        time_reversal_check(np.ones(32), 0.0, np.zeros(30), grid)


@pytest.mark.parametrize(
    "psi, potential, epsilon, words",
    [
        # a column has the right length, and would broadcast the residual to n x n
        (np.ones((32, 1)), np.zeros(32), 0.0, r"mismatch: grid has 32 nodes, psi has shape \(32, 1\)"),
        (np.ones(32), np.zeros((32, 1)), 0.0, r"potential has shape \(32, 1\)"),
        (np.where(np.arange(32) == 5, np.nan, 1.0), np.zeros(32), 0.0, "psi samples must be finite"),
        (np.ones(32), np.where(np.arange(32) == 5, np.inf, 0.0), 0.0, "potential samples must be finite"),
        (np.ones(32), np.zeros(32), np.nan, "epsilon must be finite, got nan"),
        (np.ones(32), np.zeros(32), -np.inf, "epsilon must be finite, got -inf"),
    ],
)
def test_time_reversal_rejects_samples_that_are_not_a_finite_row(psi, potential, epsilon, words):
    with pytest.raises(ValueError, match=words):
        time_reversal_check(psi, epsilon, potential, GridSpec(0.0, 1.0, 32))


def test_time_reversal_zero_state_rejected():
    grid = GridSpec(0.0, 1.0, 32)
    with pytest.raises(ValueError, match="zero"):
        time_reversal_check(np.zeros(32), 0.0, np.zeros(32), grid)
