"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 4 is split into its four independent clauses.  The oscillator
finite-difference clause (4c) is known to fail as stated: on the pinned
grid (-12, 12, n=3000) the plain three-point stencil has truncation error
(h**2/24) <x**4>_n, which evaluates to {2.0e-6, 1.0e-5, 2.6e-5, 5.0e-5,
8.2e-5} for the five lowest states, so no implementation of that stencil
on that grid can land all five inside 1e-5.  The clause is asserted at its
stated tolerance anyway; see test_eigensolver.py for the passing check
against the actual truncation-error model.
"""

import numpy as np
import pytest

from rsse.cli import main
from rsse.eigensolver import assemble_tridiagonal, convergence_order, numerov_solve, solve_lowest_k
from rsse.inversion import (
    dirac_theta_chi,
    effective_mass,
    electron_plane_wave,
    evaluate_plane_wave,
    spacetime_invert,
    time_reversal_check,
)
from rsse.kinematics import check_phase_harmony, derive_de_broglie, momentum
from rsse.problem import GridSpec, PotentialSpec, RadialProblem
from rsse.spectra import binding_nonrel, binding_relativistic, dirac_coulomb_level
from rsse.units import ATOMIC, FINE_STRUCTURE, convert_energy

C = ATOMIC.c
MC2 = C * C

HYDROGEN = RadialProblem(PotentialSpec.coulomb(1.0))
OSCILLATOR = RadialProblem(PotentialSpec.harmonic(1.0))
POSITRONIUM = RadialProblem(PotentialSpec.coulomb(1.0), mu=0.5, M=2.0)


def _report(number: str, label: str) -> None:
    print(f"PASS criterion {number}: {label}")


def test_criterion_01_ground_state_identity():
    eps = -0.5 * MC2 * FINE_STRUCTURE**2
    b_rel = binding_relativistic(eps, 1.0)
    _, b_dirac = dirac_coulomb_level(1.0, 1, 0.5)
    assert abs(b_rel - b_dirac) <= 1e-12 * b_dirac, (b_rel, b_dirac)
    _report("1", f"corrected binding == exact 1s1/2 binding to 1e-12 ({b_rel!r})")


def test_criterion_02_leading_order_gap():
    eps = -0.5
    gap = binding_relativistic(eps, 1.0) - binding_nonrel(eps)
    term = eps * eps / (2.0 * MC2)
    assert abs(gap - term) <= 0.01 * term, (gap, term)
    gap_ev = convert_energy(gap, "hartree", "eV")
    assert gap_ev == pytest.approx(1.8e-4, rel=0.01)
    _report("2", f"B_rel - B_nonrel = eps^2/(2Mc^2) within 1% ({gap:.6e} hartree = {gap_ev:.3e} eV)")


def test_criterion_03_fine_structure_discrepancy():
    _, b_2_half = dirac_coulomb_level(1.0, 2, 0.5)
    _, b_2_three = dirac_coulomb_level(1.0, 2, 1.5)
    assert b_2_half != b_2_three
    split = b_2_half - b_2_three
    expected = FINE_STRUCTURE**4 * MC2 / 32.0
    assert split == pytest.approx(expected, rel=0.05), (split, expected)
    # the j-independent corrected binding misses the j = 1/2 level by O(alpha^4 mc^2)
    b_rel_n2 = binding_relativistic(-0.125, 1.0)
    deviation = abs(b_rel_n2 - b_2_half)
    scale = FINE_STRUCTURE**4 * MC2
    assert scale / 64.0 < deviation < scale / 8.0, deviation
    _report("3", f"2p splitting = alpha^4 mc^2/32 within 5% ({split:.6e} hartree)")


def test_criterion_04a_hydrogen_numerov():
    eps, _ = numerov_solve(HYDROGEN, GridSpec(1e-5, 40.0, 20000), 0, (-0.6, -0.4))
    assert abs(eps + 0.5) < 1e-6, eps
    _report("4a", f"hydrogen 1s via Numerov: eps = {float(eps)!r} (|err| < 1e-6)")


def test_criterion_04b_hydrogen_fd():
    result = solve_lowest_k(assemble_tridiagonal(HYDROGEN, GridSpec(1e-4, 30.0, 2000)), 1)
    assert abs(result.epsilons[0] + 0.5) < 5e-4, result.epsilons[0]
    _report("4b", f"hydrogen 1s via FD n=2000: eps = {float(result.epsilons[0])!r} (|err| < 5e-4)")


def test_criterion_04c_oscillator_fd():
    # Known-failing as stated: the three-point stencil on n=3000 has
    # truncation error (h^2/24) * 3(2n^2+2n+1)/4 per state, i.e. up to
    # 8.2e-5 for n=4; the 1e-5 gate is below the scheme's error floor.
    result = solve_lowest_k(assemble_tridiagonal(OSCILLATOR, GridSpec(-12.0, 12.0, 3000)), 5)
    errors = result.epsilons - (np.arange(5) + 0.5)
    assert np.all(np.abs(errors) < 1e-5), (
        "second-difference truncation floor exceeds the 1e-5 gate: "
        f"per-state errors {np.abs(errors)} vs the h^2 model "
        f"{[(GridSpec(-12.0, 12.0, 3000).h ** 2 / 24.0) * 0.75 * (2 * n * n + 2 * n + 1) for n in range(5)]}"
    )
    _report("4c", "oscillator eps_0..eps_4 via FD n=3000 within 1e-5")


def test_criterion_04d_positronium_numerov():
    eps, _ = numerov_solve(POSITRONIUM, GridSpec(1e-5, 80.0, 32000), 0, (-0.3, -0.2))
    assert abs(eps + 0.25) < 1e-6, eps
    _report("4d", f"positronium 1s via Numerov: eps = {float(eps)!r} (|err| < 1e-6)")


def test_criterion_05_convergence_orders():
    grids = [GridSpec(-8.0, 8.0, n) for n in (128, 255, 509, 1017)]  # three h-halvings
    slope_fd = convergence_order(OSCILLATOR, grids, 0.5, method="fd")
    assert abs(slope_fd - 2.0) <= 0.1, slope_fd
    slope_nv = convergence_order(OSCILLATOR, grids, 0.5, method="numerov")
    assert abs(slope_nv - 4.0) <= 0.3, slope_nv
    _report("5", f"measured orders: FD {slope_fd:.3f} (2.0 +- 0.1), Numerov {slope_nv:.3f} (4.0 +- 0.3)")


def test_criterion_06_matter_wave_uniqueness():
    worst_k = 0.0
    worst_phase = 0.0
    for beta in np.arange(0.05, 0.951, 0.05):
        v = beta * C
        result = derive_de_broglie(1.0, v)
        expected = momentum(1.0, v) / ATOMIC.hbar
        worst_k = max(worst_k, abs(result.k - expected) / expected)
        assert result.matches_p_over_hbar
        worst_phase = max(worst_phase, check_phase_harmony(1.0, v, 1.0).residual)
    assert worst_k < 1e-9, worst_k
    assert worst_phase < 1e-10, worst_phase
    _report("6", f"k recovered to {worst_k:.2e} rel; phase residual <= {worst_phase:.2e}")


def test_criterion_07_inversion_postulate_suite():
    w = electron_plane_wave(0.6 * C, amplitude=1.0 + 0.0j)
    inverted = spacetime_invert(w)
    assert spacetime_invert(inverted) == w  # exact involution
    assert (w.Q, w.L) == (-1, +1)
    assert (inverted.Q, inverted.L) == (+1, -1)
    assert inverted.E > 0.0
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for x, t in rng.uniform(-1.0, 1.0, size=(50, 2)):
        worst = max(
            worst, abs(evaluate_plane_wave(inverted, x, t) - evaluate_plane_wave(w, -x, -t))
        )
    assert worst <= 1e-12, worst
    _report("7", f"involution exact, Q/L flips, evaluation identity residual {worst:.2e}")


def test_criterion_08_component_ratio_and_mass():
    assert dirac_theta_chi(1.0, 0.0).chi == 0.0
    ratios = []
    for beta in np.linspace(0.0, 0.99999, 100):
        tc = dirac_theta_chi(1.0, beta * C)
        ratios.append(abs(tc.chi) / abs(tc.theta))
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    tc = dirac_theta_chi(1.0, 0.6 * C)
    assert abs(abs(tc.chi) / abs(tc.theta) - 1.0 / 3.0) <= 1e-12
    fast = dirac_theta_chi(1.0, (1.0 - 1e-7) * C)
    assert abs(fast.chi) / abs(fast.theta) > 0.999
    assert effective_mass(1.0, 0.6 * C) == pytest.approx(1.25, rel=1e-12)
    assert effective_mass(1.0, 0.99996 * C) > 100.0
    _report("8", "ratio: 0 at rest, monotone, 1/3 at 0.6c, >0.999 near c; mass gamma*m0")


def test_criterion_09_time_reversal_equivalence():
    # analytic real eigenstate: residual at the discretization-error level
    grid = GridSpec(1e-4, 30.0, 2000)
    r = grid.nodes()
    u = 2.0 * r * np.exp(-r)
    residual_analytic = time_reversal_check(u, -0.5, -1.0 / r, grid)
    bound = grid.h**2 / 12.0 * 8.0 / np.max(np.abs(u))  # h^2/12 * max|u''''| / max|u|
    assert 0.0 < residual_analytic <= bound, (residual_analytic, bound)
    # numerically converged oscillator n=3 state on the reference grid
    ref_grid = GridSpec(-12.0, 12.0, 3000)
    result = solve_lowest_k(assemble_tridiagonal(OSCILLATOR, ref_grid), 4)
    residual_solver = time_reversal_check(
        result.wavefunctions[3], result.epsilons[3], 0.5 * ref_grid.nodes() ** 2, ref_grid
    )
    assert residual_solver < 1e-6, residual_solver
    _report(
        "9",
        f"residuals: analytic 1s {residual_analytic:.2e} (<= FD bound {bound:.2e}), "
        f"oscillator n=3 {residual_solver:.2e} (< 1e-6)",
    )


def test_criterion_10_determinism(tmp_path):
    args = ["compare", "--preset", "hydrogen", "--n-max", "2"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    _report("10", "consecutive compare runs are byte-identical")
