import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rsse.presets import builtin_presets
from rsse.problem import GridSpec, PotentialSpec, RadialProblem
from rsse.spectra import (
    analytic_level,
    binding_nonrel,
    binding_relativistic,
    bohr_level,
    compare_report,
    dirac_coulomb_level,
    epsilon_from_total_energy,
    oscillator_level,
    state_label,
    total_energy_from_epsilon,
)
from rsse.units import ATOMIC, FINE_STRUCTURE, UnitSystem

C = ATOMIC.c
MC2 = C * C

# 40-digit evaluations of the closed-form Dirac-Coulomb binding (unit mass,
# CODATA 2018 alpha), frozen as reference values
B_DIRAC_1S = 0.5000066565965527
B_DIRAC_2S = 0.12500208018919208
B_DIRAC_2P32 = 0.12500041602897646
B_REL_POSITRONIUM_1S = 0.25000083205795292


# ---------------------------------------------------------------------------
# analytic level oracles
# ---------------------------------------------------------------------------


def test_bohr_levels():
    assert bohr_level(1.0, 1.0, 1) == -0.5
    assert bohr_level(1.0, 0.5, 1) == -0.25  # positronium scaling
    assert bohr_level(2.0, 1.0, 1) == -2.0
    assert -1e-10 < bohr_level(1.0, 1.0, 100000) < 0.0


def test_bohr_level_guards():
    with pytest.raises(ValueError):
        bohr_level(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        bohr_level(-1.0, 1.0, 1)


def test_oscillator_levels():
    assert oscillator_level(1.0, 0) == 0.5
    assert oscillator_level(1.0, 4) == 4.5
    spacings = [oscillator_level(2.5, n + 1) - oscillator_level(2.5, n) for n in range(6)]
    assert np.allclose(spacings, 2.5, rtol=1e-15)
    with pytest.raises(ValueError):
        oscillator_level(0.0, 1)
    with pytest.raises(ValueError):
        oscillator_level(1.0, -1)


def test_analytic_level_coulomb_counts_nodes_from_l():
    grid = GridSpec(1e-4, 30.0, 2000)
    positronium_2p = RadialProblem(PotentialSpec.coulomb(1.0), l=1, mu=0.5, M=2.0)
    assert analytic_level(positronium_2p, 0, grid) == bohr_level(1.0, 0.5, 2)
    assert analytic_level(positronium_2p, 2, grid) == bohr_level(1.0, 0.5, 4)


@pytest.mark.parametrize(
    "l, r_min, levels",
    [
        (0, -12.0, [1.0, 3.0, 5.0]),  # full line: omega (n + 1/2)
        (0, 0.0, [3.0, 7.0, 11.0]),  # half line: omega (2 n + l + 3/2)
        (1, 1e-4, [5.0, 9.0, 13.0]),
    ],
)
def test_analytic_level_harmonic_reads_the_grid(l, r_min, levels):
    problem = RadialProblem(PotentialSpec.harmonic(2.0), l=l)
    grid = GridSpec(r_min, 12.0, 3000)
    assert [analytic_level(problem, n, grid) for n in range(3)] == levels


@pytest.mark.parametrize(
    "l, grid",
    [
        (200, GridSpec(10.0, 30.0, 400)),  # r_min**401 overflows a float
        (0, GridSpec(1e-200, 1e-160, 400)),  # h**2 underflows to 0
    ],
)
def test_analytic_level_states_the_wall_rule_in_logarithms(l, grid):
    problem = RadialProblem(PotentialSpec.coulomb(1.0), l=l)
    with pytest.raises(ValueError, match=f"no analytic levels for a wall at r_min = {grid.r_min}"):
        analytic_level(problem, 0, grid)


@pytest.mark.parametrize(
    "potential", [PotentialSpec.finite_well(1.0, 1.0), PotentialSpec.infinite_well(1.0)]
)
def test_analytic_level_other_kinds_raise(potential):
    with pytest.raises(ValueError, match="no analytic levels"):
        analytic_level(RadialProblem(potential), 0, GridSpec(-3.0, 3.0, 100))


def test_dirac_coulomb_ground_state():
    total, binding = dirac_coulomb_level(1.0, 1, 0.5)
    assert binding == pytest.approx(B_DIRAC_1S, rel=1e-12)
    assert total == pytest.approx(MC2 * math.sqrt(1.0 - FINE_STRUCTURE**2), rel=1e-14)
    assert total + binding == pytest.approx(MC2, rel=1e-14)


def test_dirac_coulomb_nonrelativistic_limit():
    # with an artificially huge c the binding collapses onto the Bohr value
    slow = UnitSystem(c=1e6)
    for n, j in ((1, 0.5), (2, 0.5), (2, 1.5), (3, 2.5)):
        _, binding = dirac_coulomb_level(1.0, n, j, units=slow)
        assert binding == pytest.approx(
            slow.mass_unit * 1.0 / (2.0 * n * n), rel=1e-9
        )


def test_dirac_coulomb_fine_structure_ordering():
    _, b_half = dirac_coulomb_level(1.0, 2, 0.5)
    _, b_three_halves = dirac_coulomb_level(1.0, 2, 1.5)
    assert b_half == pytest.approx(B_DIRAC_2S, rel=1e-12)
    assert b_three_halves == pytest.approx(B_DIRAC_2P32, rel=1e-12)
    assert b_half > b_three_halves
    # the n = 2 splitting is alpha**4 m c**2 / 32 to leading order
    expected_split = FINE_STRUCTURE**4 * MC2 / 32.0
    assert b_half - b_three_halves == pytest.approx(expected_split, rel=5e-4)


def test_dirac_coulomb_guards():
    with pytest.raises(ValueError, match="supercritical"):
        dirac_coulomb_level(138.0, 1, 0.5)
    with pytest.raises(ValueError, match="j"):
        dirac_coulomb_level(1.0, 1, 1.5)  # j + 1/2 > n
    with pytest.raises(ValueError, match="half-integer"):
        dirac_coulomb_level(1.0, 2, 1.0)
    with pytest.raises(ValueError):
        dirac_coulomb_level(1.0, 0, 0.5)


@pytest.mark.parametrize("j", [math.inf, -math.inf, math.nan])
def test_dirac_coulomb_rejects_a_non_finite_j(j):
    # inf used to raise OverflowError and nan "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match="j must be a positive half-integer"):
        dirac_coulomb_level(1.0, 2, j)


# ---------------------------------------------------------------------------
# eigenvalue <-> energy maps
# ---------------------------------------------------------------------------


def test_binding_nonrel():
    assert binding_nonrel(-0.5) == 0.5
    assert binding_nonrel(0.0) == 0.0
    assert binding_nonrel(-3.0) == 3.0 * binding_nonrel(-1.0)


def test_total_energy_endpoints():
    assert total_energy_from_epsilon(0.0, 1.0) == pytest.approx(MC2, rel=1e-15)
    assert total_energy_from_epsilon(-0.5 * MC2, 1.0) == 0.0
    assert binding_relativistic(-0.5 * MC2, 1.0) == pytest.approx(MC2, rel=1e-15)


def test_total_energy_hydrogen_value():
    energy = total_energy_from_epsilon(-0.5, 1.0)
    assert energy == pytest.approx(MC2 * math.sqrt(1.0 - FINE_STRUCTURE**2), rel=1e-14)


def test_epsilon_from_hydrogen_total_energy():
    # E = Mc^2 sqrt(1 - alpha^2) maps back to eps = -alpha^2 c^2 / 2 = -1/2;
    # the slack is the subtraction noise ~ulp(Mc^2) of the factored form
    energy = MC2 * math.sqrt(1.0 - FINE_STRUCTURE**2)
    assert epsilon_from_total_energy(energy, 1.0) == pytest.approx(-0.5, abs=1e-9)


def test_domain_error_reports_bound():
    with pytest.raises(ValueError, match="-M\\*c\\*\\*2/2"):
        total_energy_from_epsilon(-MC2, 1.0)
    with pytest.raises(ValueError):
        binding_relativistic(-1.01 * MC2 / 2.0, 1.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("energy_map", [total_energy_from_epsilon, binding_relativistic])
def test_energy_maps_reject_a_non_finite_epsilon(energy_map, eps):
    with pytest.raises(ValueError, match=f"epsilon must be finite, got {eps}"):
        energy_map(eps, 1.0)


def test_nonpositive_inputs_rejected():
    with pytest.raises(ValueError):
        epsilon_from_total_energy(-1.0, 1.0)
    with pytest.raises(ValueError):
        epsilon_from_total_energy(1.0, 0.0)
    with pytest.raises(ValueError):
        total_energy_from_epsilon(0.0, -1.0)


@given(
    st.floats(min_value=-0.49, max_value=-1e-4),
    st.floats(min_value=0.5, max_value=2000.0),
)
def test_round_trip_is_identity(eps_frac, M):
    # eps expressed as a fraction of M c**2 so the whole domain is covered
    eps = eps_frac * M * MC2
    energy = total_energy_from_epsilon(eps, M)
    back = epsilon_from_total_energy(energy, M)
    # 1e-12 relative, floored at the representational quantum of E ~ ulp(Mc^2)
    tolerance = max(1e-12 * abs(eps), 8.0 * 2.3e-16 * M * MC2)
    assert abs(back - eps) <= tolerance


def test_round_trip_tight_for_deep_binding():
    for eps_frac in (-0.45, -0.3, -0.1, -0.01):
        for M in (1.0, 2.0, 1837.15267343):
            eps = eps_frac * M * MC2
            back = epsilon_from_total_energy(total_energy_from_epsilon(eps, M), M)
            assert abs(back - eps) <= 1e-12 * abs(eps)


def test_binding_plus_energy_is_rest_energy():
    for eps in (-0.5, -2.0, -0.3 * MC2):
        for M in (1.0, 2.0):
            total = total_energy_from_epsilon(eps, M) + binding_relativistic(eps, M)
            assert total == pytest.approx(M * MC2, rel=1e-12)


def test_binding_relativistic_at_zero():
    assert binding_relativistic(0.0, 1.0) == 0.0


def test_headline_identity_against_dirac():
    # binding from eps = -c^2 alpha^2 / 2 reproduces the Dirac 1s binding
    eps = -0.5 * MC2 * FINE_STRUCTURE**2
    _, b_dirac = dirac_coulomb_level(1.0, 1, 0.5)
    b_rel = binding_relativistic(eps, 1.0)
    assert abs(b_rel - b_dirac) <= 1e-12 * b_dirac


@pytest.mark.parametrize(
    "Z,M,expected",
    [
        # 40-digit evaluations of M c**2 (1 - sqrt(1 - (Z alpha)**2))
        (1.0, 1.0, 0.5000066565965526),
        (10.0, 1.0, 50.066742016894985),
        (50.0, 1.0, 1294.6261491884081),
        (92.0, 1.0, 4861.197904373484),
        (1.0, 2.0, 1.0000133131931053),
    ],
)
def test_ground_state_identity_scaled(Z, M, expected):
    eps = -0.5 * M * MC2 * (Z * FINE_STRUCTURE) ** 2
    assert binding_relativistic(eps, M) == pytest.approx(expected, rel=1e-13)


def test_leading_order_expansion():
    # B = -eps + eps^2/(2 M c^2) + O(eps^3)
    for eps in (-0.5, -0.125, -0.25):
        gap = binding_relativistic(eps, 1.0) - binding_nonrel(eps)
        term = eps * eps / (2.0 * MC2)
        assert abs(gap - term) <= 0.01 * term


def test_approximation_gap_bound():
    # |B_rel - (-eps)| <= eps^2/(2Mc^2) * 2/(1 + |eps|/Mc^2) on [-0.1 Mc^2, 0]
    for M in (1.0, 2.0):
        mc2 = M * MC2
        for eps in np.linspace(-0.1 * mc2, -1e-8 * mc2, 200):
            gap = abs(binding_relativistic(eps, M) - (-eps))
            bound = eps * eps / (2.0 * mc2) * 2.0 / (1.0 + abs(eps) / mc2)
            assert gap <= bound


def test_binding_strictly_decreasing_in_epsilon():
    eps_grid = np.linspace(-0.49 * MC2, 0.2 * MC2, 300)
    values = [binding_relativistic(e, 1.0) for e in eps_grid]
    assert all(b < a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# comparison report
# ---------------------------------------------------------------------------


def test_report_unknown_system_lists_presets():
    with pytest.raises(ValueError) as excinfo:
        compare_report("muonium", 1)
    message = str(excinfo.value)
    for name in builtin_presets():
        assert name in message


def test_report_rejects_bad_n_max():
    with pytest.raises(ValueError):
        compare_report("hydrogen", 0)


def test_report_hydrogen_ground_state_row():
    report = compare_report("hydrogen", 1)
    assert report.has_dirac
    (row,) = report.rows
    assert row.state == "1s1/2"
    assert row.epsilon == -0.5
    assert row.B_nonrel == 0.5
    assert abs(row.delta_rel_vs_dirac) < 1e-9  # identity at the ground state


def test_report_hydrogen_n2_j_dependence():
    report = compare_report("hydrogen", 2)
    rows = {row.state: row for row in report.rows}
    assert set(rows) == {"1s1/2", "2s1/2", "2p1/2", "2p3/2"}
    # the corrected binding depends only on eps, hence not on l or j
    assert rows["2s1/2"].B_rel == rows["2p1/2"].B_rel == rows["2p3/2"].B_rel
    # the Dirac reference depends on j only
    assert rows["2s1/2"].B_dirac == rows["2p1/2"].B_dirac
    assert rows["2s1/2"].B_dirac != rows["2p3/2"].B_dirac


def test_report_oscillator_has_no_dirac_column():
    report = compare_report("oscillator", 3)
    assert not report.has_dirac
    assert len(report.rows) == 3
    for idx, row in enumerate(report.rows):
        assert row.B_dirac is None and row.delta_rel_vs_dirac is None
        eps = oscillator_level(1.0, idx)
        assert row.epsilon == eps
        gap = row.B_rel - row.B_nonrel
        term = eps * eps / (2.0 * MC2)
        assert abs(gap - term) <= 0.01 * term


def test_report_positronium_value():
    report = compare_report("positronium", 1)
    assert report.M == 2.0 and report.mu == 0.5
    (row,) = report.rows
    assert row.epsilon == -0.25
    assert row.B_rel == pytest.approx(B_REL_POSITRONIUM_1S, rel=1e-12)


def test_report_finite_mass_scales_with_mu():
    report = compare_report("hydrogen_finite_mass", 1)
    (row,) = report.rows
    assert row.epsilon == pytest.approx(-0.5 * report.mu, rel=1e-14)
    _, b_unit = dirac_coulomb_level(1.0, 1, 0.5)
    assert row.B_dirac == pytest.approx(report.mu * b_unit, rel=1e-14)


def test_report_is_deterministic():
    assert compare_report("hydrogen", 3) == compare_report("hydrogen", 3)


def test_state_labels():
    assert state_label(1, 0, 0.5) == "1s1/2"
    assert state_label(2, 1, 1.5) == "2p3/2"
    assert state_label(3, 2, None) == "3d"
