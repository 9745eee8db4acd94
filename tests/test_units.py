import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rsse.eigensolver import (
    assemble_tridiagonal,
    default_brackets,
    numerov_solve,
    solve_lowest_k,
    solve_numerov_lowest_k,
    solve_state,
)
from rsse.inversion import (
    MATTER,
    PlaneWaveState,
    ThetaChi,
    dirac_theta_chi,
    effective_mass,
    electron_plane_wave,
    time_reversal_check,
)
from rsse.kinematics import (
    MassiveParticle,
    clock_and_wave_frequencies,
    derive_de_broglie,
    momentum,
    total_energy,
    wave_from_particle,
)
from rsse.problem import GridSpec, PotentialSpec, RadialProblem, reduce_two_body
from rsse.spectra import (
    analytic_level,
    binding_relativistic,
    bohr_level,
    compare_report,
    dirac_coulomb_level,
    epsilon_from_total_energy,
    oscillator_level,
    total_energy_from_epsilon,
)
from rsse.units import (
    ATOMIC,
    FINE_STRUCTURE,
    HARTREE_EV,
    UnitSystem,
    convert_energy,
    make_atomic_units,
)

# 40-digit evaluation of 1/alpha and (1/alpha)**2 with CODATA 2018 alpha
C_ATOMIC = 137.0359990836958
ELECTRON_REST_ENERGY_HARTREE = 18778.865044866676

UNIT_LABELS = ("hartree", "eV", "MeV")


def test_atomic_units_values():
    u = make_atomic_units()
    assert u.hbar == 1.0
    assert u.mass_unit == 1.0
    assert u.energy_unit_name == "hartree"
    assert u.c == pytest.approx(C_ATOMIC, rel=1e-12)
    assert u.c * FINE_STRUCTURE == pytest.approx(1.0, rel=1e-12)


def test_electron_rest_energy():
    u = make_atomic_units()
    assert u.c**2 == pytest.approx(ELECTRON_REST_ENERGY_HARTREE, rel=1e-12)


def test_alpha_property():
    u = make_atomic_units()
    assert u.alpha == pytest.approx(FINE_STRUCTURE, rel=1e-12)


def test_positive_scale_factors_enforced():
    with pytest.raises(ValueError, match="hbar"):
        UnitSystem(hbar=0.0)
    with pytest.raises(ValueError, match="c"):
        UnitSystem(c=-1.0)
    with pytest.raises(ValueError, match="mass_unit"):
        UnitSystem(mass_unit=0.0)


COULOMB = PotentialSpec.coulomb(1.0)
GRID = GridSpec(0.0, 1.0, 16)

# (what the error names, the entry point given the bad value)
POSITIVE_PARAMETERS = [
    pytest.param("hbar", lambda x: UnitSystem(hbar=x), id="UnitSystem.hbar"),
    pytest.param("c", lambda x: UnitSystem(c=x), id="UnitSystem.c"),
    pytest.param("mass_unit", lambda x: UnitSystem(mass_unit=x), id="UnitSystem.mass_unit"),
    pytest.param("mass m1", lambda x: reduce_two_body(x, 1.0, COULOMB), id="reduce_two_body.m1"),
    pytest.param("mass m2", lambda x: reduce_two_body(1.0, x, COULOMB), id="reduce_two_body.m2"),
    pytest.param(
        "reduced mass",
        lambda x: RadialProblem(COULOMB, mu=x, M=2.0),
        id="RadialProblem.mu",
    ),
    pytest.param(
        "total rest mass",
        lambda x: RadialProblem(COULOMB, mu=0.5, M=x),
        id="RadialProblem.M",
    ),
    pytest.param("rest mass", lambda x: momentum(x, 0.1), id="momentum"),
    pytest.param(
        "rest mass",
        lambda x: MassiveParticle.from_momentum(x, 1.0),
        id="MassiveParticle.from_momentum",
    ),
    pytest.param("rest mass", lambda x: wave_from_particle(x, 0.1), id="wave_from_particle"),
    pytest.param(
        "rest mass",
        lambda x: clock_and_wave_frequencies(x, 0.1),
        id="clock_and_wave_frequencies",
    ),
    pytest.param("rest mass", lambda x: derive_de_broglie(x, 0.1), id="derive_de_broglie"),
    pytest.param("rest mass", lambda x: effective_mass(x, 0.1), id="effective_mass"),
    pytest.param("rest mass", lambda x: dirac_theta_chi(x, 0.1), id="dirac_theta_chi"),
    pytest.param("rest mass", lambda x: electron_plane_wave(0.1, m0=x), id="electron_plane_wave"),
    pytest.param(
        "rest mass",
        lambda x: PlaneWaveState(p=1.0, E=2.0, branch=MATTER, Q=-1, L=1, m0=x),
        id="PlaneWaveState.m0",
    ),
    pytest.param(
        "plane-wave energy",
        lambda x: PlaneWaveState(p=1.0, E=x, branch=MATTER, Q=-1, L=1),
        id="PlaneWaveState.E",
    ),
    pytest.param(
        "reduced mass",
        lambda x: time_reversal_check([0.0, 1.0] * 8, 1.0, [0.0] * 16, GRID, mu=x),
        id="time_reversal_check",
    ),
    pytest.param("coulomb charge", lambda x: bohr_level(x, 1.0, 1), id="bohr_level.Z"),
    pytest.param("reduced mass", lambda x: bohr_level(1.0, x, 1), id="bohr_level.mu"),
    pytest.param("harmonic frequency", lambda x: oscillator_level(x, 0), id="oscillator_level"),
    pytest.param(
        "coulomb charge",
        lambda x: dirac_coulomb_level(x, 1, 0.5),
        id="dirac_coulomb_level",
    ),
    pytest.param(
        "total rest mass",
        lambda x: binding_relativistic(-0.1, x),
        id="binding_relativistic",
    ),
    pytest.param(
        "total rest mass",
        lambda x: total_energy_from_epsilon(-0.1, x),
        id="total_energy_from_epsilon",
    ),
    pytest.param(
        "total rest mass",
        lambda x: epsilon_from_total_energy(1.0, x),
        id="epsilon_from_total_energy.M",
    ),
    pytest.param(
        "total energy",
        lambda x: epsilon_from_total_energy(x, 1.0),
        id="epsilon_from_total_energy.E",
    ),
]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("what, call", POSITIVE_PARAMETERS)
def test_every_physical_parameter_must_be_positive_and_finite(what, call, bad):
    with pytest.raises(ValueError, match=f"^{what} must be positive and finite, got {bad}$"):
        call(bad)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_total_energy_checks_every_rest_mass_but_zero(bad):
    # m0 = 0 is the massless case, which needs p != 0 instead
    with pytest.raises(ValueError, match=f"^rest mass must be positive and finite, got {bad}$"):
        total_energy(bad, 1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "construct",
    [
        pytest.param(
            lambda m0: MassiveParticle(m0=m0, v=0.5, p=3.0, units=ATOMIC), id="MassiveParticle"
        ),
        pytest.param(lambda m0: ThetaChi(1, 0, m0=m0, v=0.1, branch=MATTER), id="ThetaChi"),
    ],
)
def test_raw_constructors_check_the_rest_mass(construct, bad):
    # only the factories used to check m0
    with pytest.raises(ValueError, match=f"^rest mass must be positive and finite, got {bad}$"):
        construct(bad)


OSCILLATOR = RadialProblem(PotentialSpec.harmonic(1.0))
OSCILLATOR_GRID = GridSpec(-8.0, 8.0, 201)

# (what, lowest valid value, call, non-integers) for every count or state index
INDEX_PARAMETERS = [
    ("GridSpec.n", "grid node count n", 16, lambda n: GridSpec(0.0, 1.0, n), [20.5]),
    ("RadialProblem.l", "angular momentum l", 0,
     lambda l: RadialProblem(PotentialSpec.coulomb(1.0), l=l), [0.5]),
    ("solve_lowest_k", "k", 1,
     lambda k: solve_lowest_k(assemble_tridiagonal(OSCILLATOR, OSCILLATOR_GRID), k), [1.5]),
    ("numerov_solve", "n_index", 0,
     lambda i: numerov_solve(OSCILLATOR, OSCILLATOR_GRID, i, (0.0, 1.0)), [0.5]),
    ("default_brackets", "k", 1, lambda k: default_brackets(OSCILLATOR, OSCILLATOR_GRID, k), [1.5]),
    ("solve_numerov_lowest_k", "k", 1,
     lambda k: solve_numerov_lowest_k(OSCILLATOR, OSCILLATOR_GRID, k), [1.5]),
    ("solve_state.fd", "n_index", 0, lambda i: solve_state(OSCILLATOR, OSCILLATOR_GRID, i), [1.5]),
    ("solve_state.numerov", "n_index", 0,
     lambda i: solve_state(OSCILLATOR, OSCILLATOR_GRID, i, "numerov"), [1.5]),
    ("bohr_level", "principal quantum number n", 1, lambda n: bohr_level(1.0, 1.0, n),
     [1.5, math.inf]),
    ("oscillator_level", "oscillator index n", 0, lambda n: oscillator_level(1.0, n), [0.5]),
    ("dirac_coulomb_level", "principal quantum number n", 1,
     lambda n: dirac_coulomb_level(1.0, n, 0.5), [1.5]),
    ("compare_report", "n_max", 1, lambda n: compare_report("hydrogen", n), [1.5]),
    ("analytic_level", "n_index", 0,
     lambda i: analytic_level(OSCILLATOR, i, OSCILLATOR_GRID), [0.5]),
]


@pytest.mark.parametrize(
    "what, call, bad",
    [
        pytest.param(what, call, bad, id=f"{name}-{bad}")
        for name, what, low, call, non_integers in INDEX_PARAMETERS
        for bad in [*non_integers, low - 1]
    ],
)
def test_every_count_and_state_index_must_be_an_integer_in_range(what, call, bad):
    pattern = f"^{re.escape(what)} must be .+, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=pattern):
        call(bad)


def test_an_index_check_names_the_rule_it_applies():
    with pytest.raises(ValueError, match=r"^k must be in \[1, 199\], got 200$"):
        solve_lowest_k(assemble_tridiagonal(OSCILLATOR, OSCILLATOR_GRID), 200)
    with pytest.raises(ValueError, match="^oscillator index n must be an integer, got 0.5$"):
        oscillator_level(1.0, 0.5)
    with pytest.raises(ValueError, match="^oscillator index n must be nonnegative, got -1$"):
        oscillator_level(1.0, -1)
    with pytest.raises(ValueError, match="^grid node count n must be at least 16, got 15$"):
        GridSpec(0.0, 1.0, 15)
    assert bohr_level(1.0, 1.0, np.int64(2)) == -0.125


def test_hartree_to_ev():
    assert convert_energy(1.0, "hartree", "eV") == pytest.approx(HARTREE_EV, rel=1e-12)
    assert convert_energy(1.0, "hartree", "eV") == pytest.approx(27.211386245988, rel=1e-12)


def test_identity_conversion():
    assert convert_energy(3.7, "eV", "eV") == 3.7


def test_electron_rest_energy_mev_to_ev():
    # 0.511 MeV electron rest energy expressed in eV
    assert convert_energy(0.511, "MeV", "eV") == pytest.approx(511000.0, rel=1e-12)


@pytest.mark.parametrize("a", UNIT_LABELS)
@pytest.mark.parametrize("b", UNIT_LABELS)
def test_round_trip_all_pairs(a, b):
    x = 1.2345678901234567
    assert convert_energy(convert_energy(x, a, b), b, a) == pytest.approx(x, rel=1e-12)


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_round_trip_property(x):
    for a in UNIT_LABELS:
        for b in UNIT_LABELS:
            assert math.isclose(
                convert_energy(convert_energy(x, a, b), b, a), x, rel_tol=1e-12
            )


def test_unknown_label_named_in_error():
    with pytest.raises(ValueError, match="joule"):
        convert_energy(1.0, "joule", "eV")
    with pytest.raises(ValueError, match="erg"):
        convert_energy(1.0, "hartree", "erg")
