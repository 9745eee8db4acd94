import functools
import importlib.machinery
import importlib.util
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import trapezoid

from rsse.cli import main
from rsse.eigensolver import (
    _SEED_RTOL,
    _numerov_sweep,
    _seed_grid,
    _RadialForm,
    _form,
    _lapack,
    _normalize,
    _trapezoid,
    _tridiagonal_lowest,
    assemble_tridiagonal,
    convergence_order,
    count_sign_changes,
    default_brackets,
    numerov_solve,
    rayleigh_quotient,
    solve_lowest_k,
    solve_numerov_lowest_k,
    solve_state,
)
from rsse.presets import builtin_presets
from rsse.problem import (
    BracketError,
    GridSpec,
    PotentialSpec,
    RadialProblem,
    WrongStateError,
    effective_potential,
    reduce_two_body,
)
from rsse.spectra import analytic_level, bohr_level, oscillator_level
from rsse.units import PROTON_ELECTRON_MASS_RATIO, UnitSystem

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
    with pytest.raises(ValueError, match="matching r and V samples"):
        PotentialSpec.tabulated([0.0, 1.0, 2.0], [0.0, -1.0])
    with pytest.raises(ValueError, match="kind"):
        PotentialSpec(kind="yukawa")


def test_raw_potential_constructor_validates_like_the_factories():
    with pytest.raises(ValueError, match="strictly increasing"):
        PotentialSpec(kind="tabulated", r_samples=[8.0, 0.0, -8.0], V_samples=[32.0, 0.0, 32.0])
    with pytest.raises(ValueError, match="coulomb charge must be positive and finite, got -1.0"):
        PotentialSpec(kind="coulomb", Z=-1.0)
    with pytest.raises(ValueError, match="half-width a must be positive and finite, got None"):
        PotentialSpec(kind="finite_well", V0=1.0)
    with pytest.raises(ValueError, match="harmonic frequency must be positive"):
        PotentialSpec(kind="harmonic")
    with pytest.raises(ValueError, match="matching r and V samples"):
        PotentialSpec(kind="tabulated", r_samples=np.linspace(0.0, 1.0, 5))
    # ndarray samples are checked by value, not by truthiness
    r = np.linspace(0.0, 1.0, 5)
    assert PotentialSpec(kind="tabulated", r_samples=r, V_samples=r) == PotentialSpec.tabulated(r, r)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: PotentialSpec.harmonic(x),
        lambda x: PotentialSpec.coulomb(x),
        lambda x: PotentialSpec.finite_well(x, 1.0),
        lambda x: PotentialSpec.finite_well(1.0, x),
        lambda x: PotentialSpec.infinite_well(x),
        lambda x: PotentialSpec.tabulated([0.0, 1.0], [0.0, x]),
        lambda x: PotentialSpec.tabulated([0.0, 1.0, x], [0.0, 0.0, 0.0]),
        lambda x: GridSpec(x, 1.0, 100),
        lambda x: GridSpec(0.0, x, 100),
        lambda x: RadialProblem(PotentialSpec.coulomb(1.0), mu=x, M=2.0),
        lambda x: RadialProblem(PotentialSpec.coulomb(1.0), mu=0.5, M=x),
    ],
    ids=["omega", "Z", "V0", "a", "well_width", "V_samples", "r_samples", "r_min", "r_max",
         "mu", "M"],
)
def test_non_finite_inputs_are_rejected(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(bad)


def test_potential_values():
    r = np.array([0.5, 1.0, 2.0])
    assert np.allclose(PotentialSpec.harmonic(2.0).evaluate(r, mu=3.0), 0.5 * 3.0 * 4.0 * r * r)
    assert np.allclose(PotentialSpec.coulomb(2.0).evaluate(r), -2.0 / r)
    well = PotentialSpec.finite_well(5.0, 1.5)
    assert np.allclose(well.evaluate(r), [-5.0, -5.0, 0.0])
    assert np.all(PotentialSpec.infinite_well(3.0).evaluate(r) == 0.0)
    tab = PotentialSpec.tabulated([0.0, 1.0, 2.0], [0.0, -1.0, 0.0])
    assert np.allclose(tab.evaluate(r), [-0.5, -1.0, 0.0])


def test_asymptote_of_confining_and_tabulated_potentials():
    assert PotentialSpec.harmonic(1.0).asymptote() == math.inf
    assert PotentialSpec.infinite_well(2.0).asymptote() == math.inf
    assert PotentialSpec.tabulated([0.0, 1.0, 2.0], [-3.0, -1.0, 0.25]).asymptote() == 0.25


def test_grid_spec():
    grid = GridSpec(0.0, 1.0, 101)
    assert grid.h == pytest.approx(0.01)
    nodes = grid.nodes()
    assert nodes[0] == 0.0 and nodes[-1] == 1.0 and nodes.size == 101
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.0, 100)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 15)


@pytest.mark.parametrize("n", [20.5, 100.0, "100", None])
def test_grid_spec_rejects_a_node_count_that_is_not_an_integer(n):
    # 20.5 nodes would give h = 1/19.5 and a TypeError from nodes()
    message = f"grid node count n must be an integer, got {n!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        GridSpec(0.0, 1.0, n)


def test_grid_spec_takes_a_numpy_integer_node_count():
    assert GridSpec(0.0, 1.0, np.int64(101)).h == pytest.approx(0.01)


@pytest.mark.parametrize("r_min, r_max, h", [(-1e308, 1e308, "inf"), (0.0, 5e-324, "0.0")])
def test_grid_spec_rejects_a_spacing_that_overflows_or_underflows(r_min, r_max, h):
    with pytest.raises(ValueError, match=f"^grid spacing h must be positive and finite, got {h}$"):
        GridSpec(r_min, r_max, 16)


def test_raw_potential_constructor_rejects_fields_the_kind_does_not_use():
    # one potential has one spec, so caches keyed on the problem see it once
    with pytest.raises(ValueError, match="harmonic potential takes no Z, got 5.0"):
        PotentialSpec(kind="harmonic", omega=1.0, Z=5.0)
    with pytest.raises(ValueError, match="coulomb potential takes no r_samples"):
        PotentialSpec(kind="coulomb", Z=1.0, r_samples=[0.0, 1.0])
    with pytest.raises(ValueError, match="infinite_well potential takes no V0"):
        PotentialSpec(kind="infinite_well", a=1.0, V0=2.0)
    with pytest.raises(ValueError, match="tabulated potential takes no omega"):
        PotentialSpec(kind="tabulated", omega=1.0, r_samples=[0.0, 1.0], V_samples=[0.0, 1.0])
    assert PotentialSpec(kind="finite_well", V0=1.0, a=2.0) == PotentialSpec.finite_well(1.0, 2.0)


def test_radial_problem_rejects_a_non_integer_l():
    # l = 0.5 would give the Bohr level of n = 1.5, which does not exist
    for l in (0.5, 1.0, "1"):
        with pytest.raises(ValueError, match=f"angular momentum l must be an integer, got {l!r}"):
            RadialProblem(PotentialSpec.coulomb(1.0), l=l)
    assert RadialProblem(PotentialSpec.coulomb(1.0), l=np.int64(2)).l == 2


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
# the problem on the nodes, as both routes read it
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["harmonic", "coulomb", "finite_well", "infinite_well", "tabulated"]),
    strength=st.floats(0.1, 10.0),
    l=st.integers(0, 2),
    mu=st.floats(0.1, 5.0),
    hbar=st.sampled_from([1.0, 1.7]),
    r_min=st.floats(-5.0, 5.0),
    width=st.floats(1.0, 20.0),
    n=st.integers(16, 200),
    epsilon=st.floats(-10.0, 10.0),
)
def test_both_routes_read_the_problem_as_written_out_here(
    kind, strength, l, mu, hbar, r_min, width, n, epsilon
):
    # the FD matrix and the Numerov stencil, bit for bit, from the formulas
    # below; a refactor of how the solvers read the problem must keep them
    if kind == "coulomb" or l > 0:
        r_min = abs(r_min) + 1e-3  # the origin is excluded
    r_max = r_min + width
    potential = {
        "harmonic": PotentialSpec.harmonic(strength),
        "coulomb": PotentialSpec.coulomb(strength),
        "finite_well": PotentialSpec.finite_well(strength, 0.25 * width),
        "infinite_well": PotentialSpec.infinite_well(width),
        "tabulated": PotentialSpec.tabulated(
            [r_min, r_min + 0.5 * width, r_max], [strength, -strength, 0.0]
        ),
    }[kind]
    problem = RadialProblem(potential, l=l, mu=mu, M=mu, units=UnitSystem(hbar=hbar))
    grid = GridSpec(r_min, r_max, n)
    r = np.linspace(r_min, r_max, n)
    h = (r_max - r_min) / (n - 1)

    operator = assemble_tridiagonal(problem, grid)
    kinetic = hbar * hbar / (mu * h * h)
    assert np.array_equal(operator.diagonal, kinetic + effective_potential(problem, r[1:-1]))
    assert np.array_equal(operator.off_diagonal, np.full(n - 3, -0.5 * kinetic))

    form = _RadialForm(problem, grid)
    pref = 2.0 * mu / (hbar * hbar)
    f_base = pref * effective_potential(problem, r)
    assert np.array_equal(form.q, f_base)
    if kind == "coulomb" or l > 0:  # power-law start, r_min > 0 above
        assert form.start_out == (r[0] ** (l + 1), r[1] ** (l + 1))
    else:
        assert form.start_out == (0.0, 1.0)
    t = (h * h / 12.0) * (f_base - pref * epsilon)
    w, c = form.stencil(epsilon)
    assert np.array_equal(w, 1.0 - t) and np.array_equal(c, 2.0 + 10.0 * t)


def _mapped_form(problem, grid, a):
    """The form of phi(x) = u(x / a): phi'' = (q / a**2 - eps w / a**2) phi, spacing a h."""
    form = _RadialForm(problem, grid)
    form.h, form.q, form.w = a * form.h, form.q / (a * a), form.w / (a * a)
    return form


@pytest.mark.parametrize("a, rtol", [(2.0, 0.0), (3.0, 1e-12)])
@pytest.mark.parametrize(
    "problem, grid",
    [(HYDROGEN, HYDROGEN_NUMEROV_GRID), (OSCILLATOR, OSC_NUMEROV_GRID)],
    ids=["hydrogen", "oscillator"],
)
def test_numerov_levels_are_those_of_the_form_under_a_linear_map(
    monkeypatch, problem, grid, a, rtol
):
    # Numerov reads the equation only through (h, q, w): x = a r leaves the
    # levels where they are, bit for bit where a is a power of two
    import rsse.eigensolver

    expected = solve_numerov_lowest_k(problem, grid, 3).epsilons
    mapped = _mapped_form(problem, grid, a)
    monkeypatch.setattr(rsse.eigensolver, "_form", lambda *key: mapped)
    got = solve_numerov_lowest_k(problem, grid, 3).epsilons
    # the mapped form served the solve: it holds the last state's stencil
    assert mapped._stencil[0] == got[-1]
    if rtol == 0.0:
        assert np.array_equal(got, expected)
    else:
        assert np.all(np.abs(got - expected) <= rtol * np.abs(expected))


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


def _split_operator():
    """Two decoupled blocks (one zero off-diagonal) with interleaved spectra."""
    d = np.concatenate([np.linspace(0.0, 1.0, 20), np.linspace(0.05, 1.05, 20)])
    e = np.full(39, -0.3)
    e[19] = 0.0
    return d, e


def _preset_operator(name):
    preset = builtin_presets()[name]
    operator = assemble_tridiagonal(preset.problem, preset.fd_grid)
    return operator.diagonal, operator.off_diagonal


@pytest.mark.parametrize("name", [*sorted(builtin_presets()), "split"])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_tridiagonal_lowest_matches_scipy_bit_for_bit(name, k):
    from scipy.linalg import eigh_tridiagonal

    d, e = _split_operator() if name == "split" else _preset_operator(name)
    w, v = _tridiagonal_lowest(d, e, k, vectors=True)
    w_ref, v_ref = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    values, none = _tridiagonal_lowest(d, e, k, vectors=False)
    ref = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1), eigvals_only=True)
    assert none is None and np.array_equal(values, ref)


@pytest.mark.parametrize("name", sorted(builtin_presets()))
@pytest.mark.parametrize("n_index", [0, 2, 6])
def test_fd_solve_state_matches_scipy_bit_for_bit(name, n_index):
    # the Numerov seed's looser bisection stays out of the FD route
    from scipy.linalg import eigh_tridiagonal

    preset = builtin_presets()[name]
    d, e = _preset_operator(name)
    ref = eigh_tridiagonal(d, e, select="i", select_range=(0, n_index), eigvals_only=True)
    assert solve_state(preset.problem, preset.fd_grid, n_index, "fd") == ref[n_index]


def test_split_operator_needs_the_reorder():
    # dstebz returns the values of the two blocks one block after the other,
    # so without the argsort neither values nor vectors would be ascending
    d, e = _split_operator()
    m, w, iblock, _, info = _lapack().dstebz(d, e, 2, 0.0, 1.0, 1, 7, 0.0, "B")
    assert info == 0 and set(iblock[:m]) == {1, 2}
    assert not np.all(np.diff(w[:m]) >= 0.0)
    assert np.all(np.diff(_tridiagonal_lowest(d, e, 7, vectors=True)[0]) > 0.0)


def test_loaded_dtbtrs_matches_scipy():
    from scipy.linalg.lapack import dtbtrs

    rng = np.random.default_rng(3)
    ab = np.asfortranarray(rng.uniform(-1.0, 1.0, (3, 200)))
    ab[0] = rng.uniform(1.0, 2.0, 200)
    b = rng.standard_normal(200)
    x, info = _lapack().dtbtrs(ab, b, uplo="L")
    x_ref, info_ref = dtbtrs(ab, b, uplo="L")
    assert info == info_ref == 0
    assert np.array_equal(x, x_ref)


@pytest.fixture
def fresh_lapack():
    """``_lapack`` with an empty cache, emptied again afterwards."""
    _lapack.cache_clear()
    yield _lapack
    _lapack.cache_clear()


def test_lapack_without_scipy_raises_import_error(fresh_lapack, monkeypatch):
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="scipy is not installed"):
        fresh_lapack()


def test_lapack_names_every_path_it_tried(fresh_lapack, monkeypatch, tmp_path):
    (tmp_path / "linalg").mkdir()
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    with pytest.raises(ImportError, match="scipy.linalg._flapack") as excinfo:
        fresh_lapack()
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        assert str(tmp_path / "linalg" / ("_flapack" + suffix)) in str(excinfo.value)


def test_lapack_tries_each_extension_suffix(fresh_lapack, monkeypatch):
    suffixes = [".missing.so", *importlib.machinery.EXTENSION_SUFFIXES]
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", suffixes)
    assert fresh_lapack().__file__.endswith("_flapack" + suffixes[1])


@pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
def test_tridiagonal_lowest_rejects_non_finite_entries(where):
    operator = assemble_tridiagonal(OSCILLATOR, GridSpec(-5.0, 5.0, 64))
    getattr(operator, where)[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve_lowest_k(operator, 2)
    with pytest.raises(ValueError, match="finite"):
        _tridiagonal_lowest(operator.diagonal, operator.off_diagonal, 2, vectors=False)


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


def test_full_grid_seed_that_misses_a_state_raises_wrong_state_error():
    # 16 nodes seed on the full grid already, so no re-seed is left to try;
    # the bracket of state 5 lies between two levels of the Numerov spectrum
    grid = GridSpec(-4.0, 4.0, 16)
    with pytest.raises(WrongStateError, match="holds no state; target state 5 is outside it"):
        solve_numerov_lowest_k(OSCILLATOR, grid, 8)


def test_numerov_invalid_bracket():
    with pytest.raises(ValueError):
        numerov_solve(OSCILLATOR, OSC_NUMEROV_GRID, 0, (0.7, 0.3))


@pytest.mark.parametrize("bracket", [(0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf)])
def test_numerov_solve_rejects_an_infinite_bracket_end(bracket):
    # a usage error, not a sweep that overflows nor a grid too coarse at eps = -inf
    with pytest.raises(ValueError, match="bracket ends must be finite"):
        numerov_solve(OSCILLATOR, GridSpec(-6.0, 6.0, 300), 0, bracket)
    with pytest.raises(ValueError, match="lo < hi"):
        numerov_solve(OSCILLATOR, GridSpec(-6.0, 6.0, 300), 0, (math.nan, 1.0))


@pytest.mark.parametrize(
    "problem, grid",
    [
        # q = 2 mu V overflows, while the FD matrix reads V alone
        (RadialProblem(PotentialSpec.harmonic(1.0), mu=1e300, M=1e300), GridSpec(-1.0, 1.0, 400)),
        # h**2 overflows
        (OSCILLATOR, GridSpec(-1e300, 1e300, 16)),
    ],
    ids=["q", "h"],
)
def test_numerov_solve_rejects_a_stencil_that_overflows(problem, grid):
    with pytest.raises(ValueError, match=r"h\*\*2 and the range of q must be finite"):
        numerov_solve(problem, grid, 0, (0.0, 1.0))


@pytest.mark.parametrize(
    "grid", [GridSpec(0.05, 1.0, 4000), GridSpec(30.0, 40.0, 400)], ids=["vanishes", "overflows"]
)
def test_numerov_solves_where_the_power_law_start_vanishes_or_overflows(grid):
    # r[1]**301 is 0.0 on the first grid and inf on the second; the start is
    # then ((r[0] / r[1])**301, 1), the same power law at another scale
    problem = RadialProblem(PotentialSpec.coulomb(1.0), l=300)
    start = _RadialForm(problem, grid).start_out
    assert start == ((grid.r_min / (grid.r_min + grid.h)) ** 301, 1.0)
    numerov = solve_numerov_lowest_k(problem, grid, 2)
    fd = solve_lowest_k(assemble_tridiagonal(problem, grid), 2)
    assert np.array_equal(numerov.nodes, [0, 1])
    # the two routes agree to the FD error, about 1e-5 relative on the coarser grid
    assert numerov.epsilons == pytest.approx(fd.epsilons, rel=1e-4)


def test_numerov_solve_rejects_a_negative_state_index():
    with pytest.raises(ValueError, match="n_index must be nonnegative, got -1"):
        numerov_solve(OSCILLATOR, OSC_NUMEROV_GRID, -1, (0.3, 0.7))


@pytest.mark.parametrize(
    "solve",
    [
        lambda: solve_state(OSCILLATOR, OSC_FD_GRID, -1),
        lambda: solve_state(OSCILLATOR, OSC_FD_GRID, -1, method="numerov"),
        lambda: convergence_order(
            OSCILLATOR, [GridSpec(-8.0, 8.0, n) for n in (100, 200, 400)], 0.5, n_index=-1
        ),
    ],
    ids=["fd", "numerov", "convergence_order"],
)
def test_solve_state_names_a_negative_state_index(solve):
    # not as "k must be in [1, ...], got 0" from the level count n_index + 1
    with pytest.raises(ValueError, match="n_index must be nonnegative, got -1"):
        solve()


def test_error_taxonomy():
    # domain/usage errors are ValueErrors (CLI exit 2); non-convergence is a
    # RuntimeError (CLI exit 3); bracket and wrong-state failures stay
    # catchable as ValueError, although the CLI maps them to exit 3 too
    from rsse.problem import ConvergenceError

    assert issubclass(BracketError, ValueError)
    assert issubclass(WrongStateError, ValueError)
    assert issubclass(ConvergenceError, RuntimeError)
    assert not issubclass(ConvergenceError, ValueError)


def test_numerov_step_cap_raises_convergence_error(monkeypatch):
    import rsse.eigensolver
    from rsse.problem import ConvergenceError

    # one Cooley step from the midpoint 0.55 cannot reach 1e-12 relative
    monkeypatch.setattr(rsse.eigensolver, "_COOLEY_MAX_STEPS", 1)
    with pytest.raises(ConvergenceError, match="after 1 Cooley steps"):
        numerov_solve(OSCILLATOR, OSC_NUMEROV_GRID, 0, (0.2, 0.9))


def test_cooley_step_moves_the_match_point_off_an_exact_node(monkeypatch):
    import rsse.eigensolver

    bracket = (0.2, 0.9)
    expected = numerov_solve(OSCILLATOR, OSC_NUMEROV_GRID, 0, bracket).epsilon
    match_index, sweep = _RadialForm.match_index, rsse.eigensolver._numerov_sweep
    matched, lengths = [], []

    def first_match_index(self, epsilon):
        m = match_index(self, epsilon)
        if not lengths:
            matched.append(m)
        return m

    def sweep_with_a_node_on_the_match_point(w, c, u0, u1):
        # the first sweep after the first match index is the outward one
        u = sweep(w, c, u0, u1)
        lengths.append(len(u))
        if len(lengths) == 1:
            u[matched[0]] = 0.0
        return u

    monkeypatch.setattr(_RadialForm, "match_index", first_match_index)
    monkeypatch.setattr(rsse.eigensolver, "_numerov_sweep", sweep_with_a_node_on_the_match_point)
    got = numerov_solve(OSCILLATOR, OSC_NUMEROV_GRID, 0, bracket).epsilon
    # after the inward sweep, the outward one ran again, one node short of the zero
    m = matched[0]
    assert lengths[:3] == [m + 2, OSC_NUMEROV_GRID.n - m + 1, m + 1]
    assert abs(got - expected) <= 1e-10 * abs(expected)


def test_numerov_solve_rejects_a_converged_state_with_the_wrong_node_count(monkeypatch):
    cooley_step = _RadialForm.cooley_step

    def one_node_too_many(self, epsilon):
        merged, delta = cooley_step(self, epsilon)
        merged = merged.copy()
        # the tail sample before the far wall takes the sign opposite its neighbour's
        merged[-2] = -np.copysign(1e-300, merged[-3])
        return merged, delta

    monkeypatch.setattr(_RadialForm, "cooley_step", one_node_too_many)
    # every step bisects by node counts until the bracket closes on the level
    with pytest.raises(WrongStateError, match="has 1 interior nodes, expected 0"):
        numerov_solve(OSCILLATOR, OSC_NUMEROV_GRID, 0, (0.2, 0.9))


def test_numerov_rejects_origin_for_coulomb():
    with pytest.raises(ValueError, match="r_min > 0"):
        numerov_solve(HYDROGEN, GridSpec(0.0, 40.0, 1000), 0, (-0.6, -0.4))


def test_numerov_hydrogen_p_channel():
    # lowest l=1 state (2p); exercises the centrifugal term and the
    # r**(l+1) start values
    problem = RadialProblem(PotentialSpec.coulomb(1.0), l=1)
    # the stencil guard must skip the start values: w[0] = 1 - t[0] is far
    # below 0 at r_min = 1e-5, but the sweeps never divide by w[0]
    w, _ = _RadialForm(problem, HYDROGEN_NUMEROV_GRID).stencil(-0.2)
    assert w[0] < -999.0 and np.all(w[2:] > 0.0)
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


def _stencil(f: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The sweep's coefficients w = 1 - t and c = 2 + 10 t, t = h**2 f / 12."""
    t = h * h / 12.0 * f
    return 1.0 - t, 2.0 + 10.0 * t


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
    got = _numerov_sweep(*_stencil(f, grid.h), 0.0, 1.0)
    want = _python_numerov(f, grid.h, 0.0, 1.0)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12


def test_numerov_sweep_halves_overflowing_chunks():
    # constant f with growth e**0.5 per step: a 4096-row chunk would reach
    # e**2048, so the sweep must shrink its chunks and rescale between them
    n, h = 20000, 0.5
    f = np.full(n, 4.0)
    u = _numerov_sweep(*_stencil(f, h), 1.0, math.exp(0.5))
    assert np.all(np.isfinite(u))
    assert count_sign_changes(u) == 0
    t = h * h / 12.0 * 4.0
    growth = (1.0 + 5.0 * t + math.sqrt((1.0 + 5.0 * t) ** 2 - (1.0 - t) ** 2)) / (1.0 - t)
    tail = u[-100:]
    assert np.allclose(tail[1:] / tail[:-1], growth, rtol=1e-12)


def test_numerov_sweep_failures_raise_convergence_error():
    from rsse.problem import ConvergenceError

    f = np.zeros(100)
    f[50] = 12.0  # 1 - h**2 f / 12 = 0: a zero diagonal of the banded system
    with pytest.raises(ConvergenceError, match="singular"):
        _numerov_sweep(*_stencil(f, 1.0), 0.0, 1.0)
    f[50] = np.nan  # stays non-finite at any chunk length
    with pytest.raises(ConvergenceError, match="overflows"):
        _numerov_sweep(*_stencil(f, 1.0), 0.0, 1.0)


def test_count_sign_changes_reads_signed_zeros():
    # samples that underflowed in a rescale keep their sign bit
    assert count_sign_changes(np.array([1e-300, -0.0, -1.0, -0.0, 0.0, 2.0])) == 2
    assert count_sign_changes(np.array([1.0, 0.0, -1.0])) == 1
    assert count_sign_changes(np.array([3.0, 2.0, 1.0])) == 0


@pytest.mark.parametrize(
    "grid", [GridSpec(1e-5, 800.0, 40000), GridSpec(1e-5, 3000.0, 20000)], ids=["r800", "r3000"]
)
def test_count_states_below_on_long_boxes(grid):
    form = _RadialForm(HYDROGEN, grid)
    assert [form.count_states_below(e) for e in (-0.6, -0.3, -0.1)] == [0, 1, 2]


def test_numerov_hydrogen_long_box():
    grid = GridSpec(1e-5, 800.0, 40000)
    result = solve_numerov_lowest_k(HYDROGEN, grid, 2)
    assert np.array_equal(result.nodes, [0, 1])
    tolerance = 2e-6 * (grid.h / 0.002) ** 2
    for n in range(2):
        assert result.epsilons[n] == pytest.approx(bohr_level(1.0, 1.0, n + 1), abs=tolerance)
    assert np.all(result.residuals < 1e-10)


def test_numerov_wavefunctions_survive_a_peak_that_squares_past_overflow():
    # on this wide box the merged solutions peak near 1.3e154, so their squares
    # overflow; the norm used to be inf, the wavefunctions 0 and the residuals nan
    grid = GridSpec(-28.0, 28.0, 8001)
    result = solve_numerov_lowest_k(OSCILLATOR, grid, 2)
    assert result.epsilons == pytest.approx([0.5, 1.5], abs=1e-9)
    assert np.array_equal(result.nodes, [0, 1])
    for u in result.wavefunctions:
        assert _trapezoid(u * u, grid.h) == pytest.approx(1.0, rel=1e-12)
    assert np.all(result.residuals > 0.0) and np.all(result.residuals < 1e-12)


def test_normalize_scales_by_a_power_of_two_exactly():
    grid = GridSpec(-12.0, 12.0, 3000)
    u = np.exp(-0.5 * grid.nodes() ** 2)
    normalized = _normalize(u, grid)
    for exponent in (-900, -1, 1, 600, 1000):
        assert np.array_equal(_normalize(np.ldexp(u, exponent), grid), normalized)


def test_numerov_solve_evaluates_each_energy_once(monkeypatch):
    # no energy is merged twice by the same form: the converged state
    # reuses the merge of its last Cooley step
    merged = []
    original = _RadialForm.cooley_step

    def spy(self, epsilon):
        merged.append((self, epsilon))  # holding self keeps form ids distinct
        return original(self, epsilon)

    monkeypatch.setattr(_RadialForm, "cooley_step", spy)
    solve_numerov_lowest_k(HYDROGEN, HYDROGEN_NUMEROV_GRID, 3)
    keys = [(id(form), epsilon) for form, epsilon in merged]
    assert len(keys) == len(set(keys))


def test_numerov_solve_builds_one_form_per_problem_and_grid(monkeypatch):
    # every state and every recurrence defect of a solve shares one form on
    # the Numerov grid; the FD seed assembles its own, once, on the seed grid
    built = []
    original = _RadialForm.__init__

    def spy(self, problem, grid):
        built.append((problem, grid))
        original(self, problem, grid)

    monkeypatch.setattr(_RadialForm, "__init__", spy)
    _form.cache_clear()
    solve_numerov_lowest_k(HYDROGEN, HYDROGEN_NUMEROV_GRID, 3)
    numerov = [entry for entry in built if entry[1] == HYDROGEN_NUMEROV_GRID]
    assert numerov == [(HYDROGEN, HYDROGEN_NUMEROV_GRID)]
    seed = [entry for entry in built if entry not in numerov]
    assert seed == [(HYDROGEN, _seed_grid(HYDROGEN_NUMEROV_GRID, 3))]
    # another problem or grid gets its own form
    built.clear()
    assert _form(OSCILLATOR, OSC_FD_GRID) is _form(OSCILLATOR, OSC_FD_GRID)
    assert _form(OSCILLATOR, OSC_NUMEROV_GRID).grid == OSC_NUMEROV_GRID
    assert len(built) == 2


def test_numerov_solves_a_directly_built_tabulated_spec():
    # list or ndarray samples become tuples, so the form cache can hash the spec
    grid = GridSpec(-8.0, 8.0, 1200)
    r = grid.nodes()
    samples = (r, 0.5 * r * r)
    raw = PotentialSpec("tabulated", r_samples=list(r), V_samples=samples[1])
    assert raw == PotentialSpec.tabulated(*samples)
    assert isinstance(raw.r_samples, tuple) and isinstance(raw.V_samples, tuple)
    result = solve_numerov_lowest_k(RadialProblem(raw), grid, 2)
    expected = solve_numerov_lowest_k(RadialProblem(PotentialSpec.tabulated(*samples)), grid, 2)
    assert list(result.epsilons) == list(expected.epsilons)
    for n, eps in enumerate(result.epsilons):
        assert abs(eps - oscillator_level(1.0, n)) < 1e-3


def test_default_brackets_isolate_states():
    brackets = default_brackets(OSCILLATOR, OSC_FD_GRID, 3)
    for n, (lo, hi) in enumerate(brackets):
        assert lo < oscillator_level(1.0, n) < hi


def test_solve_numerov_lowest_k_on_explicit_brackets():
    # off-centre brackets, so the default FD seed cannot stand in for them
    brackets = [(0.3, 0.9), (1.1, 2.3)]
    result = solve_numerov_lowest_k(OSCILLATOR, OSC_NUMEROV_GRID, 2, brackets=brackets)
    expected = [
        numerov_solve(OSCILLATOR, OSC_NUMEROV_GRID, n, bracket).epsilon
        for n, bracket in enumerate(brackets)
    ]
    assert list(result.epsilons) == expected
    assert np.array_equal(result.nodes, [0, 1])
    with pytest.raises(ValueError, match="need 2 brackets, got 1"):
        solve_numerov_lowest_k(OSCILLATOR, OSC_NUMEROV_GRID, 2, brackets=brackets[:1])


def test_explicit_brackets_that_miss_their_state_are_never_reseeded(monkeypatch):
    # the second bracket holds state 2, not state 1: the caller's error, which
    # a re-seed from the FD spectrum would hide
    import rsse.eigensolver

    seeds = []
    for name in ("default_brackets", "_fd_brackets"):
        def spy(*args, name=name, original=getattr(rsse.eigensolver, name)):
            seeds.append(name)
            return original(*args)
        monkeypatch.setattr(rsse.eigensolver, name, spy)
    brackets = [(0.3, 0.9), (2.1, 2.9)]
    with pytest.raises(WrongStateError, match="holds states 2..2; target state 1 is outside it"):
        solve_numerov_lowest_k(OSCILLATOR, OSC_NUMEROV_GRID, 2, brackets=brackets)
    assert seeds == []


def test_a_seeded_bracket_of_zero_width_is_a_missed_state_not_a_usage_error():
    # on the 128-node convergence grid the FD seed levels of states 116 and
    # 118-124 coincide to the last bit; that grid seeds itself, so no
    # re-seed is left to try
    grid = GridSpec(-8.0, 8.0, 128)
    lo, hi = default_brackets(OSCILLATOR, grid, 125)[124]
    assert lo == hi
    with pytest.raises(WrongStateError, match="the seed leaves state 124 an empty bracket"):
        solve_state(OSCILLATOR, grid, 124, "numerov")


def test_a_coarse_seeds_empty_bracket_is_reseeded_from_the_full_grid(monkeypatch):
    import rsse.eigensolver

    expected = solve_numerov_lowest_k(OSCILLATOR, OSC_NUMEROV_GRID, 3).epsilons
    reseeds = []

    def collapsed(problem, grid, k):
        brackets = default_brackets(problem, grid, k)
        brackets[1] = (brackets[1][0], brackets[1][0])
        return brackets

    def spy(problem, grid, k, original=rsse.eigensolver._fd_brackets):
        reseeds.append(grid)
        return original(problem, grid, k)

    monkeypatch.setattr(rsse.eigensolver, "default_brackets", collapsed)
    monkeypatch.setattr(rsse.eigensolver, "_fd_brackets", spy)
    result = solve_numerov_lowest_k(OSCILLATOR, OSC_NUMEROV_GRID, 3)
    assert [grid.n for grid in reseeds] == [750, 6000]  # the coarse seed, then the re-seed
    np.testing.assert_allclose(result.epsilons, expected, rtol=1e-11)


def test_an_explicit_bracket_of_zero_width_stays_a_usage_error():
    with pytest.raises(ValueError, match=r"bracket must satisfy lo < hi, got \(1.0, 1.0\)") as info:
        solve_numerov_lowest_k(OSCILLATOR, OSC_NUMEROV_GRID, 1, brackets=[(1.0, 1.0)])
    assert not isinstance(info.value, WrongStateError)


def test_solve_numerov_lowest_k_needs_a_state():
    with pytest.raises(ValueError, match="k must be at least 1, got 0"):
        solve_numerov_lowest_k(OSCILLATOR, OSC_NUMEROV_GRID, 0)


def test_default_brackets_need_one_fd_level_above_the_top_state():
    grid = GridSpec(-6.0, 6.0, 16)  # 14 interior nodes, so 14 FD levels
    assert len(default_brackets(OSCILLATOR, grid, 13)) == 13
    for k in (0, 14, 15):
        with pytest.raises(ValueError, match=r"k must be in \[1, 13\]"):
            default_brackets(OSCILLATOR, grid, k)
    with pytest.raises(ValueError, match=r"k must be in \[1, 13\]"):
        solve_numerov_lowest_k(OSCILLATOR, grid, 15)


@pytest.mark.parametrize(
    "V0, a, grid, seed_grids",
    [
        (50.0, 0.3, GridSpec(-4.0, 4.0, 2000), [250]),
        # the coarse seed misses state 1 of the narrow well, so the brackets
        # are re-seeded from the full grid
        (500.0, 0.05, GridSpec(-3.0, 3.0, 6000), [750, 6000]),
    ],
    ids=["wide", "narrow"],
)
def test_finite_well_numerov_and_fd_agree_to_order_h(monkeypatch, V0, a, grid, seed_grids):
    import rsse.eigensolver

    seeded = []
    original = rsse.eigensolver._fd_brackets

    def spy(problem, seed_grid, k):
        seeded.append(seed_grid.n)
        return original(problem, seed_grid, k)

    monkeypatch.setattr(rsse.eigensolver, "_fd_brackets", spy)
    well = RadialProblem(PotentialSpec.finite_well(V0, a))
    numerov = solve_numerov_lowest_k(well, grid, 3)
    fd = solve_lowest_k(assemble_tridiagonal(well, grid), 3)
    assert seeded == seed_grids
    assert np.array_equal(numerov.nodes, [0, 1, 2])
    # both stencils sample the step on the same nodes but weigh it
    # differently, an O(h) shift that grows with the depth; the measured
    # constants are 0.010 (V0 = 50) and 0.014 (V0 = 500) in units of V0 h
    assert np.all(np.abs(numerov.epsilons - fd.epsilons) <= 0.02 * V0 * grid.h)


# problem, grid and number of states of the property test below
_PROPERTY_CASES = {
    "hydrogen-s": (HYDROGEN, GridSpec(1e-5, 40.0, 4000), 3),
    "hydrogen-p": (RadialProblem(PotentialSpec.coulomb(1.0), l=1), GridSpec(1e-5, 40.0, 4000), 2),
    "oscillator": (OSCILLATOR, GridSpec(-8.0, 8.0, 2000), 4),
}


@functools.cache
def _default_levels(case):
    problem, grid, k = _PROPERTY_CASES[case]
    return solve_numerov_lowest_k(problem, grid, k + 1).epsilons


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(sorted(_PROPERTY_CASES)),
    state=st.integers(0, 3),
    near=st.floats(0.02, 2.0),
    far=st.floats(0.6, 3.0),
    far_above=st.booleans(),
)
def test_numerov_solve_from_off_centre_brackets_reaches_the_default_level(
    case, state, near, far, far_above
):
    # brackets whose midpoints sit far from the root, and which may reach
    # past the neighbouring levels, where the Cooley safeguard has to work
    problem, grid, k = _PROPERTY_CASES[case]
    levels = _default_levels(case)
    n = state % k
    below = levels[n] - levels[n - 1] if n else levels[1] - levels[0]
    above = levels[n + 1] - levels[n]
    if far_above:
        bracket = (levels[n] - near * below, levels[n] + far * above)
    else:
        bracket = (levels[n] - far * below, levels[n] + near * above)
    eps, u = numerov_solve(problem, grid, n, bracket)
    assert abs(eps - levels[n]) <= 2e-12 * abs(levels[n])
    assert count_sign_changes(u[1:-1]) == n


# a finite well on a fine grid, where round-off makes Cooley's correction a
# staircase in eps whose steps (about 1e-10 relative) stand far above the
# 1e-12 stop rule
WELL = RadialProblem(PotentialSpec.finite_well(1.0, 2.0))
WELL_GRID = GridSpec(0.0, 25.0, 32000)


def test_numerov_solve_stops_when_the_bracket_closes_on_the_root():
    # the node counts at the bracket ends hold the root, so a bracket that
    # closes to 1e-12 relative has converged even though the correction has not
    level = -0.3770716618712477
    eps, u = numerov_solve(WELL, WELL_GRID, 0, (-0.3770716622, -0.3770716615))
    assert abs(eps - level) <= 2e-12 * abs(level)
    assert count_sign_changes(u[1:-1]) == 0


# problem, grid and number of states of the narrow-bracket sweep below
_NARROW_CASES = {
    "well": (WELL, WELL_GRID, 2),
    "oscillator": (OSCILLATOR, OSC_NUMEROV_GRID, 3),
    "hydrogen": (HYDROGEN, HYDROGEN_NUMEROV_GRID, 3),
}


@functools.cache
def _narrow_case_levels(case):
    problem, grid, k = _NARROW_CASES[case]
    return solve_numerov_lowest_k(problem, grid, k).epsilons


@pytest.mark.parametrize(
    "case, state", [(case, n) for case, (_, _, k) in _NARROW_CASES.items() for n in range(k)]
)
def test_numerov_solve_on_narrow_brackets_about_the_default_level(case, state):
    problem, grid, _ = _NARROW_CASES[case]
    level = _narrow_case_levels(case)[state]
    solved = 0
    for relative_half_width in (3e-13, 1e-12, 1e-11, 1e-9):
        half = relative_half_width * abs(level)
        for offset in np.linspace(-0.9, 0.9, 10):
            centre = level + offset * half
            try:
                eps, _ = numerov_solve(problem, grid, state, (centre - half, centre + half))
            except WrongStateError:
                # the node counts come from the same rounded sweeps, so on a
                # bracket this narrow they may place the level outside it
                continue
            solved += 1
            assert abs(eps - level) <= 2e-12 * abs(level)
    assert solved > 0


def _count_calls(monkeypatch, *names):
    """Counts of the calls to the named ``_RadialForm`` methods, patched in place."""
    calls = dict.fromkeys(names, 0)

    def counting(name, original):
        def spy(self, epsilon):
            calls[name] += 1
            return original(self, epsilon)
        return spy

    for name in names:
        monkeypatch.setattr(_RadialForm, name, counting(name, getattr(_RadialForm, name)))
    return calls


def test_seeded_numerov_counts_no_nodes_and_builds_one_stencil_per_cooley_step(monkeypatch):
    # the FD seed isolates every hydrogen level, so no node count is needed,
    # and each state's recurrence defect reuses the stencil of its last step
    calls = _count_calls(monkeypatch, "count_states_below", "cooley_step")
    stencils = []  # held, so that every built array keeps its own id
    original = _RadialForm.stencil

    def spy(self, epsilon):
        w, c = original(self, epsilon)
        stencils.append(w)
        return w, c

    monkeypatch.setattr(_RadialForm, "stencil", spy)
    _form.cache_clear()
    result = solve_numerov_lowest_k(HYDROGEN, HYDROGEN_NUMEROV_GRID, 3)
    assert np.array_equal(result.nodes, [0, 1, 2])
    assert calls["count_states_below"] == 0
    assert calls["cooley_step"] >= 3
    assert len({id(w) for w in stencils}) == calls["cooley_step"]
    assert len(stencils) == calls["cooley_step"] + 3
    assert not any(w.flags.writeable for w in stencils)


@pytest.mark.parametrize("state", range(3))
def test_numerov_solve_on_a_bracket_holding_three_hydrogen_levels(state):
    # Cooley's iteration starts at the midpoint of a bracket that node counts
    # have not narrowed, and still lands on the default level
    level = _narrow_case_levels("hydrogen")[state]
    eps, u = numerov_solve(HYDROGEN, HYDROGEN_NUMEROV_GRID, state, (-0.6, -0.05))
    assert abs(eps - level) <= 2e-12 * abs(level)
    assert count_sign_changes(u[1:-1]) == state


@pytest.mark.parametrize(
    "problem, grid, bracket",
    [
        (OSCILLATOR, OSC_NUMEROV_GRID, (0.4767710263698471, 4.809597275409975)),
        (
            RadialProblem(PotentialSpec.finite_well(500.0, 0.05)),
            GridSpec(-3.0, 3.0, 6000),
            (0.001455089847881629, 374.9694413580063),
        ),
    ],
    ids=["oscillator", "narrow-well"],
)
def test_numerov_solve_bisects_where_the_merged_solution_has_the_wrong_node_count(
    problem, grid, bracket
):
    # there the correction can point at a neighbouring level: following it
    # from the narrow well's bracket runs out of steps
    level = solve_numerov_lowest_k(problem, grid, 3).epsilons[1]
    eps, u = numerov_solve(problem, grid, 1, bracket)
    assert abs(eps - level) <= 2e-12 * abs(level)
    assert count_sign_changes(u[1:-1]) == 1


def test_numerov_solve_counts_each_end_of_the_callers_bracket_once(monkeypatch):
    seen = []
    original = _RadialForm.count_states_below

    def spy(self, epsilon):
        seen.append(epsilon)
        return original(self, epsilon)

    monkeypatch.setattr(_RadialForm, "count_states_below", spy)
    numerov_solve(HYDROGEN, HYDROGEN_NUMEROV_GRID, 0, (-0.6, -0.05))
    assert seen.count(-0.6) == 1
    assert seen.count(-0.05) == 1


@pytest.mark.parametrize(
    "state, bracket, held",
    [
        (0, (-0.2, -0.1), "states 1..1"),
        (2, (-0.6, -0.4), "states 0..0"),
        (0, (-0.9, -0.6), "no state"),
        (1, (-0.45, -0.2), "no state"),
    ],
    ids=["above", "below", "below-every-level", "between-levels"],
)
def test_numerov_solve_rejects_a_bracket_without_its_state_at_the_first_anomaly(
    monkeypatch, state, bracket, held
):
    # the first Cooley step meets the anomaly, and the two counts at the
    # caller's bracket ends reject it; no bisection closes the bracket first
    calls = _count_calls(monkeypatch, "count_states_below", "cooley_step")
    message = f"bracket {bracket} holds {held}; target state {state} is outside it"
    with pytest.raises(WrongStateError, match=re.escape(message)):
        numerov_solve(HYDROGEN, HYDROGEN_NUMEROV_GRID, state, bracket)
    assert calls["cooley_step"] <= 1
    assert calls["count_states_below"] == 2


# one op per slot of the benchmark's numerov_solve pool (perfbench/workloads.py),
# whose other alternatives differ only in report format or preset alias
_NUMEROV_POOL_ROUND = [
    *(
        ["solve", "--preset", preset, "--method", "numerov", "--n-max", k, "--grid-n", grid_n]
        for preset, k, grid_n in [
            ("hydrogen", "3", "20000"),
            ("positronium", "2", "6000"),
            ("oscillator", "3", "3000"),
            ("hydrogen_finite_mass", "1", "2000"),
            ("oscillator", "2", "4000"),
            ("positronium", "1", "8000"),
            ("hydrogen_finite_mass", "2", "10000"),
            ("oscillator", "1", "14000"),
        ]
    ),
    *(
        ["convergence", "--preset", preset, "--method", "numerov"]
        for preset in ("hydrogen", "positronium", "oscillator")
    ),
]


def _run_numerov_pool_round(tmp_path):
    for argv in _NUMEROV_POOL_ROUND:
        assert main(argv + ["--output", str(tmp_path / "report.csv")]) == 0


def _seed_operator(problem, grid, k):
    operator = assemble_tridiagonal(problem, _seed_grid(grid, k))
    return operator.diagonal, operator.off_diagonal


def _record_seed_tolerances(monkeypatch):
    """The ``abstol`` of every later ``_tridiagonal_lowest`` call, in order."""
    import rsse.eigensolver

    tolerances = []

    def spy(d, e, k, *, vectors, abstol=0.0):
        tolerances.append(abstol)
        return _tridiagonal_lowest(d, e, k, vectors=vectors, abstol=abstol)

    monkeypatch.setattr(rsse.eigensolver, "_tridiagonal_lowest", spy)
    return tolerances


def test_isolated_seeds_bracket_every_state_of_the_numerov_pool(monkeypatch, tmp_path):
    import rsse.eigensolver

    seeded = []

    def spy(problem, grid, k):
        brackets = default_brackets(problem, grid, k)
        seeded.append((problem, grid, brackets))
        return brackets

    monkeypatch.setattr(rsse.eigensolver, "default_brackets", spy)
    tolerances = _record_seed_tolerances(monkeypatch)
    _run_numerov_pool_round(tmp_path)
    # 8 solves and 3 convergence ladders of 4 grids; none takes the guard
    assert len(seeded) == 20
    assert len(tolerances) == 20 and min(tolerances) > 0.0
    for problem, grid, brackets in seeded:
        k = len(brackets)
        d, e = _seed_operator(problem, grid, k)
        tau = _SEED_RTOL * (np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))
        converged = _tridiagonal_lowest(d, e, k + 1, vectors=False)[0]
        form = _form(problem, grid)
        for i, (lo, hi) in enumerate(brackets):
            assert form.count_states_below(lo) == i
            assert form.count_states_below(hi) == i + 1
            # each bracket is symmetric about its isolated seed level
            assert abs(0.5 * (lo + hi) - converged[i]) <= 0.5 * tau


def test_seed_levels_closer_than_the_guard_are_bisected_to_lapacks_tolerance(monkeypatch):
    # two wells split by a barrier: their lowest pair of FD levels on the
    # 501-node seed grid lies 1.5e-8 apart, below the seed tolerance of
    # 3.5e-7, so the isolating bisection returns the pair as one value
    well = RadialProblem(
        PotentialSpec.tabulated((-6.0, -1.0, -0.9, 0.9, 1.0, 6.0), (0.0, 0.0, 30.0, 30.0, 0.0, 0.0))
    )
    grid = GridSpec(-6.0, 6.0, 4001)
    tolerances = _record_seed_tolerances(monkeypatch)
    brackets = default_brackets(well, grid, 2)
    assert len(tolerances) == 2 and tolerances[0] > 0.0 and tolerances[1] == 0.0
    d, e = _seed_operator(well, grid, 2)
    isolated = _tridiagonal_lowest(d, e, 3, vectors=False, abstol=tolerances[0])[0]
    assert isolated[0] == isolated[1]
    (lo0, hi0), (lo1, hi1) = brackets
    assert lo0 < hi0 == lo1 < hi1
    assert 1e-8 < hi0 - lo0 < 1e-7


def test_a_numerov_pool_round_takes_at_most_110_cooley_steps(monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, "cooley_step")
    _run_numerov_pool_round(tmp_path)
    assert calls["cooley_step"] <= 110
    calls["cooley_step"] = 0
    solve_numerov_lowest_k(HYDROGEN, HYDROGEN_NUMEROV_GRID, 3)
    assert calls["cooley_step"] <= 13


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


def test_rayleigh_quotient_keeps_the_variational_bound_whatever_the_wall_samples():
    # H acts on the interior nodes only, so the norm must not count the walls:
    # with both set to twice the peak the quotient used to read 0.4743
    grid = GridSpec(-12.0, 12.0, 1000)
    result = solve_lowest_k(assemble_tridiagonal(OSCILLATOR, grid), 1)
    u = result.wavefunctions[0].copy()
    u[0] = u[-1] = 2.0 * np.max(np.abs(u))
    quotient = rayleigh_quotient(u, OSCILLATOR, grid)
    assert quotient >= result.epsilons[0]
    assert quotient == pytest.approx(result.epsilons[0], rel=1e-12)


def test_rayleigh_quotient_rejects_zero():
    grid = GridSpec(-12.0, 12.0, 3000)
    with pytest.raises(ValueError):
        rayleigh_quotient(np.zeros(grid.n), OSCILLATOR, grid)


def test_rayleigh_quotient_rejects_samples_off_the_grid():
    with pytest.raises(
        ValueError, match=r"sample shape mismatch: grid has 1000 nodes, wavefunction has shape \(999,\)"
    ):
        rayleigh_quotient(np.ones(999), OSCILLATOR, GridSpec(-12.0, 12.0, 1000))


def test_rayleigh_quotient_rejects_samples_that_are_not_a_finite_row():
    grid = GridSpec(-6.0, 6.0, 300)
    psi = np.exp(-0.5 * grid.nodes() ** 2)
    # a column has the right length, and would broadcast against the operator
    with pytest.raises(ValueError, match=r"grid has 300 nodes, wavefunction has shape \(300, 1\)"):
        rayleigh_quotient(psi[:, None], OSCILLATOR, grid)
    for bad in (math.nan, math.inf):
        psi[150] = bad
        with pytest.raises(ValueError, match="wavefunction samples must be finite"):
            rayleigh_quotient(psi, OSCILLATOR, grid)


def test_solve_state_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'spectral'"):
        solve_state(OSCILLATOR, OSC_FD_GRID, 0, "spectral")


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


@pytest.mark.parametrize("name", ["hydrogen", "positronium"])
def test_convergence_order_numerov_on_uniform_coulomb_grids(name):
    # the ladder of `convergence --method numerov`: the 1/r singularity at
    # the origin holds a uniform grid near second order (2.33 for hydrogen,
    # 2.12 for positronium); ROADMAP item 5's logarithmic mesh turns this
    # into 4 +- 0.3, as for the oscillator above
    preset = builtin_presets()[name]
    base = preset.fd_grid
    grids = [GridSpec(base.r_min, base.r_max, (base.n - 1) // s + 1) for s in (8, 4, 2, 1)]
    exact = analytic_level(preset.problem, 0, base)
    slope = convergence_order(preset.problem, grids, exact, method="numerov")
    assert 2.0 <= slope <= 2.5, slope


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_convergence_order_rejects_non_finite_levels(bad):
    # each would otherwise come back as a nan slope
    grids = [GridSpec(-8.0, 8.0, n) for n in (128, 255, 509)]
    with pytest.raises(ValueError, match="epsilon_exact must be finite"):
        convergence_order(OSCILLATOR, grids, bad)
    table = [(grid.h, 0.5) for grid in grids]
    table[1] = (grids[1].h, bad)
    with pytest.raises(ValueError, match="every \\(h, eps\\) pair must be finite"):
        convergence_order(OSCILLATOR, grids, 0.5, table=table)
