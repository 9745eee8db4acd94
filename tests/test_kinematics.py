import math

import numpy as np
import pytest

from rsse.kinematics import (
    MassiveParticle,
    check_phase_harmony,
    clock_and_wave_frequencies,
    derive_de_broglie,
    gamma_factor,
    lorentz_boost_energy_momentum,
    lorentz_boost_event,
    momentum,
    total_energy,
    velocities,
    wave_from_particle,
)
from rsse.units import ATOMIC

C = ATOMIC.c
MC2 = C * C  # electron rest energy in hartree


# ---------------------------------------------------------------------------
# dispersion relation
# ---------------------------------------------------------------------------


def test_rest_energy():
    assert total_energy(1.0, 0.0) == pytest.approx(MC2, rel=1e-12)


def test_massless_energy():
    assert total_energy(0.0, 2.5) == pytest.approx(2.5 * C, rel=1e-12)


def test_energy_at_beta_06():
    # gamma(0.6) = 1/sqrt(1 - 0.36) = 1.25 exactly
    p = momentum(1.0, 0.6 * C)
    assert total_energy(1.0, p) == pytest.approx(1.25 * MC2, rel=1e-12)


def test_negative_mass_rejected():
    with pytest.raises(ValueError, match="mass"):
        total_energy(-1.0, 1.0)


def test_massless_at_rest_rejected():
    with pytest.raises(ValueError):
        total_energy(0.0, 0.0)


@pytest.mark.parametrize("p", [2.0, -2.0, 1e-300])
def test_massless_particle_with_momentum_has_energy_pc(p):
    # m0 = 0 is the one rest mass the positivity rule lets through
    assert total_energy(0.0, p) == abs(p) * C
    assert total_energy(-0.0, p) == abs(p) * C


@pytest.mark.parametrize("m0", [0.5, 1.0, 1836.15267343])
@pytest.mark.parametrize("beta", [0.0, 0.1, 0.6, 0.9, 0.99])
def test_right_triangle_identity(m0, beta):
    p = momentum(m0, beta * C)
    e = total_energy(m0, p)
    lhs = e * e - (p * C) ** 2 - (m0 * MC2) ** 2
    assert abs(lhs) <= 1e-10 * e * e


def test_gamma_rejects_superluminal():
    with pytest.raises(ValueError, match="c"):
        gamma_factor(C)
    with pytest.raises(ValueError):
        gamma_factor(-1.5 * C)
    with pytest.raises(ValueError, match="nan"):
        gamma_factor(math.nan)


def test_massive_particle_momentum_velocity_round_trip():
    a = MassiveParticle.from_velocity(2.0, 0.37 * C)
    b = MassiveParticle.from_momentum(2.0, a.p)
    assert b.v == pytest.approx(a.v, rel=1e-12)
    assert a.gamma == pytest.approx(gamma_factor(a.v), rel=1e-14)
    assert a.energy == pytest.approx(total_energy(2.0, a.p), rel=1e-14)


# ---------------------------------------------------------------------------
# wave assignment
# ---------------------------------------------------------------------------


def test_wave_at_rest():
    w = wave_from_particle(1.0, 0.0)
    assert w.omega == pytest.approx(MC2, rel=1e-12)
    assert w.k == 0.0
    assert w.wavelength is None


def test_wave_at_beta_06():
    w = wave_from_particle(1.0, 0.6 * C)
    assert w.k == pytest.approx(0.75 * C, rel=1e-12)  # gamma m0 v = 1.25 * 0.6 c


def test_wavelength_round_trip():
    w = wave_from_particle(1.0, 0.37 * C)
    p = momentum(1.0, 0.37 * C)
    assert 2.0 * math.pi * ATOMIC.hbar / w.wavelength == pytest.approx(p, rel=1e-12)


def test_wave_rejects_superluminal():
    with pytest.raises(ValueError):
        wave_from_particle(1.0, 1.01 * C)


def test_group_velocity_at_beta_06():
    p = momentum(1.0, 0.6 * C)
    v_group, v_phase = velocities(1.0, p)
    assert v_group == pytest.approx(0.6 * C, rel=1e-12)
    assert v_phase == pytest.approx(MC2 * 1.25 / p, rel=1e-12)


@pytest.mark.parametrize("beta", [0.05, 0.3, 0.6, 0.9, 0.99])
def test_group_times_phase_is_c_squared(beta):
    p = momentum(1.0, beta * C)
    v_group, v_phase = velocities(1.0, p)
    assert v_group * v_phase == pytest.approx(C * C, rel=1e-12)


def test_massless_velocities():
    v_group, v_phase = velocities(0.0, 3.0)
    assert v_group == pytest.approx(C, rel=1e-12)
    assert v_phase == pytest.approx(C, rel=1e-12)


def test_phase_velocity_undefined_at_rest():
    with pytest.raises(ValueError, match="p = 0"):
        velocities(1.0, 0.0)


# ---------------------------------------------------------------------------
# clock vs wave frequency
# ---------------------------------------------------------------------------


def test_frequencies_at_rest():
    wc, ww = clock_and_wave_frequencies(1.0, 0.0)
    assert wc == pytest.approx(MC2, rel=1e-12)
    assert ww == pytest.approx(MC2, rel=1e-12)


def test_frequencies_at_beta_06():
    wc, ww = clock_and_wave_frequencies(1.0, 0.6 * C)
    assert wc == pytest.approx(0.8 * MC2, rel=1e-12)
    assert ww == pytest.approx(1.25 * MC2, rel=1e-12)


@pytest.mark.parametrize("beta", np.linspace(0.0, 0.99, 21))
def test_frequency_product_law(beta):
    wc, ww = clock_and_wave_frequencies(1.0, beta * C)
    assert wc * ww == pytest.approx(MC2 * MC2, rel=1e-12)


# ---------------------------------------------------------------------------
# phase agreement on the trajectory
# ---------------------------------------------------------------------------


def test_phase_harmony_at_rest():
    result = check_phase_harmony(1.0, 0.0, 3.0)
    assert result.phi_clock == pytest.approx(-MC2 * 3.0, rel=1e-12)
    assert result.phi_wave == result.phi_clock
    assert result.residual == 0.0


def test_phase_harmony_beta_06():
    assert check_phase_harmony(1.0, 0.6 * C, 10.0).residual < 1e-10


def test_phase_harmony_sweep():
    worst = max(
        check_phase_harmony(1.0, beta * C, 1.0).residual
        for beta in np.arange(0.1, 0.995, 0.01)
    )
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# boosts
# ---------------------------------------------------------------------------


def test_identity_boost():
    assert lorentz_boost_event(1.7, -2.3, 0.0) == (1.7, -2.3)


def test_boost_of_time_axis_event():
    x2, t2 = lorentz_boost_event(0.0, 1.0, 0.6 * C)
    assert t2 == pytest.approx(1.25, rel=1e-12)
    assert x2 == pytest.approx(-0.75 * C, rel=1e-12)


def test_interval_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, t = rng.uniform(-10, 10, size=2)
        v = rng.uniform(-0.9, 0.9) * C
        x2, t2 = lorentz_boost_event(x, t, v)
        before = x * x - C * C * t * t
        after = x2 * x2 - C * C * t2 * t2
        assert abs(after - before) <= 1e-10 * max(abs(before), C * C)


def test_boost_composition_is_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, t = rng.uniform(-10, 10, size=2)
        v = rng.uniform(-0.8, 0.8) * C
        x1, t1 = lorentz_boost_event(x, t, v)
        x2, t2 = lorentz_boost_event(x1, t1, -v)
        assert abs(x2 - x) < 1e-10 * max(1.0, abs(x))
        assert abs(t2 - t) < 1e-10 * max(1.0, abs(t))
        e = total_energy(1.0, 0.3 * C)
        e1, p1 = lorentz_boost_energy_momentum(e, 0.3 * C, v)
        e2, p2 = lorentz_boost_energy_momentum(e1, p1, -v)
        assert abs(e2 - e) < 1e-10 * e
        assert abs(p2 - 0.3 * C) < 1e-10 * e / C


def test_boost_of_rest_particle():
    # boosting a rest particle into the frame moving at -v makes it move at +v
    e0 = total_energy(1.0, 0.0)
    e1, p1 = lorentz_boost_energy_momentum(e0, 0.0, -0.6 * C)
    assert e1 == pytest.approx(1.25 * MC2, rel=1e-12)
    assert p1 == pytest.approx(momentum(1.0, 0.6 * C), rel=1e-12)


def test_invariant_mass_under_random_boosts():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m0 = rng.uniform(0.5, 2.0)
        p = momentum(m0, rng.uniform(-0.8, 0.8) * C)
        e = total_energy(m0, p)
        v = rng.uniform(-0.8, 0.8) * C
        e1, p1 = lorentz_boost_energy_momentum(e, p, v)
        inv_before = e * e - (p * C) ** 2
        inv_after = e1 * e1 - (p1 * C) ** 2
        assert abs(inv_after - inv_before) <= 1e-10 * inv_before


def test_phase_is_frame_invariant():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m0 = rng.uniform(0.5, 2.0)
        x, t = rng.uniform(-1, 1, size=2)
        p = momentum(m0, rng.uniform(-0.8, 0.8) * C)
        e = total_energy(m0, p)
        v = rng.uniform(-0.8, 0.8) * C
        x1, t1 = lorentz_boost_event(x, t, v)
        e1, p1 = lorentz_boost_energy_momentum(e, p, v)
        phase = p * x - e * t
        phase_boosted = p1 * x1 - e1 * t1
        assert abs(phase_boosted - phase) <= 1e-10 * max(abs(phase), e)


# ---------------------------------------------------------------------------
# wavenumber from the group-velocity condition
# ---------------------------------------------------------------------------


def test_derive_de_broglie_beta_06():
    result = derive_de_broglie(1.0, 0.6 * C)
    expected = momentum(1.0, 0.6 * C) / ATOMIC.hbar
    assert result.k == pytest.approx(0.75 * C, rel=1e-10)
    assert abs(result.k - expected) <= 1e-10 * expected
    assert result.matches_p_over_hbar


def test_derive_de_broglie_small_velocity_limit():
    result = derive_de_broglie(1.0, 1e-6 * C)
    assert result.k == pytest.approx(1e-6 * C, rel=1e-9)
    assert result.matches_p_over_hbar


def test_derive_de_broglie_sweep():
    for beta in np.arange(0.05, 0.951, 0.05):
        result = derive_de_broglie(1.0, beta * C)
        expected = momentum(1.0, beta * C) / ATOMIC.hbar
        assert abs(result.k - expected) / expected < 1e-9
        assert result.matches_p_over_hbar
        # the reconstructed k satisfies the group-velocity condition itself
        p = ATOMIC.hbar * result.k
        assert abs(p * C * C / total_energy(1.0, p) - beta * C) <= 1e-9 * C


def test_derive_de_broglie_sign_follows_velocity():
    result = derive_de_broglie(1.0, -0.4 * C)
    assert result.k < 0.0
    assert result.matches_p_over_hbar


def test_derive_de_broglie_rejects_rest_and_superluminal():
    with pytest.raises(ValueError):
        derive_de_broglie(1.0, 0.0)
    with pytest.raises(ValueError):
        derive_de_broglie(1.0, C)
