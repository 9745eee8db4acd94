"""Relativistic point-particle kinematics and the matter-wave construction.

Everything here is one-dimensional: positions, momenta, velocities and
boosts are scalars.  The module covers the dispersion relation
E**2 = (m0*c**2)**2 + (p*c)**2, the frequency/wavenumber assignment of the
wave accompanying a moving particle, the phase-agreement check between the
co-moving clock and that wave along the trajectory, and a numerical
reconstruction of the wavenumber from the group-velocity condition alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .units import ATOMIC, UnitSystem, _check_positive


def _check_speed(v: float, c: float) -> None:
    if not abs(v) < c:
        raise ValueError(f"speed must satisfy |v| < c = {c}, got v = {v}")


def gamma_factor(v: float, units: UnitSystem = ATOMIC) -> float:
    """Lorentz factor (1 - v**2/c**2)**(-1/2)."""
    _check_speed(v, units.c)
    beta = v / units.c
    # (1-b)(1+b) keeps precision as |beta| -> 1
    return 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))


def momentum(m0: float, v: float, units: UnitSystem = ATOMIC) -> float:
    """Relativistic momentum gamma * m0 * v."""
    _check_positive("rest mass", m0)
    return gamma_factor(v, units) * m0 * v


def total_energy(m0: float, p: float, units: UnitSystem = ATOMIC) -> float:
    """Positive root of E**2 = (m0*c**2)**2 + (p*c)**2.

    Admits the massless case m0 = 0 provided p != 0.
    """
    if m0 != 0.0:
        _check_positive("rest mass", m0)
    elif p == 0.0:
        raise ValueError("a massless particle needs nonzero momentum")
    return math.hypot(m0 * units.c * units.c, p * units.c)


@dataclass(frozen=True)
class MassiveParticle:
    """A massive particle with velocity and momentum kept mutually consistent."""

    m0: float
    v: float
    p: float
    units: UnitSystem

    def __post_init__(self) -> None:
        _check_positive("rest mass", self.m0)

    @classmethod
    def from_velocity(cls, m0: float, v: float, units: UnitSystem = ATOMIC) -> "MassiveParticle":
        return cls(m0=m0, v=v, p=momentum(m0, v, units), units=units)

    @classmethod
    def from_momentum(cls, m0: float, p: float, units: UnitSystem = ATOMIC) -> "MassiveParticle":
        _check_positive("rest mass", m0)
        # invert p = gamma m0 v:  v = p c / sqrt((m0 c)^2 + p^2)
        v = p * units.c / math.hypot(m0 * units.c, p)
        return cls(m0=m0, v=v, p=p, units=units)

    @property
    def gamma(self) -> float:
        return gamma_factor(self.v, self.units)

    @property
    def energy(self) -> float:
        return total_energy(self.m0, self.p, self.units)


class WaveParameters(NamedTuple):
    """Angular frequency, wavenumber and wavelength of the accompanying wave.

    ``wavelength`` is ``None`` for p = 0 (infinite wavelength).
    """

    omega: float
    k: float
    wavelength: Optional[float]


def wave_from_particle(m0: float, v: float, units: UnitSystem = ATOMIC) -> WaveParameters:
    """Wave parameters omega = E/hbar, k = p/hbar, wavelength = 2*pi*hbar/|p|."""
    p = momentum(m0, v, units)  # checks m0, then v
    energy = total_energy(m0, p, units)
    k = p / units.hbar
    wavelength = None if p == 0.0 else 2.0 * math.pi * units.hbar / abs(p)
    return WaveParameters(omega=energy / units.hbar, k=k, wavelength=wavelength)


def velocities(m0: float, p: float, units: UnitSystem = ATOMIC) -> tuple[float, float]:
    """Group and phase velocity (dE/dp, E/p) of the accompanying wave.

    Their product is c**2.  Phase velocity is undefined at p = 0.
    """
    if p == 0.0:
        raise ValueError("phase velocity is undefined at p = 0")
    energy = total_energy(m0, p, units)
    v_group = p * units.c * units.c / energy
    v_phase = energy / p
    return v_group, v_phase


def clock_and_wave_frequencies(
    m0: float, v: float, units: UnitSystem = ATOMIC
) -> tuple[float, float]:
    """Frequencies of the co-moving clock and of the accompanying wave.

    With omega0 = m0*c**2/hbar the clock runs at omega0*sqrt(1-beta**2)
    (time dilation) while the wave measured at a fixed point oscillates at
    omega0/sqrt(1-beta**2) = E/hbar.  Their product is omega0**2.
    """
    _check_positive("rest mass", m0)
    _check_speed(v, units.c)
    omega0 = m0 * units.c * units.c / units.hbar
    beta = v / units.c
    root = math.sqrt((1.0 - beta) * (1.0 + beta))
    return omega0 * root, omega0 / root


class PhaseHarmony(NamedTuple):
    phi_clock: float
    phi_wave: float
    residual: float


def check_phase_harmony(m0: float, v: float, t: float, units: UnitSystem = ATOMIC) -> PhaseHarmony:
    """Compare clock phase and wave phase on the trajectory x = v*t.

    The clock carries phase -omega_clock*t; the wave evaluated at x = v*t
    carries k*x - omega_wave*t.  The two agree identically because
    k*v - omega_wave = -omega_clock, so the returned residual is zero up
    to rounding.
    """
    omega_clock, omega_wave = clock_and_wave_frequencies(m0, v, units)
    k = momentum(m0, v, units) / units.hbar
    phi_clock = -omega_clock * t
    phi_wave = k * (v * t) - omega_wave * t
    return PhaseHarmony(phi_clock, phi_wave, abs(phi_clock - phi_wave))


def lorentz_boost_event(
    x: float, t: float, v: float, units: UnitSystem = ATOMIC
) -> tuple[float, float]:
    """Boost an event (x, t) into the frame moving with velocity v."""
    g = gamma_factor(v, units)
    return g * (x - v * t), g * (t - v * x / (units.c * units.c))


def lorentz_boost_energy_momentum(
    energy: float, p: float, v: float, units: UnitSystem = ATOMIC
) -> tuple[float, float]:
    """Boost an (E, p) pair; the invariant E**2 - (p*c)**2 is preserved."""
    g = gamma_factor(v, units)
    return g * (energy - v * p), g * (p - v * energy / (units.c * units.c))


class DeBroglieResult(NamedTuple):
    k: float
    matches_p_over_hbar: bool


def derive_de_broglie(m0: float, v: float, units: UnitSystem = ATOMIC) -> DeBroglieResult:
    """Reconstruct the wavenumber from the group-velocity condition alone.

    Imposing omega(k) = sqrt((m0*c**2)**2 + (hbar*k*c)**2)/hbar on the
    positive-frequency branch and solving d(omega)/dk = v by bisection
    recovers k = p/hbar uniquely.  The flag reports agreement with
    gamma*m0*v/hbar to 1e-9 relative.

    Only the positive-frequency branch is searched; side conditions for
    other branches are not defined here.
    """
    _check_positive("rest mass", m0)
    _check_speed(v, units.c)
    if v == 0.0:
        raise ValueError("the group-velocity condition needs a moving particle (v != 0)")

    speed = abs(v)
    rest_energy = m0 * units.c * units.c

    def group_velocity(k: float) -> float:
        # d(omega)/dk = p c^2 / E with p = hbar k
        p = units.hbar * k
        return p * units.c * units.c / math.hypot(rest_energy, p * units.c)

    lo = 0.0
    hi = 1.0e3 * gamma_factor(v, units) * m0 * units.c / units.hbar
    if group_velocity(hi) <= speed:  # pragma: no cover - bracket is generous
        raise ValueError("bisection bracket does not contain the group-velocity root")
    # g(k) = v_group(k) - speed is strictly monotone, so plain bisection is safe.
    while hi - lo > 1.0e-12 * hi:
        mid = 0.5 * (lo + hi)
        if group_velocity(mid) < speed:
            lo = mid
        else:
            hi = mid
    k = math.copysign(0.5 * (lo + hi), v)
    k_expected = momentum(m0, v, units) / units.hbar
    matches = abs(k - k_expected) <= 1.0e-9 * abs(k_expected)
    return DeBroglieResult(k=k, matches_p_over_hbar=matches)
