"""Space-time inversion as the particle-antiparticle map.

A free matter wave carries phase +(p*x - E*t)/hbar and an antimatter wave
the opposite sign, both with E > 0.  Flipping (x, t) -> (-x, -t) therefore
turns one into the other without any complex conjugation; the charge
number Q and lepton number L flip sign with the branch.  The same picture
at the amplitude level uses two components theta and chi whose weight
ratio |chi|/|theta| = p*c/(E + m0*c**2) grows from 0 at rest towards 1 as
the speed approaches c, while the inertial mass gamma*m0 diverges.

The module also certifies, on sampled stationary states, that conjugating
and running time backwards reproduces a solution of the same eigenproblem.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .kinematics import gamma_factor, momentum, total_energy
from .units import ATOMIC, UnitSystem, _check_finite, _check_positive, _value_class

if TYPE_CHECKING:
    import numpy as np

    from .problem import GridSpec

MATTER = "matter"
ANTIMATTER = "antimatter"
_BRANCHES = (MATTER, ANTIMATTER)
_OPPOSITE = {MATTER: ANTIMATTER, ANTIMATTER: MATTER}

# electron convention: the matter branch carries (Q, L) = (-1, +1)
_ELECTRON_NUMBERS = {MATTER: (-1, +1), ANTIMATTER: (+1, -1)}


def _check_branch(branch: str) -> None:
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}, got {branch!r}")


@_value_class
class PlaneWaveState:
    """A free plane-wave mode with positive energy on either branch.

    E stays positive for both branches; what distinguishes matter from
    antimatter is the sign of the phase and the (Q, L) quantum numbers.
    """

    p: float
    E: float
    branch: str
    Q: int
    L: int
    amplitude: complex = 1.0 + 0.0j
    m0: float = 1.0

    def __post_init__(self) -> None:
        _check_branch(self.branch)
        _check_positive("plane-wave energy", self.E)
        _check_positive("rest mass", self.m0)


def electron_plane_wave(
    v: float,
    m0: float = 1.0,
    branch: str = MATTER,
    amplitude: complex = 1.0 + 0.0j,
    units: UnitSystem = ATOMIC,
) -> PlaneWaveState:
    """On-shell plane wave for an electron-like particle moving at v."""
    _check_branch(branch)
    p = momentum(m0, v, units)
    q, lep = _ELECTRON_NUMBERS[branch]
    return PlaneWaveState(
        p=p,
        E=total_energy(m0, p, units),
        branch=branch,
        Q=q,
        L=lep,
        amplitude=amplitude,
        m0=m0,
    )


def is_on_shell(state: PlaneWaveState, units: UnitSystem = ATOMIC, rtol: float = 1e-10) -> bool:
    return math.isclose(state.E, total_energy(state.m0, state.p, units), rel_tol=rtol)


def evaluate_plane_wave(
    state: PlaneWaveState, x: float, t: float, units: UnitSystem = ATOMIC
) -> complex:
    """amplitude * exp(+-i (p x - E t)/hbar), sign set by the branch."""
    phase = (state.p * x - state.E * t) / units.hbar
    sign = 1.0 if state.branch == MATTER else -1.0
    return state.amplitude * cmath.exp(1j * sign * phase)


def spacetime_invert(state: PlaneWaveState) -> PlaneWaveState:
    """Toggle the branch and flip Q and L; p, E, m0 and amplitude are kept.

    No conjugation is applied anywhere: the defining identity is

        evaluate(invert(w), x, t) == evaluate(w, -x, -t)   for all (x, t),

    and applying the map twice restores the original state exactly.
    """
    return state._replace(branch=_OPPOSITE[state.branch], Q=-state.Q, L=-state.L)


def effective_mass(m0: float, v: float, units: UnitSystem = ATOMIC) -> float:
    """Inertial mass gamma * m0; strictly increasing in |v|, divergent at c."""
    _check_positive("rest mass", m0)
    return gamma_factor(v, units) * m0


@_value_class
class ThetaChi:
    """Two-component amplitude content of a free mode, unit-normalized.

    The dominant component identifies the branch: |theta| > |chi| on the
    matter branch and the other way round on the antimatter branch.  The
    overall normalization |theta|**2 + |chi|**2 = 1 and the relative phase
    (both real, nonnegative) are conventions of this module.
    """

    theta: complex
    chi: complex
    m0: float
    v: float
    branch: str

    def __post_init__(self) -> None:
        _check_positive("rest mass", self.m0)
        _check_branch(self.branch)


def dirac_theta_chi(
    m0: float, v: float, branch: str = MATTER, units: UnitSystem = ATOMIC
) -> ThetaChi:
    """Free-mode component amplitudes at speed v.

    The minority/majority weight ratio is p*c/(E + m0*c**2) = gamma*beta/(gamma+1):
    zero at rest, strictly increasing with |v|, approaching 1 as |v| -> c.
    """
    _check_branch(branch)  # ThetaChi checks m0
    beta = abs(v) / units.c
    g = gamma_factor(v, units)
    ratio = g * beta / (g + 1.0)
    major = 1.0 / math.sqrt(1.0 + ratio * ratio)
    minor = ratio * major
    if branch == MATTER:
        return ThetaChi(theta=complex(major), chi=complex(minor), m0=m0, v=v, branch=branch)
    return ThetaChi(theta=complex(minor), chi=complex(major), m0=m0, v=v, branch=branch)


def invert_theta_chi(tc: ThetaChi) -> ThetaChi:
    """Swap the component roles and toggle the branch (an involution)."""
    return ThetaChi(
        theta=tc.chi,
        chi=tc.theta,
        m0=tc.m0,
        v=tc.v,
        branch=_OPPOSITE[tc.branch],
    )


def time_reversal_check(
    psi_spatial: np.ndarray,
    epsilon: float,
    potential: np.ndarray,
    grid: GridSpec,
    mu: float = 1.0,
    units: UnitSystem = ATOMIC,
) -> float:
    """Residual of the conjugated, time-reversed stationary solution.

    A stationary state psi(x) exp(-i eps t / hbar) turned into
    conj(Psi)(x, -t) must again solve the time-dependent equation with the
    same (real) potential.  The time factor is unimodular, so the check
    reduces to the discretized eigenproblem residual of conj(psi):

        max_i |(H conj(psi))_i - eps conj(psi)_i| / max|psi|

    evaluated with the second-difference H on the interior nodes.  For a
    real eigenfunction this equals the residual of psi itself.
    """
    _check_positive("reduced mass", mu)
    _check_finite("epsilon", epsilon)
    import numpy as np

    # the analytic commands never call this, so they do not load rsse.problem
    from .problem import _check_samples

    psi = np.asarray(psi_spatial, dtype=complex)
    v = np.asarray(potential, dtype=float)
    _check_samples("psi", psi, grid)
    _check_samples("potential", v, grid)
    peak = float(np.max(np.abs(psi)))
    if peak == 0.0:
        raise ValueError("cannot check a zero wavefunction")
    conj = psi.conj()
    h, hbar = grid.h, units.hbar
    kinetic = -(hbar * hbar) / (2.0 * mu) * (conj[2:] - 2.0 * conj[1:-1] + conj[:-2]) / (h * h)
    residual = kinetic + v[1:-1] * conj[1:-1] - epsilon * conj[1:-1]
    return float(np.max(np.abs(residual)) / peak)
