"""Stationary Schrodinger eigensolvers with a relativistic binding-energy
correction, matter-wave kinematics, and space-time-inversion checks.

The solver names (``solve_lowest_k``, ``numerov_solve``, ...) are resolved
from :mod:`rsse.eigensolver` on first access, so ``import rsse`` and the
analytic parts of the package load neither numpy nor scipy.
"""

__version__ = "0.1.0"

from .inversion import (
    ANTIMATTER,
    MATTER,
    PlaneWaveState,
    ThetaChi,
    dirac_theta_chi,
    effective_mass,
    electron_plane_wave,
    evaluate_plane_wave,
    invert_theta_chi,
    spacetime_invert,
    time_reversal_check,
)
from .kinematics import (
    DeBroglieResult,
    MassiveParticle,
    PhaseHarmony,
    WaveParameters,
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
from .presets import SolverPreset, builtin_presets, load_presets
from .problem import (
    BracketError,
    ConvergenceError,
    GridSpec,
    PotentialSpec,
    RadialProblem,
    WrongStateError,
    effective_potential,
    reduce_two_body,
)
from .spectra import (
    BindingReport,
    BindingRow,
    analytic_level,
    bohr_level,
    binding_nonrel,
    binding_relativistic,
    compare_report,
    dirac_coulomb_level,
    epsilon_from_total_energy,
    oscillator_level,
    total_energy_from_epsilon,
)
from .units import (
    ATOMIC,
    FINE_STRUCTURE,
    HARTREE_EV,
    UnitSystem,
    convert_energy,
    make_atomic_units,
)

__all__ = [
    "ANTIMATTER",
    "ATOMIC",
    "BindingReport",
    "BindingRow",
    "BracketError",
    "ConvergenceError",
    "DeBroglieResult",
    "EigenResult",
    "FINE_STRUCTURE",
    "GridSpec",
    "HARTREE_EV",
    "MATTER",
    "MassiveParticle",
    "PhaseHarmony",
    "PlaneWaveState",
    "PotentialSpec",
    "RadialProblem",
    "SolverPreset",
    "ThetaChi",
    "TridiagonalOperator",
    "UnitSystem",
    "WaveParameters",
    "WrongStateError",
    "analytic_level",
    "assemble_tridiagonal",
    "binding_nonrel",
    "binding_relativistic",
    "bohr_level",
    "builtin_presets",
    "check_phase_harmony",
    "clock_and_wave_frequencies",
    "compare_report",
    "convergence_order",
    "convert_energy",
    "derive_de_broglie",
    "dirac_coulomb_level",
    "dirac_theta_chi",
    "effective_mass",
    "effective_potential",
    "electron_plane_wave",
    "epsilon_from_total_energy",
    "evaluate_plane_wave",
    "gamma_factor",
    "invert_theta_chi",
    "load_presets",
    "lorentz_boost_energy_momentum",
    "lorentz_boost_event",
    "make_atomic_units",
    "momentum",
    "numerov_solve",
    "oscillator_level",
    "rayleigh_quotient",
    "reduce_two_body",
    "solve_lowest_k",
    "solve_numerov_lowest_k",
    "spacetime_invert",
    "time_reversal_check",
    "total_energy",
    "total_energy_from_epsilon",
    "velocities",
    "wave_from_particle",
]

# the names of ``__all__`` not bound above come from ``rsse.eigensolver`` when first read
_EIGENSOLVER_NAMES = frozenset(__all__).difference(globals())


def __getattr__(name):
    if name in _EIGENSOLVER_NAMES:
        from . import eigensolver

        value = globals()[name] = getattr(eigensolver, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _EIGENSOLVER_NAMES)
