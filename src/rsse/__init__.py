"""Stationary Schrodinger eigensolvers with a relativistic binding-energy
correction, matter-wave kinematics, and space-time-inversion checks.

Every public name is resolved from the submodule that defines it on first
access, so ``import rsse`` loads no submodule: the analytic parts load
neither numpy nor scipy, and only the solver names (``solve_lowest_k``,
``numerov_solve``, ...) import :mod:`rsse.eigensolver` and numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, under the submodule that defines it
_PUBLIC = {
    "eigensolver": (
        "EigenResult",
        "TridiagonalOperator",
        "assemble_tridiagonal",
        "convergence_order",
        "numerov_solve",
        "rayleigh_quotient",
        "solve_lowest_k",
        "solve_numerov_lowest_k",
    ),
    "inversion": (
        "ANTIMATTER",
        "MATTER",
        "PlaneWaveState",
        "ThetaChi",
        "dirac_theta_chi",
        "effective_mass",
        "electron_plane_wave",
        "evaluate_plane_wave",
        "invert_theta_chi",
        "spacetime_invert",
        "time_reversal_check",
    ),
    "kinematics": (
        "DeBroglieResult",
        "MassiveParticle",
        "PhaseHarmony",
        "WaveParameters",
        "check_phase_harmony",
        "clock_and_wave_frequencies",
        "derive_de_broglie",
        "gamma_factor",
        "lorentz_boost_energy_momentum",
        "lorentz_boost_event",
        "momentum",
        "total_energy",
        "velocities",
        "wave_from_particle",
    ),
    "presets": (
        "SolverPreset",
        "builtin_presets",
        "load_presets",
    ),
    "problem": (
        "BracketError",
        "ConvergenceError",
        "GridSpec",
        "PotentialSpec",
        "RadialProblem",
        "WrongStateError",
        "effective_potential",
        "reduce_two_body",
    ),
    "spectra": (
        "BindingReport",
        "BindingRow",
        "analytic_level",
        "bohr_level",
        "binding_nonrel",
        "binding_relativistic",
        "compare_report",
        "dirac_coulomb_level",
        "epsilon_from_total_energy",
        "oscillator_level",
        "total_energy_from_epsilon",
    ),
    "units": (
        "ATOMIC",
        "FINE_STRUCTURE",
        "HARTREE_EV",
        "UnitSystem",
        "convert_energy",
        "make_atomic_units",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())
