"""The public API on extreme inputs: each call returns or raises a usage error.

Each call must return within its alarm or raise ``ValueError`` or
``ConvergenceError``: no other exception, no hang and, under the suite's
warnings-as-errors filter, no numpy warning.  A solver's results must be
finite.  A scalar function may return inf or nan where its result
overflows; the CLI's finite-cell rule rejects such a cell (exit 2).
"""

import contextlib
import inspect
import itertools
import math
import signal

import numpy as np
import pytest

import rsse
from rsse.problem import ConvergenceError, GridSpec, PotentialSpec, RadialProblem

EXTREMES = (0.0, -0.0, 1.0, -1.0, 0.5, 1e-320, 5e-324, 1e-300, 1e300, 1.7e308, math.inf,
            -math.inf, math.nan, 137.0, 136.9, -136.9, 1e-10, 2.0)


@contextlib.contextmanager
def alarm(seconds, call):
    def expire(signum, frame):
        raise TimeoutError(f"{call} did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("m0, v", [(1.0, 1e-320), (1.0, 5e-324), (1e-320, 0.5), (1e-300, 1e-300)])
def test_derive_de_broglie_returns_for_subnormal_masses_and_speeds(m0, v):
    # 1e-12 * hi underflows to 0 there, and the midpoint of two adjacent
    # subnormals is one of them, so the bisection's width never shrank
    with alarm(1.0, (m0, v)):
        k, _ = rsse.derive_de_broglie(m0, v)
    assert 0.0 <= k <= 1.1 * m0 * v


def leading_numbers(function):
    """How many of ``function``'s parameters, from the first, take a number."""
    kinds = [p.annotation for p in inspect.signature(function).parameters.values()]
    return len(list(itertools.takewhile(lambda kind: kind in ("float", "int"), kinds)))


# every public function of the analytic modules whose first arguments are
# numbers; an energy conversion's two units are the only others without defaults
SCALAR_FUNCTIONS = [
    getattr(rsse, name) for name, module in rsse._MODULE_OF.items()
    if module in ("kinematics", "inversion", "spectra", "units")
    and inspect.isfunction(getattr(rsse, name)) and leading_numbers(getattr(rsse, name))
]
UNITS = {"from_unit": "hartree", "to_unit": "eV"}


@pytest.mark.parametrize("function", SCALAR_FUNCTIONS, ids=lambda function: function.__name__)
def test_every_scalar_function_returns_or_raises_a_usage_error(function):
    units = {k: v for k, v in UNITS.items() if k in inspect.signature(function).parameters}
    for args in itertools.product(EXTREMES, repeat=leading_numbers(function)):
        with alarm(1.0, (function.__name__, args)), contextlib.suppress(ValueError):
            function(*args, **units)


@pytest.mark.parametrize("depth", [1e300, -1e300, 1e-300, 1e-10, 1.0, 1e10])
def test_solvers_on_an_extreme_well_give_finite_values_or_a_usage_error(depth):
    for half_span, n in itertools.product((1e-150, 1e-75, 1e-10, 1.0, 1e10, 1e75, 1e150), (16, 50)):
        well = PotentialSpec.tabulated([-half_span, 0.0, half_span], [depth, -depth, depth])
        problem, grid = RadialProblem(well), GridSpec(-half_span, half_span, n)
        calls = {
            "fd": lambda: rsse.solve_lowest_k(rsse.assemble_tridiagonal(problem, grid), 2),
            "numerov": lambda: rsse.solve_numerov_lowest_k(problem, grid, 2),
            "rayleigh": lambda: rsse.rayleigh_quotient(np.sin(np.linspace(0, np.pi, n)), problem, grid),
        }
        for name, call in calls.items():
            with alarm(10.0, (name, half_span, n)), contextlib.suppress(ValueError, ConvergenceError):
                result = call()
                values = [result] if name == "rayleigh" else [
                    result.epsilons, result.residuals, result.wavefunctions]
                assert all(np.isfinite(value).all() for value in values), (name, half_span, n)
