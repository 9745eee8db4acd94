"""Manufactured ground states: potentials whose lowest level is known exactly.

For any g, psi = exp(-g) solves -psi''/2 + V psi = eps0 psi with
V = eps0 + (g'**2 - g'')/2 (hbar = mu = 1).  psi has no node, so eps0 is
the ground-state level (P. J. Roache, J. Fluids Eng. 124, 4 (2002), on the
method of manufactured solutions).  Here eps0 = 0 and g is a random convex
quartic, so psi is one bump that has decayed far inside the box [-7, 7].
V is sampled into a tabulated potential on each grid's own nodes, so the
interpolation between samples never enters a solve.  On the 801/1601/3201
node ladder each route must show its design order: 2 for the
second-difference FD matrix, 4 for Numerov.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import Polynomial

from rsse.eigensolver import convergence_order, solve_state
from rsse.problem import GridSpec, PotentialSpec, RadialProblem

BOX = (-7.0, 7.0)
LADDER = (801, 1601, 3201)
# the largest |g'| at the walls: V is about g'**2 / 2 there, and the Numerov
# stencil on 801 nodes needs V below 6 / h**2, about 19600
SLOPE = (60.0, 170.0)
# the smallest g at the walls: the box clips psi**2 at exp(-60) or below
WALL = 30.0


@st.composite
def convex_quartics(draw):
    x0 = draw(st.floats(-2.0, 2.0))
    b2 = draw(st.floats(0.1, 1.0))
    b4 = draw(st.floats(0.002, 0.02))
    # b3**2 < 8 b2 b4 / 3 keeps g'' > 0: one well, so no near-degenerate pair
    b3 = draw(st.floats(-0.9, 0.9)) * math.sqrt(8.0 / 3.0 * b2 * b4)
    y = Polynomial([-x0, 1.0])
    g = b2 * y**2 + b3 * y**3 + b4 * y**4
    slope = max(abs(g.deriv()(end)) for end in BOX)
    g = g * (draw(st.floats(*SLOPE)) / slope)
    assume(min(g(end) for end in BOX) >= WALL)
    return g


def observed_order(g: Polynomial, method: str) -> float:
    """Slope of log|eps_h - 0| against log h over the ladder."""
    grids = [GridSpec(*BOX, n) for n in LADDER]
    table = []
    for grid in grids:
        x = grid.nodes()
        problem = RadialProblem(
            PotentialSpec.tabulated(x, 0.5 * (g.deriv()(x) ** 2 - g.deriv(2)(x)))
        )
        table.append((grid.h, solve_state(problem, grid, 0, method)))
    return convergence_order(problem, grids, 0.0, method=method, table=table)


# warnings are errors (pyproject.toml): an overflow in a solve fails the draw
@pytest.mark.parametrize("method, order, tolerance", [("fd", 2.0, 0.1), ("numerov", 4.0, 0.4)])
@settings(max_examples=25, deadline=None)
@given(g=convex_quartics())
def test_manufactured_ground_state_converges_at_the_design_order(g, method, order, tolerance):
    assert abs(observed_order(g, method) - order) <= tolerance
