"""Random operators against a dense solve.

Each example draws a rectangle, disk, L-shape or annulus of at most 400
interior nodes, a field of flux B h^2 per plaquette in one of three gauges,
a zero, constant or radial-quadratic potential and a request k.  The
spectrum of ``lowest_eigenpairs`` must equal the k lowest values of
``np.linalg.eigvalsh`` as a multiset, so that clusters compare; the inertia
count at a drawn sigma must equal the dense count; every residual must meet
the solver's gate.  The two explicit examples are strong-field clusters that
ARPACK cannot split at the first request.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import magspec as ms
from magspec import eigensolve

TOL = 1e-10
#: The residual gate of ``lowest_eigenpairs`` at TOL.
GATE = max(100 * TOL, 1e-8)
MAX_NODES = 400

SPACINGS = [1 / 8, 1 / 10, 1 / 12, 1 / 16, 1 / 20, 0.07, 0.09]
UNIT = st.floats(0.0, 1.0)


@st.composite
def shapes(draw, h):
    """A shape whose bounding box holds at most about 441 nodes at spacing h."""
    size = st.floats(3.0, 20.0).map(lambda x: x * h)
    kind = draw(st.sampled_from(["rectangle", "disk", "lshape", "annulus"]))
    if kind == "rectangle":
        return ms.Rectangle(draw(size), draw(size))
    if kind == "lshape":
        a, b = draw(size), draw(size)
        return ms.LShape(a, b, min(a, b) * draw(st.floats(0.2, 0.8)))
    radius = draw(size) / 2
    if kind == "disk":
        return ms.Disk(radius)
    return ms.Annulus(radius * draw(st.floats(0.1, 0.7)), radius)


@st.composite
def operators(draw):
    """(shape, h, gauge, potential, k, where the inertia count is taken in [0, 1])."""
    h = draw(st.sampled_from(SPACINGS))
    shape = draw(shapes(h))
    try:
        n = ms.build_domain(shape, h).n
    except ValueError:  # no interior node
        n = 0
    assume(3 <= n <= MAX_NODES)
    flux = draw(st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, 2 * math.pi]),
                          st.floats(0.0, 0.3), st.floats(0.0, math.pi)))
    B = flux / h**2
    gauge = draw(st.sampled_from(["none", "uniform", "linear_gauge_shift"]))
    if gauge == "none":
        gauge = ms.GaugeSpec()
    elif gauge == "uniform":
        gauge = ms.GaugeSpec(B)
    else:
        gauge = ms.GaugeSpec(B, tuple(draw(st.floats(-5.0, 5.0)) for _ in range(3)))
    x0, y0, x1, y1 = shape.bounding_box()
    potential = draw(st.sampled_from([
        ms.PotentialSpec(),
        ms.PotentialSpec(c=draw(st.floats(0.0, 100.0))),
        ms.PotentialSpec(a=draw(st.floats(0.0, 100.0)) / (x1 - x0) ** 2,
                         center=(x0 + (x1 - x0) * draw(UNIT), y0 + (y1 - y0) * draw(UNIT)))]))
    return shape, h, gauge, potential, draw(st.integers(1, min(n - 2, 40))), draw(UNIT)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(operators())
@example((ms.Disk(0.5773363459494714), 0.05, ms.GaugeSpec(139.16159534435932),
          ms.PotentialSpec(c=20.29102351021836), 2, 0.5))
@example((ms.Annulus(0.3834809045729536, 1.0), 1 / 16, ms.GaugeSpec(715.6721087810082),
          ms.PotentialSpec(c=36.0582893058421), 1, 0.5))
def test_lowest_eigenpairs_match_a_dense_solve(case):
    shape, h, gauge, potential, k, where = case
    op = ms.assemble(ms.build_domain(shape, h), gauge, potential)
    dense = np.linalg.eigvalsh(op.matrix.toarray())

    spec, _ = ms.lowest_eigenpairs(op, k, tol=TOL)
    assert np.all(np.abs(spec.values - dense[:k]) <= 1e-10 * dense[:k])
    assert np.all(spec.residuals <= GATE)

    # sigma below the lowest value or a third into a gap that rounding cannot close (not
    # at its middle, which is the diagonal when the spectrum is symmetric about it)
    gaps = np.flatnonzero(np.diff(dense) > 1e-9 * dense[1:]) + 1
    j = np.concatenate([[0], gaps])[int(where * gaps.size)]
    sigma = dense[0] / 2 if j == 0 else (2 * dense[j - 1] + dense[j]) / 3
    assert eigensolve._count_below(eigensolve._split(op), sigma) == j
