"""Property tests: the rate-only stage evaluations of both solvers give, bit
for bit, what the full states they stand in for give, and fail the same way."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sphereflow.dualflow import _g, _stage_g, support_closure  # noqa: E402
from sphereflow.exceptions import ConeViolation, ConvexityLoss  # noqa: E402
from sphereflow.flow import _stage_rate, speed  # noqa: E402
from sphereflow.hypersurface import RadialProfile, geometry, polar_grid  # noqa: E402

# derandomized: the same examples on every run, so nothing is kept between runs
PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)

# values a stage may meet: out of the chart, not finite, or in range but kinked
DEFECTS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.1, 1e-13,
                           math.pi / 2, 2.0, 0.05, 0.6, 1.4])


@st.composite
def cases(draw, lo, hi):
    """(n, k, grid, values): a base level plus four small cosine modes."""
    n = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=0, max_value=n - 1))
    grid = polar_grid(draw(st.sampled_from((17, 33, 65, 128))))
    base = draw(st.floats(min_value=lo, max_value=hi))
    amps = draw(st.lists(st.floats(min_value=-0.01, max_value=0.01), min_size=4, max_size=4))
    values = base + sum(a * np.cos(m * grid.theta) for m, a in enumerate(amps, 1))
    return n, k, grid, values


def _outcome(fn, values):
    """fn(values) as raw bytes, or the type and message of the error it raised."""
    try:
        return fn(values).tobytes()
    except ValueError as exc:  # ConeViolation and ConvexityLoss included
        return type(exc), str(exc)


def _graph(n, k, grid):
    """The full-state rate and the stage rate of radii on grid."""
    def full(rho):
        st = geometry(RadialProfile(n=n, theta=grid, rho=rho), k)
        return speed(st) * st.omega_speed

    return full, lambda rho: _stage_rate(n, k, grid, rho)


def _dual(n, k, grid):
    """The full-state G and the stage G of support values on grid."""
    def full(u):
        s = support_closure(n, grid, u)
        return _g(n, k, s.u, s.rho_tilde, s.omega, s.phi, s.phip, s.w_merid, s.w_ang)[0]

    return full, lambda u: _stage_g(n, k, grid, u)


@PROPERTY
@given(cases(0.2, 1.2))
def test_stage_rate_is_the_full_rate_bit_for_bit(case):
    n, k, grid, rho = case
    try:
        convex = geometry(RadialProfile(n=n, theta=grid, rho=rho), k).lam_min > 0.0
    except ValueError:
        convex = False
    assume(convex)
    full, stage = _graph(n, k, grid)
    assert stage(rho).tobytes() == full(rho).tobytes()


@PROPERTY
@given(cases(0.1, 0.9))
def test_stage_g_is_the_full_g_bit_for_bit(case):
    n, k, grid, u = case
    full, stage = _dual(n, k, grid)
    expected = _outcome(full, u)
    assume(isinstance(expected, bytes))
    assert stage(u).tobytes() == expected


@PROPERTY
@given(cases(0.2, 1.2), st.floats(min_value=0.0, max_value=1.0), DEFECTS)
def test_stage_rate_fails_like_the_full_rate(case, where, defect):
    n, k, grid, rho = case
    rho = rho.copy()
    rho[round(where * (grid.theta.size - 1))] = defect
    full, stage = _graph(n, k, grid)
    expected = _outcome(full, rho)
    assert _outcome(stage, rho) == expected
    if not 0.0 < defect < 1.5:
        assert expected[0] is ValueError


@PROPERTY
@given(cases(0.1, 0.9), st.floats(min_value=0.0, max_value=1.0), DEFECTS)
def test_stage_g_fails_like_the_full_g(case, where, defect):
    n, k, grid, u = case
    u = u.copy()
    u[round(where * (grid.theta.size - 1))] = defect
    full, stage = _dual(n, k, grid)
    expected = _outcome(full, u)
    assert _outcome(stage, u) == expected
    if not (math.isfinite(defect) and defect > 0.0):
        assert expected[0] is ValueError


@pytest.mark.parametrize("side, values, k, error", [
    # a mode-8 ripple bends the meridian inwards: sigma_1 < 0
    (_graph, 0.8 + 0.2 * np.cos(8.0 * polar_grid(65).theta), 1, ConeViolation),
    # the unit-support equator state: the shift cancels W^{-1} = id exactly
    (_dual, np.ones(65), 1, ConeViolation),
    (_dual, 0.5 + 0.1 * np.cos(8.0 * polar_grid(65).theta), 1, ConvexityLoss),
])
def test_stage_cores_keep_the_cone_checks(side, values, k, error):
    full, stage = side(2, k, polar_grid(65))
    expected = _outcome(full, values)
    assert expected[0] is error
    assert _outcome(stage, values) == expected


def _stack(values):
    """Three stage-like rows: values and two small smooth perturbations of it."""
    theta = np.linspace(0.0, math.pi, values.size)
    return np.stack((values, values + 1e-3 * np.cos(2.0 * theta), values * (1.0 - 1e-3)))


@PROPERTY
@given(cases(0.2, 1.2))
def test_stacked_stage_rate_is_the_rate_row_by_row(case):
    n, k, grid, rho = case
    stack = _stack(rho)
    _, stage = _graph(n, k, grid)
    rows = [_outcome(stage, row) for row in stack]
    assume(all(isinstance(row, bytes) for row in rows))
    assert [row.tobytes() for row in stage(stack)] == rows


@PROPERTY
@given(cases(0.1, 0.9))
def test_stacked_stage_g_is_g_row_by_row(case):
    n, k, grid, u = case
    stack = _stack(u)
    _, stage = _dual(n, k, grid)
    rows = [_outcome(stage, row) for row in stack]
    assume(all(isinstance(row, bytes) for row in rows))
    assert [row.tobytes() for row in stage(stack)] == rows


@pytest.mark.parametrize("side, good, bad, k, error", [
    (_graph, np.full(65, 0.8), 0.8 + 0.2 * np.cos(8.0 * polar_grid(65).theta), 1, ConeViolation),
    (_dual, np.full(65, 0.5), np.ones(65), 1, ConeViolation),
    (_dual, np.full(65, 0.5), 0.5 + 0.01 * (np.arange(65) == 30), 1, ConvexityLoss),
])
def test_stacked_cone_errors_carry_the_node(side, good, bad, k, error):
    """A stack that fails in a later row reports the node, 0..N-1, of that row."""
    _, stage = side(2, k, polar_grid(65))
    with pytest.raises(error) as single:
        stage(bad)
    with pytest.raises(error) as stacked:
        stage(np.stack((good, bad, good)))
    # a flat index of the stack would read 65 + node, a row index 1
    assert stacked.value.node == single.value.node
    assert str(stacked.value) == str(single.value)
