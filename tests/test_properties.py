"""Property tests: the JSON wire formats of shapes, configs and checkpoints
read back exactly what was written, geodesic spheres are stationary, and the
two geometry backends agree on convex axisymmetric shapes."""

import json
import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sphereflow.flow import FlowConfig, ShapeSpec, _stage_rate, speed  # noqa: E402
from sphereflow.hypersurface import (  # noqa: E402
    RadialProfile,
    SphereGrid2D,
    geometry,
    geometry_full_s2,
    load_checkpoint,
    save_checkpoint,
)
from sphereflow.symfunc import identity_quotient  # noqa: E402

# derandomized: the same examples on every run, so nothing is kept between runs
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6)
radius = st.floats(min_value=0.05, max_value=1.5)

# custom samples: theta climbs from 0 to pi in positive steps, any finite rho
samples = st.integers(min_value=2, max_value=40).flatmap(
    lambda size: st.tuples(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=size - 1, max_size=size - 1),
        st.lists(finite, min_size=size, max_size=size)))


def _custom_shape(steps, rho):
    theta = np.concatenate([[0.0], np.cumsum(steps)])
    return ShapeSpec(kind="custom", theta=theta * (math.pi / theta[-1]), rho=np.array(rho))


shapes = st.one_of(
    st.builds(ShapeSpec, kind=st.just("geodesicSphere"), r=finite),
    st.builds(ShapeSpec, kind=st.just("perturbed"), r0=finite, eps=finite,
              mode=st.integers(min_value=1, max_value=64)),
    samples.map(lambda s: _custom_shape(*s)),
)


def _through_json(payload):
    return json.loads(json.dumps(payload, allow_nan=False))


@PROPERTY
@given(shapes)
def test_shape_spec_json_roundtrip(spec):
    back = ShapeSpec.from_json(_through_json(spec.to_json()))
    assert back.kind == spec.kind
    for name in ShapeSpec.FIELDS[spec.kind]:
        # field by field: the custom samples are arrays
        assert np.array_equal(getattr(back, name), getattr(spec, name))
    if spec.kind == "perturbed":
        assert type(back.mode) is int


@st.composite
def configs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    return FlowConfig(
        n=n,
        k=draw(st.integers(min_value=0, max_value=n - 1)),
        N=draw(st.integers(min_value=5, max_value=4097)),
        initial_shape=draw(shapes.filter(lambda s: s.kind != "custom")),
        dt_max=draw(st.none() | positive),  # None, the default, is no cap
        t_max=draw(positive),
        convergence_tol=draw(st.floats(min_value=0.0, max_value=1.0)),
        sample_every=draw(st.integers(min_value=1, max_value=10**6)),
        checkpoint_every=draw(st.integers(min_value=0, max_value=10**6)),
    )


@PROPERTY
@given(configs())
def test_flow_config_json_roundtrip(cfg):
    assert FlowConfig.from_json(_through_json(cfg.to_json())) == cfg


@PROPERTY
@given(n=st.integers(min_value=2, max_value=6),
       rho=st.integers(min_value=5, max_value=65).flatmap(
           lambda size: st.lists(radius, min_size=size, max_size=size)),
       t=st.floats(min_value=0.0, max_value=1e3),
       data=st.data())
def test_checkpoint_roundtrip(n, rho, t, data):
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    profile = RadialProfile(n=n, theta=np.linspace(0.0, math.pi, len(rho)), rho=np.array(rho))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.json")
        save_checkpoint(profile, k, t, path)
        back, k_back, t_back = load_checkpoint(path)
    assert (back.n, k_back, t_back) == (n, k, t)
    assert back.grid is profile.grid
    assert np.array_equal(back.rho, profile.rho)


@PROPERTY
@given(n=st.integers(min_value=2, max_value=4), r=radius,
       N=st.integers(min_value=5, max_value=1025), data=st.data())
def test_geodesic_sphere_is_stationary(n, r, N, data):
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    prof = RadialProfile.geodesic_sphere(n, r, N)
    # c cos r - sin r * F with F = c cot r cancels to round-off of the size of c
    bound = 16 * np.finfo(float).eps * identity_quotient(n, k)
    assert np.max(np.abs(_stage_rate(n, k, prof.grid, prof.rho))) <= bound
    assert np.max(np.abs(speed(geometry(prof, k)))) <= bound


@PROPERTY
@given(r0=st.floats(min_value=0.3, max_value=1.2),
       coeffs=st.lists(st.floats(min_value=-0.03, max_value=0.03), min_size=1, max_size=4),
       N=st.sampled_from([65, 129, 257, 512]),
       n_phi=st.sampled_from([4, 8, 16]))
def test_geometry_backends_agree_on_convex_perturbations(r0, coeffs, N, n_phi):
    theta = np.linspace(0.0, math.pi, N)
    rho = r0 + sum(a * np.cos((m + 1) * theta) for m, a in enumerate(coeffs))
    prof = RadialProfile(n=2, theta=theta, rho=rho)
    state = geometry(prof, 0)
    assume(state.lam_min > 0.05)
    full = geometry_full_s2(SphereGrid2D.from_profile(prof, n_phi))
    inner = slice(1, -1)
    lo = np.minimum(state.lam1, state.lam_ang)[inner, None]
    hi = np.maximum(state.lam1, state.lam_ang)[inner, None]
    # next to the poles the two curvatures nearly coincide and the 2x2
    # eigen-solve loses digits (up to 5e-10 seen), hence 1e-7, not round-off
    scale = max(1.0, state.lam_max)
    assert np.max(np.abs(full.lam_lo - lo)) <= 1e-7 * scale
    assert np.max(np.abs(full.lam_hi - hi)) <= 1e-7 * scale
    assert np.max(np.abs(full.u - state.u[inner, None])) <= 1e-12
    assert np.max(np.abs(full.area_weight - state.area_weight[inner, None])) <= 1e-12
    assert full.weingarten_asymmetry <= 1e-10
