import dataclasses
import io
import json
import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from sphereflow import (
    ConeViolation,
    RadialProfile,
    SphereGrid2D,
    geometry,
    geometry_full_s2,
    hessian_contraction_residuals,
    integrate,
    load_checkpoint,
    minkowski_residual,
    quermass_vector,
    save_checkpoint,
    volume,
)
from sphereflow.flow import _N_MAX
from sphereflow.hypersurface import (
    PolarGrid,
    _json_samples,
    cot_grad,
    curvatures,
    differentiate,
    frame_hessian,
    polar_grid,
    simpson_weights,
    sin_power_integral,
    unit_sphere_area,
)

import oracles


def test_profile_validation():
    theta = np.linspace(0.0, math.pi, 33)
    with pytest.raises(ValueError):
        RadialProfile(n=1, theta=theta, rho=np.full(33, 0.5))
    with pytest.raises(ValueError):
        RadialProfile(n=2, theta=theta[:-1], rho=np.full(32, 0.5))
    with pytest.raises(ValueError):
        RadialProfile(n=2, theta=theta, rho=np.full(33, 1.6))  # beyond pi/2
    with pytest.raises(ValueError):
        RadialProfile(n=2, theta=theta**1.01, rho=np.full(33, 0.5))
    with pytest.raises(ValueError):
        RadialProfile.perturbed(2, 0.8, 0.05, 1.5, 33)
    prof = RadialProfile.perturbed(2, 0.8, 0.05, 2, 33)
    assert prof.N == 33
    assert prof.h == pytest.approx(math.pi / 32)


def test_differentiate_matches_even_mirror_oracle():
    prof = RadialProfile.perturbed(2, 0.8, 0.05, 2, 65)
    grad, hess = differentiate(prof.rho, prof.h)
    g2, h2 = oracles.fd_even_derivatives(prof.rho, prof.h)
    assert np.allclose(grad, g2, atol=1e-14)
    # the even-mirror second derivative at the pole is the one-sided stencil
    assert np.allclose(hess[1:-1], h2[1:-1], atol=1e-12)
    assert hess[0] == pytest.approx(h2[0] / 2 + (prof.rho[1] - prof.rho[0]) / prof.h**2, abs=1e-9)
    assert grad[0] == 0.0 and grad[-1] == 0.0


def test_cot_grad_takes_the_even_pole_limit():
    grid = polar_grid(65)
    q = np.cos(2.0 * grid.theta) + 0.1 * np.cos(3.0 * grid.theta)
    grad, hess = differentiate(q, grid.h)
    cot = cot_grad(grad, hess, grid.tan)
    assert cot.shape == q.shape
    assert np.array_equal(cot[1:-1], grad[1:-1] / grid.tan)
    assert cot[0] == hess[0] and cot[-1] == hess[-1]
    # q_thetatheta is -4 - 0.9 at theta = 0 and -4 + 0.9 at theta = pi
    assert cot[0] == pytest.approx(-4.9, abs=1e-2)
    assert cot[-1] == pytest.approx(-3.1, abs=1e-2)


@pytest.mark.parametrize("N", [65, 128])
def test_angular_curvature_takes_the_meridian_one_at_the_poles(N):
    # both curvatures coincide at a pole, but their formulas round apart: on
    # the n=2 reference shape they differ by 1 ulp at each pole, and every
    # graph bundle reads lam1's value there, for one or for a stack of radii
    prof = RadialProfile.perturbed(2, 0.8, 0.05, 2, N)
    st = geometry(prof, 1)
    assert st.lam_ang[0] == st.lam1[0] and st.lam_ang[-1] == st.lam1[-1]
    *_, lam1, lam_ang = curvatures(prof.grid, np.stack([prof.rho, prof.rho[::-1]]))
    assert np.array_equal(lam_ang[:, [0, -1]], lam1[:, [0, -1]])


def test_geodesic_sphere_is_umbilic():
    for n, r in ((2, 0.8), (3, 0.5), (4, 1.2)):
        st = geometry(RadialProfile.geodesic_sphere(n, r, 129), 1)
        cot = math.cos(r) / math.sin(r)
        assert np.max(np.abs(st.lam1 - cot)) <= 1e-13
        assert np.max(np.abs(st.lam_ang - cot)) <= 1e-13
        assert np.max(np.abs(st.u - math.sin(r))) <= 1e-14
        assert np.max(np.abs(st.w - math.sin(r))) <= 1e-14
        c = (n - 1) / 2.0
        assert np.max(np.abs(st.F - c * cot)) <= 1e-12


def test_geometry_support_function_formula():
    prof = RadialProfile.perturbed(2, 0.8, 0.05, 3, 257)
    st = geometry(prof, 1)
    grad, _ = differentiate(prof.rho, prof.h)
    w = np.sqrt(np.sin(prof.rho) ** 2 + grad**2)
    assert np.allclose(st.u, np.sin(prof.rho) ** 2 / w, atol=1e-14)
    assert np.allclose(st.area_weight, np.sin(prof.rho) ** (prof.n - 1) * w, atol=1e-14)
    assert np.allclose(st.omega_speed, w / np.sin(prof.rho), atol=1e-14)


def test_geometry_rejects_cone_exit():
    # deep oscillation turns sigma_2 negative somewhere
    prof = RadialProfile.perturbed(2, 0.8, 0.28, 6, 257)
    with pytest.raises(ConeViolation):
        geometry(prof, 1)
    # k = 0 only needs star-shapedness, so the same profile passes
    st = geometry(prof, 0)
    assert st.lam_min < 0.0


def test_cross_backend_agreement():
    for r0, eps, mode in ((0.8, 0.05, 2), (0.7, 0.03, 3), (0.9, 0.04, 4)):
        prof = RadialProfile.perturbed(2, r0, eps, mode, 513)
        st = geometry(prof, 1)
        full = geometry_full_s2(SphereGrid2D.from_profile(prof, 8))
        sl = slice(1, -1)
        assert np.max(np.abs(full.u[:, 0] - st.u[sl])) <= 1e-6
        assert np.max(np.abs(full.lam_lo[:, 0] - np.minimum(st.lam1, st.lam_ang)[sl])) <= 1e-6
        assert np.max(np.abs(full.lam_hi[:, 0] - np.maximum(st.lam1, st.lam_ang)[sl])) <= 1e-6
        assert np.max(np.abs(full.area_weight[:, 0] - st.area_weight[sl])) <= 1e-6
        assert full.weingarten_asymmetry <= 1e-10


def test_full_backend_nonaxisymmetric_self_adjoint():
    grid = SphereGrid2D.from_function(
        lambda t, p: 0.8 + 0.03 * np.sin(t) ** 2 * np.cos(2 * p), 129, 64)
    full = geometry_full_s2(grid)
    assert full.weingarten_asymmetry <= 1e-10
    assert np.all(full.lam_lo > 0.0)


def test_sphere_grid_validation():
    prof = RadialProfile.perturbed(2, 0.8, 0.05, 2, 33)
    with pytest.raises(ValueError):
        SphereGrid2D.from_profile(prof, 7)  # odd phi count
    grid = SphereGrid2D.from_profile(prof, 8)
    rho = grid.rho.copy()
    rho[0, 1] += 1e-3
    with pytest.raises(ValueError):
        SphereGrid2D(theta=grid.theta, phi_nodes=grid.phi_nodes, rho=rho)


def test_quadrature_and_area_constants():
    assert unit_sphere_area(1) == pytest.approx(2 * math.pi, rel=1e-14)
    assert unit_sphere_area(2) == pytest.approx(4 * math.pi, rel=1e-14)
    assert unit_sphere_area(3) == pytest.approx(2 * math.pi**2, rel=1e-14)
    # composite quadrature nails smooth integrands to ~h^4
    N = 129
    w = simpson_weights(N, math.pi / (N - 1))
    tt = np.linspace(0.0, math.pi, N)
    assert w @ np.sin(tt) == pytest.approx(2.0, abs=1e-8)
    assert w @ np.sin(tt) ** 3 == pytest.approx(4.0 / 3.0, abs=1e-7)


def test_sin_power_integral_closed_forms():
    xs = np.linspace(0.1, 1.4, 7)
    assert np.allclose(sin_power_integral(1, xs), 1.0 - np.cos(xs), atol=1e-14)
    assert np.allclose(sin_power_integral(2, xs), xs / 2 - np.sin(2 * xs) / 4, atol=1e-14)
    assert np.allclose(sin_power_integral(3, xs),
                       2.0 / 3.0 - np.cos(xs) + np.cos(xs) ** 3 / 3.0, atol=1e-14)


@pytest.mark.parametrize("m", range(9))
def test_sin_power_integral_keeps_relative_digits(m):
    # small x: the Taylor series to x^2 relative, whose next term is below 1e-16
    xs = np.array([1e-12, 1e-8, 1e-6, 1e-5, 1e-4])
    series = xs ** (m + 1) / (m + 1) * (1.0 - m * (m + 1) * xs**2 / (6.0 * (m + 3)))
    assert np.max(np.abs(sin_power_integral(m, xs) / series - 1.0)) <= 1e-13
    xs = np.linspace(1e-3, math.pi / 2 - 1e-6, 41)
    want = np.array([quad(lambda t: math.sin(t) ** m, 0.0, x, epsabs=0.0, epsrel=1e-13,
                          limit=200)[0] for x in xs])
    assert np.max(np.abs(sin_power_integral(m, xs) / want - 1.0)) <= 1e-13


@pytest.mark.parametrize("m", [14, 15, 30, 100, 200, 300, 391, 417, _N_MAX])
def test_sin_power_integral_keeps_relative_digits_up_to_the_largest_n(m):
    # volume takes m = n, which FlowConfig admits up to _N_MAX; from x = 0.4 on
    # the integral stays a normal float at every such m
    xs = np.linspace(0.4, math.pi / 2 - 1e-9, 41)
    want = np.array([quad(lambda t: math.sin(t) ** m, 0.0, x, epsabs=0.0, epsrel=1e-13,
                          limit=200)[0] for x in xs])
    assert np.max(np.abs(sin_power_integral(m, xs) / want - 1.0)) <= 1e-12


@pytest.mark.parametrize("x", [-1e-3, math.pi / 2 + 1e-3, math.nan])
def test_sin_power_integral_refuses_x_outside_quarter_turn(x):
    with pytest.raises(ValueError, match=r"\[0, pi/2\]"):
        sin_power_integral(3, np.array([0.5, x]))


def test_volume_and_area_against_dense_quadrature():
    for n, r in ((2, 0.9), (3, 0.6)):
        prof = RadialProfile.geodesic_sphere(n, r, 257)
        want = unit_sphere_area(n) * float(sin_power_integral(n, r))
        # radial part is exact; the angular quadrature carries ~h^4
        assert volume(prof) == pytest.approx(want, rel=5e-9)
    prof = RadialProfile.perturbed(2, 0.8, 0.06, 3, 257)
    st = geometry(prof, 0)
    area = integrate(st, np.ones(prof.N))
    # dense midpoint quadrature of the analytic profile
    tt = np.linspace(0.0, math.pi, 20001)
    mid = 0.5 * (tt[1:] + tt[:-1])
    rho = 0.8 + 0.06 * np.cos(3 * mid)
    drho = -0.18 * np.sin(3 * mid)
    w = np.sqrt(np.sin(rho) ** 2 + drho**2)
    want = 2 * math.pi * float(np.sum(np.sin(rho) * w * np.sin(mid)) * (tt[1] - tt[0]))
    # the discrete area element carries the O(h^2) gradient error inside W
    assert area == pytest.approx(want, rel=2e-5)


def test_minkowski_residual_small_and_refining():
    for n in (2, 3):
        prof = RadialProfile.perturbed(n, 0.8, 0.1, 2, 513)
        st = geometry(prof, 0)
        for m in range(n):
            assert abs(minkowski_residual(st, m)) <= 1e-4
        coarse = geometry(RadialProfile.perturbed(n, 0.8, 0.1, 2, 129), 0)
        for m in range(n):
            ratio = abs(minkowski_residual(coarse, m)) / abs(minkowski_residual(st, m))
            assert ratio > 8.0  # two halvings at order ~2 gives ~16


def test_frame_hessian_on_sphere():
    r = 0.7
    prof = RadialProfile.geodesic_sphere(2, r, 257)
    st = geometry(prof, 1)
    q = np.cos(prof.theta)
    qg, qh = oracles.fd_even_derivatives(q, prof.h)
    merid, ang = frame_hessian(st, qg, qh)
    want = -np.cos(prof.theta) / math.sin(r) ** 2
    assert np.max(np.abs(merid[1:-1] - want[1:-1])) <= 1e-3
    assert np.max(np.abs(ang[1:-1] - want[1:-1])) <= 1e-3
    # pole limit collapses both components to q'' / phi^2
    assert merid[0] == pytest.approx(ang[0], abs=1e-12)


def test_support_factor_disambiguation():
    prof = RadialProfile.perturbed(2, 0.8, 0.05, 2, 257)
    res = hessian_contraction_residuals(prof, 1)
    passing = [name for name, val in res.items() if val <= 1e-10]
    assert len(passing) == 1
    failing = [val for val in res.values() if val > 1e-10]
    assert all(val > 1e-3 for val in failing)


def test_json_samples_refuse_booleans():
    assert _json_samples([0.5, 1, 2.0], "rho").tolist() == [0.5, 1.0, 2.0]
    # JSON true and false would otherwise be read as 1.0 and 0.0
    for value in ([True, 0.5, 2.0], [0.5, False], np.array([True, False])):
        with pytest.raises(ValueError, match="rho must be a list of numbers, not booleans"):
            _json_samples(value, "rho")


def test_checkpoint_roundtrip(tmp_path):
    prof = RadialProfile.perturbed(3, 0.8, 0.05, 2, 65)
    path = tmp_path / "state.json"
    save_checkpoint(prof, 2, 1.25, path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"n", "k", "t", "theta", "rho"}
    loaded, k, t = load_checkpoint(path)
    assert k == 2
    assert t == 1.25
    assert loaded.n == 3
    assert np.array_equal(loaded.rho, prof.rho)
    assert np.array_equal(loaded.theta, prof.theta)
    # a non-uniform grid is refused where the checkpoint enters
    payload["theta"][5] += 1e-3
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="uniformly spaced"):
        load_checkpoint(path)


def test_unit_sphere_area_to_the_order_bound():
    # the flow's bound on n is the last n with |S^n| a normal float64
    assert unit_sphere_area(_N_MAX) >= sys.float_info.min > unit_sphere_area(_N_MAX + 1)
    # a loop, not a recursion: a large dimension underflows to zero
    assert unit_sphere_area(5000) == 0.0


def test_checkpoint_bytes_keep_the_wire_format(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(RadialProfile.geodesic_sphere(2, 0.5, 5), 1, 0.25, path)
    assert path.read_bytes() == (
        b'{"n": 2, "k": 1, "t": 0.25, "theta": [0.0, 0.7853981633974483, '
        b'1.5707963267948966, 2.356194490192345, 3.141592653589793], '
        b'"rho": [0.5, 0.5, 0.5, 0.5, 0.5]}\n')
    # the format json.dump writes, on a full-precision profile
    prof = RadialProfile.perturbed(3, 0.8, 0.05, 2, 65)
    save_checkpoint(prof, 2, 1.0 / 3.0, path)
    expected = io.StringIO()
    json.dump({"n": 3, "k": 2, "t": 1.0 / 3.0, "theta": prof.theta.tolist(),
               "rho": prof.rho.tolist()}, expected)
    assert path.read_text() == expected.getvalue() + "\n"


@pytest.mark.parametrize("drop, extra, message", [
    ("t", {}, "a checkpoint needs the key 't'"),
    ("rho", {}, "a checkpoint needs the key 'rho'"),
    (None, {"tt": 0.0}, "unknown key 'tt' in a checkpoint"),
])
def test_checkpoint_keys_are_read_by_name(tmp_path, drop, extra, message):
    path = tmp_path / "ck.json"
    save_checkpoint(RadialProfile.geodesic_sphere(2, 0.5, 9), 1, 0.25, path)
    payload = {**json.loads(path.read_text()), **extra}
    payload.pop(drop, None)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


def test_raw_nodes_and_shared_grid_agree_exactly():
    N = 65
    rho = 0.9 + 0.03 * np.cos(2.0 * np.linspace(0.0, math.pi, N))
    raw = RadialProfile(n=3, theta=np.linspace(0.0, math.pi, N), rho=rho)
    shared = RadialProfile(n=3, theta=polar_grid(N), rho=rho)
    assert raw.grid is shared.grid is polar_grid(N)
    a, b = geometry(raw, 1), geometry(shared, 1)
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        assert va is vb if isinstance(va, PolarGrid) else np.array_equal(va, vb), f.name
    assert np.array_equal(quermass_vector(a, raw).values, quermass_vector(b, shared).values)
    # the shared nodes cannot be written through a profile
    with pytest.raises(ValueError):
        raw.theta[1] = 0.0


def test_extremes_are_the_trace_columns_in_order():
    prof = RadialProfile.perturbed(3, 0.9, 0.03, 2, 65)
    st = geometry(prof, 2)
    want = (np.min(st.u), np.min(st.rho), np.max(st.rho), np.min(st.F), np.max(st.F))
    assert st.extremes == want and all(type(v) is float for v in st.extremes)
    assert st.extremes is st.extremes


def _axisymmetric_laplacian(n, N):
    """eta'' + (n-1) cot(theta) eta' as an N x N matrix, from differentiate's
    stencils; at the poles cot(theta) eta' tends to eta'', so those rows are
    n eta'' under the one-sided even stencil."""
    grid = polar_grid(N)
    # differentiate works along the last axis, so the rows of the identity
    # give the transposed stencil matrices
    grad, hess = (d.T for d in differentiate(np.eye(N), grid.h))
    lap = hess.copy()
    lap[1:-1] += (n - 1) * grad[1:-1] / grid.tan[:, None]
    lap[[0, -1]] *= n
    return lap, grid.h


@pytest.mark.parametrize("n", [2, 3])
def test_axisymmetric_laplacian_eigenvalues(n):
    degree = np.arange(11)
    exact = -degree * (degree + n - 1.0)
    errors = []
    for N in (65, 129):
        lap, h = _axisymmetric_laplacian(n, N)
        eig = np.linalg.eigvals(lap)
        assert np.max(np.abs(eig.imag)) <= 1e-10 * np.max(np.abs(eig.real))
        low = np.sort(eig.real)[::-1][:11]
        err = np.abs(low - exact)
        # second-order stencil: error h^2 mu^2 / 12 for the eigenvalue -mu
        assert err[0] <= 1e-10
        assert np.all(err[1:] <= 0.1 * h**2 * exact[1:] ** 2)
        errors.append(err[1:])
    ratio = errors[0] / errors[1]
    assert np.all((ratio > 3.8) & (ratio < 4.2))
