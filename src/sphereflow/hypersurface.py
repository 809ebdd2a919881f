"""Radial-graph hypersurfaces in the round (n+1)-sphere.

A closed convex hypersurface contained in an open hemisphere is stored as a
radial graph rho(theta) over the polar angle of the unit n-sphere, assuming
rotational symmetry about the polar axis.  With phi(r) = sin r the ambient
metric is dr^2 + phi(r)^2 dz^2, and all extrinsic quantities reduce to
one-dimensional expressions in rho, rho_theta, rho_thetatheta.

A separate full two-sphere backend (no symmetry assumed) provides an
independent tensor-valued oracle for n = 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import beta, betainc

from .symfunc import quotient_two_core, quotient_two_value, sigma_two_value

__all__ = [
    "PolarGrid",
    "polar_grid",
    "as_grid",
    "RadialProfile",
    "checked_radii",
    "GeometryState",
    "SphereGrid2D",
    "differentiate",
    "cot_grad",
    "curvatures",
    "geometry",
    "geometry_full_s2",
    "simpson_weights",
    "unit_sphere_area",
    "integrate",
    "volume",
    "sin_power_integral",
    "minkowski_residual",
    "frame_hessian",
    "hessian_contraction_residuals",
    "save_checkpoint",
    "load_checkpoint",
]

# radii must stay strictly inside the open hemisphere
RHO_FLOOR = 1e-12


def _json_object(payload, what: str) -> dict:
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object, not a {type(payload).__name__}")
    return payload


def _json_number(value, key: str) -> float:
    # JSON true and false are not the numbers 1 and 0
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{key} must be a number, not {value!r}")


def _json_integer(value, key: str) -> int:
    """An integer field: 2.0 is taken as 2, 64.9 is refused rather than truncated."""
    number = _json_number(value, key)
    if not number.is_integer():
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return int(number)


def _json_fields(payload, what: str, schema: dict, required=()) -> dict:
    """Keyword arguments read from a JSON object through schema, which maps
    each JSON key to (field, reader); unknown and missing keys are refused by
    name, and absent optional keys are left to the dataclass defaults."""
    for key in _json_object(payload, what):
        if key not in schema:
            raise ValueError(f"unknown key {key!r} in {what}")
    for key in required:
        if key not in payload:
            raise ValueError(f"{what} needs the key {key!r}")
    return {schema[key][0]: schema[key][1](value, key) for key, value in payload.items()}


def _json_samples(value, key: str) -> np.ndarray:
    try:
        samples = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        samples = None
    if samples is None or samples.ndim != 1:
        raise ValueError(f"{key} must be a list of numbers")
    # JSON true and false are not the numbers 1 and 0, here as in _json_number
    if not {bool, np.bool_}.isdisjoint(map(type, value)):
        raise ValueError(f"{key} must be a list of numbers, not booleans")
    return samples


class PolarGrid:
    """Uniform nodes theta_i = i pi / (N - 1) on [0, pi] and what derives from them.

    Holds the spacing h, tan(theta) on interior nodes, the Simpson weights
    and sin^m(theta) per power m.  One grid per N is shared (polar_grid), so
    its arrays are never written.
    """

    def __init__(self, N: int):
        if N < 5:
            raise ValueError("grid too coarse: need at least 5 nodes")
        self.theta = np.linspace(0.0, math.pi, N)
        self.theta.flags.writeable = False
        self.h = float(self.theta[1] - self.theta[0])
        self.tan = np.tan(self.theta[1:-1])
        self.weights = simpson_weights(N, self.h)
        self._sin_powers: dict = {}

    def sin_power(self, m: int) -> np.ndarray:
        if m not in self._sin_powers:
            self._sin_powers[m] = np.sin(self.theta) ** m
        return self._sin_powers[m]


@lru_cache(maxsize=64)
def polar_grid(N: int) -> PolarGrid:
    """The shared grid with N nodes."""
    return PolarGrid(N)


def as_grid(theta) -> PolarGrid:
    """A PolarGrid as it is, or the shared grid that raw nodes must match to 1e-12."""
    if isinstance(theta, PolarGrid):
        return theta
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size < 5:
        raise ValueError("theta must be a 1-d array of at least 5 nodes")
    grid = polar_grid(theta.size)
    if not np.max(np.abs(theta - grid.theta)) <= 1e-12:
        raise ValueError("theta nodes must be uniformly spaced on [0, pi]")
    return grid


def checked_radii(grid: PolarGrid, rho) -> np.ndarray:
    """rho as a float array of radii on grid along its last axis, refused unless
    finite and strictly inside (0, pi/2)."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape[-1:] != grid.theta.shape:
        raise ValueError("theta and rho must be matching 1-d arrays")
    # NaN fails both comparisons, so finiteness is only tested on a failure
    if not (np.min(rho) > RHO_FLOOR and np.max(rho) < math.pi / 2 - RHO_FLOOR):
        if not np.all(np.isfinite(rho)):
            raise ValueError("rho must be finite")
        raise ValueError("rho must lie strictly inside (0, pi/2)")
    return rho


@dataclass
class RadialProfile:
    """Axisymmetric radial graph: radii in (0, pi/2) on a uniform polar grid.

    theta is raw nodes, checked by as_grid, or a PolarGrid the program holds;
    it is then the grid's nodes.  The radii are checked every time.
    """

    n: int
    theta: np.ndarray
    rho: np.ndarray
    grid: PolarGrid = field(init=False, repr=False)

    def __post_init__(self):
        self.n = int(self.n)
        if self.n < 2:
            raise ValueError("ambient dimension needs n >= 2")
        self.grid = as_grid(self.theta)
        self.theta = self.grid.theta
        if np.ndim(self.rho) != 1:
            raise ValueError("theta and rho must be matching 1-d arrays")
        self.rho = checked_radii(self.grid, self.rho)

    @property
    def N(self) -> int:
        return self.theta.size

    @property
    def h(self) -> float:
        return self.grid.h

    @classmethod
    def geodesic_sphere(cls, n: int, r: float, N: int) -> "RadialProfile":
        return cls(n=n, theta=polar_grid(N), rho=np.full(N, float(r)))

    @classmethod
    def perturbed(cls, n: int, r0: float, eps: float, mode: int, N: int) -> "RadialProfile":
        """rho = r0 + eps*cos(mode*theta); integer modes keep the poles smooth."""
        if int(mode) != mode or mode < 1:
            raise ValueError("perturbation mode must be a positive integer")
        grid = polar_grid(N)
        return cls(n=n, theta=grid, rho=r0 + eps * np.cos(mode * grid.theta))


def differentiate(values: np.ndarray, h: float):
    """Centered second-order d/dtheta and d2/dtheta2 of nodal values on [0, pi],
    along the last axis.

    Axisymmetric regularity makes the scalar even about both poles, so the
    ghost values are the mirrored interior ones; the first derivative vanishes
    at the poles exactly and the second uses the one-sided even stencil.
    """
    grad = np.empty_like(values)
    hess = np.empty_like(values)
    grad[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * h)
    grad[..., 0] = 0.0
    grad[..., -1] = 0.0
    hess[..., 1:-1] = (values[..., 2:] - 2.0 * values[..., 1:-1] + values[..., :-2]) / h**2
    hess[..., 0] = 2.0 * (values[..., 1] - values[..., 0]) / h**2
    hess[..., -1] = 2.0 * (values[..., -2] - values[..., -1]) / h**2
    return grad, hess


def cot_grad(grad: np.ndarray, hess: np.ndarray, tan: np.ndarray) -> np.ndarray:
    """cot(theta) * q_theta of an even scalar: grad / tan on the interior nodes, where
    tan is given, and the even-parity pole limit q_thetatheta = hess at both poles."""
    return np.concatenate((hess[..., :1], grad[..., 1:-1] / tan, hess[..., -1:]), axis=-1)


def _hypot(x, y):
    """np.hypot(x, y) for real input; for complex input its analytic continuation
    sqrt(x*x + y*y), which carries a complex step's imaginary part through."""
    return np.sqrt(x * x + y * y) if x.dtype.kind == "c" else np.hypot(x, y)


@dataclass
class GeometryState:
    """Pointwise extrinsic geometry of an axisymmetric radial graph.

    lam1 is the meridian principal curvature, lam_ang the angular one with
    multiplicity n-1.  f_* are the diagonal gradient entries of the
    curvature quotient F = sigma_{k+1}/sigma_k in the principal frame; they
    and the traces are computed on first read, which a flow step never makes.
    """

    n: int
    k: int
    grid: PolarGrid
    rho: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    phi: np.ndarray
    phip: np.ndarray
    w: np.ndarray
    u: np.ndarray
    omega_speed: np.ndarray
    area_weight: np.ndarray
    lam1: np.ndarray
    lam_ang: np.ndarray
    F: np.ndarray

    @cached_property
    def _quotient_gradient(self) -> tuple:
        return quotient_two_value(self.lam1, self.lam_ang, self.n, self.k)[1:]

    f_merid = property(lambda self: self._quotient_gradient[0])
    f_ang = property(lambda self: self._quotient_gradient[1])
    trace_grad = property(lambda self: self._quotient_gradient[2])
    weighted_trace = property(lambda self: self._quotient_gradient[3])

    @property
    def h(self) -> float:
        return self.grid.h

    def sigma_nodal(self, m: int) -> np.ndarray:
        return sigma_two_value(self.lam1, self.lam_ang, self.n, m)

    @cached_property
    def lam_min(self) -> float:
        return float(min(self.lam1.min(), self.lam_ang.min()))

    @cached_property
    def lam_max(self) -> float:
        return float(max(self.lam1.max(), self.lam_ang.max()))

    @cached_property
    def extremes(self) -> tuple:
        """(min u, min rho, max rho, min F, max F), the trace's order."""
        return tuple(float(v) for v in (self.u.min(), self.rho.min(), self.rho.max(),
                                        self.F.min(), self.F.max()))


def curvatures(grid: PolarGrid, rho: np.ndarray) -> tuple:
    """The pointwise fields of radii rho on grid that both the flow rate and
    geometry read: (grad, hess, phi, phip, w, u, omega_speed, lam1, lam_ang);
    rho may stack several radius vectors along leading axes, and may be complex."""
    grad, hess = differentiate(rho, grid.h)
    phi = np.sin(rho)
    phip = np.cos(rho)
    w = _hypot(phi, grad)
    u = phi**2 / w
    omega_speed = w / phi

    lam1 = (-phi * hess + 2.0 * phip * grad**2 + phi**2 * phip) / w**3
    lam_ang = (phi * phip - cot_grad(grad, hess, grid.tan)) / (phi * w)
    # both curvatures coincide at the poles; lam1's rounding is kept there
    lam_ang[..., 0], lam_ang[..., -1] = lam1[..., 0], lam1[..., -1]
    return grad, hess, phi, phip, w, u, omega_speed, lam1, lam_ang


def geometry(profile: RadialProfile, k: int) -> GeometryState:
    """Support function, curvatures and quotient data on the profile grid."""
    n = profile.n
    if not 0 <= k <= n - 1:
        raise ValueError(f"quotient order k={k} out of range for n={n}")
    grid, rho = profile.grid, profile.rho
    grad, hess, phi, phip, w, u, omega_speed, lam1, lam_ang = curvatures(grid, rho)
    return GeometryState(
        n=n, k=k, grid=grid, rho=rho.copy(), grad=grad, hess=hess, phi=phi, phip=phip,
        w=w, u=u, omega_speed=omega_speed, area_weight=phi ** (n - 1) * w, lam1=lam1,
        lam_ang=lam_ang, F=quotient_two_core(lam1, lam_ang, n, k)[0],
    )


def simpson_weights(N: int, h: float) -> np.ndarray:
    """Composite Simpson weights for N uniform nodes of spacing h.

    An odd interval count gets a 3/8 block at the far end.  Fourth-order
    accuracy here keeps quadrature bias far below the discretization error
    of the curvature fields.
    """
    m = N - 1
    head = m - 3 * (m % 2)  # intervals under the 1/3 rule
    if head < 0:
        raise ValueError("grid too coarse for composite quadrature")
    w = np.zeros(N)
    if head:
        w[0] = w[head] = 1.0 / 3.0
        w[1:head:2] = 4.0 / 3.0
        w[2:head:2] = 2.0 / 3.0
    if m % 2:
        w[-4:] += (3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0)
    return h * w


@lru_cache(maxsize=None)
def unit_sphere_area(m: int) -> float:
    """Surface measure of the unit m-sphere."""
    if m < 0:
        raise ValueError("sphere dimension must be nonnegative")
    area = 2.0 if m % 2 == 0 else 2.0 * math.pi
    for j in range(m % 2 + 2, m + 1, 2):
        area = 2.0 * math.pi / (j - 1) * area
    return area


def integrate(state: GeometryState, nodal):
    """Integral of a nodal scalar against the induced area measure; nodal may
    stack several scalars along leading axes, which get one integral each."""
    grid = state.grid
    vals = np.asarray(nodal, dtype=float)
    density = state.area_weight * grid.sin_power(state.n - 1)
    sums = unit_sphere_area(state.n - 1) * np.sum(grid.weights * vals * density, axis=-1)
    return float(sums) if sums.ndim == 0 else sums


def sin_power_integral(m: int, x) -> np.ndarray:
    """Antiderivative of sin^m vanishing at 0, on [0, pi/2].

    With u = sin^2 t it is the incomplete beta function
    1/2 B(a, 1/2) I_{sin^2 x}(a, 1/2), a = (m + 1)/2.  Above pi/4, where
    sin^2 x nears 1, the complement 1 - I_{cos^2 x}(1/2, a) keeps the digits.
    """
    x = np.asarray(x, dtype=float)
    if m < 0:
        raise ValueError("power must be nonnegative")
    if not np.all((x >= 0.0) & (x <= math.pi / 2)):
        raise ValueError("x must lie in [0, pi/2]")
    a = 0.5 * (m + 1)
    low = x <= math.pi / 4
    frac = np.empty_like(x)
    frac[low] = betainc(a, 0.5, np.sin(x[low]) ** 2)
    frac[~low] = 1.0 - betainc(0.5, a, np.cos(x[~low]) ** 2)
    return 0.5 * beta(a, 0.5) * frac


def volume(profile: RadialProfile) -> float:
    """Region volume: the radial integral is exact, the angular one quadrature."""
    grid = profile.grid
    radial = sin_power_integral(profile.n, profile.rho)
    return unit_sphere_area(profile.n - 1) * float(
        np.sum(grid.weights * grid.sin_power(profile.n - 1) * radial)
    )


def minkowski_residual(state: GeometryState, m: int) -> float:
    """Relative defect of the integral balance between adjacent curvature sums.

    (m+1) * integral(u * sigma_{m+1}) equals (n-m) * integral(phi' * sigma_m)
    on any closed hypersurface; the discrete defect decays at second order.
    """
    if not 0 <= m <= state.n - 1:
        raise ValueError(f"order m={m} out of range for n={state.n}")
    lhs = (m + 1) * integrate(state, state.u * state.sigma_nodal(m + 1))
    rhs = (state.n - m) * integrate(state, state.phip * state.sigma_nodal(m))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def frame_hessian(state: GeometryState, q_grad: np.ndarray, q_hess: np.ndarray):
    """Orthonormal-frame intrinsic Hessian components of an axisymmetric scalar.

    Returns (meridian, angular) arrays given the theta-derivatives of the
    scalar.  The angular entry takes cot(theta)*q_theta from cot_grad, valid
    because admissible scalars are even at the poles.
    """
    g = state.w**2
    gamma = (state.phi * state.phip * state.grad + state.grad * state.hess) / g
    hm = (q_hess - gamma * q_grad) / g
    ha = (state.phip * state.grad / state.phi * q_grad
          + cot_grad(q_grad, q_hess, state.grid.tan)) / g
    return hm, ha


def hessian_contraction_residuals(profile: RadialProfile, k: int) -> dict:
    """Residuals of the radius Hessian contraction for both speed-factor candidates.

    The identity u F^{ij} (D^2 rho)_ij = -u * omega * F
    + (phi'/phi) u F^{ij} g_ij - (phi'/phi) u F^{ij} rho_i rho_j holds with
    omega = u/phi and fails with omega = W/phi, so exactly one candidate
    leaves a roundoff-level residual.  The kinematic factor multiplying the
    normal speed in d(rho)/dt is the reciprocal one, W/phi.
    """
    state = geometry(profile, k)
    hm, ha = frame_hessian(state, state.grad, state.hess)
    lhs = state.u * (state.f_merid * hm + (state.n - 1) * state.f_ang * ha)
    common = (state.phip / state.phi) * state.u * state.trace_grad - (
        state.phip / state.phi
    ) * state.u * state.f_merid * state.grad**2 / state.w**2

    out = {}
    for name, omega in (
        ("u_over_phi", state.u / state.phi),
        ("w_over_phi", state.w / state.phi),
    ):
        rhs = -state.u * omega * state.F + common
        out[name] = float(np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(lhs))))
    return out


# -- full two-sphere backend -------------------------------------------------


@dataclass
class SphereGrid2D:
    """Latitude-longitude grid on the 2-sphere, poles stored as constant rows.

    phi-direction is periodic; a stencil reaching across a pole would use the
    ghost rule rho(-theta, phi) = rho(theta, phi + pi), but interior-row
    evaluation with the pole rows present never needs it.
    """

    theta: np.ndarray
    phi_nodes: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        self.theta = as_grid(self.theta).theta
        self.phi_nodes = np.asarray(self.phi_nodes, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.shape != (self.theta.size, self.phi_nodes.size):
            raise ValueError("rho must be shaped (n_theta, n_phi)")
        if self.phi_nodes.size < 4:
            raise ValueError("grid too coarse")
        if self.phi_nodes.size % 2:
            raise ValueError("need an even number of phi nodes for the pole rule")
        if np.ptp(self.rho[0]) != 0.0 or np.ptp(self.rho[-1]) != 0.0:
            raise ValueError("pole rows must be constant")

    @classmethod
    def from_profile(cls, profile: RadialProfile, n_phi: int) -> "SphereGrid2D":
        return cls.from_function(lambda theta, phi: profile.rho[:, None], profile.N, n_phi)

    @classmethod
    def from_function(cls, fn, n_theta: int, n_phi: int) -> "SphereGrid2D":
        theta = polar_grid(n_theta).theta
        phi_nodes = 2.0 * math.pi * np.arange(n_phi) / n_phi
        rho = np.asarray(fn(theta[:, None], phi_nodes[None, :]), dtype=float)
        rho = np.broadcast_to(rho, (n_theta, n_phi)).copy()
        rho[0, :] = rho[0, 0]
        rho[-1, :] = rho[-1, 0]
        return cls(theta=theta, phi_nodes=phi_nodes, rho=rho)


@dataclass
class FullSphereGeometry:
    """Pointwise geometry on interior rows of a SphereGrid2D."""

    theta: np.ndarray
    phi_nodes: np.ndarray
    u: np.ndarray
    lam_lo: np.ndarray
    lam_hi: np.ndarray
    area_weight: np.ndarray
    weingarten_asymmetry: float


def geometry_full_s2(grid: SphereGrid2D) -> FullSphereGeometry:
    """Tensor-valued geometry of a radial graph over S^2, no symmetry assumed.

    Covariant derivatives use the round-metric connection in lat-lon
    coordinates; the shape operator is assembled as g^{-1} h per node and
    diagonalized as a 2x2 matrix.  Returned fields cover interior theta rows
    only, where every stencil has honest neighbors.
    """
    th = grid.theta
    hphi = grid.phi_nodes[1] - grid.phi_nodes[0]
    hth = th[1] - th[0]
    rho = grid.rho

    d_t = (rho[2:, :] - rho[:-2, :]) / (2.0 * hth)
    d_tt = (rho[2:, :] - 2.0 * rho[1:-1, :] + rho[:-2, :]) / hth**2
    d_p = (np.roll(rho, -1, axis=1) - np.roll(rho, 1, axis=1)) / (2.0 * hphi)
    d_pp = (np.roll(rho, -1, axis=1) - 2.0 * rho + np.roll(rho, 1, axis=1)) / hphi**2
    d_tp = (np.roll(rho, -1, axis=1)[2:, :] - np.roll(rho, 1, axis=1)[2:, :]
            - np.roll(rho, -1, axis=1)[:-2, :] + np.roll(rho, 1, axis=1)[:-2, :]) / (
        4.0 * hth * hphi
    )
    d_p = d_p[1:-1, :]
    d_pp = d_pp[1:-1, :]

    t = th[1:-1][:, None]
    sin_t, cos_t = np.sin(t), np.cos(t)
    r = rho[1:-1, :]
    phi = np.sin(r)
    phip = np.cos(r)

    # covariant Hessian on the round 2-sphere in lat-lon coordinates
    hess_tt = d_tt
    hess_tp = d_tp - (cos_t / sin_t) * d_p
    hess_pp = d_pp + sin_t * cos_t * d_t

    grad2 = d_t**2 + d_p**2 / sin_t**2
    w = np.sqrt(phi**2 + grad2)
    u = phi**2 / w
    area_weight = phi * w

    e_tt = np.ones_like(r)
    e_pp = sin_t**2 * np.ones_like(r)

    g_tt = phi**2 * e_tt + d_t**2
    g_tp = d_t * d_p
    g_pp = phi**2 * e_pp + d_p**2

    h_tt = (phi**2 * phip * e_tt + 2.0 * phip * d_t**2 - phi * hess_tt) / w
    h_tp = (2.0 * phip * d_t * d_p - phi * hess_tp) / w
    h_pp = (phi**2 * phip * e_pp + 2.0 * phip * d_p**2 - phi * hess_pp) / w

    det_g = g_tt * g_pp - g_tp**2
    a11 = (g_pp * h_tt - g_tp * h_tp) / det_g
    a12 = (g_pp * h_tp - g_tp * h_pp) / det_g
    a21 = (g_tt * h_tp - g_tp * h_tt) / det_g
    a22 = (g_tt * h_pp - g_tp * h_tp) / det_g

    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = np.sqrt(np.maximum(tr**2 - 4.0 * det, 0.0))
    lam_lo = 0.5 * (tr - disc)
    lam_hi = 0.5 * (tr + disc)

    # lowering the shape operator must reproduce the symmetric second form
    s11 = g_tt * a11 + g_tp * a21
    s12 = g_tt * a12 + g_tp * a22
    s21 = g_tp * a11 + g_pp * a21
    s22 = g_tp * a12 + g_pp * a22
    scale = max(1.0, float(np.max(np.abs(h_tt))), float(np.max(np.abs(h_pp))))
    asym = float(np.max(np.abs(s12 - s21))) / scale
    sym_check = max(
        asym,
        float(np.max(np.abs(s11 - h_tt))) / scale,
        float(np.max(np.abs(s22 - h_pp))) / scale,
    )

    return FullSphereGeometry(
        theta=th[1:-1],
        phi_nodes=grid.phi_nodes,
        u=u,
        lam_lo=lam_lo,
        lam_hi=lam_hi,
        area_weight=area_weight,
        weingarten_asymmetry=sym_check,
    )


# -- checkpoint serialization -------------------------------------------------


def save_checkpoint(profile: RadialProfile, k: int, t: float, path) -> None:
    """Write the wire-format snapshot {n, k, t, theta, rho}."""
    payload = {
        "n": profile.n,
        "k": int(k),
        "t": float(t),
        "theta": profile.theta.tolist(),
        "rho": profile.rho.tolist(),
    }
    with open(path, "w") as fh:
        # json.dumps takes the C encoder; json.dump always encodes in Python
        fh.write(json.dumps(payload))
        fh.write("\n")


_CHECKPOINT_KEYS = {"n": ("n", _json_integer), "k": ("k", _json_integer),
                    "t": ("t", _json_number), "theta": ("theta", _json_samples),
                    "rho": ("rho", _json_samples)}


def load_checkpoint(path):
    """Read a snapshot back into (profile, k, t); every key is required."""
    with open(path) as fh:
        fields = _json_fields(json.load(fh), "a checkpoint", _CHECKPOINT_KEYS,
                              required=tuple(_CHECKPOINT_KEYS))
    profile = RadialProfile(n=fields["n"], theta=fields["theta"], rho=fields["rho"])
    return profile, fields["k"], fields["t"]
