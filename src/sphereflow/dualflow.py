"""Support-function side of the flow: log-radius chart and dual solver.

The log radius gamma = log tan(rho/2) turns the spherical radial graph into
a Euclidean one, rho_tilde = e^gamma, whose shape operator h_tilde relates to
the spherical one by

    h = (e^gamma / phi) h_tilde + ((phi' - 1) / (phi omega)) id,

an algebraic identity at shared discrete derivatives of gamma.  Closing the
system through the Euclidean support function u_tilde gives an inverse-type
parabolic equation

    d(u_tilde)/dt = G = (rho_tilde/phi) f,

rho_tilde/phi = (1 + rho_tilde^2)/2 being the chart's conformal factor and f
the speed flow._speed states, at u = u_tilde phi/rho_tilde and the spherical
curvatures (rho_tilde/phi)(1/W + s id), W = Hess(u_tilde) + u_tilde id and
s = (phi' - 1)/(rho_tilde omega).  Its long-time behaviour is an open question;
the solver here is experimental and records the breakdown time when strict
convexity of the dual body fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow
from .exceptions import ConvexityLoss
from .flow import FlowConfig, FlowTrace, Outcome, _integrate, _start
from .hypersurface import (
    RadialProfile,
    _hypot,
    as_grid,
    cot_grad,
    differentiate,
    geometry,
    polar_grid,
)
from .quermass import quermass_vector
from .symfunc import quotient_two_core

__all__ = [
    "DualState",
    "DualResult",
    "gamma_transform",
    "decomposition_residual",
    "support_closure",
    "dual_from_profile",
    "profile_from_dual",
    "dual_run",
]


def gamma_transform(profile: RadialProfile):
    """Log radius gamma = log tan(rho/2) and Euclidean radius e^gamma."""
    rho = profile.rho
    gamma = np.log(np.tan(0.5 * rho))
    return gamma, np.exp(gamma)


def _log_radius_chart(profile: RadialProfile) -> tuple:
    """(gamma_theta, gamma_thetatheta, rho_tilde, omega^2, omega) of the profile:
    the discrete derivatives of its log radius gamma on the profile grid, the
    Euclidean radius e^gamma and omega = sqrt(1 + gamma_theta^2)."""
    gamma, rho_tilde = gamma_transform(profile)
    g_grad, g_hess = differentiate(gamma, profile.h)
    omega2 = 1.0 + g_grad**2
    omega = np.sqrt(omega2)
    return g_grad, g_hess, rho_tilde, omega2, omega


def _warp(rho_tilde):
    """phi = sin(rho) and phi' = cos(rho) at rho = 2 arctan(rho_tilde)."""
    phi = 2.0 * rho_tilde / (1.0 + rho_tilde**2)
    phip = (1.0 - rho_tilde**2) / (1.0 + rho_tilde**2)
    return phi, phip


def _spherical_curvatures(h_merid, h_ang, rho_tilde, omega, phi, phip) -> tuple:
    """The spherical curvatures (rho_tilde/phi)(h_tilde + (phi' - 1)/(rho_tilde omega))
    of the Euclidean shape operator's eigenvalues h_tilde, on the dual side those
    of W^{-1}: the map that G's quotient acts through."""
    scale, shift = rho_tilde / phi, (phip - 1.0) / (rho_tilde * omega)
    return scale * (h_merid + shift), scale * (h_ang + shift)


def decomposition_residual(profile: RadialProfile) -> float:
    """Max-norm defect of h = (e^gamma/phi) h_tilde + ((phi'-1)/(phi omega)) id.

    Both shape operators, the spherical one (lam1, lam_ang) and the Euclidean
    one (ht1, ht_ang) of the graph rho_tilde = e^gamma, are evaluated in the
    log-radius chart from one set of discrete derivatives, so the defect
    floor is roundoff, not a discretization order; the right-hand side is
    _spherical_curvatures, the map the dual solver's G reads.
    """
    g_grad, g_hess, rho_tilde, omega2, omega = _log_radius_chart(profile)
    phi, phip = _warp(rho_tilde)
    cot_term = cot_grad(g_grad, g_hess, profile.grid.tan)
    lam1 = (phip * omega2 - g_hess) / (phi * omega * omega2)
    lam_ang = (phip - cot_term) / (phi * omega)
    ht1 = (omega2 - g_hess) / (rho_tilde * omega * omega2)
    ht_ang = (1.0 - cot_term) / (rho_tilde * omega)
    h1, h_ang = _spherical_curvatures(ht1, ht_ang, rho_tilde, omega, phi, phip)
    return float(max(np.max(np.abs(lam1 - h1)), np.max(np.abs(lam_ang - h_ang))))


@dataclass
class DualState:
    """Closure bundle of the Euclidean support function on S^n nodes.

    w_merid / w_ang are the eigenvalues of W = Hess(u) + u id in the
    axisymmetric frame; their reciprocals are those of the dual shape
    operator W^{-1}, which _spherical_curvatures maps to the spherical
    curvatures.
    """

    n: int
    theta: np.ndarray
    u: np.ndarray
    u_grad: np.ndarray
    rho_tilde: np.ndarray
    omega: np.ndarray
    rho: np.ndarray
    phi: np.ndarray
    phip: np.ndarray
    w_merid: np.ndarray
    w_ang: np.ndarray

    @property
    def min_eig_w(self) -> float:
        return float(min(self.w_merid.min(), self.w_ang.min()))

    @property
    def max_eig_w(self) -> float:
        return float(max(self.w_merid.max(), self.w_ang.max()))


def _closure(u, u_grad, u_hess, tan) -> tuple:
    """(rho_tilde, omega, phi, phip, w_merid, w_ang) of u and its derivatives,
    positivity checked.  u may stack several vectors along leading axes, and
    may be complex: the checks read real parts."""
    if not np.all(np.isfinite(u)) or np.min(u.real) <= 0.0:
        raise ValueError("u_tilde must be finite and positive")
    rho_tilde = _hypot(u, u_grad)
    omega = rho_tilde / u
    phi, phip = _warp(rho_tilde)

    w_merid = u_hess + u
    w_ang = cot_grad(u_grad, u_hess, tan) + u

    bad = (w_merid.real <= 0.0) | (w_ang.real <= 0.0)  # a NaN entry passes
    if bad.any():
        node = int(np.argwhere(bad)[0, -1])  # the node of the first failing vector of a stack
        raise ConvexityLoss(f"W = Hess(u) + u id not positive definite at node {node}",
                            node=node)
    return rho_tilde, omega, phi, phip, w_merid, w_ang


def _dual_state(n, theta, tan, u, u_grad, u_hess) -> DualState:
    """The DualState of u and its derivatives on the nodes theta, tan being
    tan(theta) on the interior nodes."""
    rho_tilde, omega, phi, phip, w_merid, w_ang = _closure(u, u_grad, u_hess, tan)
    return DualState(
        n=int(n), theta=theta, u=u, u_grad=u_grad,
        rho_tilde=rho_tilde, omega=omega, rho=2.0 * np.arctan(rho_tilde), phi=phi,
        phip=phip, w_merid=w_merid, w_ang=w_ang,
    )


def support_closure(n, theta, u_tilde) -> DualState:
    """Close the support-function system into a full DualState, with the
    derivatives of u_tilde taken by centered differences on the uniform grid
    theta, a PolarGrid or raw nodes checked by as_grid (even parity at the
    poles)."""
    grid = as_grid(theta)
    u = np.asarray(u_tilde, dtype=float)
    if u.shape != grid.theta.shape:
        raise ValueError("theta and u_tilde must be matching 1-d arrays")
    with np.errstate(invalid="ignore"):  # inf - inf; _closure refuses a non-finite u
        u_grad, u_hess = differentiate(u, grid.h)
    return _dual_state(n, grid.theta, grid.tan, u, u_grad, u_hess)


def _g(n, k, u, rho_tilde, omega, phi, phip, w_merid, w_ang) -> tuple:
    """(G, u, h, F): the right-hand side G = (rho_tilde/phi) f of the support-function
    evolution, f being the law flow._speed states, looked up on flow, and what f reads,
    the spherical support function u = u_tilde phi/rho_tilde, the spherical curvatures
    h = (rho_tilde/phi)(W^{-1} + s id), s = (phi'-1)/(rho_tilde omega), as a pair, and
    their quotient F.  ConeViolation where h leaves the admissible cone (sigma_k <= 0),
    as for the unit-support equator state, where the shift cancels W^{-1} = id exactly."""
    h = _spherical_curvatures(1.0 / w_merid, 1.0 / w_ang, rho_tilde, omega, phi, phip)
    u_sph, fval = u * phi / rho_tilde, quotient_two_core(*h, n, k)[0]
    return rho_tilde / phi * flow._speed(n, k, phip, u_sph, fval), u_sph, h, fval


def _stage_g(n: int, k: int, grid, u: np.ndarray) -> np.ndarray:
    """G of support_closure(n, grid, u), same checks, from the cores alone; u may
    stack several vectors, such as the three Radau stages, along leading axes."""
    return _g(n, k, u, *_closure(u, *differentiate(u, grid.h), grid.tan))[0]


def dual_from_profile(profile: RadialProfile) -> DualState:
    """Transport a radial profile to its dual support function.

    The normal direction of the graph sits at theta_nu = theta -
    arctan(gamma_theta); u_tilde and its first two derivatives with respect
    to theta_nu follow from the chain rule, so the closure reproduces
    rho_tilde, omega and W = h_tilde^{-1} at roundoff (the returned nodes are
    non-uniform).
    """
    g_grad, g_hess, rho_tilde, omega2, omega = _log_radius_chart(profile)
    theta_nu = profile.theta - np.arctan(g_grad)
    u = rho_tilde / omega
    u_t = rho_tilde * g_grad / omega
    u_tt = (
        (rho_tilde * g_grad**2 / omega + rho_tilde * g_hess / omega**3)
        * omega2
        / (omega2 - g_hess)
    )
    return _dual_state(profile.n, theta_nu, np.tan(theta_nu[1:-1]), u, u_t, u_tt)


def profile_from_dual(state: DualState, N: int | None = None) -> RadialProfile:
    """Pull the dual state back to a radial profile on a uniform grid.

    Graph points sit at theta = theta_nu + arctan(u_theta/u) with radius
    rho = 2 arctan rho_tilde and slope sin(rho) u_theta/u (gamma_theta = u_theta/u
    there); a local cubic Hermite interpolant resamples to the uniform grid.
    """
    theta_z = state.theta + np.arctan(state.u_grad / state.u)
    if np.any(np.diff(theta_z) <= 0.0):
        raise ConvexityLoss("pullback point map is not monotone")
    grid = polar_grid(state.theta.size if N is None else int(N))
    i = np.clip(np.searchsorted(theta_z, grid.theta) - 1, 0, theta_z.size - 2)
    y, slope, h = state.rho, state.phi * state.u_grad / state.u, np.diff(theta_z)[i]
    t = (grid.theta - theta_z[i]) / h
    rho = (y[i] + t * t * (3.0 - 2.0 * t) * (y[i + 1] - y[i])
           + h * t * (1.0 - t) * ((1.0 - t) * slope[i] - t * slope[i + 1]))
    return RadialProfile(n=state.n, theta=grid, rho=rho)


@dataclass
class DualResult(Outcome):
    """A dual run's outcome; of the solution it keeps only the final u_tilde."""

    u: np.ndarray

    @property
    def state(self) -> DualState:
        """The final DualState, closed again from u on the run's grid."""
        return support_closure(self.config.n, polar_grid(self.config.N), self.u)


def _trace_row(state: DualState, reads: tuple, codes: list) -> list:
    """Primal columns read through the dual state and _g's reads (G, u, h, F) of it,
    then the W eigen range; maxSpeed is max |G|, the speed the dual run stops on."""
    try:
        prof = profile_from_dual(state)
        q = quermass_vector(geometry(prof, 0), prof)
        quermass = [q.a(m) for m in range(-1, state.n + 1)]
    except ValueError:
        codes.append("PULLBACK")
        quermass = [float("nan")] * (state.n + 2)
    g, u_sph, (lam1, lam_ang), fval = reads
    return quermass + [
        np.min(u_sph), np.min(state.rho), np.max(state.rho), np.min(fval), np.max(fval),
        min(lam1.min(), lam_ang.min()), max(lam1.max(), lam_ang.max()),
        np.max(np.abs(g)), state.min_eig_w, state.max_eig_w,
    ]


def _dual_start(profile: RadialProfile) -> np.ndarray:
    """dual_run's start: dual_from_profile's u_tilde, not-a-knot spline onto profile.grid."""
    from scipy.interpolate import CubicSpline  # a slow import, kept off the graph run's path
    dual0 = dual_from_profile(profile)
    return CubicSpline(dual0.theta, dual0.u)(profile.grid.theta)


def dual_run(config: FlowConfig) -> DualResult:
    """Radau IIA time stepping of the support-function evolution.

    The graph solver's driver, flow._integrate: Radau IIA steps sized by
    accuracy, with the tridiagonal Jacobian that flow._jacobian reads from
    one complex-step call of G, since G is pointwise in u_tilde and its
    3-point stencil derivatives, and which, with G, sizes the first step at
    the start (flow._first_step).  The three stages of a Newton iteration go
    to G (_stage_g) as one stacked call, with the checks of support_closure
    and _g; each accepted state gets the full DualState, evaluated once.
    _integrate ends the run convexity_breakdown, at t_final = breakdown_time, on a
    ConvexityLoss at the smallest step (W not positive definite), and
    step_collapse on any other failure there, as in run.  The outcome is not
    covered by the convergence theory and runs here are experimental probes.
    It writes no checkpoints and refuses a config asking for them, or a start
    that run refuses (flow._start).
    """
    if config.checkpoint_every > 0:
        raise ValueError("dual_run writes no checkpoints: checkpoint_every must be 0")
    profile, _, _ = _start(config)
    grid = profile.grid
    n, k = config.n, config.k

    # a solver state is (G, max |G|, max curvature of W^{-1}, closure, _g's reads),
    # which the trace row reads; G is also the rate its step starts from, and the
    # largest eigenvalue of W^{-1}, max(1/w), is exactly 1/min(w) for w > 0
    def evaluate(u):
        state = support_closure(n, grid, u)
        reads = _g(n, k, state.u, state.rho_tilde, state.omega, state.phi, state.phip,
                   state.w_merid, state.w_ang)
        return reads[0], float(np.max(np.abs(reads[0]))), 1.0 / state.min_eig_w, state, reads

    trace = FlowTrace(n, extra=("minEigW", "maxEigW"))
    u0 = _dual_start(profile)
    (*_, state, _), outcome = _integrate(
        config, lambda u: _stage_g(n, k, grid, u), evaluate, lambda *_: (),
        lambda cur, codes: _trace_row(*cur[3:], codes), u0, evaluate(u0), trace)
    return DualResult(**vars(outcome), u=state.u)
