"""Support-function side of the flow: log-radius chart and dual solver.

The log radius gamma = log tan(rho/2) turns the spherical radial graph into
a Euclidean one, rho_tilde = e^gamma, whose shape operator h_tilde relates to
the spherical one by

    h = (e^gamma / phi) h_tilde + ((phi' - 1) / (phi omega)) id,

an algebraic identity at shared discrete derivatives of gamma.  Closing the
system through the Euclidean support function u_tilde gives an inverse-type
parabolic equation

    d(u_tilde)/dt = G = c (phi'/phi) u_tilde omega
                        - (rho_tilde u_tilde / phi) F(1/W + s id),

W = Hess(u_tilde) + u_tilde id, s = (phi' - 1)/(rho_tilde omega), whose
long-time behaviour is an open question; the solver here is experimental and
records the breakdown time when strict convexity of the dual body fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .exceptions import ConeViolation, ConvexityLoss
from .flow import FlowConfig, FlowTrace, Outcome, _integrate, _parabolic_dt, speed
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
from .symfunc import identity_quotient, quotient_two_core, quotient_two_value

__all__ = [
    "DualState",
    "DualResult",
    "gamma_transform",
    "decomposition_residual",
    "support_closure",
    "g_operator",
    "dual_from_profile",
    "profile_from_dual",
    "speed_transport_residual",
    "dual_run",
]


def gamma_transform(profile: RadialProfile):
    """Log radius gamma = log tan(rho/2) and Euclidean radius e^gamma."""
    rho = profile.rho
    gamma = np.log(np.tan(0.5 * rho))
    return gamma, np.exp(gamma)


def _gamma_curvatures(tan, gamma, g_grad, g_hess):
    """Both shape operators from one set of discrete gamma derivatives.

    Returns (lam1, lam_ang, ht1, ht_ang, omega, phi, phip, rho_tilde):
    spherical principal curvatures in the gamma chart and Euclidean ones of
    the graph rho_tilde = e^gamma, evaluated from the same g_grad/g_hess so
    their linear relation holds to roundoff.  tan is tan(theta) on the
    interior nodes.
    """
    rho_tilde = np.exp(gamma)
    omega2 = 1.0 + g_grad**2
    omega = np.sqrt(omega2)
    phi = 2.0 * rho_tilde / (1.0 + rho_tilde**2)
    phip = (1.0 - rho_tilde**2) / (1.0 + rho_tilde**2)
    cot_term = cot_grad(g_grad, g_hess, tan)

    lam1 = (phip * omega2 - g_hess) / (phi * omega * omega2)
    lam_ang = (phip - cot_term) / (phi * omega)
    ht1 = (omega2 - g_hess) / (rho_tilde * omega * omega2)
    ht_ang = (1.0 - cot_term) / (rho_tilde * omega)
    return lam1, lam_ang, ht1, ht_ang, omega, phi, phip, rho_tilde


def decomposition_residual(profile: RadialProfile) -> float:
    """Max-norm defect of h = (e^gamma/phi) h_tilde + ((phi'-1)/(phi omega)) id.

    Both shape operators are evaluated in the log-radius chart from one set
    of discrete derivatives, so the defect floor is roundoff, not a
    discretization order.
    """
    gamma, _ = gamma_transform(profile)
    g_grad, g_hess = differentiate(gamma, profile.h)
    lam1, lam_ang, ht1, ht_ang, omega, phi, phip, rho_tilde = _gamma_curvatures(
        profile.grid.tan, gamma, g_grad, g_hess
    )
    shift = (phip - 1.0) / (phi * omega)
    r1 = lam1 - (rho_tilde / phi) * ht1 - shift
    ra = lam_ang - (rho_tilde / phi) * ht_ang - shift
    return float(max(np.max(np.abs(r1)), np.max(np.abs(ra))))


@dataclass
class DualState:
    """Closure bundle of the Euclidean support function on S^n nodes.

    w_merid / w_ang are the eigenvalues of W = Hess(u) + u id in the
    axisymmetric frame; h_merid / h_ang the corresponding eigenvalues of the
    dual shape operator W^{-1}.
    """

    n: int
    theta: np.ndarray
    u: np.ndarray
    u_grad: np.ndarray
    u_hess: np.ndarray
    rho_tilde: np.ndarray
    omega: np.ndarray
    rho: np.ndarray
    phi: np.ndarray
    phip: np.ndarray
    w_merid: np.ndarray
    w_ang: np.ndarray

    @property
    def h_merid(self) -> np.ndarray:
        return 1.0 / self.w_merid

    @property
    def h_ang(self) -> np.ndarray:
        return 1.0 / self.w_ang

    @property
    def min_eig_w(self) -> float:
        return float(min(self.w_merid.min(), self.w_ang.min()))

    @property
    def max_eig_w(self) -> float:
        return float(max(self.w_merid.max(), self.w_ang.max()))


def _closure(u, tan, h=None, u_grad=None, u_hess=None) -> tuple:
    """(u_grad, u_hess, rho_tilde, omega, phi, phip, w_merid, w_ang) of u, positivity
    checked; the derivatives are centered differences at spacing h unless given.
    u may stack several vectors along leading axes, and may be complex: the
    checks read real parts."""
    if not np.all(np.isfinite(u)) or np.min(u.real) <= 0.0:
        raise ValueError("u_tilde must be finite and positive")
    if u_grad is None:
        u_grad, u_hess = differentiate(u, h)

    rho_tilde = _hypot(u, u_grad)
    omega = rho_tilde / u
    phi = 2.0 * rho_tilde / (1.0 + rho_tilde**2)
    phip = (1.0 - rho_tilde**2) / (1.0 + rho_tilde**2)

    w_merid = u_hess + u
    w_ang = cot_grad(u_grad, u_hess, tan) + u

    bad = np.argwhere((w_merid.real <= 0.0) | (w_ang.real <= 0.0))
    if bad.size:
        node = int(bad[0, -1])  # the node of the first failing vector of a stack
        raise ConvexityLoss(f"W = Hess(u) + u id not positive definite at node {node}",
                            node=node)
    return u_grad, u_hess, rho_tilde, omega, phi, phip, w_merid, w_ang


def support_closure(n, theta, u_tilde, u_grad=None, u_hess=None) -> DualState:
    """Close the support-function system into a full DualState.

    With u_grad/u_hess omitted they are taken by centered differences on the
    uniform grid theta, a PolarGrid or raw nodes checked by as_grid (even
    parity at the poles).  Passing exact derivatives skips that and permits
    non-uniform nodes.
    """
    if (u_grad is None) != (u_hess is None):
        raise ValueError("supply both derivative arrays or neither")
    grid = as_grid(theta) if u_grad is None else None
    theta = np.asarray(theta, dtype=float) if grid is None else grid.theta
    u = np.asarray(u_tilde, dtype=float)
    if theta.ndim != 1 or theta.shape != u.shape:
        raise ValueError("theta and u_tilde must be matching 1-d arrays")
    if grid is None:
        closed = _closure(u, np.tan(theta[1:-1]), None, np.asarray(u_grad, dtype=float),
                          np.asarray(u_hess, dtype=float))
    else:
        closed = _closure(u, grid.tan, grid.h)
    u_grad, u_hess, rho_tilde, omega, phi, phip, w_merid, w_ang = closed
    return DualState(
        n=int(n), theta=theta, u=u, u_grad=u_grad, u_hess=u_hess,
        rho_tilde=rho_tilde, omega=omega, rho=2.0 * np.arctan(rho_tilde), phi=phi,
        phip=phip, w_merid=w_merid, w_ang=w_ang,
    )


def _g(n, k, u, rho_tilde, omega, phi, phip, w_merid, w_ang, quotient):
    """G, quotient's output on the eigenvalues of W^{-1} + s id, and F's factor in G."""
    shift = (phip - 1.0) / (rho_tilde * omega)
    q = quotient(1.0 / w_merid + shift, 1.0 / w_ang + shift, n, k)
    coeff = rho_tilde * u / phi
    g = identity_quotient(n, k) * (phip / phi) * u * omega - coeff * q[0]
    return g, q, coeff


def _stiffness(state: DualState, k: int) -> np.ndarray:
    """Trace of G's linearization in W, the stiffness scale of the first step."""
    _, (_, f1, fa, _, _), coeff = _g(
        state.n, k, state.u, state.rho_tilde, state.omega, state.phi, state.phip,
        state.w_merid, state.w_ang, quotient_two_value)
    return coeff * (f1 / state.w_merid**2 + (state.n - 1) * fa / state.w_ang**2)


def _stage_g(n: int, k: int, grid, u: np.ndarray) -> np.ndarray:
    """g_operator(support_closure(n, grid, u), k), same checks, from the cores alone;
    u may stack several vectors, such as the three Radau stages, along leading axes."""
    return _g(n, k, u, *_closure(u, grid.tan, grid.h)[2:], quotient_two_core)[0]


def g_operator(state: DualState, k: int) -> np.ndarray:
    """Right-hand side G of the support-function evolution.

    The curvature quotient acts on the eigenvalues of W^{-1} + s id with
    s = (phi'-1)/(rho_tilde omega); a cone error propagates whenever those
    shifted eigenvalues leave the admissible cone (sigma_k <= 0), e.g. for
    the unit-support equator state where the shift cancels W^{-1} = id
    exactly.
    """
    return _g(state.n, k, state.u, state.rho_tilde, state.omega, state.phi, state.phip,
              state.w_merid, state.w_ang, quotient_two_core)[0]


def dual_from_profile(profile: RadialProfile) -> DualState:
    """Transport a radial profile to its dual support function.

    The normal direction of the graph sits at theta_nu = theta -
    arctan(gamma_theta); u_tilde and its first two derivatives with respect
    to theta_nu follow from the chain rule, so the closure reproduces
    rho_tilde, omega and W = h_tilde^{-1} at roundoff (the returned nodes are
    non-uniform).
    """
    gamma, rho_tilde = gamma_transform(profile)
    g_grad, g_hess = differentiate(gamma, profile.h)
    omega2 = 1.0 + g_grad**2
    omega = np.sqrt(omega2)
    theta_nu = profile.theta - np.arctan(g_grad)
    u = rho_tilde / omega
    u_t = rho_tilde * g_grad / omega
    u_tt = (
        (rho_tilde * g_grad**2 / omega + rho_tilde * g_hess / omega**3)
        * omega2
        / (omega2 - g_hess)
    )
    return support_closure(profile.n, theta_nu, u, u_grad=u_t, u_hess=u_tt)


def profile_from_dual(state: DualState, N: int | None = None) -> RadialProfile:
    """Pull the dual state back to a radial profile on a uniform grid.

    Graph points sit at theta = theta_nu + arctan(u_theta/u) with radius
    rho = 2 arctan rho_tilde; a cubic spline resamples to the uniform grid.
    """
    theta_z = state.theta + np.arctan(state.u_grad / state.u)
    if np.any(np.diff(theta_z) <= 0.0):
        raise ConvexityLoss("pullback point map is not monotone")
    grid = polar_grid(state.theta.size if N is None else int(N))
    rho = CubicSpline(theta_z, state.rho)(grid.theta)
    return RadialProfile(n=state.n, theta=grid, rho=rho)


def speed_transport_residual(profile: RadialProfile, k: int) -> float:
    """Mismatch between G and the transported primal normal speed.

    The primal rate of rho_tilde at a graph point transports to
    (u/rho_tilde) d(rho_tilde)/dt = (u omega / phi) f; both sides use their
    own chart's discrete derivatives, so agreement is second order in h.
    """
    f = speed(geometry(profile, k))
    dual = dual_from_profile(profile)
    g = g_operator(dual, k)
    transported = dual.u * dual.omega / dual.phi * f
    scale = max(1.0, float(np.max(np.abs(g))))
    return float(np.max(np.abs(g - transported))) / scale


@dataclass
class DualResult(Outcome):
    """A dual run's outcome; of the solution it keeps only the final u_tilde."""

    u: np.ndarray

    @property
    def breakdown_time(self) -> float | None:
        return self.trace.breakdown_time

    @property
    def state(self) -> DualState:
        """The final DualState, closed again from u on the run's grid."""
        return support_closure(self.config.n, polar_grid(self.config.N), self.u)


def _trace_row(state: DualState, g: np.ndarray, k: int, codes: list) -> list:
    """Primal columns read through the dual state (u = u_tilde phi / rho_tilde),
    then the W eigen range; maxSpeed is max |G|, the speed the dual run stops on."""
    try:
        prof = profile_from_dual(state)
        q = quermass_vector(geometry(prof, 0), prof)
        quermass = [q.a(m) for m in range(-1, state.n + 1)]
    except ValueError:
        codes.append("PULLBACK")
        quermass = [float("nan")] * (state.n + 2)
    shift = (state.phip - 1.0) / (state.rho_tilde * state.omega)
    scale = state.rho_tilde / state.phi
    lam1 = scale * (state.h_merid + shift)
    lam_ang = scale * (state.h_ang + shift)
    try:
        fval = quotient_two_core(lam1, lam_ang, state.n, k)[0]
        fmin, fmax = np.min(fval), np.max(fval)
    except ConeViolation:
        fmin = fmax = float("nan")
    return quermass + [
        np.min(state.u / scale), np.min(state.rho), np.max(state.rho), fmin, fmax,
        min(lam1.min(), lam_ang.min()), max(lam1.max(), lam_ang.max()),
        np.max(np.abs(g)), state.min_eig_w, state.max_eig_w,
    ]


def dual_run(config: FlowConfig) -> DualResult:
    """Radau IIA time stepping of the support-function evolution.

    The graph solver's driver, flow._integrate: Radau IIA steps sized by
    accuracy, with the tridiagonal Jacobian that flow._jacobian reads from
    one complex-step call of G, since G is pointwise in u_tilde and its
    3-point stencil derivatives.  The first step is the parabolic limit of
    the start state's stiffness.  The three stages of a Newton iteration go
    to G (_stage_g) as one stacked call, with the checks of support_closure
    and g_operator; each accepted state gets the full DualState.
    _integrate ends the run convexity_breakdown, with the time recorded, on a
    ConvexityLoss at the smallest step (W not positive definite), and
    step_collapse on any other failure there, as in run.  The outcome is not
    covered by the convergence theory and runs here are experimental probes.
    It writes no checkpoints, so a config asking for them is refused.
    """
    if config.checkpoint_every > 0:
        raise ValueError("dual_run writes no checkpoints: checkpoint_every must be 0")
    profile = config.initial_shape.build(config.n, config.N)
    dual0 = dual_from_profile(profile)
    grid = profile.grid
    n, k = config.n, config.k

    # a solver state is (G, max |G|, max curvature of W^{-1}, closure); G is
    # also the rate its step starts from, and the largest eigenvalue of W^{-1},
    # max(1/w), is exactly 1/min(w) for w > 0
    def evaluate(u):
        state = support_closure(n, grid, u)
        g = g_operator(state, k)
        return g, float(np.max(np.abs(g))), 1.0 / state.min_eig_w, state

    trace = FlowTrace(n, extra=("minEigW", "maxEigW"), breakdown_cell=True)
    u0 = CubicSpline(dual0.theta, dual0.u)(grid.theta)
    start = evaluate(u0)
    first_step = _parabolic_dt(float(np.max(_stiffness(start[3], k))), grid.h, config.dt_max)
    (*_, state), outcome = _integrate(
        config, lambda u: _stage_g(n, k, grid, u), evaluate, lambda *_: (),
        lambda cur, codes: _trace_row(cur[3], cur[0], k, codes), u0, start, first_step, trace)
    return DualResult(**vars(outcome), u=state.u)
