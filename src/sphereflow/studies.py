"""Grid-refinement studies backing the advertised convergence orders."""

from __future__ import annotations

import math

import numpy as np

from .flow import (
    FlowConfig,
    ShapeSpec,
    _policy_dt,
    evolution_residual_f,
    evolution_residual_u,
    functional_derivative_residual,
    run,
    step,
)
from .dualflow import dual_run, profile_from_dual
from .hypersurface import RadialProfile, geometry, minkowski_residual

__all__ = [
    "fit_order",
    "minkowski_study",
    "evolution_study",
    "functional_study",
    "cross_solver_gap",
]


def fit_order(h_values, residuals) -> float:
    """Least-squares convergence order of residual ~ h^p."""
    h = np.asarray(h_values, dtype=float)
    r = np.asarray(residuals, dtype=float)
    if h.size < 2 or np.any(r <= 0.0):
        return float("nan")
    return float(np.polyfit(np.log(h), np.log(r), 1)[0])


def minkowski_study(n: int = 2, N0: int = 128, levels: int = 3,
                    r0: float = 0.8, eps: float = 0.1, mode: int = 2) -> dict:
    """Weighted-integral identity residuals under h-halving, per index m."""
    sizes = [N0 * 2**j + 1 for j in range(levels)]
    h_vals = [math.pi / (N - 1) for N in sizes]
    residuals = {m: [] for m in range(n)}
    for N in sizes:
        state = geometry(RadialProfile.perturbed(n, r0, eps, mode, N), 0)
        for m in range(n):
            residuals[m].append(minkowski_residual(state, m))
    return {
        "sizes": sizes,
        "residuals": {m: list(v) for m, v in residuals.items()},
        "orders": {m: fit_order(h_vals, v) for m, v in residuals.items()},
    }


def _one_step_pair(n, k, N, r0, eps, mode, cfl):
    profile = RadialProfile.perturbed(n, r0, eps, mode, N)
    state = geometry(profile, k)
    dt = _policy_dt(state, 1.0, cfl)
    nxt = step(profile, dt, k)
    return profile, nxt, dt


def evolution_study(n: int = 2, k: int = 1, N0: int = 64, levels: int = 3,
                    r0: float = 0.8, eps: float = 0.05, mode: int = 2,
                    cfl: float = 0.25) -> dict:
    """Support-function and quotient evolution defects under joint refinement.

    Each level halves h and shrinks the step by an extra factor of four on
    top of the parabolic h^2 scaling.  Keeping dt/h^2 fixed instead would
    pin the time-difference error of the stiffest polar mode at a constant,
    hiding the spatial order; with dt ~ h^4 the combined order is governed
    by h.
    """
    sizes = [N0 * 2**j + 1 for j in range(levels)]
    h_vals = [math.pi / (N - 1) for N in sizes]
    res_u, res_f, dts = [], [], []
    for j, N in enumerate(sizes):
        prev, nxt, dt = _one_step_pair(n, k, N, r0, eps, mode, cfl * 0.25**j)
        sp, sn = geometry(prev, k), geometry(nxt, k)
        res_u.append(evolution_residual_u(sp, sn, dt))
        res_f.append(evolution_residual_f(sp, sn, dt))
        dts.append(dt)
    return {
        "sizes": sizes,
        "dt": dts,
        "residualU": res_u,
        "residualF": res_f,
        "orderU": fit_order(h_vals, res_u),
        "orderF": fit_order(h_vals, res_f),
    }


def functional_study(n: int = 2, k: int = 1, N0: int = 64, levels: int = 3,
                     r0: float = 0.8, eps: float = 0.05, mode: int = 2,
                     cfl: float = 0.25) -> dict:
    """First-variation defects of every functional under joint refinement."""
    sizes = [N0 * 2**j + 1 for j in range(levels)]
    h_vals = [math.pi / (N - 1) for N in sizes]
    residuals = {l: [] for l in range(-1, n + 1)}
    for N in sizes:
        prev, nxt, dt = _one_step_pair(n, k, N, r0, eps, mode, cfl)
        for l in range(-1, n + 1):
            residuals[l].append(functional_derivative_residual(prev, nxt, dt, k, l))
    return {
        "sizes": sizes,
        "residuals": {l: list(v) for l, v in residuals.items()},
        "orders": {l: fit_order(h_vals, v) for l, v in residuals.items()},
    }


def cross_solver_gap(n: int = 2, k: int = 1, N: int = 256, t_end: float = 0.1,
                     r0: float = 0.8, eps: float = 0.05, mode: int = 2) -> float:
    """Max radius disagreement between the two solvers at a common time.

    Runs the graph solver and the support-function solver from the same
    initial shape to the same final time and compares the radii on the
    uniform grid (the dual state is pulled back first).
    """
    shape = ShapeSpec(kind="perturbed", r0=r0, eps=eps, mode=mode)
    config = FlowConfig(
        n=n, k=k, N=N, initial_shape=shape, t_max=t_end,
        convergence_tol=0.0, sample_every=10**9,
    )
    primal = run(config)
    if primal.termination != "tmax":
        raise RuntimeError(f"graph solver stopped early: {primal.termination}")
    dual = dual_run(config)
    if dual.termination != "tmax":
        raise RuntimeError(f"support solver stopped early: {dual.termination}")
    pulled = profile_from_dual(dual.state, N)
    return float(np.max(np.abs(primal.profile.rho - pulled.rho)))
