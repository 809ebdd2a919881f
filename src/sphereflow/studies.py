"""Grid-refinement studies backing the advertised convergence orders."""

from __future__ import annotations

import math

import numpy as np

from .flow import (
    FlowConfig,
    ShapeSpec,
    _gershgorin_dt,
    _jacobian,
    _stage_rate,
    evolution_residuals,
    functional_derivative_residuals,
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

# the perturbed start shape r0 + eps * cos(mode * theta) of every study
_R0, _EPS, _MODE = 0.8, 0.05, 2
_EPS_MINKOWSKI = 0.1
_CFL = 1.0  # time step of the time-step studies, times the Gershgorin bound of J


def fit_order(h_values, residuals) -> float:
    """Least-squares convergence order of residual ~ h^p."""
    h = np.asarray(h_values, dtype=float)
    r = np.asarray(residuals, dtype=float)
    if h.size < 2 or np.any(r <= 0.0):
        return float("nan")
    return float(np.polyfit(np.log(h), np.log(r), 1)[0])


def _refine(N0: int, levels: int, measure):
    """Sizes N = N0 * 2^j + 1 for j < levels, the series of each key of
    measure(j, N) over them, and each series' fitted order in h = pi / (N - 1)."""
    if levels < 2:
        raise ValueError(f"levels must be at least 2 to fit an order, not {levels}")
    sizes = [N0 * 2**j + 1 for j in range(levels)]
    rows = [measure(j, N) for j, N in enumerate(sizes)]
    series = {key: [row[key] for row in rows] for key in rows[0]}
    h_vals = [math.pi / (N - 1) for N in sizes]
    return sizes, series, {key: fit_order(h_vals, v) for key, v in series.items()}


def minkowski_study(n: int = 2, N0: int = 128, levels: int = 3) -> dict:
    """Weighted-integral identity residuals under h-halving, per index m."""

    def measure(j, N):
        state = geometry(RadialProfile.perturbed(n, _R0, _EPS_MINKOWSKI, _MODE, N), 0)
        return {m: minkowski_residual(state, m) for m in range(n)}

    sizes, residuals, orders = _refine(N0, levels, measure)
    return {"sizes": sizes, "residuals": residuals, "orders": orders}


def _one_step_pair(n, k, N, cfl):
    profile = RadialProfile.perturbed(n, _R0, _EPS, _MODE, N)
    J = _jacobian(lambda rho: _stage_rate(n, k, profile.grid, rho), profile.rho)
    dt = _gershgorin_dt(J, 1.0, cfl)
    nxt = step(profile, dt, k)
    return profile, nxt, dt


def evolution_study(n: int = 2, k: int = 1, N0: int = 64, levels: int = 3) -> dict:
    """Support-function and quotient evolution defects under joint refinement.

    Each level halves h and shrinks the step by an extra factor of four on
    top of the parabolic h^2 scaling.  Keeping dt/h^2 fixed instead would
    pin the time-difference error of the stiffest polar mode at a constant,
    hiding the spatial order; with dt ~ h^4 the combined order is governed
    by h.
    """
    dts = []

    def measure(j, N):
        prev, nxt, dt = _one_step_pair(n, k, N, _CFL * 0.25**j)
        dts.append(dt)
        res_u, res_f = evolution_residuals(geometry(prev, k), geometry(nxt, k), dt)
        return {"U": res_u, "F": res_f}

    sizes, res, orders = _refine(N0, levels, measure)
    return {"sizes": sizes, "dt": dts, "residualU": res["U"], "residualF": res["F"],
            "orderU": orders["U"], "orderF": orders["F"]}


def functional_study(n: int = 2, k: int = 1, N0: int = 64, levels: int = 3) -> dict:
    """First-variation defects of every functional under joint refinement."""

    def measure(j, N):
        prev, nxt, dt = _one_step_pair(n, k, N, _CFL)
        return dict(zip(range(-1, n + 1), functional_derivative_residuals(prev, nxt, dt, k)))

    sizes, residuals, orders = _refine(N0, levels, measure)
    return {"sizes": sizes, "residuals": residuals, "orders": orders}


def cross_solver_gap(N: int = 256) -> float:
    """Max radius disagreement between the two solvers at t = 0.1, n = 2, k = 1.

    Runs the graph solver and the support-function solver from the same
    initial shape to the same final time and compares the radii on the
    uniform grid (the dual state is pulled back first).
    """
    shape = ShapeSpec(kind="perturbed", r0=_R0, eps=_EPS, mode=_MODE)
    config = FlowConfig(n=2, k=1, N=N, initial_shape=shape, t_max=0.1,
                        convergence_tol=0.0, sample_every=10**9)
    primal = run(config)
    if primal.termination != "tmax":
        raise RuntimeError(f"graph solver stopped early: {primal.termination}")
    dual = dual_run(config)
    if dual.termination != "tmax":
        raise RuntimeError(f"support solver stopped early: {dual.termination}")
    pulled = profile_from_dual(dual.state, N)
    return float(np.max(np.abs(primal.profile.rho - pulled.rho)))
