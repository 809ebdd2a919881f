"""Counters of ``run`` and ``dual_run`` from small and near-hemisphere radii.

Runs both solvers in-process, with the package of this checkout's ``src/``,
from ``perturbed`` starts of mode 2 at N = 129, for every (n, k) in
(2, 1), (3, 2), (2, 0), (4, 1) and every r0 in 0.05, 0.2, 1.3, 1.45, 1.52,
1.56, with eps = 0.05 min(r0, pi/2 - r0), a twentieth of the distance to
the nearer of the pole and the hemisphere.  Each start runs twice: at the
default ``dtMax``, no cap, where the step control alone sizes every step,
and, under the key suffix ``/capped``, at ``dtMax`` 0.2, which caps the
long steps near the limit.  Both solvers also run, at the same N and the
default ``dtMax``, from three geodesic spheres whose centre lies off the pole
(key ``<solver>/n<n>k<k>/offcentre/R<R>d<d0>``), sampled on the grid as a
``custom`` shape: with the pole near the sphere, the dual solver's readout
of each trace row is at its hardest there.  Prints
one JSON object with, for each run, its termination, tFinal, steps,
rejections, rate evaluations, Jacobians, LU factorizations, its
``violations``, the count of each flag code over its trace rows, and
``rejectionCauses``, its rejected trials by what ended them: a Newton solve
that did not converge (``newton``), the error test (``errorTest``), a rate
off the cone (``coneExit``), a dual state whose W is not positive definite
(``convexityLoss``), a state the solver refuses (``refusedState``: radii off
the chart, a non-convex graph state, a non-positive u_tilde), a Jacobian
that is not finite or a singular factor (``jacobianOrFactor``) and a step
below the float spacing of t (``floatSpacing``).  The causes are read by
wrapping ``_Stepper.step`` in-process, and they sum to ``rejections``.
Diff the outputs of two checkouts to compare them:

    python tools/radius_probe.py > radii.json
"""

import collections
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sphereflow.flow as flow_module  # noqa: E402
from sphereflow.dualflow import dual_run  # noqa: E402
from sphereflow.exceptions import ConeViolation, ConvexityLoss, StepRejected  # noqa: E402
from sphereflow.flow import FlowConfig, ShapeSpec, run  # noqa: E402
from sphereflow.hypersurface import polar_grid  # noqa: E402

ORDERS = ((2, 1), (3, 2), (2, 0), (4, 1))
RADII = (0.05, 0.2, 1.3, 1.45, 1.52, 1.56)
SOLVERS = {"run": run, "dual-run": dual_run}
N = 129
MODE = 2
OFF_CENTRE = ((2, 1, 0.6, 0.55), (2, 1, 0.8, 0.7), (4, 1, 0.6, 0.5))  # (n, k, R, d0)


def _off_centre_sphere(theta, R, d):
    """rho(theta) of the geodesic sphere of radius R centred on the axis at
    distance d from the pole: cos R = cos rho cos d + sin rho sin d cos theta,
    as tests/oracles.py has it; kept here so that a copy of this script runs
    against a checkout whose oracles lack it."""
    return (np.arctan2(np.sin(d) * np.cos(theta), np.cos(d))
            + np.arccos(np.cos(R) / np.hypot(np.cos(d), np.sin(d) * np.cos(theta))))


_STEP_REJECTED = {"Newton iteration did not converge": "newton",
                  "error test failed": "errorTest",
                  "step size fell below the float spacing of t": "floatSpacing"}


def _cause(exc: Exception) -> str:
    """The cause of one rejected trial, by the exception that ended it."""
    if isinstance(exc, np.linalg.LinAlgError):
        return "jacobianOrFactor"
    if isinstance(exc, ConvexityLoss):  # a ConeViolation too: tested first
        return "convexityLoss"
    if isinstance(exc, ConeViolation):
        return "coneExit"
    return _STEP_REJECTED.get(str(exc), "refusedState")


def _counters(solve, config) -> tuple:
    """(counters, result) of solve(config): its counters, flag counts and rejected
    trials by cause.  A trial is rejected where the stepper's _trial or the solver's
    accept raises inside _Stepper.step, so both are wrapped there alone: the
    accept calls of the converged-stop search are no trials."""
    causes = collections.Counter()
    real_step = flow_module._Stepper.step

    def recorded(call):
        def wrapper(*args):
            try:
                return call(*args)
            except (StepRejected, ValueError) as exc:
                causes[_cause(exc)] += 1
                raise
        return wrapper

    def step(self, f):
        accept = self.accept
        self._trial, self.accept = recorded(self._trial), recorded(accept)
        try:
            return real_step(self, f)
        finally:
            del self._trial  # the class's method again
            self.accept = accept

    flow_module._Stepper.step = step
    try:
        result = solve(config)
    finally:
        flow_module._Stepper.step = real_step
    assert sum(causes.values()) == result.rejections, (dict(causes), result.rejections)
    return {"termination": result.termination, "tFinal": result.t_final,
            "steps": result.steps, "rejections": result.rejections,
            "rateEvaluations": result.rate_evaluations, "jacobians": result.jacobians,
            "luFactorizations": result.lu_factorizations, "flags": result.violations,
            "rejectionCauses": dict(sorted(causes.items()))}, result


def radius_probe() -> dict:
    """Counters of every run, by solver/n,k/r0, and /capped for dtMax 0.2,
    then by solver/n,k/offcentre/R,d0."""
    counters = {}
    grid = polar_grid(N)
    for solver, flow in SOLVERS.items():
        for n, k in ORDERS:
            for r0 in RADII:
                eps = 0.05 * min(r0, math.pi / 2 - r0)
                shape = ShapeSpec(kind="perturbed", r0=r0, eps=eps, mode=MODE)
                config = FlowConfig(n=n, k=k, N=N, initial_shape=shape)
                key = f"{solver}/n{n}k{k}/r{r0}"
                counters[key] = _counters(flow, config)[0]
                capped = dataclasses.replace(config, dt_max=0.2)
                counters[f"{key}/capped"] = _counters(flow, capped)[0]
        for n, k, R, d0 in OFF_CENTRE:
            shape = ShapeSpec(kind="custom", theta=grid.theta,
                              rho=_off_centre_sphere(grid.theta, R, d0))
            config = FlowConfig(n=n, k=k, N=N, initial_shape=shape)
            counters[f"{solver}/n{n}k{k}/offcentre/R{R}d{d0}"] = _counters(flow, config)[0]
    return counters


if __name__ == "__main__":
    print(json.dumps(radius_probe(), indent=2, sort_keys=True))
