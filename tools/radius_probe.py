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
rejections, rate evaluations, Jacobians, LU factorizations and its
``violations``, the count of each flag code over its trace rows.  Diff the
outputs of two checkouts to compare them:

    python tools/radius_probe.py > radii.json
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sphereflow.dualflow import dual_run  # noqa: E402
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


def _counters(result) -> dict:
    """The counters of a finished run and its flag counts."""
    return {"termination": result.termination, "tFinal": result.t_final,
            "steps": result.steps, "rejections": result.rejections,
            "rateEvaluations": result.rate_evaluations, "jacobians": result.jacobians,
            "luFactorizations": result.lu_factorizations, "flags": result.violations}


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
                counters[key] = _counters(flow(config))
                capped = dataclasses.replace(config, dt_max=0.2)
                counters[f"{key}/capped"] = _counters(flow(capped))
        for n, k, R, d0 in OFF_CENTRE:
            shape = ShapeSpec(kind="custom", theta=grid.theta,
                              rho=_off_centre_sphere(grid.theta, R, d0))
            config = FlowConfig(n=n, k=k, N=N, initial_shape=shape)
            counters[f"{solver}/n{n}k{k}/offcentre/R{R}d{d0}"] = _counters(flow(config))
    return counters


if __name__ == "__main__":
    print(json.dumps(radius_probe(), indent=2, sort_keys=True))
