"""Counters of ``run`` and ``dual_run`` from small and near-hemisphere radii.

Runs both solvers in-process, with the package of this checkout's ``src/``,
from ``perturbed`` starts of mode 2 at N = 129, for every (n, k) in
(2, 1), (3, 2), (2, 0), (4, 1) and every r0 in 0.05, 0.2, 1.3, 1.45, 1.52,
1.56, with eps = 0.05 min(r0, pi/2 - r0), a twentieth of the distance to
the nearer of the pole and the hemisphere.  Each start runs twice: at the
default ``dtMax``, no cap, where the step control alone sizes every step,
and, under the key suffix ``/capped``, at ``dtMax`` 0.2, which caps the
long steps near the limit.  Prints
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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sphereflow.dualflow import dual_run  # noqa: E402
from sphereflow.flow import FlowConfig, ShapeSpec, run  # noqa: E402

ORDERS = ((2, 1), (3, 2), (2, 0), (4, 1))
RADII = (0.05, 0.2, 1.3, 1.45, 1.52, 1.56)
SOLVERS = {"run": run, "dual-run": dual_run}
N = 129
MODE = 2


def _counters(result) -> dict:
    """The counters of a finished run and its flag counts."""
    return {"termination": result.termination, "tFinal": result.t_final,
            "steps": result.steps, "rejections": result.rejections,
            "rateEvaluations": result.rate_evaluations, "jacobians": result.jacobians,
            "luFactorizations": result.lu_factorizations, "flags": result.violations}


def radius_probe() -> dict:
    """Counters of every run, by solver/n,k/r0, and /capped for dtMax 0.2."""
    counters = {}
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
    return counters


if __name__ == "__main__":
    print(json.dumps(radius_probe(), indent=2, sort_keys=True))
