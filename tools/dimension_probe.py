"""Counters of ``run`` and ``dual_run`` along the dimension axis.

Runs both solvers in-process, with the package of this checkout's ``src/``,
from ``perturbed`` starts of mode 2 at N = 129, for every n in 2, 3, 4, 8,
16, 32, 64, 128, every k in 0, 1, n // 2 and n - 1 (each pair once), and every
r0 in 0.8, 0.05, 1.5, with eps = 0.05 min(r0, pi/2 - r0), a twentieth of the
distance to the nearer of the pole and the hemisphere: 174 runs, all at the
default ``dtMax`` (no cap) and stop, in about 12 s.  It writes nothing and
prints one JSON object with, for each run (key ``<solver>/n<n>k<k>/r<r0>``),
the counters of ``tools/radius_probe.py`` (termination, tFinal, steps,
rejections, rate evaluations, Jacobians, LU factorizations, flag counts and
``rejectionCauses``, the rejected trials by cause, which sum to the
rejections) and ``drift``, the largest relative change of the preserved
A_{k-1} over the run's trace rows, against the first of them (rows with no
A_l, such as a dual run's ``PULLBACK`` rows, left out; null where none has
one).  Diff the outputs of two checkouts to compare them:

    python tools/dimension_probe.py > dimensions.json
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from radius_probe import _counters  # noqa: E402
from sphereflow.dualflow import dual_run  # noqa: E402
from sphereflow.flow import FlowConfig, ShapeSpec, run  # noqa: E402

DIMENSIONS = (2, 3, 4, 8, 16, 32, 64, 128)
RADII = (0.8, 0.05, 1.5)
SOLVERS = {"run": run, "dual-run": dual_run}
N = 129
MODE = 2


def _drift(result) -> float | None:
    """The largest relative change of A_{k-1} over the trace rows that have it."""
    a = result.trace.column(f"A_{result.config.k - 1}")
    a = a[np.isfinite(a)]
    return float(np.max(np.abs(a - a[0])) / abs(a[0])) if a.size else None


def dimension_probe() -> dict:
    """Counters and A_{k-1} drift of every run, by solver/n,k/r0."""
    counters = {}
    for solver, flow in SOLVERS.items():
        for n in DIMENSIONS:
            for k in sorted({0, 1, n // 2, n - 1}):
                for r0 in RADII:
                    eps = 0.05 * min(r0, math.pi / 2 - r0)
                    shape = ShapeSpec(kind="perturbed", r0=r0, eps=eps, mode=MODE)
                    counts, result = _counters(flow, FlowConfig(n=n, k=k, N=N,
                                                                initial_shape=shape))
                    counters[f"{solver}/n{n}k{k}/r{r0}"] = {**counts, "drift": _drift(result)}
    return counters


if __name__ == "__main__":
    print(json.dumps(dimension_probe(), indent=2, sort_keys=True))
