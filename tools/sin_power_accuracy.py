"""Worst relative error of ``sin_power_integral`` at every power a run takes.

For every m = 0 .. 437 (the largest n that ``FlowConfig`` admits), compares
``sin_power_integral(m, x)`` of this checkout's ``src/`` with
1/2 B_{sin^2 x}((m + 1)/2, 1/2), mpmath's incomplete beta function at 34
digits, over 80 x in [1e-12, pi/2 - 1e-9]: 40 spaced geometrically up to 0.5
and 40 evenly from there.  Values whose reference lies below the smallest
normal float are skipped.  Prints one line per m, "m worst_error", and the
worst over every m last:

    python tools/sin_power_accuracy.py
"""

import math
import sys
from pathlib import Path

import mpmath
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sphereflow.flow import _N_MAX  # noqa: E402
from sphereflow.hypersurface import sin_power_integral  # noqa: E402

XS = np.concatenate([np.geomspace(1e-12, 0.5, 40, endpoint=False),
                     np.linspace(0.5, math.pi / 2 - 1e-9, 40)])
TINY = np.finfo(float).tiny


def worst_error(m: int) -> float:
    """Largest relative error of sin_power_integral(m, x) over XS, normal values only."""
    got = sin_power_integral(m, XS)
    a = mpmath.mpf(m + 1) / 2
    worst = 0.0
    for x, value in zip(XS, got):
        want = mpmath.betainc(a, 0.5, 0, mpmath.sin(mpmath.mpf(float(x))) ** 2) / 2
        if want < TINY:
            continue
        worst = max(worst, float(abs(mpmath.mpf(float(value)) / want - 1)))
    return worst


if __name__ == "__main__":
    mpmath.mp.dps = 34
    errors = [worst_error(m) for m in range(_N_MAX + 1)]
    for m, err in enumerate(errors):
        print(f"{m} {err:.3e}")
    print(f"worst {max(errors):.3e} at m = {int(np.argmax(errors))}")
