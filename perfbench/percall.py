"""Per-call cost of the flow's inner layers at several grid sizes.

    python3 perfbench/percall.py

Times profile construction, geometry, quotient_two_value, quermass_vector and
Monitors.check on the n=2, k=1 reference shape rho = 0.8 + 0.05 cos(2 theta)
at N = 64, 256, 1024 and 4096.  Each figure is the median over 7 batches of
the per-call time of a batch sized to take about 0.2 s.  These are reference figures for the README,
not part of a benchmark run.
"""

import json
import statistics
import sys
import time

import run  # caps the BLAS thread pools before numpy loads

sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

import sphereflow.flow as flow  # noqa: E402
import sphereflow.hypersurface as hypersurface  # noqa: E402
import sphereflow.quermass as quermass  # noqa: E402
import sphereflow.symfunc as symfunc  # noqa: E402

SIZES = (64, 256, 1024, 4096)
REPEATS = 7


def _per_call_us(fn) -> float:
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    batch = max(1, int(0.2 / once))
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch * 1e6)
    return statistics.median(samples)


def measure(N: int) -> dict:
    n, k = 2, 1
    theta = np.linspace(0.0, np.pi, N)
    rho = 0.8 + 0.05 * np.cos(2.0 * theta)
    profile = hypersurface.RadialProfile(n=n, theta=theta, rho=rho)
    state = hypersurface.geometry(profile, k)
    q = quermass.quermass_vector(state, profile)
    config = flow.FlowConfig(n=n, k=k, N=N, initial_shape=flow.ShapeSpec(
        kind="perturbed", r0=0.8, eps=0.05, mode=2))
    monitors = flow.Monitors(config, state, q)
    dt = 0.2 * state.h**2
    return {
        "RadialProfile": _per_call_us(
            lambda: hypersurface.RadialProfile(n=n, theta=theta, rho=rho)),
        "geometry": _per_call_us(lambda: hypersurface.geometry(profile, k)),
        "quotient_two_value": _per_call_us(
            lambda: symfunc.quotient_two_value(state.lam1, state.lam_ang, n, k)),
        "quermass_vector": _per_call_us(
            lambda: quermass.quermass_vector(state, profile)),
        "Monitors.check": _per_call_us(lambda: monitors.check(q, q, state, dt)),
    }


def main() -> int:
    table = {N: measure(N) for N in SIZES}
    layers = list(next(iter(table.values())))
    print("| layer | " + " | ".join(f"N={N}" for N in SIZES) + " |")
    print("|---|" + "---:|" * len(SIZES))
    for layer in layers:
        print(f"| `{layer}` | " + " | ".join(f"{table[N][layer]:.1f}" for N in SIZES) + " |")
    print(json.dumps({"unit": "us/call", "per_call": {str(N): v for N, v in table.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
