"""CPU seconds of each call the identity suite makes, over one suite.

Runs ``run_identity_suite(8, 10000, 1)`` in-process, with the package of
this checkout's ``src/``, once untimed (to warm the caches) and once with
every function of ``sphereflow.identities``' namespace wrapped in a
process-CPU timer.  Only the calls that the suite's loop makes itself
(``run_identity_suite`` and ``_dimension_checks``, its body for one n) are
counted, each with the time of everything it calls, so the rows add up to
the suite's CPU time less that of the loop.  Prints one row per function,
slowest first, then the suite's total; it writes nothing:

    python tools/suite_profile.py
"""

import inspect
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sphereflow.identities as identities  # noqa: E402

N_MAX = 8
SAMPLES = 10000
SEED = 1


def suite_profile() -> tuple:
    """({function name: [calls, CPU s]}, total suite CPU s)."""
    rows: dict = {}
    depth = [0]

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                row = rows.setdefault(name, [0, 0.0])
                row[0] += 1
                row[1] += time.process_time() - start
                depth[0] -= 1
        return wrapper

    loop = ("run_identity_suite", "_dimension_checks")
    originals = {name: fn for name, fn in vars(identities).items()
                 if inspect.isfunction(fn) and name not in loop}
    identities.run_identity_suite(N_MAX, SAMPLES, SEED)
    try:
        for name, fn in originals.items():
            setattr(identities, name, timed(name, fn))
        start = time.process_time()
        identities.run_identity_suite(N_MAX, SAMPLES, SEED)
        total = time.process_time() - start
    finally:
        for name, fn in originals.items():
            setattr(identities, name, fn)
    return rows, total


if __name__ == "__main__":
    rows, total = suite_profile()
    print(f"run_identity_suite({N_MAX}, {SAMPLES}, {SEED}): CPU s per call site")
    for name, (calls, cpu) in sorted(rows.items(), key=lambda item: -item[1][1]):
        print(f"  {name:<28} {calls:>4} calls  {cpu:7.3f} s  {cpu / total:6.1%}")
    print(f"  {'total':<28} {'':>10}  {total:7.3f} s")
