"""CPU seconds and memory peak of each call the identity suite makes.

Runs ``run_identity_suite(8, 10000, 1)`` in-process, with the package of
this checkout's ``src/``, once untimed (to warm the caches), once with
every function of ``sphereflow.identities``' namespace wrapped in a
process-CPU timer and once more, untimed, under ``tracemalloc``, with
the same functions wrapped so that the traced peak is reset before each
call and read after it, less what was traced when the call began.  Only
the calls that the suite's loop makes itself (``run_identity_suite`` and
``_dimension_checks``, its body for one n) are counted, each with the
time and memory of everything it calls, so the rows' times add up to the
suite's CPU time less that of the loop.  Prints one row per function,
slowest first, with the largest peak of the memory that numpy and Python
allocate within one of its calls, as ``tracemalloc`` traces it, then the
suite's total time and its peak over the traced suite; it writes nothing:

    python tools/suite_profile.py
"""

import inspect
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sphereflow.identities as identities  # noqa: E402

N_MAX = 8
SAMPLES = 10000
SEED = 1


def each_call(before, after) -> None:
    """One suite with before() called ahead of, and after(name) behind, every
    call that the suite's loop makes itself to a function of identities."""
    depth = [0]

    def wrapped(name, fn):
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            before()
            try:
                return fn(*args, **kwargs)
            finally:
                after(name)
                depth[0] -= 1
        return wrapper

    loop = ("run_identity_suite", "_dimension_checks")
    originals = {name: fn for name, fn in vars(identities).items()
                 if inspect.isfunction(fn) and name not in loop}
    try:
        for name, fn in originals.items():
            setattr(identities, name, wrapped(name, fn))
        identities.run_identity_suite(N_MAX, SAMPLES, SEED)
    finally:
        for name, fn in originals.items():
            setattr(identities, name, fn)


def suite_profile() -> tuple:
    """({function name: [calls, CPU s]}, total suite CPU s)."""
    rows: dict = {}
    start = [0.0]

    def before():
        start[0] = time.process_time()

    def after(name):
        row = rows.setdefault(name, [0, 0.0])
        row[0] += 1
        row[1] += time.process_time() - start[0]

    identities.run_identity_suite(N_MAX, SAMPLES, SEED)
    begin = time.process_time()
    each_call(before, after)
    return rows, time.process_time() - begin


def suite_peaks() -> tuple:
    """({function name: largest peak within one of its calls, in bytes}, the suite's peak)."""
    peaks: dict = {}
    suite, entry = [0], [0]

    def before():
        # the peak so far is the suite's before it is reset for the call
        entry[0], peak = tracemalloc.get_traced_memory()
        suite[0] = max(suite[0], peak)
        tracemalloc.reset_peak()

    def after(name):
        own = tracemalloc.get_traced_memory()[1] - entry[0]
        peaks[name] = max(peaks.get(name, 0), own)

    tracemalloc.start()
    try:
        each_call(before, after)
        return peaks, max(suite[0], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    rows, total = suite_profile()
    peaks, peak = suite_peaks()
    print(f"run_identity_suite({N_MAX}, {SAMPLES}, {SEED}): CPU s and tracemalloc peak "
          "per call site")
    for name, (calls, cpu) in sorted(rows.items(), key=lambda item: -item[1][1]):
        print(f"  {name:<28} {calls:>4} calls  {cpu:7.3f} s  {cpu / total:6.1%}"
              f"  {peaks[name] / 2**20:6.2f} MiB")
    print(f"  {'total':<28} {'':>10}  {total:7.3f} s  {'':>6}  {peak / 2**20:6.2f} MiB")
