"""sphereflow benchmark launcher.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 10 --trace 0

Runs one workload in this process: set-up, then passes of the workload's
operations until --seconds have gone by (at least one pass), checking every
pass.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run alternates untraced and traced
passes and reports the per-layer metrics and the tracing overhead.

Pass and set-up times are process CPU seconds scaled to a reference core
(speed.py): the program runs on one thread, so this is its wall time on a
core it does not share, at a fixed speed.  Raw CPU and wall times are
printed alongside.  The import part of the set-up time is raw CPU time,
measured in fresh interpreters, one after another.

With --repeat R the launcher instead runs itself R times, one process after
the other, on seeds seed .. seed+R-1, and prints each metric's median and
quartiles.
"""

import os
import sys

# The program works on small arrays; a thread pool per BLAS call only adds
# noise.  Caps must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
SETUP_PROBE_INTERVAL_S = 0.02
IMPORT_SAMPLES = 5
WORKLOAD_NAMES = ("converge", "cross", "verify")

# Run in a fresh interpreter: the CPU seconds that importing sphereflow takes.
# It is not scaled by the probe speed: a probe in a fresh interpreter, during
# or after the import, tracked the import time worse than no scaling at all.
_IMPORT_TIMER = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.process_time()
import sphereflow, sphereflow.cli, sphereflow.studies
print(time.process_time() - t)
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run this many times on consecutive seeds and summarise")
    return p.parse_args(argv)


def _import_program():
    """Import sphereflow from this checkout's src/; None if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import sphereflow
        import sphereflow.cli  # noqa: F401
        import sphereflow.studies  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import sphereflow from {SRC}: {exc}", file=sys.stderr)
        return None
    if not os.path.abspath(sphereflow.__file__).startswith(SRC + os.sep):
        print(f"error: imported sphereflow from {sphereflow.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    return sphereflow


def _clear_program_caches():
    """Empty the program's memo tables so each set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if name != "sphereflow" and not name.startswith("sphereflow."):
            continue
        for attr, value in list(vars(module).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif isinstance(value, dict) and attr.upper().endswith("CACHE"):
                value.clear()


def _cold_import_s() -> list:
    """Import times of sphereflow, numpy and scipy, each in a new interpreter.

    An interpreter imports a module once, so each sample needs its own
    process.  The processes run one at a time, and each has ended before the
    next starts.
    """
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, SRC],
                              capture_output=True, text=True, check=True)
        samples.append(float(proc.stdout))
    return samples


def _median_of(passes: list, key: str) -> float:
    """Median over the passes that produced the value (a failed operation may not)."""
    values = [r[key] for r in passes if key in r]
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(summary: dict, traced: list, overhead_s: float) -> dict:
    passes = len(traced)

    def calls(layer):
        return summary[layer]["calls"] / passes

    def per_call(layer, scale):
        c = summary[layer]["calls"]
        return summary[layer]["self_s"] / c * scale if c else 0.0

    def per_pass(layer):
        return summary[layer]["self_s"] / passes

    def total(key):
        return sum(r.get(key, 0) for r in traced) / passes

    flow_steps = sum(r.get("flow_steps", 0) for r in traced)
    in_run = summary["hypersurface.geometry"]["by_parent"].get("flow.run", 0)
    m = {
        "flow.geometry_per_step": (in_run / flow_steps if flow_steps else 0.0, "calls/step"),
        "flow.steps_rejected": (total("flow_rejected"), "count"),
        "flow.run.self_s": (per_pass("flow.run"), "s"),
        "flow.Monitors.check.calls": (calls("flow.Monitors.check"), "count"),
        "flow.Monitors.check.self_us": (per_call("flow.Monitors.check", 1e6), "us"),
        "flow.FlowTrace.append.calls": (calls("flow.FlowTrace.append"), "count"),
        "flow.FlowTrace.append.self_us": (per_call("flow.FlowTrace.append", 1e6), "us"),
        "cli.trace_csv.self_s": (per_pass("cli.trace_csv"), "s"),
        "cli.bundle_bytes": (total("bundle_bytes"), "bytes"),
    }
    for layer in ("hypersurface.RadialProfile", "hypersurface.geometry",
                  "hypersurface.integrate", "hypersurface.volume",
                  "symfunc.quotient_two_value", "symfunc.sigma_two_value",
                  "symfunc.sigma_table", "quermass.quermass_vector",
                  "quermass.sphere_quermass", "dualflow.support_closure"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.self_us"] = (per_call(layer, 1e6), "us")
    for layer in ("hypersurface.differentiate", "hypersurface.checkpoint",
                  "dualflow.profile_from_dual"):
        m[f"{layer}.self_us"] = (per_call(layer, 1e6), "us")
    m["quermass.audit_inequalities.self_ms"] = (
        per_call("quermass.audit_inequalities", 1e3), "ms")
    m["dualflow.steps_rejected"] = (total("dual_rejected"), "count")
    m["identities.run_identity_suite.self_s"] = (per_pass("identities.run_identity_suite"), "s")
    m["studies.self_s"] = (per_pass("studies"), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def _measure(args) -> int:
    if _import_program() is None:
        return 2

    import numpy
    import scipy

    from speed import Stopwatch
    from tracer import Tracer
    from workloads import WORKLOADS

    print(f"env: python {platform.python_version()} numpy {numpy.__version__} "
          f"scipy {scipy.__version__} cpus {os.cpu_count()} blas-threads 1")
    workload = WORKLOADS[args.workload](args.seed % 2**32, OUT)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        _clear_program_caches()
        with Stopwatch(SETUP_PROBE_INTERVAL_S) as clock:
            workload.setup()
        setup_times.append(clock.times()["seconds"])

    problems: list = []
    attempted = failed = 0

    def one_pass():
        nonlocal attempted, failed
        result = workload.run_pass()
        attempted += workload.ops_per_pass
        failed += result["failed"]
        for err in result["errors"]:
            print(f"failed operation: {err}", file=sys.stderr)
        problems.extend(workload.check(result))
        return result

    if args.trace:
        # untraced and traced passes alternate, so drift in the machine's
        # speed does not land on one side of the overhead
        tracer = Tracer()
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            untraced.append(one_pass())
            with tracer:
                traced.append(one_pass())
        os.makedirs(workload.out_dir, exist_ok=True)
        tracer.save(os.path.join(workload.out_dir, "spans.npz"))
        overhead = (statistics.median(r["seconds"] for r in traced)
                    - statistics.median(r["seconds"] for r in untraced))
        metrics = _layer_metrics(tracer.summary(), traced, overhead)
        passes = untraced + traced
    else:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(one_pass())
        import_times = _cold_import_s()
        print("import_s: " + ", ".join(f"{t:.4f}" for t in import_times))
        print("setup_s (after import): " + ", ".join(f"{t:.4f}" for t in setup_times))
        metrics = {
            "setup_s": (statistics.median(import_times) + statistics.median(setup_times), "s"),
            "pass_s": (statistics.median(r["seconds"] for r in passes), "s"),
            "steps": (_median_of(passes, "steps"), "count"),
            "radius_err": (_median_of(passes, "radius_err"), "rad"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }

    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"workload: {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(passes)} attempted {attempted} failed {failed} "
          f"checks {'ok' if not problems else 'FAILED'}")
    for label, key in (("pass_s", "seconds"), ("pass CPU s", "cpu_s"), ("pass wall s", "wall_s")):
        print(f"{label}: " + ", ".join(f"{r[key]:.4f}" for r in passes))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _repeat(args) -> int:
    """Run this benchmark args.repeat times and print medians and quartiles."""
    values: dict = {}
    units: dict = {}
    status = 0
    for i in range(args.repeat):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(f"seed {args.seed + i}: correct {result['correct']} attempted "
              f"{result['attempted']} failed {result['failed']}", flush=True)
        if not result["correct"] or result["failed"]:
            sys.stderr.write(proc.stderr)
            status = 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "unit": units[name],
                         "iqr_over_median": spread}
        print(f"  {name}: median {med:.6g} {units[name]}, quartiles "
              f"[{q1:.6g}, {q3:.6g}], (q3-q1)/median {spread:.4f}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "metrics": summary}))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.repeat:
        return _repeat(args)
    return _measure(args)


if __name__ == "__main__":
    sys.exit(main())
