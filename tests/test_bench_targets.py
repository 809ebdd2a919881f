"""The benchmark must still find every function it times and calls.

perfbench/tracer.py raises LookupError for a traced function the program no
longer defines, the verify workload calls the studies by name with fixed
keyword arguments, and percall.py builds the layers' inputs through the
package's constructors; these tests turn a rename or a removed parameter into
a tier-1 failure.
"""

import importlib.util
import inspect
import os
import sys

import sphereflow.cli  # noqa: F401  (loads every module the tracer names)
import sphereflow.hypersurface as hypersurface
import sphereflow.studies as studies

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_restore():
    tracer = _load("tracer")
    targets = [t for layer in tracer.LAYERS.values() for t in layer]
    originals = [tracer._resolve(module, qualname) for module, qualname in targets]
    with tracer.Tracer() as spans:
        hypersurface.geometry(hypersurface.RadialProfile.geodesic_sphere(2, 0.8, 17), 1)
    summary = spans.summary()
    assert summary["hypersurface.RadialProfile"]["calls"] == 1
    assert summary["hypersurface.geometry"]["calls"] == 1
    for owner, attr, fn in originals:
        assert vars(owner)[attr] is fn


def test_verify_workload_study_calls_bind(tmp_path, monkeypatch):
    # workloads.py imports its siblings (reference, speed) as top-level modules
    monkeypatch.syspath_prepend(PERFBENCH)
    verify = _load("workloads").Verify(1, str(tmp_path))
    assert verify.studies
    for name, kwargs in verify.studies:
        inspect.signature(getattr(studies, name)).bind(**kwargs)


def test_percall_layers_run(monkeypatch):
    # percall.py imports its sibling run.py as a top-level module, which sets
    # the BLAS thread variables and puts src on sys.path
    monkeypatch.syspath_prepend(PERFBENCH)
    environ, modules = dict(os.environ), set(sys.modules)
    calls = []

    def once(fn):
        calls.append(fn())
        return 0.0

    try:
        percall = _load("percall")
        monkeypatch.setattr(percall, "_per_call_us", once)
        table = percall.measure(64)
    finally:
        os.environ.clear()
        os.environ.update(environ)
        for name in set(sys.modules) - modules:
            del sys.modules[name]
    assert len(table) == len(calls) == 5 and set(table.values()) == {0.0}
