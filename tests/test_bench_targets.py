"""The benchmark's span tracer must still find every function it times.

perfbench/tracer.py raises LookupError for a traced function the program no
longer defines; this test turns such a rename into a tier-1 failure.
"""

import importlib.util
import os

import sphereflow.cli  # noqa: F401  (loads every module the tracer names)
import sphereflow.hypersurface as hypersurface
import sphereflow.studies  # noqa: F401

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_restore():
    tracer = _load_tracer()
    targets = [t for layer in tracer.LAYERS.values() for t in layer]
    originals = [tracer._resolve(module, qualname) for module, qualname in targets]
    with tracer.Tracer() as spans:
        hypersurface.geometry(hypersurface.RadialProfile.geodesic_sphere(2, 0.8, 17), 1)
    summary = spans.summary()
    assert summary["hypersurface.RadialProfile"]["calls"] == 1
    assert summary["hypersurface.geometry"]["calls"] == 1
    for owner, attr, fn in originals:
        assert vars(owner)[attr] is fn
