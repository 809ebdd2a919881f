"""Span tracing from outside the program.

The tracer rebinds the names that callers look up -- a module attribute such
as ``sphereflow.flow.geometry`` or a method such as ``Monitors.check`` -- to
a wrapper that records one span per call: layer id, start, end and the
index of the enclosing traced span.  Spans stay in compact arrays in memory
and are written out once, when the run ends.  Self time and call counts per
layer are derived from the spans afterwards, so the wrappers do no
bookkeeping beyond four appends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Layer name -> (module, qualified name) of every function counted as that
# layer.  A target the program no longer has is an error, so that a renamed
# or moved function cannot read as a layer that got cheaper.
LAYERS = {
    "cli.trace_csv": [("sphereflow.flow", "FlowTrace.to_csv")],
    "flow.run": [("sphereflow.flow", "run")],
    "flow.Monitors.check": [("sphereflow.flow", "Monitors.check")],
    "flow.FlowTrace.append": [("sphereflow.flow", "FlowTrace.append")],
    "hypersurface.RadialProfile": [("sphereflow.hypersurface", "RadialProfile.__init__")],
    "hypersurface.geometry": [("sphereflow.hypersurface", "geometry")],
    "hypersurface.differentiate": [("sphereflow.hypersurface", "differentiate")],
    "hypersurface.integrate": [("sphereflow.hypersurface", "integrate")],
    "hypersurface.volume": [("sphereflow.hypersurface", "volume")],
    "hypersurface.checkpoint": [("sphereflow.hypersurface", "save_checkpoint"),
                                ("sphereflow.hypersurface", "load_checkpoint")],
    "symfunc.quotient_two_value": [("sphereflow.symfunc", "quotient_two_value")],
    "symfunc.sigma_two_value": [("sphereflow.symfunc", "sigma_two_value")],
    "symfunc.sigma_table": [("sphereflow.symfunc", "sigma_table")],
    "quermass.quermass_vector": [("sphereflow.quermass", "quermass_vector")],
    "quermass.audit_inequalities": [("sphereflow.quermass", "audit_inequalities")],
    "quermass.sphere_quermass": [("sphereflow.quermass", "sphere_quermass")],
    "dualflow.support_closure": [("sphereflow.dualflow", "support_closure")],
    "dualflow.profile_from_dual": [("sphereflow.dualflow", "profile_from_dual")],
    "identities.run_identity_suite": [("sphereflow.identities", "run_identity_suite")],
    "studies": [("sphereflow.studies", "minkowski_study"),
                ("sphereflow.studies", "evolution_study"),
                ("sphereflow.studies", "functional_study")],
}


def _resolve(module: str, qualname: str):
    """(owner, attribute, function) for a target the owner defines itself."""
    owner = sys.modules.get(module)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or parts[-1] not in vars(owner):
        raise LookupError(f"tracer target {module}.{qualname} is not in the program")
    return owner, parts[-1], vars(owner)[parts[-1]]


class Tracer:
    """Context manager that records a span around every call into LAYERS."""

    def __init__(self):
        self.names = list(LAYERS)
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, layer_id: int, fn):
        layer, start, end, parent = self.layer, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "sphereflow" or name.startswith("sphereflow.")]
        for layer_id, name in enumerate(self.names):
            for module, qualname in LAYERS[name]:
                owner, attr, fn = _resolve(module, qualname)
                wrapper = self._wrap(layer_id, fn)
                if "." in qualname:
                    # a method: callers find it on the class
                    self._patch(owner, attr, wrapper)
                    continue
                # a function: rebind it in every module that imported it
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def arrays(self) -> dict:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per layer: call count, total self time (s), and calls per parent layer."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        parent_layer = np.where(has_parent, a["layer"][np.maximum(a["parent"], 0)], -1)
        out = {}
        for layer_id, name in enumerate(self.names):
            mask = a["layer"] == layer_id
            out[name] = {
                "calls": int(np.count_nonzero(mask)),
                "self_s": float(np.sum(self_time[mask])),
                "by_parent": {
                    self.names[p]: int(c) for p, c in zip(
                        *np.unique(parent_layer[mask & has_parent], return_counts=True))
                },
            }
        return out
