"""Quermassintegral vector, geodesic-sphere closed forms, and the audit map.

The curvature integrals S_m = integral(sigma_m dmu) combine into the
quermassintegral ladder

    A_{-1} = Vol,  A_0 = S_0,  A_1 = S_1 + n A_{-1},
    A_m = S_m + (n - m + 1)/(m - 1) * A_{m-2}   for 2 <= m <= n.

For l < k the conjectured comparison bounds A_l by the value it takes on the
geodesic sphere with matching A_k; the audit evaluates every pair and records
the gaps.  The top index is special: A_n is a constant of the topology, the
same for every convex hypersurface, so it cannot be inverted and the audit
marks pairs keyed on it as degenerate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConeViolation, MonotonicityError
from .hypersurface import (
    GeometryState,
    RadialProfile,
    integrate,
    sin_power_integral,
    unit_sphere_area,
    volume,
)

__all__ = [
    "QuermassVector",
    "quermass_vector",
    "sphere_quermass",
    "sphere_comparison",
    "AuditReport",
    "audit_inequalities",
]

_R_TOL = 1e-12
_R_LO = 1e-6
_R_HI = math.pi / 2 - 1e-6


@dataclass
class QuermassVector:
    """All quermassintegrals A_{-1} .. A_n of one hypersurface."""

    n: int
    values: np.ndarray  # index i holds A_{i-1}

    def a(self, m: int) -> float:
        if not -1 <= m <= self.n:
            raise ValueError(f"quermassintegral index m={m} out of range")
        return float(self.values[m + 1])


def _ladder(n: int, vol: float, s: np.ndarray) -> np.ndarray:
    """Assemble A_{-1}..A_n from the volume and the curvature integrals."""
    a = np.empty(n + 2)
    a[0] = vol
    a[1] = s[0]
    if n >= 1:
        a[2] = s[1] + n * vol
    for m in range(2, n + 1):
        a[m + 1] = s[m] + (n - m + 1) / (m - 1) * a[m - 1]
    return a


def quermass_vector(state: GeometryState, profile: RadialProfile) -> QuermassVector:
    """Quermassintegrals of a convex axisymmetric hypersurface."""
    n = state.n
    if not state.lam_min > 0.0:
        raise ConeViolation("quermassintegrals need a strictly convex hypersurface")
    s = integrate(state, np.stack([state.sigma_nodal(m) for m in range(n + 1)]))
    return QuermassVector(n=n, values=_ladder(n, volume(profile), s))


def _check_normal(q: QuermassVector, what: str) -> None:
    """ValueError naming n and the first A_l that is not finite, else the smallest |A_l|,
    unless every A_l of q is a normal float; callers keep a sigma overflow in np.errstate."""
    bad, low = np.flatnonzero(~np.isfinite(q.values)), np.min(np.abs(q.values))
    if bad.size or not low >= np.finfo(float).tiny:
        raise ValueError(f"{what} quermassintegrals leave the normal floats at n={q.n}: "
                         + (f"A_{bad[0] - 1} is {q.values[bad[0]]}" if bad.size
                            else f"the smallest |A_l| is {low:.3g}"))


def sphere_quermass(n: int, m: int, r: float) -> float:
    """Closed-form A_m of the geodesic sphere of radius r in (0, pi/2)."""
    if not -1 <= m <= n:
        raise ValueError(f"quermassintegral index m={m} out of range for n={n}")
    if not 0.0 < r < math.pi / 2:
        raise ValueError("geodesic-sphere radius must lie in (0, pi/2)")
    area = unit_sphere_area(n)
    vol = area * float(sin_power_integral(n, r))
    # integral of sigma_j over the sphere: every curvature equals cot(r)
    s = np.array([area * math.comb(n, j) * math.sin(r) ** (n - j) * math.cos(r) ** j
                  for j in range(n + 1)])
    return float(_ladder(n, vol, s)[m + 1])


def _sphere_radius(n: int, k: int, a_k: float) -> float:
    """Radius of the geodesic sphere whose A_k equals a_k, by Brent's method.  For k < n
    the map increases strictly by first variation, dA_k/dr = (k+1) |S^n| C(n, k+1)
    sin^{n-k-1} r cos^{k+1} r > 0 (|S^n| sin^n r for k = -1); the constant k = n
    map raises MonotonicityError and a target out of range ValueError."""
    if k == n:
        raise MonotonicityError(f"A_{k} is not strictly increasing in the geodesic "
                                f"radius for n={n}")
    from scipy.optimize import brentq  # a slow import, kept off the run path
    try:
        return brentq(lambda r: sphere_quermass(n, k, r) - a_k, _R_LO, _R_HI, xtol=_R_TOL)
    except ValueError:
        # brentq's own end values are the range check: it refuses ends of one sign or NaN
        lo_val, hi_val = sphere_quermass(n, k, _R_LO), sphere_quermass(n, k, _R_HI)
        raise ValueError(
            f"target A_{k}={a_k} outside the geodesic-sphere range "
            f"[{lo_val}, {hi_val}] for n={n}"
        ) from None


def sphere_comparison(n: int, l: int, k: int, a_k: float) -> float:
    """A_l of the geodesic sphere whose A_k equals the target value; the
    radius and its errors are those of _sphere_radius."""
    if not -1 <= l < k <= n:
        raise ValueError(f"invalid comparison pair (l, k) = ({l}, {k})")
    return sphere_quermass(n, l, _sphere_radius(n, k, a_k))


@dataclass
class AuditReport:
    """Comparison gaps for every index pair of one quermassintegral vector."""

    n: int
    entries: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    seed: int | None = None

    @property
    def worst_gap(self) -> float:
        if not self.entries:
            return 0.0
        return min(e["gap"] for e in self.entries)

    def scaled_gaps(self) -> list:
        out = []
        for e in self.entries:
            scale = max(1.0, abs(e["A_l"]), abs(e["xi_value"]))
            out.append(e["gap"] / scale)
        return out

    def to_json(self) -> str:
        payload = {"n": self.n, "entries": self.entries, "skipped": self.skipped}
        if self.seed is not None:
            payload["seed"] = self.seed
        return json.dumps(payload, indent=2)


def audit_inequalities(q: QuermassVector, seed: int | None = None) -> AuditReport:
    """Evaluate the pairwise comparison gaps xi(A_k) - A_l for all l < k.

    Every pair with -1 <= l < k <= n is attempted: the radius with matching
    A_k is solved once per k and each A_l read there, as sphere_comparison
    does pair by pair.  Pairs whose comparison profile is degenerate
    (constant in the radius) are reported as skipped, not as violations.
    """
    report = AuditReport(n=q.n, seed=seed)
    for k in range(0, q.n + 1):
        try:
            r = _sphere_radius(q.n, k, q.a(k))
        except (MonotonicityError, ValueError) as exc:
            report.skipped.extend({"l": l, "k": k, "reason": str(exc)} for l in range(-1, k))
            continue
        for l in range(-1, k):
            xi_value = sphere_quermass(q.n, l, r)
            report.entries.append({"l": l, "k": k, "A_l": q.a(l), "xi_value": xi_value,
                                   "gap": xi_value - q.a(l)})
    return report
