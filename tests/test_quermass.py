import math

import numpy as np
import pytest

import sphereflow.quermass as quermass_module
from sphereflow import ConeViolation, MonotonicityError, RadialProfile, geometry
from sphereflow.hypersurface import integrate, unit_sphere_area, volume
from sphereflow.quermass import (
    QuermassVector,
    audit_inequalities,
    quermass_vector,
    sphere_comparison,
    sphere_quermass,
)

# Hand-derived geodesic-sphere values.  For n = 2 the curvature integrals are
# S_0 = 4 pi sin^2 r and S_1 = 4 pi sin 2r, so
#   A_{-1} = 4 pi (r/2 - sin 2r / 4),  A_0 = S_0,
#   A_1 = S_1 + 2 A_{-1},              A_2 = 4 pi cos^2 r + A_0 = 4 pi.
# For n = 3 with |S^3| = 2 pi^2 the same ladder gives the B_* block below;
# the top entry collapses to the constant 2 pi^2.
SPHERE2_R08 = {
    -1: 1.886295157706197,
    0: 6.466651316679707,
    1: 16.333602667562282,
    2: 4.0 * math.pi,
}
SPHERE3_R06 = {
    -1: 0.567136043233346,
    0: 3.553451328839493,
    1: 17.283604346211987,
    2: 29.883335713930240,
    3: 2.0 * math.pi**2,
}


def test_sphere_closed_forms():
    for m, want in SPHERE2_R08.items():
        assert sphere_quermass(2, m, 0.8) == pytest.approx(want, rel=1e-13)
    for m, want in SPHERE3_R06.items():
        assert sphere_quermass(3, m, 0.6) == pytest.approx(want, rel=1e-13)


def test_sphere_top_entry_is_radius_independent():
    for n in (2, 3, 4):
        ref = sphere_quermass(n, n, 0.5)
        for r in (0.2, 0.9, 1.4):
            assert sphere_quermass(n, n, r) == pytest.approx(ref, rel=1e-12)


def test_sphere_quermass_validation():
    with pytest.raises(ValueError):
        sphere_quermass(2, 3, 0.5)
    with pytest.raises(ValueError):
        sphere_quermass(2, -2, 0.5)
    with pytest.raises(ValueError):
        sphere_quermass(2, 0, math.pi / 2)
    with pytest.raises(ValueError):
        sphere_quermass(2, 0, 0.0)


def test_discrete_vector_matches_sphere_closed_form():
    prof = RadialProfile.geodesic_sphere(2, 0.8, 257)
    q = quermass_vector(geometry(prof, 1), prof)
    assert q.n == 2
    for m in range(-1, 3):
        # quadrature of a constant profile, Simpson error only
        assert q.a(m) == pytest.approx(SPHERE2_R08[m], rel=1e-9)


def test_vector_index_bounds():
    prof = RadialProfile.geodesic_sphere(2, 0.7, 65)
    q = quermass_vector(geometry(prof, 1), prof)
    with pytest.raises(ValueError):
        q.a(-2)
    with pytest.raises(ValueError):
        q.a(3)


def test_top_entry_constant_for_perturbed_profiles():
    # the highest quermassintegral is topological: every convex profile
    # must reproduce the sphere value up to discretization error
    for n, k in ((2, 1), (3, 2)):
        prof = RadialProfile.perturbed(n, 0.8, 0.05, 2, 513)
        q = quermass_vector(geometry(prof, k), prof)
        assert q.a(n) == pytest.approx(sphere_quermass(n, n, 0.5), rel=1e-5)


@pytest.mark.parametrize("N", [64, 65])
@pytest.mark.parametrize("shape", ["sphere", "perturbed"])
@pytest.mark.parametrize("n", range(2, 7))
def test_vector_is_the_ladder_of_per_index_integrals(n, shape, N):
    """The one stacked reduction of quermass_vector against a per-index
    integrate of each sigma_m and the ladder of the module docstring, bit for
    bit; N = 64 puts a 3/8 block at the end of the Simpson weights."""
    if shape == "sphere":
        prof = RadialProfile.geodesic_sphere(n, 0.7, N)
    else:
        prof = RadialProfile.perturbed(n, 0.8, 0.04, 2, N)
    state = geometry(prof, n - 1)
    s = [integrate(state, state.sigma_nodal(m)) for m in range(n + 1)]
    a = [volume(prof), s[0], s[1] + n * volume(prof)]
    for m in range(2, n + 1):
        a.append(s[m] + (n - m + 1) / (m - 1) * a[m - 1])
    assert quermass_vector(state, prof).values.tobytes() == np.array(a).tobytes()


def test_quermass_vector_requires_convexity():
    prof = RadialProfile.perturbed(2, 0.8, 0.28, 6, 257)
    state = geometry(prof, 0)
    assert state.lam_min < 0.0
    with pytest.raises(ConeViolation):
        quermass_vector(state, prof)


def test_sphere_comparison_roundtrip():
    # feeding a sphere's own A_k back through the map must return its A_l
    for n, table, r in ((2, SPHERE2_R08, 0.8), (3, SPHERE3_R06, 0.6)):
        for k in range(0, n):
            for l in range(-1, k):
                xi = sphere_comparison(n, l, k, table[k])
                assert xi == pytest.approx(table[l], rel=1e-10, abs=1e-10)


def test_sphere_comparison_validation():
    with pytest.raises(ValueError):
        sphere_comparison(2, 1, 1, 5.0)
    with pytest.raises(ValueError):
        sphere_comparison(2, -2, 0, 5.0)
    with pytest.raises(MonotonicityError):
        sphere_comparison(2, 0, 2, 12.0)
    # target above the attainable range of A_0
    with pytest.raises(ValueError):
        sphere_comparison(2, -1, 0, 4.0 * math.pi + 1.0)


def test_audit_on_sphere_is_tight():
    prof = RadialProfile.geodesic_sphere(2, 0.8, 257)
    rep = audit_inequalities(quermass_vector(geometry(prof, 1), prof))
    assert [(e["l"], e["k"]) for e in rep.entries] == [(-1, 0), (-1, 1), (0, 1)]
    assert [(s["l"], s["k"]) for s in rep.skipped] == [(-1, 2), (0, 2), (1, 2)]
    for s in rep.skipped:
        assert "not strictly increasing" in s["reason"]
    # equality case: the sphere saturates every comparison
    for e in rep.entries:
        assert abs(e["gap"]) < 1e-7
    assert len(rep.scaled_gaps()) == 3


def test_audit_gaps_positive_off_sphere():
    prof = RadialProfile.perturbed(2, 0.8, 0.05, 2, 257)
    rep = audit_inequalities(quermass_vector(geometry(prof, 1), prof), seed=11)
    assert rep.entries and rep.worst_gap > 0.0
    payload = rep.to_json()
    assert payload["seed"] == 11
    assert set(payload) == {"n", "entries", "skipped", "seed"}
    assert len(payload["entries"]) == len(rep.entries)


def test_audit_json_omits_missing_seed():
    prof = RadialProfile.geodesic_sphere(2, 0.5, 65)
    rep = audit_inequalities(quermass_vector(geometry(prof, 1), prof))
    assert "seed" not in rep.to_json()
    assert rep.worst_gap == pytest.approx(0.0, abs=1e-6)


def _pairwise_audit(q):
    """The audit as one sphere_comparison per pair: (entries, skipped)."""
    entries, skipped = [], []
    for k in range(0, q.n + 1):
        for l in range(-1, k):
            try:
                xi = sphere_comparison(q.n, l, k, q.a(k))
            except (MonotonicityError, ValueError) as exc:
                skipped.append({"l": l, "k": k, "reason": str(exc)})
                continue
            entries.append({"l": l, "k": k, "A_l": q.a(l), "xi_value": xi,
                            "gap": xi - q.a(l)})
    return entries, skipped


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_audit_matches_pairwise_comparison_exactly(n):
    profiles = [RadialProfile.perturbed(n, 0.8, 0.05, 2, 129),
                RadialProfile.geodesic_sphere(n, 0.6, 65)]
    vectors = [quermass_vector(geometry(p, n - 1), p) for p in profiles]
    # A_0 above its sphere range and A_1 below it: skipped with ValueError's text
    values = vectors[0].values.copy()
    values[1] = 2.0 * sphere_quermass(n, 0, 1.5)
    values[2] = -1.0
    vectors.append(QuermassVector(n=n, values=values))
    for q in vectors:
        rep = audit_inequalities(q)
        entries, skipped = _pairwise_audit(q)
        assert rep.entries == entries
        assert rep.skipped == skipped
        # a repeat audit of the same vector gives the same report
        again = audit_inequalities(q)
        assert (again.entries, again.skipped) == (rep.entries, rep.skipped)
        top = f"A_{n} is not strictly increasing in the geodesic radius for n={n}"
        assert [s for s in rep.skipped if s["k"] == n] == [
            {"l": l, "k": n, "reason": top} for l in range(-1, n)]
    assert [(s["l"], s["k"]) for s in rep.skipped[:3]] == [(-1, 0), (-1, 1), (0, 1)]
    assert all("outside the geodesic-sphere range" in s["reason"] for s in rep.skipped[:3])


def _first_variation(n, l, r):
    """dA_l/dr along the geodesic spheres: |S^n| sin^n r for the volume,
    (l+1) |S^n| C(n, l+1) sin^{n-l-1} r cos^{l+1} r for 0 <= l < n."""
    area = unit_sphere_area(n)
    if l == -1:
        return area * math.sin(r) ** n
    return ((l + 1) * area * math.comb(n, l + 1)
            * math.sin(r) ** (n - l - 1) * math.cos(r) ** (l + 1))


@pytest.mark.parametrize("n", range(2, 9))
def test_sphere_quermass_first_variation(n):
    # the audit inverts r -> A_k without sampling it, on the strength of this formula
    d = 1e-5
    for r in np.linspace(0.1, 1.45, 28):
        for l in range(-1, n + 1):
            fd = (sphere_quermass(n, l, r + d) - sphere_quermass(n, l, r - d)) / (2.0 * d)
            want = 0.0 if l == n else _first_variation(n, l, r)
            # A_l round-off over the step d dominates where dA_l/dr is small
            scale = max(1.0, abs(want), abs(sphere_quermass(n, l, r)))
            assert abs(fd - want) <= 1e-7 * scale, (n, l, r, fd, want)
            if l < n:
                assert want > 0.0


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_audit_inverts_every_k_below_n(n):
    h = math.pi / 256
    sphere, perturbed = (
        audit_inequalities(quermass_vector(geometry(prof, n - 1), prof))
        for prof in (RadialProfile.geodesic_sphere(n, 0.8, 257),
                     RadialProfile.perturbed(n, 0.8, 0.05, 2, 257)))
    for rep in (sphere, perturbed):
        assert [(e["l"], e["k"]) for e in rep.entries] == [
            (l, k) for k in range(n) for l in range(-1, k)]
        assert [(s["l"], s["k"]) for s in rep.skipped] == [(l, n) for l in range(-1, n)]
    # the bound of the verify battery: quadrature error amplified by the inversion
    assert np.all(np.abs(sphere.scaled_gaps()) <= max(10.0 * h**4, 1e-10))
    assert perturbed.worst_gap > 0.0


@pytest.mark.parametrize("n, calls", [(2, 20), (3, 38), (4, 52)])
def test_audit_evaluates_each_range_end_once(monkeypatch, n, calls):
    # brentq's own end values are the range check, so no end is evaluated twice;
    # the total moves with the last bits of sphere_quermass, and stays at most calls
    counted = []
    closed_form = quermass_module.sphere_quermass

    def counting(*args):
        counted.append(args)
        return closed_form(*args)

    prof = RadialProfile.perturbed(n, 0.8, 0.05, 2, 257)
    q = quermass_vector(geometry(prof, n - 1), prof)
    monkeypatch.setattr(quermass_module, "sphere_quermass", counting)
    rep = audit_inequalities(q)
    assert len(rep.entries) == n * (n + 1) // 2
    ends = (quermass_module._R_LO, quermass_module._R_HI)
    # every k below n is inverted; k = n is refused before any evaluation
    assert sorted((k, r) for _, k, r in counted if r in ends) == [
        (k, r) for k in range(n) for r in ends]
    assert len(counted) <= calls
