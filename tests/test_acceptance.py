"""End-to-end acceptance battery.

Each test prints one verdict line (run with -s to see them all) and asserts
it.  The two long flow runs come from session fixtures in conftest.py, so
the whole battery stays within a coffee break.
"""

import math

import numpy as np

from sphereflow import RadialProfile, geometry, geometry_full_s2
from sphereflow.cli import main as cli_main
from sphereflow.dualflow import (
    decomposition_residual,
    dual_from_profile,
    profile_from_dual,
)
from sphereflow.hypersurface import (
    SphereGrid2D,
    hessian_contraction_residuals,
    minkowski_residual,
)
from sphereflow.identities import run_identity_suite
from sphereflow.flow import _gershgorin_dt, _jacobian, _stage_rate, run, step
from sphereflow.quermass import (
    audit_inequalities,
    quermass_vector,
    sphere_comparison,
    sphere_quermass,
)
from sphereflow.studies import (
    cross_solver_gap,
    evolution_study,
    functional_study,
    minkowski_study,
)


def _verdict(num: int, name: str, ok: bool, detail: str):
    tag = "PASS" if ok else "FAIL"
    print(f"acceptance {num:02d} {name}: {tag} ({detail})")
    assert ok, f"acceptance {num:02d} {name}: {detail}"


def test_01_identity_suite():
    report = run_identity_suite(n_max=8, samples=10000, seed=7)
    failed = [c.line() for c in report.checks if not c.passed]
    _verdict(1, "identity-suite", report.passed and not failed,
             f"{len(report.checks) - len(failed)}/{len(report.checks)} checks"
             + (f"; first failure: {failed[0]}" if failed else ""))


def test_02_geometry_backends_agree():
    worst_field = 0.0
    worst_asym = 0.0
    for r0, eps, mode in ((0.8, 0.05, 2), (0.7, 0.03, 3), (0.9, 0.04, 4)):
        prof = RadialProfile.perturbed(2, r0, eps, mode, 512)
        st = geometry(prof, 1)
        full = geometry_full_s2(SphereGrid2D.from_profile(prof, 8))
        sl = slice(1, -1)
        lo = np.minimum(st.lam1, st.lam_ang)[sl][:, None]
        hi = np.maximum(st.lam1, st.lam_ang)[sl][:, None]
        worst_field = max(
            worst_field,
            float(np.max(np.abs(full.u - st.u[sl][:, None]))),
            float(np.max(np.abs(full.lam_lo - lo))),
            float(np.max(np.abs(full.lam_hi - hi))),
            float(np.max(np.abs(full.area_weight - st.area_weight[sl][:, None]))),
        )
        worst_asym = max(worst_asym, full.weingarten_asymmetry)
    ok = worst_field <= 1e-6 and worst_asym <= 1e-10
    _verdict(2, "geometry-backends", ok,
             f"field diff {worst_field:.2e} <= 1e-6, asymmetry {worst_asym:.2e} <= 1e-10")


def test_03_weighted_integral_identity():
    worst = 0.0
    for n in (2, 3):
        st = geometry(RadialProfile.perturbed(n, 0.8, 0.1, 2, 512), 0)
        worst = max(worst, max(minkowski_residual(st, m) for m in range(n)))
    orders = []
    for n in (2, 3):
        orders.extend(minkowski_study(n=n, N0=128, levels=3)["orders"].values())
    ok = worst <= 1e-4 and min(orders) >= 1.9
    _verdict(3, "weighted-integral", ok,
             f"residual {worst:.2e} <= 1e-4, worst order {min(orders):.3f} >= 1.9")


def test_04_sphere_stationarity():
    prof = RadialProfile.geodesic_sphere(2, 0.8, 256)
    dt = _gershgorin_dt(_jacobian(lambda rho: _stage_rate(2, 1, prof.grid, rho), prof.rho), 0.05)
    change = float(np.max(np.abs(step(prof, dt, 1).rho - prof.rho)))
    from sphereflow.flow import FlowConfig, ShapeSpec
    res = run(FlowConfig(n=2, k=1, N=256,
                         initial_shape=ShapeSpec(kind="geodesicSphere", r=0.8)))
    ok = change <= 1e-14 and res.termination == "converged" and res.steps == 0
    _verdict(4, "stationarity", ok,
             f"per-step change {change:.2e} <= 1e-14, "
             f"immediate {res.termination} after {res.steps} steps")


def test_05_conservation_and_signs(standard_run):
    res = standard_run
    a0 = res.trace.column("A_0")
    drift = float(np.max(np.abs(a0 - a0[0]))) / max(1.0, abs(a0[0]))
    sign_flags = {c: v for c, v in res.violations.items()
                  if c.startswith("SIGN_") or c == "CONSERVATION"}
    orders = functional_study(n=2, k=1, N0=64, levels=3)["orders"]
    ok = drift <= 1e-4 and not sign_flags and min(orders.values()) >= 1.9
    _verdict(5, "conservation-monotonicity", ok,
             f"A_0 drift {drift:.2e} <= 1e-4, sign flags {sign_flags or 'none'}, "
             f"worst functional order {min(orders.values()):.3f} >= 1.9")


def test_06_bound_monitors(standard_run, second_run):
    details = []
    ok = True
    for tag, res in (("n=2,k=1", standard_run), ("n=3,k=2", second_run)):
        lam = res.trace.column("minLambda")
        ratio = min(lam) / lam[0]
        ok = ok and res.violations == {} and ratio >= 0.1
        details.append(f"{tag}: violations {res.violations or 'none'}, "
                       f"min lambda ratio {ratio:.3f}")
    _verdict(6, "a-priori-monitors", ok, "; ".join(details))


def test_07_round_limit(standard_run):
    res = standard_run
    spread = res.trace.column("maxRho")[-1] - res.trace.column("minRho")[-1]
    q = quermass_vector(geometry(res.profile, 1), res.profile)
    worst_scaled = min(audit_inequalities(q).scaled_gaps())
    worst_rt = 0.0
    for r in (0.4, 0.8, 1.2):
        for k in range(0, 2):
            for l in range(-1, k):
                xi = sphere_comparison(2, l, k, sphere_quermass(2, k, r))
                err = abs(xi - sphere_quermass(2, l, r))
                worst_rt = max(worst_rt, err / max(1.0, abs(xi)))
    ok = spread <= 1e-4 and worst_scaled >= -1e-6 and worst_rt <= 1e-10
    _verdict(7, "round-limit", ok,
             f"final spread {spread:.2e} <= 1e-4, worst scaled gap "
             f"{worst_scaled:.2e} >= -1e-6, roundtrip {worst_rt:.2e} <= 1e-10")


def test_08_volume_bound_battery():
    rng = np.random.default_rng(3)
    accepted = 0
    min_gap = math.inf
    for _ in range(200):
        if accepted == 20:
            break
        r0 = float(rng.uniform(0.45, 1.05))
        eps = float(rng.uniform(0.005, 0.12))
        mode = int(rng.integers(2, 6))
        try:
            prof = RadialProfile.perturbed(2, r0, eps, mode, 257)
        except ValueError:
            continue
        st = geometry(prof, 0)
        if not st.lam_min > 0.0:
            continue
        accepted += 1
        rep = audit_inequalities(quermass_vector(st, prof))
        min_gap = min(min_gap,
                      min(e["gap"] for e in rep.entries if e["l"] == -1))
    ok = accepted == 20 and min_gap >= 0.0
    _verdict(8, "volume-bound", ok,
             f"{accepted} convex profiles, min Vol gap {min_gap:.3e} >= 0")


def test_09_evolution_residual_orders():
    details = []
    ok = True
    for n, k in ((2, 1), (3, 2)):
        study = evolution_study(n=n, k=k, N0=64, levels=3)
        ok = ok and study["orderU"] >= 1.9 and study["orderF"] >= 1.9
        details.append(f"n={n},k={k}: u {study['orderU']:.3f}, F {study['orderF']:.3f}")
    _verdict(9, "evolution-residuals", ok, "; ".join(details) + " (all >= 1.9)")


def test_10_dual_module():
    profiles = [
        RadialProfile.geodesic_sphere(2, 0.8, 256),
        RadialProfile.perturbed(2, 0.8, 0.05, 2, 256),
        RadialProfile.perturbed(3, 0.9, 0.03, 3, 256),
    ]
    worst_dec = max(decomposition_residual(p) for p in profiles)
    worst_rt = 0.0
    for p in profiles:
        back = profile_from_dual(dual_from_profile(p), p.N)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.rho - p.rho))))
    gap_c = cross_solver_gap(N=128)
    gap_f = cross_solver_gap(N=256)
    ratio = gap_c / gap_f
    cand = hessian_contraction_residuals(
        RadialProfile.perturbed(2, 0.8, 0.05, 2, 257), 1)
    small = [name for name, v in cand.items() if v <= 1e-10]
    large = [name for name, v in cand.items() if v > 1e-3]
    ok = (worst_dec <= 1e-10 and worst_rt <= 1e-8
          and gap_f < 1e-6 and 3.0 <= ratio <= 6.0
          and len(small) == 1 and len(small) + len(large) == len(cand))
    _verdict(10, "dual-module", ok,
             f"decomposition {worst_dec:.2e} <= 1e-10, roundtrip {worst_rt:.2e} "
             f"<= 1e-8, cross-solver gap {gap_f:.2e} ratio {ratio:.2f}, "
             f"unique candidate {small}")


def test_11_determinism(tmp_path):
    args = ["run", "--n", "2", "--k", "1", "--N", "256",
            "--shape", "perturbed:0.8,0.05,2", "--sample-every", "50",
            "--seed", "0"]
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli_main(args + ["--out", str(out)]) == 0
    files = ("trace.csv", "summary.json", "final.json", "manifest.json")
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in files)
    _verdict(11, "determinism", same,
             "byte-identical " + ", ".join(files) if same else "outputs differ")
