"""The benchmark's three workloads and the checks on their outputs.

Each workload draws its inputs from the seed alone, sets up what the program
needs before its first pass, runs passes of a fixed list of operations and
checks every pass's outputs against properties and against values computed
apart from the program (reference.py).  All calls go through module
attributes (``flow.run``, not a local copy), so the tracer sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import traceback

import numpy as np

import sphereflow.cli as cli
import sphereflow.dualflow as dualflow
import sphereflow.flow as flow
import sphereflow.hypersurface as hypersurface
import sphereflow.identities as identities
import sphereflow.quermass as quermass
import sphereflow.studies as studies

import reference as ref
from speed import Stopwatch

BUNDLE = ("trace.csv", "summary.json", "final.json", "manifest.json")


def _jitter(rng, centre: float, half_width: float) -> float:
    return centre + half_width * (2.0 * rng.random() - 1.0)


def _h(N: int) -> float:
    return math.pi / (N - 1)


class Workload:
    """Inputs, set-up, one pass of operations, and the checks on a pass."""

    name = ""
    ops_per_pass = 0

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.out_dir = os.path.join(out_dir, self.name)

    def setup(self) -> None:
        """Build the program-side inputs and fill its lazy caches."""

    def run_pass(self) -> dict:
        """Run every operation once; return outputs, 'failed' and the pass's time."""
        raise NotImplementedError

    def check(self, result: dict) -> list:
        """Error messages for every check the pass failed.

        Operations that raised are left out: they are counted as failed.
        Also stores the pass's 'steps' and 'radius_err' in result, and the
        counts the traced run reports: 'flow_steps', 'flow_rejected',
        'dual_rejected' and 'bundle_bytes' (absent means 0).
        """
        raise NotImplementedError

    @staticmethod
    def _attempt(errors: list, label: str, fn, *args):
        """Run one operation; an exception marks it failed, not the run."""
        try:
            return fn(*args)
        except Exception:  # an operation's failure is counted, never fatal
            errors.append(f"{label}: {traceback.format_exc(limit=3).strip()}")
            return None


class Converge(Workload):
    """The documented `sphereflow run` on both reference shapes, to convergence."""

    name = "converge"
    N = 128

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        # (n, k, r0, eps, mode): the two reference shapes, jittered slightly
        self.shapes = [
            (2, 1, _jitter(self.rng, 0.8, 0.005), 0.05 * _jitter(self.rng, 1.0, 0.01), 2),
            (3, 2, _jitter(self.rng, 0.9, 0.005), 0.03 * _jitter(self.rng, 1.0, 0.01), 2),
        ]
        self.ops_per_pass = len(self.shapes)
        # r*: radius of the geodesic sphere with the initial shape's A_{k-1},
        # which the flow preserves
        self.r_star = []
        for n, k, r0, eps, mode in self.shapes:
            q = ref.Profile(n, r0, eps, mode).quermass()
            self.r_star.append(ref.equal_radius(n, k - 1, q[k]))
        self.digests = None

    def _args(self, i: int) -> list:
        n, k, r0, eps, mode = self.shapes[i]
        return ["run", "--n", str(n), "--k", str(k), "--N", str(self.N),
                "--shape", f"perturbed:{r0!r},{eps!r},{mode}",
                "--seed", str(self.seed), "--out", self._dir(i)]

    def _dir(self, i: int) -> str:
        n, k = self.shapes[i][:2]
        return os.path.join(self.out_dir, f"n{n}k{k}")

    def setup(self) -> None:
        # what each run builds before its first step
        for n, k, r0, eps, mode in self.shapes:
            shape = flow.ShapeSpec(kind="perturbed", r0=r0, eps=eps, mode=mode)
            profile = shape.build(n, self.N)
            quermass.quermass_vector(hypersurface.geometry(profile, k), profile)

    def run_pass(self) -> dict:
        for i in range(len(self.shapes)):
            shutil.rmtree(self._dir(i), ignore_errors=True)
        errors, codes = [], []
        log = io.StringIO()
        with Stopwatch() as clock, contextlib.redirect_stdout(log):
            for i in range(len(self.shapes)):
                codes.append(self._attempt(errors, f"run {i}", cli.main, self._args(i)))
        size = sum(os.path.getsize(os.path.join(self._dir(i), f))
                   for i in range(len(self.shapes)) for f in BUNDLE
                   if os.path.exists(os.path.join(self._dir(i), f)))
        return {**clock.times(), "failed": sum(c is None for c in codes),
                "codes": codes, "errors": errors, "bundle_bytes": size}

    def check(self, result: dict) -> list:
        bad = []
        steps = rejected = 0
        radius_err = 0.0
        digests = []
        for i, (n, k, r0, eps, mode) in enumerate(self.shapes):
            tag = f"n={n},k={k}"
            code = result["codes"][i]
            if code is None:
                continue
            if code != 0:
                bad.append(f"{tag}: CLI exit code {code}")
                continue
            out = self._dir(i)
            summary = _read_json(os.path.join(out, "summary.json"))
            if summary["termination"] != "converged":
                bad.append(f"{tag}: termination {summary['termination']}")
            steps += int(summary["steps"])
            rejected += int(summary["rejections"])
            rho = np.asarray(_read_json(os.path.join(out, "final.json"))["rho"])
            spread = float(np.ptp(rho))
            if not spread <= 1e-4:
                bad.append(f"{tag}: final spread {spread:.3e} > 1e-4")
            err = float(np.max(np.abs(rho - self.r_star[i])))
            radius_err = max(radius_err, err)
            if not err <= 1e-4:
                bad.append(f"{tag}: limit radius off r* by {err:.3e} > 1e-4")
            bad.extend(f"{tag}: {m}" for m in _trace_checks(
                os.path.join(out, "trace.csv"), n, k, _h(self.N)))
            digests.append([_sha256(os.path.join(out, f)) for f in BUNDLE])
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            bad.append("bundles differ from the first pass's")
        result.update(steps=steps, radius_err=radius_err, flow_steps=steps,
                      flow_rejected=rejected)
        return bad


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _trace_checks(path: str, n: int, k: int, h: float) -> list:
    """Conservation of A_{k-1} and the monotone order of the other A_l."""
    with open(path) as fh:
        fh.readline()
        header = fh.readline().strip().split(",")
    cols = [header.index("t")] + [header.index(f"A_{l}") for l in range(-1, n + 1)]
    data = np.loadtxt(path, delimiter=",", skiprows=2, usecols=cols, ndmin=2)
    t, a = data[:, 0], data[:, 1:]
    bad = []
    if not np.all(np.isfinite(data)):
        bad.append("trace has values that are not finite")
    if not np.all(np.diff(t) > 0.0):
        bad.append("trace times not increasing")
    kept = a[:, k]  # column of A_{k-1}
    drift = float(np.max(np.abs(kept - kept[0]))) / max(1.0, abs(kept[0]))
    if not drift <= 1e-4:
        bad.append(f"A_{k - 1} drift {drift:.3e} > 1e-4")
    # the monitors' per-step allowance: (1e-8 + h^2 dt) * max(1, |A_l|)
    dt = np.diff(t)
    for l in range(-1, n + 1):
        if l == k - 1:
            continue
        col = a[:, l + 1]
        d = np.diff(col)
        slack = (1e-8 + h**2 * dt) * np.maximum(1.0, np.abs(col[1:]))
        wrong = d < -slack if l < k - 1 else d > slack
        if np.any(wrong):
            bad.append(f"A_{l} moves the wrong way at {int(np.count_nonzero(wrong))} rows")
    return bad


class Cross(Workload):
    """Graph and support-function solvers side by side to t = 0.1."""

    name = "cross"
    GRIDS = (128, 256)
    T_END = 0.1

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        # (n, k, r0, eps, mode): the two reference shapes, jittered slightly
        self.shapes = [
            (2, 1, _jitter(self.rng, 0.8, 0.005), 0.05 * _jitter(self.rng, 1.0, 0.01), 2),
            (3, 2, _jitter(self.rng, 0.9, 0.005), 0.03 * _jitter(self.rng, 1.0, 0.01), 2),
        ]
        self.ops_per_pass = len(self.shapes) * len(self.GRIDS)
        self.configs = []

    def setup(self) -> None:
        self.configs = []
        for n, k, r0, eps, mode in self.shapes:
            shape = flow.ShapeSpec(kind="perturbed", r0=r0, eps=eps, mode=mode)
            for N in self.GRIDS:
                self.configs.append(flow.FlowConfig(
                    n=n, k=k, N=N, initial_shape=shape, t_max=self.T_END,
                    convergence_tol=0.0, sample_every=10**9))
                profile = shape.build(n, N)
                quermass.quermass_vector(hypersurface.geometry(profile, k), profile)
                dualflow.dual_from_profile(profile)

    @staticmethod
    def _solve(config):
        primal = flow.run(config)
        dual = dualflow.dual_run(config)
        pulled = dualflow.profile_from_dual(dual.state, config.N)
        return primal, dual, pulled

    def run_pass(self) -> dict:
        errors = []
        with Stopwatch() as clock:
            outs = [self._attempt(errors, f"n={c.n},k={c.k},N={c.N}", self._solve, c)
                    for c in self.configs]
        return {**clock.times(), "failed": sum(o is None for o in outs),
                "outs": outs, "errors": errors}

    def check(self, result: dict) -> list:
        bad = []
        gaps = {}
        steps = flow_steps = flow_rej = dual_rej = 0
        for config, out in zip(self.configs, result["outs"]):
            if out is None:
                continue
            primal, dual, pulled = out
            tag = f"n={config.n},k={config.k},N={config.N}"
            for label, res in (("graph", primal), ("support", dual)):
                if res.termination != "tmax" or abs(res.t_final - self.T_END) > 1e-12:
                    bad.append(f"{tag} {label} solver: {res.termination} at t={res.t_final}")
            steps += primal.steps + dual.steps
            flow_steps += primal.steps
            flow_rej += primal.rejections
            dual_rej += dual.rejections
            gaps[config.n, config.N] = float(np.max(np.abs(primal.profile.rho - pulled.rho)))
        coarse, fine = self.GRIDS
        finest = []
        for n, k, *_ in self.shapes:
            if (n, fine) in gaps:
                finest.append(gaps[n, fine])
                if not gaps[n, fine] < 1e-6:
                    bad.append(f"n={n},k={k}: gap(N={fine}) {gaps[n, fine]:.3e} >= 1e-6")
            if (n, coarse) in gaps and (n, fine) in gaps:
                ratio = gaps[n, coarse] / gaps[n, fine]
                if not 3.0 <= ratio <= 6.0:
                    bad.append(f"n={n},k={k}: gap ratio {ratio:.3f} outside [3, 6]")
        result.update(steps=steps, flow_steps=flow_steps, flow_rejected=flow_rej,
                      dual_rejected=dual_rej)
        if finest:
            result["radius_err"] = max(finest)
        return bad


class Verify(Workload):
    """The checks that need no time integration."""

    name = "verify"
    DIMS = (2, 3, 4)
    GRIDS = (65, 257, 1025, 4097)
    RANDOM_PER_DIM = 2

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        # per dimension: the fixed reference shape, random convex shapes and
        # one geodesic sphere of random radius
        self.specs = []
        for n in self.DIMS:
            self.specs.append(("fixed", n, 0.8, 0.05, 2))
            drawn = 0
            while drawn < self.RANDOM_PER_DIM:
                r0 = float(self.rng.uniform(0.45, 1.05))
                eps = float(self.rng.uniform(0.02, 0.1))
                mode = int(self.rng.integers(2, 5))
                if ref.Profile(n, r0, eps, mode).min_curvature() < 0.1:
                    continue
                self.specs.append(("random", n, r0, eps, mode))
                drawn += 1
            self.specs.append(("sphere", n, float(self.rng.uniform(0.3, 1.1)), 0.0, 0))
        self.quermass_ref = [
            ref.sphere_quermass(n, r0) if kind == "sphere"
            else ref.Profile(n, r0, eps, mode).quermass()
            for kind, n, r0, eps, mode in self.specs
        ]
        self.checkpoint_t = float(self.rng.uniform(0.0, 10.0))
        self.studies = [
            ("minkowski_study", {"n": 2}),
            ("minkowski_study", {"n": 3}),
            ("evolution_study", {"n": 2, "k": 1}),
            ("evolution_study", {"n": 3, "k": 2}),
            ("functional_study", {"n": 2, "k": 1}),
        ]
        self.ops_per_pass = 1 + len(self.specs) * len(self.GRIDS) + len(self.studies)
        self.profiles = []

    def setup(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        self.profiles = []
        for kind, n, r0, eps, mode in self.specs:
            for N in self.GRIDS:
                if kind == "sphere":
                    self.profiles.append(hypersurface.RadialProfile.geodesic_sphere(n, r0, N))
                else:
                    self.profiles.append(
                        hypersurface.RadialProfile.perturbed(n, r0, eps, mode, N))
        # the audit's radius-to-A_k guard tables
        for n in self.DIMS:
            sphere = hypersurface.RadialProfile.geodesic_sphere(n, 0.8, self.GRIDS[0])
            quermass.audit_inequalities(quermass.quermass_vector(
                hypersurface.geometry(sphere, n - 1), sphere))

    def _profile_op(self, index: int, profile):
        k = profile.n - 1
        q = quermass.quermass_vector(hypersurface.geometry(profile, k), profile)
        report = quermass.audit_inequalities(q, seed=self.seed)
        path = os.path.join(self.out_dir, f"ck_{index:03d}.json")
        hypersurface.save_checkpoint(profile, k, self.checkpoint_t, path)
        loaded = hypersurface.load_checkpoint(path)
        return q, report, loaded

    def run_pass(self) -> dict:
        errors = []
        with Stopwatch() as clock:
            suite = self._attempt(errors, "identity suite", identities.run_identity_suite,
                                  8, 10000, self.seed)
            battery = [self._attempt(errors, f"profile {i}", self._profile_op, i, p)
                       for i, p in enumerate(self.profiles)]
            study = [self._attempt(errors, f"{name} {kw}",
                                   lambda name=name, kw=kw: getattr(studies, name)(**kw))
                     for name, kw in self.studies]
        failed = (suite is None) + sum(b is None for b in battery) + sum(s is None for s in study)
        return {**clock.times(), "failed": failed, "suite": suite,
                "battery": battery, "study": study, "errors": errors}

    def check(self, result: dict) -> list:
        bad = []
        suite = result["suite"]
        if suite is not None:
            failing = [c.line() for c in suite.checks if not c.passed]
            if failing or len(suite.checks) < 385:
                bad.append(f"identity suite: {len(suite.checks) - len(failing)}/"
                           f"{len(suite.checks)} checks passed (385 expected)")
        radius_err = 0.0
        ngrid = len(self.GRIDS)
        for s, (kind, n, r0, eps, mode) in enumerate(self.specs):
            tag = f"{kind} n={n} r0={r0:.4f} eps={eps:.4f} mode={mode}"
            outs = result["battery"][s * ngrid:(s + 1) * ngrid]
            exact = self.quermass_ref[s]
            area = ref.sphere_area(n)
            an_err = []
            for N, out in zip(self.GRIDS, outs):
                if out is None:
                    continue
                q, report, (loaded, k_back, t_back) = out
                profile = self.profiles[s * ngrid + self.GRIDS.index(N)]
                h = _h(N)
                values = np.asarray(q.values)
                an_err.append((h, abs(values[-1] - area)))
                vol_err = abs(values[0] - exact[0]) / exact[0]
                if not vol_err <= max(h**4, 1e-12):
                    bad.append(f"{tag} N={N}: volume off quadrature by {vol_err:.3e} > h^4")
                if kind == "sphere":
                    gaps = np.abs(np.asarray(report.scaled_gaps(), dtype=float))
                    # quadrature error, amplified by the radius inversion
                    if not report.entries or not np.all(gaps <= max(10.0 * h**4, 1e-10)):
                        bad.append(f"{tag} N={N}: sphere audit gaps {gaps.tolist()} "
                                   "empty or > 10 h^4")
                else:
                    vol_gaps = np.asarray([e["gap"] for e in report.entries if e["l"] == -1],
                                          dtype=float)
                    if not vol_gaps.size or not np.all(vol_gaps >= 0.0):
                        bad.append(f"{tag} N={N}: volume gaps {vol_gaps.tolist()} "
                                   "not all >= 0")
                if kind == "fixed":
                    radius_err = max(radius_err, max(
                        abs(ref.equal_radius(n, l, values[l + 1])
                            - ref.equal_radius(n, l, exact[l + 1]))
                        for l in range(-1, n)))
                same = (loaded.n == profile.n and k_back == n - 1
                        and t_back == self.checkpoint_t
                        and np.array_equal(loaded.theta, profile.theta)
                        and np.array_equal(loaded.rho, profile.rho))
                if not same:
                    bad.append(f"{tag} N={N}: checkpoint round trip not exact")
            if kind == "sphere":
                for h, err in an_err:
                    if not err <= h**2 * area:
                        bad.append(f"{tag}: A_n off |S^n| by {err:.3e}")
            elif len(an_err) == ngrid and not np.all(np.isfinite(an_err)):
                bad.append(f"{tag}: A_n errors {an_err} not finite")
            elif len(an_err) == ngrid:
                # the three finest grids: at N=65 a mode-4 shape in n=4 is not
                # yet in the asymptotic range (local order 1.3 from N=65 to 129)
                finest = an_err[1:]
                order = float(np.polyfit(np.log([h for h, _ in finest]),
                                         np.log([e for _, e in finest]), 1)[0])
                if not order >= 1.9:
                    bad.append(f"{tag}: A_n converges at order {order:.3f} < 1.9")
        steps = 0
        for (name, kw), out in zip(self.studies, result["study"]):
            if out is None:
                continue
            orders = np.asarray(list(out["orders"].values()) if "orders" in out
                                else [out["orderU"], out["orderF"]], dtype=float)
            if not orders.size or not np.all(orders >= 1.9):
                bad.append(f"{name} {kw}: orders {orders.tolist()} not all >= 1.9")
            if name != "minkowski_study":
                # each refinement level of these studies takes one time step
                steps += len(out["sizes"])
        result.update(steps=steps, radius_err=radius_err)
        return bad


WORKLOADS = {w.name: w for w in (Converge, Cross, Verify)}
