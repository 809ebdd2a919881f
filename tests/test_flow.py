import dataclasses
import gc
import glob
import json
import math
import os
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

import sphereflow.dualflow as dualflow_module
import sphereflow.flow as flow_module
import sphereflow.hypersurface as hypersurface_module
import sphereflow.quermass as quermass_module
from sphereflow import ConeViolation, RadialProfile, dual_run, geometry
from sphereflow.exceptions import StepRejected
from sphereflow.flow import (
    FlowConfig,
    Monitors,
    ShapeSpec,
    _first_step,
    _gershgorin_dt,
    _jacobian,
    _rk4,
    _stage_rate,
    evolution_residuals,
    functional_derivative_residuals,
    run,
    speed,
    step,
)
from sphereflow.hypersurface import curvatures, load_checkpoint
from sphereflow.quermass import QuermassVector, _sphere_radius, quermass_vector
from sphereflow.symfunc import identity_quotient

import oracles


def _perturbed_config(N=65, n=2, k=1, **kw):
    shape = ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2)
    return FlowConfig(n=n, k=k, N=N, initial_shape=shape, **kw)


def test_sphere_speed_vanishes():
    for n, k, r in ((2, 1, 0.8), (3, 2, 0.6), (4, 0, 1.1)):
        st = geometry(RadialProfile.geodesic_sphere(n, r, 129), k)
        assert float(np.max(np.abs(speed(st)))) < 1e-13


def test_sphere_step_is_stationary():
    prof = RadialProfile.geodesic_sphere(2, 0.8, 129)
    nxt = step(prof, 1e-3, 1)
    assert float(np.max(np.abs(nxt.rho - prof.rho))) <= 1e-14


def test_sphere_run_converges_without_stepping():
    cfg = FlowConfig(n=2, k=1, N=65, initial_shape=ShapeSpec(kind="geodesicSphere", r=0.8))
    res = run(cfg)
    assert res.termination == "converged"
    assert res.steps == 0 and res.t_final == 0.0 and res.rate_evaluations == 0
    assert len(res.trace.t) == 1 and res.violations == {}


def test_step_rejects_bad_dt():
    prof = RadialProfile.geodesic_sphere(2, 0.8, 65)
    with pytest.raises(ValueError):
        step(prof, 0.0, 1)
    with pytest.raises(ValueError):
        step(prof, -1e-3, 1)


def test_oversized_step_is_rejected():
    prof = RadialProfile.perturbed(2, 0.8, 0.05, 2, 129)
    # far beyond the parabolic limit: the trial stage leaves the chart
    with pytest.raises(StepRejected):
        step(prof, 50.0, 1)
    # milder overshoot still loses the curvature cone in a stage
    with pytest.raises(StepRejected):
        step(prof, 1.0, 1)


def _rule_dt(prof: RadialProfile, k: int, dt_max: float) -> float:
    """The Gershgorin step of RK4 and the studies at the Jacobian of the graph rate at prof."""
    return _gershgorin_dt(_jacobian(lambda rho: _stage_rate(prof.n, k, prof.grid, rho),
                                    prof.rho), dt_max)


def test_gershgorin_dt_formula_and_cap():
    prof = RadialProfile.perturbed(2, 0.8, 0.05, 2, 129)
    bands = _jacobian(lambda rho: _stage_rate(2, 1, prof.grid, rho), prof.rho)
    J = _dense(bands)
    g = float(np.max(np.sum(np.abs(J), axis=1)))
    assert np.max(np.abs(np.linalg.eigvals(J))) <= g  # G bounds the spectral radius
    assert _gershgorin_dt(bands, 1.0) == pytest.approx(0.8 / g, rel=1e-15)
    assert _gershgorin_dt(bands, 1.0, 0.25) == pytest.approx(0.25 / g, rel=1e-15)
    assert _gershgorin_dt(bands, 1e-9) == 1e-9
    for degenerate in (np.zeros((3, 5)), np.full((3, 5), np.nan), np.full((3, 5), np.inf)):
        assert _gershgorin_dt(degenerate, 0.2) == 0.2


def test_first_step_formula_and_caps():
    """The least of d0 / d1, (0.01 / max(d1, d2, d3))^(1/4) and h_max, for d_m
    the RMS of y's m-th derivative, y'' = J f and y''' = J J f, over the error
    test's scale; a zero rate leaves h_max alone."""
    # hand-built bands, with the corner entries _jacobian leaves 0
    J = np.array([[0.0, 1.0, 2.0, 1.0], [-4.0, -3.0, -5.0, -2.0], [1.0, 0.5, 1.5, 0.0]])
    y = np.array([0.5, 0.8, 0.7, 0.6])
    scale = 1e-6 + 1e-3 * np.abs(y)  # atol + |y| rtol

    def rms(x):
        return float(np.sqrt(np.mean((x / scale) ** 2)))

    for f, binding in ((np.array([0.1, -0.2, 0.05, 0.3]), "h1"), (np.full(4, 1e6), "h0")):
        d = [rms(x) for x in (y, f, _dense(J) @ f, _dense(J) @ _dense(J) @ f)]
        h0, h1 = d[0] / d[1], (0.01 / max(d[1:])) ** 0.25
        assert (h0 < h1) == (binding == "h0")
        assert _first_step(J, y, f, scale, 1.0) == pytest.approx(min(h0, h1), rel=1e-14)
        assert _first_step(J, y, f, scale, 1e-9) == 1e-9
    # with J = 0, y'' and y''' vanish and d1 alone sets the second term
    f = np.array([0.1, -0.2, 0.05, 0.3])
    d0, d1 = rms(y), rms(f)
    assert _first_step(np.zeros((3, 4)), y, f, scale, 1.0) == pytest.approx(
        min(d0 / d1, (0.01 / d1) ** 0.25), rel=1e-14)
    # a zero rate leaves h_max alone
    assert _first_step(J, y, np.zeros(4), scale, 0.3) == 0.3


def _decay_stepper(accept, t_bound):
    """A bare _Stepper on y' = -y from y = 1 at five nodes, to t_bound, uncapped."""
    return flow_module._Stepper(lambda y: -y, accept, np.ones(5), t_bound, math.inf, (1e-2, 1e-5))


def test_the_first_step_stops_at_t_bound():
    """The rule's step is 0.1 here: a stepper bound at 0.05 takes one step, onto t_bound."""
    solver = _decay_stepper(lambda y: y, 0.05)
    assert _first_step(solver._jac(solver.y), solver.y, -solver.y, 1e-5 + 1e-2 * solver.y,
                       math.inf) == pytest.approx(0.1, rel=1e-2)
    solver.step(-solver.y)
    assert solver.t == 0.05


def test_a_step_within_its_least_step_of_t_bound_lands_on_it():
    """After a retry the step is the span tried, t_new - t, which can be one ulp
    short of the step meant: from t = 0.9371046158037891 two such halves of
    t_bound - t once stopped at 0.9999999999999999, which the run loop took for
    t_max.  A step that would end within its least step of t_bound ends on it."""
    refused = []

    def accept(y):
        if not refused:  # the first trial, t_bound - t, is refused
            refused.append(y)
            raise StepRejected("forced refusal")
        return y

    solver = _decay_stepper(accept, 1.0)
    solver.t = 0.9371046158037891
    solver.step(-solver.y)
    assert solver.t == 0.9685523079018945 and solver.rejections == 1
    solver.step(-solver.y)
    assert solver.t == 1.0


def test_flow_config_validation():
    shape = ShapeSpec(kind="geodesicSphere", r=0.8)
    with pytest.raises(ValueError):
        FlowConfig(n=2, k=2, N=65, initial_shape=shape)
    with pytest.raises(ValueError):
        FlowConfig(n=2, k=-1, N=65, initial_shape=shape)
    with pytest.raises(ValueError):
        FlowConfig(n=2, k=1, N=4, initial_shape=shape)
    # a shape's JSON form is refused here, not at to_json or run
    with pytest.raises(ValueError, match="ShapeSpec"):
        FlowConfig(n=2, k=1, N=65, initial_shape=shape.to_json())


@pytest.mark.parametrize("bad", [
    {"sampleEvery": 0}, {"sampleEvery": -3}, {"checkpointEvery": -1},
    {"tMax": math.nan}, {"tMax": math.inf}, {"tMax": -1.0}, {"tMax": 0.0},
    # a NaN stop criterion would silently switch it off
    {"convergenceTol": math.nan}, {"convergenceTol": math.inf},
    {"convergenceTol": -1e-6},
    # the monitor thresholds and the blow-up stop are constants, not settings
    {"blowupThreshold": math.nan}, {"blowupThreshold": 1e3},
    {"monitorTolerances": {"sign": 1e-8}}, {"monitorTolerances": {"barrier": 1e-8}},
    {"monitorTolerances": {"conservation": 1e-4}},
    {"monitorTolerances": {"quotient_ratio": 1.5}}, {"monitorTolerances": {}},
    # k = 0 is in range for n = 1, but the flow needs a surface of dimension >= 2
    {"n": 1, "k": 0},
    {"dtMax": 0.0}, {"dtMax": math.inf}, {"dtMax": math.nan},
])
def test_flow_config_rejects_bad_run_settings(bad):
    with pytest.raises(ValueError):
        FlowConfig.from_json({**_perturbed_config().to_json(), **bad})


@pytest.mark.parametrize("key", ["n", "k", "N", "sampleEvery", "checkpointEvery"])
def test_flow_config_json_refuses_fractional_counts(key):
    payload = _perturbed_config(sample_every=2, checkpoint_every=4).to_json()
    # whole numbers written as floats are taken, fractions are not truncated
    whole = FlowConfig.from_json({**payload, key: float(payload[key])})
    assert whole == FlowConfig.from_json(payload)
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        FlowConfig.from_json({**payload, key: payload[key] + 0.9})


def test_json_payloads_must_be_objects():
    payload = _perturbed_config().to_json()
    with pytest.raises(ValueError, match="JSON object"):
        FlowConfig.from_json([payload])
    with pytest.raises(ValueError, match="JSON object"):
        ShapeSpec.from_json([payload["initialShape"]])


def test_flow_config_accepts_edge_run_settings():
    # a fixed-horizon run that samples only its endpoints
    cfg = _perturbed_config(t_max=0.1, convergence_tol=0.0, sample_every=10**9,
                            checkpoint_every=0)
    assert cfg.sample_every == 10**9


def test_shape_spec_validation():
    with pytest.raises(ValueError):
        ShapeSpec(kind="ellipsoid")
    with pytest.raises(ValueError):
        ShapeSpec(kind="geodesicSphere")
    with pytest.raises(ValueError):
        ShapeSpec(kind="perturbed", r0=0.8, eps=0.05)
    with pytest.raises(ValueError):
        ShapeSpec(kind="custom", theta=np.linspace(0, math.pi, 9))
    # custom samples run strictly from pole to pole, one rho per theta
    rho = np.full(9, 0.8)
    for theta in (np.linspace(0.5, 2.5, 9), np.linspace(math.pi, 0.0, 9),
                  np.r_[0.0, 0.0, np.linspace(0.5, math.pi, 7)]):
        with pytest.raises(ValueError, match="theta"):
            ShapeSpec(kind="custom", theta=theta, rho=rho)
    with pytest.raises(ValueError, match="theta"):
        ShapeSpec(kind="custom", theta=np.linspace(0.0, math.pi, 9), rho=rho[:8])
    ShapeSpec(kind="custom", theta=np.linspace(1e-13, math.pi - 1e-13, 9), rho=rho)
    # JSON modes are not truncated to an integer
    payload = {"kind": "perturbed", "r0": 0.8, "eps": 0.05, "mode": 2.5}
    with pytest.raises(ValueError):
        ShapeSpec.from_json(payload)
    with pytest.raises(ValueError):
        ShapeSpec.from_json({**payload, "mode": 0})
    assert ShapeSpec.from_json({**payload, "mode": 2.0}).mode == 2


def test_shape_spec_json_roundtrip():
    for spec in (
        ShapeSpec(kind="geodesicSphere", r=0.7),
        ShapeSpec(kind="perturbed", r0=0.9, eps=0.02, mode=3),
    ):
        back = ShapeSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert back == spec
    theta = np.linspace(0.0, math.pi, 17)
    rho = 0.8 + 0.01 * np.cos(2 * theta)
    spec = ShapeSpec(kind="custom", theta=theta, rho=rho)
    back = ShapeSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert back.kind == "custom"
    assert np.allclose(back.theta, theta) and np.allclose(back.rho, rho)
    with pytest.raises(ValueError):
        ShapeSpec.from_json({"kind": "nope"})


def test_custom_shape_resamples_to_grid():
    # samples off the run's grid, on uniform nodes and on nodes that as_grid refuses
    for coarse in (np.linspace(0.0, math.pi, 33), math.pi * (np.arange(33) / 32) ** 1.3):
        spec = ShapeSpec(kind="custom", theta=coarse, rho=0.8 + 0.02 * np.cos(2 * coarse))
        prof = spec.build(2, 129)
        assert prof.N == 129
        target = 0.8 + 0.02 * np.cos(2 * prof.theta)
        assert float(np.max(np.abs(prof.rho - target))) < 1e-5


def test_flow_config_json_roundtrip():
    cfg = _perturbed_config(
        t_max=1.5,
        convergence_tol=1e-7,
        sample_every=10,
        checkpoint_every=25,
        dt_max=0.01,
    )
    payload = json.loads(json.dumps(cfg.to_json()))
    assert payload["dtMax"] == 0.01
    assert payload["initialShape"]["kind"] == "perturbed"
    back = FlowConfig.from_json(payload)
    assert back == cfg


def test_flow_config_wire_format():
    theta = [0.0, math.pi / 2, math.pi]
    cfg = FlowConfig(
        n=3, k=2, N=129,
        initial_shape=ShapeSpec(kind="custom", theta=np.array(theta),
                                rho=np.array([0.7, 0.75, 0.7])),
        dt_max=0.01,
        t_max=2.5,
        convergence_tol=1e-7,
        sample_every=7,
        checkpoint_every=3,
    )
    assert cfg.to_json() == {
        "n": 3,
        "k": 2,
        "N": 129,
        "dtMax": 0.01,
        "tMax": 2.5,
        "convergenceTol": 1e-7,
        "initialShape": {"kind": "custom", "theta": theta, "rho": [0.7, 0.75, 0.7]},
        "sampleEvery": 7,
        "checkpointEvery": 3,
    }
    shapes = (ShapeSpec(kind="geodesicSphere", r=0.6),
              ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=3))
    assert [shape.to_json() for shape in shapes] == [
        {"kind": "geodesicSphere", "r": 0.6},
        {"kind": "perturbed", "r0": 0.8, "eps": 0.05, "mode": 3}]


def test_config_schema_covers_every_field():
    """A new FlowConfig field cannot drop out of the wire format."""
    assert ({name for name, _ in flow_module._CONFIG_KEYS.values()}
            == {f.name for f in dataclasses.fields(FlowConfig)})
    # each shape kind lists the fields it needs, and together they are all
    kinds = ShapeSpec.FIELDS.values()
    assert {"kind"}.union(*kinds) == {f.name for f in dataclasses.fields(ShapeSpec)}


def test_flow_config_json_takes_dataclass_defaults():
    payload = {"n": 2, "k": 1, "N": 65,
               "initialShape": {"kind": "perturbed", "r0": 0.8, "eps": 0.05, "mode": 2}}
    assert FlowConfig.from_json(payload) == _perturbed_config()
    partial = FlowConfig.from_json({**payload, "dtMax": 0.01})
    assert partial == _perturbed_config(dt_max=0.01)


def test_run_stops_at_tmax():
    res = run(_perturbed_config(t_max=0.02))
    assert res.termination == "tmax"
    assert res.t_final == pytest.approx(0.02, rel=1e-12)
    assert res.steps > 0 and res.violations == {}
    # three Radau stages per Newton iteration and at least two iterations per
    # accepted step; an accepted state's rate comes from its geometry, which
    # makes no rate call, and so does the first iteration of the first step,
    # whose stages all sit at the start vector
    assert res.rate_evaluations >= 6 * res.steps - 3


def test_run_reports_curvature_blowup(monkeypatch):
    monkeypatch.setattr(flow_module, "_BLOWUP_CURVATURE", 0.5)
    res = run(_perturbed_config())
    assert res.termination == "curvature_blowup"


def test_run_refuses_checkpoints_without_out_dir(monkeypatch):
    def no_step(*args):
        raise AssertionError("a refused config reached the time loop")

    monkeypatch.setattr(flow_module, "_integrate", no_step)
    with pytest.raises(ValueError, match="checkpoint_every"):
        run(_perturbed_config(checkpoint_every=2))


@pytest.mark.parametrize("sample_every", [1, 7])
def test_run_violations_count_the_codes_check_returned(monkeypatch, sample_every):
    """A small-radius start whose A_2 rises past the sign slack in five of its
    19 steps: at sampleEvery 7 the five flags share one row, and violations
    still counts each code once, as Monitors.check returned it."""
    returned = []
    real = Monitors.check

    def check(self, *args):
        codes = real(self, *args)
        returned.extend(codes)
        return codes

    monkeypatch.setattr(Monitors, "check", check)
    shape = ShapeSpec(kind="perturbed", r0=0.05, eps=0.0025, mode=2)
    res = run(FlowConfig(n=2, k=0, N=129, initial_shape=shape, sample_every=sample_every))
    assert res.steps == 19
    assert res.violations == {"SIGN_A2": 5}
    assert res.violations == dict(Counter(returned))
    assert sum(1 for flags in res.trace.violations if flags) == (5 if sample_every == 1 else 1)


def test_run_writes_checkpoints(tmp_path):
    # Radau reaches t=0.02 in a handful of steps
    res = run(_perturbed_config(t_max=0.02, checkpoint_every=2, sample_every=10),
              out_dir=str(tmp_path))
    files = sorted(os.path.basename(p) for p in glob.glob(str(tmp_path / "ck_*.json")))
    assert res.steps >= 2 and files and files[0] == "ck_00000002.json"
    prof, k, t = load_checkpoint(tmp_path / files[-1])
    assert k == 1 and t > 0.0 and prof.N == 65


def test_trace_csv_format(tmp_path):
    res = run(_perturbed_config(t_max=0.02, sample_every=4))
    path = tmp_path / "trace.csv"
    res.trace.to_csv(path, seed=7)
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=7"
    cols = lines[1].split(",")
    assert cols[:5] == ["t", "A_-1", "A_0", "A_1", "A_2"]
    assert cols[-1] == "violationFlags"
    assert len(lines) == 2 + len(res.trace.t)
    # every data row carries one cell per column
    assert all(len(line.split(",")) == len(cols) for line in lines[2:])
    u_col = res.trace.column("minU")
    assert u_col.shape == (len(res.trace.t),)
    with pytest.raises(KeyError):
        res.trace.column("noSuchColumn")
    with pytest.raises(KeyError):
        res.trace.column("violationFlags")


def test_trace_rejects_stale_timestamps():
    res = run(_perturbed_config(t_max=0.01, sample_every=4))
    tr = res.trace
    last = [column[-1] for column in list(tr.columns.values())[1:]]
    with pytest.raises(ValueError):
        tr.append(tr.t[-1], last, [])


def test_monitors_flag_doctored_states():
    cfg = _perturbed_config()
    sphere = RadialProfile.geodesic_sphere(2, 0.8, 65)
    st0 = geometry(sphere, 1)
    q0 = quermass_vector(st0, sphere)
    mon = Monitors(cfg, st0, q0)

    grown = RadialProfile.geodesic_sphere(2, 1.3, 65)
    st1 = geometry(grown, 1)
    q1 = quermass_vector(st1, grown)
    codes = mon.check(q0, q1, st1, 1e-3)
    assert set(codes) == {"RHO_MAX", "F_RANGE", "SIGN_A0", "SIGN_A1", "CONSERVATION"}

    shrunk = RadialProfile.geodesic_sphere(2, 0.3, 65)
    st2 = geometry(shrunk, 1)
    q2 = quermass_vector(st2, shrunk)
    codes = mon.check(q1, q2, st2, 1e-3)
    assert {"RHO_MIN", "U_MIN", "F_RANGE"} <= set(codes)

    bumpy = RadialProfile.perturbed(2, 0.8, 0.28, 6, 65)
    st3 = geometry(bumpy, 0)
    assert st3.lam_min < 0.0
    # nonconvex states carry no quermass vector; reuse q2 to isolate LAMBDA_MIN
    codes = mon.check(q2, q2, st3, 1e-3)
    assert "LAMBDA_MIN" in codes


@pytest.mark.parametrize("r", [0.8, 1.3])
def test_monitor_barriers_flag_just_past_their_threshold(r):
    """Each barrier flags a step whose extreme crosses its start's by just
    over _BARRIER_TOL = 1e-8 times max(1, |extreme|), and not one by just
    under; at r = 1.3 rho lies above 1, so its slack scales with rho.  The
    threshold is written out, so that a changed constant fails here."""
    n, k = 2, 1
    sphere = RadialProfile.geodesic_sphere(n, r, 33)
    st = geometry(sphere, k)
    q = quermass_vector(st, sphere)
    mon = Monitors(FlowConfig(n=n, k=k, N=33, initial_shape=ShapeSpec(kind="geodesicSphere", r=r)),
                   st, q)
    # the extremes' order: min u, min rho, max rho, min F, max F
    for code, i, direction in (("U_MIN", 0, -1.0), ("RHO_MIN", 1, -1.0), ("RHO_MAX", 2, 1.0)):
        for m, expected in ((1.001, [code]), (0.999, [])):
            extremes = list(st.extremes)
            extremes[i] += direction * m * 1e-8 * max(1.0, abs(extremes[i]))
            doctored = dataclasses.replace(st)
            doctored.extremes = tuple(extremes)
            assert mon.check(q, q, doctored, 0.0) == expected


@pytest.mark.parametrize("base", [0.5, 3.0])
def test_monitor_conservation_flags_just_past_its_threshold(base):
    """CONSERVATION flags a drift of the preserved A_{k-1} from its start of
    just over _CONSERVATION_TOL = 1e-4 times max(1, |A_{k-1}|), either way,
    and not one of just under; a step from q to itself raises no sign code.
    The threshold is written out, so that a changed constant fails here."""
    n = 3
    sphere = RadialProfile.geodesic_sphere(n, 0.7, 33)
    for k in range(n):
        st = geometry(sphere, k)
        cfg = FlowConfig(n=n, k=k, N=33, initial_shape=ShapeSpec(kind="geodesicSphere", r=0.7))
        q0 = QuermassVector(n=n, values=np.full(n + 2, base))
        mon = Monitors(cfg, st, q0)
        for m, expected in ((1.001, ["CONSERVATION"]), (-1.001, ["CONSERVATION"]),
                            (0.999, []), (-0.999, [])):
            values = q0.values.copy()
            values[k] += m * 1e-4 * max(1.0, base)  # A_{k-1}
            q = QuermassVector(n=n, values=values)
            assert mon.check(q, q, st, 0.0) == expected


def _loop_sign_codes(n, k, q_prev, q, h, dt):
    """The per-index sign rule of Monitors.check, written out as a loop."""
    codes = []
    allowance = flow_module._SIGN_ALLOWANCE * h**2 * dt
    for l in range(-1, n + 1):
        d = q.a(l) - q_prev.a(l)
        slack = (flow_module._SIGN_TOL + allowance) * max(1.0, abs(q.a(l)))
        if (l < k - 1 and d < -slack or l == k - 1 and abs(d) > slack
                or l > k - 1 and d > slack):
            codes.append(f"SIGN_A{l}")
    return codes


@pytest.mark.parametrize("k", [0, 1, 2])
def test_monitor_sign_flags_match_the_loop(k):
    """A table of increments in units of the slack: each index alone at 0,
    +-1 and +-1.5, and all together.  From a zero base at dt = 0 the slack is
    _SIGN_TOL exactly, and so is an increment of one slack: it is not a flag,
    in either direction.  The base at 3 scales the slack with |A_l|, and
    dt > 0 adds the grid allowance."""
    n = 3
    sphere = RadialProfile.geodesic_sphere(n, 0.7, 33)
    st = geometry(sphere, k)
    cfg = FlowConfig(n=n, k=k, N=33, initial_shape=ShapeSpec(kind="geodesicSphere", r=0.7))
    table = [(0.0, 0.0, {l: m})
             for l in range(-1, n + 1) for m in (-1.5, -1.0, 0.0, 1.0, 1.5)]
    table += [(0.0, 0.0, dict.fromkeys(range(-1, n + 1), m)) for m in (-1.5, 1.5)]
    table += [(3.0, dt, dict.fromkeys(range(-1, n + 1), m))
              for dt in (0.0, 1e-3) for m in (-1.5, -0.5, 0.5, 1.5)]
    for base, dt, moves in table:
        allowance = flow_module._SIGN_ALLOWANCE * st.h**2 * dt
        slack = (flow_module._SIGN_TOL + allowance) * max(1.0, base)
        q_prev = QuermassVector(n=n, values=np.full(n + 2, base))
        values = q_prev.values.copy()
        for l, m in moves.items():
            values[l + 1] += m * slack
        q = QuermassVector(n=n, values=values)
        mon = Monitors(cfg, st, q_prev)
        codes = mon.check(q_prev, q, st, dt)
        assert codes == _loop_sign_codes(n, k, q_prev, q, st.h, dt)
        # below k - 1 a fall, at k - 1 any move, above it a rise beyond the slack
        wrong = [l for l, m in sorted(moves.items())
                 if (m < -1.0 if l < k - 1 else abs(m) > 1.0 if l == k - 1 else m > 1.0)]
        assert codes == [f"SIGN_A{l}" for l in wrong]


def test_quiet_step_raises_no_flags():
    cfg = _perturbed_config()
    prof = cfg.initial_shape.build(2, 65)
    st = geometry(prof, 1)
    q = quermass_vector(st, prof)
    mon = Monitors(cfg, st, q)
    dt = _rule_dt(prof, 1, cfg.t_max)  # an RK4 step at the rule: the default caps at tMax only
    nxt = step(prof, dt, 1)
    stn = geometry(nxt, 1)
    assert mon.check(q, quermass_vector(stn, nxt), stn, dt) == []


def test_evolution_residuals_small_on_resolved_pair():
    prof = RadialProfile.perturbed(2, 0.8, 0.05, 2, 129)
    st = geometry(prof, 1)
    dt = _rule_dt(prof, 1, 0.05)
    nxt = step(prof, dt, 1)
    stn = geometry(nxt, 1)
    res_u, res_f = evolution_residuals(st, stn, dt)
    assert res_u < 1e-3
    assert res_f < 1e-2
    # volume rate is quadrature-exact, the curvature rates carry O(h^2)
    res_a = functional_derivative_residuals(prof, nxt, dt, 1)
    assert len(res_a) == 4
    assert res_a[0] < 1e-6
    for l in range(0, 3):
        assert res_a[l + 1] < 1e-2


def _fail_after(fn, calls):
    """fn for its first `calls` calls, then a forced cone exit on every call."""
    count = [0]

    def wrapped(*args):
        count[0] += 1
        if count[0] > calls:
            raise ConeViolation("forced cone exit")
        return fn(*args)

    return wrapped


def test_solver_stages_skip_the_grid_check(monkeypatch):
    raw = []
    real = hypersurface_module.as_grid

    def counting(theta):
        if not isinstance(theta, hypersurface_module.PolarGrid):
            raw.append(theta)
        return real(theta)

    for module in (hypersurface_module, flow_module, dualflow_module):
        monkeypatch.setattr(module, "as_grid", counting)
    cfg = _perturbed_config(N=33, t_max=0.005)
    res = run(cfg)
    dual_run(cfg)
    evolution_residuals(geometry(step(res.profile, 1e-5, 1), 1), geometry(res.profile, 1), 1e-5)
    assert res.steps > 0 and raw == []
    # raw nodes from outside are checked
    RadialProfile(n=2, theta=np.linspace(0.0, math.pi, 33), rho=res.profile.rho)
    assert len(raw) == 1


def test_stages_build_no_full_state(monkeypatch):
    calls = {"geometry": 0, "support_closure": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counting(flow_module, "geometry")
    counting(dualflow_module, "support_closure")
    cfg = _perturbed_config(t_max=0.02)
    res, dual = run(cfg), dual_run(cfg)
    assert res.steps > 0 and dual.steps > 0 and res.rejections == dual.rejections == 0
    # each run's start (the dual one's for _start's checks) and each accepted
    # graph step; the dual start's pullback closes its exact derivatives
    # without support_closure
    assert calls == {"geometry": 2 + res.steps, "support_closure": 1 + dual.steps}


def test_run_matches_the_rk4_oracle():
    # the oracle: explicit RK4 steps at the first-step rule of each step's start,
    # to t = 0.25, where the gap (1.2e-11) is already the one at t = 1 (1.0e-11)
    t_max = 0.25
    cfg = FlowConfig(n=2, k=1, N=128, t_max=t_max, convergence_tol=0.0,
                     initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2))
    res = run(cfg)
    assert res.termination == "tmax" and res.t_final == t_max
    prof, t = cfg.initial_shape.build(2, 128), 0.0
    while t < t_max:
        dt = min(_rule_dt(prof, 1, t_max), t_max - t)
        prof, t = step(prof, dt, 1), t + dt
    assert float(np.max(np.abs(res.profile.rho - prof.rho))) <= 1e-9


@pytest.mark.parametrize("n, k, r0, eps", [(2, 1, 0.8, 0.05), (3, 2, 0.9, 0.03)])
def test_dual_run_matches_the_rk4_oracle(n, k, r0, eps):
    # the oracle: explicit RK4 steps of G at the first-step rule of each
    # step's start, from the same resampled support function
    cfg = FlowConfig(n=n, k=k, N=128, t_max=0.1, convergence_tol=0.0,
                     initial_shape=ShapeSpec(kind="perturbed", r0=r0, eps=eps, mode=2))
    res = dual_run(cfg)
    assert res.termination == "tmax" and res.t_final == 0.1
    prof = cfg.initial_shape.build(n, 128)
    grid = prof.grid
    u, t = dualflow_module._dual_start(prof), 0.0

    def rate(stage):
        return dualflow_module._stage_g(n, k, grid, stage)

    while t < 0.1:
        dt = min(_gershgorin_dt(_jacobian(rate, u), cfg.t_max), 0.1 - t)
        u, t = _rk4(u, dt, rate(u), rate), t + dt
    assert float(np.max(np.abs(res.u - u))) <= 1e-9


def _fail_calls(fn, calls):
    """fn, except for a forced cone exit on the given call numbers."""
    count = [0]

    def wrapped(*args):
        count[0] += 1
        if count[0] in calls:
            raise ConeViolation("forced cone exit")
        return fn(*args)

    return wrapped


def _patch_curvatures(patch, fn):
    """Route the curvature core through fn, both in the Radau rate's stages
    and Jacobians and in geometry, which checks the start and each accepted
    vector and gives the stepper its rate."""
    for module in (hypersurface_module, flow_module):
        patch.setattr(module, "curvatures", fn)


def _step_marks(monkeypatch, config):
    """Clean run of config; curvature-core calls made by the start and each accepted step.

    The monitors' quermass_vector runs once per accepted step, after its
    geometry, so a mark is the number of that geometry call.  The calls of a
    step are its Newton iterations' stage stacks and any Jacobian, then that
    geometry: no rate call falls on an accepted vector.
    """
    calls, marks = [0], []

    def counting(*args):
        calls[0] += 1
        return curvatures(*args)

    def marking(*args):
        marks.append(calls[0])
        return quermass_vector(*args)

    with monkeypatch.context() as patch:
        _patch_curvatures(patch, counting)
        # the start's vector is built in quermass, the monitors' in flow
        patch.setattr(quermass_module, "quermass_vector", marking)
        patch.setattr(flow_module, "quermass_vector", marking)
        res = run(config)
    return res, marks


def test_run_recovers_from_a_stage_cone_exit(monkeypatch):
    cfg = _perturbed_config(t_max=0.02)
    clean, marks = _step_marks(monkeypatch, cfg)
    # the first stage of the second step leaves the cone under the stale J of
    # the first: the trial fails as under a fresh J, and step restarts it
    # once, from the first step's end at half the step tried
    _patch_curvatures(monkeypatch, _fail_calls(curvatures, {marks[1] + 1}))
    res = run(cfg)
    assert res.termination == "tmax" and res.rejections == 1
    assert float(np.max(np.abs(res.profile.rho - clean.profile.rho))) < 1e-9


def test_no_step_grows_right_after_a_retry(monkeypatch):
    """As in RADAU5, the step accepted after a rejection sets the next trial
    no longer than its own span, however small its error estimate."""
    cfg = _perturbed_config(t_max=0.1)
    _, marks = _step_marks(monkeypatch, cfg)
    spans, trial = [], flow_module._Stepper._trial

    def recording(self, f):
        try:
            return trial(self, f)
        finally:
            spans.append(self.tried)

    monkeypatch.setattr(flow_module._Stepper, "_trial", recording)
    # the forced cone exit of test_run_recovers_from_a_stage_cone_exit
    _patch_curvatures(monkeypatch, _fail_calls(curvatures, {marks[1] + 1}))
    res = run(cfg)
    assert res.termination == "tmax" and res.rejections == 1 and res.steps > 3
    # the first step, the failed second trial, its retry and the trial after it
    _, failed, retried, after = spans[:4]
    assert retried == pytest.approx(0.5 * failed, rel=1e-12)
    assert after <= retried


# the two reference shapes (n, k, r0, eps) of mode 2
REFERENCE_SHAPES = [(2, 1, 0.8, 0.05), (3, 2, 0.9, 0.03)]


def _reference_config(n, k, r0, eps, **kw):
    shape = ShapeSpec(kind="perturbed", r0=r0, eps=eps, mode=2)
    return FlowConfig(n=n, k=k, N=128, initial_shape=shape, **kw)


def test_radau_tolerance_follows_the_grid_and_the_stop():
    """rtol = max(1e-8, min(0.1 h^2, convergenceTol)) with h = pi / (N - 1), and
    atol = 1e-3 rtol: a run that stops only at tMax keeps (1e-8, 1e-11) exactly,
    the default stop sets its own 1e-6 up to N ~ 1000 and 0.1 h^2 above."""
    def tolerances(N, tol):
        return flow_module._tolerances(_perturbed_config(N=N, convergence_tol=tol))

    assert tolerances(128, 0.0) == tolerances(4097, 0.0) == (1e-8, 1e-11)
    assert tolerances(128, 1e-6) == tolerances(993, 1e-6) == pytest.approx((1e-6, 1e-9),
                                                                           rel=1e-15)
    for N in (995, 4097):
        h = math.pi / (N - 1)
        assert tolerances(N, 1e-6) == pytest.approx((0.1 * h * h, 1e-4 * h * h), rel=1e-15)
    for N in (5, 64, 129, 1025, 4097, 65537):
        h = math.pi / (N - 1)
        for tol in (0.0, 1e-12, 1e-9, 1e-7, 1e-6, 1e-3, 1.0):
            rtol, atol = tolerances(N, tol)
            assert 1e-8 <= rtol <= max(1e-8, min(0.1 * h * h, tol))
            assert atol == pytest.approx(1e-3 * rtol, rel=1e-15)


@pytest.mark.parametrize("solve", [run, dual_run])
def test_dt_range_spans_the_accepted_steps(solve):
    """dt_range holds the least, the largest and the last span of the accepted
    steps: the trace's steps at tMax; a converged stop may end inside the last
    step.  A run that takes no step has none."""
    res = solve(_perturbed_config(t_max=0.1))
    dt = np.diff(res.trace.t)
    assert res.termination == "tmax"
    assert res.dt_range == {"min": dt.min(), "max": dt.max(), "last": dt[-1]}
    res = solve(_perturbed_config())
    dt = np.diff(res.trace.t)
    last = res.dt_range["last"]
    assert res.termination == "converged" and last >= dt[-1]
    assert res.dt_range == {"min": min(dt[:-1].min(), last), "max": max(dt[:-1].max(), last),
                            "last": last}
    sphere = ShapeSpec(kind="geodesicSphere", r=0.8)
    res = solve(dataclasses.replace(_perturbed_config(), initial_shape=sphere))
    assert (res.termination, res.steps, res.dt_range) == ("converged", 0, None)


@pytest.mark.parametrize("solve", [run, dual_run])
def test_balanced_tolerance_keeps_the_tight_runs_results(monkeypatch, solve):
    """A converged run at the rule's rtol (1e-6 here) against the same run at
    rtol 1e-10, N=64, both at dtMax 0.2: the final state within 0.01 rtol,
    tFinal within 1e3 rtol and the drift of the preserved A_{k-1}, which is
    grid error, within 5%.  The default's tFinal is held to its stated
    resolution (test_default_runs_match_fine_step_runs) instead."""
    n, k, r0, eps = REFERENCE_SHAPES[0]
    cfg = dataclasses.replace(_reference_config(n, k, r0, eps, dt_max=0.2), N=64)
    rtol = flow_module._tolerances(cfg)[0]
    res = solve(cfg)
    monkeypatch.setattr(flow_module, "_tolerances", lambda config: (1e-10, 1e-13))
    tight = solve(cfg)
    assert res.termination == tight.termination == "converged"
    assert res.steps < tight.steps

    def final(result):
        return result.u if solve is dual_run else result.profile.rho

    def drift(result):
        a = result.trace.column(f"A_{k - 1}")
        return abs(a[-1] - a[0])

    assert float(np.max(np.abs(final(res) - final(tight)))) <= 0.01 * rtol
    assert abs(res.t_final - tight.t_final) <= 1e3 * rtol
    assert abs(drift(res) / drift(tight) - 1.0) <= 0.05


@pytest.mark.parametrize("N, t_max, dt_max", [
    *(pytest.param(N, 1.0, 0.2, id=str(N)) for N in (64, 128, 256, 1024)),
    *(pytest.param(N, 10.0, 50.0, id=f"{N}-uncapped") for N in (128, 256)),
])
@pytest.mark.parametrize("n, k, r0, eps", REFERENCE_SHAPES)
def test_both_solvers_match_scipys_radau(n, k, r0, eps, N, t_max, dt_max):
    """The own stepper with the exact Jacobian against scipy's Radau with its
    finite-difference one, on the same rates from the same start to t = 1, or
    to t = 10 with dtMax 50, where the step control alone sizes every step
    (scipy's also predicts from the last step, the own stepper does not, and
    holds no step): no more steps than scipy's."""
    cfg = dataclasses.replace(_reference_config(n, k, r0, eps, t_max=t_max, dt_max=dt_max,
                                                convergence_tol=0.0), N=N)
    prof = cfg.initial_shape.build(n, N)
    res = run(cfg)
    rho, steps = oracles.plain_radau(
        lambda y: flow_module._stage_rate(n, k, prof.grid, y), prof.rho, cfg,
        _rule_dt(prof, k, cfg.dt_max))
    assert res.termination == "tmax" and res.rejections == 0
    assert float(np.max(np.abs(res.profile.rho - rho))) <= 1e-9
    assert res.steps <= steps

    dual = dual_run(cfg)
    u0 = dualflow_module._dual_start(prof)

    def g(y):
        return dualflow_module._stage_g(n, k, prof.grid, y)

    first_step = _gershgorin_dt(_jacobian(g, u0), cfg.dt_max)
    u, steps = oracles.plain_radau(g, u0, cfg, first_step)
    assert dual.termination == "tmax" and dual.rejections == 0
    assert float(np.max(np.abs(dual.u - u))) <= 1e-9
    assert dual.steps <= steps


@pytest.mark.parametrize("n, k, r0, eps", REFERENCE_SHAPES)
def test_steps_start_on_the_accepted_states_rate(monkeypatch, n, k, r0, eps):
    """Every step of both solvers is handed the rate of the state it starts
    from, bit for bit the stage rate at that vector, and no stage is
    evaluated at a state's vector, the start vector included.  A Jacobian's
    complex stack is not a stage."""
    starts, stages = [], []

    class Recording(flow_module._Stepper):
        def step(self, f):
            starts.append((self.y.copy(), f.copy()))
            return super().step(f)

    def recording(stage_rate):
        def wrapped(n, k, grid, y):
            if not np.iscomplexobj(y):
                stages.extend(np.array(y, ndmin=2))
            return stage_rate(n, k, grid, y)
        return wrapped

    cfg = _reference_config(n, k, r0, eps)
    grid = cfg.initial_shape.build(n, cfg.N).grid
    monkeypatch.setattr(flow_module, "_Stepper", Recording)
    for solve, module, name in ((run, flow_module, "_stage_rate"),
                                (dual_run, dualflow_module, "_stage_g")):
        stage_rate = getattr(module, name)
        starts.clear()
        stages.clear()
        with monkeypatch.context() as patch:
            patch.setattr(module, name, recording(stage_rate))
            res = solve(cfg)
        final = res.u if solve is dual_run else res.profile.rho
        assert res.termination == "converged" and res.rejections == 0
        assert len(starts) == res.steps > 1
        for y, f in starts:
            assert f.tobytes() == stage_rate(n, k, grid, y).tobytes()
        states = {y.tobytes() for y, _ in starts} | {final.tobytes()}
        assert len(states) == res.steps + 1
        assert not states & {stage.tobytes() for stage in stages}
        assert len(stages) == res.rate_evaluations


def test_stepper_polynomial_meets_the_step_ends():
    """at gives the start vector at the last step's start and its end vector
    at its end, to round-off."""
    n, k, r0, eps = REFERENCE_SHAPES[0]
    prof = RadialProfile.perturbed(n, r0, eps, 2, 64)
    grid = prof.grid
    stepper = flow_module._Stepper(
        lambda y: flow_module._stage_rate(n, k, grid, y), lambda y: y, prof.rho, 1.0, 0.2,
        flow_module._tolerances(dataclasses.replace(_reference_config(n, k, r0, eps), N=64)))
    for _ in range(4):
        t_old, y_old = stepper.t, stepper.y
        y_new = stepper.step(flow_module._stage_rate(n, k, grid, stepper.y))
        assert np.array_equal(stepper.at(t_old), y_old)
        assert np.allclose(stepper.at(stepper.t), y_new, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("solve", [run, dual_run])
def test_no_step_is_held(monkeypatch, solve):
    """With no cap, each accepted step sizes the next by its error alone: no
    two consecutive trials of the N = 64 reference run share a span, as they
    would where a step was held to keep its factor pair."""
    spans, trial = [], flow_module._Stepper._trial

    def recording(self, f):
        out = trial(self, f)
        spans.append(self.tried)
        return out

    monkeypatch.setattr(flow_module._Stepper, "_trial", recording)
    res = solve(dataclasses.replace(_reference_config(*REFERENCE_SHAPES[0]), N=64))
    assert res.termination == "converged" and res.rejections == 0
    assert len(spans) == res.steps > 10
    assert all(a != b for a, b in zip(spans, spans[1:]))


@pytest.mark.parametrize("solve", [run, dual_run])
@pytest.mark.parametrize("dt_max", [0.05, None])
def test_every_trial_factors_once(solve, dt_max):
    """Each trial factors its LU pair afresh and only once, the Newton solve
    and the error estimate sharing it: two factorizations per trial, on a run
    whose steps are pinned at dtMax as on one with no cap."""
    kw = dict(t_max=2.0, dt_max=dt_max) if dt_max else {}
    res = solve(dataclasses.replace(_reference_config(*REFERENCE_SHAPES[0], **kw), N=64))
    assert res.termination == ("tmax" if dt_max else "converged") and res.steps > 10
    assert res.lu_factorizations == 2 * (res.steps + res.rejections)


def _count_crossings(monkeypatch) -> list:
    """The (t0, t1) step of each _crossing call, recorded as it runs."""
    calls = []
    real = flow_module._crossing

    def counting(solver, t0, s0, t1, end, tol):
        calls.append((t0, t1))
        return real(solver, t0, s0, t1, end, tol)

    monkeypatch.setattr(flow_module, "_crossing", counting)
    return calls


@pytest.mark.parametrize("solve", [run, dual_run])
@pytest.mark.parametrize("n, k, r0, eps", REFERENCE_SHAPES)
def test_converged_stop_sits_on_the_crossing(monkeypatch, n, k, r0, eps, solve):
    """The converged stop is located inside its step: at dtMax 0.2 tFinal
    matches a run at dtMax 0.01 within 1e3 rtol, and the last trace row sits
    at tFinal with max speed at the tolerance and below it."""
    cfg = dataclasses.replace(_reference_config(n, k, r0, eps, dt_max=0.2), N=64)
    rtol = flow_module._tolerances(cfg)[0]
    calls = _count_crossings(monkeypatch)
    res = solve(cfg)
    fine = solve(dataclasses.replace(cfg, dt_max=0.01))
    assert res.termination == fine.termination == "converged"
    assert len(calls) == 2 and calls[0][0] < res.t_final < calls[0][1]
    assert abs(res.t_final - fine.t_final) <= 1e3 * rtol
    assert fine.steps > 4 * res.steps
    t = res.trace.t
    assert t[-1] == res.t_final and t[-2] < t[-1]
    speeds = res.trace.column("maxSpeed")
    assert speeds[-1] == pytest.approx(cfg.convergence_tol, rel=1e-6)
    assert speeds[-2] >= cfg.convergence_tol > speeds[-1]


def test_default_runs_match_fine_step_runs(monkeypatch):
    """With no step cap, the default, each reference run's final state lies
    within 0.01 rtol of the run at dtMax 0.01, for both solvers, and its tFinal
    within its stated resolution of the run at rtol 1e-10.  Over the set the
    largest resolution is at most 10 times the largest such error: the error
    changes sign across runs, so one run's ratio says little."""
    errors, resolutions = [], []
    for n, k, r0, eps in REFERENCE_SHAPES:
        cfg = dataclasses.replace(_reference_config(n, k, r0, eps), N=64)
        assert cfg.dt_max is None
        for solve, final in ((run, lambda r: r.profile.rho), (dual_run, lambda r: r.u)):
            res = solve(cfg)
            fine = solve(dataclasses.replace(cfg, dt_max=0.01))
            with monkeypatch.context() as patch:
                patch.setattr(flow_module, "_tolerances", lambda config: (1e-10, 1e-13))
                tight = solve(cfg)
            assert res.termination == fine.termination == tight.termination == "converged"
            rtol = flow_module._tolerances(cfg)[0]
            assert float(np.max(np.abs(final(res) - final(fine)))) <= 0.01 * rtol
            errors.append(abs(res.t_final - tight.t_final))
            resolutions.append(res.t_final_resolution)
    assert all(e <= r for e, r in zip(errors, resolutions))
    assert max(resolutions) <= 10 * max(errors)


@pytest.mark.parametrize("N", [128, 256])
@pytest.mark.parametrize("n, k, r0, eps", REFERENCE_SHAPES)
def test_the_rules_time_error_is_a_hundredth_of_the_error_to_the_limit(monkeypatch, n, k, r0,
                                                                       eps, N):
    """The accuracy the rule's rtol is chosen for: each solver's default run
    ends with max|rho - rho_tight| <= 0.01 max|rho_tight - r*|, rho_tight from
    the run at rtol 1e-10 and r* the radius of the geodesic sphere with the
    start's A_{k-1}, which the flow preserves (a dual run's rho read through
    profile_from_dual)."""
    cfg = dataclasses.replace(_reference_config(n, k, r0, eps), N=N)
    prof = cfg.initial_shape.build(n, N)
    r_star = _sphere_radius(n, k - 1, quermass_vector(geometry(prof, k), prof).a(k - 1))

    def final(result):
        if isinstance(result, dualflow_module.DualResult):
            return dualflow_module.profile_from_dual(result.state).rho
        return result.profile.rho

    for solve in (run, dual_run):
        res = solve(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(flow_module, "_tolerances", lambda config: (1e-10, 1e-13))
            tight = solve(cfg)
        assert res.termination == tight.termination == "converged"
        time_error = float(np.max(np.abs(final(res) - final(tight))))
        assert time_error <= 0.01 * float(np.max(np.abs(final(tight) - r_star)))


def test_a_tmax_stop_locates_nothing(monkeypatch):
    calls = _count_crossings(monkeypatch)
    res = run(_perturbed_config(t_max=0.5))
    assert res.termination == "tmax" and res.steps > 0
    res = dual_run(_perturbed_config(t_max=0.5))
    assert res.termination == "tmax" and res.steps > 0
    assert calls == []


def _refuse(y):
    raise StepRejected("refused inside the step")


def test_a_refused_state_inside_the_step_keeps_the_step_end(monkeypatch):
    """Where accept refuses a state on the polynomial, the run stops converged
    on the end of the step that crossed, as a run without a locator would."""
    cfg = _perturbed_config()
    ends = []
    real = flow_module._crossing

    def refusing(solver, t0, s0, t1, end, tol):
        ends.append((t1, end))
        solver.accept = _refuse
        return real(solver, t0, s0, t1, end, tol)

    monkeypatch.setattr(flow_module, "_crossing", refusing)
    res = run(cfg)
    (t1, end), = ends
    assert res.termination == "converged" and res.t_final == t1
    assert res.profile is end[3]
    assert res.trace.column("maxSpeed")[-1] == end[1] < cfg.convergence_tol


class _DecayingSpeed:
    """A stand-in for the stepper that _crossing reads: its polynomial at t is
    t itself, and accept's state there has the max speed s0 exp(-mu (t - t0))."""

    def __init__(self, t0, s0, mu):
        self.t0, self.s0, self.mu, self.tried = t0, s0, mu, []

    def at(self, t):
        self.tried.append(t)
        # every step below reaches adjacent doubles in fewer halvings: fail, do not hang
        assert len(self.tried) <= 64, "the bisection does not end"
        return t

    def accept(self, t):
        return (None, self.s0 * math.exp(-self.mu * (t - self.t0)))


@pytest.mark.parametrize("t0, dt, where", [
    (0.0, 0.2, 0.6), (3.7, 0.05, 1e-6), (5.5, 0.2, 0.999999), (9.4, 1e-3, 0.5),
    # ulp(1e6) = 1.2e-10 > 1e-10: the bisection ends once its midpoint rounds onto an end
    (1e6, 0.2, 0.3),
])
def test_crossing_bisects_to_the_analytic_crossing(t0, dt, where):
    """_crossing returns the analytic crossing of a decaying max speed to
    1e-10 in t (to round-off of t where that is coarser), with a state
    below tol that accept built there, and tries only times inside the step."""
    tol, mu = 1e-6, 3.0
    solver = _DecayingSpeed(t0, tol * math.exp(mu * where * dt), mu)
    t1 = t0 + dt
    exact = t0 + where * dt
    end = solver.accept(t1)
    t, state = flow_module._crossing(solver, t0, solver.accept(t0)[1], t1, end, tol)
    assert abs(t - exact) <= max(1e-10, 2.0 * math.ulp(t1))
    assert state[1] < tol and state == solver.accept(t)
    assert solver.tried and all(t0 < tau < t1 for tau in solver.tried)


class _SteppedSpeed(_DecayingSpeed):
    """A max speed a hair above tol before the crossing and 0 after it: g is
    lopsided, +1e-12 against -inf floored to log(1e-300 / tol)."""

    def accept(self, t):
        return (None, self.s0 * (1.0 + 1e-12) if t < self.t0 + self.mu else 0.0)


@pytest.mark.parametrize("where", [1e-3, 0.6, 0.999])
def test_crossing_takes_at_most_twice_the_bisection_on_a_lopsided_speed(where):
    # on this g, Illinois alone creeps 9e-11 a try and takes 268-484 tries
    t0, dt, tol = 0.0, 0.2, 1e-6
    solver = _SteppedSpeed(t0, tol, where * dt)
    t, state = flow_module._crossing(solver, t0, solver.accept(t0)[1], t0 + dt,
                                     solver.accept(t0 + dt), tol)
    assert abs(t - where * dt) <= 1e-10 and state[1] < tol
    assert len(solver.tried) <= 2 * math.ceil(math.log2(dt / 1e-10))


def test_run_reads_no_quotient_gradient_on_its_states(monkeypatch):
    """geometry builds F alone, and a run reads the gradient of none of its
    states, the start's included."""
    calls = []
    real = hypersurface_module.quotient_two_value

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hypersurface_module, "quotient_two_value", counting)
    st = geometry(RadialProfile.perturbed(3, 0.9, 0.03, 2, 65), 2)
    assert calls == []
    want = real(st.lam1, st.lam_ang, 3, 2)
    for got, field in zip(want, ("F", "f_merid", "f_ang", "trace_grad", "weighted_trace")):
        assert np.array_equal(getattr(st, field), got), field
    assert len(calls) == 1
    calls.clear()
    res = run(_perturbed_config())
    assert res.termination == "converged" and calls == []


_THREADED_RUN = """
import hashlib
from sphereflow.flow import FlowConfig, ShapeSpec, run
shape = ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2)
res = run(FlowConfig(n=2, k=1, N=4097, initial_shape=shape, t_max=0.2))
print(res.steps, hashlib.sha256(res.profile.rho.tobytes()).hexdigest())
"""


def test_run_does_not_depend_on_the_blas_thread_count():
    """The stepper's products and norms make no BLAS call, whose threaded
    sums would round differently at N = 4097 with one or two threads."""
    src = os.path.dirname(os.path.dirname(flow_module.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _THREADED_RUN], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


_SCIPY_FREE_RUN = """
import sys
import sphereflow.cli
from sphereflow import flow, hypersurface, quermass
shape = flow.ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2)
res = flow.run(flow.FlowConfig(n=2, k=1, N=33, initial_shape=shape))
hypersurface.volume(hypersurface.RadialProfile.geodesic_sphere(16, 0.8, 33))
quermass.sphere_quermass(20, -1, 0.8)
print(res.termination, *sorted(name for name in sys.modules
                               if name.startswith(("scipy.optimize", "scipy.interpolate",
                                                   "scipy.special"))))
"""


def test_a_converged_run_imports_no_scipy_optimize_interpolate_or_special():
    """Importing the CLI, running to a converged stop on an on-grid shape and
    taking the volume at n = 16 and n = 20 load none of scipy.optimize,
    scipy.interpolate and scipy.special: the audit, a custom shape off the grid
    and the dual solver import the first two where they call them, and the
    volume's Gauss-Legendre rule needs no special function at any n."""
    src = os.path.dirname(os.path.dirname(flow_module.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["converged"]


_SCIPY_FREE_PULLBACK = """
import sys
import numpy as np
from sphereflow import dualflow, hypersurface
grid = hypersurface.polar_grid(33)
state = dualflow.support_closure(2, grid, 0.5 + 0.01 * np.cos(2.0 * grid.theta))
codes = []
dualflow.profile_from_dual(state, 65)
dualflow._trace_row(state, dualflow._g(2, 1, state.u, state.rho_tilde, state.omega, state.phi,
                                       state.phip, state.w_merid, state.w_ang), codes)
print("read", *codes, *sorted(name for name in sys.modules
                              if name.startswith("scipy.interpolate")))
"""


def test_the_dual_readout_imports_no_scipy_interpolate():
    """profile_from_dual and a dual trace row read through it interpolate
    with numpy alone: only dual_run's start transfer loads scipy.interpolate."""
    src = os.path.dirname(os.path.dirname(flow_module.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_PULLBACK],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["read"]


def _dense(bands):
    return np.diag(bands[1]) + np.diag(bands[0, 1:], -1) + np.diag(bands[2, :-1], 1)


def _solver_rates(n, k, N):
    """(rate, state) of both solvers on N nodes, at a state well inside the cone."""
    grid = hypersurface_module.polar_grid(N)
    rho = 0.8 + 0.03 * np.cos(2.0 * grid.theta) + 0.01 * np.cos(3.0 * grid.theta)
    u0 = dualflow_module._dual_start(RadialProfile(n=n, theta=grid, rho=rho))
    return ((lambda v: flow_module._stage_rate(n, k, grid, v), rho),
            (lambda v: dualflow_module._stage_g(n, k, grid, v), u0))


def _centred_jacobian(rate, y, step=1e-7):
    columns = []
    for j in range(y.size):
        e = np.zeros(y.size)
        e[j] = step
        columns.append((rate(y + e) - rate(y - e)) / (2.0 * step))
    return np.array(columns).T


@pytest.mark.parametrize("n, k", [(n, k) for n in (2, 3, 4) for k in range(n)])
def test_jacobians_match_a_centred_difference(n, k):
    """Both solvers' Jacobians, on states well inside the cone."""
    for rate, y in _solver_rates(n, k, 33):
        exact, centred = _dense(flow_module._jacobian(rate, y)), _centred_jacobian(rate, y)
        assert np.max(np.abs(exact - centred)) <= 1e-6 * np.max(np.abs(centred))


@pytest.mark.parametrize("N", [33, 257])
@pytest.mark.parametrize("n, k", [(n, k) for n in (2, 3, 4) for k in range(n)])
def test_jacobian_products_match_one_complex_step(n, k, N):
    """J v is the complex step of the rate along v, for random v: this pins
    where each band entry is read, and the stages' real part is the state."""
    v = np.random.default_rng(N + 10 * n + k).standard_normal(N)
    s = flow_module._COMPLEX_STEP
    for rate, y in _solver_rates(n, k, N):
        stacks = []

        def recording(stack, rate=rate):
            stacks.append(stack)
            return rate(stack)

        Jv = _dense(flow_module._jacobian(recording, y)) @ v
        direct = rate(y + 1j * s * v).imag / s
        assert np.max(np.abs(Jv - direct)) <= 1e-13 * np.max(np.abs(direct))
        (stack,) = stacks
        assert stack.shape == (3, N)
        assert all(stage.real.tobytes() == y.tobytes() for stage in stack)


def test_jacobian_raises_the_rates_cone_violation():
    """Off the cone the Jacobian's complex stack fails as the rate does, at its node."""
    grid = hypersurface_module.polar_grid(33)
    rho = 0.8 + 0.2 * np.cos(6.0 * grid.theta)
    with pytest.raises(ConeViolation) as real:
        flow_module._stage_rate(2, 1, grid, rho)
    with pytest.raises(ConeViolation) as stacked:
        flow_module._jacobian(lambda y: flow_module._stage_rate(2, 1, grid, y), rho)
    assert real.value.node == stacked.value.node == 5


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rate_jacobian_spectrum_at_a_geodesic_sphere(n):
    """At the sphere of radius r the degree-l mode decays at
    mu_l = c l (l + n - 1) / (n sin r); l = 0, the radius, is neutral."""
    r = 0.8
    degree = np.arange(6)
    for k in range(n):
        mu = identity_quotient(n, k) * degree * (degree + n - 1.0) / (n * math.sin(r))
        errors = []
        for N in (65, 129):
            grid = hypersurface_module.polar_grid(N)
            J = flow_module._jacobian(lambda y: flow_module._stage_rate(n, k, grid, y),
                                      np.full(N, r))
            eig = np.linalg.eigvals(_dense(J))
            assert np.max(np.abs(eig.imag)) <= 1e-10 * np.max(np.abs(eig.real))
            top = np.sort(eig.real)[::-1][:6]
            err = np.abs(top + mu)
            # second-order stencil: mu_l / (l (l + n - 1)) times the Laplacian's
            # error h^2 (l (l + n - 1))^2 / 12
            assert err[0] <= 1e-10
            assert np.all(err[1:] <= 0.1 * grid.h**2 * degree[1:] * (degree[1:] + n - 1.0) * mu[1:])
            errors.append(err[1:])
        ratio = errors[0] / errors[1]
        assert np.all((ratio > 3.8) & (ratio < 4.2))


@pytest.mark.parametrize("n, k", [(2, 1), (3, 2), (2, 0), (4, 1)])
def test_small_radius_runs_converge_without_a_rejection(n, k):
    """At r0 = 0.05 the rate's Jacobian is ~1/r0^2 stiffer than at the
    reference radii; the first step, sized by its scale, is accepted."""
    shape = ShapeSpec(kind="perturbed", r0=0.05, eps=0.0025, mode=2)
    res = run(FlowConfig(n=n, k=k, N=129, initial_shape=shape))
    assert res.termination == "converged" and res.rejections == 0


def _convex_limit(mode, N):
    """The largest eps, to 2^-40, at which n=2, k=1, rho = 0.8 + eps cos(mode
    theta) on N nodes is strictly convex."""
    lo, hi = 0.0, 0.79
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        try:
            convex = geometry(RadialProfile.perturbed(2, 0.8, mid, mode, N), 1).lam_min > 0.0
        except ConeViolation:
            convex = False
        lo, hi = (mid, hi) if convex else (lo, mid)
    return lo


def test_reference_and_near_degenerate_runs_converge_without_a_rejection():
    """The stepper retries a trial only after a failure; both solvers take
    every step of the reference shapes, and of a mode-6 start at 0.97 of its
    convex limit, at the first try."""
    near = ShapeSpec(kind="perturbed", r0=0.8, eps=0.97 * _convex_limit(6, 129), mode=6)
    configs = [_reference_config(*shape) for shape in REFERENCE_SHAPES]
    configs.append(FlowConfig(n=2, k=1, N=129, initial_shape=near))
    for cfg in configs:
        for solve in (run, dual_run):
            res = solve(cfg)
            assert res.termination == "converged" and res.rejections == 0


@pytest.mark.parametrize("solve", [run, dual_run])
def test_the_growth_cap_binds_at_most_once_a_run(monkeypatch, solve):
    """The first step is sized by the error test, not far below it, so the
    step control seldom needs its largest factor, _MAX_FACTOR, to catch up:
    it caps at most one step of each run of the reference shapes and the
    small-radius start, at N = 128 and 256 (2-3 under 0.8 over the
    Gershgorin bound of the start's J)."""
    capped, trial = [], flow_module._Stepper._trial

    def recording(self, f):
        out = trial(self, f)
        capped[-1] += math.isclose(self.h_abs / self.tried, flow_module._MAX_FACTOR, rel_tol=1e-9)
        return out

    monkeypatch.setattr(flow_module._Stepper, "_trial", recording)
    for shape in (*REFERENCE_SHAPES, (2, 0, 0.05, 0.0025)):
        for N in (128, 256):
            capped.append(0)
            res = solve(dataclasses.replace(_reference_config(*shape), N=N))
            assert res.termination == "converged" and res.rejections == 0
    assert max(capped) <= 1


def test_rk4_at_the_first_step_rule_stays_in_the_cone_at_a_small_radius():
    """dt * rho(J) <= 0.8 lies inside RK4's stability limit 2.785, so explicit
    steps at the rule stay stable, and in the cone, at r0 = 0.2 too."""
    prof = RadialProfile.perturbed(2, 0.2, 0.01, 2, 129)
    for _ in range(30):
        prof = step(prof, _rule_dt(prof, 1, 0.2), 1)
        assert geometry(prof, 1).lam_min > 0.0


def test_fine_grids_start_where_a_difference_jacobian_collapsed():
    """n=2, k=1, rho = 0.8 + eps cos(m theta) at 0.99 of the largest convex eps:
    mode 3 at N=2049 and mode 1 at N=4097 once ended step_collapse at t=0,
    because a finite-difference Jacobian moved the pole node out of the cone."""
    for mode, N in ((3, 2049), (1, 4097)):
        shape = ShapeSpec(kind="perturbed", r0=0.8, eps=0.99 * _convex_limit(mode, N), mode=mode)
        res = run(FlowConfig(n=2, k=1, N=N, initial_shape=shape, t_max=1e-3))
        assert res.termination == "tmax" and res.rejections == 0 and res.steps > 0


def test_run_restarts_after_a_refused_step(monkeypatch):
    cfg = _perturbed_config(t_max=0.02)
    clean, marks = _step_marks(monkeypatch, cfg)
    # the check of the second step's accepted vector leaves the cone: the
    # stepper restarts from the first step at half the step size
    _patch_curvatures(monkeypatch, _fail_calls(curvatures, {marks[2]}))
    res = run(cfg)
    assert res.termination == "tmax" and res.rejections == 1
    dt_clean = np.diff(clean.trace.t)
    assert np.diff(res.trace.t)[1] == pytest.approx(0.5 * dt_clean[1], rel=1e-12)
    assert float(np.max(np.abs(res.profile.rho - clean.profile.rho))) < 1e-9
    # the first step and the restart each take a Jacobian and factor afresh
    assert res.jacobians >= 2 and res.lu_factorizations >= 4


def test_finished_steppers_are_freed_without_the_cycle_collector(monkeypatch):
    """No stepper sits in a reference cycle: the one that run or dual_run
    creates, which also retries refused steps and keeps the failure of a
    collapse, is freed by the call's return even with the cycle collector off."""
    refs = []

    class Recording(flow_module._Stepper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    def assert_freed(res, count):
        assert len(refs) == count and res.jacobians >= count
        assert all(ref() is None for ref in refs)
        refs.clear()

    cfg = _reference_config(*REFERENCE_SHAPES[0])
    # long enough for five accepted steps before tMax, so that the forced
    # failures below fall inside the run
    short = _perturbed_config(t_max=0.2)
    _, marks = _step_marks(monkeypatch, short)
    monkeypatch.setattr(flow_module, "_Stepper", Recording)
    gc.collect()
    gc.disable()
    try:
        res = run(cfg)
        assert res.termination == "converged"
        assert_freed(res, 1)
        res = dual_run(cfg)
        assert res.termination == "converged"
        assert_freed(res, 1)
        # the refused second step of test_run_restarts_after_a_refused_step
        _patch_curvatures(monkeypatch, _fail_calls(curvatures, {marks[2]}))
        res = run(short)
        assert res.rejections == 1
        assert_freed(res, 1)
        # the collapse of test_run_collapses_when_every_trial_fails
        _patch_curvatures(monkeypatch, _fail_after(curvatures, marks[3]))
        res = run(short)
        assert res.termination == "step_collapse: forced cone exit"
        assert_freed(res, 1)
    finally:
        gc.enable()


@pytest.mark.parametrize("solve, error, termination", [
    (run, ConeViolation, "step_collapse: forced cone exit"),
    (dual_run, dualflow_module.ConvexityLoss, "convexity_breakdown"),
])
def test_a_failed_start_jacobian_is_a_named_stop(monkeypatch, solve, error, termination):
    """The first step is sized from the start's Jacobian; where that fails
    there is no step to halve, and the run stops at t = 0 on the failure."""
    def failing(rate, y):
        raise error("forced cone exit")

    monkeypatch.setattr(flow_module, "_jacobian", failing)
    res = solve(_perturbed_config())
    assert res.termination == termination
    # one Jacobian tried, one failed trial and no retry
    assert (res.steps, res.t_final, res.jacobians, res.rejections) == (0, 0.0, 1, 1)
    assert res.breakdown_time == (0.0 if solve is dual_run else None)


def test_run_collapses_when_every_trial_fails(monkeypatch):
    # five accepted steps before tMax, so that the collapse comes first, and
    # a fourth step longer than the first, so that no t_max clamp shortens it
    cfg = _perturbed_config(t_max=0.2)
    _, marks = _step_marks(monkeypatch, cfg)
    assert len(marks) >= 4  # the initial state and at least three steps
    # after the third accepted step every stage, Jacobian and
    # accepted vector leaves the cone
    _patch_curvatures(monkeypatch, _fail_after(curvatures, marks[3]))
    res = run(cfg)
    assert res.termination == "step_collapse: forced cone exit"
    assert res.steps == 3 and res.t_final > 0.0
    # each restart halves the step, from at least the first step until it
    # drops below 1e-12 of it: 2^-40 < 1e-12 <= 2^-39
    assert res.rejections >= 40
    assert res.trace.t[-1] == res.t_final


def test_each_restart_starts_at_half_the_step_tried(monkeypatch):
    cfg = _perturbed_config(t_max=0.02)
    real, calls, marks, fail = flow_module._stage_rate, [0], [], set()

    def counting(*args):
        # stages only: a Jacobian's complex stack is none, and is not failed
        if not np.iscomplexobj(args[-1]):
            calls[0] += 1
            if calls[0] in fail:
                raise ConeViolation("forced cone exit")
        return real(*args)

    def marking(*args):
        marks.append(calls[0])
        return quermass_vector(*args)

    with monkeypatch.context() as patch:
        patch.setattr(flow_module, "_stage_rate", counting)
        patch.setattr(quermass_module, "quermass_vector", marking)
        patch.setattr(flow_module, "quermass_vector", marking)
        clean = run(cfg)
    assert clean.t_final == cfg.t_max and len(marks) >= 3
    # five rate calls fail from the first of the last step, whose size the
    # t_max clamp sets: every restart must halve that clamped step, not the
    # unclamped one the step control had predicted
    calls[0] = 0
    fail.update(range(marks[-2] + 1, marks[-2] + 6))
    monkeypatch.setattr(flow_module, "_stage_rate", counting)
    trials = []  # the h of each Newton solve, and "restart" where the step restarts
    newton, restart = flow_module._Stepper._newton, flow_module._Stepper._restart

    def recording_newton(self, h, *args):
        trials.append(h)
        return newton(self, h, *args)

    def recording_restart(self, h):
        trials.append("restart")
        restart(self, h)

    monkeypatch.setattr(flow_module._Stepper, "_newton", recording_newton)
    monkeypatch.setattr(flow_module._Stepper, "_restart", recording_restart)
    res = run(cfg)
    assert res.termination == "tmax" and res.rejections >= 3
    assert trials[0] == "restart"  # the stepper's own start
    restarts = [i for i, mark in enumerate(trials) if mark == "restart"][1:]
    assert len(restarts) == res.rejections
    for i in restarts:
        assert trials[i + 1] == pytest.approx(0.5 * trials[i - 1], rel=1e-12)


def test_newton_failures_collapse_without_creeping(monkeypatch):
    """With one Newton iteration no solve converges, so each trial fails and
    every restart halves the step until the run collapses."""
    monkeypatch.setattr(flow_module, "_NEWTON_MAXITER", 1)
    real, calls = flow_module.quermass_vector, [0]

    def bounded(*args):
        # the start and three accepted steps: a run that creeps on in steps
        # far below the first one fails here instead of running on
        calls[0] += 1
        if calls[0] > 4:
            raise AssertionError("a run without a converged Newton solve took steps")
        return real(*args)

    monkeypatch.setattr(quermass_module, "quermass_vector", bounded)  # the start's
    monkeypatch.setattr(flow_module, "quermass_vector", bounded)
    res = run(_perturbed_config(t_max=0.02))
    assert res.termination == "step_collapse: Newton iteration did not converge"
    assert res.steps == 0 and res.rejections >= 40
    # each restart takes one Jacobian and one LU pair, not a descent of them
    assert res.lu_factorizations <= 4 * (res.rejections + res.steps)


def test_every_rejected_trial_is_counted(monkeypatch):
    """A first step of dtMax = 1, far above the one _first_step takes, fails
    trials by a Newton solve or by the error test, each one rejection and one
    restart; both solvers end where the default start does."""
    cfg = _perturbed_config(t_max=1.0, dt_max=1.0, convergence_tol=0.0)
    clean, clean_dual = run(cfg), dual_run(cfg)
    assert clean.rejections == clean_dual.rejections == 0
    monkeypatch.setattr(flow_module, "_first_step", lambda J, y, f, scale, h_max: h_max)
    restarts, restart = [0], flow_module._Stepper._restart

    def counting_restart(self, h):
        restarts[0] += 1
        restart(self, h)

    monkeypatch.setattr(flow_module._Stepper, "_restart", counting_restart)
    res = run(cfg)
    graph_restarts, restarts[0] = restarts[0], 0
    dual = dual_run(cfg)
    assert res.termination == dual.termination == "tmax"
    # the stepper's own start, then one restart for each rejection
    assert (res.rejections, dual.rejections) == (graph_restarts - 1, restarts[0] - 1) == (6, 6)
    assert (res.steps, dual.steps) == (27, 28)
    assert float(np.max(np.abs(res.profile.rho - clean.profile.rho))) < 1e-9
    assert float(np.max(np.abs(dual.u - clean_dual.u))) < 1e-9


def _spoiled_jacobian(monkeypatch, bad, calls):
    """Route the stepper's Jacobians through one that writes bad into an entry
    on the given call numbers."""
    count, real = [0], flow_module._jacobian

    def spoiled(rate, y):
        J = real(rate, y)
        count[0] += 1
        if count[0] in calls:
            J[1, y.size // 2] = bad
        return J

    monkeypatch.setattr(flow_module, "_jacobian", spoiled)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_later_jacobian_that_is_not_finite_restarts_the_step(monkeypatch, bad):
    """The stepper refuses a Jacobian with an entry that is not finite where
    it takes it: the second J, taken after a slow Newton solve, fails its
    trial, which restarts once with a fresh J, and both solvers end where the
    clean run does."""
    cfg = _perturbed_config(t_max=1.0, convergence_tol=0.0)
    for solve in (run, dual_run):
        clean = solve(cfg)
        with monkeypatch.context() as patch:
            _spoiled_jacobian(patch, bad, {2})
            res = solve(cfg)
        assert clean.rejections == 0 and clean.jacobians >= 2
        assert res.termination == clean.termination == "tmax" and res.rejections == 1
        final, clean_final = ((res.u, clean.u) if solve is dual_run
                              else (res.profile.rho, clean.profile.rho))
        assert float(np.max(np.abs(final - clean_final))) < 1e-9


@pytest.mark.parametrize("solve", [run, dual_run])
def test_a_start_jacobian_that_is_not_finite_ends_the_run(monkeypatch, solve):
    """A start J with a NaN entry leaves no first step to halve: the run ends
    step_collapse at its first trial, and the termination names the Jacobian."""
    _spoiled_jacobian(monkeypatch, np.nan, {1})
    res = solve(_perturbed_config(t_max=0.02))
    assert res.termination == "step_collapse: Jacobian is not finite"
    assert (res.steps, res.rejections, res.jacobians, res.lu_factorizations) == (0, 1, 1, 0)


@pytest.mark.parametrize("solve", [run, dual_run])
def test_a_failed_error_test_restarts_at_half_the_step_tried(monkeypatch, solve):
    """A trial whose error test fails restarts from its start, at half the
    step tried, with a fresh Jacobian: one rejection, as a failed solve."""
    cfg = _perturbed_config(t_max=0.05)
    clean = solve(cfg)
    assert clean.steps >= 3 and clean.rejections == 0
    # the h of each Newton solve, "J" where a Jacobian is taken and "restart"
    # where the step restarts
    trials = []
    stepper = flow_module._Stepper
    newton, restart, jac, E = stepper._newton, stepper._restart, stepper._jac, flow_module._E

    def scaling_newton(self, h, *args):
        trials.append(h)
        # the second solve's error estimate, and only its, is 1e6 times too large
        solves = sum(not isinstance(mark, str) for mark in trials)
        flow_module._E = 1e6 * E if solves == 2 else E
        return newton(self, h, *args)

    def recording_restart(self, h):
        trials.append("restart")
        restart(self, h)

    def recording_jac(self, y):
        trials.append("J")
        return jac(self, y)

    monkeypatch.setattr(stepper, "_newton", scaling_newton)
    monkeypatch.setattr(stepper, "_restart", recording_restart)
    monkeypatch.setattr(stepper, "_jac", recording_jac)
    monkeypatch.setattr(flow_module, "_E", E)  # restored after the test
    res = solve(cfg)
    assert res.termination == "tmax" and res.rejections == 1
    second = [i for i, mark in enumerate(trials) if not isinstance(mark, str)][1]
    restarts = [i for i, mark in enumerate(trials) if mark == "restart"]
    assert restarts == [0, second + 1]  # the stepper's own start, then the failed second solve
    # the retry takes J afresh, then tries half the failed step
    assert trials[second + 2] == "J"
    assert trials[second + 3] == pytest.approx(0.5 * trials[second], rel=1e-12)
    end = (lambda r: r.profile.rho) if solve is run else (lambda r: r.u)
    assert float(np.max(np.abs(end(res) - end(clean)))) < 1e-9


def test_run_recovers_from_a_nan_stage_rate(monkeypatch):
    cfg = _perturbed_config(t_max=0.02)
    clean, marks = _step_marks(monkeypatch, cfg)
    real, calls = curvatures, [0]

    def nan_once(*args):
        # the first stages of the second step get a NaN rate, with no error
        calls[0] += 1
        cores = real(*args)
        return (*cores[:6], cores[6] * np.nan, *cores[7:]) if calls[0] == marks[1] + 1 else cores

    _patch_curvatures(monkeypatch, nan_once)
    res = run(cfg)
    # as a cone exit there: the solve fails under the stale J, and step
    # restarts the trial once, at half the step tried
    assert res.termination == "tmax" and res.rejections == 1
    assert float(np.max(np.abs(res.profile.rho - clean.profile.rho))) < 1e-9
