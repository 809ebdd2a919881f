import dataclasses
import math

import numpy as np
import pytest

import sphereflow.dualflow as dualflow_module
import sphereflow.flow as flow_module
from sphereflow import ConeViolation, ConvexityLoss, RadialProfile, geometry
from sphereflow.dualflow import (
    decomposition_residual,
    dual_from_profile,
    dual_run,
    g_operator,
    gamma_transform,
    profile_from_dual,
    speed_transport_residual,
    support_closure,
)
from sphereflow.flow import FlowConfig, ShapeSpec, run
from sphereflow.hypersurface import polar_grid


def test_gamma_transform_inverts():
    prof = RadialProfile.perturbed(2, 0.8, 0.05, 2, 65)
    gamma, r = gamma_transform(prof)
    assert np.allclose(r, np.exp(gamma), rtol=1e-15)
    assert np.allclose(2.0 * np.arctan(r), prof.rho, rtol=1e-14)


def test_decomposition_residual_is_roundoff():
    profiles = [
        RadialProfile.geodesic_sphere(2, 0.8, 257),
        RadialProfile.perturbed(2, 0.8, 0.05, 2, 257),
        RadialProfile.perturbed(3, 0.9, 0.03, 3, 257),
    ]
    for prof in profiles:
        assert decomposition_residual(prof) < 1e-10


def test_ball_support_closure():
    # Euclidean ball of radius R: u is constant, W = R id
    grid = np.linspace(0.0, math.pi, 65)
    R = math.tan(0.4)
    st = support_closure(2, grid, np.full(65, R))
    assert st.min_eig_w == pytest.approx(R, rel=1e-14)
    assert st.max_eig_w == pytest.approx(R, rel=1e-14)
    assert np.allclose(st.rho, 0.8, atol=1e-14)
    assert np.allclose(st.h_merid, 1.0 / R, rtol=1e-14)


def test_support_closure_validation():
    grid = np.linspace(0.0, math.pi, 17)
    ones = np.ones(17)
    with pytest.raises(ValueError):
        support_closure(2, grid, np.ones(16))
    with pytest.raises(ValueError):
        support_closure(2, grid, -ones)
    with pytest.raises(ValueError):
        support_closure(2, grid, ones, u_grad=np.zeros(17))
    with pytest.raises(ValueError):
        support_closure(2, grid**2, ones)
    with pytest.raises(ValueError):
        support_closure(2, grid[:-1], np.ones(16))


def test_closure_rejects_indefinite_hessian():
    grid = np.linspace(0.0, math.pi, 65)
    u = 1.0 + 0.8 * np.cos(4 * grid)  # u'' + u dips negative
    with pytest.raises(ConvexityLoss) as err:
        support_closure(2, grid, u)
    assert err.value.node is not None


def test_dual_roundtrip_is_exact():
    prof = RadialProfile.perturbed(2, 0.8, 0.05, 2, 257)
    st = dual_from_profile(prof)
    # graph points map back onto the original uniform grid
    theta_z = st.theta + np.arctan(st.u_grad / st.u)
    assert float(np.max(np.abs(theta_z - prof.theta))) < 1e-13
    back = profile_from_dual(st, 257)
    assert float(np.max(np.abs(back.rho - prof.rho))) < 1e-10


def test_g_operator_vanishes_on_sphere():
    st = dual_from_profile(RadialProfile.geodesic_sphere(2, 0.8, 129))
    assert float(np.max(np.abs(g_operator(st, 1)))) < 1e-13


def test_g_operator_equator_cone_error():
    # unit support: the eigenvalue shift cancels W^{-1} = id exactly
    grid = np.linspace(0.0, math.pi, 33)
    st = support_closure(2, grid, np.ones(33))
    with pytest.raises(ConeViolation, match="node 0"):
        g_operator(st, 1)


def test_speed_transport_residual_second_order():
    res = [
        speed_transport_residual(RadialProfile.perturbed(2, 0.8, 0.05, 2, N), 1)
        for N in (65, 129, 257)
    ]
    assert res[0] < 1e-4 and res[2] < 1e-5
    assert res[0] / res[1] > 3.0
    assert res[1] / res[2] > 3.0


def test_pullback_guards_monotonicity():
    st = dual_from_profile(RadialProfile.perturbed(2, 0.8, 0.05, 2, 65))
    bad_grad = st.u_grad.copy()
    bad_grad[30] = -5.0  # fold the point map back on itself
    broken = dataclasses.replace(st, u_grad=bad_grad)
    with pytest.raises(ConvexityLoss):
        profile_from_dual(broken)


def test_dual_run_short():
    cfg = FlowConfig(
        n=2, k=1, N=65,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2),
        t_max=0.05, sample_every=10,
    )
    res = dual_run(cfg)
    assert res.termination == "tmax"
    assert res.steps > 0 and res.breakdown_time is None
    assert all(flags == "" for flags in res.trace.violations)
    assert float(np.min(res.trace.column("minEigW"))) > 0.0
    # topological invariant survives the dual discretization
    a2 = res.trace.column("A_2")
    assert np.allclose(a2, 4.0 * math.pi, atol=2e-3)


def test_dual_trace_csv(tmp_path):
    cfg = FlowConfig(
        n=2, k=1, N=65,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2),
        t_max=0.02, sample_every=10,
    )
    res = dual_run(cfg)
    path = tmp_path / "dual.csv"
    res.trace.to_csv(path, seed=3)
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=3"
    cols = lines[1].split(",")
    assert cols[-4:] == ["minEigW", "maxEigW", "breakdownTime", "violationFlags"]
    # no breakdown: the cell stays empty
    assert all(line.split(",")[-2] == "" for line in lines[2:])
    with pytest.raises(KeyError):
        res.trace.column("breakdownTime")


def test_dual_eigenvalues_match_primal_curvatures():
    # lambda = (rho_tilde/phi) (W^{-1} + shift) eigenvalue by eigenvalue;
    # each chart differentiates its own variable, so nodal agreement is
    # second order rather than exact
    errs = []
    for N in (129, 257, 513):
        prof = RadialProfile.perturbed(2, 0.8, 0.05, 2, N)
        st = geometry(prof, 1)
        ds = dual_from_profile(prof)
        shift = (ds.phip - 1.0) / (ds.rho_tilde * ds.omega)
        lam1 = ds.rho_tilde / ds.phi * (ds.h_merid + shift)
        lam_ang = ds.rho_tilde / ds.phi * (ds.h_ang + shift)
        errs.append(max(
            float(np.max(np.abs(lam1 - st.lam1))),
            float(np.max(np.abs(lam_ang - st.lam_ang))),
        ))
    assert errs[0] < 1e-4 and errs[2] < 2e-6
    assert errs[0] / errs[1] > 3.0 and errs[1] / errs[2] > 3.0


def _closure_marks(monkeypatch, config, core="_closure"):
    """Clean dual run of config; calls of the core (the closure core unless
    named) made by the pullback, the start and each accepted step, which
    support_closure closes once each."""
    real_core, real_support = getattr(dualflow_module, core), dualflow_module.support_closure
    calls, marks = [0], []

    def counting(*args, **kwargs):
        calls[0] += 1
        return real_core(*args, **kwargs)

    def marking(*args, **kwargs):
        state = real_support(*args, **kwargs)
        marks.append(calls[0])
        return state

    with monkeypatch.context() as patch:
        patch.setattr(dualflow_module, core, counting)
        patch.setattr(dualflow_module, "support_closure", marking)
        dual_run(config)
    return marks


def test_dual_run_records_breakdown_when_every_trial_fails(monkeypatch, tmp_path):
    cfg = FlowConfig(
        n=2, k=1, N=65,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2),
        t_max=0.05,
    )
    marks = _closure_marks(monkeypatch, cfg)
    assert len(marks) >= 5  # the pullback, the start and at least three steps
    real = dualflow_module._closure
    count = [0]

    def closure(*args, **kwargs):
        # after the third accepted step every stage, Jacobian and
        # accepted vector stops having a positive W
        count[0] += 1
        if count[0] > marks[4]:
            raise ConvexityLoss("forced loss of convexity")
        return real(*args, **kwargs)

    monkeypatch.setattr(dualflow_module, "_closure", closure)
    res = dual_run(cfg)
    assert res.termination == "convexity_breakdown"
    assert res.steps == 3
    # each restart halves the step, from at least the first step until it
    # drops below 1e-12 of it: 2^-40 < 1e-12 <= 2^-39
    assert res.rejections >= 40
    assert res.breakdown_time == res.t_final > 0.0
    assert res.trace.breakdown_time == res.breakdown_time
    path = tmp_path / "dual.csv"
    res.trace.to_csv(path)
    rows = path.read_text().splitlines()[1:]
    assert all(line.split(",")[-2] == repr(res.t_final) for line in rows)


def _force_cone_exit(monkeypatch, cfg, max_calls=None):
    """Make G leave the quotient's cone at every stage and every accepted
    vector from the closure of the fourth accepted vector on; W stays
    positive definite and J, which uses quotient_two_value, stays finite.
    Past max_calls calls of the quotient core the run fails outright."""
    marks = _closure_marks(monkeypatch, cfg, "quotient_two_core")
    assert len(marks) >= 6  # the pullback, the start and at least four steps
    real = dualflow_module.quotient_two_core
    count = [0]

    def core(*args):
        count[0] += 1
        if max_calls is not None and count[0] > marks[5] + max_calls:
            raise AssertionError("the stepper kept retrying a collapsed step")
        if count[0] > marks[5]:
            raise ConeViolation("forced cone exit")
        return real(*args)

    monkeypatch.setattr(dualflow_module, "quotient_two_core", core)


def test_dual_run_collapse_without_a_convexity_loss_is_no_breakdown(monkeypatch):
    """Only a loss of positive definiteness of W is a breakdown; a run whose
    trials all leave the quotient's cone ends step_collapse, as run does."""
    cfg = FlowConfig(
        n=2, k=1, N=65,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2),
        t_max=0.05,
    )
    _force_cone_exit(monkeypatch, cfg)
    res = dual_run(cfg)
    assert res.termination == "step_collapse: forced cone exit"
    assert res.steps == 3 and res.rejections >= 40
    assert res.breakdown_time is None and res.trace.breakdown_time is None
    # a failed trial ends at once: each restart takes one Jacobian and one LU
    # pair, not a descent of halvings with a pair each
    assert res.lu_factorizations <= 4 * (res.rejections + res.steps)


def test_collapse_below_the_float_spacing_of_t_ends(monkeypatch):
    """Restarts below the float spacing of t still shrink: where the floor on
    the step lies below 5 ulp(t), the trials run at the stepper's least step,
    10 ulp(t), but each restart halves the step that it would have taken, so
    the run still collapses in about log2(h / floor) rejections."""
    cfg = FlowConfig(
        n=2, k=1, N=65,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2),
        t_max=0.05,
    )
    # 1e-24 of the first step lies far below 5 ulp of the collapse time
    monkeypatch.setattr(flow_module, "_MULT_FLOOR", 1e-24)
    # a failed trial costs one quotient call, its first Newton iteration's
    # stages; 1000 is far above the ~85 halvings to 1e-24 of the first step
    _force_cone_exit(monkeypatch, cfg, max_calls=1000)
    res = dual_run(cfg)
    assert res.termination == "step_collapse: forced cone exit"
    assert res.steps == 3 and 80 <= res.rejections <= 120
    assert res.lu_factorizations <= 4 * (res.rejections + res.steps)


def test_dual_run_forgets_a_convexity_loss_that_a_step_recovered_from(monkeypatch):
    """A stage whose W is not positive definite, retried within its step, does
    not make a later collapse of another kind a breakdown."""
    cfg = FlowConfig(
        n=2, k=1, N=65,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2),
        t_max=0.05,
    )
    real_stage, real_factor = dualflow_module._stage_g, flow_module._factor
    real_support = dualflow_module.support_closure
    stages, closed = [0], [0]

    def stage(*args):
        stages[0] += 1
        if stages[0] == 1:
            raise ConvexityLoss("forced stage loss")
        return real_stage(*args)

    def support(*args, **kwargs):
        closed[0] += 1
        return real_support(*args, **kwargs)

    def factor(*args):
        # after the pullback, the start and three accepted steps
        if closed[0] > 5:
            raise np.linalg.LinAlgError("forced singular factor")
        return real_factor(*args)

    monkeypatch.setattr(dualflow_module, "_stage_g", stage)
    monkeypatch.setattr(dualflow_module, "support_closure", support)
    monkeypatch.setattr(flow_module, "_factor", factor)
    res = dual_run(cfg)
    assert res.termination == "step_collapse: forced singular factor"
    assert res.steps >= 3 and res.breakdown_time is None


def test_accepted_dual_states_skip_the_quotient_gradient(monkeypatch):
    # G, its Jacobians and the trace's F read the quotient value alone; only
    # the first step's stiffness needs the gradient
    real, calls = dualflow_module.quotient_two_value, [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(dualflow_module, "quotient_two_value", counting)
    cfg = FlowConfig(n=2, k=1, N=128, t_max=0.1, convergence_tol=0.0, sample_every=10**9,
                     initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2))
    res = dual_run(cfg)
    assert res.termination == "tmax" and res.steps > 1 and res.jacobians < res.steps
    assert calls[0] == 1


def test_trace_row_of_the_equator_state_is_nan():
    # unit support: the point rho = pi/2 has no profile, and the shifted
    # eigenvalues vanish, so sigma_1 = 0 and F is undefined
    codes = []
    state = support_closure(2, polar_grid(33), np.ones(33))
    row = dualflow_module._trace_row(state, np.zeros(33), 1, codes)
    assert codes == ["PULLBACK"]
    assert all(math.isnan(a) for a in row[:4])  # A_-1 .. A_2
    min_f, max_f = row[7:9]
    assert math.isnan(min_f) and math.isnan(max_f)


@pytest.mark.parametrize("n, k, r0, eps", [(2, 1, 0.8, 0.05), (3, 2, 0.9, 0.03)])
def test_dual_trace_starts_on_the_graph_traces_primal_columns(n, k, r0, eps):
    # minU is the spherical support function u = phi / omega in both traces,
    # not the dual's Euclidean u_tilde; maxSpeed differs, max |G| in the dual
    cfg = FlowConfig(n=n, k=k, N=256, t_max=1e-4,
                     initial_shape=ShapeSpec(kind="perturbed", r0=r0, eps=eps, mode=2))
    graph, dual = run(cfg).trace, dual_run(cfg).trace
    assert dual.t[0] == graph.t[0] == 0.0
    for name in ("minU", "minRho", "maxRho", "minF", "maxF", "minLambda", "maxLambda"):
        assert dual.column(name)[0] == pytest.approx(graph.column(name)[0], rel=1e-3), name
