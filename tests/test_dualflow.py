import dataclasses
import math

import numpy as np
import pytest

import oracles
import sphereflow.dualflow as dualflow_module
import sphereflow.flow as flow_module
import sphereflow.hypersurface as hypersurface_module
from sphereflow import ConeViolation, ConvexityLoss, RadialProfile, geometry
from sphereflow.dualflow import (
    decomposition_residual,
    dual_from_profile,
    dual_run,
    g_operator,
    gamma_transform,
    profile_from_dual,
    support_closure,
)
from sphereflow.flow import FlowConfig, ShapeSpec, run, speed
from sphereflow.hypersurface import polar_grid
from sphereflow.quermass import sphere_quermass


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


def test_support_closure_validation():
    grid = np.linspace(0.0, math.pi, 17)
    ones = np.ones(17)
    with pytest.raises(ValueError):
        support_closure(2, grid, np.ones(16))
    with pytest.raises(ValueError):
        support_closure(2, grid, -ones)
    with pytest.raises(ValueError):  # inf - inf in the differences warns nothing
        support_closure(2, grid, np.where(np.arange(17) % 2, np.inf, 1.0))
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


def _speed_transport_residual(N):
    """Mismatch between G and the transported primal normal speed: the primal
    rate of rho_tilde at a graph point transports to (u/rho_tilde) d(rho_tilde)/dt
    = (u omega / phi) f, and both sides use their own chart's discrete
    derivatives, so agreement is second order in h."""
    profile = RadialProfile.perturbed(2, 0.8, 0.05, 2, N)
    dual = dual_from_profile(profile)
    g = g_operator(dual, 1)
    transported = dual.u * dual.omega / dual.phi * speed(geometry(profile, 1))
    return float(np.max(np.abs(g - transported))) / max(1.0, float(np.max(np.abs(g))))


def test_speed_transport_residual_second_order():
    res = [_speed_transport_residual(N) for N in (65, 129, 257)]
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


def _short_config(**kw):
    """A run to t = 0.05 from the n=2, k=1 mode-2 shape at N=65, with kw replaced."""
    shape = ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2)
    return dataclasses.replace(FlowConfig(n=2, k=1, N=65, t_max=0.05, initial_shape=shape), **kw)


def test_dual_run_short():
    cfg = _short_config(sample_every=10)
    res = dual_run(cfg)
    assert res.termination == "tmax"
    assert res.steps > 0 and res.breakdown_time is None
    assert all(flags == "" for flags in res.trace.violations)
    assert float(np.min(res.trace.column("minEigW"))) > 0.0
    # topological invariant survives the dual discretization
    a2 = res.trace.column("A_2")
    assert np.allclose(a2, 4.0 * math.pi, atol=2e-3)


def test_dual_run_steps_from_the_one_start_transfer(monkeypatch):
    # the stepper's first vector is _dual_start's, bit for bit, as the tests take it
    cfg = FlowConfig(n=3, k=2, N=128, t_max=1e-3,
                     initial_shape=ShapeSpec(kind="perturbed", r0=0.9, eps=0.03, mode=2))
    starts = []

    def integrate(*args):
        starts.append(args[5].copy())  # y0
        return flow_module._integrate(*args)

    monkeypatch.setattr(dualflow_module, "_integrate", integrate)
    assert dual_run(cfg).termination == "tmax" and len(starts) == 1
    assert np.array_equal(starts[0], dualflow_module._dual_start(cfg.initial_shape.build(3, 128)))


def test_dual_trace_csv(tmp_path):
    cfg = _short_config(t_max=0.02, sample_every=10)
    res = dual_run(cfg)
    path = tmp_path / "dual.csv"
    res.trace.to_csv(path, seed=3)
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=3"
    cols = lines[1].split(",")
    assert cols[-3:] == ["minEigW", "maxEigW", "violationFlags"]
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
        h_merid, h_ang = dualflow_module._shifted(1.0 / ds.w_merid, 1.0 / ds.w_ang,
                                                  ds.rho_tilde, ds.omega, ds.phip)
        lam1 = ds.rho_tilde / ds.phi * h_merid
        lam_ang = ds.rho_tilde / ds.phi * h_ang
        errs.append(max(
            float(np.max(np.abs(lam1 - st.lam1))),
            float(np.max(np.abs(lam_ang - st.lam_ang))),
        ))
    assert errs[0] < 1e-4 and errs[2] < 2e-6
    assert errs[0] / errs[1] > 3.0 and errs[1] / errs[2] > 3.0


def _closure_marks(monkeypatch, config, core="_closure"):
    """Clean dual run of config; calls of the core (the closure core unless
    named) made by the pullback, the start and each accepted step, each of
    which builds one full DualState by _dual_state."""
    real_core, real_state = getattr(dualflow_module, core), dualflow_module._dual_state
    calls, marks = [0], []

    def counting(*args, **kwargs):
        calls[0] += 1
        return real_core(*args, **kwargs)

    def marking(*args, **kwargs):
        state = real_state(*args, **kwargs)
        marks.append(calls[0])
        return state

    with monkeypatch.context() as patch:
        patch.setattr(dualflow_module, core, counting)
        patch.setattr(dualflow_module, "_dual_state", marking)
        dual_run(config)
    return marks


def test_dual_run_records_breakdown_when_every_trial_fails(monkeypatch):
    # a fourth step longer than the first, so that no t_max clamp shortens it
    cfg = _short_config(t_max=0.2)
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


def _force_cone_exit(monkeypatch, cfg, max_calls=None):
    """Make G leave the quotient's cone at every stage, Jacobian and accepted
    vector from the closure of the fourth accepted vector on; W stays
    positive definite.  Past max_calls calls of the quotient core the run
    fails outright."""
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
    cfg = _short_config(t_max=0.2)  # four steps at least, as _force_cone_exit needs
    _force_cone_exit(monkeypatch, cfg)
    res = dual_run(cfg)
    assert res.termination == "step_collapse: forced cone exit"
    assert res.steps == 3 and res.rejections >= 40
    assert res.breakdown_time is None
    # a failed trial ends at once: each restart takes one Jacobian and one LU
    # pair, not a descent of halvings with a pair each
    assert res.lu_factorizations <= 4 * (res.rejections + res.steps)


def test_collapse_below_the_float_spacing_of_t_ends(monkeypatch):
    """Restarts below the float spacing of t still shrink: where the floor on
    the step lies below 5 ulp(t), the trials run at the stepper's least step,
    10 ulp(t), but each restart halves the step that it would have taken, so
    the run still collapses in about log2(h / floor) rejections."""
    cfg = _short_config(t_max=0.2)  # four steps at least, as _force_cone_exit needs
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
    cfg = _short_config(t_max=0.2)  # four steps at least, so that the collapse comes first
    real_stage, real_factor = dualflow_module._stage_g, flow_module._factor
    real_state = dualflow_module._dual_state
    stages, closed = [0], [0]

    def stage(*args):
        # the first stage of the first Newton iteration; a Jacobian's complex
        # stack is no stage
        if not np.iscomplexobj(args[-1]):
            stages[0] += 1
            if stages[0] == 1:
                raise ConvexityLoss("forced stage loss")
        return real_stage(*args)

    def closing(*args, **kwargs):
        closed[0] += 1
        return real_state(*args, **kwargs)

    def factor(*args):
        # after the pullback, the start and three accepted steps
        if closed[0] > 5:
            raise np.linalg.LinAlgError("forced singular factor")
        return real_factor(*args)

    monkeypatch.setattr(dualflow_module, "_stage_g", stage)
    monkeypatch.setattr(dualflow_module, "_dual_state", closing)
    monkeypatch.setattr(flow_module, "_factor", factor)
    res = dual_run(cfg)
    assert res.termination == "step_collapse: forced singular factor"
    assert res.steps >= 3 and res.breakdown_time is None


def test_dual_run_restarts_a_stage_convexity_loss_under_a_stale_jacobian(monkeypatch):
    """A stage whose W is not positive definite fails its trial under the
    first step's J as under a fresh one: step restarts it once, and the run
    ends where a clean one does, with no breakdown."""
    cfg = _short_config()
    real, real_state = dualflow_module._stage_g, dualflow_module._dual_state
    stages, marks, fail = [0], [], [None]

    def stage(*args):
        # a Jacobian's complex stack is no stage
        if not np.iscomplexobj(args[-1]):
            stages[0] += 1
            if stages[0] == fail[0]:
                raise ConvexityLoss("forced stage loss")
        return real(*args)

    def marking(*args, **kwargs):
        marks.append(stages[0])
        return real_state(*args, **kwargs)

    monkeypatch.setattr(dualflow_module, "_stage_g", stage)
    with monkeypatch.context() as patch:
        patch.setattr(dualflow_module, "_dual_state", marking)
        clean = dual_run(cfg)
    # the real stages before the pullback, the start and each accepted step
    assert len(marks) >= 4
    # the first real stage of the second step
    stages[0], fail[0] = 0, marks[2] + 1
    res = dual_run(cfg)
    assert res.termination == clean.termination == "tmax"
    assert res.rejections == 1 and clean.rejections == 0
    assert res.breakdown_time is None
    assert float(np.max(np.abs(res.u - clean.u))) < 1e-9


def test_accepted_dual_states_skip_the_quotient_gradient(monkeypatch):
    # G, its Jacobians, the first step and the trace's F read the quotient
    # value alone
    real, calls = hypersurface_module.quotient_two_value, [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(hypersurface_module, "quotient_two_value", counting)
    cfg = _short_config(N=128, t_max=0.1, convergence_tol=0.0, sample_every=10**9)
    res = dual_run(cfg)
    assert res.termination == "tmax" and res.steps > 1 and res.jacobians < res.steps
    assert calls[0] == 0 and not hasattr(dualflow_module, "quotient_two_value")


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


def _off_centre_config(n, k, R, d0, N, t_max):
    """A run to t_max, with no converged stop, from the geodesic sphere of
    radius R centred at distance d0 from the pole, sampled on the N-node grid."""
    grid = polar_grid(N)
    shape = ShapeSpec(kind="custom", theta=grid.theta,
                      rho=oracles.off_centre_sphere(grid.theta, R, d0))
    return FlowConfig(n=n, k=k, N=N, t_max=t_max, convergence_tol=0.0, initial_shape=shape)


@pytest.mark.parametrize("n, k, R, d0", [(2, 1, 0.8, 0.3), (3, 2, 0.5, 0.4), (2, 0, 0.8, 0.3),
                                         (3, 1, 1.2, 0.3), (8, 4, 0.8, 0.3), (5, 2, 0.5, 0.4)])
def test_both_solvers_follow_the_off_centre_sphere_at_second_order(n, k, R, d0):
    # the sphere stays one of radius R, its centre on oracles.off_centre_distance;
    # the dual solver's profile is read through profile_from_dual
    d_final = oracles.off_centre_distance(n, k, R, d0, 1.0)
    errors = {"run": [], "dual_run": []}
    for N in (65, 129, 257):
        config = _off_centre_config(n, k, R, d0, N, 1.0)
        graph, dual = run(config), dual_run(config)
        for name, res, prof in (("run", graph, graph.profile),
                                ("dual_run", dual, profile_from_dual(dual.state))):
            assert res.termination == "tmax" and res.t_final == 1.0, name
            exact = oracles.off_centre_sphere(prof.theta, R, d_final)
            errors[name].append(float(np.max(np.abs(prof.rho - exact))))
    for name, err in errors.items():
        assert min(np.log2(np.divide(err[:-1], err[1:]))) >= 1.9, (name, err)


@pytest.mark.parametrize("n, k, R, d0", [(2, 1, 0.8, 0.3), (3, 2, 0.5, 0.4), (2, 0, 0.8, 0.3),
                                         (4, 1, 0.6, 0.5), (3, 1, 1.2, 0.3), (5, 2, 0.5, 0.4)])
def test_run_stops_on_the_off_centre_sphere_within_its_stated_resolution(n, k, R, d0):
    # at the default stop, run's located tFinal lies within tFinalResolution of
    # the exact oracles.off_centre_stop_time, and every A_l, which the flow
    # conserves here, drifts over the whole run at second order in h
    tol = FlowConfig.convergence_tol  # the default
    t_star = oracles.off_centre_stop_time(n, k, R, d0, tol)
    drifts = []
    for N in (65, 129, 257):
        config = _off_centre_config(n, k, R, d0, N, FlowConfig.t_max)
        res = run(dataclasses.replace(config, convergence_tol=tol))
        assert res.termination == "converged"
        assert abs(res.t_final - t_star) <= res.t_final_resolution, (N, res.t_final, t_star)
        drifts.append(max(np.max(np.abs(res.trace.column(f"A_{m}")
                                        / sphere_quermass(n, m, R) - 1.0))
                          for m in range(-1, n + 1)))
    assert min(np.divide(drifts[:-1], drifts[1:])) >= 3.5, drifts


@pytest.mark.parametrize("n, k, R, d0", [(2, 1, 0.6, 0.55), (2, 1, 0.8, 0.7), (4, 1, 0.6, 0.5)])
def test_the_dual_trace_reads_every_row_of_a_sphere_near_the_origin(n, k, R, d0):
    # with the pole close to the sphere the pulled-back points crowd together
    # on one side; every row still reads a profile, and the A_l, which the
    # flow conserves on these spheres, drift at second order in h
    drifts = []
    for N in (129, 257):
        res = dual_run(_off_centre_config(n, k, R, d0, N, 0.5))
        assert res.termination == "tmax" and "PULLBACK" not in res.violations
        drifts.append(max(np.max(np.abs(np.array(res.trace.column(f"A_{m}"))
                                        / sphere_quermass(n, m, R) - 1.0))
                          for m in range(-1, n + 1)))
    assert drifts[0] / drifts[1] >= 3.5, drifts


def _spline_started_state(R, d, N):
    """The uniform-grid DualState that dual_run starts from on the off-centre
    sphere, moved off the normal angles by dual_run's own start transfer."""
    grid = polar_grid(N)
    prof = RadialProfile(n=2, theta=grid, rho=oracles.off_centre_sphere(grid.theta, R, d))
    return support_closure(2, prof.grid, dualflow_module._dual_start(prof))


def test_the_pullback_reads_the_slopes_of_the_dual_state():
    # the Hermite slopes sin(rho) u_theta/u carry the stencil's O(h^2) error,
    # so the readout is third order; with zero slopes it would be first order
    errs = []
    for N in (65, 129, 257):
        back = profile_from_dual(_spline_started_state(0.8, 0.3, N))
        exact = oracles.off_centre_sphere(back.theta, 0.8, 0.3)
        errs.append(float(np.max(np.abs(back.rho - exact))))
    assert min(np.log2(np.divide(errs[:-1], errs[1:]))) >= 2.5, errs
    # near the origin a global spline through the crowded points overshoots
    # to a negative curvature; every curvature of the sphere is cot R
    state = geometry(profile_from_dual(_spline_started_state(0.8, 0.7, 257)), 0)
    lam_min = min(state.lam1.min(), state.lam_ang.min())
    assert abs(lam_min - 1.0 / math.tan(0.8)) <= 0.05 / math.tan(0.8), lam_min
