"""Time integration of the constrained curvature flow on radial graphs.

The normal speed is f = c * phi'(rho) - u * F with c the quotient's value on
the round sphere, which preserves the quermassintegral A_{k-1} and drives
convex initial data to a geodesic sphere.  On the fixed graph grid the radius
obeys d(rho)/dt = f * W / phi.  That rate is pointwise in rho and its 3-point
stencil derivatives, so its Jacobian is tridiagonal, which _jacobian reads from
one complex-step call of the rate, and the stiff system is stepped with Radau
IIA (Hairer & Wanner, Solving ODEs II, Sec. IV.8), whose steps are sized by
accuracy rather than by the h^2 stability limit.  _Stepper is that method: its
three stages go to the rate as one stacked call, each trial factors MU/h I - J
once by LAPACK's tridiagonal routines, and a failed trial, an unconverged
Newton solve and a Jacobian that is not finite included, raises to
_Stepper.step, the one place that halves a step on failure.  One driver,
_integrate, steps both this solver and the support-function solver in dualflow;
its first step is _first_step's error-test estimate from the start's J, and
each step starts on the rate of the state that the solver built from the last
accepted vector, not on a rate call.  A converged run stops where its max speed
crosses the tolerance, located on the last step's collocation polynomial
(_crossing).  _integrate names every stop of a run and returns the final solver
state and an Outcome, the stop and the counters, which FlowResult here and
DualResult extend.  Classical Runge-Kutta stays on as the test oracle.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .exceptions import ConvexityLoss, StepRejected
from .hypersurface import (
    GeometryState,
    RadialProfile,
    _json_fields,
    _json_integer,
    _json_number,
    _json_object,
    _json_samples,
    as_grid,
    checked_radii,
    curvatures,
    differentiate,
    frame_hessian,
    geometry,
    integrate,
    polar_grid,
    save_checkpoint,
)
from .quermass import QuermassVector, _normal_quermass, quermass_vector
from .symfunc import identity_quotient, quotient_two_core

__all__ = [
    "ShapeSpec",
    "FlowConfig",
    "FlowTrace",
    "FlowResult",
    "speed",
    "step",
    "run",
    "Monitors",
    "evolution_residuals",
    "functional_derivative_residuals",
]

_MULT_FLOOR = 1e-12
# both solvers' Radau rtol is min(0.1 h^2, convergence_tol), at least _RTOL: a
# time error below the O(h^2) grid error and no finer than the stop (Lawson,
# Berzins & Dew, SIAM J. Sci. Stat. Comput. 12, 1991); tMax-only runs keep _RTOL
_RTOL = 1e-8
# the RK4 oracle's step times G, the Gershgorin bound of the Jacobian: dt * rho(J)
# <= 0.8 keeps RK4 inside its stability limit 2.785 (the studies use studies._CFL)
_RK4_FACTOR = 0.8
# Monitors thresholds: relative barrier slack, per-step sign slack, drift of
# the preserved A_{k-1}, and the factor by which F may leave its initial band
_BARRIER_TOL = 1e-8
_SIGN_TOL = 1e-8
_CONSERVATION_TOL = 1e-4
_QUOTIENT_RATIO = 1.5
# Discretization allowance for one step of the sign checks: the
# finite-difference dA_l/dt carries an O(h^2) defect, so a per-step
# increment up to ~h^2 * dt * scale is grid noise, not a violation.
# Calibrated against the refinement studies: observed wrong-direction
# rates stay below 0.1 * h^2 * scale per unit time, so 1.0 gives a
# factor-ten margin without masking genuine monotonicity failures.
_SIGN_ALLOWANCE = 1.0
# both solvers stop as curvature_blowup once a state's max curvature exceeds this
_BLOWUP_CURVATURE = 1e3


@dataclass
class ShapeSpec:
    """Tagged initial-shape choice: geodesicSphere, perturbed, or custom."""

    kind: str
    r: float | None = None
    r0: float | None = None
    eps: float | None = None
    mode: int | None = None
    theta: np.ndarray | None = None
    rho: np.ndarray | None = None

    # each kind's fields, which are also its JSON keys, with their JSON readers
    FIELDS = {
        "geodesicSphere": {"r": _json_number},
        "perturbed": {"r0": _json_number, "eps": _json_number, "mode": _json_number},
        "custom": {"theta": _json_samples, "rho": _json_samples},
    }

    def __post_init__(self):
        # a tuple test, since a kind read from JSON may be unhashable
        if self.kind not in tuple(self.FIELDS):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if any(getattr(self, name) is None for name in self.FIELDS[self.kind]):
            raise ValueError(f"{self.kind} shape needs {', '.join(self.FIELDS[self.kind])}")
        if self.kind == "perturbed":
            if not (float(self.mode).is_integer() and self.mode >= 1):
                raise ValueError("perturbation mode must be a positive integer")
            self.mode = int(self.mode)
        if self.kind == "custom":
            theta = np.asarray(self.theta, dtype=float)
            if theta.shape != np.shape(self.rho):
                raise ValueError("custom shape needs theta and rho of the same length")
            # samples that miss a pole would be extrapolated there by build
            if not (theta.ndim == 1 and theta.size >= 2 and abs(theta[0]) <= 1e-12
                    and abs(theta[-1] - math.pi) <= 1e-12 and np.all(np.diff(theta) > 0.0)):
                raise ValueError("theta must increase strictly from 0 to pi")

    def build(self, n: int, N: int) -> RadialProfile:
        if self.kind == "geodesicSphere":
            return RadialProfile.geodesic_sphere(n, self.r, N)
        if self.kind == "perturbed":
            return RadialProfile.perturbed(n, self.r0, self.eps, self.mode, N)
        # samples on this very grid are taken as they are, others resampled
        grid = polar_grid(N)
        try:
            on_grid = as_grid(self.theta) is grid
        except ValueError:
            on_grid = False
        if on_grid:
            return RadialProfile(n=n, theta=grid, rho=self.rho)
        from scipy.interpolate import CubicSpline  # a slow import, kept off the run path
        return RadialProfile(n=n, theta=grid, rho=CubicSpline(self.theta, self.rho)(grid.theta))

    def to_json(self) -> dict:
        return {"kind": self.kind, **{name: np.asarray(getattr(self, name)).tolist()
                                      for name in self.FIELDS[self.kind]}}

    @classmethod
    def from_json(cls, payload: dict) -> "ShapeSpec":
        kind = _json_object(payload, "initialShape").get("kind")
        if kind not in tuple(cls.FIELDS):
            raise ValueError(f"unknown shape kind {kind!r}")
        fields = cls.FIELDS[kind]
        schema = {"kind": ("kind", lambda value, key: value),
                  **{name: (name, read) for name, read in fields.items()}}
        return cls(**_json_fields(payload, "initialShape", schema, required=fields))


# A_n = |S^n|, the same for every convex hypersurface, underflows float64 from
# n = 438, and symfunc.sigma_two_value's binomials C(n - 1, m) overflow it from
# n = 1031, where the float conversion raises OverflowError
_N_MAX = 437


def _check_order(n: int, k: int) -> None:
    if n > _N_MAX:
        raise ValueError(f"n must be at most {_N_MAX}: |S^n| underflows in float64 above it")
    if n < 2 or not 0 <= k <= n - 1:
        raise ValueError(f"quotient order k={k} out of range for n={n} "
                         "(need n >= 2 and 0 <= k <= n - 1)")


# The run-settings wire format: JSON key -> (field, reader of the JSON value).
# Defaults live only on the dataclasses.
_CONFIG_KEYS = {
    "n": ("n", _json_integer),
    "k": ("k", _json_integer),
    "N": ("N", _json_integer),
    "dtMax": ("dt_max", lambda value, key: None if value is None else _json_number(value, key)),
    "tMax": ("t_max", _json_number),
    "convergenceTol": ("convergence_tol", _json_number),
    "initialShape": ("initial_shape", lambda value, key: ShapeSpec.from_json(value)),
    "sampleEvery": ("sample_every", _json_integer),
    "checkpointEvery": ("checkpoint_every", _json_integer),
}


@dataclass
class FlowConfig:
    n: int
    k: int
    N: int
    initial_shape: ShapeSpec
    dt_max: float | None = None  # None: no step cap but t_max
    t_max: float = 50.0
    convergence_tol: float = 1e-6
    sample_every: int = 1
    checkpoint_every: int = 0

    def __post_init__(self):
        for name in ("n", "k", "N", "sample_every", "checkpoint_every"):
            setattr(self, name, _json_integer(getattr(self, name), name))
        _check_order(self.n, self.k)
        if not isinstance(self.initial_shape, ShapeSpec):
            raise ValueError("initial_shape must be a ShapeSpec")
        if self.N < 5:
            raise ValueError("grid too coarse: need N >= 5")
        if self.dt_max is not None and not (math.isfinite(self.dt_max) and self.dt_max > 0.0):
            raise ValueError("dt_max must be finite and positive")
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError("t_max must be finite and positive")
        if self.sample_every < 1:
            raise ValueError("sample_every must be at least 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be nonnegative")
        # a NaN here would silently switch off the converged stop
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol >= 0.0):
            raise ValueError("convergence_tol must be finite and >= 0")

    def to_json(self) -> dict:
        payload = {key: getattr(self, name) for key, (name, _) in _CONFIG_KEYS.items()}
        return {**payload, "initialShape": self.initial_shape.to_json()}

    @classmethod
    def from_json(cls, payload: dict) -> "FlowConfig":
        return cls(**_json_fields(payload, "a config", _CONFIG_KEYS,
                                  required=("n", "k", "N", "initialShape")))


def _speed(n: int, k: int, phip, u, F) -> np.ndarray:
    return identity_quotient(n, k) * phip - u * F


def speed(state: GeometryState) -> np.ndarray:
    """Normal speed f = c * phi' - u * F."""
    return _speed(state.n, state.k, state.phip, state.u, state.F)


def _stage_rate(n: int, k: int, grid, rho) -> np.ndarray:
    """The radius rate d(rho)/dt = f * W / phi on fixed nodes, from the cores alone,
    with the checks of geometry(RadialProfile(n, grid, rho), k); rho may stack
    several radius vectors, such as the three Radau stages, along leading axes.
    Complex rho is stepped as it is and checked by its real part (_jacobian)."""
    checked_radii(grid, rho.real)
    _, _, _, phip, _, u, omega_speed, lam1, lam_ang = curvatures(grid, rho)
    return _speed(n, k, phip, u, quotient_two_core(lam1, lam_ang, n, k)[0]) * omega_speed


# the complex step of _jacobian (Squire & Trapp, SIAM Review 40, 1998): Im(rate)
# / step is the derivative, and the real parts the rate's checks read are its real
# values, to round-off while step * |f''/f'| < 1e-8, as at every radius up to
# N = 4097; an intermediate's imaginary part stays normal down to derivatives of 2e-278
_COMPLEX_STEP = 1e-30


def _jacobian(rate, y: np.ndarray) -> np.ndarray:
    """The tridiagonal Jacobian of rate at y as rows (sub-, main, super-diagonal):
    row 0 holds entry (i, i-1) at i and row 2 entry (i, i+1) at i.

    rate, complex-analytic in y, is called once, on the stack of y + i s comb
    for the three combs of ones on every third node (the Curtis-Powell-Reid
    grouping); no row of a tridiagonal matrix meets one comb twice, so each
    stage's Im(rate) / s holds one entry per row."""
    nodes = np.arange(y.size)
    combs = nodes % 3 == np.arange(3)[:, None]
    applied = rate(y + 1j * _COMPLEX_STEP * combs).imag / _COMPLEX_STEP
    return np.stack([applied[(nodes + offset) % 3, nodes] for offset in (-1, 0, 1)])


def _apply(J: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J x for the bands J of _jacobian, whose corner entries, which roll wraps onto, are 0."""
    return J[0] * np.roll(x, 1) + J[1] * x + J[2] * np.roll(x, -1)


def _rk4(y: np.ndarray, dt: float, r1: np.ndarray, rate) -> np.ndarray:
    """Classical Runge-Kutta update of y, whose rate is r1; rate(stage) may raise."""
    r2 = rate(y + 0.5 * dt * r1)
    r3 = rate(y + 0.5 * dt * r2)
    r4 = rate(y + dt * r3)
    return y + dt / 6.0 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)


def step(profile: RadialProfile, dt: float, k: int) -> RadialProfile:
    """One classical Runge-Kutta step of the radius evolution."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    n, grid = profile.n, profile.grid
    r1 = _stage_rate(n, k, grid, profile.rho)
    try:
        rho = _rk4(profile.rho, dt, r1, lambda stage: _stage_rate(n, k, grid, stage))
        return RadialProfile(n=n, theta=grid, rho=rho)
    except ValueError as exc:  # ConeViolation and refused radii included
        raise StepRejected(str(exc)) from exc


def _gershgorin_dt(J: np.ndarray, dt_max: float, factor: float = _RK4_FACTOR) -> float:
    """factor / G for the bands J of _jacobian, with G = max_i sum_j |J_ij| >= J's
    spectral radius, at most dt_max; dt_max where G is zero or not finite."""
    g = float(np.max(np.sum(np.abs(J), axis=0)))
    return min(factor / g, dt_max) if 0.0 < g < math.inf else dt_max


class Monitors:
    """Per-step structural checks against the flow's a-priori estimates.

    Codes: RHO_MIN / RHO_MAX / U_MIN for barrier losses, F_RANGE for the
    quotient leaving its initial band, SIGN_A{l} for a wrong-signed
    quermassintegral increment, CONSERVATION for drift of the preserved
    index, LAMBDA_MIN for convexity loss.  The thresholds are the module
    constants _BARRIER_TOL, _SIGN_TOL, _SIGN_ALLOWANCE, _CONSERVATION_TOL and
    _QUOTIENT_RATIO; of config only n and k are read; check returns a step's codes.
    """

    def __init__(self, config: FlowConfig, state0: GeometryState, q0: QuermassVector):
        self.k = config.k
        self.min_u0, self.min_rho0, self.max_rho0, self.min_f0, self.max_f0 = state0.extremes
        self.q0 = q0
        # by index l + 1: A_l may only grow below the preserved k - 1, only shrink above
        self.sign = np.where(np.arange(config.n + 2) < config.k, -1.0, 1.0)

    def check(self, q_prev: QuermassVector, q: QuermassVector,
              state: GeometryState, dt: float) -> list:
        codes: list = []
        b = _BARRIER_TOL
        umin, rmin, rmax, fmin, fmax = state.extremes
        if rmin < self.min_rho0 - b * max(1.0, abs(self.min_rho0)):
            codes.append("RHO_MIN")
        if rmax > self.max_rho0 + b * max(1.0, abs(self.max_rho0)):
            codes.append("RHO_MAX")
        if umin < self.min_u0 - b * max(1.0, abs(self.min_u0)):
            codes.append("U_MIN")
        if fmin < self.min_f0 / _QUOTIENT_RATIO or fmax > self.max_f0 * _QUOTIENT_RATIO:
            codes.append("F_RANGE")
        if state.lam_min <= 0.0:
            codes.append("LAMBDA_MIN")
        allowance = _SIGN_ALLOWANCE * state.h**2 * dt
        # each increment in its wrong direction; the preserved index may move neither way
        wrong = (q.values - q_prev.values) * self.sign
        wrong[self.k] = abs(wrong[self.k])
        slack = (_SIGN_TOL + allowance) * np.maximum(1.0, np.abs(q.values))
        for i in np.flatnonzero(wrong > slack):
            codes.append(f"SIGN_A{i - 1}")
        drift = abs(q.a(self.k - 1) - self.q0.a(self.k - 1))
        if drift > _CONSERVATION_TOL * max(1.0, abs(self.q0.a(self.k - 1))):
            codes.append("CONSERVATION")
        return codes


_TRACE_COLUMNS = ["minU", "minRho", "maxRho", "minF", "maxF",
                  "minLambda", "maxLambda", "maxSpeed"]


class FlowTrace:
    """Sampled run history, one float column per name.

    Columns are t, A_-1..A_n, _TRACE_COLUMNS and then ``extra``; every row
    also carries its flag codes, which the CSV writes last, as violationFlags.
    """

    def __init__(self, n: int, extra: tuple = ()):
        names = ["t"] + [f"A_{m}" for m in range(-1, n + 1)] + _TRACE_COLUMNS + list(extra)
        self.columns = {name: [] for name in names}
        self.violations: list = []

    @property
    def t(self) -> list:
        return self.columns["t"]

    def append(self, t: float, values, codes: list):
        """Add the row at time t: values in header order after t, then flags."""
        if self.t and not t > self.t[-1]:
            raise ValueError("trace timestamps must be strictly increasing")
        if len(values) != len(self.columns) - 1:
            raise ValueError(f"trace row needs {len(self.columns) - 1} values")
        for column, v in zip(self.columns.values(), (t, *values)):
            column.append(float(v))
        self.violations.append(";".join(codes))

    def to_csv(self, path, seed: int | None = None) -> None:
        with open(path, "w") as fh:
            if seed is not None:
                fh.write(f"# seed={seed}\n")
            fh.write(",".join([*self.columns, "violationFlags"]) + "\n")
            for *row, flags in zip(*self.columns.values(), self.violations):
                fh.write(",".join([repr(v) for v in row] + [flags]) + "\n")

    def column(self, name: str) -> np.ndarray:
        return np.array(self.columns[name])


@dataclass
class Outcome:
    """What _integrate reports of a run, whichever solver it stepped."""

    config: FlowConfig
    trace: FlowTrace
    termination: str
    t_final: float
    t_final_resolution: float | None  # of a converged stop inside a step, else None
    steps: int
    rejections: int
    rate_evaluations: int
    jacobians: int
    lu_factorizations: int
    dt_range: dict | None  # accepted steps' min, max and last span (past a located stop)

    @property
    def breakdown_time(self) -> float | None:
        """t_final of a run that ended convexity_breakdown, else None."""
        return self.t_final if self.termination == "convexity_breakdown" else None

    @property
    def violations(self) -> dict:
        """How many times each flag code was raised, counted over the trace rows."""
        return dict(Counter(filter(None, ";".join(self.trace.violations).split(";"))))


@dataclass
class FlowResult(Outcome):
    profile: RadialProfile


# Radau IIA of order 5 as scipy's Radau has it: the collocation nodes C, the
# error weights E, the eigenvalues MU and eigenvectors T of the inverse Butcher
# matrix, and P, which turns a step's stage increments into its collocation
# polynomial
_S6 = 6**0.5
_C = np.array([(4 - _S6) / 10, (4 + _S6) / 10, 1])
_E = np.array([-13 - 7 * _S6, -13 + 7 * _S6, -1]) / 3
_MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
_MU_COMPLEX = 3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3)) - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6))
_T = np.array([[0.09443876248897524, -0.14125529502095421, 0.03002919410514742],
               [0.25021312296533332, 0.20412935229379994, -0.38294211275726192],
               [1, 1, 0]])
_TI = np.array([[4.17871859155190428, 0.32768282076106237, 0.52337644549944951],
                [-4.17871859155190428, -0.32768282076106237, 0.47662355450055044],
                [0.50287263494578682, -2.57192694985560522, 0.59603920482822492]])
_TI_COMPLEX = _TI[1] + 1j * _TI[2]
_P = np.array([[13 / 3 + 7 * _S6 / 3, -23 / 3 - 22 * _S6 / 3, 10 / 3 + 5 * _S6],
               [13 / 3 - 7 * _S6 / 3, -23 / 3 + 22 * _S6 / 3, 10 / 3 - 5 * _S6],
               [1 / 3, -8 / 3, 10 / 3]])
# the step control: Newton iterations per solve and the largest step factor
_NEWTON_MAXITER = 6
_MAX_FACTOR = 10.0


def _combine(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a @ rows in einsum's own loop, as _rms sums: BLAS would split the sums
    across its threads, so their rounding would depend on the thread count."""
    return np.einsum("...j,jn->...n", a, rows)


def _rms(x: np.ndarray):
    x = x.ravel()
    return np.sqrt(np.einsum("i,i->", x, x) / x.size)


def _factor(gttrf, lower, diag, upper) -> tuple:
    """LAPACK's LU factors of a finite tridiagonal matrix, which are finite too, as
    pivoting bounds their growth by 2 (Higham, ch. 9); LinAlgError on a zero pivot."""
    *factors, info = gttrf(lower, diag, upper)
    if info != 0:
        raise np.linalg.LinAlgError("tridiagonal factor is singular")
    return factors


def _tolerances(config: FlowConfig) -> tuple:
    """Both solvers' Radau (rtol, atol = 1e-3 rtol) for config, by the rule above
    _RTOL, h = pi / (N - 1): the default stop's 1e-6 up to N ~ 1000, the floor (1e-8, 1e-11)."""
    h = math.pi / (config.N - 1)
    rtol = max(_RTOL, min(0.1 * h * h, config.convergence_tol))
    return rtol, rtol / _RTOL * 1e-11


def _first_step(J: np.ndarray, y: np.ndarray, f: np.ndarray, scale: np.ndarray, h_max) -> float:
    """Hairer, Norsett & Wanner's starting step (Solving ODEs I, Sec. II.4) from y, whose rate
    is f: the least of h_max, d0 / d1 and (0.01 / max(d1, d2, d3))^(1/4), for d_m the RMS of
    y's m-th derivative over the error test's scale, with y'' = J f and y''' = J J f."""
    f2 = _apply(J, f)
    d0, d1, d2, d3 = (_rms(x / scale) for x in (y, f, f2, _apply(J, f2)))
    return min(h_max, d0 / d1, (0.01 / max(d1, d2, d3)) ** 0.25) if d1 > 0.0 else h_max


class _Stepper:
    """Radau IIA (order 5) steps of y' = fun(y), each retried until accept takes one.

    It keeps scipy's Radau constants and, failures, scipy's predictive factor,
    its step hold and RADAU5's Newton-aware safety aside, its algorithm: the
    simplified Newton iteration on the collocation system, the embedded error
    estimate and one step-size rule for an accepted step, the factor
    0.9 * error_norm**-0.25 capped at _MAX_FACTOR, with J taken again after
    slow Newton convergence.  fun takes the three stages as one (3, N) stack
    and raises ValueError off the chart or the cone; J is _jacobian(fun, y),
    which counts as a Jacobian, not as rate evaluations, and is refused where
    an entry is not finite.  The first step is _first_step of the first
    trial's J; a step that would end within 10 ulp(t) of t_bound ends on it.
    The rate at a step's start is the caller's, from the accepted state; a zero
    predictor's first Newton iteration takes it for all three stages.  Each
    trial factors MU/h I - J once, by LAPACK's tridiagonal routines, for its
    Newton solve and its error estimate.  tolerances is the error test's (rtol, atol).

    accept turns a trial that passes the error test into the caller's next
    state, or raises StepRejected or ValueError.  Every trial that is not a
    step is a rejection, and every rejection is a raise: a failed error test,
    a failed solve (under a stale J as under a fresh one), a refused J and a
    refused vector alike.  step is the one retry loop: it restarts from (t, y)
    with a new J and a zero predictor, at half the step tried or of a smaller
    h_abs, re-raises below _MULT_FLOOR times the first step or, with no first
    step to halve, where the start's J fails, and grows no step after a retry.
    """

    def __init__(self, fun, accept, y: np.ndarray, t_bound: float, h_max, tolerances: tuple):
        self.fun, self.accept = fun, accept
        self.rtol, self.atol = tolerances
        self.newton_tol = min(0.03, self.rtol**0.5)
        self.t, self.y, self.t_bound, self.h_max = 0.0, y, t_bound, h_max
        # the rate evaluations count each stage of a stacked call
        self.evaluations = self.jacobians = self.factorizations = self.rejections = 0
        self._restart(None)

    def _restart(self, h: float | None) -> None:
        """Forget the last step: the next step takes J afresh, starts from a zero
        predictor and tries h, or with None the first step."""
        self.h_abs = self.tried = None if h is None else min(h, self.t_bound - self.t)
        self.J = None
        self.dense = None  # (t, y, collocation polynomial coefficients) at the last step's start

    def _fun(self, y: np.ndarray) -> np.ndarray:
        self.evaluations += y.size // self.y.size
        return self.fun(y)

    def _jac(self, y: np.ndarray) -> np.ndarray:
        """J at y; LinAlgError where an entry is not finite."""
        self.jacobians += 1
        J = _jacobian(self.fun, y)
        if not np.all(np.isfinite(J)):
            raise np.linalg.LinAlgError("Jacobian is not finite")
        return J

    def _newton(self, h: float, z: np.ndarray, scale: np.ndarray, f0, real, complex_) -> tuple:
        """(iterations, stage increments, convergence rate) of a converged solve on
        the trial's LU pair, else StepRejected; f0 is the stages' rate at z or None."""
        w = _combine(_TI, z)
        dw_norm_old = rate = None
        for it in range(_NEWTON_MAXITER):
            f = self._fun(self.y + z) if it or f0 is None else f0
            if not np.all(np.isfinite(f)):
                break
            dw_complex = lapack.zgttrs(
                *complex_, _combine(_TI_COMPLEX, f) - _MU_COMPLEX / h * (w[1] + 1j * w[2]))[0]
            dw = np.empty_like(w)
            dw[0] = lapack.dgttrs(*real, _combine(_TI[0], f) - _MU_REAL / h * w[0])[0]
            dw[1], dw[2] = dw_complex.real, dw_complex.imag
            dw_norm = _rms(dw / scale)
            if dw_norm_old is not None:
                rate = dw_norm / dw_norm_old
            if rate is not None and (rate >= 1 or rate ** (_NEWTON_MAXITER - it) / (1 - rate)
                                     * dw_norm > self.newton_tol):
                break
            w = w + dw
            z = _combine(_T, w)
            if dw_norm == 0 or rate is not None and rate / (1 - rate) * dw_norm < self.newton_tol:
                return it + 1, z, rate
            dw_norm_old = dw_norm
        raise StepRejected("Newton iteration did not converge")

    def _trial(self, f: np.ndarray) -> tuple:
        """One attempt at a Radau step from (t, y), whose rate is f: (t_new,
        y_new), with the step control and the predictor moved on to it; tried is
        its span.  It fails with ValueError where the rate, J or a factor does,
        or with StepRejected for a step below the float spacing of t, a Newton
        solve that does not converge or an error norm that is not <= 1, NaN
        included; step restarts every one of them."""
        t, y = self.t, self.y
        scale = self.atol + np.abs(y) * self.rtol
        if self.J is None:
            self.J = self._jac(y)
        if self.h_abs is None:  # the first step, from the start's J
            self.h_abs = self.tried = min(_first_step(self.J, y, f, scale, self.h_max),
                                          self.t_bound - t)
            self.floor = _MULT_FLOOR * self.h_abs
        min_step = 10 * abs(np.nextafter(t, np.inf) - t)
        h = min(max(self.h_abs, min_step), self.h_max)
        if h < min_step:
            raise StepRejected("step size fell below the float spacing of t")
        t_new = t + h
        if self.t_bound - t_new < min_step:  # past t_bound, or too near it for another step
            t_new, h = self.t_bound, self.t_bound - t
        self.tried = t_new - t
        if self.dense is None:  # zero increments: every stage is at y, whose rate is f
            z0, f0 = np.zeros((3, y.size)), np.stack((f, f, f))
        else:  # the last step's collocation polynomial at the new stages
            z0, f0 = self.at(t + h * _C) - y, None
        lower, diag, upper = -self.J[0, 1:], -self.J[1], -self.J[2, :-1]
        self.factorizations += 2  # MU/h I - J for the real and the complex MU
        real = _factor(lapack.dgttrf, lower, _MU_REAL / h + diag, upper)
        complex_ = _factor(lapack.zgttrf, lower + 0j, _MU_COMPLEX / h + diag, upper + 0j)
        iterations, z, rate = self._newton(h, z0, scale, f0, real, complex_)
        y_new = y + z[-1]
        error = lapack.dgttrs(*real, f + _combine(_E, z) / h)[0]
        scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
        error_norm = _rms(error / scale)
        if not error_norm <= 1:  # NaN fails too
            raise StepRejected("error test failed")

        if iterations > 2 and rate > 1e-3:  # slow convergence: J is stale
            self.J = self._jac(y_new)
        self.h_abs = h * min(_MAX_FACTOR, 0.9 * error_norm**-0.25)
        self.dense = (t, y, _combine(_P.T, z))
        self.error = error  # the accepted step's error estimate, read for tFinal's resolution
        return t_new, y_new

    def at(self, t):
        """The last accepted step's collocation polynomial at t, a time or an array."""
        t_old, y_old, q = self.dense
        x = (t - t_old) / (self.t - t_old)
        return _combine(np.array([x, x * x, x * x * x]).T, q) + y_old

    def step(self, f: np.ndarray):
        """The state that accept makes of the next accepted step from (t, y),
        whose rate f the caller supplies; t and y move on to that step."""
        rejected = False
        while True:
            try:
                with np.errstate(all="ignore"):
                    t_new, y_new = self._trial(f)
                state = self.accept(y_new)
                self.t, self.y = t_new, y_new
                if rejected:  # RADAU5: no growth right after a rejection
                    self.h_abs = min(self.h_abs, self.tried)
                return state
            except (StepRejected, ValueError):  # LinAlgError is a ValueError
                self.rejections += 1
                rejected = True
                if self.h_abs is None:  # the start's J failed
                    raise
                # h_abs < tried where _trial ran it at its least step: halve h_abs
                h = 0.5 * min(self.tried, self.h_abs)
                if h < self.floor:
                    raise
                self._restart(h)


def _integrate(config: FlowConfig, rate, accept, advance, row, y0: np.ndarray,
               state, trace: FlowTrace):
    """The one time loop of both solvers: one _Stepper, from y0.

    rate and accept go to the stepper.  A solver state, the start state
    and each one accept returns, is (rate, max speed, max curvature,
    payload...), whose rate, bit for bit rate(y) at its vector, starts the
    next step, so no accepted state costs a rate call.  advance(new, t, dt,
    steps) does the work of an accepted step and returns its flag codes;
    row(state, codes) gives a trace row's values and may add codes.  Each
    code lands in the next trace row written, sampled step or not.

    The stop tests run at accepted steps.  A step whose state's max speed is
    below convergence_tol ends the run converged, without a second test, at
    the crossing inside it, which _crossing locates: the final state does
    not depend on dtMax (None: no cap), but the final t moves with the step
    length.  Its resolution is max|J e| / (s mu), for the last step's error
    estimate e, the final max speed s and mu, the decay of log s across that
    step.  A step that the stepper gives up on ends the run:
    convexity_breakdown for a ConvexityLoss, at the last accepted t, else
    step_collapse with the failure's message.
    Returns the final solver state and the Outcome with the stepper's counters.
    """
    pending: list = []
    trace.append(0.0, row(state, pending), pending)
    pending = []
    t = 0.0
    steps, spans, resolution = 0, [], None
    solver = _Stepper(rate, accept, y0, config.t_max, config.dt_max or config.t_max,
                      _tolerances(config))
    converged = state[1] < config.convergence_tol
    while True:
        f, s_prev, curvature = state[:3]
        if converged:
            termination = "converged"
            break
        if t >= config.t_max:
            termination = "tmax"
            break
        if curvature > _BLOWUP_CURVATURE:
            termination = "curvature_blowup"
            break
        try:
            state = solver.step(f)
        except (StepRejected, ValueError) as exc:  # LinAlgError is a ValueError
            termination = ("convexity_breakdown" if isinstance(exc, ConvexityLoss)
                           else f"step_collapse: {exc}")
            break
        t_new = float(solver.t)
        spans.append(t_new - t)
        if converged := state[1] < config.convergence_tol:
            mu = math.log(s_prev / max(state[1], 1e-300)) / spans[-1]
            t_new, state = _crossing(solver, t, s_prev, t_new, state, config.convergence_tol)
            rate_error = np.max(np.abs(_apply(solver.J, solver.error)))
            resolution = float(rate_error / max(state[1] * mu, 1e-300))
        dt, t = t_new - t, t_new
        steps += 1
        pending.extend(advance(state, t, dt, steps))
        if steps % config.sample_every == 0:
            trace.append(t, row(state, pending), pending)
            pending = []

    if steps % config.sample_every:  # the last step was not sampled
        trace.append(t, row(state, pending), pending)
    dt_range = dict(min=min(spans), max=max(spans), last=spans[-1]) if spans else None
    return state, Outcome(config, trace, termination, t, resolution, steps, solver.rejections,
                          solver.evaluations, solver.jacobians, solver.factorizations, dt_range)


def _crossing(solver: _Stepper, t0: float, s0: float, t1: float, end, tol: float) -> tuple:
    """(t, state) where the max speed, s0 >= tol at t0, falls below tol inside
    the step to (t1, end): Illinois regula falsi (Dowell & Jarratt, BIT 11,
    1971) on g = log(max speed / tol) along the step's polynomial, from the
    secant of its two ends, to 1e-10 in t or until the midpoint rounds onto an
    end.  It tries the midpoint where a secant leaves the bracket or stalls, and
    once secants have had as many tries as a bisection of the step would take,
    so it takes at most about twice those.  hi is always a time where accept
    built a state below tol; (t1, end) where accept refuses one."""
    lo, hi, state = t0, t1, end
    # secant points (t, g): b the last try, a the one before or the bracket's other end
    a, b = (t0, math.log(s0 / tol)), (t1, math.log(max(end[1], 1e-300) / tol))
    # secants tried on a lopsided g can creep; past this many tries, only midpoints
    budget = math.log2((t1 - t0) / 1e-10)
    while hi - lo > 1e-10 and lo < (mid := 0.5 * (lo + hi)) < hi:
        if a[1] == b[1] or budget < 0.0:
            x = mid
        else:
            x = b[0] - b[1] * (b[0] - a[0]) / (b[1] - a[1])
            # 9e-11 inside at least, so that the next try closes off one on the crossing
            x = min(max(x, lo + 9e-11), hi - 9e-11) if lo < x < hi else mid
        budget -= 1.0
        try:
            new = solver.accept(solver.at(x))
        except (StepRejected, ValueError):
            return t1, end
        g = math.log(max(new[1], 1e-300) / tol)
        lo, hi, state = (lo, x, new) if g < 0.0 else (x, hi, state)
        if (g < 0.0) == (b[1] < 0.0) and (b[1] < 0.0) != (a[1] < 0.0):
            a = (a[0], 0.5 * a[1])  # Illinois: the new try sides with b, so a stays, halved
        else:
            a = b
        b = (x, g)
    return hi, state


def _start(config: FlowConfig) -> tuple:
    """A run's start profile, geometry and quermass vector; ValueError for a start it refuses."""
    profile = config.initial_shape.build(config.n, config.N)
    state = geometry(profile, config.k)
    if not state.lam_min > 0.0:
        raise ValueError("initial profile is not strictly convex")
    return profile, state, _normal_quermass(state, profile, "start")


def run(config: FlowConfig, out_dir=None) -> FlowResult:
    """Integrate the flow until convergence, t_max, or a documented abort."""
    if config.checkpoint_every > 0 and out_dir is None:
        raise ValueError("run writes checkpoints into out_dir: checkpoint_every needs one")
    n, k = config.n, config.k
    profile, state, q = _start(config)
    grid = profile.grid
    monitors = Monitors(config, state, q)

    # a solver state is (rate, max |speed|, max |curvature|, profile, geometry)
    def solver_state(new_profile, new_state):
        f = speed(new_state)
        return (f * new_state.omega_speed, float(np.max(np.abs(f))),
                max(abs(new_state.lam_min), abs(new_state.lam_max)), new_profile, new_state)

    def accept(rho):
        new_profile = RadialProfile(n=n, theta=grid, rho=rho)
        new_state = geometry(new_profile, k)
        if not new_state.lam_min > 0.0:
            raise StepRejected("strict convexity lost in a trial step")
        return solver_state(new_profile, new_state)

    def advance(new, t, dt, steps):
        nonlocal q
        *_, new_profile, new_state = new
        q_new = quermass_vector(new_state, new_profile)
        codes = monitors.check(q, q_new, new_state, dt)
        q = q_new
        if config.checkpoint_every > 0 and steps % config.checkpoint_every == 0:
            os.makedirs(out_dir, exist_ok=True)
            save_checkpoint(new_profile, k, t, os.path.join(out_dir, f"ck_{steps:08d}.json"))
        return codes

    def row(cur, codes):
        _, max_speed, _, _, st = cur
        return [q.a(m) for m in range(-1, n + 1)] + [*st.extremes, st.lam_min, st.lam_max,
                                                     max_speed]

    trace = FlowTrace(n=n)
    (*_, profile, _), outcome = _integrate(
        config, lambda rho: _stage_rate(n, k, grid, rho), accept, advance, row, profile.rho,
        solver_state(profile, state), trace)
    return FlowResult(**vars(outcome), profile=profile)


# -- parametrization-corrected evolution residuals ----------------------------
#
# The structural identities for u and F hold along the normal flow; on the
# fixed graph grid the material time derivative picks up the tangential drift
# of the graph points, d/dt|normal = d/dt|grid - (f * omega * rho_theta /
# W^2) * d/dtheta, which is applied before comparing against the identities.


def _midpoint_state(prev: GeometryState, next_: GeometryState) -> GeometryState:
    prof = RadialProfile(n=prev.n, theta=prev.grid, rho=0.5 * (prev.rho + next_.rho))
    return geometry(prof, prev.k)


def evolution_residuals(prev: GeometryState, next_: GeometryState, dt: float) -> tuple:
    """Max-norm defects (u, F) of the support-function and curvature-quotient
    evolution identities,

    d/dt u = u F^{ij} u_ij - c <grad Phi, grad phi'> + F <grad Phi, grad u>
             + (c phi' - 2 u F) phi' + u^2 sum_i F^{ii} lambda_i^2,

    d/dt F = u F^{ij} F_ij + 2 F^{ij} u_i F_j + F <grad Phi, grad F>
             - (c sum_i F^{ii} lambda_i^2 - F^2) phi'
             + u F (sum_i F^{ii} - c),

    both evaluated at one midpoint state with central time differences,
    each corrected for the drift.
    """
    mid = _midpoint_state(prev, next_)
    c = identity_quotient(mid.n, mid.k)
    g = mid.w**2
    drift = speed(mid) * mid.omega_speed * mid.grad / g

    def terms(name):
        """(q_theta, u F^{ij} q_ij, dq/dt) of the field q named name."""
        q_g, q_h = differentiate(getattr(mid, name), mid.h)
        hm, ha = frame_hessian(mid, q_g, q_h)
        diffusion = mid.u * (mid.f_merid * hm + (mid.n - 1) * mid.f_ang * ha)
        dq_dt = (getattr(next_, name) - getattr(prev, name)) / dt - drift * q_g
        return q_g, diffusion, dq_dt

    u_g, diffusion_u, du_dt = terms("u")
    f_g, diffusion_f, df_dt = terms("F")
    grad_phi_grad_phip = -(mid.phi**2) * mid.grad**2 / g
    grad_phi_grad_u = mid.phi * mid.grad * u_g / g
    rhs_u = (
        diffusion_u
        - c * grad_phi_grad_phip
        + mid.F * grad_phi_grad_u
        + (c * mid.phip - 2.0 * mid.u * mid.F) * mid.phip
        + mid.u**2 * mid.weighted_trace
    )
    rhs_f = (
        diffusion_f
        + 2.0 * mid.f_merid * u_g * f_g / g
        + mid.F * mid.phi * mid.grad * f_g / g
        - (c * mid.weighted_trace - mid.F**2) * mid.phip
        + mid.u * mid.F * (mid.trace_grad - c)
    )
    return float(np.max(np.abs(du_dt - rhs_u))), float(np.max(np.abs(df_dt - rhs_f)))


def functional_derivative_residuals(
    prev_profile: RadialProfile,
    next_profile: RadialProfile,
    dt: float,
    k: int,
) -> np.ndarray:
    """Defects of dA_l/dt against their first-variation integrals at the
    midpoint, for l = -1..n at index l + 1, as in QuermassVector.values."""
    n = prev_profile.n
    prev_state = geometry(prev_profile, k)
    next_state = geometry(next_profile, k)
    rates = (quermass_vector(next_state, next_profile).values
             - quermass_vector(prev_state, prev_profile).values) / dt
    mid = _midpoint_state(prev_state, next_state)
    f = speed(mid)
    # dA_{-1}/dt = int f, dA_l/dt = (l + 1) int sigma_{l+1} f, and A_n = |S^n| stays
    rhs = ([integrate(mid, f)]
           + [(l + 1) * integrate(mid, mid.sigma_nodal(l + 1) * f) for l in range(n)]
           + [0.0])
    return np.abs(rates - rhs)
