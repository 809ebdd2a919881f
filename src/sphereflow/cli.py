"""Batch driver: runs, audits, and verification suites from the shell.

Exit codes: 0 for clean completion (documented blow-ups and breakdowns
included), 2 when the identity suite finds a violation, 1 for usage or
configuration errors.  All outputs are deterministic for a fixed seed; every
CSV carries a ``# seed=`` header line and every JSON report a ``seed`` field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .dualflow import dual_run, profile_from_dual
from .exceptions import ConeViolation, ConvexityLoss
from .flow import DtPolicy, FlowConfig, ShapeSpec, run
from .hypersurface import _json_object, geometry, load_checkpoint, save_checkpoint
from .identities import run_identity_suite
from .quermass import audit_inequalities, quermass_vector
from .studies import evolution_study, functional_study, minkowski_study

__all__ = ["main"]


def _parse_shape(text: str) -> ShapeSpec:
    kind, _, rest = text.partition(":")
    if kind in ("geodesic", "geodesicSphere"):
        return ShapeSpec(kind="geodesicSphere", r=float(rest))
    if kind == "perturbed":
        parts = rest.split(",")
        if len(parts) != 3:
            raise ValueError("perturbed shape needs r0,eps,mode")
        return ShapeSpec(kind="perturbed", r0=float(parts[0]),
                         eps=float(parts[1]), mode=int(parts[2]))
    if kind == "custom":
        with open(rest) as fh:
            payload = json.load(fh)
        return ShapeSpec.from_json({**_json_object(payload, "a custom shape file"),
                                    "kind": "custom"})
    raise ValueError(f"unknown shape {text!r}")


# FlowConfig field -> the run flag that overrides it
_FLAG_FIELDS = {"n": "n", "k": "k", "N": "grid", "t_max": "t_max",
                "convergence_tol": "conv_tol", "sample_every": "sample_every",
                "checkpoint_every": "checkpoint_every"}


def _config_from_args(args) -> FlowConfig:
    if not args.config:
        missing = [f for f in ("n", "k", "N", "shape")
                   if getattr(args, f if f != "N" else "grid") is None]
        if missing:
            raise ValueError(f"missing required flags: {', '.join('--' + m for m in missing)}")
    overrides = {name: getattr(args, flag) for name, flag in _FLAG_FIELDS.items()
                 if getattr(args, flag) is not None}
    if args.shape is not None:
        overrides["initial_shape"] = _parse_shape(args.shape)
    if not args.config:
        config = FlowConfig(**overrides)
    else:
        with open(args.config) as fh:
            config = FlowConfig.from_json(json.load(fh))
        # replace() runs __post_init__, so overridden fields are validated too
        config = dataclasses.replace(config, **overrides)
    if args.dt_max is not None or args.cfl is not None:
        config = dataclasses.replace(config, dt_policy=DtPolicy(
            cfl_factor=args.cfl if args.cfl is not None else config.dt_policy.cfl_factor,
            dt_max=args.dt_max if args.dt_max is not None else config.dt_policy.dt_max,
        ))
    return config


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _manifest(out_dir: str, command: str, seed: int, config: FlowConfig | None,
              extra: dict | None = None) -> None:
    # the directory name stays out of the payload so identical invocations
    # produce byte-identical manifests wherever they land
    payload = {"command": command, "seed": seed}
    if config is not None:
        payload["config"] = config.to_json()
    if extra:
        payload.update(extra)
    _write_json(os.path.join(out_dir, "manifest.json"), payload)


def _run_bundle(out: str, config: FlowConfig, seed: int):
    """Run the graph flow into out: manifest, checkpoints, trace, final state, summary."""
    os.makedirs(out, exist_ok=True)
    _manifest(out, "run", seed, config)
    result = run(config, out_dir=out)
    result.trace.to_csv(os.path.join(out, "trace.csv"), seed=seed)
    save_checkpoint(result.profile, config.k, result.t_final,
                    os.path.join(out, "final.json"))
    last = {name: column[-1] for name, column in result.trace.columns.items()}
    _write_json(os.path.join(out, "summary.json"), {
        "seed": seed,
        "termination": result.termination,
        "tFinal": result.t_final,
        "steps": result.steps,
        "rejections": result.rejections,
        "rateEvaluations": result.rate_evaluations,
        "violations": result.violations,
        "finalQuermass": {f"A_{m}": last[f"A_{m}"] for m in range(-1, config.n + 1)},
        "finalMaxSpeed": last["maxSpeed"],
        "finalRhoSpread": last["maxRho"] - last["minRho"],
    })
    return result


def _cmd_run(args) -> int:
    out = args.out
    result = _run_bundle(out, _config_from_args(args), args.seed)
    print(f"run: {result.termination} at t={result.t_final:.6g} "
          f"after {result.steps} steps ({result.rejections} rejected) -> {out}")
    return 0


def _cmd_dual_run(args) -> int:
    config = _config_from_args(args)
    out = args.out
    os.makedirs(out, exist_ok=True)
    _manifest(out, "dual-run", args.seed, config)
    result = dual_run(config)
    result.trace.to_csv(os.path.join(out, "trace.csv"), seed=args.seed)
    summary = {
        "seed": args.seed,
        "termination": result.termination,
        "tFinal": result.t_final,
        "steps": result.steps,
        "rejections": result.rejections,
        "breakdownTime": result.breakdown_time,
        "finalMinEigW": result.trace.columns["minEigW"][-1],
        "finalMaxEigW": result.trace.columns["maxEigW"][-1],
    }
    try:
        pulled = profile_from_dual(result.state, config.N)
        save_checkpoint(pulled, config.k, result.t_final,
                        os.path.join(out, "final.json"))
        summary["finalCheckpoint"] = "final.json"
    except (ValueError, ConeViolation, ConvexityLoss) as exc:
        summary["finalCheckpoint"] = None
        summary["pullbackError"] = str(exc)
    _write_json(os.path.join(out, "summary.json"), summary)
    print(f"dual-run: {result.termination} at t={result.t_final:.6g} "
          f"after {result.steps} steps -> {out}")
    return 0


def _cmd_audit(args) -> int:
    profile, k_stored, _ = load_checkpoint(args.checkpoint)
    k = args.k if args.k is not None else k_stored
    state = geometry(profile, 0)
    q = quermass_vector(state, profile)
    report = audit_inequalities(q, seed=args.seed)
    payload = json.loads(report.to_json())
    payload["k"] = k
    payload["checkpoint"] = os.path.basename(args.checkpoint)
    os.makedirs(args.out, exist_ok=True)
    _manifest(args.out, "audit", args.seed, None,
              extra={"checkpoint": args.checkpoint, "k": k})
    _write_json(os.path.join(args.out, "report.json"), payload)
    print(f"audit: {len(report.entries)} pairs, {len(report.skipped)} skipped, "
          f"worst gap {report.worst_gap:.3e} -> {args.out}")
    return 0


def _cmd_identity_suite(args) -> int:
    report = run_identity_suite(n_max=args.n_max, samples=args.samples,
                                seed=args.seed)
    for line in report.lines():
        print(line)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _manifest(args.out, "identity-suite", args.seed, None,
                  extra={"nMax": args.n_max, "samples": args.samples})
        with open(os.path.join(args.out, "identities.json"), "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    total = len(report.checks)
    failed = sum(not c.passed for c in report.checks)
    print(f"identity-suite: {total - failed}/{total} checks passed")
    return 0 if report.passed else 2


def _cmd_convergence_study(args) -> int:
    n = args.n if args.n is not None else 2
    k = args.k if args.k is not None else 1
    N0 = args.grid if args.grid is not None else 64
    mink = minkowski_study(n=n, N0=max(N0, 128), levels=args.levels)
    evol = evolution_study(n=n, k=k, N0=N0, levels=args.levels)
    func = functional_study(n=n, k=k, N0=N0, levels=args.levels)
    payload = {
        "seed": args.seed,
        "n": n,
        "k": k,
        "levels": args.levels,
        "weightedIntegralOrders": {str(m): v for m, v in mink["orders"].items()},
        "evolutionOrders": {"u": evol["orderU"], "F": evol["orderF"]},
        "functionalOrders": {str(l): v for l, v in func["orders"].items()},
    }
    os.makedirs(args.out, exist_ok=True)
    _manifest(args.out, "convergence-study", args.seed, None,
              extra={"n": n, "k": k, "levels": args.levels})
    _write_json(os.path.join(args.out, "study.json"), payload)
    for name, orders in (("weighted-integral", payload["weightedIntegralOrders"]),
                         ("functional", payload["functionalOrders"])):
        worst = min(orders.values())
        print(f"{name} orders: worst {worst:.3f}")
    print(f"evolution orders: u {evol['orderU']:.3f}, F {evol['orderF']:.3f}")
    return 0


def _cmd_sweep(args) -> int:
    with open(args.sweep) as fh:
        configs = json.load(fh)
    if not isinstance(configs, list) or not configs:
        raise ValueError("sweep file must hold a non-empty list of configs")
    os.makedirs(args.out, exist_ok=True)
    _manifest(args.out, "run", args.seed, None,
              extra={"sweep": [f"run-{i:03d}" for i in range(len(configs))]})
    for i, payload in enumerate(configs):
        result = _run_bundle(os.path.join(args.out, f"run-{i:03d}"),
                             FlowConfig.from_json(payload), args.seed)
        print(f"sweep run-{i:03d}: {result.termination} at t={result.t_final:.6g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphereflow",
        description="Constrained curvature flow laboratory on the sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--N", dest="grid", type=int, default=None)
        p.add_argument("--shape", type=str, default=None,
                       help="geodesic:r | perturbed:r0,eps,mode | custom:path")
        p.add_argument("--dt-max", type=float, default=None)
        p.add_argument("--cfl", type=float, default=None,
                       help="parabolic step factor: the first step of run, "
                            "every step of dual-run")
        p.add_argument("--t-max", type=float, default=None)
        p.add_argument("--conv-tol", type=float, default=None)
        p.add_argument("--sample-every", type=int, default=None)
        p.add_argument("--checkpoint-every", type=int, default=None)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; explicit flags override it")
        p.add_argument("--out", type=str, default="out")
        p.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser("run", help="integrate the graph flow")
    add_run_flags(p_run)
    p_run.add_argument("--sweep", type=str, default=None,
                       help="JSON list of configs run into out/run-NNN")

    p_dual = sub.add_parser("dual-run", help="integrate the support-function flow")
    add_run_flags(p_dual)

    p_audit = sub.add_parser("audit", help="inequality audit of a checkpoint")
    p_audit.add_argument("--checkpoint", type=str, required=True)
    p_audit.add_argument("--k", type=int, default=None)
    p_audit.add_argument("--out", type=str, default="out")
    p_audit.add_argument("--seed", type=int, default=0)

    p_ident = sub.add_parser("identity-suite", help="randomized algebra checks")
    p_ident.add_argument("--n-max", type=int, default=8)
    p_ident.add_argument("--samples", type=int, default=10000)
    p_ident.add_argument("--seed", type=int, default=7)
    p_ident.add_argument("--out", type=str, default=None)

    p_conv = sub.add_parser("convergence-study", help="refinement order report")
    p_conv.add_argument("--n", type=int, default=None)
    p_conv.add_argument("--k", type=int, default=None)
    p_conv.add_argument("--N", dest="grid", type=int, default=None)
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.add_argument("--out", type=str, default="out")
    p_conv.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "run":
            if getattr(args, "sweep", None):
                return _cmd_sweep(args)
            return _cmd_run(args)
        if args.command == "dual-run":
            return _cmd_dual_run(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "identity-suite":
            return _cmd_identity_suite(args)
        if args.command == "convergence-study":
            return _cmd_convergence_study(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
