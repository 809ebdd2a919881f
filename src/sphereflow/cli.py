"""Batch driver: runs, audits, and verification suites from the shell.

Exit codes: 0 for clean completion (documented blow-ups and breakdowns
included), 2 when the identity suite finds a violation, 1 for usage or
configuration errors.  All outputs are deterministic for a fixed seed; every
CSV carries a ``# seed=`` header line and every JSON report a ``seed`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

import numpy as np

from .dualflow import dual_run, profile_from_dual
from .flow import _CONFIG_KEYS, FlowConfig, ShapeSpec, _check_order, _start, run
from .hypersurface import _json_object, geometry, load_checkpoint, save_checkpoint
from .identities import run_identity_suite
from .quermass import _check_normal, audit_inequalities, quermass_vector
from .studies import evolution_study, functional_study, minkowski_study

__all__ = ["main"]


def _parse_shape(text: str) -> dict:
    """The initialShape JSON object a --shape string stands for."""
    kind, _, rest = text.partition(":")
    if kind == "custom":
        with open(rest) as fh:
            payload = json.load(fh)
        return {**_json_object(payload, "a custom shape file"), "kind": "custom"}
    kind = "geodesicSphere" if kind == "geodesic" else kind
    if kind not in ShapeSpec.FIELDS:
        raise ValueError(f"unknown shape {text!r}")
    fields = ShapeSpec.FIELDS[kind]
    parts = rest.split(",")
    if len(parts) != len(fields):
        raise ValueError(f"{kind} shape needs {','.join(fields)}")
    # an empty part is an absent key, as in a JSON shape without it
    return {"kind": kind, **{name: _number(part) for name, part in zip(fields, parts) if part}}


def _number(text: str):
    """float(text), or text itself where it is no number, for the shape's reader to refuse."""
    try:
        return float(text)
    except ValueError:
        return text


def _given(args, keys) -> dict:
    """The flags among keys that were given, under the keys they are stored at."""
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def _config_from_args(args) -> FlowConfig:
    """The --config payload with the flags merged on, read by FlowConfig.from_json."""
    payload = {}
    if args.config:
        with open(args.config) as fh:
            payload = _json_object(json.load(fh), "a config")
    else:
        missing = [f for f in ("n", "k", "N", "shape") if getattr(args, f) is None]
        if missing:
            raise ValueError(f"missing required flags: {', '.join('--' + m for m in missing)}")
    flags = _given(args, _CONFIG_KEYS)
    if args.shape is not None:
        flags["initialShape"] = _parse_shape(args.shape)
    return FlowConfig.from_json({**payload, **flags})


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _manifest(out_dir: str, command: str, seed: int, config: FlowConfig | None,
              extra: dict | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    # the directory name stays out of the payload so identical invocations
    # produce byte-identical manifests wherever they land
    payload = {"command": command, "seed": seed}
    if config is not None:
        payload["config"] = config.to_json()
    if extra:
        payload.update(extra)
    _write_json(os.path.join(out_dir, "manifest.json"), payload)


def _bundle(out: str, command: str, seed: int, result, final, summary: dict) -> None:
    """Write a finished run into out: manifest, trace, final.json (unless final
    is None) and summary.json: the stop's code and detail (None if it has
    none), tFinal and its resolution, the counters both solvers share and summary."""
    config = result.config
    _manifest(out, command, seed, config)
    result.trace.to_csv(os.path.join(out, "trace.csv"), seed=seed)
    if final is not None:
        save_checkpoint(final, config.k, result.t_final, os.path.join(out, "final.json"))
    code, _, detail = result.termination.partition(": ")
    _write_json(os.path.join(out, "summary.json"), {
        "seed": seed,
        "termination": code,
        "terminationDetail": detail or None,
        "tFinal": result.t_final,
        "tFinalResolution": result.t_final_resolution,
        "steps": result.steps,
        "rejections": result.rejections,
        "rateEvaluations": result.rate_evaluations,
        "jacobians": result.jacobians,
        "luFactorizations": result.lu_factorizations,
        "dtRange": result.dt_range,
        **summary,
    })


def _run_bundle(out: str, config: FlowConfig, seed: int):
    """Run the graph flow, its checkpoints into out, then write its bundle there."""
    result = run(config, out_dir=out)
    last = {name: column[-1] for name, column in result.trace.columns.items()}
    _bundle(out, "run", seed, result, result.profile, {
        "violations": result.violations,
        "finalQuermass": {f"A_{m}": last[f"A_{m}"] for m in range(-1, config.n + 1)},
        "finalMaxSpeed": last["maxSpeed"],
        "finalRhoSpread": last["maxRho"] - last["minRho"],
    })
    return result


def _cmd_run(args) -> int:
    if args.sweep:
        if given := [args.run_flags[key] for key in _given(args, args.run_flags)]:
            raise ValueError(f"--sweep takes its configs from its file, not {', '.join(given)}")
        return _cmd_sweep(args)
    result = _run_bundle(args.out, _config_from_args(args), args.seed)
    print(f"run: {result.termination} at t={result.t_final:.6g} "
          f"after {result.steps} steps ({result.rejections} rejected) -> {args.out}")
    return 0


def _cmd_dual_run(args) -> int:
    config = _config_from_args(args)
    result = dual_run(config)
    columns = result.trace.columns
    summary = {
        "breakdownTime": result.breakdown_time,
        "finalMinEigW": columns["minEigW"][-1],
        "finalMaxEigW": columns["maxEigW"][-1],
        "finalCheckpoint": "final.json",
    }
    try:
        pulled = profile_from_dual(result.state, config.N)
    except ValueError as exc:
        pulled = None
        summary.update(finalCheckpoint=None, pullbackError=str(exc))
    _bundle(args.out, "dual-run", args.seed, result, pulled, summary)
    print(f"dual-run: {result.termination} at t={result.t_final:.6g} "
          f"after {result.steps} steps -> {args.out}")
    return 0


def _cmd_audit(args) -> int:
    profile, k, _ = load_checkpoint(args.checkpoint)
    _check_order(profile.n, k)
    with np.errstate(over="ignore", invalid="ignore"):  # _check_normal names an overflow
        q = quermass_vector(geometry(profile, 0), profile)
    _check_normal(q, "checkpoint")
    report = audit_inequalities(q, seed=args.seed)
    payload = json.loads(report.to_json())
    payload["k"] = k
    payload["checkpoint"] = os.path.basename(args.checkpoint)
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
        _manifest(args.out, "identity-suite", args.seed, None,
                  extra={"nMax": args.n_max, "samples": args.samples})
        _write_json(os.path.join(args.out, "identities.json"), json.loads(report.to_json()))
    total = len(report.checks)
    failed = sum(not c.passed for c in report.checks)
    print(f"identity-suite: {total - failed}/{total} checks passed")
    return 0 if report.passed else 2


def _cmd_convergence_study(args) -> int:
    n, k, N0 = args.n, args.k, args.grid
    _check_order(n, k)
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
    # every entry and its start shape are checked before the first run writes anything
    for i, payload in enumerate(configs):
        try:
            configs[i] = FlowConfig.from_json(payload)
            _start(configs[i])
        except ValueError as exc:
            raise ValueError(f"sweep entry {i}: {exc}") from None
    _manifest(args.out, "run", args.seed, None,
              extra={"sweep": [f"run-{i:03d}" for i in range(len(configs))]})
    for i, config in enumerate(configs):
        result = _run_bundle(os.path.join(args.out, f"run-{i:03d}"), config, args.seed)
        print(f"sweep run-{i:03d}: {result.termination} at t={result.t_final:.6g}")
    return 0


@cache  # built once per process: argparse keeps no state between parses
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphereflow",
        description="Constrained curvature flow laboratory on the sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        # each flag that overrides a config key is stored under that key; --sweep refuses these
        flags = [
            p.add_argument("--n", type=int),
            p.add_argument("--k", type=int),
            p.add_argument("--N", type=int, metavar="GRID"),
            p.add_argument("--shape", type=str,
                           help="geodesic:r | perturbed:r0,eps,mode | custom:path"),
            p.add_argument("--dt-max", dest="dtMax", type=float, metavar="DT_MAX"),
            p.add_argument("--t-max", dest="tMax", type=float, metavar="T_MAX"),
            p.add_argument("--conv-tol", dest="convergenceTol", type=float, metavar="CONV_TOL"),
            p.add_argument("--sample-every", dest="sampleEvery", type=int, metavar="SAMPLE_EVERY"),
            p.add_argument("--checkpoint-every", dest="checkpointEvery", type=int,
                           metavar="CHECKPOINT_EVERY"),
            p.add_argument("--config", type=str,
                           help="JSON config file; explicit flags override it"),
        ]
        p.set_defaults(run_flags={flag.dest: flag.option_strings[0] for flag in flags})
        p.add_argument("--out", type=str, default="out")
        p.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser("run", help="integrate the graph flow")
    add_run_flags(p_run)
    p_run.add_argument("--sweep", type=str, default=None,
                       help="JSON list of configs run into out/run-NNN")
    p_run.set_defaults(func=_cmd_run)

    p_dual = sub.add_parser("dual-run", help="integrate the support-function flow")
    add_run_flags(p_dual)
    p_dual.set_defaults(func=_cmd_dual_run)

    p_audit = sub.add_parser("audit", help="inequality audit of a checkpoint")
    p_audit.add_argument("--checkpoint", type=str, required=True)
    p_audit.add_argument("--out", type=str, default="out")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.set_defaults(func=_cmd_audit)

    p_ident = sub.add_parser("identity-suite", help="randomized algebra checks")
    p_ident.add_argument("--n-max", type=int, default=8)
    p_ident.add_argument("--samples", type=int, default=10000)
    p_ident.add_argument("--seed", type=int, default=7)
    p_ident.add_argument("--out", type=str, default=None)
    p_ident.set_defaults(func=_cmd_identity_suite)

    p_conv = sub.add_parser("convergence-study", help="refinement order report")
    p_conv.add_argument("--n", type=int, default=2)
    p_conv.add_argument("--k", type=int, default=1)
    p_conv.add_argument("--N", dest="grid", type=int, default=64)
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.add_argument("--out", type=str, default="out")
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.set_defaults(func=_cmd_convergence_study)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
