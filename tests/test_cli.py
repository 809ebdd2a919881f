import json
import math
import shutil
import subprocess

import numpy as np
import pytest

import sphereflow.cli as cli_module
from sphereflow.cli import _parse_shape, main
from sphereflow.exceptions import ConeViolation, ConvexityLoss
from sphereflow.flow import FlowConfig, ShapeSpec

RUN_ARGS = [
    "run", "--n", "2", "--k", "1", "--N", "33",
    "--shape", "perturbed:0.8,0.05,2",
    "--t-max", "0.01", "--sample-every", "5",
]
DUAL_ARGS = [
    "dual-run", "--n", "2", "--k", "1", "--N", "33",
    "--shape", "perturbed:0.8,0.05,2", "--t-max", "0.005", "--sample-every", "5",
]
PERTURBED = {"kind": "perturbed", "r0": 0.8, "eps": 0.05, "mode": 2}
# a key set to DROP is left out of the config file
DROP = object()


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_run_command_writes_bundle(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(RUN_ARGS + ["--out", str(out), "--seed", "4"]) == 0
    assert capsys.readouterr().out.startswith("run: ")
    summary = _read_json(out / "summary.json")
    assert summary["termination"] == "tmax"
    # a tMax stop has no detail, and its tFinal is tMax itself, not a located crossing
    assert summary["terminationDetail"] is None and summary["tFinalResolution"] is None
    assert summary["seed"] == 4 and summary["violations"] == {}
    assert {"finalQuermass", "finalMaxSpeed", "finalRhoSpread"} <= set(summary)
    dt = summary["dtRange"]
    assert set(dt) == {"min", "max", "last"} and 0.0 < dt["min"] <= dt["max"] <= 0.2
    # three stages per Newton iteration, at least two iterations per accepted
    # step, and no rate call at an accepted state nor in the first step's
    # first iteration, whose stages all sit at the start vector
    assert summary["rateEvaluations"] >= 6 * summary["steps"] - 3
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "# seed=4"
    assert lines[1].startswith("t,A_-1,")
    manifest = _read_json(out / "manifest.json")
    assert manifest["command"] == "run"
    assert manifest["config"]["initialShape"]["kind"] == "perturbed"
    final = _read_json(out / "final.json")
    assert set(final) == {"n", "k", "t", "rho"}


def test_one_process_parses_each_call_afresh(tmp_path):
    # the parser is built once per process: a flag given to one call does not
    # carry over to the next
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(RUN_ARGS + ["--dt-max", "0.1", "--out", str(first)]) == 0
    assert main(RUN_ARGS + ["--out", str(second)]) == 0
    assert _read_json(first / "manifest.json")["config"]["dtMax"] == 0.1
    # the default caps no step, and the manifest writes it as null
    assert FlowConfig.dt_max is None
    assert _read_json(second / "manifest.json")["config"]["dtMax"] is None
    assert cli_module._build_parser() is cli_module._build_parser()


def test_summary_splits_a_collapse_into_code_and_detail(tmp_path, capsys, monkeypatch):
    """A run whose every rate call leaves the cone stops step_collapse at the
    start: summary.json holds the code and the message apart, the printed line
    the two joined, as FlowResult.termination has them."""
    def refuse(*args):
        raise ConeViolation("forced cone exit")

    # the stages' and Jacobians' curvature core only: geometry still builds the start
    monkeypatch.setattr("sphereflow.flow.curvatures", refuse)
    out = tmp_path / "out"
    assert main(RUN_ARGS + ["--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("run: step_collapse: forced cone exit at t=0 ")
    summary = _read_json(out / "summary.json")
    assert summary["termination"] == "step_collapse"
    assert summary["terminationDetail"] == "forced cone exit"
    assert summary["tFinal"] == 0.0 and summary["tFinalResolution"] is None


def test_a_converged_run_states_its_stops_resolution(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--n", "2", "--k", "1", "--N", "33", "--shape", "perturbed:0.8,0.05,2",
                 "--out", str(out)]) == 0
    summary = _read_json(out / "summary.json")
    assert summary["termination"] == "converged" and summary["terminationDetail"] is None
    assert 0.0 < summary["tFinalResolution"] < 0.1


def test_run_requires_flags(tmp_path, capsys):
    assert main(["run", "--n", "2", "--k", "1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "missing required flags: --N, --shape" in err


def test_bad_shape_is_reported(tmp_path, capsys):
    args = ["run", "--n", "2", "--k", "1", "--N", "33", "--shape", "blob:1",
            "--out", str(tmp_path)]
    assert main(args) == 1
    assert "error: unknown shape" in capsys.readouterr().err


def test_shape_string_takes_a_whole_float_mode(tmp_path):
    out = tmp_path / "out"
    args = ["run", "--n", "2", "--k", "1", "--N", "33", "--shape", "perturbed:0.8,0.05,2.0",
            "--t-max", "0.005", "--out", str(out)]
    assert main(args) == 0
    assert _read_json(out / "manifest.json")["config"]["initialShape"] == PERTURBED


@pytest.mark.parametrize("text, shape", [
    ("perturbed:0.8,0.05,2", {"kind": "perturbed", "r0": 0.8, "eps": 0.05, "mode": 2.0}),
    (f"perturbed:{0.8 + 1e-9!r},{0.05 - 1e-9!r},3",
     {"kind": "perturbed", "r0": 0.8 + 1e-9, "eps": 0.05 - 1e-9, "mode": 3.0}),
    ("geodesic: 1e-1 ", {"kind": "geodesicSphere", "r": 0.1}),
    ("geodesic:x", {"kind": "geodesicSphere", "r": "x"}),
])
def test_shape_strings_read_their_parts_as_floats(text, shape):
    """--shape parts are read by float, so they keep every digit; a part that
    is no number stays a string for the shape's reader to refuse."""
    got = _parse_shape(text)
    assert got == shape and all(type(got[key]) is type(shape[key]) for key in shape)


@pytest.mark.parametrize("text, shape, message", [
    ("perturbed:0.8,0.05,2.5", {**PERTURBED, "mode": 2.5}, "mode must be a positive integer"),
    ("perturbed:0.8,,2", {"kind": "perturbed", "r0": 0.8, "mode": 2},
     "initialShape needs the key 'eps'"),
    ("geodesic:", {"kind": "geodesicSphere"}, "initialShape needs the key 'r'"),
    ("geodesic:x", {"kind": "geodesicSphere", "r": "x"}, "r must be a number"),
])
def test_shape_strings_fail_like_json_shapes(tmp_path, capsys, text, shape, message):
    """A bad --shape string is refused with the message of its JSON shape."""
    errors = []
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 2, "k": 1, "N": 33, "initialShape": shape}))
    for args in (["--n", "2", "--k", "1", "--N", "33", "--shape", text],
                 ["--config", str(path)]):
        assert main(["run", *args, "--out", str(tmp_path / "out")]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: ") and message in errors[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--sample-every", "0"], "sample_every"),
    (["--checkpoint-every", "-1"], "checkpoint_every"),
    (["--t-max", "nan"], "t_max"),
    (["--t-max", "-1"], "t_max"),
    (["--dt-max", "inf"], "dt_max"),
    (["--n", "1", "--k", "0"], "n >= 2"),
    (["--n", "1000", "--k", "1"], "n must be at most 437"),
    (["--shape", "perturbed:0.8,0.3,7"], "sigma_1 not positive"),
    # the same shape at mode 4 and k = 0, which checks no sigma_1: refused as not convex
    (["--k", "0", "--N", "65", "--shape", "perturbed:0.8,0.3,4"],
     "initial profile is not strictly convex"),
])
def test_bad_run_settings_exit_1(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert main(RUN_ARGS + flags + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    # settings are refused before the bundle directory is made
    assert not out.exists()


@pytest.mark.parametrize("change, message", [
    ({"convergenceTol": math.nan}, "convergence_tol"),
    # the monitor thresholds and the blow-up stop are constants, not settings
    ({"blowupThreshold": 1e3}, "unknown key 'blowupThreshold' in a config"),
    ({"monitorTolerances": {"sign": 1e-8}}, "unknown key 'monitorTolerances' in a config"),
    ({"monitorTolerances": {}}, "unknown key 'monitorTolerances' in a config"),
    ({"initialShape": {"kind": "perturbed", "r0": 0.8, "eps": 0.05, "mode": 2.5}},
     "mode"),
    ({"tmaxx": 1.0}, "unknown key 'tmaxx' in a config"),
    ({"cflfactor": 0.5}, "unknown key 'cflfactor' in a config"),
    ({"dtPolicy": {"dtMax": 0.01}}, "unknown key 'dtPolicy' in a config"),
    ({"initialShape": {**PERTURBED, "r": 0.8}}, "unknown key 'r' in initialShape"),
    ({"initialShape": {**PERTURBED, "eps": DROP}}, "initialShape needs the key 'eps'"),
    ({"n": DROP}, "a config needs the key 'n'"),
    ({"k": DROP}, "a config needs the key 'k'"),
    ({"N": DROP}, "a config needs the key 'N'"),
    ({"initialShape": DROP}, "a config needs the key 'initialShape'"),
    ({"tMax": None}, "tMax must be a number"),
    ({"blowupThreshold": math.nan}, "unknown key 'blowupThreshold' in a config"),
    ({"initialShape": {"kind": "custom", "theta": None, "rho": [0.8] * 33}},
     "theta must be a list of numbers"),
    ({"n": 1e300}, "n must be at most 437"),
    # JSON true and false are not the numbers 1 and 0
    ({"k": True}, "k must be a number, not True"),
    ({"dtMax": True}, "dtMax must be a number, not True"),
    ({"sampleEvery": True}, "sampleEvery must be a number, not True"),
    ({"initialShape": {**PERTURBED, "mode": True}}, "mode must be a number, not True"),
    # a JSON string is not a number, whatever it spells
    ({"tMax": " 1e-1 "}, "tMax must be a number, not ' 1e-1 '"),
    ({"initialShape": {**PERTURBED, "r0": "0.8"}}, "r0 must be a number, not '0.8'"),
    ({"initialShape": {"kind": "custom", "theta": ["0", "3.14159"], "rho": ["0.8", "0.8"]}},
     "theta must be a list of numbers"),
    # JSON null is not NaN, which would stop the run only at its start
    ({"initialShape": {"kind": "custom", "theta": [0.0, None, math.pi], "rho": [0.8] * 3}},
     "theta must be a list of numbers"),
    ({"initialShape": {"kind": "custom", "theta": np.linspace(0.0, math.pi, 33).tolist(),
                       "rho": [0.8] * 32 + [None]}}, "rho must be a list of numbers"),
    # a bare number is no list of samples
    ({"initialShape": {"kind": "custom", "theta": 0.5, "rho": 0.8}},
     "theta must be a list of numbers"),
    # a JSON integer too large for a float is no number
    ({"N": 10**400}, "N must be a number"),
    ({"initialShape": {"kind": "custom", "theta": np.linspace(0.0, math.pi, 33).tolist(),
                       "rho": [0.8] * 32 + [10**400]}}, "rho must be a list of numbers"),
])
def test_bad_config_file_exits_1(tmp_path, capsys, change, message):
    cfg = FlowConfig(
        n=2, k=1, N=33,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2),
    )
    payload = {**cfg.to_json(), **change}
    payload = {key: value for key, value in payload.items() if value is not DROP}
    if isinstance(payload.get("initialShape"), dict):
        payload["initialShape"] = {key: value for key, value in payload["initialShape"].items()
                                   if value is not DROP}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cfl_flag_is_refused(tmp_path, capsys):
    # the first step is a constant of the solvers, not a run setting
    out = tmp_path / "out"
    assert main(RUN_ARGS + ["--cfl", "0.5", "--out", str(out)]) == 1
    assert "unrecognized arguments: --cfl 0.5" in capsys.readouterr().err
    assert not out.exists()


def test_config_override_is_validated(tmp_path, capsys):
    cfg = FlowConfig(
        n=2, k=1, N=33,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2),
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json()))
    args = ["run", "--config", str(path), "--k", "5", "--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert "k=5 out of range" in capsys.readouterr().err


def test_help_and_unknown_command(capsys):
    assert main(["--help"]) == 0
    assert "sphereflow" in capsys.readouterr().out
    assert main(["no-such-command"]) == 1


def test_a_null_dt_max_is_the_default_no_cap(tmp_path):
    """dtMax null in a config file reads as the default, no cap, and every
    file of the bundle is the one a run without the key writes."""
    payload = {"n": 2, "k": 1, "N": 33, "initialShape": PERTURBED, "tMax": 0.01}
    for name, config in (("null", {**payload, "dtMax": None}), ("absent", payload)):
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
        assert main(["run", "--config", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / name)]) == 0
    for name in ("manifest.json", "trace.csv", "summary.json", "final.json"):
        assert (tmp_path / "null" / name).read_bytes() == (tmp_path / "absent" / name).read_bytes()
    assert _read_json(tmp_path / "null" / "manifest.json")["config"]["dtMax"] is None


def test_config_file_with_flag_override(tmp_path):
    cfg = FlowConfig(
        n=2, k=1, N=33,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2),
        t_max=0.01, sample_every=5,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--t-max", "0.005",
                 "--out", str(out)]) == 0
    summary = _read_json(out / "summary.json")
    assert summary["tFinal"] == pytest.approx(0.005, rel=1e-12)
    manifest = _read_json(out / "manifest.json")
    assert manifest["config"]["tMax"] == 0.005


def test_custom_shape_file(tmp_path):
    theta = np.linspace(0.0, math.pi, 33)
    payload = {"theta": theta.tolist(),
               "rho": (0.8 + 0.02 * np.cos(2 * theta)).tolist()}
    shape_path = tmp_path / "shape.json"
    shape_path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    args = ["run", "--n", "2", "--k", "1", "--N", "33",
            "--shape", f"custom:{shape_path}", "--t-max", "0.005",
            "--out", str(out)]
    assert main(args) == 0
    assert (out / "summary.json").exists()


def test_custom_shape_samples_must_be_a_list(tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"theta": {"a": 1}, "rho": [0.8] * 33}))
    args = ["run", "--n", "2", "--k", "1", "--N", "33",
            "--shape", f"custom:{path}", "--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "theta must be a list of numbers" in err


def test_custom_shape_refuses_boolean_samples(tmp_path, capsys):
    # JSON true is not the number 1: read as 1.0 it would build rho = 1 everywhere
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"theta": np.linspace(0.0, math.pi, 33).tolist(),
                                "rho": [True] * 33}))
    args = ["run", "--n", "2", "--k", "1", "--N", "33",
            "--shape", f"custom:{path}", "--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "rho must be a list of numbers, not booleans" in err
    assert not (tmp_path / "out").exists()


def test_custom_shape_refuses_string_samples(tmp_path, capsys):
    # a JSON string is not a number, even where it spells one
    theta = np.linspace(0.0, math.pi, 33)
    for payload, message in (({"theta": [repr(x) for x in theta], "rho": [0.8] * 33}, "theta"),
                             ({"theta": theta.tolist(), "rho": ["0.8"] * 33}, "rho")):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(payload))
        args = ["run", "--n", "2", "--k", "1", "--N", "33",
                "--shape", f"custom:{path}", "--out", str(tmp_path / "out")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{message} must be a list of numbers" in err
        assert not (tmp_path / "out").exists()


def test_custom_shape_must_span_both_poles(tmp_path, capsys):
    # samples on [0.5, 2.5] would be extrapolated to the poles
    theta = np.linspace(0.5, 2.5, 33)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"theta": theta.tolist(), "rho": [0.8] * 33}))
    args = ["run", "--n", "2", "--k", "1", "--N", "33",
            "--shape", f"custom:{path}", "--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "theta" in err
    assert not (tmp_path / "out").exists()


def test_sweep_with_decreasing_theta_writes_nothing(tmp_path, capsys):
    good = FlowConfig(
        n=2, k=1, N=33,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2),
        t_max=0.005,
    ).to_json()
    theta = np.linspace(math.pi, 0.0, 33).tolist()
    bad = {**good, "initialShape": {"kind": "custom", "theta": theta, "rho": [0.8] * 33}}
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps([good, bad]))
    out = tmp_path / "runs"
    assert main(["run", "--sweep", str(sweep_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: sweep entry 1: ") and "theta" in captured.err
    assert "sweep run-" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("where", ["shape", "config", "sweep"])
def test_json_list_instead_of_object_exits_1(tmp_path, capsys, where):
    cfg = FlowConfig(
        n=2, k=1, N=33,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2),
    ).to_json()
    path = tmp_path / "input.json"
    out = str(tmp_path / "out")
    if where == "shape":
        theta = np.linspace(0.0, math.pi, 33).tolist()
        path.write_text(json.dumps([theta, [0.8] * 33]))
        args = ["run", "--n", "2", "--k", "1", "--N", "33",
                "--shape", f"custom:{path}", "--out", out]
    elif where == "config":
        path.write_text(json.dumps([cfg]))
        args = ["run", "--config", str(path), "--out", out]
    else:
        path.write_text(json.dumps([list(cfg.items())]))
        args = ["run", "--sweep", str(path), "--out", out]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "JSON object" in err


def test_identity_suite_command(tmp_path, capsys):
    out = tmp_path / "ident"
    args = ["identity-suite", "--n-max", "2", "--samples", "100",
            "--seed", "3", "--out", str(out)]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("identity-suite: ")
    assert lines[-1].endswith("checks passed")
    report = _read_json(out / "identities.json")
    assert report["passed"] is True and report["seed"] == 3


def test_identity_suite_refuses_zero_samples(tmp_path, capsys):
    out = tmp_path / "ident"
    assert main(["identity-suite", "--samples", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "samples >= 1, got 0" in err
    assert not out.exists()


def test_audit_command(tmp_path, capsys):
    run_out = tmp_path / "run"
    assert main(RUN_ARGS + ["--out", str(run_out)]) == 0
    audit_out = tmp_path / "audit"
    args = ["audit", "--checkpoint", str(run_out / "final.json"),
            "--out", str(audit_out), "--seed", "5"]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("audit: ")
    report = _read_json(audit_out / "report.json")
    assert report["seed"] == 5 and report["k"] == 1
    assert report["entries"] and all(e["gap"] > -1e-9 for e in report["entries"])


CHECKPOINT = {"n": 2, "k": 1, "t": 0.0, "rho": [0.8] * 33}


@pytest.mark.parametrize("payload, message", [
    ([1, 2], "JSON object"),
    ({"n": 2.7, "k": 1.5, "t": 0.0, "rho": [0.8] * 33}, "must be an integer"),
    ({**CHECKPOINT, "k": 2}, "k=2 out of range for n=2"),
    ({key: value for key, value in CHECKPOINT.items() if key != "t"},
     "a checkpoint needs the key 't'"),
    ({**CHECKPOINT, "tt": 0.0}, "unknown key 'tt' in a checkpoint"),
    ({**CHECKPOINT, "rho": {"x": 1}}, "rho must be a list of numbers"),
    ({**CHECKPOINT, "k": True}, "k must be a number, not True"),
    ({**CHECKPOINT, "rho": [0.8] * 32 + [False]}, "rho must be a list of numbers, not booleans"),
    # JSON strings are not numbers
    ({key: str(value) if key in ("n", "k", "t") else [repr(x) for x in value]
      for key, value in CHECKPOINT.items()}, "n must be a number, not '2'"),
    ({**CHECKPOINT, "t": "0.0"}, "t must be a number, not '0.0'"),
    # the format of earlier versions: the nodes follow from len(rho) and are not read
    ({**CHECKPOINT, "theta": np.linspace(0.0, math.pi, 33).tolist()},
     "unknown key 'theta' in a checkpoint"),
    ({**CHECKPOINT, "rho": ["0.8"] * 33}, "rho must be a list of numbers"),
    # JSON null is not NaN
    ({**CHECKPOINT, "rho": [0.8, None] + [0.8] * 31}, "rho must be a list of numbers"),
    # nor is a JSON integer too large for a float
    ({**CHECKPOINT, "t": 10**400}, "t must be a number"),
])
def test_audit_rejects_malformed_checkpoint(tmp_path, capsys, payload, message):
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(payload))
    assert main(["audit", "--checkpoint", str(path), "--out", str(tmp_path / "a")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not (tmp_path / "a").exists()


def test_audit_refuses_a_checkpoint_below_the_normal_floats(tmp_path, capsys):
    # as run refuses such a start: at n = 437 the unit-radius sphere's A_l underflow to 0
    path = tmp_path / "ck.json"
    path.write_text(json.dumps({**CHECKPOINT, "n": 437, "rho": [1.0] * 33}))
    assert main(["audit", "--checkpoint", str(path), "--out", str(tmp_path / "a")]) == 1
    assert capsys.readouterr().err == ("error: checkpoint quermassintegrals leave the normal "
                                       "floats at n=437: the smallest |A_l| is 0\n")
    assert not (tmp_path / "a" / "report.json").exists()


# at n = 300 and rho = 0.01 the sigma sums of A_112 overflow: under the suite's
# filterwarnings = error, a numpy warning there would raise instead of this line
OVERFLOW = "quermassintegrals leave the normal floats at n=300: A_112 is nan\n"


def test_a_start_whose_sigma_sums_overflow_is_an_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["run", "--n", "300", "--k", "1", "--N", "33", "--shape", "perturbed:0.01,0.0,2"]
    assert main(args + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: start " + OVERFLOW
    assert captured.out == "" and not out.exists()


def test_audit_refuses_a_checkpoint_whose_sigma_sums_overflow(tmp_path, capsys):
    path = tmp_path / "ck.json"
    path.write_text(json.dumps({**CHECKPOINT, "n": 300, "rho": [0.01] * 33}))
    assert main(["audit", "--checkpoint", str(path), "--out", str(tmp_path / "a")]) == 1
    assert capsys.readouterr().err == "error: checkpoint " + OVERFLOW
    assert not (tmp_path / "a").exists()


def test_dual_run_command(tmp_path, capsys):
    out = tmp_path / "dual"
    assert main(DUAL_ARGS + ["--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("dual-run: ")
    summary = _read_json(out / "summary.json")
    assert summary["breakdownTime"] is None
    assert set(summary["dtRange"]) == {"min", "max", "last"}
    # the same Radau counting as run: three stages per Newton iteration, at
    # least two iterations per accepted step, no rate call at an accepted state
    # nor in the first step's first iteration, whose stages sit at the start
    assert summary["rateEvaluations"] >= 6 * summary["steps"] - 3
    assert summary["finalCheckpoint"] == "final.json"
    header = (out / "trace.csv").read_text().splitlines()[1]
    assert "minEigW" in header and "breakdownTime" not in header


def test_dual_run_without_a_pullback_writes_no_final(tmp_path, monkeypatch):
    def refuse(*args):
        raise ConvexityLoss("pullback point map is not monotone")

    monkeypatch.setattr("sphereflow.cli.profile_from_dual", refuse)
    out = tmp_path / "dual"
    assert main(DUAL_ARGS + ["--out", str(out)]) == 0
    summary = _read_json(out / "summary.json")
    assert summary["finalCheckpoint"] is None
    assert summary["pullbackError"] == "pullback point map is not monotone"
    assert not (out / "final.json").exists()
    assert (out / "trace.csv").exists()


def test_dual_run_refuses_checkpoints(tmp_path, capsys):
    # the support-function solver writes no checkpoints, so asking for them is an error
    out = tmp_path / "dual"
    assert main(DUAL_ARGS + ["--checkpoint-every", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "checkpoint_every must be 0" in err
    assert not out.exists()


@pytest.mark.parametrize("levels", ["0", "1"])
def test_convergence_study_refuses_fewer_than_two_levels(tmp_path, capsys, levels):
    # one grid fits no order, and study.json would carry bare NaN
    out = tmp_path / "study"
    args = ["convergence-study", "--N", "32", "--levels", levels, "--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "levels must be at least 2" in err
    assert not out.exists()


def test_convergence_study_command(tmp_path, capsys):
    out = tmp_path / "study"
    args = ["convergence-study", "--n", "2", "--k", "1", "--N", "32",
            "--levels", "2", "--out", str(out)]
    assert main(args) == 0
    assert "evolution orders:" in capsys.readouterr().out
    study = _read_json(out / "study.json")
    assert set(study) >= {"weightedIntegralOrders", "evolutionOrders",
                          "functionalOrders", "levels"}
    assert study["evolutionOrders"]["u"] > 1.5


def test_convergence_study_bundles_name_their_grids(tmp_path):
    # two coarsest grids give different orders, so the manifest and study.json
    # both say which grid they came from; the weighted-integral study runs on
    # at least 128 intervals whatever --N says
    bundles = {}
    for N in (32, 64):
        out = tmp_path / f"N{N}"
        assert main(["convergence-study", "--N", str(N), "--levels", "2", "--out", str(out)]) == 0
        bundles[N] = [_read_json(out / name) for name in ("manifest.json", "study.json")]
    for i in range(2):
        assert bundles[32][i] != bundles[64][i]
        assert bundles[32][i]["N"] == 32 and bundles[64][i]["N"] == 64
    assert bundles[32][1]["sizes"] == {"weightedIntegral": [129, 257], "evolution": [33, 65],
                                       "functional": [33, 65]}
    assert bundles[64][1]["sizes"]["weightedIntegral"] == [129, 257]


def test_convergence_study_refuses_n_past_the_float_range(tmp_path, capsys):
    # symfunc.sigma_two_value's binomials C(n - 1, m) overflow float64 from n = 1031
    out = tmp_path / "study"
    assert main(["convergence-study", "--n", "1040", "--k", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n must be at most 437" in err
    assert not out.exists()


def test_sweep_command(tmp_path, capsys):
    configs = []
    for eps in (0.03, 0.05):
        cfg = FlowConfig(
            n=2, k=1, N=33,
            initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=eps, mode=2),
            t_max=0.005, sample_every=5,
        )
        configs.append(cfg.to_json())
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(configs))
    out = tmp_path / "runs"
    args = ["run", "--sweep", str(sweep_path), "--out", str(out)]
    assert main(args) == 0
    assert capsys.readouterr().out.count("sweep run-") == 2
    for name in ("run-000", "run-001"):
        assert (out / name / "summary.json").exists()
        assert (out / name / "trace.csv").exists()
    manifest = _read_json(out / "manifest.json")
    assert manifest["sweep"] == ["run-000", "run-001"]
    # sweep runs write the same bundle as a single run
    summary = _read_json(out / "run-001" / "summary.json")
    assert {"finalQuermass", "finalMaxSpeed", "finalRhoSpread"} <= set(summary)


def test_sweep_checks_every_entry_before_running(tmp_path, capsys):
    good = FlowConfig(
        n=2, k=1, N=33,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2),
        t_max=0.005,
    ).to_json()
    # a start shape that run refuses as not strictly convex (lam_min < 0 at k = 0)
    non_convex = FlowConfig(
        n=2, k=0, N=65,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.3, mode=4),
    ).to_json()
    sweep_path = tmp_path / "sweep.json"
    out = tmp_path / "runs"
    for entries, error in (
        ([good, {**good, "k": 5}], "sweep entry 1: quotient order k=5"),
        ([non_convex], "sweep entry 0: initial profile is not strictly convex"),
    ):
        sweep_path.write_text(json.dumps(entries))
        assert main(["run", "--sweep", str(sweep_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: " + error)
        assert "sweep run-" not in captured.out
        assert not out.exists()


@pytest.mark.parametrize("n, r0", [(437, 0.8), (200, 0.05)])
def test_a_start_below_the_normal_floats_is_an_error_line(tmp_path, capsys, n, r0):
    # the start's volume A_-1 underflows to 0 here, though n is admitted
    shape = ShapeSpec(kind="perturbed", r0=r0, eps=0.05 * r0, mode=2)
    config = FlowConfig(n=n, k=1, N=65, initial_shape=shape)
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps([{**config.to_json(), "n": 2}, config.to_json()]))
    settings = ["--n", str(n), "--k", "1", "--N", "65", "--shape", f"perturbed:{r0},{0.05 * r0},2"]
    out = tmp_path / "out"
    for args, prefix in ((["run", *settings], "error: "), (["dual-run", *settings], "error: "),
                         (["run", "--sweep", str(sweep_path)], "error: sweep entry 1: ")):
        assert main(args + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"{prefix}start quermassintegrals leave the normal floats "
                                f"at n={n}: the smallest |A_l| is 0\n")
        assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("r0", [0.8, 0.05])
def test_a_normal_start_at_n_128_runs(tmp_path, capsys, r0):
    out = tmp_path / "out"
    args = ["run", "--n", "128", "--k", "1", "--N", "65", "--t-max", "1e-4",
            "--shape", f"perturbed:{r0},{0.05 * r0},2", "--out", str(out)]
    assert main(args) == 0
    assert capsys.readouterr().out.startswith("run: tmax")
    assert min(abs(a) for a in _read_json(out / "summary.json")["finalQuermass"].values()) > 0.0


@pytest.mark.parametrize("key, value", [("blowupThreshold", 1e3),
                                        ("monitorTolerances", {"sign": 1e-8})])
def test_sweep_refuses_monitor_settings(tmp_path, capsys, key, value):
    # the monitor thresholds and the blow-up stop are constants, not settings
    cfg = FlowConfig(
        n=2, k=1, N=33,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2),
    ).to_json()
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps([{**cfg, key: value}]))
    out = tmp_path / "runs"
    assert main(["run", "--sweep", str(sweep_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: sweep entry 0: unknown key '{key}' in a config")
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--N", "65", "--t-max", "0.01", "--config", "absent.json"], "--N, --t-max, --config"),
    (["--shape", "geodesic:0.5"], "--shape"),
    (["--n", "2", "--k", "1", "--checkpoint-every", "3"], "--n, --k, --checkpoint-every"),
])
def test_sweep_refuses_run_flags(tmp_path, capsys, flags, named):
    # every config of a sweep comes from its file: a run flag beside it is an
    # error, not a setting silently dropped
    cfg = FlowConfig(
        n=2, k=1, N=33,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2), t_max=0.005,
    ).to_json()
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps([cfg]))
    out = tmp_path / "runs"
    assert main(["run", "--sweep", str(sweep_path), "--out", str(out)] + flags) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --sweep takes its configs from its file, not {named}\n"
    assert captured.out == ""
    assert not out.exists()


def test_a_refused_allocation_is_an_error_line(tmp_path, capsys):
    # 10**17 nodes ask for ~700 PiB, beyond any address space: the allocator
    # refuses the grid's first array at once, whatever the memory at hand
    args = ["run", "--n", "2", "--k", "1", "--N", str(10**17),
            "--shape", "perturbed:0.8,0.05,2", "--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_repeat_runs_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(RUN_ARGS + ["--out", str(out), "--seed", "9"]) == 0
    for name in ("trace.csv", "summary.json", "manifest.json", "final.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_repeat_dual_runs_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(DUAL_ARGS + ["--out", str(out), "--seed", "9"]) == 0
    for name in ("trace.csv", "summary.json", "manifest.json", "final.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_console_script_installed():
    exe = shutil.which("sphereflow")
    assert exe, "console script missing; install the package first"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0 and "sphereflow" in proc.stdout


@pytest.mark.parametrize("shape, message", [
    ({**PERTURBED, "r0": 2.0}, "rho must lie strictly inside (0, pi/2)"),
    ({**PERTURBED, "eps": 0.3, "mode": 4}, "sigma_1 not positive at node 7"),
])
def test_sweep_with_a_refused_start_shape_writes_nothing(tmp_path, capsys, shape, message):
    # run refuses these start shapes; the sweep finds them before its first run
    good = FlowConfig(
        n=2, k=1, N=33,
        initial_shape=ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2),
        t_max=0.01,
    ).to_json()
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps([good, {**good, "initialShape": shape}]))
    out = tmp_path / "runs"
    assert main(["run", "--sweep", str(sweep_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: sweep entry 1: {message}\n"
    assert "sweep run-" not in captured.out
    assert not out.exists()
