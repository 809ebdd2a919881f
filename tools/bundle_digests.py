"""SHA-256 digests of every file the CLI writes for the reference runs.

Runs ``run --checkpoint-every 20`` and ``dual-run`` on both reference shapes
(``perturbed:0.8,0.05,2`` at n=2, k=1 and ``perturbed:0.9,0.03,2`` at n=3,
k=2) and on a small-radius start (``perturbed:0.05,0.0025,2`` at n=2, k=0,
whose Jacobian is ~1/r0^2 stiffer) at N = 128 and 256,
``identity-suite --n-max 8 --samples 10000`` at seeds 1 and 7, and
``convergence-study`` at its defaults for (n, k) = (2, 1) and (3, 2), whose
evolution and functional orders read the residuals of
``flow.evolution_residuals`` and ``flow.functional_derivative_residuals``,
and ``audit`` of each ``run`` bundle's ``final.json``, each into a fresh
temporary directory, with the package of this checkout's ``src/``.  The
audits run from that directory with the checkpoint path relative to it, as
``manifest.json`` records ``--checkpoint`` as given.  Prints one JSON object
with, for each run, the digest of every file it wrote and, where it writes a
``summary.json``, a ``study.json`` or a ``report.json``, every field there:
the counters, the final quermassintegrals, speed and spread, and the W range
and breakdown time of a dual run, the fitted orders of a study, or the gaps
of an audit.  Two checkouts that print
the same object write byte-identical bundles; diff the outputs to compare
them.  Where digests differ, the summary fields show how far each value
moved:

    python tools/bundle_digests.py > digests.json
"""

import hashlib
import json
import sys
import tempfile
from contextlib import chdir, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sphereflow.cli import main  # noqa: E402

SHAPES = {"n2k1": ("2", "1", "perturbed:0.8,0.05,2"),
          "n3k2": ("3", "2", "perturbed:0.9,0.03,2"),
          "n2k0small": ("2", "0", "perturbed:0.05,0.0025,2")}
COMMANDS = {"run": ["run", "--checkpoint-every", "20"], "dual-run": ["dual-run"]}
GRIDS = (128, 256)
SUITE_SEEDS = (1, 7)
STUDY_ORDERS = ((2, 1), (3, 2))


def _bundle(args: list, out: Path) -> dict:
    """Run the CLI with args into out: the digests of its files and the
    fields of its summary.json, study.json or report.json, if it writes one."""
    with redirect_stdout(sys.stderr):  # stdout carries the JSON object alone
        code = main(args + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"exit code {code}: sphereflow {' '.join(args)}")
    files = {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(out.rglob("*")) if path.is_file()}
    for report in ("summary.json", "study.json", "report.json"):
        if (out / report).is_file():
            return {"files": files, "summary": json.loads((out / report).read_text())}
    return {"files": files}


def bundle_digests() -> dict:
    """Digests and summaries of every reference bundle, by command/shape/grid,
    identity-suite/seed, convergence-study/n,k and audit/shape/grid."""
    digests = {}
    with tempfile.TemporaryDirectory() as scratch:
        for command, flags in COMMANDS.items():
            for shape, (n, k, spec) in SHAPES.items():
                for N in GRIDS:
                    name = f"{command}/{shape}/N{N}"
                    args = flags + ["--n", n, "--k", k, "--N", str(N), "--shape", spec]
                    digests[name] = _bundle(args, Path(scratch) / name)
        for seed in SUITE_SEEDS:
            name = f"identity-suite/seed{seed}"
            args = ["identity-suite", "--n-max", "8", "--samples", "10000",
                    "--seed", str(seed)]
            digests[name] = _bundle(args, Path(scratch) / name)
        for n, k in STUDY_ORDERS:
            name = f"convergence-study/n{n}k{k}"
            args = ["convergence-study", "--n", str(n), "--k", str(k)]
            digests[name] = _bundle(args, Path(scratch) / name)
        with chdir(scratch):
            for shape in SHAPES:
                for N in GRIDS:
                    args = ["audit", "--checkpoint", f"run/{shape}/N{N}/final.json"]
                    digests[f"audit/{shape}/N{N}"] = _bundle(args, Path(f"audit/{shape}/N{N}"))
    return digests


if __name__ == "__main__":
    print(json.dumps(bundle_digests(), indent=2, sort_keys=True))
