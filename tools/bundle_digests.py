"""SHA-256 digests of every file the CLI writes for the reference runs.

Runs ``run --checkpoint-every 20`` and ``dual-run`` on both reference shapes
(``perturbed:0.8,0.05,2`` at n=2, k=1 and ``perturbed:0.9,0.03,2`` at n=3,
k=2) at N = 128 and 256, and ``identity-suite --n-max 8 --samples 10000`` at
seeds 1 and 7, each into a fresh temporary directory, with the package of
this checkout's ``src/``.  Prints one JSON object with, for each run, the
digest of every file it wrote and, where it writes a ``summary.json``, every
field there: the counters, the final quermassintegrals, speed and spread,
and the W range and breakdown time of a dual run.  Two checkouts that print
the same object write byte-identical bundles; diff the outputs to compare
them.  Where digests differ, the summary fields show how far each value
moved:

    python tools/bundle_digests.py > digests.json
"""

import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sphereflow.cli import main  # noqa: E402

SHAPES = {"n2k1": ("2", "1", "perturbed:0.8,0.05,2"),
          "n3k2": ("3", "2", "perturbed:0.9,0.03,2")}
COMMANDS = {"run": ["run", "--checkpoint-every", "20"], "dual-run": ["dual-run"]}
GRIDS = (128, 256)
SUITE_SEEDS = (1, 7)


def _bundle(args: list, out: Path) -> dict:
    """Run the CLI with args into out: the digests of its files and the
    fields of its summary.json, if it writes one."""
    with redirect_stdout(sys.stderr):  # stdout carries the JSON object alone
        code = main(args + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"exit code {code}: sphereflow {' '.join(args)}")
    files = {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(out.rglob("*")) if path.is_file()}
    if not (out / "summary.json").is_file():
        return {"files": files}
    return {"files": files, "summary": json.loads((out / "summary.json").read_text())}


def bundle_digests() -> dict:
    """Digests and summaries of every reference bundle, by command/shape/grid
    and identity-suite/seed."""
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
    return digests


if __name__ == "__main__":
    print(json.dumps(bundle_digests(), indent=2, sort_keys=True))
