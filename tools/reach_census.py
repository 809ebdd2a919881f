"""Every ``src/`` function that no CLI command and no acceptance check calls.

Runs, in-process and with the package of this checkout's ``src/``, under a
``sys.setprofile`` hook that records each code object called:

- ``run`` with checkpoints, ``dual-run``, ``audit`` of the run's final
  checkpoint, ``identity-suite`` and ``convergence-study``;
- ``run --sweep`` over an off-grid ``custom`` shape (resampled onto the
  run's grid), with ``dtMax`` null, and a perturbed n=3, k=2 start;
- one refused start, ``run --shape perturbed:0.8,0.3,6``, whose sigma_k is
  not positive;

each into a temporary directory, and then ``tests/test_acceptance.py``
under pytest, in the same process, from that directory and with
``-p no:cacheprovider`` and no bytecode, so it writes nothing in the
checkout.  Prints one JSON list, sorted by file and line: every function,
method or lambda of ``src/`` that was never called, with its file, first
line and length in lines.  An empty list means that every function the
package defines is reached from the CLI or the acceptance battery:

    python tools/reach_census.py
"""

import ast
import json
import math
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import pytest  # noqa: E402

from sphereflow.cli import main  # noqa: E402

SHAPE = ["--n", "2", "--k", "1", "--N", "65", "--shape", "perturbed:0.8,0.05,2"]


def _functions() -> dict:
    """{(file, first line): (qualified name, length)} of every def and lambda in
    src/; a decorated function starts at its first decorator, as its code does."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                first = min([child.lineno] + [d.lineno for d in
                                              getattr(child, "decorator_list", [])])
                name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
                found[(str(path), first)] = (name, child.end_lineno - first + 1)
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}.{child.name}"
            visit(child, name, path)

    for path in sorted((SRC / "sphereflow").glob("*.py")):
        module = path.stem if path.stem != "__init__" else "sphereflow"
        visit(ast.parse(path.read_text(), filename=str(path)), module, path)
    return found


def _commands(scratch: Path) -> list:
    """The census's CLI commands; command i writes into scratch/out{i}."""
    theta = [math.pi * i / 40 for i in range(41)]  # not the nodes of N = 65
    custom = {"kind": "custom", "theta": theta,
              "rho": [0.8 + 0.04 * math.cos(2 * t) for t in theta]}
    sweep = scratch / "sweep.json"
    sweep.write_text(json.dumps([
        {"n": 2, "k": 1, "N": 65, "dtMax": None, "initialShape": custom},
        {"n": 3, "k": 2, "N": 65,
         "initialShape": {"kind": "perturbed", "r0": 0.9, "eps": 0.03, "mode": 2}}]))
    # (arguments, expected exit code); the last start is refused with exit 1
    return [
        (["run", *SHAPE, "--checkpoint-every", "5"], 0),
        (["run", "--sweep", str(sweep)], 0),
        (["dual-run", *SHAPE], 0),
        (["audit", "--checkpoint", str(scratch / "out0" / "final.json")], 0),
        (["identity-suite", "--samples", "2000"], 0),
        (["convergence-study"], 0),
        (["run", "--n", "2", "--k", "1", "--N", "65", "--shape", "perturbed:0.8,0.3,6"], 1),
    ]


def reach_census() -> list:
    """[{function, file, line, lines}] of every src/ function never called."""
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        os.chdir(scratch)
        sys.setprofile(hook)
        try:
            with redirect_stdout(sys.stderr):  # stdout carries the JSON list alone
                for i, (args, expected) in enumerate(_commands(scratch)):
                    code = main(args + ["--out", str(scratch / f"out{i}")])
                    if code != expected:
                        raise SystemExit(f"exit code {code}: sphereflow {' '.join(args)}")
                code = pytest.main([str(ROOT / "tests" / "test_acceptance.py"), "-q",
                                    "-p", "no:cacheprovider", "--rootdir", str(ROOT)])
        finally:
            sys.setprofile(None)
            os.chdir(cwd)
    if code != 0:
        raise SystemExit(f"tests/test_acceptance.py exit code {code}")
    reached = {(c.co_filename, c.co_firstlineno) for c in called}
    return [{"function": name, "file": str(Path(file).relative_to(ROOT)), "line": line,
             "lines": length}
            for (file, line), (name, length) in sorted(_functions().items())
            if (file, line) not in reached]


if __name__ == "__main__":
    print(json.dumps(reach_census(), indent=2))
