"""Worst values of every identity-suite check over twenty seeds.

Runs ``run_identity_suite(8, 10000, seed)`` in-process, with the package of
this checkout's ``src/``, for seeds 1 to 20.  Prints one JSON object that
maps each check, keyed by its name, n and detail, to its worst value at
each seed, in seed order, and the number of seeds at which it passed.  A
change to ``symfunc`` or to the suite's sampling moves the draws, not the
distributions: compare the outputs of two checkouts seed range against
seed range, not value against value:

    python tools/suite_spread.py > spread.json
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sphereflow.identities import run_identity_suite  # noqa: E402

N_MAX = 8
SAMPLES = 10000
SEEDS = range(1, 21)


def suite_spread() -> dict:
    """Worst values and pass counts of every check, by name/n/detail."""
    spread = {}
    for seed in SEEDS:
        for check in run_identity_suite(N_MAX, SAMPLES, seed).checks:
            entry = spread.setdefault(f"{check.name}/n{check.n}/{check.detail}",
                                      {"worst": [], "passed": 0})
            entry["worst"].append(check.worst)
            entry["passed"] += check.passed
    return spread


if __name__ == "__main__":
    print(json.dumps(suite_spread(), indent=2, sort_keys=True))
