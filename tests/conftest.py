import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from sphereflow import FlowConfig, ShapeSpec, run


@pytest.fixture(scope="session")
def standard_run():
    """Reference run shared by the conservation / monitor / limit tests.

    n=2, k=1, rho = 0.8 + 0.05 cos 2theta at N=256, integrated until the
    speed drops below 1e-6.  Takes well under a second with Radau steps; it
    is session-scoped so that every test reads the same run.
    """
    shape = ShapeSpec(kind="perturbed", r0=0.8, eps=0.05, mode=2)
    config = FlowConfig(n=2, k=1, N=256, initial_shape=shape,
                        t_max=50.0, convergence_tol=1e-6, sample_every=50)
    return run(config)


@pytest.fixture(scope="session")
def second_run():
    """Companion run at n=3, k=2 for the bound monitors."""
    shape = ShapeSpec(kind="perturbed", r0=0.9, eps=0.03, mode=2)
    config = FlowConfig(n=3, k=2, N=256, initial_shape=shape,
                        t_max=50.0, convergence_tol=1e-6, sample_every=50)
    return run(config)
