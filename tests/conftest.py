import math
import os
from pathlib import Path

import numpy as np
import pytest

from mirrorfield.rates import symmetric_prefactor

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="session", autouse=True)
def src_on_subprocess_path():
    """Let CLI subprocesses import the package whatever their cwd."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session", autouse=True)
def assert_symmetric_prefactor_identity():
    """The printed symmetric prefactor must equal its factored form.

    3 r (1 + r**2 - t**2) / ((1 + r**2)**2 - t**4) == 3 r / (1 + r**2 + t**2)
    for every admissible rate pair. Checked once at suite startup.
    """
    rng = np.random.default_rng(20240815)
    pairs = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5), (2**-0.5, 2**-0.5)]
    while len(pairs) < 40:
        r, t = rng.random(2)
        if r * r + t * t <= 1.0:
            pairs.append((float(r), float(t)))
    for r, t in pairs:
        printed = symmetric_prefactor(r, t)
        factored = 3.0 * r / (1.0 + r * r + t * t)
        assert printed == pytest.approx(factored, rel=1e-13, abs=1e-15), (r, t)
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
