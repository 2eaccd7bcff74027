import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread, fixed before numpy loads: with more threads than
# free cores the timed acceptance tests slow several-fold under load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# The CLI and demo tests run the package in subprocesses: they import it
# from this checkout's src/, as the tests themselves do.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from phasorlisp import Config, Session


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def session():
    """Fresh interpreter session with the default configuration."""
    return Session()


@pytest.fixture
def fast_session():
    """Smaller dimension for tests that only need exact algebra."""
    return Session(Config(dim=256))
