import os
import sys
from pathlib import Path

# One BLAS thread, as in the benchmark: OpenBLAS reads these variables once,
# when numpy is first imported, and multithreaded matmuls make the timing
# ratios of criterion 3 swing with the load on the other cores.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin the BLAS threads")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
