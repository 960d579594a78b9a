"""Test-wide settings: hypothesis draws the same examples on every run and
has no per-example deadline, so the suite stays deterministic and does not
fail on a slow host. No example database is written.

BLAS runs on one thread, as in ``benchmark/run.py``: the network's GEMMs
are too small to gain from a second one. pytest loads this file before it
collects any test module, so the pin is set before numpy loads.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy loaded before the BLAS thread count was pinned")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hypothesis import settings  # noqa: E402

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
