"""Test set-up for the benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The goldens were recorded with one BLAS thread, so pin it before numpy
loads, and keep every model cache and pool out of the user's home.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402


@pytest.fixture(autouse=True)
def hermetic(tmp_path_factory, monkeypatch):
    cache = tmp_path_factory.getbasetemp() / "model-cache"
    monkeypatch.setenv("GANA_CACHE_DIR", str(cache))
    monkeypatch.setenv("GANA_WORKERS", "1")
    monkeypatch.delenv("GANA_NO_CACHE", raising=False)
