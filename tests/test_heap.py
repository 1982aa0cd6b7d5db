"""The package's glibc heap policy: freed memory stays mapped.

Each test runs in a fresh interpreter that imports numpy before facemark,
because the policy, unlike the BLAS pin, must not depend on import order,
and because a process's allocation history moves glibc's default thresholds.
Faults are minor page faults from ``resource.getrusage``.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "gnu_get_libc_version"),
                                reason="the heap policy applies only where libc is glibc")

PRELUDE = """
import resource

import numpy as np

import facemark


def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
"""

CYCLES_SCRIPT = PRELUDE + """

def cycle():
    a = np.ones((16, 64, 32, 32))
    b = np.ones((16, 64, 32, 32))
    del a, b


cycle()
cycle()
before = faults()
for _ in range(10):
    cycle()
print(faults() - before)
"""

VERIFY_SCRIPT = PRELUDE + """
import _synth
from facemark import pipeline

embeddings = _synth.identity_embeddings(100, 5, dim=32, seed=3)
options = pipeline.VerifyOptions(far_targets=(1e-2, 1e-3), max_imposter=200_000)
pipeline.run_verification(embeddings, options)
before = faults()
pipeline.run_verification(embeddings, options)
print(faults() - before)
"""


def _faults(script):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120,
                          capture_output=True, text=True)
    return int(done.stdout)


def test_freed_default_shape_arrays_stay_mapped():
    # Two (16, 64, 32, 32) float64 arrays are 8.4 MB each; glibc's defaults
    # map and unmap them on every cycle, ~1,000 faults a cycle.
    assert _faults(CYCLES_SCRIPT) < 50


def test_a_second_verification_call_takes_almost_no_page_faults():
    assert _faults(VERIFY_SCRIPT) < 100
