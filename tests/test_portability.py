"""Bytes that do not depend on the machine: ``src/`` makes no BLAS or
LAPACK call, the latency-law fit gives the same bytes under any OpenBLAS
kernel, and training, evaluation and calibration give the same bytes at
numpy's baseline SIMD level."""

import ast
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from mtjsnn import macrospin

PACKAGE = Path(macrospin.__file__).resolve().parent

# numpy attributes that reach BLAS or LAPACK; any ``.dot`` is caught too
NUMPY_BLAS = {"linalg", "matmul", "inner", "vdot", "tensordot", "einsum"}


def blas_calls(source, name):
    """``name:line: expression`` for each BLAS or LAPACK entry point."""
    hits = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            hits.append(f"{name}:{node.lineno}: @")
        elif isinstance(node, ast.Attribute):
            on_numpy = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            if node.attr == "dot" or (on_numpy and node.attr in NUMPY_BLAS):
                hits.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {alias.name for alias in node.names} | {node.module.rpartition(".")[2]}
            if names & (NUMPY_BLAS | {"dot"}):
                hits.append(f"{name}:{node.lineno}: from {node.module} import")
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.linalg") for alias in node.names):
                hits.append(f"{name}:{node.lineno}: import numpy.linalg")
    return hits


class TestNoBlasInSource:
    def test_package_calls_no_blas_or_lapack(self):
        paths = sorted(PACKAGE.glob("*.py"))
        assert paths
        hits = [hit for path in paths for hit in blas_calls(path.read_text(), path.name)]
        assert hits == []

    @pytest.mark.parametrize("source", [
        "c = a @ b", "a @= b", "np.linalg.norm(a)", "numpy.linalg.solve(a, b)",
        "np.dot(a, b)", "a.dot(b)", "np.matmul(a, b)", "np.inner(a, b)", "np.vdot(a, b)",
        "np.tensordot(a, b)", "np.einsum('i,i', a, b)", "from numpy.linalg import norm",
        "from numpy import dot", "import numpy.linalg",
    ])
    def test_each_entry_point_found_once(self, source):
        assert len(blas_calls(source, "m.py")) == 1

    @pytest.mark.parametrize("source", [
        "np.sum(a * b)", "@property\ndef f(self):\n    return 1", "from numpy import sum",
        "import numpy as np", "x = linalg",
    ])
    def test_other_code_passes(self, source):
        assert blas_calls(source, "m.py") == []


# The fit problems are built from Python floats (``random``, ``math.exp``):
# numpy's ``np.exp`` and ``**`` on arrays may round differently at another
# SIMD dispatch level, which would change the inputs rather than the fit.
DIGEST_CODE = """\
import math
import random
from mtjsnn.defaults import CALIBRATION_GRID
from mtjsnn.macrospin import MacrospinParams, calibrate_tlr, fit_latency_law
rng = random.Random(2026)
grid = [0.85, 0.9, 0.95, 1.0, 1.1, 1.2, 1.3, 1.5, 1.7, 2.0, 2.5]
fits = []
for _ in range(100):
    vth, q, floor = rng.uniform(0.5, 0.8), rng.uniform(0.05, 0.5), rng.uniform(0.5, 1.5)
    drives = sorted(rng.sample(grid, rng.randint(5, 11)))
    lats = [(floor + q / (v - vth)) * math.exp(rng.gauss(0.0, 0.02)) for v in drives]
    fits.append(fit_latency_law(drives, lats))
cal = calibrate_tlr(MacrospinParams(), CALIBRATION_GRID, horizon=3.5)
out = repr((fits, cal.tlr_params, cal.max_rel_residual))
"""


def has_avx2():
    try:
        with open("/proc/cpuinfo") as fh:
            return any(line.startswith("flags") and " avx2" in line for line in fh)
    except OSError:
        return False


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS kernel names are x86-64 ones")
class TestSameBytesUnderEveryBlasKernel:
    """The fit and a calibration in a child process with another OpenBLAS
    kernel give the ``repr`` bytes of the same calls in this process.
    Prescott runs on any x86-64 CPU; Haswell needs AVX2."""

    @pytest.fixture(scope="class")
    def in_process(self):
        namespace = {}
        exec(DIGEST_CODE, namespace)
        return namespace["out"] + "\n"

    @pytest.mark.parametrize("kernel", ["Prescott", "Haswell"])
    def test_child_process(self, in_process, kernel):
        if kernel == "Haswell" and not has_avx2():
            pytest.skip("the Haswell kernel needs AVX2")
        env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "OPENBLAS_CORETYPE": kernel}
        done = subprocess.run([sys.executable, "-c", DIGEST_CODE + "print(out)\n"],
                              capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout == in_process


# Training and evaluation on configs/xor.yaml and a calibration: the calls
# behind bench-xor and calibrate_tlr, reduced to one line of output.
SIMD_DIGEST_CODE = """\
import hashlib
from mtjsnn.cli import _run_training
from mtjsnn.config import load_config
from mtjsnn.defaults import CALIBRATION_GRID
from mtjsnn.macrospin import MacrospinParams, calibrate_tlr
from mtjsnn.xorbench import run_xor_eval
cfg = load_config(config_path)
digest = hashlib.sha256()
for seed in (1, 2):
    net, history = _run_training(cfg, seed)
    digest.update(net.weight_vector().tobytes() + repr(history.losses).encode())
    for trace in run_xor_eval(net, cfg.sim, cfg.encoding).traces:
        digest.update(trace.time.tobytes())
        for name, signal in trace.signals.items():
            digest.update(name.encode() + signal.tobytes())
cal = calibrate_tlr(MacrospinParams(), CALIBRATION_GRID, horizon=3.5)
out = repr((digest.hexdigest(), cal.tlr_params, cal.max_rel_residual))
"""


def simd_dispatch():
    """The SIMD features above numpy's baseline that numpy may dispatch to
    and this CPU has. numpy refuses to disable a feature the CPU lacks."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:   # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


class TestSameBytesAtBaselineSimd:
    """The digest in a child process with every dispatched SIMD feature this
    CPU has disabled gives the bytes of the same calls in this process."""

    def test_child_process(self, xor_config_path):
        dispatch = simd_dispatch()
        if not dispatch:
            pytest.skip("numpy dispatches to no SIMD level above its baseline here")
        code = f"config_path = {xor_config_path!r}\n" + SIMD_DIGEST_CODE
        namespace = {}
        exec(code, namespace)
        env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent),
               "NPY_DISABLE_CPU_FEATURES": ",".join(dispatch)}
        # numpy reports a feature it refuses to disable as an ImportWarning
        # and keeps full dispatch, so the warning is shown and stderr must
        # stay empty
        done = subprocess.run([sys.executable, "-W", "always::ImportWarning", "-c",
                               code + "print(out)\n"],
                              capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert done.stdout == namespace["out"] + "\n"
