"""Smoke tests: the kernel, quadrature and product-series demos run against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

from besselint.specfun import hyp0f3

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_kernel_demo_runs():
    out = _run_demo("01_special_function_kernels.py")
    # the printed term count is the scalar kernel's own, and the estimate
    # owns up to the cancellation
    found = re.search(r"hyp0f3\(\.\.\., -1e5\): value=(\S+), abs_err_est=(\S+), terms=(\d+)",
                      out)
    r = hyp0f3(0.5, 0.5, 1.0, -1e5)
    assert found and int(found.group(3)) == r.terms_or_nodes_used
    assert float(found.group(2)) > 1e-12 * abs(float(found.group(1)))


def test_quadrature_demo_runs():
    out = _run_demo("02_quadrature_engines.py")
    assert "semi-infinite with exponential decay" in out
    assert "conditionally convergent oscillatory integrals" in out


def test_product_series_demo_runs():
    out = _run_demo("03_product_series.py")
    diffs = [float(d) for d in re.findall(r"rel diff = (\S+)", out)]
    assert len(diffs) == 3 and max(diffs) < 1e-5
