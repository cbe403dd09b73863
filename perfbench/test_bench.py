"""Checks of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from besselint import catalog, quad, specfun  # noqa: E402

COUNT_UNITS = ("count", "bytes")


def _counts(workload) -> dict:
    """Count metrics of one traced pass of a freshly built workload."""
    with layertrace.Tracer() as tracer:
        result = workload.trace_pass()
    assert not result.failures, result.failures[:3]
    return {k: m["value"] for k, m in layertrace.layer_metrics(tracer).items()
            if m["unit"] in COUNT_UNITS}


def test_inputs_repeat_for_a_seed():
    assert workloads.quad_grid_points(7) == workloads.quad_grid_points(7)
    assert workloads.quad_grid_points(7) != workloads.quad_grid_points(8)
    a, b = workloads.kernel_ops(7), workloads.kernel_ops(7)
    assert [op.label() for op in a] == [op.label() for op in b]


def test_counts_repeat_for_a_seed(tmp_path):
    for name in ("quad-grid", "kernels", "verify-all"):
        cls = workloads.WORKLOADS[name]
        first = _counts(cls(3, tmp_path))
        assert first == _counts(cls(3, tmp_path)), name
        assert sum(first.values()) > 0, name


def test_layer_split_of_each_workload(tmp_path):
    """Each workload loads the layers it was chosen for."""
    def shares(name):
        with layertrace.Tracer() as tracer:
            workloads.WORKLOADS[name](2, tmp_path).trace_pass()
        return layertrace.layer_shares(tracer)

    s = shares("quad-grid")
    assert s["specfun.vec"] == 0.0 and s["quad"] >= 0.8
    s = shares("kernels")
    assert s["quad"] == 0.0 and s["catalog"] == 0.0
    s = shares("verify-all")
    assert s["specfun.vec"] == max(s.values())


def test_tracer_restores_every_binding(tmp_path):
    before = (specfun.kelvin_ber_vec, quad.integrate_finite, catalog.run_all,
              [(r.lhs, r.rhs) for r in catalog.list_identities()])
    with layertrace.Tracer() as tracer:
        catalog.verify("I-2.7", {"mu": 0.0, "nu": 0.0, "s": 0.5, "a": 1.0, "b": 0.4})
    assert any(s.name == "quad.integrate_finite" for s in tracer.spans)
    after = (specfun.kelvin_ber_vec, quad.integrate_finite, catalog.run_all,
             [(r.lhs, r.rhs) for r in catalog.list_identities()])
    assert after == before


def test_result_line_names_the_declared_metrics(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        code = run.main(["--workload", "kernels", "--seed", "1", "--seconds", "0.2",
                         "--trace", str(trace)])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert {k: m["unit"] for k, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}
