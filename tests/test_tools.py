"""tools/: compare_reports prints moves and fails on structural changes;
bench_pairs reports a run that printed no result and records passes and
counts."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from besselint import catalog

ROOT = Path(__file__).resolve().parents[1]


def _load_tool(name="compare_reports"):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reports(tmp_path, capsys):
    tool = _load_tool()
    report = catalog.verify_grid("I-3.22").to_dict()
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(report), encoding="utf-8")

    def compare(changed: dict):
        new.write_text(json.dumps(changed), encoding="utf-8")
        code = tool.main([str(old), str(new)])
        return code, capsys.readouterr().out

    code, out = compare(report)
    assert code == 0 and "0 value or error-estimate moves, 0 structural mismatches" in out
    assert "quadrature:decaying" in out

    moved = json.loads(json.dumps(report))
    moved["entries"][0]["lhs"] *= 1.0 + 1e-14
    code, out = compare(moved)
    assert code == 0 and "1 value or error-estimate moves" in out and "relative" in out
    # the move over the larger of the side's two error estimates, and the worst one
    e = moved["entries"][0]
    ratio = abs(e["lhs"] - report["entries"][0]["lhs"]) / e["lhs_err"]
    assert f"{ratio:.3g} of its error bar)" in out
    assert f"worst value move {ratio:.3g} of its error bar (#0 I-3.22" in out

    moved["entries"][0]["lhs_err"] *= 100.0  # a larger bar on the new side counts
    moved["entries"][2]["rhs"] += 10.0 * moved["entries"][2]["rhs_err"]
    code, out = compare(moved)
    assert code == 0 and "3 value or error-estimate moves" in out
    assert f"{ratio / 100.0:.3g} of its error bar)" in out
    worst = re.search(r"worst value move (\S+) of its error bar \((#\d+ I-3\.22) .* (\w+)\)$",
                      out, re.M)
    assert worst and abs(float(worst[1]) - 10.0) < 0.1 and worst.group(2, 3) == ("#2 I-3.22", "rhs")

    moved["entries"][1]["lhs_nodes"] += 1
    code, out = compare(moved)
    assert code == 1 and "MISMATCH" in out and "lhs_nodes" in out


def test_bench_pairs_reports_a_run_without_result(tmp_path):
    # a run that exits 1 with only "#" lines on stdout (an exception escaped
    # it) is reported with its command, exit code and stderr
    tool = _load_tool("bench_pairs")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "print('# workload quad-grid')\n"
        "raise RuntimeError('escaped from the warm-up')\n", encoding="utf-8")
    with pytest.raises(RuntimeError) as info:
        tool.run_bench(tmp_path, "quad-grid", 11, 0.1, 0)
    msg = str(info.value)
    assert "perfbench/run.py --workload quad-grid" in msg
    assert "exited 1 with no result line" in msg
    assert "escaped from the warm-up" in msg


def test_bench_pairs_records_passes(tmp_path):
    # the N of an untraced run's "# N passes; ..." line goes into each run and
    # into the workload block, next to the metrics; a traced run leaves it empty
    tool = _load_tool("bench_pairs")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "traced = sys.argv[sys.argv.index('--trace') + 1] == '1'\n"
        "print('# workload kernels')\n"
        "print('# 2 traced and 2 untraced passes; layer shares' if traced else\n"
        "      '# 482 passes; failed_share 0.000000 (0/10 operations)')\n"
        "print(json.dumps({'correct': True, 'attempted': 10, 'failed': 0, 'metrics': \n"
        "      {'peak_rss_mb': {'value': 72.4, 'unit': 'MB'}}}))\n", encoding="utf-8")
    res = tool.run_bench(tmp_path, "kernels", 11, 0.1, 0)
    assert res["passes"] == 482 and res["failed_share"] == 0.0
    assert tool.run_bench(tmp_path, "kernels", 11, 0.1, 1)["passes"] is None
    spec = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
    block = tool.end_to_end_block({"parent": [res], "change": [dict(res, passes=811)]},
                                  [spec], 1)
    assert block["passes"] == {"parent": [482], "change": [811]}
    assert block["metrics"]["peak_rss_mb"]["change_runs"] == [72.4]


def test_bench_pairs_records_counts_once_per_side():
    # count metrics of the traced runs go in once per side; a count that does
    # not repeat within a side keeps all its values; other units stay out
    tool = _load_tool("bench_pairs")

    def run(terms, calls=24):
        return {"metrics": {
            "series.product_jj_gauss.terms": {"value": terms, "unit": "count"},
            "series.product_jj_gauss.calls": {"value": calls, "unit": "count"},
            "series.product_jj_gauss.self_s": {"value": 0.003, "unit": "s"},
            "probe.hyp0f3_vec.ns_per_point.n15": {"value": 1800.0, "unit": "ns"}}}

    counts = tool.count_block({"parent": [run(603), run(603)],
                               "change": [run(603, 24), run(603, 25)]})
    assert counts == {
        "series.product_jj_gauss.terms": {"parent": 603, "change": 603},
        "series.product_jj_gauss.calls": {"parent": 24, "change": [24, 25]}}
