import csv
import json
import math
import time

import pytest

from besselint import cli


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# list
# ----------------------------------------------------------------------

def test_list_text(capsys):
    code, out, _ = run(capsys, ["list"])
    assert code == 0
    for token in ("I-2.4", "I-3.22", "I-K1"):
        assert token in out
    n = int(out.strip().splitlines()[-1].split()[0])
    assert n >= 25


def test_list_json_filter(capsys):
    code, out, _ = run(capsys, ["list", "--format", "json", "--difficulty", "hard"])
    assert code == 0
    rows = json.loads(out)
    assert {r["id"] for r in rows} == {"I-3.19", "I-3.21"}
    assert all(r["statement"] and r["constraints"] for r in rows)


def test_list_csv(capsys):
    code, out, _ = run(capsys, ["list", "--format", "csv"])
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][0] == "id"
    assert len(rows) >= 26


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

def test_eval_known_values(capsys):
    code, out, _ = run(capsys, ["eval", "bessel_k", "0.5", "1"])
    assert code == 0
    shown = out.splitlines()[0]
    want = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
    assert abs(float(shown) - want) < 1e-14
    digits = sum(ch.isdigit() for ch in shown)
    assert digits >= 15

    code, out, _ = run(capsys, ["eval", "gamma", "5"])
    assert code == 0 and float(out.split()[0]) == 24.0


def test_eval_weber_matches_verify_target(capsys):
    code, out, _ = run(capsys, ["eval", "weber_triple", "1", "1", "1", "1"])
    assert code == 0
    from besselint import catalog
    lhs, _ = catalog.evaluate_sides(
        "I-3.8", {"alpha": 1.0, "beta1": 1.0, "beta2": 1.0, "beta3": 1.0})
    assert abs(float(out.splitlines()[0]) - lhs.value) < 1e-7


def test_eval_errors(capsys):
    code, _, err = run(capsys, ["eval", "nosuch", "1"])
    assert code == 2 and "unknown function" in err
    code, _, err = run(capsys, ["eval", "bessel_k", "0.5", "-1"])
    assert code == 4 and "requires x > 0" in err
    code, _, err = run(capsys, ["eval", "bessel_k", "0.5"])
    assert code == 3
    code, _, err = run(capsys, ["eval", "gamma", "nan-ish"])
    assert code == 3
    # a non-integer m is a domain error, not truncated to an integer
    for argv in (["weber_triple_m", "1.5", "1", "0.5", "0.6", "0.7"],
                 ["weber_j0jm_limit", "1", "0.5", "0.6", "2.7"]):
        code, out, err = run(capsys, ["eval", *argv])
        assert code == 4 and "m must be an integer" in err and out == ""
    code, _, _ = run(capsys, ["eval", "weber_triple_m", "2.0", "1", "0.5", "0.6", "0.7"])
    assert code == 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_pass_exit0(capsys):
    code, out, _ = run(capsys, ["verify", "I-2.32", "--tol", "1e-8"])
    assert code == 0
    assert "summary:" in out and "fail=0" in out


def test_verify_unknown_exit2(capsys):
    code, _, err = run(capsys, ["verify", "I-9.99"])
    assert code == 2 and "unknown identity" in err


def test_verify_bad_flags_exit3(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, ["verify", "I-2.32", "--format", "bogus"])
    assert exc.value.code == 3
    code, _, err = run(capsys, ["verify", "all", "--grid", "nope.csv"])
    assert code == 3 and "cannot be combined" in err
    code, _, err = run(capsys, ["verify", "I-2.32", "--tol", "-1"])
    assert code == 3
    code, _, err = run(capsys, ["verify", "I-2.32", "--jobs", "0"])
    assert code == 3
    # a term budget below 1 would leave every point inconclusive
    for flag, value in (("--max-terms", "-5"), ("--max-terms", "0")):
        code, out, err = run(capsys, ["verify", "I-2.7", flag, value])
        assert code == 3 and out == "" and f"{flag} must be >= 1" in err
    code, _, err = run(capsys, ["verify", "I-2.32", "--abs-floor", "0"])
    assert code == 3 and "--abs-floor" in err


def test_verify_json_report_schema(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["verify", "I-3.22", "--json", "--out", str(out_path)])
    assert code == 0
    assert out == ""
    text = out_path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    rep = json.loads(text)
    assert set(rep) == {"artifact_version", "timestamp", "tolerance_policy",
                        "entries", "summary"}
    entry = rep["entries"][0]
    for key in ("id", "params", "lhs", "rhs", "lhs_err", "rhs_err",
                "abs_diff", "rel_diff", "status"):
        assert key in entry
    assert rep["summary"]["pass"] == len(rep["entries"])


def test_verify_determinism_and_jobs_invariance(capsys, tmp_path):
    paths = [tmp_path / f"r{i}.json" for i in range(3)]
    run(capsys, ["verify", "I-3.8", "--json", "--out", str(paths[0])])
    run(capsys, ["verify", "I-3.8", "--json", "--out", str(paths[1])])
    run(capsys, ["verify", "I-3.8", "--json", "--jobs", "4", "--out", str(paths[2])])
    reports = [json.loads(p.read_text()) for p in paths]
    for rep in reports:
        rep.pop("timestamp")
        rep["summary"].pop("wall_time_s")
    assert reports[0] == reports[1] == reports[2]


def test_unconverged_kernel_is_inconclusive_not_fail(capsys):
    # a 5-term 0F3 budget cannot converge inside the I-2.4 integrand
    t0 = time.perf_counter()
    code, out, _ = run(capsys, ["verify", "I-2.4", "--max-terms", "5"])
    assert time.perf_counter() - t0 < 5.0
    assert code == 0 and "fail=0" in out and "pass=0" in out


def test_verify_strict_inconclusive(capsys):
    # forced non-convergence via a tiny term budget: inconclusive entries
    # exit 0 with a warning unless --strict
    code, out, _ = run(capsys, ["verify", "I-2.4", "--max-terms", "5"])
    assert code == 0
    assert "warning" in out and "inconclusive" in out
    code, _, _ = run(capsys, ["verify", "I-2.4", "--max-terms", "5", "--strict"])
    assert code == 1


def test_verify_watch_identity_not_strict(capsys):
    code, out, _ = run(capsys, ["verify", "I-3.21"])
    assert code == 0
    assert "ratio" in out
    code, _, _ = run(capsys, ["verify", "I-3.21", "--strict"])
    assert code == 1


def test_verify_grid_csv(capsys, tmp_path):
    grid = tmp_path / "grid.csv"
    grid.write_text("nu,a,b,p\n0,1,1,1\n0.5,1,2,0.5\n", encoding="utf-8")
    code, out, _ = run(capsys, ["verify", "I-2.32", "--grid", str(grid)])
    assert code == 0
    assert "pass=2" in out

    bad = tmp_path / "bad.csv"
    bad.write_text("nu,a,b,p\n0,1,1,1\n0,1,1,-3\n", encoding="utf-8")
    code, _, err = run(capsys, ["verify", "I-2.32", "--grid", str(bad)])
    assert code == 4
    assert "line 3" in err and "constraint" in err

    missing = tmp_path / "missing.csv"
    missing.write_text("nu,a,b\n0,1,1\n", encoding="utf-8")
    code, _, err = run(capsys, ["verify", "I-2.32", "--grid", str(missing)])
    assert code == 4 and "line 2" in err

    extra = tmp_path / "extra.csv"
    extra.write_text("nu,a,b,p\n0,1,1,1\n0,1,1,1,7\n", encoding="utf-8")
    code, _, err = run(capsys, ["verify", "I-2.32", "--grid", str(extra)])
    assert code == 4
    assert "line 3" in err and "beyond the header" in err and "line 2" not in err

    blank = tmp_path / "blank.csv"
    blank.write_text("nu,a,b,p\n0,1,1,1\n\n0,1,1,-3\n", encoding="utf-8")
    code, _, err = run(capsys, ["verify", "I-2.32", "--grid", str(blank)])
    assert code == 4
    assert "line 4" in err and "line 3" not in err


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, ["verify", "I-3.22", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][:2] == ["id", "params"]
    assert all(row[8] == "pass" for row in rows[1:])
