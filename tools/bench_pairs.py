#!/usr/bin/env python3
"""Paired benchmark of the working tree against a parent commit.

Run from the root of the repository, for example:

    python3 tools/bench_pairs.py --parent HEAD~1 --pr 7 --extra-seed 43 \\
        --claim kernels:ops_per_s --change "one line saying what changed"

The parent commit is exported with ``git archive`` into a temporary
directory (the repository itself is left as it is).  Each pair runs
``perfbench/run.py --trace 0`` for ``run_seconds`` of ``BENCHMARK.json``
once on the parent and once on the working tree, back to back, the parent
first in even pairs and the working tree first in odd pairs; within a pair
the workloads alternate.  There are 10 pairs at seed 11 and 2 at
``--extra-seed``, a seed not used while developing the change.  Two more
pairs of ``--trace 1`` runs of ``kernels`` record the layer probes and,
once per side, the count metrics (calls, points, terms, nodes).

The result, ``BENCH_<pr>.json``, holds for every workload and seed the
runs, medians, quartiles, wins and bound checks of the end-to-end metrics
declared in ``BENCHMARK.json``, and the passes each run made; the claim,
if one is named; the probes; the counts; and the net line change of
``src/besselint`` and ``tests``.  A claim is
met when the change wins at least 9 of the 10 pairs at seed 11, its median
beats the parent's by more than the parent's interquartile range, and its
failed share is no larger than the parent's.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SEED = 11
PAIRS = 10
EXTRA_PAIRS = 2
PROBE_PAIRS = 2
MIN_WINS = 9


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit to compare the working tree with")
    ap.add_argument("--pr", required=True, help="suffix of the output file BENCH_<pr>.json")
    ap.add_argument("--extra-seed", type=int, required=True,
                    help=f"a second seed, one not used while developing (not {SEED})")
    ap.add_argument("--change", default="", help="one-line description of the change")
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims to improve")
    args = ap.parse_args(argv)
    if args.extra_seed == SEED:
        ap.error(f"--extra-seed must differ from {SEED}")
    return args


def export_commit(commit: str, dest: Path) -> str:
    """Write the files of ``commit`` into ``dest``; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", commit], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return sha


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its result line plus the failed share and the passes.

    ``passes`` is the N of the ``# N passes; ...`` line of an untraced run,
    None for a traced run, which prints its passes in another form.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines and proc.returncode in (0, 1) else ""
    if not last.startswith("{"):
        # no result line: an exception escaped the run (its traceback is on stderr)
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode} "
                           f"with no result line:\n{proc.stderr[-2000:]}")
    res = json.loads(last)
    res["failed_share"] = res["failed"] / max(res["attempted"], 1)
    passes = re.search(r"^# (\d+) passes;", proc.stdout, re.M)
    res["passes"] = int(passes[1]) if passes else None
    return res


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles, wins and the bound check of one end-to-end metric."""
    higher = spec["better"] == "higher"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    rel = (cm - pm) / pm
    return {
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": {"median": round(pm, 4), "q1": round(p1, 4), "q3": round(p3, 4)},
        "change": {"median": round(cm, 4), "q1": round(c1, 4), "q3": round(c3, 4)},
        "parent_runs": [round(x, 4) for x in parent],
        "change_runs": [round(x, 4) for x in change],
        "change_wins": sum((c > p) if higher else (c < p) for p, c in zip(parent, change)),
        "median_change_rel": round(rel, 4),
        "worse_than_bound": (-rel if higher else rel) > spec["bound"],
        "parent_iqr": round(p3 - p1, 4),
    }


def run_pairs(trees: dict, workloads: list[str], seed: int, pairs: int, seconds: float,
              trace: int) -> dict:
    """workload -> side -> list of result lines, over alternating pairs."""
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                res = run_bench(trees[side], w, seed, seconds, trace)
                runs[w][side].append(res)
                print(f"pair {i} seed {seed} {w} {side}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()
                    if not k.startswith(("specfun.", "quad.", "series.", "catalog.", "cli."))),
                    file=sys.stderr, flush=True)
    return runs


def end_to_end_block(runs: dict, specs: list[dict], pairs: int) -> dict:
    out = {"pairs": pairs,
           "failed_share": {side: max(r["failed_share"] for r in runs[side])
                            for side in ("parent", "change")},
           "metrics": {}}
    for spec in specs:
        vals = {side: [r["metrics"][spec["name"]]["value"] for r in runs[side]]
                for side in ("parent", "change")}
        out["metrics"][spec["name"]] = summarize(spec, vals["parent"], vals["change"])
    # peak_rss_mb grows with the passes a run makes (the benchmark keeps each
    # pass's latencies), so a faster side reads as using more memory
    out["passes"] = {side: [r["passes"] for r in runs[side]] for side in ("parent", "change")}
    return out


def net_lines(parent_sha: str) -> dict:
    out = {}
    for path in ("src/besselint", "tests"):
        stat = subprocess.run(["git", "diff", "--numstat", parent_sha, "--", path], cwd=ROOT,
                              check=True, capture_output=True, text=True).stdout
        added = removed = 0
        for line in stat.splitlines():
            a, r, _ = line.split("\t", 2)
            added += int(a)
            removed += int(r)
        out[path] = {"added": added, "removed": removed, "net": added - removed}
    return out


def claim_block(all_runs: dict, claim: str, extra_seed: int) -> dict:
    w, name = claim.split(":")
    main_runs = all_runs[f"{w}@seed{SEED}"]
    m = main_runs["metrics"][name]
    gain = abs(m["change"]["median"] - m["parent"]["median"])
    improved = (m["median_change_rel"] > 0) == (m["better"] == "higher")
    extra = all_runs[f"{w}@seed{extra_seed}"]["metrics"][name]
    failed = main_runs["failed_share"]
    return {
        "metric": name, "workload": w,
        f"seed{SEED}": {
            "parent_median": m["parent"]["median"],
            "parent_iqr": m["parent_iqr"],
            "change_median": m["change"]["median"],
            "change_wins": f"{m['change_wins']}/{PAIRS}",
            "median_gain_over_parent_iqr": (round(gain / m["parent_iqr"], 1)
                                            if m["parent_iqr"] else None)},
        f"seed{extra_seed}": {
            "parent_runs": extra["parent_runs"], "change_runs": extra["change_runs"],
            "change_wins": f"{extra['change_wins']}/{EXTRA_PAIRS}"},
        "met": (improved and m["change_wins"] >= MIN_WINS and gain > m["parent_iqr"]
                and failed["change"] <= failed["parent"]),
    }


def probe_block(side_runs: dict) -> dict:
    probes = {}
    for name in side_runs["parent"][0]["metrics"]:
        if name.startswith("probe."):
            vals = {side: [r["metrics"][name]["value"] for r in side_runs[side]]
                    for side in ("parent", "change")}
            probes[name] = {
                "parent_runs": [round(x, 2) for x in vals["parent"]],
                "change_runs": [round(x, 2) for x in vals["change"]],
                "parent_median": round(statistics.median(vals["parent"]), 2),
                "change_median": round(statistics.median(vals["change"]), 2)}
    return probes


def count_block(side_runs: dict) -> dict:
    """The count metrics of traced runs, once per side.

    A count repeats exactly for a seed, so one value stands for every run of
    a side; a count that differs between the runs of one side is kept as the
    list of its values instead.
    """
    counts = {}
    for name, metric in side_runs["parent"][0]["metrics"].items():
        if metric["unit"] != "count":
            continue
        counts[name] = {}
        for side in ("parent", "change"):
            vals = [r["metrics"][name]["value"] for r in side_runs[side]]
            counts[name][side] = vals[0] if len(set(vals)) == 1 else vals
    return counts


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    import numpy
    import scipy

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        parent_sha = export_commit(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        result = {
            "change": args.change,
            "parent": parent_sha,
            "machine": (f"{os.cpu_count()} CPUs, {platform.platform()}, "
                        f"Python {platform.python_version()}, numpy {numpy.__version__}, "
                        f"scipy {scipy.__version__}"),
            "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                        "--trace 0, from the root of each side (the parent exported by "
                        "git archive, the change in the working tree)"),
            "protocol": (f"{PAIRS} pairs per workload at seed {SEED}, then {EXTRA_PAIRS} at "
                         f"seed {args.extra_seed}; within a pair parent and change run back "
                         "to back, parent first in even pairs and change first in odd pairs; "
                         "workloads interleaved within each pair"),
        }
        all_runs = {}
        for seed, pairs in ((SEED, PAIRS), (args.extra_seed, EXTRA_PAIRS)):
            runs = run_pairs(trees, workloads, seed, pairs, seconds, 0)
            for w in workloads:
                all_runs[f"{w}@seed{seed}"] = end_to_end_block(runs[w], specs, pairs)
        if args.claim:
            result["claim"] = claim_block(all_runs, args.claim, args.extra_seed)
        result["end_to_end"] = all_runs

        runs = run_pairs(trees, ["kernels"], SEED, PROBE_PAIRS, seconds, 1)
        result["probes"] = {
            "how": (f"perfbench/run.py --workload kernels --trace 1 --seed {SEED}, "
                    f"{PROBE_PAIRS} alternating pairs; lower is better"),
            "metrics": probe_block(runs["kernels"]),
        }
        result["counts"] = {
            "how": (f"count metrics of the same {PROBE_PAIRS} traced kernels pairs, "
                    "once per side (they repeat exactly for a seed)"),
            "metrics": count_block(runs["kernels"]),
        }
    result["net_lines"] = net_lines(parent_sha)

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
