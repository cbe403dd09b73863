#!/usr/bin/env python3
"""Benchmark of besselint, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``verify-all``,
``quad-grid`` and ``kernels``.  The seed makes the inputs; the package is
imported from ``src/`` of the checkout.  A run measures for ``--seconds``
and prints, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it,
starting with ``#``, describe the inputs and every metric.

``--trace 0`` measures the end-to-end metrics with no tracing installed:
operations per second, and p50 and p90 over operations of latency, all
from each operation's median repeat in the run (for ``verify-all``, of
its points in a serial sweep); set-up time in a fresh interpreter (median
of several); and peak resident memory.  ``workloads.py`` says why.
Times in the traced run are the fastest of its traced passes.
``--trace 1`` alternates traced and untraced passes, and reports the
per-layer metrics of ``layertrace.py``, the tracing overhead and the layer
probes of ``probes.py``; spans of the first traced pass are written to
``.perfbench_tmp/``.

A run whose outputs miss their references prints the mismatches to
standard error, reports ``"correct": false`` and exits 1.  Without
``src/besselint`` it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
SETUP_RUNS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="besselint benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("verify-all", "quad-grid", "kernels"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_seconds(first_call: str) -> float:
    """Median time, in fresh interpreters, to import the package and make one first call."""
    child = ("import time\n"
             "t0 = time.perf_counter()\n"
             "import besselint, besselint.catalog, besselint.cli\n"
             f"{first_call}\n"
             "print(time.perf_counter() - t0)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", child], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, seconds: float) -> tuple[dict, int, list[str]]:
    setup = setup_seconds(wl.first_call_code())
    m = wl.measure(seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = min(len(m["failures"]), m["attempted"])
    for note in m.get("notes", ()):
        print(f"# {note}")
    print(f"# {m['passes']} passes; failed_share {failed / m['attempted']:.6f} "
          f"({failed}/{m['attempted']} operations)")
    metrics = {
        "ops_per_s": metric(m["ops_per_s"], "1/s"),
        "op_p50_ms": metric(m["op_p50_ms"], "ms"),
        "op_p90_ms": metric(m["op_p90_ms"], "ms"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    return metrics, m["attempted"], m["failures"]


def layered(wl, seed: int, seconds: float) -> tuple[dict, int, list[str]]:
    import probes
    import layertrace as trace

    tracers, traced, plain = [], [], []
    t_end = time.perf_counter() + seconds
    while not tracers or time.perf_counter() < t_end:
        tracer = trace.Tracer()
        with tracer:
            traced.append(wl.trace_pass())
        tracers.append(tracer)
        plain.append(wl.trace_pass())
    tracers[0].write(TMP / f"spans-{wl.name}-{seed}.jsonl")

    runs = [trace.layer_metrics(t) for t in tracers]
    metrics = {}
    for name, first in runs[0].items():
        if first["unit"] == "s":
            metrics[name] = metric(min(r[name]["value"] for r in runs), "s")
        else:
            metrics[name] = first
            if any(r[name]["value"] != first["value"] for r in runs[1:]):
                print(f"perfbench: warning: {name} differs between traced passes",
                      file=sys.stderr)
    metrics["cli.report_bytes"] = metric(traced[0].report_bytes, "bytes")
    metrics["trace_overhead_s"] = metric(
        min(p.seconds for p in traced) - min(p.seconds for p in plain), "s")
    metrics.update(probes.probe_metrics(seed))

    shares = trace.layer_shares(tracers[0])
    print(f"# {len(tracers)} traced and {len(plain)} untraced passes; layer shares of "
          "traced self time: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    passes = traced + plain
    return (metrics, sum(p.ops for p in passes),
            [f for p in passes for f in p.failures])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "besselint" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'besselint'}; "
              "run from the root of a besselint checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    TMP.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, TMP)
    print(f"# workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for line in wl.info():
        print(f"# {line}")
    if args.trace:
        metrics, attempted, failures = layered(wl, args.seed, args.seconds)
    else:
        metrics, attempted, failures = end_to_end(wl, args.seconds)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    for f in failures[:20]:
        print(f"perfbench: MISMATCH {f}", file=sys.stderr)
    if failures:
        print(f"perfbench: {len(failures)} operations failed their correctness check",
              file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": min(len(failures), attempted), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
