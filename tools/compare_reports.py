#!/usr/bin/env python3
"""Compare two ``besselint verify all --json`` reports entry by entry.

Run from the root of the repository, for example:

    besselint verify all --json --out parent.json      # on the parent commit
    besselint verify all --json --out change.json      # on the change
    python3 tools/compare_reports.py parent.json change.json

The structure of the two reports must match: the same entries in the same
order, with equal ids, params, statuses, converged flags, notes and node
counts.  Every mismatch is printed and makes the exit status 1.  Values and
error estimates (``lhs``, ``rhs``, ``lhs_err``, ``rhs_err``) may move; each
move is printed with its relative size |new - old| / max(|old|, |new|), and
a value move also with its size over the larger of that side's two error
estimates (old and new); the summary line names the worst such ratio.
Moves never change the exit status.  Last come the summaries and the node
totals by route of both reports (the routes are read from the manifest in
``src/besselint``).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

STRUCTURE = ("id", "params", "status", "note", "lhs_converged", "rhs_converged",
             "lhs_note", "rhs_note", "lhs_nodes", "rhs_nodes")
NUMBERS = ("lhs", "rhs", "lhs_err", "rhs_err")


def relative_move(old: float, new: float) -> float:
    if old == new:
        return 0.0
    scale = max(abs(old), abs(new))
    return abs(new - old) / scale if scale > 0.0 else float("inf")


def route_nodes(entries: list[dict]) -> Counter:
    """Nodes spent by route over all sides of ``entries``."""
    from besselint import catalog

    totals: Counter = Counter()
    for e in entries:
        record = catalog.get_identity(e["id"])
        totals[record.lhs_route] += e["lhs_nodes"]
        totals[record.rhs_route] += e["rhs_nodes"]
    return totals


def compare(parent: dict, change: dict) -> int:
    """Print the differences of two reports; the number of structural mismatches."""
    old_entries, new_entries = parent["entries"], change["entries"]
    mismatches = 0
    if len(old_entries) != len(new_entries):
        print(f"entry count: {len(old_entries)} -> {len(new_entries)}")
        mismatches += 1
    moves = 0
    worst = (0.0, "")  # largest value move over its error bar, and where
    for i, (old, new) in enumerate(zip(old_entries, new_entries)):
        where = f"#{i} {old.get('id')} {json.dumps(old.get('params'), sort_keys=True)}"
        for key in STRUCTURE:
            if old.get(key) != new.get(key):
                print(f"MISMATCH {where} {key}: {old.get(key)!r} -> {new.get(key)!r}")
                mismatches += 1
        for key in NUMBERS:
            if old[key] != new[key] and not (old[key] != old[key] and new[key] != new[key]):
                line = (f"move {where} {key}: {old[key]!r} -> {new[key]!r} "
                        f"(relative {relative_move(old[key], new[key]):.2e}")
                if key in ("lhs", "rhs"):
                    bar = max(old[f"{key}_err"], new[f"{key}_err"])
                    ratio = abs(new[key] - old[key]) / bar if bar > 0.0 else float("inf")
                    line += f", {ratio:.3g} of its error bar"
                    if ratio > worst[0]:
                        worst = (ratio, f"{where} {key}")
                print(line + ")")
                moves += 1
    print(f"{moves} value or error-estimate moves, {mismatches} structural mismatches; "
          f"worst value move {worst[0]:.3g} of its error bar"
          + (f" ({worst[1]})" if worst[1] else ""))
    for name, report in (("parent", parent), ("change", change)):
        s = report["summary"]
        totals = route_nodes(report["entries"])
        print(f"{name}: {s['pass']} pass / {s['fail']} fail / {s['inconclusive']} inconclusive; "
              "nodes by route: " + ", ".join(f"{r} {n}" for r, n in sorted(totals.items())))
    return mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="report of the parent commit")
    ap.add_argument("change", help="report of the change")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    reports = []
    for path in (args.parent, args.change):
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return 1 if compare(*reports) else 0


if __name__ == "__main__":
    sys.exit(main())
