"""The identity manifest and its verification drivers.

``list_identities`` returns the full manifest in stable id order; each
entry carries two independent evaluators (closed form / series on one
side, quadrature on the other).  ``verify`` checks one identity at one
parameter point, ``verify_grid`` sweeps a grid into a :class:`Report`,
and ``run_all`` does so for the whole manifest.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

from .. import __version__
from ..specfun import EvalResult
from ._records import (Budgets, Constraint, ConstraintError, IdentityRecord,
                       ParamPoint, ParamSpace, UnknownIdentityError,
                       VerificationResult, compare_sides, point_key,
                       STATUS_FAIL, STATUS_INCONCLUSIVE, STATUS_PASS)
from . import _products, _kelvin, _weber

__all__ = [
    "Budgets",
    "Constraint",
    "ConstraintError",
    "IdentityRecord",
    "ParamPoint",
    "ParamSpace",
    "Report",
    "UnknownIdentityError",
    "VerificationResult",
    "DEFAULT_TOLERANCES",
    "list_identities",
    "get_identity",
    "validate_point",
    "evaluate_sides",
    "verify",
    "verify_grid",
    "run_all",
]

# Verification tolerance by difficulty class.  Conditionally convergent
# oscillatory tails cannot reach 1e-8 in binary64, hence the looser
# oscillatory class.  The hard class keeps I-3.19 and I-3.21 at 1e-4,
# although I-3.19's exact m-th derivative passes its grid at 1e-12.  The
# quadrature engines are not configured per identity: each is asked for a
# share of whichever tolerance the verdict uses (see _verify_point).
DEFAULT_TOLERANCES = {"easy": 1e-8, "oscillatory": 1e-5, "hard": 1e-4}
DEFAULT_ABS_FLOOR = 1e-14

def _id_sort_key(identity: str):
    # "I-2.4" -> (2, 4, ""), "I-K1a" -> (99, 1, "a"): numeric ids first
    body = identity[2:]
    if body.startswith("K"):
        tail = body[1:]
        num = "".join(ch for ch in tail if ch.isdigit())
        suf = "".join(ch for ch in tail if not ch.isdigit())
        return (99, 0, int(num or 0), suf)
    sec, _, eq = body.partition(".")
    return (int(sec), 0, int(eq), "")


_ALL = tuple(sorted(_products.RECORDS + _kelvin.RECORDS + _weber.RECORDS,
                    key=lambda r: _id_sort_key(r.id)))
_BY_ID = {r.id: r for r in _ALL}


def list_identities() -> tuple[IdentityRecord, ...]:
    """The full manifest, in stable id order."""
    return _ALL


def get_identity(identity: str) -> IdentityRecord:
    try:
        return _BY_ID[identity]
    except KeyError:
        raise UnknownIdentityError(
            f"unknown identity id {identity!r}; see list_identities()") from None


def validate_point(record: IdentityRecord, point: ParamPoint) -> dict:
    """``point`` as floats; ConstraintError unless it names exactly the
    record's parameters and satisfies its constraints."""
    pt = {k: float(v) for k, v in dict(point).items()}
    missing = set(record.params) - set(pt)
    extra = set(pt) - set(record.params)
    if missing or extra:
        raise ConstraintError(
            f"{record.id}: point must name exactly {record.params}; "
            f"missing={sorted(missing)}, unexpected={sorted(extra)}")
    violated = record.space.violated(pt)
    if violated is not None:
        raise ConstraintError(f"{record.id}: constraint violated: {violated.text}")
    return pt


def _tolerance(record: IdentityRecord, rel_tol: float | None, abs_floor: float) -> float:
    """The relative tolerance for ``record``; both bounds must be > 0."""
    tol = DEFAULT_TOLERANCES[record.difficulty] if rel_tol is None else rel_tol
    if not (tol > 0.0 and abs_floor > 0.0):
        raise ConstraintError("verify: rel_tol and abs_floor must be > 0")
    return tol


def _verify_point(record: IdentityRecord, point: ParamPoint, rel_tol: float,
                  abs_floor: float, budgets: Budgets) -> VerificationResult:
    """Check ``record`` at one point against the relative tolerance ``rel_tol``.

    Each quadrature side is asked for a thousandth of ``rel_tol``, so its
    error stays well inside the verdict's margin, but for no less than
    50 eps, QUADPACK's smallest relative request: below that an engine
    chases roundoff until ``max_evals`` runs out.
    """
    pt = validate_point(record, point)
    tol = max(1e-3 * rel_tol, 50.0 * sys.float_info.epsilon)
    return compare_sides(record, pt, record.lhs(pt, budgets, tol),
                         record.rhs(pt, budgets, tol), rel_tol, abs_floor)


def evaluate_sides(identity: str, point: ParamPoint,
                   budgets: Budgets = Budgets()) -> tuple[EvalResult, EvalResult]:
    """Evaluate LHS and RHS of one identity at one admissible point, as
    ``verify`` does at the identity's default tolerance."""
    record = get_identity(identity)
    r = _verify_point(record, point, DEFAULT_TOLERANCES[record.difficulty],
                      DEFAULT_ABS_FLOOR, budgets)
    return r.lhs, r.rhs


def verify(identity: str, point: ParamPoint, rel_tol: float | None = None,
           abs_floor: float = DEFAULT_ABS_FLOOR,
           budgets: Budgets = Budgets()) -> VerificationResult:
    """Verify one identity at one point.

    rel_diff = |lhs-rhs| / max(|lhs|, |rhs|, abs_floor); pass needs both
    sides converged and rel_diff <= rel_tol.  Watch-flagged identities
    report converged disagreement as inconclusive with the measured
    lhs/rhs ratio in the note.
    """
    record = get_identity(identity)
    return _verify_point(record, point, _tolerance(record, rel_tol, abs_floor),
                         abs_floor, budgets)


@dataclass
class Report:
    """Aggregated verification results with a lossless dict/JSON form."""

    artifact_version: str
    timestamp: str
    tolerance_policy: dict
    entries: list[VerificationResult]
    wall_time_s: float

    @property
    def summary(self) -> dict:
        counts = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_INCONCLUSIVE: 0}
        for e in self.entries:
            counts[e.status] += 1
        return {"pass": counts[STATUS_PASS], "fail": counts[STATUS_FAIL],
                "inconclusive": counts[STATUS_INCONCLUSIVE],
                "wall_time_s": self.wall_time_s}

    def to_dict(self) -> dict:
        return {
            "artifact_version": self.artifact_version,
            "timestamp": self.timestamp,
            "tolerance_policy": dict(self.tolerance_policy),
            "entries": [
                {
                    "id": e.identity,
                    "params": dict(sorted(e.point.items())),
                    "lhs": e.lhs.value,
                    "rhs": e.rhs.value,
                    "lhs_err": e.lhs.abs_err_est,
                    "rhs_err": e.rhs.abs_err_est,
                    "lhs_nodes": int(e.lhs.terms_or_nodes_used),
                    "rhs_nodes": int(e.rhs.terms_or_nodes_used),
                    "lhs_converged": bool(e.lhs.converged),
                    "rhs_converged": bool(e.rhs.converged),
                    **({"lhs_note": e.lhs.note} if e.lhs.note else {}),
                    **({"rhs_note": e.rhs.note} if e.rhs.note else {}),
                    "abs_diff": e.abs_diff,
                    "rel_diff": e.rel_diff,
                    "status": e.status,
                    **({"note": e.note} if e.note else {}),
                }
                for e in self.entries
            ],
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        entries = []
        for e in d["entries"]:
            entries.append(VerificationResult(
                identity=e["id"], point=dict(e["params"]),
                lhs=EvalResult(e["lhs"], e["lhs_err"], e["lhs_converged"],
                               e["lhs_nodes"], e.get("lhs_note", "")),
                rhs=EvalResult(e["rhs"], e["rhs_err"], e["rhs_converged"],
                               e["rhs_nodes"], e.get("rhs_note", "")),
                abs_diff=e["abs_diff"], rel_diff=e["rel_diff"],
                status=e["status"], note=e.get("note", "")))
        return cls(d["artifact_version"], d["timestamp"],
                   dict(d["tolerance_policy"]), entries,
                   d["summary"]["wall_time_s"])


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _grid_of(record: IdentityRecord, space_override: ParamSpace | None):
    space = space_override if space_override is not None else record.space
    grid = tuple(space.grid())
    if not grid:
        raise ConstraintError(f"{record.id}: empty verification grid")
    return grid


def _verify_points(record: IdentityRecord, points, rel_tol, abs_floor,
                   budgets: Budgets) -> list[VerificationResult]:
    tol = _tolerance(record, rel_tol, abs_floor)
    results = []
    for pt in points:
        try:
            results.append(_verify_point(record, pt, tol, abs_floor, budgets))
        except Exception as exc:  # a point failure must not abort the grid
            bad = EvalResult(float("nan"), float("inf"), False, 0)
            results.append(VerificationResult(record.id, dict(pt), bad, bad,
                                              float("nan"), float("nan"),
                                              STATUS_INCONCLUSIVE,
                                              note=f"point error: {exc}"))
    return results


def _report(entries: list[VerificationResult], policy: dict, t0: float) -> Report:
    entries.sort(key=lambda r: (_id_sort_key(r.identity), point_key(r.point)))
    return Report(__version__, _utc_now(), policy, entries, time.perf_counter() - t0)


def verify_grid(identity: str, space_override: ParamSpace | None = None,
                rel_tol: float | None = None,
                abs_floor: float = DEFAULT_ABS_FLOOR,
                budgets: Budgets = Budgets()) -> Report:
    """Verify one identity over its default (or an overriding) grid, serially."""
    record = get_identity(identity)
    points = _grid_of(record, space_override)
    t0 = time.perf_counter()
    entries = _verify_points(record, points, rel_tol, abs_floor, budgets)
    policy = dict(DEFAULT_TOLERANCES) if rel_tol is None else {record.difficulty: rel_tol}
    return _report(entries, policy, t0)


def run_all(rel_tol: float | None = None,
            abs_floor: float = DEFAULT_ABS_FLOOR,
            budgets: Budgets = Budgets()) -> Report:
    """Verify every identity on its default grid, serially; one aggregated report."""
    t0 = time.perf_counter()
    entries = []
    for record in _ALL:
        entries += _verify_points(record, _grid_of(record, None), rel_tol, abs_floor, budgets)
    policy = dict(DEFAULT_TOLERANCES) if rel_tol is None else {"override": rel_tol}
    return _report(entries, policy, t0)
