"""Catalog record types and the verification state machine."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from ..specfun import DomainError, EvalResult

__all__ = [
    "ParamPoint",
    "Budgets",
    "Constraint",
    "ParamSpace",
    "IdentityRecord",
    "VerificationResult",
    "UnknownIdentityError",
    "ConstraintError",
    "point_key",
    "STATUS_PASS",
    "STATUS_FAIL",
    "STATUS_INCONCLUSIVE",
]

# A parameter point is a plain name -> value map covering exactly the free
# parameters of one identity.
ParamPoint = Mapping[str, float]

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_INCONCLUSIVE = "inconclusive"

_M = 1e-6  # strict-inequality margin of the parameter-space constraints


class UnknownIdentityError(KeyError):
    """Requested identity id is not in the manifest."""


class ConstraintError(DomainError):
    """A parameter point violates an identity's admissible region."""


@dataclass(frozen=True)
class Budgets:
    """Evaluation budgets threaded from the CLI into the evaluators."""

    max_terms: int = 10_000
    max_evals: int = 1_000_000


@dataclass(frozen=True)
class Constraint:
    """A named admissibility predicate over parameter points."""

    text: str
    check: Callable[[ParamPoint], bool]


@dataclass(frozen=True)
class ParamSpace:
    """Admissible region plus sampling rules for one identity."""

    constraints: tuple[Constraint, ...]
    default_grid: tuple[dict, ...]
    hard_points: tuple[dict, ...] = ()

    def violated(self, point: ParamPoint) -> Constraint | None:
        for c in self.constraints:
            if not c.check(point):
                return c
        return None

    def grid(self) -> tuple[dict, ...]:
        return self.default_grid + self.hard_points


# Evaluator signature: (point, budgets, tol) -> EvalResult.  ``tol`` is the
# relative accuracy asked of the side's quadrature engine; the catalog
# driver derives it from the verify tolerance, and closed-form and series
# sides ignore it.
Evaluator = Callable[[ParamPoint, Budgets, float], EvalResult]


@dataclass(frozen=True)
class IdentityRecord:
    """One catalog identity with independent left/right evaluators.

    The two sides may share scalar kernels but never a numerical route:
    if one side is an integral the other is a closed form or series.
    ``watch`` marks entries whose printed form is under suspicion; for
    those, converged-but-disagreeing sides are reported inconclusive
    with the measured ratio instead of failing.
    """

    id: str
    statement: str
    family: str
    params: tuple[str, ...]
    space: ParamSpace
    lhs: Evaluator
    rhs: Evaluator
    lhs_route: str
    rhs_route: str
    difficulty: str  # easy | oscillatory | hard
    watch: bool = False


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of checking one identity at one parameter point."""

    identity: str
    point: dict
    lhs: EvalResult
    rhs: EvalResult
    abs_diff: float
    rel_diff: float
    status: str
    note: str = ""


def point_key(point: ParamPoint) -> tuple:
    return tuple((k, float(point[k])) for k in sorted(point))


def compare_sides(record: IdentityRecord, point: dict, lhs: EvalResult,
                  rhs: EvalResult, rel_tol: float, abs_floor: float) -> VerificationResult:
    abs_diff = abs(lhs.value - rhs.value)
    scale = max(abs(lhs.value), abs(rhs.value), abs_floor)
    rel_diff = abs_diff / scale
    note = ""
    if not (math.isfinite(lhs.value) and math.isfinite(rhs.value)):
        status = STATUS_INCONCLUSIVE
        note = "non-finite side value"
    elif not (lhs.converged and rhs.converged):
        status = STATUS_INCONCLUSIVE
        sides = [s for s, r in (("lhs", lhs), ("rhs", rhs)) if not r.converged]
        note = ", ".join(f"{s} did not converge" for s in sides)
        extra = "; ".join(n for n in (lhs.note, rhs.note) if n)
        if extra:
            note += f" ({extra})"
    elif rel_diff <= rel_tol:
        status = STATUS_PASS
    elif record.watch:
        status = STATUS_INCONCLUSIVE
        ratio = lhs.value / rhs.value if rhs.value != 0.0 else math.inf
        note = (f"sides converged but disagree (rel_diff={rel_diff:.3e}); "
                f"measured ratio lhs/rhs = {ratio:.9g}")
    else:
        status = STATUS_FAIL
    return VerificationResult(record.id, dict(point), lhs, rhs,
                              abs_diff, rel_diff, status, note)
