"""Command-line front end.

Subcommands:

* ``besselint list``    -- print the identity manifest;
* ``besselint verify``  -- verify one identity (or ``all``) over a grid;
* ``besselint eval``    -- evaluate a single kernel/series function.

Exit codes: 0 pass, 1 any fail (or inconclusive under ``--strict``),
2 unknown target, 3 bad flags, 4 domain/constraint error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__, series, specfun
from .specfun import DomainError, EvalResult
from . import catalog
from .catalog import Budgets, ConstraintError, ParamSpace, UnknownIdentityError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_BADFLAGS = 3
EXIT_DOMAIN = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on flag errors; the contract reserves 2 for
    # unknown targets, so parse failures map to 3 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BADFLAGS)


# ----------------------------------------------------------------------
# eval registry: name -> (callable, argument names)
# ----------------------------------------------------------------------

def _weber_triple(alpha, b1, b2, b3):
    return series.weber_triple(series.TripleParams(alpha, b1, b2, b3))


def _weber_triple_m(m, alpha, b1, b2, b3):
    return series.weber_triple_m(series.TripleParams(alpha, b1, b2, b3, m))


def _weber_j0jm(alpha, b1, b2, m):
    return series.weber_j0jm_limit(alpha, b1, b2, m)


EVAL_FUNCTIONS = {
    "gamma": (specfun.gamma, ("x",)),
    "log_gamma": (specfun.log_gamma, ("x",)),
    "bessel_j": (specfun.bessel_j, ("nu", "x")),
    "bessel_y": (specfun.bessel_y, ("nu", "x")),
    "bessel_i": (specfun.bessel_i, ("nu", "x")),
    "bessel_i_scaled": (specfun.bessel_i_scaled, ("nu", "x")),
    "bessel_k": (specfun.bessel_k, ("nu", "x")),
    "bessel_k_scaled": (specfun.bessel_k_scaled, ("nu", "x")),
    "kelvin_ber": (specfun.kelvin_ber, ("nu", "x")),
    "kelvin_bei": (specfun.kelvin_bei, ("nu", "x")),
    "hyp0f1": (specfun.hyp0f1, ("c", "z")),
    "hyp0f3": (specfun.hyp0f3, ("b1", "b2", "b3", "z")),
    "hyp2f1": (specfun.hyp2f1, ("a", "b", "c", "z")),
    "laguerre": (lambda n, m, x: specfun.laguerre(int(n), int(m), x), ("n", "m", "x")),
    "gegenbauer": (lambda n, lam, x: specfun.gegenbauer(int(n), lam, x), ("n", "lam", "x")),
    "product_jj_gauss": (series.product_jj_gauss, ("mu", "nu", "a", "b", "x")),
    "product_jj_neumann": (series.product_jj_neumann, ("nu", "a", "b", "x")),
    "hyp0f1_product": (series.hyp0f1_product, ("c", "x", "y")),
    "weber_triple": (_weber_triple, ("alpha", "beta1", "beta2", "beta3")),
    "weber_triple_m": (_weber_triple_m, ("m", "alpha", "beta1", "beta2", "beta3")),
    "weber_j0jm_limit": (_weber_j0jm, ("alpha", "beta1", "beta2", "m")),
}


def _build_parser() -> _Parser:
    ap = _Parser(prog="besselint",
                 description="Verify Bessel-function integral identities numerically.")
    ap.add_argument("--version", action="version", version=f"besselint {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    lp = sub.add_parser("list", help="list the identity manifest")
    lp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    lp.add_argument("--difficulty", choices=("easy", "oscillatory", "hard"))
    lp.add_argument("--out", help="write output to this path instead of stdout")

    vp = sub.add_parser("verify", help="verify one identity id, or 'all'")
    vp.add_argument("target", help="identity id (e.g. I-2.32) or 'all'")
    vp.add_argument("--tol", type=float, default=None,
                    help="relative tolerance (default: per-difficulty policy)")
    vp.add_argument("--abs-floor", type=float, default=catalog.DEFAULT_ABS_FLOOR)
    vp.add_argument("--grid", help="CSV file of parameter points (header = names)")
    vp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    vp.add_argument("--json", action="store_true", help="shorthand for --format json")
    vp.add_argument("--out", help="write the report to this path")
    vp.add_argument("--jobs", type=int, default=1,
                    help="deprecated and ignored: points are verified serially")
    vp.add_argument("--strict", action="store_true",
                    help="treat inconclusive entries as failures")
    vp.add_argument("--max-terms", type=int, default=10_000,
                    help="term budget of each series, 0F1/0F3 inside integrands "
                         "too; the series sides of I-3.8 and I-3.19 take at most "
                         "300, of I-2.30 and I-2.35 at most 500 (default: %(default)s)")

    ep = sub.add_parser("eval", help="evaluate one kernel or series function")
    ep.add_argument("function", help="e.g. bessel_k, hyp0f3, weber_triple")
    ep.add_argument("args", nargs="*", help="ordered numeric arguments")
    return ap


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# list
# ----------------------------------------------------------------------

def _cmd_list(args) -> int:
    records = catalog.list_identities()
    if args.difficulty:
        records = tuple(r for r in records if r.difficulty == args.difficulty)
    if args.format == "json":
        payload = [
            {
                "id": r.id,
                "family": r.family,
                "difficulty": r.difficulty,
                "params": list(r.params),
                "constraints": [c.text for c in r.space.constraints],
                "lhs_route": r.lhs_route,
                "rhs_route": r.rhs_route,
                "watch": r.watch,
                "statement": r.statement,
                "grid_points": len(r.space.grid()),
            }
            for r in records
        ]
        _emit(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["id", "family", "difficulty", "params", "constraints", "statement"])
        for r in records:
            w.writerow([r.id, r.family, r.difficulty, " ".join(r.params),
                        "; ".join(c.text for c in r.space.constraints), r.statement])
        _emit(buf.getvalue(), args.out)
    else:
        lines = []
        for r in records:
            flags = f" [{r.difficulty}]" + (" [watch]" if r.watch else "")
            lines.append(f"{r.id:8s}{flags}  ({r.family}; params: {', '.join(r.params)})")
            lines.append(f"         {r.statement}")
            lines.append(f"         constraints: {'; '.join(c.text for c in r.space.constraints)}")
        lines.append(f"{len(records)} identities")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _load_grid_csv(path: str, record) -> ParamSpace:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = [(reader.line_num, row) for row in reader]  # DictReader skips blank lines
    if not rows:
        raise ConstraintError(f"grid file {path!r} has no data rows")
    points = []
    problems = []
    for i, row in rows:
        try:
            if None in row:  # DictReader files fields beyond the header under None
                raise ValueError(f"{len(row[None])} field(s) beyond the header")
            pt = {k.strip(): float(v) for k, v in row.items()}
            points.append(catalog.validate_point(record, pt))
        except ConstraintError as exc:
            problems.append(f"line {i}: {exc}")
        except (TypeError, ValueError) as exc:
            problems.append(f"line {i}: unparsable row ({exc})")
    if problems:
        raise ConstraintError("grid rejected:\n  " + "\n  ".join(problems))
    return ParamSpace(constraints=record.space.constraints,
                      default_grid=tuple(points))


def _report_text(report: catalog.Report, strict: bool) -> str:
    lines = []
    for e in report.entries:
        params = ", ".join(f"{k}={v:g}" for k, v in sorted(e.point.items()))
        lines.append(f"{e.status.upper():13s} {e.identity:8s} {{{params}}}  "
                     f"lhs={e.lhs.value:.12g} rhs={e.rhs.value:.12g} rel={e.rel_diff:.3e}"
                     + (f"  [{e.note}]" if e.note else ""))
    s = report.summary
    lines.append(f"summary: pass={s['pass']} fail={s['fail']} "
                 f"inconclusive={s['inconclusive']} wall={s['wall_time_s']:.2f}s")
    if s["inconclusive"] and not strict:
        lines.append("warning: inconclusive entries present (not failures; use --strict to fail)")
    return "\n".join(lines) + "\n"


def _report_csv(report: catalog.Report) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["id", "params", "lhs", "rhs", "lhs_err", "rhs_err",
                "abs_diff", "rel_diff", "status", "note"])
    for e in report.entries:
        params = ";".join(f"{k}={v!r}" for k, v in sorted(e.point.items()))
        w.writerow([e.identity, params, repr(e.lhs.value), repr(e.rhs.value),
                    repr(e.lhs.abs_err_est), repr(e.rhs.abs_err_est),
                    repr(e.abs_diff), repr(e.rel_diff), e.status, e.note])
    return buf.getvalue()


def _cmd_verify(args) -> int:
    fmt = "json" if args.json else args.format
    budgets = Budgets(max_terms=args.max_terms)
    if args.tol is not None and args.tol <= 0.0:
        print("besselint: error: --tol must be > 0", file=sys.stderr)
        return EXIT_BADFLAGS
    if not args.abs_floor > 0.0:
        print("besselint: error: --abs-floor must be > 0", file=sys.stderr)
        return EXIT_BADFLAGS
    for flag, value in (("--jobs", args.jobs), ("--max-terms", args.max_terms)):
        if value < 1:
            print(f"besselint: error: {flag} must be >= 1", file=sys.stderr)
            return EXIT_BADFLAGS

    if args.target == "all":
        if args.grid:
            print("besselint: error: --grid cannot be combined with target 'all'",
                  file=sys.stderr)
            return EXIT_BADFLAGS
        report = catalog.run_all(rel_tol=args.tol, abs_floor=args.abs_floor,
                                 budgets=budgets)
    else:
        try:
            record = catalog.get_identity(args.target)
        except UnknownIdentityError as exc:
            print(f"besselint: {exc.args[0]}", file=sys.stderr)
            return EXIT_UNKNOWN
        space = None
        if args.grid:
            try:
                space = _load_grid_csv(args.grid, record)
            except ConstraintError as exc:
                print(f"besselint: {exc}", file=sys.stderr)
                return EXIT_DOMAIN
            except OSError as exc:
                print(f"besselint: cannot read grid file: {exc}", file=sys.stderr)
                return EXIT_BADFLAGS
        report = catalog.verify_grid(record.id, space_override=space,
                                     rel_tol=args.tol, abs_floor=args.abs_floor,
                                     budgets=budgets)

    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n"
    elif fmt == "csv":
        text = _report_csv(report)
    else:
        text = _report_text(report, args.strict)
    _emit(text, args.out)

    s = report.summary
    if s["fail"] > 0 or (args.strict and s["inconclusive"] > 0):
        return EXIT_FAIL
    if s["inconclusive"] > 0:
        print(f"besselint: warning: {s['inconclusive']} inconclusive entr"
              f"{'y' if s['inconclusive'] == 1 else 'ies'} (see notes; "
              "--strict treats these as failures)", file=sys.stderr)
    return EXIT_PASS


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

def _cmd_eval(args) -> int:
    name = args.function
    if name not in EVAL_FUNCTIONS:
        known = ", ".join(sorted(EVAL_FUNCTIONS))
        print(f"besselint: unknown function {name!r}; choose from: {known}",
              file=sys.stderr)
        return EXIT_UNKNOWN
    fn, params = EVAL_FUNCTIONS[name]
    if len(args.args) != len(params):
        print(f"besselint: {name} takes {len(params)} arguments "
              f"({', '.join(params)}), got {len(args.args)}", file=sys.stderr)
        return EXIT_BADFLAGS
    try:
        values = [float(a) for a in args.args]
    except ValueError as exc:
        print(f"besselint: non-numeric argument: {exc}", file=sys.stderr)
        return EXIT_BADFLAGS
    try:
        result = fn(*values)
    except (DomainError, OverflowError) as exc:
        print(f"besselint: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if isinstance(result, EvalResult):
        print(f"{result.value:.15g}")
        print(f"abs_err_est = {result.abs_err_est:.3g}   converged = {result.converged}   "
              f"terms_or_nodes = {result.terms_or_nodes_used}")
        if result.note:
            print(f"note: {result.note}")
    else:
        print(f"{result:.15g}")
    return EXIT_PASS


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_eval(args)
    except ConstraintError as exc:
        print(f"besselint: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
