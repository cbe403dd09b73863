"""Acceptance gate: every criterion at its stated tolerance and runtime.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import time

from besselint import catalog, series, specfun
from besselint.catalog import ParamSpace
from besselint.series import TripleParams


def _check(criterion: str, ok: bool, elapsed: float, limit: float, detail: str = ""):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] {criterion} ({elapsed:.2f}s / limit {limit:.0f}s)"
          + (f" {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"
    assert elapsed < limit, f"{criterion}: runtime {elapsed:.2f}s over limit {limit}s"


def _verify_points(identity: str, points, rel_tol: float) -> list:
    rec = catalog.get_identity(identity)
    space = ParamSpace(constraints=rec.space.constraints,
                       default_grid=tuple(points))
    rep = catalog.verify_grid(identity, space_override=space, rel_tol=rel_tol)
    return rep.entries


def test_criterion_1_kernel_wronskians():
    t0 = time.perf_counter()
    worst = 0.0
    for nu in (-0.5, 0.0, 0.5, 1.0, 2.5):
        for x in (0.1, 1.0, 5.0, 20.0, 50.0):
            j = specfun.bessel_j(nu, x).value
            y = specfun.bessel_y(nu, x).value
            jp = 0.5 * (specfun.bessel_j(nu - 1, x).value - specfun.bessel_j(nu + 1, x).value)
            yp = 0.5 * (specfun.bessel_y(nu - 1, x).value - specfun.bessel_y(nu + 1, x).value)
            worst = max(worst, abs((j * yp - jp * y) * math.pi * x / 2.0 - 1.0))
            i = specfun.bessel_i(nu, x).value
            k = specfun.bessel_k(nu, x).value
            ip = 0.5 * (specfun.bessel_i(nu - 1, x).value + specfun.bessel_i(nu + 1, x).value)
            kp = -0.5 * (specfun.bessel_k(nu - 1, x).value + specfun.bessel_k(nu + 1, x).value)
            worst = max(worst, abs((i * kp - ip * k) * -x - 1.0))
    elapsed = time.perf_counter() - t0
    _check("criterion 1: J/Y and I/K Wronskian suites at 1e-8",
           worst < 1e-8, elapsed, 1.0, f"worst rel dev {worst:.2e}")


def test_criterion_2_weber_second_integral():
    t0 = time.perf_counter()
    points = [{"nu": nu, "a": a, "b": b, "p": p}
              for nu in (0.0, 0.5, 1.0)
              for a in (0.5, 1.0, 2.0)
              for b in (0.5, 1.0, 2.0)
              for p in (0.5, 1.0, 2.0)]
    entries = _verify_points("I-2.32", points, 1e-8)
    bad = [e for e in entries if e.status != "pass"]
    elapsed = time.perf_counter() - t0
    _check("criterion 2: Weber second exponential integral at 1e-8 (81 points)",
           not bad, elapsed, 10.0,
           f"{len(entries) - len(bad)}/{len(entries)} pass")


def test_criterion_3_triple_product_series():
    t0 = time.perf_counter()
    points = [{"alpha": al, "beta1": b1, "beta2": b2, "beta3": b3}
              for al in (0.5, 1.0, 2.0)
              for b1 in (0.5, 1.0, 1.5)
              for b2 in (0.5, 1.0, 1.5)
              for b3 in (0.5, 1.0, 1.5)]
    entries = _verify_points("I-3.8", points, 1e-7)
    bad = [e for e in entries if e.status != "pass"]
    elapsed = time.perf_counter() - t0
    _check("criterion 3: triple-product series vs quadrature at 1e-7 (81 points)",
           not bad, elapsed, 30.0,
           f"{len(entries) - len(bad)}/{len(entries)} pass")


def test_criterion_4_four_bessel_closed_form():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for a, tol in ((0.3, 1e-6), (0.5, 1e-6), (0.7, 1e-6), (0.9, 1e-4)):
        r = catalog.verify("I-3.22", {"a": a}, rel_tol=tol)
        ok &= r.status == "pass"
        detail.append(f"a={a}: rel={r.rel_diff:.1e}")
    elapsed = time.perf_counter() - t0
    _check("criterion 4: four-kind Bessel integral vs log closed form",
           ok, elapsed, 20.0, "; ".join(detail))


def test_criterion_5_sonine_gegenbauer_inversion():
    t0 = time.perf_counter()
    points = [{"mu": mu, "nu": nu, "t": t}
              for mu in (0.0, 0.5, 1.0)
              for nu in (0.0, 0.5, 1.0)
              for t in (0.5, 1.0, 2.0)]
    entries = _verify_points("I-2.12", points, 1e-5)
    bad = [e for e in entries if e.status != "pass"]
    elapsed = time.perf_counter() - t0
    _check("criterion 5: oscillatory Hankel route vs K-kernel at 1e-5 (27 points)",
           not bad, elapsed, 60.0,
           f"{len(entries) - len(bad)}/{len(entries)} pass")


def test_criterion_6_kelvin_representations():
    t0 = time.perf_counter()
    grid = [(a, w) for a in (0.5, 1.0) for w in (0.3, 1.0, 2.0)]
    failures = []
    for ident in ("I-2.15", "I-2.16", "I-2.17", "I-2.18"):
        pts = [{"a": a, "y": w} for a, w in grid]
        failures += [e for e in _verify_points(ident, pts, 1e-6) if e.status != "pass"]
    for ident, tol in (("I-2.19", 1e-4), ("I-2.20", 1e-4),
                       ("I-2.21", 1e-5), ("I-2.22", 1e-5)):
        pts = [{"a": a, "t": w} for a, w in grid]
        failures += [e for e in _verify_points(ident, pts, tol) if e.status != "pass"]
    elapsed = time.perf_counter() - t0
    _check("criterion 6: eight Kelvin representations (1e-6 direct, 1e-4 inverse pair)",
           not failures, elapsed, 120.0,
           f"{len(failures)} failures" if failures else "48 points pass")


def test_criterion_7_0f3_product_representations():
    t0 = time.perf_counter()
    failures = []
    for ident in ("I-2.4", "I-2.37"):
        rep = catalog.verify_grid(ident, rel_tol=1e-6)
        failures += [e for e in rep.entries if e.status != "pass"]
    elapsed = time.perf_counter() - t0
    _check("criterion 7: 0F3 representations of the J-product at 1e-6",
           not failures, elapsed, 60.0,
           f"{len(failures)} failures" if failures else "default grids pass")


def test_criterion_8_general_m_and_reduction():
    t0 = time.perf_counter()
    points = [{"alpha": al, "beta1": b1, "beta2": b2, "beta3": b3, "m": m}
              for m in (1, 2)
              for al in (0.8, 1.5)
              for (b1, b2, b3) in ((1.0, 1.0, 1.0), (0.5, 1.2, 0.9))]
    entries = _verify_points("I-3.19", points, 1e-4)
    bad = [e for e in entries if e.status != "pass"]

    # m = 0 reduction chain, exact to 1e-9
    chain_ok = True
    for al, b1, b2 in ((1.0, 1.0, 1.0), (0.5, 1.5, 0.7)):
        p0 = TripleParams(al, b1, b2, 0.4, 0)
        v1 = series.weber_triple_m(p0).value
        v2 = series.weber_triple(p0).value
        chain_ok &= v1 == v2
        limit = series.weber_j0jm_limit(al, b1, b2, 0).value
        weber = catalog.evaluate_sides(
            "I-2.32", {"nu": 0.0, "a": b1, "b": b2, "p": al})[1].value
        chain_ok &= abs(limit - 2.0 * weber) <= 1e-9 * abs(limit)
    elapsed = time.perf_counter() - t0
    _check("criterion 8: m in {1,2} at 1e-4 plus exact m=0 reduction chain",
           not bad and chain_ok, elapsed, 60.0,
           f"{len(entries) - len(bad)}/{len(entries)} pass; chain {'ok' if chain_ok else 'broken'}")


def test_criterion_9_series_identity_suite():
    t0 = time.perf_counter()
    failures = []
    for ident in ("I-2.30", "I-2.35"):
        rep = catalog.verify_grid(ident, rel_tol=1e-8)
        failures += [e for e in rep.entries if e.status != "pass"]
    elapsed = time.perf_counter() - t0
    _check("criterion 9: product-series identities at 1e-8",
           not failures, elapsed, 5.0,
           f"{len(failures)} failures" if failures else "grids pass")


def test_criterion_10_verify_all():
    t0 = time.perf_counter()
    rep = catalog.run_all()
    elapsed = time.perf_counter() - t0
    s = rep.summary
    inconclusive_ids = {e.identity for e in rep.entries if e.status == "inconclusive"}
    ratio_noted = all("ratio" in e.note or "converge" in e.note
                      for e in rep.entries if e.status == "inconclusive")
    ok = (s["fail"] == 0
          and inconclusive_ids <= {"I-3.21"}
          and ratio_noted)
    _check("criterion 10: full verify-all run, zero fails, watch-only inconclusives",
           ok, elapsed, 300.0,
           f"pass={s['pass']} fail={s['fail']} inconclusive={s['inconclusive']} "
           f"(ids: {sorted(inconclusive_ids) or 'none'})")
