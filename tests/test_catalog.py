import math
import time

import numpy as np
import pytest

from besselint import catalog
from besselint.catalog import (Budgets, ConstraintError, ParamSpace, Report,
                               UnknownIdentityError)

import oracles


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ----------------------------------------------------------------------
# manifest shape
# ----------------------------------------------------------------------

def test_manifest_contents():
    recs = catalog.list_identities()
    ids = [r.id for r in recs]
    assert len(ids) >= 25
    assert ids == sorted(ids, key=lambda s: ids.index(s))  # stable order
    for required in ("I-2.4", "I-2.12", "I-2.32", "I-3.8", "I-3.22", "I-K1"):
        assert required in ids
    assert len(set(ids)) == len(ids)


def test_hard_subset():
    hard = {r.id for r in catalog.list_identities() if r.difficulty == "hard"}
    assert hard == {"I-3.19", "I-3.21"}


def test_route_independence():
    quad_routes = {"quadrature:finite", "quadrature:decaying", "quadrature:oscillatory"}
    for r in catalog.list_identities():
        # an integral on one side forces a closed form or series on the other
        assert not (r.lhs_route in quad_routes and r.rhs_route in quad_routes)
        assert r.lhs_route != r.rhs_route


def test_grids_are_admissible_and_sized():
    for r in catalog.list_identities():
        assert len(r.space.default_grid) >= 3
        assert len(r.space.hard_points) >= 1
        for pt in r.space.grid():
            assert set(pt) == set(r.params)
            assert r.space.violated(pt) is None, (r.id, pt)


# ----------------------------------------------------------------------
# evaluate_sides
# ----------------------------------------------------------------------

def test_evaluate_sides_i322():
    lhs, rhs = catalog.evaluate_sides("I-3.22", {"a": 0.5})
    want = -math.log(1 - 0.5 ** 4) / (2 * math.pi * 0.25)
    assert abs(want - 0.041086498635541) < 1e-13
    assert rel(rhs.value, want) < 1e-14
    assert rel(lhs.value, want) < 1e-9


def test_evaluate_sides_i232():
    lhs, rhs = catalog.evaluate_sides(
        "I-2.32", {"nu": 0.0, "a": 1.0, "b": 1.0, "p": 1.0})
    want = 0.5 * math.exp(-0.5) * oracles.bessel_i_series(0.0, 0.5)
    assert rel(rhs.value, want) < 1e-13
    assert rel(lhs.value, want) < 1e-10


def test_evaluate_sides_i230_origin():
    lhs, rhs = catalog.evaluate_sides(
        "I-2.30", {"nu": 0.0, "a": 1.0, "b": 1.0, "x": 0.0})
    assert lhs.value == 1.0 and rhs.value == 1.0


def test_unknown_identity():
    with pytest.raises(UnknownIdentityError):
        catalog.evaluate_sides("I-9.99", {"a": 0.5})


def test_constraint_violation_names_predicate():
    with pytest.raises(ConstraintError, match="0 < a < 1"):
        catalog.evaluate_sides("I-3.22", {"a": 1.5})
    with pytest.raises(ConstraintError, match="exactly"):
        catalog.evaluate_sides("I-3.22", {"a": 0.5, "bogus": 1.0})


@pytest.mark.parametrize("identity, point", [
    ("I-2.4", {"mu": -0.5, "nu": 0.0, "a": 1.0, "b": 0.5, "x": 0.0}),
    ("I-2.25", {"nu": -0.25, "a": 2.0, "b": 1.0, "x": 0.0}),
    ("I-2.37", {"nu": -0.25, "a": 1.0, "b": 0.5, "x": 0.0}),
])
def test_origin_with_negative_order_is_inadmissible(identity, point):
    # J_nu(0) is infinite for nu < 0 and the prefactor takes 0 to a negative power
    with pytest.raises(ConstraintError, match="when x = 0"):
        catalog.verify(identity, point)


def test_catalog_modules_do_not_import_scipy():
    # closed forms take every Bessel value from specfun's scalar wrappers and
    # integrands from its node-array entries, never from scipy directly
    import ast
    from pathlib import Path

    for path in sorted(Path(catalog.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in mods), (path.name, mods)


# ----------------------------------------------------------------------
# verify / verify_grid
# ----------------------------------------------------------------------

def test_verify_single_points():
    r = catalog.verify("I-2.32", {"nu": 0.0, "a": 1.0, "b": 1.0, "p": 1.0},
                       rel_tol=1e-8, abs_floor=1e-14)
    assert r.status == "pass"
    r = catalog.verify("I-2.12", {"mu": 0.0, "nu": 0.0, "t": 1.0},
                       rel_tol=1e-6, abs_floor=1e-12)
    assert r.status == "pass"
    assert rel(r.lhs.value, oracles.bessel_k0_integral(1.0)) < 1e-9


def test_kelvin_point_passes_quickly():
    t0 = time.perf_counter()
    r = catalog.verify("I-2.15", {"a": 3.0, "y": 3.0})
    assert r.status == "pass"
    assert time.perf_counter() - t0 < 5.0


def test_k1_left_side_takes_ber_and_bei_from_one_call():
    # one kelvin_vec call per node array gives the I-K1 left side bit for bit
    # as separate ber and bei calls on the same argument
    from besselint.catalog import _kelvin
    from besselint.specfun import kelvin_bei_vec, kelvin_ber_vec

    rec = next(r for r in catalog.list_identities() if r.id == "I-K1")
    budgets, tol = Budgets(), 1e-11
    for point in rec.space.grid():
        p = catalog.validate_point(rec, point)
        nu = p["nu"]
        s3, c3 = math.sin(1.5 * math.pi * nu), math.cos(1.5 * math.pi * nu)
        two_calls = _kelvin._k1_core(
            nu, p, lambda z: c3 * kelvin_bei_vec(2 * nu, z) - s3 * kelvin_ber_vec(2 * nu, z),
            budgets, tol)
        assert rec.lhs(p, budgets, tol) == two_calls, point


def test_verify_grid_default_pass():
    rep = catalog.verify_grid("I-2.32", rel_tol=1e-8)
    assert rep.summary["fail"] == 0 and rep.summary["inconclusive"] == 0
    assert rep.summary["pass"] == len(rep.entries) >= 4


def test_product_series_errors_cover_disagreement():
    # I-2.35 entries as run_all produces them: each side's error bar must
    # cover the observed disagreement
    rep = catalog.verify_grid("I-2.35")
    assert len(rep.entries) == 5
    for e in rep.entries:
        assert abs(e.lhs.value - e.rhs.value) <= e.lhs.abs_err_est + e.rhs.abs_err_est, e.point


def test_error_bars_cover_disagreement_in_run_all():
    # every non-watch entry's error bars must cover |lhs - rhs|, except
    # I-3.19 (its series side differentiates by finite differences)
    watch = {r.id for r in catalog.list_identities() if r.watch}
    over = [(e.identity, e.point) for e in catalog.run_all().entries
            if e.identity not in watch
            and abs(e.lhs.value - e.rhs.value) > e.lhs.abs_err_est + e.rhs.abs_err_est]
    assert {ident for ident, _ in over} <= {"I-3.19"}, over


def _i27_closed_form(mu, nu, s, a, b):
    # the right side of I-2.7 through mpmath at 30 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        mu, nu, s, a, b = map(mpmath.mpf, (mu, nu, s, a, b))
        return float(2 ** -s * b ** nu * a ** (s - nu - 1) * mpmath.gamma((mu + nu - s + 1) / 2)
                     * mpmath.rgamma(nu + 1) * mpmath.rgamma((mu - nu + s + 1) / 2)
                     * mpmath.hyp2f1((nu - mu - s + 1) / 2, (nu + mu - s + 1) / 2, nu + 1,
                                     (b / a) ** 2))


def _i27_points():
    # b/a up to 0.999, where the product's beat at a - b is slowest; a point
    # with x^-s J_mu J_nu ~ x^-0.95 at 0, whose x^-s alone overflows at the
    # head's nodes nearest 0; then seeded draws over mu, nu in [-0.5, 4],
    # s in [0.05, 2.5], b/a < 0.999
    points = [{"mu": 0.0, "nu": 0.0, "s": 0.5, "a": 1.0, "b": q}
              for q in (0.95, 0.97, 0.99, 0.999)]
    points.append({"mu": 1.4, "nu": 0.05, "s": 2.4, "a": 2.0, "b": 1.7})
    rng = np.random.default_rng(2027)
    space = catalog.get_identity("I-2.7").space
    while len(points) < 25:
        mu, nu = rng.uniform(-0.5, 4.0, 2)
        a = rng.uniform(0.3, 3.0)
        p = {"mu": mu, "nu": nu, "s": rng.uniform(0.05, 2.5), "a": a,
             "b": a * rng.uniform(0.05, 0.999)}
        if space.violated(p) is None:
            points.append(p)
    return points


def test_i27_left_side_within_its_estimate_against_mpmath():
    # every point converges, with its error inside its own estimate
    for p in _i27_points():
        lhs, _ = catalog.evaluate_sides("I-2.7", p)
        want = _i27_closed_form(p["mu"], p["nu"], p["s"], p["a"], p["b"])
        assert lhs.converged, (p, lhs.note)
        assert abs(lhs.value - want) <= lhs.abs_err_est, (p, lhs.value, want)


def _ray_kelvin_points():
    # the Sonine-Gegenbauer inversion and the inverse Kelvin sides, whose
    # tails run up a ray at rate t: every grid point copied 6 times with
    # each nonzero parameter scaled by exp(U(-0.7, 0.7)) (redrawn where a
    # constraint fails), then a stress grid of a up to 6 and t from 0.2 to 8
    rng = np.random.default_rng(5)
    points = []
    for ident in ("I-2.11", "I-2.19", "I-2.20", "I-2.21", "I-2.22"):
        space = catalog.get_identity(ident).space
        for base in space.grid():
            for _ in range(6):
                p = None
                while p is None or space.violated(p) is not None:
                    p = {k: v * math.exp(rng.uniform(-0.7, 0.7)) if v else v
                         for k, v in base.items()}
                points.append((ident, p))
        extra = {"mu": 0.5, "nu": 0.5} if ident == "I-2.11" else {}
        for a in (0.3, 2.0, 6.0):
            for t in (0.2, 1.0, 8.0):
                points.append((ident, {**extra, "a": a, "t": t}))
    return points


def test_ray_kelvin_sides_pass_off_grid_within_their_bars():
    # every point passes, and its error bars cover the disagreement
    for ident, p in _ray_kelvin_points():
        r = catalog.verify(ident, p)
        assert r.status == "pass", (ident, p, r.note)
        assert r.abs_diff <= r.lhs.abs_err_est + r.rhs.abs_err_est, (ident, p)


@pytest.mark.parametrize("nu", [-0.81, -0.84, -0.95])
def test_i212_declares_its_endpoint_power(nu):
    # y^(nu+1) J_nu(ty) ~ y^(2nu+1) at 0: unhinted, these points stalled
    r = catalog.verify("I-2.12", {"mu": 1.22, "nu": nu, "t": 0.164})
    assert r.status == "pass", r.note


@pytest.mark.parametrize("nu", [-0.46, -0.48, -0.49, -0.499])
@pytest.mark.parametrize("identity, point", [
    ("I-2.26", {"y": 0.638}),
    ("I-2.37", {"a": 1.0, "b": 0.8, "x": 2.0}),
])
def test_offset_form_with_nu_near_minus_half(identity, point, nu):
    # (1-u^2)^(nu-1/2) with nu - 1/2 near -1: the substitution power is in
    # the hundreds, and its offset form must not underflow to a non-finite value
    r = catalog.verify(identity, {**point, "nu": nu})
    assert r.status == "pass", r.note or r.rhs.note


@pytest.mark.parametrize("nu", [-0.66, -0.75, -0.9])
def test_i224_declares_its_endpoint_power(nu):
    # t^(2nu+1) at 0: unhinted, these points stalled
    r = catalog.verify("I-2.24", {"nu": nu, "alpha": 1.0, "beta": 1.0})
    assert r.status == "pass", r.note or r.lhs.note


def test_integrands_reach_amos_only_off_orders_0_and_1(monkeypatch):
    # integrands take J, Y, I, K of a scalar order 0 or +-1 from the Cephes
    # routines behind specfun's node-array entries; closed forms call AMOS
    import numpy as np
    from scipy import special

    calls = []

    def recorder(name):
        amos = getattr(special, name)

        def record(nu, x):
            calls.append((name, nu, x))
            return amos(nu, x)
        return record

    for name in ("jv", "yv", "iv", "ive", "kv", "kve"):
        monkeypatch.setattr(special, name, recorder(name))
    assert catalog.run_all().summary["fail"] == 0
    routed = [(name, nu) for name, nu, x in calls
              if isinstance(x, np.ndarray) and np.isrealobj(x)
              and np.ndim(nu) == 0 and nu in (0, 1, -1)]
    assert not routed, routed[:5]
    assert any(name == "jv" and np.ndim(x) == 0 for name, _, x in calls)


@pytest.mark.parametrize("identity", ["I-2.6", "I-2.7", "I-2.12"])
def test_tight_tolerance_gives_no_false_fail(identity):
    # the engines are asked for a share of the verify tolerance, so a
    # tolerance near roundoff ends in pass or inconclusive, never in a fail
    # of two sides that agree within what they resolved
    rep = catalog.verify_grid(identity, rel_tol=1e-12)
    assert rep.summary["fail"] == 0, [(e.point, e.rel_diff) for e in rep.entries
                                      if e.status == "fail"]


def test_verify_grid_empty_override():
    with pytest.raises(ConstraintError, match="empty"):
        catalog.verify_grid("I-2.32",
                            space_override=ParamSpace(constraints=(), default_grid=()))


def test_point_error_becomes_inconclusive():
    # an evaluator blow-up must yield an inconclusive entry, not an abort
    space = ParamSpace(constraints=(),
                       default_grid=({"nu": 0.0, "a": 1.0, "b": 1.0, "p": -1.0},
                                     {"nu": 0.0, "a": 1.0, "b": 1.0, "p": 1.0}))
    rep = catalog.verify_grid("I-2.32", space_override=space)
    statuses = sorted(e.status for e in rep.entries)
    assert statuses == ["inconclusive", "pass"]
    bad = [e for e in rep.entries if e.status == "inconclusive"][0]
    assert "point error" in bad.note


def test_grid_rejects_nonpositive_abs_floor():
    with pytest.raises(ConstraintError, match="abs_floor"):
        catalog.verify_grid("I-3.22", abs_floor=0.0)


def test_watch_identity_reports_ratio():
    r = catalog.verify("I-3.21", {"mu": 1.0, "nu": 1.0, "a": 0.5, "beta": 1.0})
    assert r.status == "inconclusive"
    assert "ratio" in r.note
    ratio = float(r.note.rsplit("=", 1)[1])
    assert 1.0 < ratio < 10.0


# node budget per identity; I-2.7 (about 425 nodes at its hard point) and
# I-2.19 (about 260) are given less than they need
_NODE_BUDGETS = {"I-2.25": 2000, "I-2.31": 2000, "I-2.7": 200, "I-2.19": 150}


@pytest.mark.parametrize("identity", list(_NODE_BUDGETS))
def test_node_budget_is_hard_on_every_route(identity):
    # one identity per quadrature engine: finite, decaying and the ray
    # (I-2.7, and I-2.19 of the Kelvin family)
    rec = catalog.get_identity(identity)
    max_evals = _NODE_BUDGETS[identity]
    r = catalog.verify(identity, rec.space.hard_points[0], budgets=Budgets(max_evals=max_evals))
    for side, route in ((r.lhs, rec.lhs_route), (r.rhs, rec.rhs_route)):
        if route.startswith("quadrature"):
            assert side.terms_or_nodes_used <= max_evals, (route, side.terms_or_nodes_used)
    if identity in ("I-2.7", "I-2.19"):
        assert r.status == "inconclusive" and "node budget exhausted" in r.note, r.note


def test_forced_nonconvergence_is_inconclusive():
    # the oscillatory side needs about 245 nodes at this point
    budgets = Budgets(max_evals=100)
    r = catalog.verify("I-2.19", catalog.get_identity("I-2.19").space.default_grid[0],
                       budgets=budgets)
    assert r.status == "inconclusive"
    assert "converge" in r.note and "node budget exhausted" in r.note


# ----------------------------------------------------------------------
# reduction chains and covariance invariants
# ----------------------------------------------------------------------

def test_reduction_chain_triple_to_weber():
    # I-3.8 at beta3 = 0 equals I-2.32 at nu = 0 under x -> x^2
    for al, b1, b2 in ((1.0, 1.0, 1.0), (0.5, 1.5, 0.7)):
        lhs38, rhs38 = catalog.evaluate_sides(
            "I-3.8", {"alpha": al, "beta1": b1, "beta2": b2, "beta3": 0.0})
        lhs232, rhs232 = catalog.evaluate_sides(
            "I-2.32", {"nu": 0.0, "a": b1, "b": b2, "p": al})
        assert rel(rhs38.value, 2.0 * rhs232.value) < 1e-9
        assert rel(lhs38.value, 2.0 * lhs232.value) < 1e-9


def test_reduction_chain_limit_to_weber():
    # I-3.20 at m = 0 equals I-2.32 at nu = 0 under x -> x^2
    for al, b1, b2 in ((1.0, 1.0, 1.0), (2.0, 0.6, 1.2)):
        lhs320, rhs320 = catalog.evaluate_sides(
            "I-3.20", {"alpha": al, "beta1": b1, "beta2": b2, "m": 0})
        _, rhs232 = catalog.evaluate_sides(
            "I-2.32", {"nu": 0.0, "a": b1, "b": b2, "p": al})
        assert rel(rhs320.value, 2.0 * rhs232.value) < 1e-9
        assert rel(lhs320.value, 2.0 * rhs232.value) < 1e-9


def test_weber_scale_covariance():
    # (a, b, p) -> (la, lb, l^2 p) rescales both sides by 1/l^2 and leaves
    # the verification outcome unchanged
    base = {"nu": 1.0, "a": 1.2, "b": 0.7, "p": 0.9}
    lam = 1.7
    scaled = {"nu": 1.0, "a": lam * 1.2, "b": lam * 0.7, "p": lam * lam * 0.9}
    l0, r0 = catalog.evaluate_sides("I-2.32", base)
    l1, r1 = catalog.evaluate_sides("I-2.32", scaled)
    assert rel(l1.value * lam * lam, l0.value) < 1e-9
    assert rel(r1.value * lam * lam, r0.value) < 1e-9
    s0 = catalog.verify("I-2.32", base).status
    s1 = catalog.verify("I-2.32", scaled).status
    assert s0 == s1 == "pass"


# ----------------------------------------------------------------------
# report round-trip
# ----------------------------------------------------------------------

def test_report_roundtrip():
    rep = catalog.verify_grid("I-3.22")
    d = rep.to_dict()
    back = Report.from_dict(d)
    assert back.to_dict() == d
    assert back.entries == rep.entries
    assert d["summary"]["pass"] == len(d["entries"])
    assert d["artifact_version"]
    assert "T" in d["timestamp"]
