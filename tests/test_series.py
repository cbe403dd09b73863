import itertools
import math
import random

import numpy as np
import pytest
from scipy import special as sp

from besselint import series as se
from besselint.quad import integrate_semiinf_decaying
from besselint.series import TripleParams
from besselint.specfun import DomainError, bessel_j, hyp0f1

import oracles


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ----------------------------------------------------------------------
# the shared summation loop
# ----------------------------------------------------------------------

def test_sum_series_compensated_and_counted():
    # ten terms of 1e-16 vanish one by one against 1 in plain summation; their
    # sizes (bounds) of 1 keep the sum going until the three zeros
    values = [1.0] + [1e-16] * 10
    r = se._sum_series(itertools.chain(((v, 1.0) for v in values), [(0.0, 0.0)] * 3),
                       100, "demo")
    assert r.value == math.fsum(values) > 1.0 + 2.0 ** -52
    assert r.converged and r.terms_or_nodes_used == 14 and r.note == ""
    assert r.abs_err_est == pytest.approx(4.0 * 2.0 ** -52)


def test_sum_series_stops_after_third_small_size():
    # sizes, not terms, drive the stop: a bound of 0 marks a term negligible
    seen = []

    def terms():
        for k in itertools.count():
            seen.append(k)
            yield 0.5 ** k, (0.0 if k in (1, 2, 4, 5, 6) else 1.0)

    r = se._sum_series(terms(), 100, "demo")
    assert r.converged and r.terms_or_nodes_used == 7 and seen == list(range(7))


def test_sum_series_overflow_is_unconverged():
    # infinite sizes pass the small-size test; the infinite error still flags the sum
    r = se._sum_series(iter([(1.0, 1.0)] + [(math.inf, math.inf)] * 5), 100, "demo")
    assert not r.converged and r.note == "demo: terms overflowed"
    assert r.terms_or_nodes_used == 4 and math.isinf(r.abs_err_est)


_BUDGET_CASES = {
    "product_jj_gauss": (0.0, 0.0, 2.0, 1.0, 5.0),
    "product_jj_neumann": (0.0, 1.0, 2.0, 5.0),
    "hyp0f1_product": (1.5, 2.0, 3.0),
    "weber_triple": (TripleParams(1.0, 1.0, 1.0, 1.0),),
    "weber_triple_m": (TripleParams(1.0, 1.0, 1.0, 1.0, 1),),
}


@pytest.mark.parametrize("who", sorted(_BUDGET_CASES))
def test_series_term_budget(who, monkeypatch):
    # every outer series spends exactly max_terms and says which function ran out
    outer = []
    real = se._sum_series

    def spy(terms, max_terms, name):
        r = real(terms, max_terms, name)
        outer.append(r.terms_or_nodes_used)
        return r

    monkeypatch.setattr(se, "_sum_series", spy)
    r = getattr(se, who)(*_BUDGET_CASES[who], max_terms=3)
    assert not r.converged and who in r.note
    assert outer and set(outer) == {3}


# ----------------------------------------------------------------------
# product_jj_gauss
# ----------------------------------------------------------------------

def test_gauss_product_at_zero():
    r = se.product_jj_gauss(0.0, 0.0, 1.0, 1.0, 0.0)
    assert r.value == 1.0


def test_gauss_product_against_series_oracle():
    want = oracles.bessel_j_series(0.0, 1.0) * oracles.bessel_j_series(0.0, 0.5)
    r = se.product_jj_gauss(0.0, 0.0, 1.0, 0.5, 1.0)
    assert rel(r.value, want) < 1e-12
    want = oracles.bessel_j_series(1.0, 1.4) * oracles.bessel_j_series(0.0, 0.7)
    r = se.product_jj_gauss(1.0, 0.0, 2.0, 1.0, 0.7)
    assert rel(r.value, want) < 1e-12


def test_gauss_product_requires_ordered_args():
    with pytest.raises(DomainError):
        se.product_jj_gauss(0.0, 0.0, 1.0, 2.0, 1.0)


def test_gauss_product_within_error_estimate_against_mpmath():
    # seeded points over the range of the kernels benchmark workload, against
    # mpmath at 40 digits on the exact products a*x and b*x
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20)
    worst = 0.0
    with mpmath.workdps(40):
        for _ in range(300):
            mu, nu, a = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0), rng.uniform(0.5, 2.0)
            b, x = a * rng.uniform(0.2, 1.0), rng.uniform(0.5, 10.0) / a
            r = se.product_jj_gauss(mu, nu, a, b, x)
            want = (mpmath.besselj(mu, mpmath.mpf(a) * x)
                    * mpmath.besselj(nu, mpmath.mpf(b) * x))
            assert r.converged
            worst = max(worst, float(abs(r.value - want)) / r.abs_err_est)
    assert worst <= 1.0


@pytest.mark.parametrize("x", [30.0, 80.0])
def test_gauss_product_without_a_correct_digit_is_unconverged(x):
    # at a x = 90 the sum cancels past longdouble: its estimate, far above
    # a product bounded by 1, exceeds the value it comes with
    r = se.product_jj_gauss(0.3, 1.7, 3.0, 2.9, x)
    assert r.abs_err_est > abs(r.value)
    assert not r.converged and "no correct digit" in r.note


# ----------------------------------------------------------------------
# product_jj_neumann
# ----------------------------------------------------------------------

def test_neumann_product_values():
    want = oracles.bessel_j_series(0.0, 1.0) ** 2
    r = se.product_jj_neumann(0.0, 1.0, 1.0, 1.0)
    assert rel(r.value, want) < 1e-12
    assert abs(want - 0.5855274995136641) < 1e-13

    r = se.product_jj_neumann(0.0, 1.0, 2.0, 0.0)
    assert r.value == 1.0

    # half-integer closed form: J_{1/2}(z) = sqrt(2/(pi z)) sin z
    a, b, x = 1.0, 2.0, 0.9
    want = (math.sqrt(2.0 / (math.pi * a * x)) * math.sin(a * x)
            * math.sqrt(2.0 / (math.pi * b * x)) * math.sin(b * x))
    r = se.product_jj_neumann(0.5, a, b, x)
    assert rel(r.value, want) < 1e-12


def test_neumann_gauss_direct_agree():
    # series routes and the direct kernel product agree across the grid
    for nu in (0.0, 0.5, 1.0, 2.0):
        for a, b in ((0.5, 0.5), (1.0, 0.5), (2.0, 1.0), (2.0, 2.0)):
            for x in (0.1, 1.0, 5.0):
                direct = bessel_j(nu, a * x).value * bessel_j(nu, b * x).value
                neu = se.product_jj_neumann(nu, a, b, x).value
                gau = se.product_jj_gauss(nu, nu, max(a, b), min(a, b), x).value
                scale = max(abs(direct), 1e-12)
                assert abs(neu - direct) / scale < 1e-8
                assert abs(gau - direct) / scale < 1e-8


@pytest.mark.parametrize("nu", [-1.5, -1.2, -3.5])
def test_products_keep_the_sign_of_gamma_at_negative_orders(nu):
    # Gamma(nu+1) < 0 for nu in (-2, -1) and (-4, -3): both series and the
    # I-2.30 check at (a, b, x) = (1, 0.8, 2) against mpmath at 30 digits
    mpmath = pytest.importorskip("mpmath")
    from besselint import catalog
    with mpmath.workdps(30):
        want = float(mpmath.besselj(nu, 2) * mpmath.besselj(nu, mpmath.mpf("1.6")))
        gauss_want = float(mpmath.besselj(nu, 2) * mpmath.besselj(0.5, mpmath.mpf("1.6")))
    neu = se.product_jj_neumann(nu, 1.0, 0.8, 2.0)
    assert neu.converged and rel(neu.value, want) < 1e-12
    assert rel(se.product_jj_gauss(nu, nu, 1.0, 0.8, 2.0).value, want) < 1e-12
    assert rel(se.product_jj_gauss(nu, 0.5, 1.0, 0.8, 2.0).value, gauss_want) < 1e-12
    assert catalog.verify("I-2.30", {"nu": nu, "a": 1, "b": 0.8, "x": 2}).status == "pass"


# ----------------------------------------------------------------------
# hyp0f1_product
# ----------------------------------------------------------------------

def test_hyp0f1_product_x_zero_reduces():
    r = se.hyp0f1_product(1.3, 0.0, 2.0)
    assert rel(r.value, hyp0f1(1.3, 2.0).value) < 1e-14


def test_hyp0f1_product_j0_square():
    want = oracles.bessel_j_series(0.0, 1.0) ** 2
    r = se.hyp0f1_product(1.0, -0.25, -0.25)
    assert rel(r.value, want) < 1e-13


def test_hyp0f1_product_brute_force():
    def f01(c, z, terms=20):
        return sum(z ** k / (math.gamma(c + k) / math.gamma(c)) / math.factorial(k)
                   for k in range(terms))
    want = f01(1.5, 0.3) * f01(1.5, 0.2)
    r = se.hyp0f1_product(1.5, 0.3, 0.2)
    assert rel(r.value, want) < 1e-13


def test_hyp0f1_product_grid():
    for c in (0.7, 1.0, 2.5):
        for x in (-2.0, 0.5, 3.0):
            for y in (-1.0, 0.25, 2.0):
                lhs = se.hyp0f1_product(c, x, y).value
                rhs = hyp0f1(c, x).value * hyp0f1(c, y).value
                assert rel(lhs, rhs) < 1e-9


def test_hyp0f1_product_flags_lost_digits():
    # the inner 0F1(;c+2r;x+y) cancel past their last digit: -5.0e12 +- 2.4e15
    # against a true 7.56, and -0.268 +- 30.2 against a true 1.6e-3
    for c, x, y in ((0.3, -300.0, -300.0), (1.0, -400.0, -1.0)):
        r = se.hyp0f1_product(c, x, y)
        assert not r.converged and "hyp0f1_product" in r.note, (c, x, y)


def test_hyp0f1_product_against_mpmath():
    # the I-2.35 grid and hard point: the estimate must carry the inner 0F1 errors
    mpmath = pytest.importorskip("mpmath")
    points = [(1.0, -0.25, -0.25), (1.5, 0.3, 0.2), (0.7, -2.0, 3.0),
              (2.5, -6.0, -6.0), (0.3, -6.0, 4.0)]
    with mpmath.workdps(40):
        for c, x, y in points:
            r = se.hyp0f1_product(c, x, y)
            want = float(mpmath.hyp0f1(c, x) * mpmath.hyp0f1(c, y))
            assert r.converged
            assert abs(r.value - want) <= r.abs_err_est, (c, x, y)
            assert r.abs_err_est < 1e-10 * abs(want)


def test_hyp0f1_product_within_error_estimate_against_mpmath():
    # seeded points over the range of the kernels benchmark workload, against
    # mpmath at 40 digits
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(21)
    worst = 0.0
    with mpmath.workdps(40):
        for _ in range(300):
            c, x, y = rng.uniform(0.5, 3.0), rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
            r = se.hyp0f1_product(c, x, y)
            want = mpmath.hyp0f1(c, x) * mpmath.hyp0f1(c, y)
            assert r.converged, (c, x, y)
            worst = max(worst, float(abs(r.value - want)) / r.abs_err_est)
    assert worst <= 1.0


# ----------------------------------------------------------------------
# weber_triple family
# ----------------------------------------------------------------------

def test_weber_triple_collapses_to_single_term():
    # beta3 = 0 keeps only n = 0: value is e^{-1/2} I_0(1/2) at unit params
    want = math.exp(-0.5) * oracles.bessel_i_series(0.0, 0.5)
    r = se.weber_triple(TripleParams(1.0, 1.0, 1.0, 0.0))
    assert rel(r.value, want) < 1e-13


def test_weber_triple_all_zero_betas():
    for al in (0.5, 1.0, 2.0):
        r = se.weber_triple(TripleParams(al, 0.0, 0.0, 0.0))
        assert rel(r.value, 1.0 / al) < 1e-14


def test_weber_triple_permutation_symmetry():
    vals = [se.weber_triple(TripleParams(0.7, *perm)).value
            for perm in itertools.permutations((0.5, 1.0, 1.5))]
    spread = (max(vals) - min(vals)) / abs(vals[0])
    assert spread < 1e-12


def test_weber_triple_against_quadrature():
    want = integrate_semiinf_decaying(lambda x: np.exp(-x) * sp.jv(0, np.sqrt(x)) ** 3,
                                      0.0, 1.0, 1e-11).value
    r = se.weber_triple(TripleParams(1.0, 1.0, 1.0, 1.0))
    assert rel(r.value, want) < 1e-9


def test_weber_triple_reduction_to_weber_second_integral():
    # beta3 = 0 reduces to the closed form (1/2p) e^{-(a^2+b^2)/4p} I_0(ab/2p)
    # under the x -> x^2 substitution
    for al, b1, b2 in ((1.0, 1.0, 1.0), (0.5, 0.4, 1.1), (2.0, 1.5, 0.6)):
        r = se.weber_triple(TripleParams(al, b1, b2, 0.0))
        want = math.exp(-(b1 * b1 + b2 * b2) / (4 * al)) * sp.iv(0, b1 * b2 / (2 * al)) / al
        assert rel(r.value, want) < 1e-10


def test_weber_triple_m_zero_matches_weber_triple():
    p0 = TripleParams(1.2, 0.8, 1.1, 0.4, 0)
    assert se.weber_triple_m(p0).value == se.weber_triple(p0).value


def _laplace_j0_jm_jm(al, b1, b2, b3, m):
    # int_0^inf e^(-al x) J_0(b1 sqrt x) J_m(b2 sqrt x) J_m(b3 sqrt x) dx by
    # mpmath at 30 digits, as 2 int_0^T t e^(-al t^2) ... dt with e^(-al T^2) = e^(-80)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        al, b1, b2, b3 = map(mpmath.mpf, (al, b1, b2, b3))
        return float(mpmath.quad(
            lambda t: (2 * t * mpmath.exp(-al * t * t) * mpmath.besselj(0, b1 * t)
                       * mpmath.besselj(m, b2 * t) * mpmath.besselj(m, b3 * t)),
            mpmath.linspace(0, mpmath.sqrt(80 / al), 5)))


@pytest.mark.parametrize("m,al,betas", [
    (1, 1.0, (1e-6, 1.0, 1.0)),
    (1, 1.0, (1.0, 1.0, 1.0)),
    (2, 1.0, (0.5, 1.0, 1.5)),
    # x0 = b1^2/4 alpha at 0, where its powers underflow (b1 = 1e-150), and small
    *((m, 1.0, (b1, 1.0, 1.5)) for m in (1, 2, 3, 4) for b1 in (0.0, 1e-150, 1e-6)),
    # off the catalog grid, at m = 3 and 4
    (3, 0.6, (1.7, 1.3, 0.8)),
    (4, 0.6, (1.7, 1.3, 0.8)),
    (4, 0.5, (2.5, 2.0, 1.8)),
    (3, 0.35, (1.8, 1.2, 0.6)),
    # a point whose bars need the rounding budget of each Leibniz sum
    (4, 1.0, (1.2, 0.2, 1.3)),
])
def test_weber_triple_m_against_quadrature(m, al, betas):
    want = _laplace_j0_jm_jm(al, *betas, m)
    r = se.weber_triple_m(TripleParams(al, *betas, m))
    assert r.converged, r.note
    assert rel(r.value, want) <= 1e-13
    assert abs(r.value - want) <= r.abs_err_est


def test_weber_triple_m_domain():
    with pytest.raises(DomainError):
        se.weber_triple_m(TripleParams(1.0, 1.0, 1.0, 1.0, 5))
    with pytest.raises(DomainError):
        TripleParams(-1.0, 1.0, 1.0, 1.0)


def test_non_integer_m_is_rejected_not_truncated():
    for m in (1.5, 0.2, -1, math.inf, math.nan):
        with pytest.raises(DomainError, match="m must be"):
            TripleParams(1.0, 0.5, 0.6, 0.7, m)
    for m in (2.7, -1.0):
        with pytest.raises(DomainError, match="m must be"):
            se.weber_j0jm_limit(1.0, 0.5, 0.6, m)
    # an integral float is the integer
    assert TripleParams(1.0, 0.5, 0.6, 0.7, 2.0).m == 2
    assert (se.weber_triple_m(TripleParams(1.0, 0.5, 0.6, 0.7, 2.0))
            == se.weber_triple_m(TripleParams(1.0, 0.5, 0.6, 0.7, 2)))
    assert se.weber_j0jm_limit(1.0, 0.5, 0.6, 2.0) == se.weber_j0jm_limit(1.0, 0.5, 0.6, 2)


# ----------------------------------------------------------------------
# weber_j0jm_limit
# ----------------------------------------------------------------------

def test_j0jm_limit_m0_is_weber():
    r = se.weber_j0jm_limit(1.0, 1.0, 1.0, 0)
    want = math.exp(-0.5) * oracles.bessel_i_series(0.0, 0.5)
    assert rel(r.value, want) < 1e-13


def test_j0jm_limit_beta1_zero_closed_form():
    # m = 3, alpha = 2, beta1 = 0: only n = 0 survives with I_0(0) = 1
    b2 = 1.3
    r = se.weber_j0jm_limit(2.0, 0.0, b2, 3)
    want = 0.5 * (b2 / 4.0) ** 3 * math.exp(-b2 * b2 / 8.0)
    assert rel(r.value, want) < 1e-13


def test_j0jm_limit_against_quadrature():
    for (m, al, b1, b2) in ((1, 1.0, 1.0, 1.0), (2, 1.5, 0.7, 1.2), (3, 1.0, 0.8, 1.1)):
        def f(x):
            return (np.exp(-al * x) * sp.jv(0, b1 * np.sqrt(x))
                    * sp.jv(m, b2 * np.sqrt(x)) * x ** (0.5 * m))

        want = integrate_semiinf_decaying(f, 0.0, al, 1e-11).value
        r = se.weber_j0jm_limit(al, b1, b2, m)
        assert rel(r.value, want) < 1e-10


# ----------------------------------------------------------------------
# derivative_m: the exact m-th derivative of e^(-x) S(x)
# ----------------------------------------------------------------------

def test_derivative_m_trivials():
    # at x0 = 0 only n = 0 and i = m survive Leibniz's rule:
    # (2m-1)!/(m-1)! (b2 b3/4 alpha)^m I_m(b2 b3/2 alpha), Weber's second
    # exponential integral once weber_triple_m's prefactor is applied
    for m, al, b2, b3 in ((1, 1.0, 1.0, 1.5), (2, 0.7, 0.4, 1.1), (4, 2.0, 1.5, 0.6)):
        r = se.derivative_m(TripleParams(al, 0.0, b2, b3, m), 300)
        want = (math.perm(2 * m - 1, m) * (b2 * b3 / (4 * al)) ** m
                * oracles.bessel_i_series(m, b2 * b3 / (2 * al)))
        assert r.converged and rel(r.value, want) < 1e-14
        weber = math.exp(-(b2 * b2 + b3 * b3) / (4 * al)) * sp.iv(m, b2 * b3 / (2 * al)) / al
        assert rel(se.weber_triple_m(TripleParams(al, 0.0, b2, b3, m)).value, weber) < 1e-14


def test_derivative_m_error_estimate_bounds():
    # against mpmath's own m-th derivative of e^(-x) S(x), at 30 digits with
    # 60 terms of S: independent of Leibniz's rule and of the prefactor
    mpmath = pytest.importorskip("mpmath")
    al, b1, b2, b3 = 0.6, 1.7, 1.3, 0.8
    with mpmath.workdps(30):
        a_, c2, c3 = mpmath.mpf(al), mpmath.mpf(b2), mpmath.mpf(b3)
        for m in (1, 2, 3, 4):
            def f(x, m=m):
                s = mpmath.sqrt(x / a_)
                return mpmath.exp(-x) * mpmath.fsum(
                    (-1) ** n * (n + m) * mpmath.factorial(2 * m + n - 1) / mpmath.factorial(n)
                    * mpmath.besseli(m + n, c2 * s) * mpmath.besseli(m + n, c3 * s)
                    * mpmath.besseli(m + n, c2 * c3 / (2 * a_)) for n in range(60))

            want = float(mpmath.diff(f, mpmath.mpf(b1) ** 2 / (4 * a_), m))
            r = se.derivative_m(TripleParams(al, b1, b2, b3, m), 300)
            assert r.converged and abs(r.value - want) <= r.abs_err_est, (m, r, want)
            assert rel(r.value, want) < 1e-13


def test_derivative_m_domain():
    for p in (TripleParams(1.0, 1.0, 1.0, 1.0, 0), TripleParams(1.0, 1.0, 1.0, 1.0, 5),
              TripleParams(1.0, 1.0, 0.0, 1.0, 2)):
        with pytest.raises(DomainError):
            se.derivative_m(p, 300)
