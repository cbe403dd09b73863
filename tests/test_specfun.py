import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselint import specfun as sf
from besselint.specfun import DomainError

import oracles


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ----------------------------------------------------------------------
# gamma
# ----------------------------------------------------------------------

def test_gamma_values():
    assert sf.gamma(1.0) == 1.0
    assert rel(sf.gamma(0.5), math.sqrt(math.pi)) < 1e-14
    assert sf.gamma(5.0) == 24.0


def test_gamma_poles_and_overflow():
    for x in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(DomainError):
            sf.gamma(x)
    with pytest.raises(OverflowError):
        sf.gamma(500.0)
    assert rel(sf.log_gamma(500.0), math.lgamma(500.0)) < 1e-15


@given(st.floats(min_value=0.1, max_value=50.0))
def test_gamma_recurrence(x):
    assert rel(sf.gamma(x + 1.0), x * sf.gamma(x)) < 5e-14


# ----------------------------------------------------------------------
# Bessel J
# ----------------------------------------------------------------------

def test_bessel_j_trivial():
    assert sf.bessel_j(0, 0.0).value == 1.0
    # half-integer closed form J_{1/2}(x) = sqrt(2/(pi x)) sin x at x = pi/2
    assert rel(sf.bessel_j(0.5, math.pi / 2).value, 2.0 / math.pi) < 1e-13


def test_bessel_j_first_zero_from_series_oracle():
    x0 = oracles.bisect_zero(lambda x: oracles.bessel_j_series(0.0, x), 2.0, 3.0)
    assert abs(x0 - 2.404825557695773) < 1e-12
    assert abs(sf.bessel_j(0.0, x0).value) < 1e-10


@pytest.mark.parametrize("nu", [-0.75, 0.0, 0.4, 1.0, 2.5])
@pytest.mark.parametrize("x", [0.3, 1.0, 4.0, 9.0])
def test_bessel_j_matches_series_oracle(nu, x):
    assert rel(sf.bessel_j(nu, x).value, oracles.bessel_j_series(nu, x)) < 1e-11


def test_bessel_j_domain():
    with pytest.raises(DomainError):
        sf.bessel_j(0.0, -1.0)
    with pytest.raises(DomainError):
        sf.bessel_j(-0.5, 0.0)


def test_bessel_j_integer_reflection():
    # J_{-n}(x) = (-1)^n J_n(x)
    for n in (1, 2, 3):
        for x in (0.5, 1.0, 5.0, 20.0):
            lhs = sf.bessel_j(-n, x).value
            rhs = (-1.0) ** n * sf.bessel_j(n, x).value
            assert rel(lhs, rhs) < 1e-12


# ----------------------------------------------------------------------
# Bessel Y
# ----------------------------------------------------------------------

def test_bessel_y_half_integer():
    # Y_{1/2}(x) = -sqrt(2/(pi x)) cos x
    assert abs(sf.bessel_y(0.5, math.pi / 2).value) < 1e-12
    assert rel(sf.bessel_y(0.5, math.pi).value, math.sqrt(2.0) / math.pi) < 1e-13


def test_bessel_y0_series_oracle():
    want = oracles.y0_series(1.0)
    assert abs(want - 0.088256964215677) < 1e-13
    assert rel(sf.bessel_y(0.0, 1.0).value, want) < 1e-12


def test_bessel_y_domain():
    with pytest.raises(DomainError):
        sf.bessel_y(0.0, 0.0)
    with pytest.raises(DomainError):
        sf.bessel_y(0.0, -2.0)


# ----------------------------------------------------------------------
# Bessel I and K
# ----------------------------------------------------------------------

def test_bessel_i_values():
    assert sf.bessel_i(0, 0.0).value == 1.0
    want = math.sqrt(2.0 / math.pi) * math.sinh(1.0)  # I_{1/2}(1)
    assert rel(sf.bessel_i(0.5, 1.0).value, want) < 1e-13
    # 30-term brute force of sum (x^2/4)^k / (k!)^2 at x = 0.5
    brute = sum((0.25 * 0.25) ** k / math.factorial(k) ** 2 for k in range(30))
    assert rel(sf.bessel_i(0.0, 0.5).value, brute) < 1e-14
    assert abs(brute - 1.063483370741324) < 1e-14


def test_bessel_i_scaled_and_overflow():
    with pytest.raises(OverflowError):
        sf.bessel_i(0.0, 800.0)
    r = sf.bessel_i_scaled(0.0, 800.0)
    assert r.converged and 0.0 < r.value < 1.0


def test_bessel_k_values():
    want = math.sqrt(math.pi / 2.0) * math.exp(-1.0)  # K_{1/2}(1)
    assert rel(sf.bessel_k(0.5, 1.0).value, want) < 1e-13
    k0 = oracles.bessel_k0_integral(1.0)
    assert abs(k0 - 0.421024438240708) < 1e-10
    assert rel(sf.bessel_k(0.0, 1.0).value, k0) < 1e-9
    # recurrence K_{nu+1}(x) = K_{nu-1}(x) + (2 nu/x) K_nu(x)
    lhs = sf.bessel_k(2.0, 3.0).value
    rhs = sf.bessel_k(0.0, 3.0).value + (2.0 / 3.0) * sf.bessel_k(1.0, 3.0).value
    assert rel(lhs, rhs) < 1e-10


def test_bessel_k_domain():
    with pytest.raises(DomainError):
        sf.bessel_k(0.0, 0.0)


def test_bessel_ik_within_error_estimate_against_mpmath():
    # AMOS ive is off by up to 223 eps relative at order 0.3, kv and kve by
    # up to 157 eps; each wrapper's abs_err_est must cover its error
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        for nu in (0, 0.3, 1, 1.5, 2.7, 5.25):
            for x in np.linspace(0.05, 60.0, 40):
                mx = mpmath.mpf(float(x))
                i, k, e = mpmath.besseli(nu, mx), mpmath.besselk(nu, mx), mpmath.exp(mx)
                for fn, want in ((sf.bessel_i, i), (sf.bessel_i_scaled, i / e),
                                 (sf.bessel_k, k), (sf.bessel_k_scaled, k * e)):
                    r = fn(nu, x)
                    assert abs(r.value - float(want)) <= r.abs_err_est, (fn.__name__, nu, x)


# ----------------------------------------------------------------------
# Node-array entries: Cephes at orders 0, +-1, AMOS elsewhere
# ----------------------------------------------------------------------

# x = 0, the first zeros of Y_0, J_0 and J_1, then points up to 1000
_VEC_X = np.concatenate((
    [0.0, 0.8935769662791675, 2.404825557695773, 3.8317059702075125],
    np.geomspace(0.01, 60.0, 12), np.geomspace(61.0, 1000.0, 6)))
_EPS = 2.0 ** -52


@pytest.mark.parametrize("nu", [0, 1, -1])
def test_bessel_vec_cephes_orders_against_mpmath(nu):
    # the order as an int, a float and an np.float64; J and Y within
    # 16 eps*M on (0, 60] and 160 eps*M on (60, 1000], M = sqrt(J^2 + Y^2),
    # I and the scaled I and K within 8 eps relative
    mpmath = pytest.importorskip("mpmath")
    x = _VEC_X[1:]
    with mpmath.workdps(30):
        mx = [mpmath.mpf(float(v)) for v in x]
        jw = np.array([float(mpmath.besselj(nu, v)) for v in mx])
        yw = np.array([float(mpmath.bessely(nu, v)) for v in mx])
        iew = np.array([float(mpmath.besseli(nu, v) * mpmath.exp(-v)) for v in mx])
        kew = np.array([float(mpmath.besselk(nu, v) * mpmath.exp(v)) for v in mx])
    jy_bound = np.where(x <= 60.0, 16.0, 160.0) * _EPS * np.hypot(jw, yw)
    small = x < 700.0  # I_0 and I_1 overflow near x = 713
    iw = iew[small] * np.exp(x[small])
    for order in (nu, float(nu), np.float64(nu)):
        assert np.all(np.abs(sf.bessel_j_vec(order, x) - jw) <= jy_bound)
        assert np.all(np.abs(sf.bessel_y_vec(order, x) - yw) <= jy_bound)
        assert np.all(np.abs(sf.bessel_i_scaled_vec(order, x) - iew) <= 8 * _EPS * iew)
        assert np.all(np.abs(sf.bessel_k_scaled_vec(order, x) - kew) <= 8 * _EPS * kew)
        assert np.all(np.abs(sf.bessel_i_vec(order, x[small]) - iw) <= 8 * _EPS * np.abs(iw))


@pytest.mark.parametrize("entry, amos", [
    (sf.bessel_j_vec, "jv"), (sf.bessel_y_vec, "yv"), (sf.bessel_i_vec, "iv"),
    (sf.bessel_i_scaled_vec, "ive"), (sf.bessel_k_scaled_vec, "kve")])
def test_bessel_vec_parity_with_amos(entry, amos):
    from scipy import special

    amos = getattr(special, amos)
    x = np.concatenate((-_VEC_X[::-1], _VEC_X[1:], [np.nan]))
    for order in (0, 1, -1, 0.0, 1.0, -1.0, np.float64(0.0), np.float64(1.0), np.float64(-1.0)):
        got, want = entry(order, x), amos(order, x)
        # non-finite exactly where AMOS is: Y and K at x = 0, NaN for Y and
        # K at x < 0, NaN input
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        bad = ~np.isfinite(want)
        assert np.array_equal(got[bad], want[bad], equal_nan=True)
        # AMOS's sign, at x < 0 too (J and I), away from the zeros
        away = np.isfinite(want) & (np.abs(want) > 1e-12)
        assert np.array_equal(np.sign(got[away]), np.sign(want[away]))
    # a non-integer order and an array order are AMOS itself
    assert np.array_equal(entry(0.3, x), amos(0.3, x), equal_nan=True)
    orders = np.array([0.0, 1.0, -1.0])[:, None]
    assert np.array_equal(entry(orders, x), amos(orders, x), equal_nan=True)


def test_complex_scaled_entries_against_mpmath():
    # H1_nu(z) exp(-iz) and J_nu(z) exp(-|Im z|) up the rays x0 + iy that the
    # catalog's tails climb, against mpmath at 20 digits (H1 through K_nu(-iz),
    # which does not cancel); measured worst 118 and 200 eps relative
    mpmath = pytest.importorskip("mpmath")
    y = np.concatenate(([0.0], np.geomspace(1e-3, 300.0, 6)))
    for nu in (0.0, -1.0, 0.3, -0.45, 2.7):
        for x0 in (0.2, math.pi, 10.0):
            z = x0 + 1j * y
            with mpmath.workdps(20):
                mz = [mpmath.mpc(x0, v) for v in y]
                hw = np.array([complex(2 / (mpmath.pi * 1j) * mpmath.exp(-0.5j * mpmath.pi * nu)
                                       * mpmath.besselk(nu, -1j * w) * mpmath.exp(-1j * w))
                               for w in mz])
                jw = np.array([complex(mpmath.besselj(nu, w) * mpmath.exp(-w.imag)) for w in mz])
            for got, want in ((sf.bessel_h1_scaled_vec(nu, z), hw),
                              (sf.bessel_j_scaled_vec(nu, z), jw)):
                assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (nu, x0)


# ----------------------------------------------------------------------
# Wronskians (derivatives by recurrence, not finite differences)
# ----------------------------------------------------------------------

def _jy_wronskian(nu, x):
    j = sf.bessel_j(nu, x).value
    y = sf.bessel_y(nu, x).value
    jp = 0.5 * (sf.bessel_j(nu - 1, x).value - sf.bessel_j(nu + 1, x).value)
    yp = 0.5 * (sf.bessel_y(nu - 1, x).value - sf.bessel_y(nu + 1, x).value)
    return j * yp - jp * y


def _ik_wronskian(nu, x):
    i = sf.bessel_i(nu, x).value if x < 600 else None
    k = sf.bessel_k(nu, x).value
    ip = 0.5 * (sf.bessel_i(nu - 1, x).value + sf.bessel_i(nu + 1, x).value)
    kp = -0.5 * (sf.bessel_k(nu - 1, x).value + sf.bessel_k(nu + 1, x).value)
    return i * kp - ip * k


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0, 50.0])
def test_wronskians(nu, x):
    assert rel(_jy_wronskian(nu, x), 2.0 / (math.pi * x)) < 1e-8
    assert rel(_ik_wronskian(nu, x), -1.0 / x) < 1e-8


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(min_value=-2.0, max_value=5.0),
       x=st.floats(min_value=0.05, max_value=40.0))
def test_jy_wronskian_property(nu, x):
    assert rel(_jy_wronskian(nu, x), 2.0 / (math.pi * x)) < 1e-8


# ----------------------------------------------------------------------
# Kelvin functions
# ----------------------------------------------------------------------

def test_kelvin_at_zero():
    assert sf.kelvin_ber(0.0, 0.0).value == 1.0
    assert sf.kelvin_bei(0.0, 0.0).value == 0.0
    assert sf.kelvin_ber(1.5, 0.0).value == 0.0


def test_kelvin_0f3_bridge_unit():
    ber = sf.kelvin_ber(0.0, 1.0)
    bei = sf.kelvin_bei(0.0, 1.0)
    f1 = sf.hyp0f3(0.5, 0.5, 1.0, -1.0 / 256.0)
    f2 = sf.hyp0f3(1.5, 1.5, 1.0, -1.0 / 256.0)
    assert rel(ber.value, f1.value) < 1e-13
    assert rel(bei.value, 0.25 * f2.value) < 1e-13


@pytest.mark.parametrize("x", [0.25, 1.0, 2.5, 5.0, 7.5, 10.0])
def test_kelvin_0f3_bridge_grid(x):
    # ber(x) = 0F3(1/2,1/2,1; -x^4/256), bei(x) = (x^2/4) 0F3(3/2,3/2,1; -x^4/256)
    z = -x ** 4 / 256.0
    assert rel(sf.kelvin_ber(0.0, x).value, sf.hyp0f3(0.5, 0.5, 1.0, z).value) < 1e-8
    assert rel(sf.kelvin_bei(0.0, x).value,
               0.25 * x * x * sf.hyp0f3(1.5, 1.5, 1.0, z).value) < 1e-8


def test_kelvin_general_order_against_j_series():
    # ber_nu + i bei_nu = J_nu(x e^{3 pi i/4}), checked against the complex
    # power series evaluated with Python complex arithmetic.
    for nu in (-1.0, 0.3, 1.0, 2.5):
        for x in (0.6, 2.0, 6.0):
            z = x * complex(math.cos(0.75 * math.pi), math.sin(0.75 * math.pi))
            total = 0.0 + 0.0j
            for k in range(80):
                g = nu + k + 1
                if g <= 0 and g == math.floor(g):
                    continue  # 1/Gamma vanishes at the pole
                total += (-1.0) ** k * (0.5 * z) ** (nu + 2 * k) \
                    / (math.factorial(k) * math.gamma(g))
            assert rel(sf.kelvin_ber(nu, x).value, total.real) < 1e-10
            assert rel(sf.kelvin_bei(nu, x).value, total.imag) < 1e-10


def test_kelvin_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for nu in (-2.5, -2.0, -1.0, -0.5, 0.0, 0.5, 2.0 / 3.0, 1.0, 2.0, 4.0, 6.0):
            for x in np.geomspace(0.05, 120.0, 24):
                ber, bei = mpmath.ber(nu, x), mpmath.bei(nu, x)
                modulus = float(mpmath.sqrt(ber ** 2 + bei ** 2))
                for r, want in ((sf.kelvin_ber(nu, x), ber), (sf.kelvin_bei(nu, x), bei)):
                    err = float(abs(r.value - want))
                    assert r.converged
                    assert err <= r.abs_err_est
                    assert err <= 1e-13 * modulus


def test_kelvin_large_orders_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for nu in (-90.75, -40.5, -10.25, 20.0, 100.0, 300.0):
            for x in np.geomspace(0.05, 120.0, 12):
                ber, bei = mpmath.ber(nu, x), mpmath.bei(nu, x)
                for r, want in ((sf.kelvin_ber(nu, x), ber), (sf.kelvin_bei(nu, x), bei)):
                    assert r.converged
                    assert float(abs(r.value - want)) <= r.abs_err_est


def test_kelvin_vec_large_x_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    x = np.array([100.0, 200.0, 400.0])
    got = sf.kelvin_ber_vec(0.0, x)
    with mpmath.workdps(40):
        want = [float(mpmath.ber(0, v)) for v in x]
    for g, w in zip(got, want):
        assert rel(g, w) < 1e-12


def test_kelvin_overflow_is_unconverged():
    # J_nu at a large negative order and tiny argument overflows binary64
    r = sf.kelvin_ber(-100.5, 0.01)
    assert not r.converged
    assert math.isinf(r.abs_err_est)


def test_kelvin_domain():
    with pytest.raises(DomainError):
        sf.kelvin_ber(0.0, -1.0)
    with pytest.raises(DomainError):
        sf.kelvin_ber(-0.5, 0.0)
    with pytest.raises(DomainError):
        sf.kelvin_bei(0.0, 500.0)


# ----------------------------------------------------------------------
# hypergeometric series
# ----------------------------------------------------------------------

def test_hyp0f3_empty_product():
    for (a, b, c) in [(0.5, 1.0, 2.0), (1.3, 0.7, 4.4)]:
        r = sf.hyp0f3(a, b, c, 0.0)
        assert r.value == 1.0 and r.converged


def test_hyp0f3_brute_force():
    brute = sum(0.1 ** k / math.factorial(k) ** 4 for k in range(10))
    r = sf.hyp0f3(1.0, 1.0, 1.0, 0.1)
    assert rel(r.value, brute) < 1e-15
    assert r.abs_err_est < 1e-14


def test_hyp0f3_pole_and_window():
    with pytest.raises(DomainError):
        sf.hyp0f3(-1.0, 0.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        sf.hyp0f3(0.5, 0.5, 0.5, -2e6)


def test_hyp0f3_cancellation_err_tracking():
    # large negative argument: heavy cancellation must show up in the estimate
    r = sf.hyp0f3(0.5, 0.5, 1.0, -1e4)
    assert r.converged
    assert r.abs_err_est > 1e-12 * abs(r.value)


def test_vec_series_nan_where_not_converged():
    # five terms cannot sum 0F3 at z = -100, but suffice at z = 1e-6
    z = np.array([1e-6, -100.0])
    v = sf.hyp0f3_vec(1.0, 1.0, 1.0, z, max_terms=5)
    assert math.isfinite(v[0]) and math.isnan(v[1])
    v = sf.hyp0f1_vec(1.0, z, max_terms=5)
    assert math.isfinite(v[0]) and math.isnan(v[1])
    assert not sf.hyp0f3(1.0, 1.0, 1.0, -100.0, max_terms=5).converged


# Parameters of the catalog's families (0F1 of I-2.35; 0F3 with
# (mu+1, nu+1, mu+nu+1), (3/2, nu+1, nu+3/2) and the Kelvin bridge) over the
# catalog's z windows; the cancelling arguments are added per test
_HYP_CASES = (
    [((c,), np.linspace(-25.0, 1.25, 12)) for c in (0.3, 0.7, 1.0, 2.5, 8.5)]
    + [(bs, np.linspace(-5000.0, 250.0, 12))
       for bs in ((0.5, 0.5, 1.0), (1.5, 1.5, 1.0), (1.5, 2.0, 2.5), (1.0, 1.0, 1.0),
                  (0.7, 1.2, 1.9))]
)
_CANCELLING = np.array([-1e4, -1e5])


def test_vec_series_overflow_is_nan_and_stops():
    # terms that overflow leave an infinite or NaN total: that element stops
    # summing, unconverged, alone or beside an element that converges
    with np.errstate(all="ignore"):
        assert math.isnan(sf.hyp0f1_vec(0.3, np.array([-1e6]))[0])
        v = sf.hyp0f1_vec(0.3, np.array([-1e6, -9e5, -1.0]))
        *_, terms, ok = sf._hyp0fq_vec((0.3,), np.array([-1e6, -9e5, -1.0]), 10000)
    assert math.isnan(v[0]) and math.isnan(v[1])
    assert abs(v[2] - sf.hyp0f1(0.3, -1.0).value) <= 1e-14
    assert ok.tolist() == [False, False, True] and terms < 1000


def test_hyp0fq_within_error_estimate_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for bs, z in _HYP_CASES:
        z = np.concatenate((z, _CANCELLING))
        scalar = sf.hyp0f1 if len(bs) == 1 else sf.hyp0f3
        vec = sf.hyp0f1_vec if len(bs) == 1 else sf.hyp0f3_vec
        with mpmath.workdps(40):
            want = np.array([float(mpmath.hyper([], list(bs), x)) for x in z])
        v, err, terms, ok = sf._hyp0fq_vec(bs, z, 10000)
        assert ok.all() and terms % sf._BLOCK == 0, bs
        assert np.all(np.abs(v - want) <= err), bs
        np.testing.assert_array_equal(vec(*bs, z), v)
        for x, w in zip(z, want):
            r = scalar(*bs, x)
            # the 0F1 sums at -1e4 and -1e5 keep no correct digit
            assert r.converged == (r.abs_err_est <= abs(r.value)), (bs, x)
            assert abs(r.value - w) <= r.abs_err_est, (bs, x)


def test_scalar_hyp0fq_unconverged_when_no_digit_correct():
    # the sums cancel below their own error estimate: flagged, not returned as converged
    for r, who in ((sf.hyp0f1(0.3, -400.0), "hyp0f1"), (sf.hyp0f1(0.3, -1e5), "hyp0f1"),
                   (sf.hyp0f3(1.5, 2.0, 2.5, -1e6), "hyp0f3")):
        assert r.abs_err_est > abs(r.value)
        assert not r.converged and r.note.startswith(who)
    # at z = -1e6 the 0F1 terms overflow: unconverged, not an infinite value
    r = sf.hyp0f1(0.3, -1e6)
    assert not r.converged and r.note == "hyp0f1: terms overflowed"
    # z = -25, the edge of the catalog's 0F1 window, keeps its digits
    r = sf.hyp0f1(0.3, -25.0)
    assert r.converged and r.abs_err_est < 1e-10 * abs(r.value)


def test_hyp0fq_repeatable_and_term_budget_hard():
    for bs, z in _HYP_CASES:
        first, again = sf._hyp0fq_vec(bs, z, 10000), sf._hyp0fq_vec(bs, z, 10000)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)
    assert sf.hyp0f3(1.5, 2.0, 2.5, -300.0) == sf.hyp0f3(1.5, 2.0, 2.5, -300.0)
    # max_terms cuts the last block short and is never exceeded; z = -1e5
    # needs three blocks
    for max_terms in (1, 2, 5, 17, 18, 31):
        *_, terms, ok = sf._hyp0fq_vec((1.0, 1.0, 1.0), np.array([-1e5, 1e-6]), max_terms)
        assert terms == max_terms
        assert not ok[0] and ok[1] == (max_terms >= 3)


def test_vector_0f1_takes_array_parameters():
    # parameters c + 2r as in the 0F1 product, broadcast against a row of z:
    # element by element the scalar 0F1's value within both estimates and
    # its convergence flag; z = -1e6 overflows every element in both
    c = 0.3 + 2.0 * np.arange(16.0)[:, None]
    z = np.array([[-25.0, -6.0, -1.0, 0.0, 0.5, 4.0, 8.0, 25.0, -1e6]])
    with np.errstate(all="ignore"):
        v, err, terms, ok = sf._hyp0fq_vec((c,), z, 10000)
    assert v.shape == err.shape == ok.shape == (16, 9) and terms % sf._BLOCK == 0
    for i, j in np.ndindex(v.shape):
        r = sf.hyp0f1(c[i, 0], z[0, j])
        assert bool(ok[i, j]) == r.converged == (j != 8), (c[i, 0], z[0, j])
        if r.converged:
            assert abs(v[i, j] - r.value) <= err[i, j] + r.abs_err_est, (c[i, 0], z[0, j])
    # an array of one parameter value gives exactly what the scalar gives
    zs = np.linspace(-25.0, 25.0, 40)
    np.testing.assert_array_equal(sf._hyp0fq_vec((np.full(40, 0.7),), zs, 10000)[0],
                                  sf.hyp0f1_vec(0.7, zs))


def test_vector_0fq_values_with_scalar_parameters_are_pinned():
    # the values of the scalar-parameter vector kernels, bit for bit
    v = sf.hyp0f1_vec(0.7, np.array([-25.0, -3.5, 0.5, 1.25]))
    assert v.tolist() == [-0.5136785126549462, -0.6219068897871987,
                          1.8260355924465244, 3.552569704915827]
    v = sf.hyp0f3_vec(1.5, 2.0, 2.5, np.array([-5000.0, -60.0, 0.3, 250.0]))
    assert v.tolist() == [13750.650483874155, -0.4269346205278466,
                          1.0402289344603102, 537.0215748209711]


def test_scalar_hyp0fq_takes_no_array_path(monkeypatch):
    # the scalar kernels sum on Python floats
    def no_arrays(*args):
        raise AssertionError("scalar 0F1/0F3 called the vector summer")

    want = (sf.hyp0f1(1.5, -20.0), sf.hyp0f3(1.5, 2.0, 2.5, -300.0))
    monkeypatch.setattr(sf, "_hyp0fq_vec", no_arrays)
    assert (sf.hyp0f1(1.5, -20.0), sf.hyp0f3(1.5, 2.0, 2.5, -300.0)) == want
    assert all(r.converged for r in want)


@pytest.mark.parametrize("k", [1, 2, 5, 17])
def test_scalar_hyp0fq_term_budget_hard(k):
    r = sf.hyp0f3(1, 1, 1, -1e5, max_terms=k)
    assert r.terms_or_nodes_used == k and not r.converged
    assert r.note == f"hyp0f3: stopping rule not met in {k} terms"


def test_hyp0f1_matches_bessel_series():
    # 0F1(;1;-z^2/4) = J_0(z)
    r = sf.hyp0f1(1.0, -0.25)
    assert rel(r.value, oracles.bessel_j_series(0.0, 1.0)) < 1e-14


def test_hyp2f1_values():
    assert sf.hyp2f1(0.3, 0.7, 1.1, 0.0).value == 1.0
    # closed form -ln(1-z)/z at a=b=1, c=2
    assert rel(sf.hyp2f1(1, 1, 2, 0.5).value, -math.log(0.5) / 0.5) < 1e-13
    # terminating case = Legendre polynomial: 2F1(-3, 4; 1; 0.3) = P_3(0.4)
    assert rel(sf.hyp2f1(-3, 4, 1, 0.3).value, oracles.legendre(3, 0.4)) < 1e-13
    assert abs(sf.hyp2f1(-3, 4, 1, 0.3).value - (-0.44)) < 1e-14


def test_hyp2f1_domain():
    with pytest.raises(DomainError):
        sf.hyp2f1(0.5, 0.5, -2.0, 0.3)
    with pytest.raises(DomainError):
        sf.hyp2f1(1.0, 1.0, 1.5, 1.0)  # c-a-b < 0 at z = 1
    r = sf.hyp2f1(0.5, 0.5, 3.0, 0.95)
    assert r.converged and "degraded" in r.note


@pytest.mark.parametrize("n", range(1, 9))
def test_hyp2f1_terminating_legendre_family(n):
    # 2F1(-n, -n; 1; y) = (1-y)^n P_n((1+y)/(1-y))
    for y in (0.1, 0.35, 0.6, 0.85):
        lhs = sf.hyp2f1(-n, -n, 1.0, y).value
        rhs = (1.0 - y) ** n * oracles.legendre(n, (1.0 + y) / (1.0 - y))
        assert rel(lhs, rhs) < 1e-9


# ----------------------------------------------------------------------
# orthogonal polynomials
# ----------------------------------------------------------------------

def test_laguerre():
    assert sf.laguerre(0, 0, 3.3) == 1.0
    assert sf.laguerre(2, 0, 1.0) == -0.5
    brute = sum((-1.0) ** k * math.comb(5, 3 - k) * 0.7 ** k / math.factorial(k)
                for k in range(4))
    assert rel(sf.laguerre(3, 2, 0.7), brute) < 1e-14


def test_gegenbauer():
    assert sf.gegenbauer(0, 1.5, 0.3) == 1.0
    assert rel(sf.gegenbauer(1, 1.5, 0.2), 0.6) < 1e-15
    assert rel(sf.gegenbauer(2, 0.5, 0.5), oracles.legendre(2, 0.5)) < 1e-15
    for n in (3, 5, 8):
        for x in (-0.7, 0.2, 0.9):
            assert rel(sf.gegenbauer(n, 0.5, x), oracles.legendre(n, x)) < 1e-12
    with pytest.raises(DomainError):
        sf.gegenbauer(2, 0.0, 0.5)


# ----------------------------------------------------------------------
# EvalResult contract
# ----------------------------------------------------------------------

def test_evalresult_invariants():
    for r in (sf.bessel_j(0.3, 2.0), sf.hyp0f3(1, 1, 1, -3.0),
              sf.kelvin_ber(0.5, 2.0)):
        assert r.converged
        assert math.isfinite(r.abs_err_est) and r.abs_err_est >= 0.0
        assert r.terms_or_nodes_used >= 0
        assert float(r) == r.value


def test_closed_form_non_finite_is_unconverged():
    r = sf.closed_form(math.inf)
    assert not r.converged and math.isinf(r.abs_err_est)
    r = sf.closed_form(2.0, rel=1e-10)
    assert r.converged and r.abs_err_est == pytest.approx(2e-10)


def test_product_rule():
    r = sf.EvalResult(2.0, 1e-3, True, 3, "r note")
    s = sf.EvalResult(-5.0, 1e-2, True, 4)
    p = sf.product(r, s)
    assert p.value == -10.0
    assert p.abs_err_est == pytest.approx(2.0 * 1e-2 + 5.0 * 1e-3)
    assert p.converged and p.terms_or_nodes_used == 7 and p.note == "r note"
    bad = sf.EvalResult(1.0, math.inf, False, 0, "s note")
    q = sf.product(r, bad)
    assert not q.converged and q.note == "r note; s note" and q.terms_or_nodes_used == 3
    assert sf.product(bad, r).note == "s note; r note"
