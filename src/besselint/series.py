"""Series-side evaluators.

The explicit expansions used as closed/series routes by the catalog:
the Gauss-sum expansion of J_mu(ax)J_nu(bx), its Neumann-series
counterpart, the 0F1 product sum, the Laplace-transform series for the
product of three Bessel functions (with its m-th-derivative
generalization and the two-factor limit), and the Richardson-extrapolated
numerical m-th derivative the generalization needs.

Every infinite series here is a generator of its terms summed by
``specfun._sum_series``, the compensated loop that also sums the scalar
0F1/0F3 kernels, with the stopping rule and error formula of the vector
0F1/0F3.  Two series form their terms a block at a time with array
operations and hand them to that loop one by one: the Gauss sum takes a
block of terms from one convolution of the two Bessel power series'
longdouble coefficient runs (their Cauchy product), and the 0F1 product
takes the inner 0F1 of a block of terms from one call of the vector
0F1/0F3 summer.  The Gauss sum and the 0F1 product, like the scalar
0F1, come back unconverged when their error estimate exceeds their value
(``specfun._flag_cancelled``); the 0F1 product also when an inner 0F1 did
not converge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _sp

from .specfun import (DomainError, EvalResult, _flag_cancelled, _hyp0fq_vec, _sum_series,
                      log_gamma, scaled)

__all__ = [
    "TripleParams",
    "product_jj_gauss",
    "product_jj_neumann",
    "hyp0f1_product",
    "weber_triple",
    "weber_triple_m",
    "weber_j0jm_limit",
    "derivative_m",
]

_EPS = 2.0 ** -52

# Terms in the first block of product_jj_gauss (48 covers a x <= 10 in one
# block) and inner 0F1 in the first block of hyp0f1_product; each further
# block doubles.  An inner 0F1 has the term budget of the scalar hyp0f1.
_GAUSS_BLOCK = 48
_HYP_BLOCK = 16
_INNER_MAX_TERMS = 10000


def _order_m(m, who: str) -> int:
    """``m`` as an int; a non-integer or negative m is a DomainError, not truncated."""
    if not (math.isfinite(m) and m == math.floor(m)):
        raise DomainError(f"{who}: m must be an integer, got {m!r}")
    if m < 0:
        raise DomainError(f"{who}: m must be >= 0, got {m!r}")
    return int(m)


@dataclass(frozen=True)
class TripleParams:
    """Parameters of the three-Bessel Laplace transform family."""

    alpha: float
    beta1: float
    beta2: float
    beta3: float
    m: int = 0

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise DomainError(f"TripleParams: alpha must be finite > 0, got {self.alpha!r}")
        for name in ("beta1", "beta2", "beta3"):
            b = getattr(self, name)
            if not (b >= 0.0 and math.isfinite(b)):
                raise DomainError(f"TripleParams: {name} must be finite >= 0, got {b!r}")
        object.__setattr__(self, "m", _order_m(self.m, "TripleParams"))


# ----------------------------------------------------------------------
# products of two Bessel functions
# ----------------------------------------------------------------------

def product_jj_gauss(mu: float, nu: float, a: float, b: float, x: float,
                     max_terms: int = 2000) -> EvalResult:
    """J_mu(a x) * J_nu(b x) by the expansion in Gauss sums.

    The m-th term, (-1)^m (ax/2)^(2m) / (m! (mu+1)_m) times the terminating
    2F1(-m, -mu-m; nu+1; b^2/a^2), is the Cauchy product of the two power
    series: T_m = sum over k + j = m of A_k B_j, with A_k = (-(ax/2)^2)^k /
    (k! (mu+1)_k) and B_j = (-(bx/2)^2)^j / (j! (nu+1)_j), normalized by the
    gamma prefactors.  The terms are formed a block at a time: the first n
    of each run from one cumulative product of its ratios -q / (k (order+k)),
    then T_0 .. T_(n-1) from one convolution of the two runs.  The block
    holds ``_GAUSS_BLOCK`` terms and doubles each time the stopping rule
    asks for more.  Serves as the series oracle for the direct product;
    requires 0 < b <= a.

    The outer sum cancels like exp(2 b x) while the result stays O(1),
    so the coefficients, the terms and the sum are held in extended
    precision (longdouble) to hold the 1e-8 agreement window out to a x ~ 10.
    Further out, once the cancellation leaves no correct digit (an error
    estimate above the value), the result is reported unconverged.
    """
    mu, nu, a, b, x = float(mu), float(nu), float(a), float(b), float(x)
    if not (0.0 < b <= a):
        raise DomainError(f"product_jj_gauss: requires 0 < b <= a, got a={a!r}, b={b!r}")
    if x < 0.0:
        raise DomainError(f"product_jj_gauss: requires x >= 0, got x={x!r}")
    if nu + 1.0 <= 0.0 and (nu + 1.0) == math.floor(nu + 1.0):
        raise DomainError(f"product_jj_gauss: nu={nu!r} makes (nu+1) a nonpositive integer")
    if x == 0.0:
        if mu < 0.0 or nu < 0.0:
            raise DomainError("product_jj_gauss: x = 0 needs mu, nu >= 0")
        return EvalResult(1.0 if mu == 0.0 and nu == 0.0 else 0.0, 0.0, True, 1)

    ld = np.longdouble
    parts = (mu * math.log(0.5 * a * x), nu * math.log(0.5 * b * x),
             -log_gamma(mu + 1.0), -log_gamma(nu + 1.0))
    # log_gamma drops the sign of Gamma, negative for orders in (-2, -1), (-4, -3), ...
    pref = math.exp(math.fsum(parts)) * float(_sp.gammasgn(mu + 1.0) * _sp.gammasgn(nu + 1.0))
    # row i of ``runs`` holds factor i's (-q)^k / (k! (order+1)_k), k < n,
    # with q = (ax/2)^2 and (bx/2)^2
    q = np.array([[a], [b]], dtype=ld)
    q = 0.25 * q * q * x * x
    order = np.array([[mu], [nu]], dtype=ld)

    def terms():
        n, done = _GAUSS_BLOCK, 0
        while True:
            k = np.arange(1, n, dtype=ld)
            runs = np.ones((2, n), dtype=ld)
            np.divide(-q, k * (order + k), out=runs[:, 1:])
            np.cumprod(runs, axis=1, out=runs)
            block = np.convolve(runs[0], runs[1])[done:n]
            yield from zip(block, np.abs(block))
            done, n = n, 2 * n

    # an error d in the exponent moves pref by d relative; math.lgamma is
    # good to about 6.3 eps*max(1, |value|) against mpmath, and 2 eps more
    # cover exp and rounding the longdouble sum to binary64
    rel = _EPS * (2.0 + 8.0 * sum(max(1.0, abs(t)) for t in parts))
    return _flag_cancelled(scaled(_sum_series(terms(), max_terms, "product_jj_gauss"), pref, rel),
                           "product_jj_gauss")


def product_jj_neumann(nu: float, a: float, b: float, x: float,
                       max_terms: int = 500) -> EvalResult:
    """J_nu(a x) * J_nu(b x) as a Neumann series over J_{nu+2r}(x sqrt(a^2+b^2))."""
    nu, a, b, x = float(nu), float(a), float(b), float(x)
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"product_jj_neumann: requires a, b > 0, got a={a!r}, b={b!r}")
    if x < 0.0:
        raise DomainError(f"product_jj_neumann: requires x >= 0, got x={x!r}")
    if x == 0.0:
        if nu < 0.0:
            raise DomainError("product_jj_neumann: x = 0 needs nu >= 0")
        return EvalResult(1.0 if nu == 0.0 else 0.0, 0.0, True, 1)
    c = math.hypot(a, b)
    q = a * b * x / (2.0 * c)
    if nu + 1.0 <= 0.0 and (nu + 1.0) == math.floor(nu + 1.0):
        raise DomainError(f"product_jj_neumann: nu={nu!r} hits a gamma pole")

    def terms():
        # |coeff_r| = |q^(nu+2r) / (r! Gamma(nu+r+1))| bounds the r-th term: |J| <= 1
        coeff = math.exp(nu * math.log(q) - log_gamma(nu + 1.0)) * float(_sp.gammasgn(nu + 1.0))
        for r in itertools.count():
            if r:
                coeff *= q * q / (r * (nu + r))
            yield coeff * float(_sp.jv(nu + 2 * r, x * c)), abs(coeff)

    return _sum_series(terms(), max_terms, "product_jj_neumann")


def hyp0f1_product(c: float, x: float, y: float, max_terms: int = 500) -> EvalResult:
    """0F1(;c;x) * 0F1(;c;y) via the product expansion.

    Sums sum_r (xy)^r / (r! (c)_r (c)_2r) * 0F1(;c+2r;x+y).  The inner 0F1
    of a block of r (16, doubling while the outer sum asks for more) come
    from one call of the vector summer ``specfun._hyp0fq_vec`` with the
    array parameter c + 2r; each keeps its own error estimate and
    convergence flag, and counts the terms of its vector block.  The error
    estimate adds sum_r |coeff_r| * (error of the r-th inner 0F1) to that of
    the outer sum.  Like the scalar 0F1, the result is unconverged when an
    inner 0F1 did not converge or lost every digit (its estimate exceeds its
    value), or when the estimate exceeds |value|.
    """
    c, x, y = float(c), float(x), float(y)
    if c <= 0.0 and c == math.floor(c):
        raise DomainError(f"hyp0f1_product: c={c!r} is a nonpositive-integer pole")
    xy = x * y
    s = x + y
    if s < -1e6:
        raise DomainError(f"hyp0f1_product: x+y={s!r} below the 0F1 window x+y >= -1e6")
    inner_terms = 0
    inner_err = 0.0
    inner_ok = True

    def terms():
        nonlocal inner_terms, inner_err, inner_ok
        coeff, r0, n = 1.0, 0, _HYP_BLOCK
        while True:
            vals, errs, k, oks = _hyp0fq_vec((c + 2.0 * np.arange(r0, r0 + n),), s,
                                             _INNER_MAX_TERMS)
            for r, v, e, ok in zip(range(r0, r0 + n), vals.tolist(), errs.tolist(),
                                   oks.tolist()):
                if r:
                    coeff *= xy / (r * (c + r - 1.0) * (c + 2.0 * r - 2.0) * (c + 2.0 * r - 1.0))
                inner_terms += k
                inner_err += abs(coeff) * e
                # an inner 0F1 whose estimate exceeds its value kept no digit
                inner_ok = inner_ok and ok and e <= abs(v)
                term = coeff * v
                yield term, abs(term)
            r0, n = r0 + n, 2 * n

    outer = _sum_series(terms(), max_terms, "hyp0f1_product")
    note = outer.note or ("" if inner_ok else "hyp0f1_product: an inner 0F1 did not converge")
    return _flag_cancelled(EvalResult(outer.value, outer.abs_err_est + inner_err, not note,
                                      outer.terms_or_nodes_used + inner_terms, note),
                           "hyp0f1_product")


# ----------------------------------------------------------------------
# Laplace transforms of triple Bessel products
# ----------------------------------------------------------------------

def weber_triple(p: TripleParams, max_terms: int = 300) -> EvalResult:
    """Laplace transform of J_0(b1 sqrt(x)) J_0(b2 sqrt(x)) J_0(b3 sqrt(x)).

    Evaluates (1/alpha) exp(-(b1^2+b2^2+b3^2)/4 alpha) * sum over n of
    (2 - delta_n0) (-1)^n I_n(b1 b2/2a) I_n(b1 b3/2a) I_n(b2 b3/2a), with
    the modified Bessel factors scaled so only one exponential is formed,
    in log space, at the end.  The (-1)^n comes with the modified-Bessel
    form of the circular addition theorem; without it the sum disagrees
    with the defining integral at the percent level.
    """
    if p.m != 0:
        raise DomainError("weber_triple: requires TripleParams with m = 0 "
                          "(use weber_triple_m for m >= 1)")
    al = p.alpha
    z1 = p.beta1 * p.beta2 / (2.0 * al)
    z2 = p.beta1 * p.beta3 / (2.0 * al)
    z3 = p.beta2 * p.beta3 / (2.0 * al)
    expo = -(p.beta1 ** 2 + p.beta2 ** 2 + p.beta3 ** 2) / (4.0 * al) + (z1 + z2 + z3)

    def terms():
        for n in itertools.count():
            w = 1.0 if n == 0 else 2.0 * (-1.0) ** n
            term = w * float(_sp.ive(n, z1)) * float(_sp.ive(n, z2)) * float(_sp.ive(n, z3))
            yield term, abs(term)

    return scaled(_sum_series(terms(), max_terms, "weber_triple"), math.exp(expo) / al)


def _triple_m_series(p: TripleParams, x: float, max_terms: int) -> EvalResult:
    # sum over n of (-1)^n (n+m)(2m+n-1)!/n! * I_{m+n}(b2 sqrt(x/a))
    #   * I_{m+n}(b3 sqrt(x/a)) * I_{m+n}(b2 b3/2a); the last factor is
    #   constant in x.  The (-1)^n again belongs to the modified-Bessel
    #   Gegenbauer addition theorem.
    m, al = p.m, p.alpha
    s = math.sqrt(max(x, 0.0) / al)
    u2, u3 = p.beta2 * s, p.beta3 * s
    zc = p.beta2 * p.beta3 / (2.0 * al)

    def terms():
        for n in itertools.count():
            w = (-1.0) ** n * (n + m) * math.exp(log_gamma(2.0 * m + n) - log_gamma(n + 1.0))
            term = (w * float(_sp.iv(m + n, u2)) * float(_sp.iv(m + n, u3))
                    * float(_sp.iv(m + n, zc)))
            yield term, abs(term)

    return _sum_series(terms(), max_terms, "weber_triple_m")


def weber_triple_m(p: TripleParams, max_terms: int = 300) -> EvalResult:
    """Laplace transform of J_0(b1 sqrt(x)) J_m(b2 sqrt(x)) J_m(b3 sqrt(x)), m >= 1.

    Prefactor times the numerical m-th derivative (Richardson-extrapolated
    central differences) of exp(-x) * S(x) at x = b1^2/(4 alpha), where S
    is the modified-Bessel product series above.  m = 0 reduces to
    :func:`weber_triple` identically.
    """
    if p.m == 0:
        return weber_triple(p, max_terms=max_terms)
    if not (1 <= p.m <= 4):
        raise DomainError(f"weber_triple_m: m must be in 1..4, got {p.m!r}")
    if not (p.beta2 > 0.0 and p.beta3 > 0.0):
        raise DomainError("weber_triple_m: requires beta2, beta3 > 0")
    m, al = p.m, p.alpha
    pref = (math.exp((2 * m + 1) * math.log(2.0) + log_gamma(m + 1.0) - log_gamma(2.0 * m + 1.0)
                     + m * math.log(al / (p.beta2 * p.beta3))
                     - (p.beta2 ** 2 + p.beta3 ** 2) / (4.0 * al)) / al)
    x0 = p.beta1 ** 2 / (4.0 * al)
    series_ok = True

    def g(x: float) -> float:
        nonlocal series_ok
        r = _triple_m_series(p, x, max_terms)
        series_ok = series_ok and r.converged
        return math.exp(-x) * r.value

    d = derivative_m(g, x0, m)
    note = d.note
    if not series_ok:
        note = (note + "; " if note else "") + "weber_triple_m: inner series ran past budget"
    return scaled(EvalResult(d.value, d.abs_err_est, d.converged and series_ok,
                             d.terms_or_nodes_used, note=note), pref)


def weber_j0jm_limit(alpha: float, beta1: float, beta2: float, m: int) -> EvalResult:
    """Laplace transform of J_0(b1 sqrt(x)) J_m(b2 sqrt(x)) x^(m/2).

    Closed finite sum: (1/alpha) (b2/2 alpha)^m exp(-(b1^2+b2^2)/4 alpha)
    * sum_{n=0}^m (-1)^n C(m,n) (b1/b2)^n I_n(b1 b2/2 alpha).
    """
    alpha, beta1, beta2 = float(alpha), float(beta1), float(beta2)
    if not (alpha > 0.0):
        raise DomainError(f"weber_j0jm_limit: alpha must be > 0, got {alpha!r}")
    m = _order_m(m, "weber_j0jm_limit")
    if beta1 < 0.0 or beta2 < 0.0:
        raise DomainError("weber_j0jm_limit: requires beta1, beta2 >= 0")
    if beta2 == 0.0:
        if m == 0:
            v = math.exp(-beta1 ** 2 / (4.0 * alpha)) / alpha
            return EvalResult(v, abs(v) * 5e-15, True, 1)
        return EvalResult(0.0, 0.0, True, 1)  # J_m(0) = 0 for m >= 1
    z = beta1 * beta2 / (2.0 * alpha)
    total = math.fsum((-1.0) ** n * math.comb(m, n) * (beta1 / beta2) ** n * float(_sp.iv(n, z))
                      for n in range(m + 1))
    v = ((beta2 / (2.0 * alpha)) ** m * math.exp(-(beta1 ** 2 + beta2 ** 2) / (4.0 * alpha))
         / alpha * total)
    return EvalResult(v, abs(v) * 1e-13 + 1e-305, True, m + 1)


# ----------------------------------------------------------------------
# numerical m-th derivative
# ----------------------------------------------------------------------

def _central_diff(f: Callable[[float], float], x0: float, m: int, h: float):
    vals = [f(x0 + (0.5 * m - k) * h) for k in range(m + 1)]
    acc = math.fsum((-1.0) ** k * math.comb(m, k) * v for k, v in enumerate(vals))
    return acc / h ** m, max(abs(v) for v in vals)


def _forward_diff(f: Callable[[float], float], x0: float, m: int, h: float):
    vals = [f(x0 + k * h) for k in range(m + 1)]
    acc = math.fsum((-1.0) ** (m - k) * math.comb(m, k) * v for k, v in enumerate(vals))
    return acc / h ** m, max(abs(v) for v in vals)


def derivative_m(f: Callable[[float], float], x0: float, m: int) -> EvalResult:
    """m-th derivative of f at x0 >= 0 (m in 1..4) by finite differences.

    Central stencils with steps h, h/2, h/4 and Richardson extrapolation
    of the h^2 error series; one-sided stencils (with the matching h^1
    ladder) when x0 sits too close to 0.  Flags instability when the
    extrapolation ladder stops contracting.
    """
    if not (1 <= m <= 4):
        raise DomainError(f"derivative_m: m must be in 1..4, got {m!r}")
    x0 = float(x0)
    if x0 < 0.0:
        raise DomainError(f"derivative_m: requires x0 >= 0, got {x0!r}")
    h = max(abs(x0), 1.0) * _EPS ** (1.0 / (m + 2))
    one_sided = x0 < 0.5 * m * h
    if one_sided:
        d1, f1 = _forward_diff(f, x0, m, h)
        d2, f2 = _forward_diff(f, x0, m, h / 2.0)
        d4, f4 = _forward_diff(f, x0, m, h / 4.0)
        r1 = 2.0 * d2 - d1
        r1b = 2.0 * d4 - d2
        r2 = (4.0 * r1b - r1) / 3.0
    else:
        d1, f1 = _central_diff(f, x0, m, h)
        d2, f2 = _central_diff(f, x0, m, h / 2.0)
        d4, f4 = _central_diff(f, x0, m, h / 4.0)
        r1 = (4.0 * d2 - d1) / 3.0
        r1b = (4.0 * d4 - d2) / 3.0
        r2 = (16.0 * r1b - r1) / 15.0
    if not all(map(math.isfinite, (d1, d2, d4))):
        return EvalResult(math.nan, math.inf, False, 3 * (m + 1),
                          note="derivative_m: non-finite stencil values")
    # stencil roundoff: sum|binomial| * eps * max|f| on the finest step
    noise = 2.0 ** m * _EPS * max(f1, f2, f4, _EPS) / (h / 4.0) ** m
    err = abs(r2 - r1b) + noise
    unstable = abs(r2 - r1b) > abs(r1b - r1) + noise and abs(r1b - r1) > noise
    return EvalResult(r2, err, not unstable, 3 * (m + 1),
                      note="derivative_m: extrapolants diverging" if unstable else "")
