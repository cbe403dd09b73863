"""Scalar special-function kernels.

Gamma, Bessel J/Y/I/K of real order, Kelvin ber/bei of real order,
generalized hypergeometric series (0F1, 0F3, 2F1) and the classical
orthogonal polynomials used by the series evaluators.

The classical kernels (gamma, J, Y, I, K, 2F1) are backed by
``scipy.special``; the Kelvin functions of general order and the
0F1/0F3 series are summed here directly, with compensated summation,
an envelope-based stopping rule and cancellation tracking.

Every evaluation is pure and reentrant: no caches, no shared state.
Scalar results are returned as :class:`EvalResult`; the ``*_vec``
helpers operate on float64 arrays and are meant for integrand code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _sp

__all__ = [
    "EvalResult",
    "DomainError",
    "ORDER_MIN",
    "ORDER_MAX",
    "gamma",
    "log_gamma",
    "bessel_j",
    "bessel_y",
    "bessel_i",
    "bessel_i_scaled",
    "bessel_k",
    "bessel_k_scaled",
    "kelvin_ber",
    "kelvin_bei",
    "kelvin_ber_vec",
    "kelvin_bei_vec",
    "hyp0f1",
    "hyp0f3",
    "hyp0f1_vec",
    "hyp0f3_vec",
    "hyp2f1",
    "laguerre",
    "gegenbauer",
]

_EPS = 2.0 ** -52

# Orders accepted by the Bessel/Kelvin wrappers.  The guaranteed accuracy
# window is nu in [-5, 20]; the wider range exists because the series
# evaluators walk orders nu + 2r upward.
ORDER_MIN = -120.0
ORDER_MAX = 1200.0

# Kelvin series cap: beyond this the alternating series loses too many
# digits in binary64 to be worth returning.
_KELVIN_X_MAX = 120.0


class DomainError(ValueError):
    """An argument violated an operation's supported domain."""


@dataclass(frozen=True)
class EvalResult:
    """A computed real value with an a-posteriori absolute-error estimate.

    Attributes
    ----------
    value : float
        The computed value.
    abs_err_est : float
        Estimated absolute error, finite and >= 0 whenever ``converged``.
    converged : bool
        False when a stopping rule or budget failed; such values must not
        be consumed without flagging.
    terms_or_nodes_used : int
        Series terms or quadrature nodes spent.
    note : str
        Optional diagnostic (e.g. which rule degraded).
    """

    value: float
    abs_err_est: float
    converged: bool
    terms_or_nodes_used: int
    note: str = ""

    def __float__(self) -> float:
        return float(self.value)


def _kernel_result(value: float, rel: float = 5e-15, nodes: int = 1) -> EvalResult:
    v = float(value)
    if not math.isfinite(v):
        return EvalResult(v, math.inf, False, nodes, note="non-finite kernel value")
    return EvalResult(v, abs(v) * rel + 1e-305, True, nodes)


def _check_order(nu: float, who: str) -> float:
    nu = float(nu)
    if not math.isfinite(nu) or nu < ORDER_MIN or nu > ORDER_MAX:
        raise DomainError(
            f"{who}: order nu={nu!r} outside supported range [{ORDER_MIN}, {ORDER_MAX}]"
        )
    # snap denormal-scale offsets onto the integer order: the backing Y/K
    # routines lose the limiting form there (yv returns 0, kv NaN at
    # subnormal orders) while the snap itself is far below every tolerance
    nearest = math.floor(nu + 0.5)
    if nu != nearest and abs(nu - nearest) < 1e-15:
        return float(nearest)
    return nu


# ----------------------------------------------------------------------
# gamma
# ----------------------------------------------------------------------

def gamma(x: float) -> float:
    """Gamma function for real ``x`` not a nonpositive integer.

    Relative error is at the few-ulp level on [-50, 50] away from the
    poles; use :func:`log_gamma` for large arguments.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma: pole at nonpositive integer x={x!r}")
    try:
        return math.gamma(x)
    except OverflowError as exc:
        raise OverflowError(f"gamma({x!r}) overflows binary64; use log_gamma") from exc


def log_gamma(x: float) -> float:
    """log |Gamma(x)| for real ``x`` not a nonpositive integer."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"log_gamma: pole at nonpositive integer x={x!r}")
    return math.lgamma(x)


def _rgamma(x):
    # 1/Gamma with exact zeros at the poles (used by series coefficients)
    return _sp.rgamma(x)


# ----------------------------------------------------------------------
# Bessel J, Y, I, K wrappers
# ----------------------------------------------------------------------

def bessel_j(nu: float, x: float) -> EvalResult:
    """Bessel function of the first kind J_nu(x), x >= 0."""
    nu = _check_order(nu, "bessel_j")
    x = float(x)
    if x < 0.0:
        raise DomainError(f"bessel_j: requires x >= 0, got x={x!r}")
    if x == 0.0 and nu < 0.0:
        raise DomainError("bessel_j: x = 0 is only admissible for nu >= 0")
    return _kernel_result(_sp.jv(nu, x))


def bessel_y(nu: float, x: float) -> EvalResult:
    """Bessel function of the second kind Y_nu(x), x > 0.

    Integer orders go through the limiting form internally, never the
    cot(nu*pi) combination.
    """
    nu = _check_order(nu, "bessel_y")
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"bessel_y: requires x > 0, got x={x!r}")
    return _kernel_result(_sp.yv(nu, x))


def bessel_i(nu: float, x: float) -> EvalResult:
    """Modified Bessel function I_nu(x), x >= 0.

    Raises OverflowError once the unscaled value leaves binary64 range;
    :func:`bessel_i_scaled` stays finite for all x.
    """
    nu = _check_order(nu, "bessel_i")
    x = float(x)
    if x < 0.0:
        raise DomainError(f"bessel_i: requires x >= 0, got x={x!r}")
    if x == 0.0 and nu < 0.0:
        raise DomainError("bessel_i: x = 0 is only admissible for nu >= 0")
    v = _sp.iv(nu, x)
    if math.isinf(v):
        raise OverflowError(
            f"bessel_i({nu!r}, {x!r}) exceeds binary64 range; use bessel_i_scaled"
        )
    return _kernel_result(v)


def bessel_i_scaled(nu: float, x: float) -> EvalResult:
    """exp(-x) * I_nu(x), overflow-safe for large x."""
    nu = _check_order(nu, "bessel_i_scaled")
    x = float(x)
    if x < 0.0:
        raise DomainError(f"bessel_i_scaled: requires x >= 0, got x={x!r}")
    if x == 0.0 and nu < 0.0:
        raise DomainError("bessel_i_scaled: x = 0 is only admissible for nu >= 0")
    return _kernel_result(_sp.ive(nu, x))


def bessel_k(nu: float, x: float) -> EvalResult:
    """Modified Bessel function K_nu(x), x > 0."""
    nu = _check_order(nu, "bessel_k")
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"bessel_k: requires x > 0, got x={x!r}")
    return _kernel_result(_sp.kv(nu, x))


def bessel_k_scaled(nu: float, x: float) -> EvalResult:
    """exp(x) * K_nu(x), underflow-safe for large x."""
    nu = _check_order(nu, "bessel_k_scaled")
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"bessel_k_scaled: requires x > 0, got x={x!r}")
    return _kernel_result(_sp.kve(nu, x))


# ----------------------------------------------------------------------
# Kelvin functions of general real order
# ----------------------------------------------------------------------
#
# ber_nu(x) + i*bei_nu(x) = J_nu(x * exp(3*pi*i/4)), summed in real
# arithmetic: term k of the J series carries the phase (3*nu/4 + k/2)*pi,
# so consecutive terms are one exact quarter-turn apart.

def _kelvin_both_vec(nu: float, x: np.ndarray, max_terms: int = 500):
    """Return (ber, bei, abs_err, terms) arrays for x > 0 (vector core)."""
    x = np.asarray(x, dtype=float)
    half = x / 2.0
    ratio_base = half * half  # (x/2)^2, multiplied into each term

    if nu < 0.0 and float(nu) == math.floor(nu):
        k0 = int(-nu)
        # first non-vanishing coefficient: 1/(k0! * Gamma(nu+k0+1)) = 1/k0!
        t = half ** (nu + 2 * k0) / math.factorial(k0)
    else:
        k0 = 0
        t = half ** nu * _rgamma(nu + 1.0)

    theta0 = 0.75 * math.pi * nu + 0.5 * math.pi * k0
    c, s = math.cos(theta0), math.sin(theta0)

    ber = t * c
    bei = t * s
    comp_r = np.zeros_like(ber)
    comp_i = np.zeros_like(bei)
    env_sum = np.abs(t).astype(float)
    small_run = np.zeros(x.shape, dtype=np.int64)
    k = k0
    converged = False
    while k - k0 < max_terms:
        k += 1
        t = t * ratio_base / (k * (nu + k))
        c, s = -s, c  # advance the phase by pi/2 exactly
        term_r = t * c
        term_i = t * s
        # Kahan update of both components
        y = term_r - comp_r
        tt = ber + y
        comp_r = (tt - ber) - y
        ber = tt
        y = term_i - comp_i
        tt = bei + y
        comp_i = (tt - bei) - y
        bei = tt
        env = np.abs(t)
        env_sum += env
        scale = np.maximum(np.maximum(np.abs(ber), np.abs(bei)), _EPS * env_sum)
        small_run = np.where(env <= _EPS * scale, small_run + 1, 0)
        if np.all(small_run >= 3):
            converged = True
            break
    err = np.abs(t) + 4.0 * _EPS * env_sum
    return ber, bei, err, k - k0, converged


def _kelvin_scalar(nu: float, x: float, component: int) -> EvalResult:
    nu = _check_order(nu, "kelvin")
    x = float(x)
    if x < 0.0:
        raise DomainError(f"kelvin: requires x >= 0, got x={x!r}")
    if x > _KELVIN_X_MAX:
        raise DomainError(
            f"kelvin: x={x!r} beyond supported cancellation window (x <= {_KELVIN_X_MAX})"
        )
    if x == 0.0:
        if nu < 0.0 and nu != math.floor(nu):
            raise DomainError("kelvin: x = 0 is only admissible for nu >= 0 or integer nu")
        if component == 0:
            return EvalResult(1.0 if nu == 0.0 else 0.0, 0.0, True, 1)
        return EvalResult(0.0, 0.0, True, 1)
    arr = np.array([x])
    ber, bei, err, terms, ok = _kelvin_both_vec(nu, arr)
    v = float(ber[0] if component == 0 else bei[0])
    return EvalResult(v, float(err[0]), ok, terms,
                      note="" if ok else "kelvin series did not meet stopping rule")


def kelvin_ber(nu: float, x: float) -> EvalResult:
    """Kelvin function ber_nu(x) for real order, x in [0, 120]."""
    return _kelvin_scalar(nu, x, 0)


def kelvin_bei(nu: float, x: float) -> EvalResult:
    """Kelvin function bei_nu(x) for real order, x in [0, 120]."""
    return _kelvin_scalar(nu, x, 1)


def kelvin_ber_vec(nu: float, x: np.ndarray) -> np.ndarray:
    """Vectorized ber_nu over positive float64 arrays (integrand use)."""
    return _kelvin_both_vec(nu, x)[0]


def kelvin_bei_vec(nu: float, x: np.ndarray) -> np.ndarray:
    """Vectorized bei_nu over positive float64 arrays (integrand use)."""
    return _kelvin_both_vec(nu, x)[1]


# ----------------------------------------------------------------------
# Hypergeometric 0F1 / 0F3 by direct summation
# ----------------------------------------------------------------------

def _check_poles(bs, who: str) -> None:
    for b in bs:
        if b <= 0.0 and b == math.floor(b):
            raise DomainError(f"{who}: denominator parameter {b!r} is a nonpositive integer")


def _hyp0fq_vec(bs: tuple[float, ...], z: np.ndarray, max_terms: int, tol_scale: float = 1.0):
    """Sum sum_k z^k / (k! * prod (b)_k) over an array of z.

    Returns (value, abs_err, terms, converged), ``converged`` per element.
    Compensated summation; stop after three consecutive terms below
    eps*scale; cancellation is tracked through the running sum of |term|.
    """
    z = np.asarray(z, dtype=float)
    term = np.ones(z.shape, dtype=float)
    total = np.ones(z.shape, dtype=float)
    comp = np.zeros(z.shape, dtype=float)
    abs_sum = np.ones(z.shape, dtype=float)
    small_run = np.zeros(z.shape, dtype=np.int64)
    eps_stop = _EPS * tol_scale
    k = 0
    while k < max_terms:
        denom = float(k + 1)
        for b in bs:
            denom *= b + k
        term = term * z / denom
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        at = np.abs(term)
        abs_sum += at
        scale = np.maximum(np.abs(total), _EPS * abs_sum)
        small_run = np.where(at <= eps_stop * scale, small_run + 1, 0)
        k += 1
        if np.all(small_run >= 3):
            break
    err = np.abs(term) + 4.0 * _EPS * abs_sum
    return total, err, k, small_run >= 3


def _hyp0fq_values(bs: tuple[float, ...], z: np.ndarray, max_terms: int) -> np.ndarray:
    # NaN where the stopping rule was not met, so that an integrand never
    # consumes an unconverged partial sum as a value
    total, _, _, ok = _hyp0fq_vec(bs, z, max_terms)
    return total if ok.all() else np.where(ok, total, np.nan)


def hyp0f1_vec(c: float, z: np.ndarray, max_terms: int = 10000) -> np.ndarray:
    """Vectorized 0F1(;c;z) values, NaN where the series did not converge."""
    _check_poles((c,), "hyp0f1")
    return _hyp0fq_values((float(c),), z, max_terms)


def hyp0f3_vec(b1: float, b2: float, b3: float, z: np.ndarray,
               max_terms: int = 10000) -> np.ndarray:
    """Vectorized 0F3(;b1,b2,b3;z) values, NaN where the series did not converge."""
    _check_poles((b1, b2, b3), "hyp0f3")
    return _hyp0fq_values((float(b1), float(b2), float(b3)), z, max_terms)


def _hyp0fq_scalar(bs, z: float, max_terms: int, who: str) -> EvalResult:
    _check_poles(bs, who)
    z = float(z)
    if z < -1e6:
        raise DomainError(f"{who}: z={z!r} below the supported window z >= -1e6")
    v, err, terms, done = _hyp0fq_vec(tuple(float(b) for b in bs), np.array([z]), max_terms)
    ok = bool(done[0])
    return EvalResult(float(v[0]), float(err[0]), ok, terms,
                      note="" if ok else f"{who}: stopping rule not met in {max_terms} terms")


def hyp0f1(c: float, z: float, max_terms: int = 10000) -> EvalResult:
    """Generalized hypergeometric 0F1(;c;z) by direct summation."""
    return _hyp0fq_scalar((c,), z, max_terms, "hyp0f1")


def hyp0f3(b1: float, b2: float, b3: float, z: float, max_terms: int = 10000) -> EvalResult:
    """Generalized hypergeometric 0F3(;b1,b2,b3;z) by direct summation.

    For large negative z the series cancels heavily; ``abs_err_est``
    carries the cancellation penalty (last neglected term plus the
    eps-weighted running sum of term magnitudes).
    """
    return _hyp0fq_scalar((b1, b2, b3), z, max_terms, "hyp0f3")


# ----------------------------------------------------------------------
# Gauss 2F1
# ----------------------------------------------------------------------

def hyp2f1(a: float, b: float, c: float, z: float) -> EvalResult:
    """Gauss hypergeometric 2F1(a,b;c;z) for real parameters and z < 1.

    z in (-1, 1) is summed directly, z <= -1 goes through a linear
    transformation (handled inside the backing routine).  Accuracy is
    degraded but flagged on 0.9 < z < 1.
    """
    a, b, c, z = float(a), float(b), float(c), float(z)
    terminating = (a <= 0.0 and a == math.floor(a)) or (b <= 0.0 and b == math.floor(b))
    if c <= 0.0 and c == math.floor(c):
        raise DomainError(f"hyp2f1: parameter c={c!r} is a nonpositive-integer pole")
    if z >= 1.0 and not terminating:
        if c - a - b <= 0.0:
            raise DomainError(
                f"hyp2f1: series diverges at z={z!r} with c-a-b={c - a - b!r} <= 0"
            )
        if z > 1.0:
            raise DomainError(f"hyp2f1: real evaluation requires z <= 1, got z={z!r}")
    v = float(_sp.hyp2f1(a, b, c, z))
    if not math.isfinite(v):
        return EvalResult(v, math.inf, False, 1, note="hyp2f1: non-finite result")
    if 0.9 < z < 1.0 and not terminating:
        return EvalResult(v, abs(v) * 1e-9 + 1e-305, True, 1,
                          note="hyp2f1: degraded accuracy for 0.9 < z < 1")
    return _kernel_result(v)


# ----------------------------------------------------------------------
# Orthogonal polynomials (stable three-term recurrences)
# ----------------------------------------------------------------------

def laguerre(n: int, m: int, x: float) -> float:
    """Generalized Laguerre polynomial L_n^m(x); m = 0 gives L_n."""
    if n < 0 or m < 0:
        raise DomainError(f"laguerre: requires n, m >= 0, got n={n!r}, m={m!r}")
    x = float(x)
    p_prev = 1.0
    if n == 0:
        return p_prev
    p = 1.0 + m - x
    for k in range(1, n):
        p, p_prev = ((2 * k + m + 1 - x) * p - (k + m) * p_prev) / (k + 1), p
    return p


def gegenbauer(n: int, lam: float, x: float) -> float:
    """Gegenbauer (ultraspherical) polynomial C_n^lam(x), lam > -1/2, lam != 0.

    lam = 1/2 reproduces the Legendre polynomials.
    """
    if n < 0:
        raise DomainError(f"gegenbauer: requires n >= 0, got n={n!r}")
    lam = float(lam)
    if lam <= -0.5 or lam == 0.0:
        raise DomainError(f"gegenbauer: requires lam > -1/2 and lam != 0, got lam={lam!r}")
    x = float(x)
    p_prev = 1.0
    if n == 0:
        return p_prev
    p = 2.0 * lam * x
    for k in range(1, n):
        p, p_prev = (2.0 * (k + lam) * x * p - (k + 2.0 * lam - 1.0) * p_prev) / (k + 1), p
    return p


# array aliases used by integrand code throughout the package
jv_vec: Callable = _sp.jv
yv_vec: Callable = _sp.yv
iv_vec: Callable = _sp.iv
kv_vec: Callable = _sp.kv
ive_vec: Callable = _sp.ive
kve_vec: Callable = _sp.kve
