"""Scalar special-function kernels.

Gamma, Bessel J/Y/I/K of real order, Kelvin ber/bei of real order and
generalized hypergeometric series (0F1, 0F3, 2F1).

The classical kernels (gamma, J, Y, I, K, 2F1) and the Kelvin functions
of general order (J_nu along the ray arg z = 3*pi/4) are backed by
``scipy.special``; the six J/Y/I/K wrappers share one order and domain
check (``_bessel``), as ber and bei do (``_kelvin_scalar``).  The five
node-array entries ``bessel_*_vec`` share one dispatcher (``_bessel_vec``):
a scalar order 0, 1 or -1 takes scipy's order-specific Cephes routine
(``j0``, ``j1``, ``y0``, ``y1``, ``i0``, ``i1``, ``i0e``, ``i1e``, ``k0e``,
``k1e``; Moshier 1989), every other order the general AMOS routine (Amos,
ACM TOMS 644).  Cephes is 7-23x cheaper per point; its J/Y phase error
grows with x (at most 140 eps * sqrt(J^2 + Y^2) up to x = 1000, against 9
for AMOS), its I and scaled I/K stay within 6 eps relative.  Three more
entries take complex arrays, for integrands continued up a ray in the
upper half-plane: the scaled H1 (``hankel1e``), J (``jve``) and I
(``ive``).  Only the 0F1/0F3 series are summed here directly.  A scalar
0F1/0F3 is a term recurrence on Python floats summed by
:func:`_sum_series`, the one compensated loop of every scalar series
(``besselint.series`` imports it): it stops after three negligible terms
in a row and tracks cancellation in its error estimate.  A scalar
0F1/0F3 whose error estimate exceeds its value has no correct digit left
and is reported unconverged.  The vector
0F1/0F3 (``hyp0f1_vec``, ``hyp0f3_vec``) sum one block of 16 terms per
numpy pass over the whole argument array, with compensated summation of
the block sums and the same stopping rule checked on each block's last
three terms, so their term counts are multiples of the block size.

Every evaluation is pure and reentrant: no caches, no shared state.
Scalar results are returned as :class:`EvalResult`, which closed-form code
combines through :func:`scaled` and :func:`product`; the ``*_vec``
helpers operate on float64 arrays and are meant for integrand code.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import special as _sp

__all__ = [
    "EvalResult",
    "closed_form",
    "scaled",
    "product",
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
    "bessel_j_vec",
    "bessel_y_vec",
    "bessel_i_vec",
    "bessel_i_scaled_vec",
    "bessel_k_scaled_vec",
    "bessel_h1_scaled_vec",
    "bessel_j_scaled_vec",
    "bessel_i_scaled_complex_vec",
    "kelvin_ber",
    "kelvin_bei",
    "kelvin_vec",
    "kelvin_ber_vec",
    "kelvin_bei_vec",
    "hyp0f1",
    "hyp0f3",
    "hyp0f1_vec",
    "hyp0f3_vec",
    "hyp2f1",
]

_EPS = 2.0 ** -52

# Orders accepted by the Bessel/Kelvin wrappers.  The guaranteed accuracy
# window is nu in [-5, 20]; the wider range exists because the series
# evaluators walk orders nu + 2r upward.
ORDER_MIN = -120.0
ORDER_MAX = 1200.0

# Documented domain of the scalar Kelvin functions (the vector forms take
# any x >= 0).  |ber + i*bei| grows like exp(x/sqrt 2): about 3e35 at the edge.
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


def scaled(r: EvalResult, pref: float, rel: float = 0.0) -> EvalResult:
    """``pref * r``; ``rel`` adds a relative allowance for the prefactor."""
    v = pref * r.value
    return EvalResult(v, abs(pref) * r.abs_err_est + rel * abs(v) + 1e-300,
                      r.converged, r.terms_or_nodes_used, r.note)


def product(r: EvalResult, s: EvalResult) -> EvalResult:
    """``r * s`` with error |r| err(s) + |s| err(r); work counts add, notes join."""
    return EvalResult(r.value * s.value,
                      abs(r.value) * s.abs_err_est + abs(s.value) * r.abs_err_est,
                      r.converged and s.converged, r.terms_or_nodes_used + s.terms_or_nodes_used,
                      "; ".join(n for n in (r.note, s.note) if n))


def closed_form(value: float, rel: float = 5e-15) -> EvalResult:
    """A closed-form value with a relative error allowance; unconverged if non-finite."""
    v = float(value)
    if not math.isfinite(v):
        return EvalResult(v, math.inf, False, 1, note="non-finite kernel value")
    return EvalResult(v, abs(v) * rel + 1e-305, True, 1)


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


# ----------------------------------------------------------------------
# Bessel J, Y, I, K wrappers
# ----------------------------------------------------------------------

# Relative allowance of the AMOS scaled I and of K/scaled K.  Against mpmath
# on 300 x in [0.05, 60] at orders 0, 0.3, 1, 1.5, 2.7 and 5.25, ``ive`` is
# off by up to 223 eps (order 0.3, x near 18), ``kv`` and ``kve`` by up to
# 157 eps (order 0.3, x near 1.85); unscaled ``iv`` stays within 7.1 eps,
# inside the default closed-form allowance of 5e-15 (about 22.5 eps).
_AMOS_IK_REL = 256 * _EPS


def _bessel(fn, nu: float, x: float, who: str, positive: bool,
            rel: float = 5e-15) -> EvalResult:
    """``fn(nu, x)`` as a closed form of relative allowance ``rel`` after the
    order and domain checks.

    ``positive`` asks for x > 0 (Y, K); otherwise x >= 0, with x = 0 only
    for nu >= 0 (J, I).
    """
    nu = _check_order(nu, who)
    x = float(x)
    if positive:
        if x <= 0.0:
            raise DomainError(f"{who}: requires x > 0, got x={x!r}")
    elif x < 0.0:
        raise DomainError(f"{who}: requires x >= 0, got x={x!r}")
    elif x == 0.0 and nu < 0.0:
        raise DomainError(f"{who}: x = 0 is only admissible for nu >= 0")
    return closed_form(fn(nu, x), rel)


def bessel_j(nu: float, x: float) -> EvalResult:
    """Bessel function of the first kind J_nu(x), x >= 0."""
    return _bessel(_sp.jv, nu, x, "bessel_j", False)


def bessel_y(nu: float, x: float) -> EvalResult:
    """Bessel function of the second kind Y_nu(x), x > 0.

    Integer orders go through the limiting form internally, never the
    cot(nu*pi) combination.
    """
    return _bessel(_sp.yv, nu, x, "bessel_y", True)


def bessel_i(nu: float, x: float) -> EvalResult:
    """Modified Bessel function I_nu(x), x >= 0.

    Raises OverflowError once the unscaled value leaves binary64 range;
    :func:`bessel_i_scaled` stays finite for all x.
    """
    r = _bessel(_sp.iv, nu, x, "bessel_i", False)
    if math.isinf(r.value):
        raise OverflowError(
            f"bessel_i({float(nu)!r}, {float(x)!r}) exceeds binary64 range; "
            "use bessel_i_scaled"
        )
    return r


def bessel_i_scaled(nu: float, x: float) -> EvalResult:
    """exp(-x) * I_nu(x), overflow-safe for large x."""
    return _bessel(_sp.ive, nu, x, "bessel_i_scaled", False, _AMOS_IK_REL)


def bessel_k(nu: float, x: float) -> EvalResult:
    """Modified Bessel function K_nu(x), x > 0."""
    return _bessel(_sp.kv, nu, x, "bessel_k", True, _AMOS_IK_REL)


def bessel_k_scaled(nu: float, x: float) -> EvalResult:
    """exp(x) * K_nu(x), underflow-safe for large x."""
    return _bessel(_sp.kve, nu, x, "bessel_k_scaled", True, _AMOS_IK_REL)


# ----------------------------------------------------------------------
# Bessel J, Y, I, K over node arrays (integrand use)
# ----------------------------------------------------------------------

def _by_order(c0, c1, reflect: bool) -> dict:
    # the Cephes routine of each order 0, 1, -1; C_{-1} = -C_1 for J and Y
    # (``reflect``), +C_1 for I and K
    return {0: c0, 1: c1, -1: (lambda x: -c1(x)) if reflect else c1}


_J_CEPHES = _by_order(_sp.j0, _sp.j1, True)
_Y_CEPHES = _by_order(_sp.y0, _sp.y1, True)
_I_CEPHES = _by_order(_sp.i0, _sp.i1, False)
_IE_CEPHES = _by_order(_sp.i0e, _sp.i1e, False)
_KE_CEPHES = _by_order(_sp.k0e, _sp.k1e, False)


def _bessel_vec(amos, cephes: dict, nu, x):
    """``amos(nu, x)``, or the Cephes routine when ``nu`` is a scalar 0, 1 or -1.

    No order or domain check: the values, NaN and infinities are those of
    the backing routine.
    """
    if isinstance(nu, (int, float, np.integer, np.floating)):
        c = cephes.get(nu)
        if c is not None:
            return c(x)
    return amos(nu, x)


def bessel_j_vec(nu, x: np.ndarray) -> np.ndarray:
    """J_nu over a real float64 array.

    A scalar order 0 or +-1 takes Cephes ``j0``/``j1``; every other order,
    and an array order, takes AMOS ``jv``.  Measured against mpmath, the
    Cephes error in units of eps * sqrt(J^2 + Y^2) is at most 12 on
    (0, 60], 36 up to 200, 140 up to 1000 and 930 at 3000 (its phase
    drifts); AMOS ``jv`` at these orders stays within 9 over the whole range.
    """
    return _bessel_vec(_sp.jv, _J_CEPHES, nu, x)


def bessel_y_vec(nu, x: np.ndarray) -> np.ndarray:
    """Y_nu over a real float64 array: Cephes ``y0``/``y1`` at a scalar order
    0 or +-1, else AMOS ``yv``; accuracy as :func:`bessel_j_vec`.  -inf at
    x = 0 and NaN at x < 0, as ``yv``."""
    return _bessel_vec(_sp.yv, _Y_CEPHES, nu, x)


def bessel_i_vec(nu, x: np.ndarray) -> np.ndarray:
    """I_nu over a real float64 array: Cephes ``i0``/``i1`` at a scalar order
    0 or +-1 (within 6 eps relative), else AMOS ``iv``."""
    return _bessel_vec(_sp.iv, _I_CEPHES, nu, x)


def bessel_i_scaled_vec(nu, x: np.ndarray) -> np.ndarray:
    """exp(-|x|) I_nu(x) over a real float64 array: Cephes ``i0e``/``i1e`` at a
    scalar order 0 or +-1 (within 6 eps relative; 0 at x = +-inf, where
    ``ive`` gives NaN), else AMOS ``ive``."""
    return _bessel_vec(_sp.ive, _IE_CEPHES, nu, x)


def bessel_k_scaled_vec(nu, x: np.ndarray) -> np.ndarray:
    """exp(x) K_nu(x) over a real float64 array: Cephes ``k0e``/``k1e`` at a
    scalar order 0 or +-1 (within 6 eps relative; 0 at x = inf, where
    ``kve`` gives NaN), else AMOS ``kve``.  inf at x = 0, NaN at x < 0."""
    return _bessel_vec(_sp.kve, _KE_CEPHES, nu, x)


def bessel_h1_scaled_vec(nu: float, z: np.ndarray) -> np.ndarray:
    """H1_nu(z) * exp(-i z) over a complex array (AMOS ``hankel1e``).

    The scaling removes the growth and the oscillation of H1 along a ray in
    the upper half-plane, where H1_nu(z) ~ sqrt(2/(pi z)) exp(i z)."""
    return _sp.hankel1e(nu, z)


def bessel_j_scaled_vec(nu: float, z: np.ndarray) -> np.ndarray:
    """J_nu(z) * exp(-|Im z|) over a complex array (AMOS ``jve``)."""
    return _sp.jve(nu, z)


def bessel_i_scaled_complex_vec(nu: float, z: np.ndarray) -> np.ndarray:
    """I_nu(z) * exp(-|Re z|) over a complex array (AMOS ``ive``)."""
    return _sp.ive(nu, z)


# ----------------------------------------------------------------------
# Kelvin functions of general real order
# ----------------------------------------------------------------------

_KELVIN_RAY = cmath.exp(0.75j * math.pi)


def kelvin_vec(nu: float, x: np.ndarray) -> np.ndarray:
    """ber_nu(x) + i*bei_nu(x) = J_nu(x * exp(3*pi*i/4)) over nonnegative float64
    arrays, by scipy's complex jv: both members from one call (integrand use)."""
    return _sp.jv(nu, np.asarray(x, dtype=float) * _KELVIN_RAY)


def _kelvin_scalar(nu: float, x: float, component: int) -> EvalResult:
    nu = _check_order(nu, "kelvin")
    x = float(x)
    if x < 0.0:
        raise DomainError(f"kelvin: requires x >= 0, got x={x!r}")
    if x > _KELVIN_X_MAX:
        raise DomainError(f"kelvin: x={x!r} beyond the supported domain (x <= {_KELVIN_X_MAX})")
    if x == 0.0:
        if nu < 0.0 and nu != math.floor(nu):
            raise DomainError("kelvin: x = 0 is only admissible for nu >= 0 or integer nu")
        if component == 0:
            return EvalResult(1.0 if nu == 0.0 else 0.0, 0.0, True, 1)
        return EvalResult(0.0, 0.0, True, 1)
    w = complex(kelvin_vec(nu, x))
    v = w.real if component == 0 else w.imag
    if not cmath.isfinite(w):
        return EvalResult(v, math.inf, False, 1, note="kelvin: non-finite jv value")
    # Measured against mpmath for nu in [-119.5, 600], x in [0.05, 120]:
    # worst 1.2e-13*|w|.  A component near its own zero carries the
    # modulus's absolute error; jv flushes |w| below about 1e-304 to zero.
    return EvalResult(v, 3e-13 * abs(w) + 1e-300, True, 1)


def kelvin_ber(nu: float, x: float) -> EvalResult:
    """Kelvin function ber_nu(x) for real order, x in [0, 120]."""
    return _kelvin_scalar(nu, x, 0)


def kelvin_bei(nu: float, x: float) -> EvalResult:
    """Kelvin function bei_nu(x) for real order, x in [0, 120]."""
    return _kelvin_scalar(nu, x, 1)


def kelvin_ber_vec(nu: float, x: np.ndarray) -> np.ndarray:
    """Vectorized ber_nu over nonnegative float64 arrays (integrand use)."""
    return kelvin_vec(nu, x).real


def kelvin_bei_vec(nu: float, x: np.ndarray) -> np.ndarray:
    """Vectorized bei_nu over nonnegative float64 arrays (integrand use)."""
    return kelvin_vec(nu, x).imag


# ----------------------------------------------------------------------
# Hypergeometric 0F1 / 0F3 by direct summation
# ----------------------------------------------------------------------

def _check_poles(bs, who: str) -> None:
    for b in bs:
        if b <= 0.0 and b == math.floor(b):
            raise DomainError(f"{who}: denominator parameter {b!r} is a nonpositive integer")


# Series terms formed and summed per numpy pass by _hyp0fq_vec.
_BLOCK = 16


def _hyp0fq_vec(bs: tuple[float, ...], z: np.ndarray, max_terms: int):
    """Sum sum_k z^k / (k! * prod (b)_k) over an array of z, a block of terms at a time.

    Each parameter b is a float or an array; z and the parameters broadcast
    against each other, and each element of the broadcast shape sums its
    own series.  Returns (value, abs_err, terms, converged) in that shape,
    ``converged`` per element; ``terms`` is shared by every element.  With
    scalar parameters one denominator column serves every element; with an
    array parameter each element has its own.
    A block of B = ``_BLOCK`` terms is one (B, n) array: the ratios
    z / ((k+1) prod(b+k)) from one outer division, turned into terms by one
    cumulative product down the block.  One reduction per block gives the
    block sums, which join the running total through a compensated (Kahan)
    step; a second reduction adds the block's |term| to the running sum of
    magnitudes that tracks cancellation.  The series stops after the first block whose
    last three terms are below eps*max(|total|, eps*sum|term|) for every
    element, so ``terms`` is a multiple of B unless ``max_terms`` (a hard
    budget) cut the last block short.  An element whose total overflowed
    (inf or NaN) stops there too, unconverged.  The error is |last term|
    plus 4*eps*sum|term|.

    That error is an estimate, not a bound.  Only the block sums are
    compensated; the B terms inside a block are added plainly, whose worst
    case is (B-1)*eps*sum|term|, and each term already carries the rounding
    of its product chain.  Against mpmath at 40 digits on the inputs of
    ``test_hyp0fq_within_error_estimate_against_mpmath`` (140 points, z down
    to -1e5) the worst |error|/estimate is 0.53.

    Working set: two (B, n) float arrays (the terms and their magnitudes),
    about 256 bytes per element of z; the largest n measured for speed is
    1500 (the ``kernels`` benchmark workload).
    """
    z = np.asarray(z, dtype=float)
    # (k+1) * prod(b+k) is the product over the parameters (1, *bs) of (b+k):
    # shifts[j, i] holds param_i + j for the block offset j, along a last
    # axis of one shared column or of one column per element
    if np.ndarray in map(type, bs):
        z = np.full(np.broadcast(z, *bs).shape, z)
        params = np.empty((1 + len(bs), *z.shape))
        for i, b in enumerate((1.0, *bs)):
            params[i] = b
        params = params.reshape(1 + len(bs), -1)
    else:
        params = np.array((1.0, *bs))[:, None]
    shifts = np.arange(_BLOCK, dtype=float)[:, None, None] + params
    shape = z.shape
    z = z.ravel()
    term, comp = 1.0, 0.0
    total = np.ones(z.shape, dtype=float)
    abs_sum = np.ones(z.shape, dtype=float)
    last = np.full((3, z.size), np.inf)  # |term| of the last three terms
    busy = np.ones(z.shape, dtype=bool)
    k = 0
    while k < max_terms:
        m = min(_BLOCK, max_terms - k)
        denom = np.multiply.reduce(shifts[:m] + k, axis=1)
        terms = z / denom  # row j: ratio of term k+j+1 to term k+j
        terms[0] *= term
        np.multiply.accumulate(terms, axis=0, out=terms)
        term = terms[-1]
        y = np.add.reduce(terms, axis=0) - comp
        t = total + y
        comp = (t - total) - y
        total = t
        aterms = np.abs(terms)
        abs_sum += np.add.reduce(aterms, axis=0)
        last = aterms[-3:] if m >= 3 else np.concatenate((last, aterms))[-3:]
        k += m
        scale = np.maximum(np.abs(total), _EPS * abs_sum)
        # NaN compares False, so an element whose sum overflowed stops here too
        busy = np.maximum.reduce(last, axis=0) > _EPS * scale
        if not np.logical_or.reduce(busy):
            break
    err = np.abs(term) + 4.0 * _EPS * abs_sum
    done = ~busy & np.isfinite(total)
    return total.reshape(shape), err.reshape(shape), k, done.reshape(shape)


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


def _sum_series(terms: Iterable[tuple], max_terms: int, who: str) -> EvalResult:
    """Sum the ``(term, size)`` pairs of a series, at most ``max_terms`` of them.

    ``size`` is |term| or a bound on it.  The sum is compensated (Kahan) and
    stops after three sizes in a row at or below eps*max(|total|,
    eps*sum|term|), the rule of :func:`_hyp0fq_vec`.  The error is
    |last term| + 4*eps*sum|term|, with the eps of the terms' dtype, so a
    longdouble series reports its own roundoff.  ``max_terms`` is a hard
    budget; a series that runs out of it, or whose terms overflow (an
    infinite error), comes back unconverged, with a note naming ``who``.
    """
    total = comp = abs_sum = last = 0.0
    run = n = 0
    eps, tiny = _EPS, _EPS * 1e-305  # locals: this loop is the hot path of every series
    for term, size in itertools.islice(terms, max_terms):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        last = abs(term)
        abs_sum += last
        n += 1
        # size <= eps*max(|total|, eps*abs_sum, 1e-305), without a max() call
        if size <= eps * abs(total) or size <= eps * (eps * abs_sum) or size <= tiny:
            run += 1
            if run == 3:
                break
        else:
            run = 0
    eps = float(np.finfo(total).eps) if isinstance(total, np.floating) else _EPS
    err = float(last + 4.0 * eps * abs_sum)
    if run < 3:
        note = f"{who}: stopping rule not met in {max_terms} terms"
    elif not math.isfinite(err):
        note = f"{who}: terms overflowed"
    else:
        note = ""
    return EvalResult(float(total), err, not note, n, note)


def _flag_cancelled(r: EvalResult, who: str) -> EvalResult:
    """r, reported unconverged when its error estimate exceeds its value.

    Such a series has cancelled past its working precision: no digit of the
    value is correct, however well the stopping rule was met.
    """
    if r.converged and r.abs_err_est > abs(r.value):
        note = f"{who}: cancellation left no correct digit (error estimate {r.abs_err_est:.1e})"
        return EvalResult(r.value, r.abs_err_est, False, r.terms_or_nodes_used, note)
    return r


def _hyp0fq_terms(bs: tuple[float, ...], z: float):
    # t_0 = 1, t_{k+1} = t_k * z / ((k+1) prod(b+k)), the recurrence of
    # _hyp0fq_vec with its denominator multiplied in the same order
    term, k = 1.0, 0.0
    while True:
        yield term, abs(term)
        denom = k + 1.0
        for b in bs:
            denom *= b + k
        term *= z / denom
        k += 1.0


def _hyp0fq_scalar(bs, z: float, max_terms: int, who: str) -> EvalResult:
    _check_poles(bs, who)
    z = float(z)
    if z < -1e6:
        raise DomainError(f"{who}: z={z!r} below the supported window z >= -1e6")
    return _flag_cancelled(_sum_series(_hyp0fq_terms(tuple(map(float, bs)), z), max_terms, who),
                           who)


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
    return closed_form(v)
