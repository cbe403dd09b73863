"""Kelvin-function identities: the four K0/e^-t kernel representations,
their four inverses, and the general-order Laplace-type identity with its
two integer-order specializations.

The general-order identity is encoded with the sign combination
(-sin, +cos) on (ber, bei): solving for the coefficients numerically
across parameter points reproduces exactly -sin(3 pi nu/2) and
+cos(3 pi nu/2), and the odd-integer case follows with (-1)^n rather
than the printed (-1)^(n+1).  The even-integer case is unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from ..specfun import (EvalResult, bessel_h1_scaled_vec, bessel_i, bessel_i_scaled_complex_vec,
                       bessel_i_scaled_vec, bessel_i_vec, bessel_j, bessel_j_scaled_vec,
                       bessel_j_vec, bessel_k, bessel_k_scaled_vec, closed_form, kelvin_bei,
                       kelvin_bei_vec, kelvin_ber, kelvin_ber_vec, kelvin_vec, product,
                       scaled)
from ..quad import integrate_semiinf_decaying, integrate_semiinf_oscillatory
from ._records import Budgets, Constraint, IdentityRecord, ParamSpace


# ----------------------------------------------------------------------
# I-2.15 .. I-2.18: closed forms vs K0 / e^-t kernel integrals
# ----------------------------------------------------------------------
# The ber/bei argument grows like sqrt(t), so the integrand keeps a net
# exponential decay; rate 0.85 leaves margin for that growth.

_KELVIN_RATE = 0.85


def _ky_rhs(p, b: Budgets, tol: float, bei: bool, k0: bool) -> EvalResult:
    # int_0^inf w(t) ber|bei(a sqrt((1+y^2) t)) v(yt) dt with w = K_0 and
    # v = cos|sin (I-2.15, I-2.16), or w = e^-t and v = J_0 (I-2.17, I-2.18)
    a, y = p["a"], p["y"]
    c = a * math.sqrt(1 + y * y)

    def fn(t):
        kel = (kelvin_bei_vec if bei else kelvin_ber_vec)(0.0, c * np.sqrt(t))
        if k0:
            return (bessel_k_scaled_vec(0, t) * np.exp(-t) * kel
                    * (np.sin if bei else np.cos)(y * t))
        return np.exp(-t) * kel * bessel_j_vec(0, y * t)

    return integrate_semiinf_decaying(fn, 0.0, _KELVIN_RATE, tol, max_evals=b.max_evals)


def _i215_lhs(p, b: Budgets, tol: float) -> EvalResult:
    a, y = p["a"], p["y"]
    return scaled(bessel_j(0, 0.25 * a * a),
                  0.5 * math.pi / math.sqrt(1 + y * y) * math.cosh(0.25 * a * a * y))


def _i215_rhs(p, b: Budgets, tol: float) -> EvalResult:
    return _ky_rhs(p, b, tol, bei=False, k0=True)


def _i216_lhs(p, b: Budgets, tol: float) -> EvalResult:
    a, y = p["a"], p["y"]
    return scaled(bessel_j(0, 0.25 * a * a),
                  0.5 * math.pi / math.sqrt(1 + y * y) * math.sinh(0.25 * a * a * y))


def _i216_rhs(p, b: Budgets, tol: float) -> EvalResult:
    return _ky_rhs(p, b, tol, bei=True, k0=True)


def _i217_lhs(p, b: Budgets, tol: float) -> EvalResult:
    a, y = p["a"], p["y"]
    return scaled(bessel_i(0, 0.25 * a * a * y), math.cos(0.25 * a * a) / math.sqrt(1 + y * y))


def _i217_rhs(p, b: Budgets, tol: float) -> EvalResult:
    return _ky_rhs(p, b, tol, bei=False, k0=False)


def _i218_lhs(p, b: Budgets, tol: float) -> EvalResult:
    a, y = p["a"], p["y"]
    return scaled(bessel_i(0, 0.25 * a * a * y), math.sin(0.25 * a * a) / math.sqrt(1 + y * y))


def _i218_rhs(p, b: Budgets, tol: float) -> EvalResult:
    return _ky_rhs(p, b, tol, bei=True, k0=False)


def _ky_space() -> ParamSpace:
    return ParamSpace(
        constraints=(
            Constraint("a > 0", lambda p: p["a"] > 0.0),
            Constraint("y > 0", lambda p: p["y"] > 0.0),
        ),
        default_grid=(
            {"a": 0.5, "y": 0.3},
            {"a": 0.5, "y": 1.0},
            {"a": 1.0, "y": 1.0},
            {"a": 1.0, "y": 2.0},
        ),
        hard_points=({"a": 1.4, "y": 2.0},),
    )


I_2_15 = IdentityRecord(
    id="I-2.15",
    statement=("(pi/2)(1+y^2)^(-1/2) J_0(a^2/4) cosh(a^2 y/4) = "
               "int_0^inf K_0(t) ber(a sqrt((1+y^2) t)) cos(yt) dt"),
    family="Kelvin representation",
    params=("a", "y"), space=_ky_space(),
    lhs=_i215_lhs, rhs=_i215_rhs,
    lhs_route="closed-form", rhs_route="quadrature:decaying",
    difficulty="easy",
)

I_2_16 = IdentityRecord(
    id="I-2.16",
    statement=("(pi/2)(1+y^2)^(-1/2) J_0(a^2/4) sinh(a^2 y/4) = "
               "int_0^inf K_0(t) bei(a sqrt((1+y^2) t)) sin(yt) dt"),
    family="Kelvin representation",
    params=("a", "y"), space=_ky_space(),
    lhs=_i216_lhs, rhs=_i216_rhs,
    lhs_route="closed-form", rhs_route="quadrature:decaying",
    difficulty="easy",
)

I_2_17 = IdentityRecord(
    id="I-2.17",
    statement=("(1+y^2)^(-1/2) I_0(a^2 y/4) cos(a^2/4) = "
               "int_0^inf e^(-t) ber(a sqrt((1+y^2) t)) J_0(yt) dt"),
    family="Kelvin representation",
    params=("a", "y"), space=_ky_space(),
    lhs=_i217_lhs, rhs=_i217_rhs,
    lhs_route="closed-form", rhs_route="quadrature:decaying",
    difficulty="easy",
)

I_2_18 = IdentityRecord(
    id="I-2.18",
    statement=("(1+y^2)^(-1/2) I_0(a^2 y/4) sin(a^2/4) = "
               "int_0^inf e^(-t) bei(a sqrt((1+y^2) t)) J_0(yt) dt"),
    family="Kelvin representation",
    params=("a", "y"), space=_ky_space(),
    lhs=_i218_lhs, rhs=_i218_rhs,
    lhs_route="closed-form", rhs_route="quadrature:decaying",
    difficulty="easy",
)


# ----------------------------------------------------------------------
# I-2.19 .. I-2.22: inverse representations (oscillatory)
# ----------------------------------------------------------------------

def _kt_lhs(p, bei: bool, weight: EvalResult) -> EvalResult:
    # weight * ber|bei(a sqrt(t)): the left sides of I-2.19 .. I-2.22
    return product(weight, (kelvin_bei if bei else kelvin_ber)(0.0, p["a"] * math.sqrt(p["t"])))


# Past the foot x0 = max(pi/t, 1) of the ray, the kernel is the real part of
# a continuation that decays like e^(-t Im z): cos(ty) = Re e^(ity),
# sin(ty) = Re(-i e^(ity)) and J_0(ty) = Re H1_0(ty).  The other factors
# continue analytically to Re z >= 1, where |1 + z^2| >= 1 keeps their
# essential singularities at z = +-i out of reach; their arguments stay
# bounded there, so the scaled kernels take back their exponentials.

def _i219_rhs_core(p, b: Budgets, tol: float, odd: bool) -> EvalResult:
    # int_0^inf (1+y^2)^(-1/2) J_0(a^2/(4(1+y^2))) cosh|sinh(a^2 y/(4(1+y^2))) cos|sin(ty) dy,
    # the right side of I-2.19 (cosh, cos) and of I-2.20 (sinh, sin)
    a, t = p["a"], p["t"]
    q = 0.25 * a * a
    hyp, trig = (np.sinh, np.sin) if odd else (np.cosh, np.cos)

    def fn(y):
        w = 1 + y * y
        return w ** -0.5 * bessel_j_vec(0, q / w) * hyp(q * y / w) * trig(t * y)

    x0 = max(math.pi / t, 1.0)
    phase = (-1j if odd else 1.0) * np.exp(1j * t * x0)

    def fc(z):
        w = 1 + z * z
        u = q / w
        return (w ** -0.5 * bessel_j_scaled_vec(0, u) * np.exp(np.abs(u.imag)) * hyp(q * z / w)
                * phase * np.exp(-t * z.imag))

    return integrate_semiinf_oscillatory(fn, 0.0, x0, fc, t, tol, max_evals=b.max_evals)


def _i221_rhs_core(p, b: Budgets, tol: float, odd: bool) -> EvalResult:
    # int_0^inf y (1+y^2)^(-1/2) I_0(a^2 y/(4(1+y^2))) cos|sin(a^2/(4(1+y^2))) J_0(ty) dy,
    # the right side of I-2.21 (cos) and of I-2.22 (sin)
    a, t = p["a"], p["t"]
    q = 0.25 * a * a
    trig = np.sin if odd else np.cos

    def fn(y):
        w = 1 + y * y
        return y * w ** -0.5 * bessel_i_vec(0, q * y / w) * trig(q / w) * bessel_j_vec(0, t * y)

    x0 = max(math.pi / t, 1.0)
    phase = np.exp(1j * t * x0)

    def fc(z):
        w = 1 + z * z
        u = q * z / w
        return (z * w ** -0.5 * bessel_i_scaled_complex_vec(0, u) * np.exp(np.abs(u.real))
                * trig(q / w) * bessel_h1_scaled_vec(0, t * z) * phase * np.exp(-t * z.imag))

    return integrate_semiinf_oscillatory(fn, 0.0, x0, fc, t, tol, max_evals=b.max_evals)


def _i219_lhs(p, b: Budgets, tol: float) -> EvalResult:
    return _kt_lhs(p, bei=False, weight=bessel_k(0, p["t"]))


def _i219_rhs(p, b: Budgets, tol: float) -> EvalResult:
    return _i219_rhs_core(p, b, tol, odd=False)


def _i220_lhs(p, b: Budgets, tol: float) -> EvalResult:
    return _kt_lhs(p, bei=True, weight=bessel_k(0, p["t"]))


def _i220_rhs(p, b: Budgets, tol: float) -> EvalResult:
    return _i219_rhs_core(p, b, tol, odd=True)


def _i221_lhs(p, b: Budgets, tol: float) -> EvalResult:
    return _kt_lhs(p, bei=False, weight=closed_form(math.exp(-p["t"]) / p["t"]))


def _i221_rhs(p, b: Budgets, tol: float) -> EvalResult:
    return _i221_rhs_core(p, b, tol, odd=False)


def _i222_lhs(p, b: Budgets, tol: float) -> EvalResult:
    return _kt_lhs(p, bei=True, weight=closed_form(math.exp(-p["t"]) / p["t"]))


def _i222_rhs(p, b: Budgets, tol: float) -> EvalResult:
    return _i221_rhs_core(p, b, tol, odd=True)


def _kt_space() -> ParamSpace:
    return ParamSpace(
        constraints=(
            Constraint("a > 0", lambda p: p["a"] > 0.0),
            Constraint("t > 0", lambda p: p["t"] > 0.0),
        ),
        default_grid=(
            {"a": 0.5, "t": 0.3},
            {"a": 0.5, "t": 1.0},
            {"a": 1.0, "t": 1.0},
            {"a": 1.0, "t": 2.0},
        ),
        hard_points=({"a": 1.0, "t": 0.3},),
    )


I_2_19 = IdentityRecord(
    id="I-2.19",
    statement=("K_0(t) ber(a sqrt(t)) = int_0^inf (1+y^2)^(-1/2) "
               "J_0(a^2/(4(1+y^2))) cosh(a^2 y/(4(1+y^2))) cos(ty) dy"),
    family="Kelvin representation",
    params=("a", "t"), space=_kt_space(),
    lhs=_i219_lhs, rhs=_i219_rhs,
    lhs_route="closed-form", rhs_route="quadrature:oscillatory",
    difficulty="oscillatory",
)

I_2_20 = IdentityRecord(
    id="I-2.20",
    statement=("K_0(t) bei(a sqrt(t)) = int_0^inf (1+y^2)^(-1/2) "
               "J_0(a^2/(4(1+y^2))) sinh(a^2 y/(4(1+y^2))) sin(ty) dy"),
    family="Kelvin representation",
    params=("a", "t"), space=_kt_space(),
    lhs=_i220_lhs, rhs=_i220_rhs,
    lhs_route="closed-form", rhs_route="quadrature:oscillatory",
    difficulty="oscillatory",
)

I_2_21 = IdentityRecord(
    id="I-2.21",
    statement=("(1/t) e^(-t) ber(a sqrt(t)) = int_0^inf y (1+y^2)^(-1/2) "
               "I_0(a^2 y/(4(1+y^2))) cos(a^2/(4(1+y^2))) J_0(ty) dy"),
    family="Kelvin representation",
    params=("a", "t"), space=_kt_space(),
    lhs=_i221_lhs, rhs=_i221_rhs,
    lhs_route="closed-form", rhs_route="quadrature:oscillatory",
    difficulty="oscillatory",
)

I_2_22 = IdentityRecord(
    id="I-2.22",
    statement=("(1/t) e^(-t) bei(a sqrt(t)) = int_0^inf y (1+y^2)^(-1/2) "
               "I_0(a^2 y/(4(1+y^2))) sin(a^2/(4(1+y^2))) J_0(ty) dy"),
    family="Kelvin representation",
    params=("a", "t"), space=_kt_space(),
    lhs=_i222_lhs, rhs=_i222_rhs,
    lhs_route="closed-form", rhs_route="quadrature:oscillatory",
    difficulty="oscillatory",
)


# ----------------------------------------------------------------------
# I-K1 family: general-order Kelvin under an exponential Laplace kernel
# ----------------------------------------------------------------------

def _k1_core(nu: float, p, kelvin, b: Budgets, tol: float) -> EvalResult:
    # int_0^inf e^(-x) I_nu(x sin th) kelvin(2 cos th sqrt(ux)) dx, the left side
    # of I-K1, I-K1a and I-K1b; ``kelvin`` maps the argument array to the
    # member's ber/bei combination
    th, u = p["theta"], p["u"]
    sn, cn = math.sin(th), math.cos(th)
    lam = 1.0 - sn

    def fn(x):
        return (bessel_i_scaled_vec(nu, x * sn) * np.exp(-lam * x)
                * kelvin(2.0 * cn * np.sqrt(u * x)))

    return integrate_semiinf_decaying(fn, 0.0, lam, tol, max_evals=b.max_evals)


def _k1_lhs(p, b: Budgets, tol: float) -> EvalResult:
    nu = p["nu"]
    s3, c3 = math.sin(1.5 * math.pi * nu), math.cos(1.5 * math.pi * nu)

    def kelvin(z):
        w = kelvin_vec(2 * nu, z)  # ber + i bei from one jv call
        return c3 * w.imag - s3 * w.real

    return _k1_core(nu, p, kelvin, b, tol)


def _k1_rhs(p, b: Budgets, tol: float) -> EvalResult:
    nu, th, u = p["nu"], p["theta"], p["u"]
    return scaled(bessel_j(nu, u * math.sin(th)), math.sin(u) / math.cos(th))


I_K1 = IdentityRecord(
    id="I-K1",
    statement=("int_0^inf e^(-x) I_nu(x sin th) [cos(3 pi nu/2) bei_2nu(2 cos th sqrt(ux)) "
               "- sin(3 pi nu/2) ber_2nu(2 cos th sqrt(ux))] dx = sec th sin u J_nu(u sin th)"),
    family="Kelvin representation",
    params=("nu", "theta", "u"),
    space=ParamSpace(
        constraints=(
            Constraint("0 < theta < pi/2 (with margin)",
                       lambda p: 0.0 < p["theta"] <= 0.5 * math.pi - 1e-2),
            Constraint("nu >= 0", lambda p: p["nu"] >= 0.0),
            Constraint("u > 0", lambda p: p["u"] > 0.0),
        ),
        default_grid=(
            {"nu": 0.25, "theta": 0.5, "u": 1.0},
            {"nu": 1.0 / 3.0, "theta": 0.8, "u": 1.6},
            {"nu": 0.75, "theta": 0.9, "u": 0.8},
            {"nu": 1.5, "theta": 0.6, "u": 2.0},
        ),
        hard_points=({"nu": 0.5, "theta": 1.2, "u": 1.6},),
    ),
    lhs=_k1_lhs, rhs=_k1_rhs,
    lhs_route="quadrature:decaying", rhs_route="closed-form",
    difficulty="easy",
)


def _k1n_space() -> ParamSpace:
    return ParamSpace(
        constraints=(
            Constraint("n integer >= 0",
                       lambda p: p["n"] >= 0.0 and float(p["n"]).is_integer()),
            Constraint("0 < theta < pi/2 (with margin)",
                       lambda p: 0.0 < p["theta"] <= 0.5 * math.pi - 1e-2),
            Constraint("u > 0", lambda p: p["u"] > 0.0),
        ),
        default_grid=(
            {"n": 0, "theta": 0.5, "u": 1.0},
            {"n": 0, "theta": 0.9, "u": 1.7},
            {"n": 1, "theta": 0.5, "u": 1.0},
        ),
        hard_points=({"n": 1, "theta": 1.1, "u": 2.0},),
    )


def _k1a_lhs(p, b: Budgets, tol: float) -> EvalResult:
    n = int(p["n"])
    return _k1_core(2 * n, p, lambda z: kelvin_bei_vec(4 * n, z), b, tol)


def _k1a_rhs(p, b: Budgets, tol: float) -> EvalResult:
    n, th, u = int(p["n"]), p["theta"], p["u"]
    return scaled(bessel_j(2 * n, u * math.sin(th)), (-1.0) ** n * math.sin(u) / math.cos(th))


I_K1A = IdentityRecord(
    id="I-K1a",
    statement=("int_0^inf e^(-x) I_2n(x sin th) bei_4n(2 cos th sqrt(ux)) dx = "
               "(-1)^n sec th sin u J_2n(u sin th)"),
    family="Kelvin representation",
    params=("n", "theta", "u"),
    space=_k1n_space(),
    lhs=_k1a_lhs, rhs=_k1a_rhs,
    lhs_route="quadrature:decaying", rhs_route="closed-form",
    difficulty="easy",
)


def _k1b_lhs(p, b: Budgets, tol: float) -> EvalResult:
    n = int(p["n"])
    return _k1_core(2 * n + 1, p, lambda z: kelvin_ber_vec(4 * n + 2, z), b, tol)


def _k1b_rhs(p, b: Budgets, tol: float) -> EvalResult:
    n, th, u = int(p["n"]), p["theta"], p["u"]
    return scaled(bessel_j(2 * n + 1, u * math.sin(th)),
                  (-1.0) ** n * math.sin(u) / math.cos(th))


I_K1B = IdentityRecord(
    id="I-K1b",
    statement=("int_0^inf e^(-x) I_(2n+1)(x sin th) ber_(4n+2)(2 cos th sqrt(ux)) dx = "
               "(-1)^n sec th sin u J_(2n+1)(u sin th)"),
    family="Kelvin representation",
    params=("n", "theta", "u"),
    space=_k1n_space(),
    lhs=_k1b_lhs, rhs=_k1b_rhs,
    lhs_route="quadrature:decaying", rhs_route="closed-form",
    difficulty="easy",
)


RECORDS = (I_2_15, I_2_16, I_2_17, I_2_18, I_2_19, I_2_20, I_2_21, I_2_22,
           I_K1, I_K1A, I_K1B)
