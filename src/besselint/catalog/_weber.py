"""Weber exponential integrals and the triple-Bessel Laplace transforms.

All e^(-p x^2)-type integrals are evaluated under the substitution
u = x^2, which turns them into plain exponential-decay integrals for the
semi-infinite engine.
"""

from __future__ import annotations

import math

import numpy as np

from .. import series as se
from ..specfun import (EvalResult, bessel_i_scaled, bessel_i_scaled_vec, bessel_j, bessel_j_vec,
                       bessel_k_scaled_vec, bessel_y_vec, closed_form, gamma, hyp0f3_vec, scaled)
from ..quad import integrate_semiinf_decaying
from ._records import _M, Budgets, Constraint, IdentityRecord, ParamSpace


def _laplace_j(scale: float, rate: float, factors: tuple, b: Budgets,
               tol: float) -> EvalResult:
    """int_0^inf scale e^(-rate x) prod(factors) dx by the decaying engine.

    A factor (m, beta) is J_m(beta sqrt(x)) and a bare number p is x^p; they
    multiply in the order given, so each member keeps its own rounding.
    """
    def fn(x):
        sx = np.sqrt(x)
        out = scale * np.exp(-rate * x)
        for f in factors:
            out = out * (bessel_j_vec(f[0], f[1] * sx) if isinstance(f, tuple) else x ** f)
        return out

    return integrate_semiinf_decaying(fn, 0.0, rate, tol, max_evals=b.max_evals)


# ----------------------------------------------------------------------
# I-2.31  Gaussian-weighted single Bessel moment
# ----------------------------------------------------------------------

def _i231_lhs(p, b: Budgets, tol: float) -> EvalResult:
    k = p["nu"] + 2 * p["r"]
    return _laplace_j(0.5, p["p"], (0.5 * k, (k, p["c"])), b, tol)


def _i231_rhs(p, b: Budgets, tol: float) -> EvalResult:
    nu, r, pp, c = p["nu"], p["r"], p["p"], p["c"]
    k = nu + 2 * r
    return closed_form(c ** k / (2 * pp) ** (k + 1) * math.exp(-c * c / (4 * pp)))


I_2_31 = IdentityRecord(
    id="I-2.31",
    statement=("int_0^inf e^(-p x^2) x^(nu+2r+1) J_(nu+2r)(cx) dx = "
               "c^(nu+2r) / (2p)^(nu+2r+1) * e^(-c^2/4p)"),
    family="Weber exponential integral",
    params=("nu", "r", "p", "c"),
    space=ParamSpace(
        constraints=(
            Constraint("p > 0", lambda p_: p_["p"] > 0.0),
            Constraint("c > 0", lambda p_: p_["c"] > 0.0),
            Constraint("nu + 2r > -1", lambda p_: p_["nu"] + 2 * p_["r"] > -1.0 + _M),
            Constraint("r integer >= 0",
                       lambda p_: p_["r"] >= 0.0 and float(p_["r"]).is_integer()),
        ),
        default_grid=(
            {"nu": 0.0, "r": 0, "p": 1.0, "c": 1.0},
            {"nu": 0.5, "r": 1, "p": 0.5, "c": 2.0},
            {"nu": 1.0, "r": 2, "p": 1.0, "c": 1.5},
            {"nu": 1.5, "r": 0, "p": 2.0, "c": 1.0},
        ),
        hard_points=({"nu": 0.0, "r": 1, "p": 0.3, "c": 3.0},),
    ),
    lhs=_i231_lhs, rhs=_i231_rhs,
    lhs_route="quadrature:decaying", rhs_route="closed-form",
    difficulty="easy",
)


# ----------------------------------------------------------------------
# I-2.32  Weber's second exponential integral
# ----------------------------------------------------------------------

def _i232_lhs(p, b: Budgets, tol: float) -> EvalResult:
    nu = p["nu"]
    return _laplace_j(0.5, p["p"], ((nu, p["a"]), (nu, p["b"])), b, tol)


def _i232_rhs(p, b: Budgets, tol: float) -> EvalResult:
    nu, a, bb, pp = p["nu"], p["a"], p["b"], p["p"]
    # e^(-(a^2+b^2)/4p) I_nu(ab/2p) = e^(-(a-b)^2/4p) [e^(-ab/2p) I_nu(ab/2p)]
    return scaled(bessel_i_scaled(nu, a * bb / (2 * pp)),
                  0.5 / pp * math.exp(-(a - bb) ** 2 / (4 * pp)))


I_2_32 = IdentityRecord(
    id="I-2.32",
    statement=("int_0^inf x e^(-p x^2) J_nu(ax) J_nu(bx) dx = "
               "(1/2p) e^(-(a^2+b^2)/4p) I_nu(ab/2p)"),
    family="Weber exponential integral",
    params=("nu", "a", "b", "p"),
    space=ParamSpace(
        constraints=(
            Constraint("p > 0", lambda p_: p_["p"] > 0.0),
            Constraint("a > 0", lambda p_: p_["a"] > 0.0),
            Constraint("b > 0", lambda p_: p_["b"] > 0.0),
            Constraint("nu > -1", lambda p_: p_["nu"] > -1.0 + _M),
        ),
        default_grid=(
            {"nu": 0.0, "a": 1.0, "b": 1.0, "p": 1.0},
            {"nu": 0.5, "a": 0.5, "b": 2.0, "p": 0.5},
            {"nu": 1.0, "a": 2.0, "b": 1.0, "p": 2.0},
            {"nu": 0.0, "a": 2.0, "b": 2.0, "p": 0.5},
        ),
        hard_points=({"nu": 1.0, "a": 2.0, "b": 2.0, "p": 0.3},),
    ),
    lhs=_i232_lhs, rhs=_i232_rhs,
    lhs_route="quadrature:decaying", rhs_route="closed-form",
    difficulty="easy",
)


# ----------------------------------------------------------------------
# I-3.8  triple J0 Laplace transform vs modified-Bessel series
# ----------------------------------------------------------------------

def _i38_lhs(p, b: Budgets, tol: float) -> EvalResult:
    return _laplace_j(1.0, p["alpha"], ((0, p["beta1"]), (0, p["beta2"]), (0, p["beta3"])),
                      b, tol)


def _i38_rhs(p, b: Budgets, tol: float) -> EvalResult:
    tp = se.TripleParams(p["alpha"], p["beta1"], p["beta2"], p["beta3"])
    return se.weber_triple(tp, max_terms=min(300, b.max_terms))


I_3_8 = IdentityRecord(
    id="I-3.8",
    statement=("int_0^inf e^(-alpha x) J_0(b1 sqrt(x)) J_0(b2 sqrt(x)) J_0(b3 sqrt(x)) dx = "
               "(1/alpha) e^(-(b1^2+b2^2+b3^2)/4 alpha) sum_n (2-delta_n0) (-1)^n "
               "I_n(b1 b2/2 alpha) I_n(b1 b3/2 alpha) I_n(b2 b3/2 alpha)"),
    family="triple-Bessel Laplace transform",
    params=("alpha", "beta1", "beta2", "beta3"),
    space=ParamSpace(
        constraints=(
            Constraint("alpha > 0", lambda p_: p_["alpha"] > 0.0),
            Constraint("betas >= 0", lambda p_: min(p_["beta1"], p_["beta2"], p_["beta3"]) >= 0.0),
        ),
        default_grid=(
            {"alpha": 1.0, "beta1": 1.0, "beta2": 1.0, "beta3": 1.0},
            {"alpha": 0.5, "beta1": 0.5, "beta2": 1.0, "beta3": 1.5},
            {"alpha": 2.0, "beta1": 1.5, "beta2": 0.5, "beta3": 1.0},
            {"alpha": 1.0, "beta1": 1.0, "beta2": 1.0, "beta3": 0.0},
        ),
        hard_points=({"alpha": 0.35, "beta1": 1.8, "beta2": 1.2, "beta3": 0.6},),
    ),
    lhs=_i38_lhs, rhs=_i38_rhs,
    lhs_route="quadrature:decaying", rhs_route="series",
    difficulty="easy",
)


# ----------------------------------------------------------------------
# I-3.19  J0 Jm Jm generalization (exact m-th derivative by Leibniz's rule)
# ----------------------------------------------------------------------

def _i319_lhs(p, b: Budgets, tol: float) -> EvalResult:
    m = int(p["m"])
    return _laplace_j(1.0, p["alpha"], ((0, p["beta1"]), (m, p["beta2"]), (m, p["beta3"])),
                      b, tol)


def _i319_rhs(p, b: Budgets, tol: float) -> EvalResult:
    tp = se.TripleParams(p["alpha"], p["beta1"], p["beta2"], p["beta3"], int(p["m"]))
    return se.weber_triple_m(tp, max_terms=min(300, b.max_terms))


I_3_19 = IdentityRecord(
    id="I-3.19",
    statement=("int_0^inf e^(-alpha x) J_0(b1 sqrt(x)) J_m(b2 sqrt(x)) J_m(b3 sqrt(x)) dx = "
               "(1/alpha) 2^(2m+1) m!/(2m)! (alpha/(b2 b3))^m e^(-(b2^2+b3^2)/4 alpha) "
               "(d/dx)^m [e^(-x) sum_n (-1)^n (n+m)(2m+n-1)!/n! I_(m+n)(b2 sqrt(x/alpha)) "
               "I_(m+n)(b3 sqrt(x/alpha)) I_(m+n)(b2 b3/2 alpha)] at x = b1^2/4 alpha"),
    family="triple-Bessel Laplace transform",
    params=("alpha", "beta1", "beta2", "beta3", "m"),
    space=ParamSpace(
        constraints=(
            Constraint("alpha > 0", lambda p_: p_["alpha"] > 0.0),
            Constraint("beta2, beta3 > 0", lambda p_: p_["beta2"] > 0.0 and p_["beta3"] > 0.0),
            Constraint("beta1 >= 0", lambda p_: p_["beta1"] >= 0.0),
            Constraint("m integer in 1..4",
                       lambda p_: float(p_["m"]).is_integer() and 1 <= p_["m"] <= 4),
        ),
        default_grid=(
            {"alpha": 1.0, "beta1": 1.0, "beta2": 1.0, "beta3": 1.0, "m": 1},
            {"alpha": 0.8, "beta1": 0.6, "beta2": 1.2, "beta3": 0.9, "m": 1},
            {"alpha": 1.0, "beta1": 0.5, "beta2": 1.0, "beta3": 1.5, "m": 2},
            {"alpha": 1.5, "beta1": 1.0, "beta2": 1.0, "beta3": 1.0, "m": 2},
        ),
        hard_points=({"alpha": 1.0, "beta1": 1.0, "beta2": 1.0, "beta3": 1.0, "m": 3},),
    ),
    lhs=_i319_lhs, rhs=_i319_rhs,
    lhs_route="quadrature:decaying", rhs_route="series",
    difficulty="hard",
)


# ----------------------------------------------------------------------
# I-3.20  two-factor limit (finite sum)
# ----------------------------------------------------------------------

def _i320_lhs(p, b: Budgets, tol: float) -> EvalResult:
    m = int(p["m"])
    return _laplace_j(1.0, p["alpha"], ((0, p["beta1"]), (m, p["beta2"]), 0.5 * m), b, tol)


def _i320_rhs(p, b: Budgets, tol: float) -> EvalResult:
    return se.weber_j0jm_limit(p["alpha"], p["beta1"], p["beta2"], int(p["m"]))


I_3_20 = IdentityRecord(
    id="I-3.20",
    statement=("int_0^inf e^(-alpha x) J_0(b1 sqrt(x)) J_m(b2 sqrt(x)) x^(m/2) dx = "
               "(1/alpha) (b2/2 alpha)^m e^(-(b1^2+b2^2)/4 alpha) "
               "sum_{n=0}^m (-1)^n C(m,n) (b1/b2)^n I_n(b1 b2/2 alpha)"),
    family="triple-Bessel Laplace transform",
    params=("alpha", "beta1", "beta2", "m"),
    space=ParamSpace(
        constraints=(
            Constraint("alpha > 0", lambda p_: p_["alpha"] > 0.0),
            Constraint("beta1 >= 0", lambda p_: p_["beta1"] >= 0.0),
            Constraint("beta2 > 0", lambda p_: p_["beta2"] > 0.0),
            Constraint("m integer >= 0",
                       lambda p_: p_["m"] >= 0.0 and float(p_["m"]).is_integer()),
        ),
        default_grid=(
            {"alpha": 1.0, "beta1": 1.0, "beta2": 1.0, "m": 0},
            {"alpha": 1.0, "beta1": 1.0, "beta2": 1.0, "m": 1},
            {"alpha": 1.5, "beta1": 0.7, "beta2": 1.2, "m": 2},
            {"alpha": 2.0, "beta1": 0.0, "beta2": 1.0, "m": 3},
        ),
        hard_points=({"alpha": 1.0, "beta1": 0.8, "beta2": 1.1, "m": 3},),
    ),
    lhs=_i320_lhs, rhs=_i320_rhs,
    lhs_route="quadrature:decaying", rhs_route="series",
    difficulty="easy",
)


# ----------------------------------------------------------------------
# I-3.21  0F3 Laplace transform (watch: erratum in the printed LHS)
# ----------------------------------------------------------------------
# The printed LHS lacks a factor x^(2nu-1).  With it, term by term
# Gamma(2nu + 2k) = Gamma(2nu) 4^k (nu)_k (nu + 1/2)_k (DLMF 5.5.5) turns
# the integral into the printed RHS (DLMF 10.16.9).  As printed the LHS is
# (1/beta) 2F3(1/2, 1; mu, nu, nu + 1/2; -4a^2/beta^2): the sides agree
# exactly when nu = 1/2 and differ by that ratio otherwise.  Verified as
# printed, with the ratio logged.

def _i321_lhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, a, be = p["mu"], p["nu"], p["a"], p["beta"]

    def fn(x):
        return np.exp(-be * x) * hyp0f3_vec(mu, nu, nu + 0.5, -(a * x) ** 2, b.max_terms)

    return integrate_semiinf_decaying(fn, 0.0, be, tol, max_evals=b.max_evals)


def _i321_rhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, a, be = p["mu"], p["nu"], p["a"], p["beta"]
    return scaled(bessel_j(mu - 1, 4 * a / be),
                  (2 * a) ** (1 - mu) * gamma(mu) * gamma(2 * nu) * be ** (mu - 2 * nu - 1))


I_3_21 = IdentityRecord(
    id="I-3.21",
    statement=("int_0^inf e^(-beta x) 0F3(mu, nu, nu+1/2; -a^2 x^2) dx = "
               "(2a)^(1-mu) G(mu) G(2nu) beta^(mu-2nu-1) J_(mu-1)(4a/beta)"),
    family="0F3 Laplace transform",
    params=("mu", "nu", "a", "beta"),
    space=ParamSpace(
        constraints=(
            Constraint("mu not a nonpositive integer",
                       lambda p_: not (p_["mu"] <= 0.0 and float(p_["mu"]).is_integer())),
            Constraint("nu > 0", lambda p_: p_["nu"] > 0.0 + _M),
            Constraint("a > 0", lambda p_: p_["a"] > 0.0),
            Constraint("beta > 0", lambda p_: p_["beta"] > 0.0),
        ),
        default_grid=(
            {"mu": 0.8, "nu": 0.5, "a": 0.5, "beta": 1.0},
            {"mu": 1.5, "nu": 0.5, "a": 1.0, "beta": 1.2},
            {"mu": 2.0, "nu": 0.5, "a": 0.7, "beta": 0.9},
            {"mu": 1.0, "nu": 1.0, "a": 0.5, "beta": 1.0},
        ),
        hard_points=({"mu": 1.5, "nu": 0.75, "a": 0.8, "beta": 1.2},),
    ),
    lhs=_i321_lhs, rhs=_i321_rhs,
    lhs_route="quadrature:decaying", rhs_route="closed-form",
    difficulty="hard",
    watch=True,
)


# ----------------------------------------------------------------------
# I-3.22  four Bessel kinds in one integral
# ----------------------------------------------------------------------

def _i322_lhs(p, b: Budgets, tol: float) -> EvalResult:
    a = p["a"]
    lam = 1.0 - a

    def fn(x):
        return (x * bessel_j_vec(1, a * x) * bessel_i_scaled_vec(1, a * x) * bessel_y_vec(0, x)
                * bessel_k_scaled_vec(0, x) * np.exp(-lam * x))

    return integrate_semiinf_decaying(fn, 0.0, lam, tol, max_evals=b.max_evals)


def _i322_rhs(p, b: Budgets, tol: float) -> EvalResult:
    a = p["a"]
    return closed_form(-math.log1p(-a ** 4) / (2 * math.pi * a * a))


I_3_22 = IdentityRecord(
    id="I-3.22",
    statement=("int_0^inf x J_1(ax) I_1(ax) Y_0(x) K_0(x) dx = "
               "-(2 pi a^2)^(-1) ln(1-a^4)"),
    family="four-kind Bessel integral",
    params=("a",),
    space=ParamSpace(
        constraints=(
            Constraint("0 < a < 1 (with margin)",
                       lambda p_: 0.0 < p_["a"] <= 1.0 - _M),
        ),
        default_grid=(
            {"a": 0.3},
            {"a": 0.5},
            {"a": 0.7},
        ),
        hard_points=({"a": 0.9},),
    ),
    lhs=_i322_lhs, rhs=_i322_rhs,
    lhs_route="quadrature:decaying", rhs_route="closed-form",
    difficulty="easy",
)


RECORDS = (I_2_31, I_2_32, I_3_8, I_3_19, I_3_20, I_3_21, I_3_22)
