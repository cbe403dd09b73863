"""Product-of-two-Bessel identities: 0F3 integral representations, the
Weber-Schafheitlin family, Sonine-Gegenbauer inversions, the finite
sin/cos-kernel representations and the pure series identities."""

from __future__ import annotations

import math

import numpy as np

from .. import series as se
from ..specfun import (EvalResult, bessel_h1_scaled_vec, bessel_i, bessel_i_scaled_complex_vec,
                       bessel_i_scaled_vec, bessel_i_vec, bessel_j, bessel_j_scaled_vec,
                       bessel_j_vec, bessel_k, bessel_k_scaled_vec, closed_form, gamma, hyp0f1,
                       hyp0f3, hyp0f3_vec, hyp2f1, product, scaled)
from ..quad import (EndpointSingularity, Integrand, integrate_finite,
                    integrate_semiinf_decaying, integrate_semiinf_oscillatory)
from ._records import _M, Budgets, Constraint, IdentityRecord, ParamSpace


def _on_unit_interval(f, g: float, ends: tuple[float, ...]) -> Integrand:
    """Integrand f(u, q), q = 1 - u^2, with (1 - u^2)^g behaviour at each
    endpoint in ``ends``; the offset forms pass u = -1 + h or 1 - h and
    q = h (2 - h), so q never goes through a rounded abscissa."""
    def offset(e):
        return lambda h: f(e - h if e > 0 else e + h, h * (2 - h))

    return Integrand(lambda u: f(u, 1 - u * u),
                     singularities=tuple(EndpointSingularity(e, g, offset(e)) for e in ends))


# ----------------------------------------------------------------------
# I-2.4  Gamma-product J_mu(ax) J_nu(bx)  vs  0F3/K/I integral
# ----------------------------------------------------------------------

def _i24_lhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, a, bb, x = p["mu"], p["nu"], p["a"], p["b"], p["x"]
    return scaled(product(bessel_j(mu, a * x), bessel_j(nu, bb * x)),
                  gamma(nu + 1) * gamma(mu + 1) * gamma(mu + nu + 1))


def _i24_rhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, a, bb, x = p["mu"], p["nu"], p["a"], p["b"], p["x"]
    q = bb / a
    z = 0.5 * a * x * (1.0 - q * q)
    lam = 2.0 * (1.0 - q)

    def fn(t):
        return (t ** (mu + nu + 1)
                * hyp0f3_vec(mu + 1, nu + 1, mu + nu + 1, -(z * t) ** 2, b.max_terms)
                * bessel_k_scaled_vec(mu, 2 * t) * bessel_i_scaled_vec(nu, 2 * q * t)
                * np.exp(-lam * t))

    r = integrate_semiinf_decaying(fn, 0.0, lam, tol, max_evals=b.max_evals)
    pref = (4.0 * (0.5 * a * x) ** mu * (0.5 * bb * x) ** nu
            * (1.0 - q * q) ** (mu + nu + 1) * (a / bb) ** nu)
    return scaled(r, pref)


I_2_4 = IdentityRecord(
    id="I-2.4",
    statement=("G(nu+1) G(mu+1) G(mu+nu+1) J_mu(ax) J_nu(bx) = "
               "4 (ax/2)^mu (bx/2)^nu (1-b^2/a^2)^(mu+nu+1) (a/b)^nu "
               "* int_0^inf t^(mu+nu+1) 0F3(mu+1,nu+1,mu+nu+1; -z^2 t^2) "
               "K_mu(2t) I_nu(2(b/a)t) dt,  z = (ax/2)(1-b^2/a^2)"),
    family="0F3 product representation",
    params=("mu", "nu", "a", "b", "x"),
    space=ParamSpace(
        constraints=(
            Constraint("0 < b < a (with margin)",
                       lambda p: 0.0 < p["b"] <= p["a"] * (1.0 - _M)),
            Constraint("nu > -1", lambda p: p["nu"] > -1.0 + _M),
            Constraint("mu + nu > -1", lambda p: p["mu"] + p["nu"] > -1.0 + _M),
            Constraint("x >= 0", lambda p: p["x"] >= 0.0),
            Constraint("mu, nu >= 0 when x = 0",
                       lambda p: p["x"] > 0.0 or min(p["mu"], p["nu"]) >= 0.0),
        ),
        default_grid=(
            {"mu": 0.0, "nu": 0.0, "a": 1.0, "b": 0.5, "x": 1.0},
            {"mu": 0.5, "nu": 0.0, "a": 1.0, "b": 0.5, "x": 2.0},
            {"mu": 1.0, "nu": 0.5, "a": 1.0, "b": 0.3, "x": 2.0},
            {"mu": 2.0, "nu": 1.0, "a": 1.0, "b": 0.6, "x": 1.5},
            {"mu": 1.5, "nu": -0.25, "a": 1.0, "b": 0.5, "x": 3.0},
        ),
        hard_points=({"mu": 0.0, "nu": 0.0, "a": 1.0, "b": 0.9, "x": 2.0},),
    ),
    lhs=_i24_lhs, rhs=_i24_rhs,
    lhs_route="closed-form", rhs_route="quadrature:decaying",
    difficulty="easy",
)


# ----------------------------------------------------------------------
# I-2.6  Mellin-type K*I integral  vs  gamma/2F1 closed form
# ----------------------------------------------------------------------

def _i26_lhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, s, q = p["mu"], p["nu"], p["s"], p["q"]
    lam = 2.0 * (1.0 - q)
    gpow = s + nu - mu

    def fn(t):
        return (t ** s * bessel_k_scaled_vec(mu, 2 * t) * bessel_i_scaled_vec(nu, 2 * q * t)
                * np.exp(-lam * t))

    hints = (EndpointSingularity(0.0, gpow),) if gpow < 0.0 else ()
    return integrate_semiinf_decaying(Integrand(fn, singularities=hints), 0.0, lam, tol,
                                      max_evals=b.max_evals)


def _i26_rhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, s, q = p["mu"], p["nu"], p["s"], p["q"]
    f21 = hyp2f1(0.5 * (nu + mu + s + 1), 0.5 * (nu - mu + s + 1), nu + 1, q * q)
    pref = (q ** nu / (4.0 * gamma(nu + 1))
            * gamma(0.5 * (mu + nu + s + 1)) * gamma(0.5 * (nu - mu + s + 1)))
    return scaled(f21, pref, rel=1e-13)


I_2_6 = IdentityRecord(
    id="I-2.6",
    statement=("int_0^inf t^s K_mu(2t) I_nu(2qt) dt = q^nu/(4 G(nu+1)) "
               "* G((mu+nu+s+1)/2) G((nu-mu+s+1)/2) "
               "* 2F1((nu+mu+s+1)/2, (nu-mu+s+1)/2; nu+1; q^2),  q = b/a"),
    family="Weber-Schafheitlin",
    params=("mu", "nu", "s", "q"),
    space=ParamSpace(
        constraints=(
            Constraint("0 < q < 1 (with margin)",
                       lambda p: 0.0 < p["q"] <= 1.0 - _M),
            Constraint("nu + mu + s > -1", lambda p: p["nu"] + p["mu"] + p["s"] > -1.0 + _M),
            Constraint("nu - mu + s > -1", lambda p: p["nu"] - p["mu"] + p["s"] > -1.0 + _M),
        ),
        default_grid=(
            {"mu": 0.0, "nu": 0.0, "s": 0.5, "q": 0.5},
            {"mu": 0.5, "nu": 0.5, "s": 1.0, "q": 0.3},
            {"mu": 1.0, "nu": 0.0, "s": 1.5, "q": 0.6},
            {"mu": 1.5, "nu": 0.5, "s": 2.0, "q": 0.5},
        ),
        hard_points=(
            {"mu": 0.0, "nu": 1.0, "s": 0.25, "q": 0.9},
            {"mu": 0.5, "nu": -0.25, "s": 1.0, "q": 0.4},
        ),
    ),
    lhs=_i26_lhs, rhs=_i26_rhs,
    lhs_route="quadrature:decaying", rhs_route="closed-form",
    difficulty="easy",
)


# ----------------------------------------------------------------------
# I-2.7  Weber-Schafheitlin integral  vs  2F1 closed form
# ----------------------------------------------------------------------

def _i27_lhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, s, a, bb = p["mu"], p["nu"], p["s"], p["a"], p["b"]

    def fn(x):
        return x ** (-s) * bessel_j_vec(mu, a * x) * bessel_j_vec(nu, bb * x)

    # past x0, J_mu(ax) J_nu(bx) = Re[H1_mu(ax) J_nu(bx)], which decays like
    # exp(-(a - b) Im z) up the ray x0 + iy; the scaled kernels carry their
    # exponentials written out, so nothing overflows as b -> a
    x0 = math.pi / a
    phase = np.exp(1j * a * x0)

    def fc(z):
        return (z ** (-s) * bessel_h1_scaled_vec(mu, a * z) * bessel_j_scaled_vec(nu, bb * z)
                * phase * np.exp(-(a - bb) * z.imag))

    gpow = mu + nu - s
    hints = (EndpointSingularity(0.0, gpow),) if gpow < 0.0 else ()
    return integrate_semiinf_oscillatory(Integrand(fn, singularities=hints), 0.0, x0, fc,
                                         a - bb, tol, max_evals=b.max_evals)


def _i27_rhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, s, a, bb = p["mu"], p["nu"], p["s"], p["a"], p["b"]
    f21 = hyp2f1(0.5 * (nu - mu - s + 1), 0.5 * (nu + mu - s + 1), nu + 1, (bb / a) ** 2)
    pref = (2.0 ** -s * bb ** nu * a ** (s - nu - 1)
            * gamma(0.5 * (mu + nu - s + 1)) / (gamma(nu + 1) * gamma(0.5 * (mu - nu + s + 1))))
    return scaled(f21, pref, rel=1e-13)


I_2_7 = IdentityRecord(
    id="I-2.7",
    statement=("int_0^inf x^-s J_mu(ax) J_nu(bx) dx = 2^-s b^nu a^(s-nu-1) "
               "G((mu+nu-s+1)/2) / (G(nu+1) G((mu-nu+s+1)/2)) "
               "* 2F1((nu-mu-s+1)/2, (nu+mu-s+1)/2; nu+1; b^2/a^2)"),
    family="Weber-Schafheitlin",
    params=("mu", "nu", "s", "a", "b"),
    space=ParamSpace(
        constraints=(
            Constraint("0 < b < a (with margin)",
                       lambda p: 0.0 < p["b"] <= p["a"] * (1.0 - _M)),
            Constraint("mu + nu - s > -1", lambda p: p["mu"] + p["nu"] - p["s"] > -1.0 + _M),
            Constraint("s > 0", lambda p: p["s"] > 0.0 + _M),
        ),
        default_grid=(
            {"mu": 0.0, "nu": 0.0, "s": 0.5, "a": 1.0, "b": 0.4},
            {"mu": 1.0, "nu": 0.0, "s": 0.5, "a": 1.3, "b": 0.7},
            {"mu": 0.5, "nu": 0.5, "s": 1.0, "a": 1.0, "b": 0.5},
            {"mu": 1.0, "nu": 1.0, "s": 0.75, "a": 2.0, "b": 0.5},
        ),
        hard_points=({"mu": 2.0, "nu": 1.0, "s": 1.5, "a": 1.0, "b": 0.9},),
    ),
    lhs=_i27_lhs, rhs=_i27_rhs,
    lhs_route="quadrature:oscillatory", rhs_route="closed-form",
    difficulty="oscillatory",
)


# ----------------------------------------------------------------------
# I-2.9 / I-2.10  J*I closed forms  vs  0F3/K/J integrals
# ----------------------------------------------------------------------

def _i29_lhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, a, y = p["mu"], p["nu"], p["a"], p["y"]
    return scaled(product(bessel_j(mu, 0.25 * a * a), bessel_i(nu, 0.25 * a * a * y)),
                  gamma(mu + 1) * gamma(nu + 1) * gamma(mu + nu + 1))


def _i29_core(mu, nu, y, z, pref: float, b: Budgets, tol: float) -> EvalResult:
    # pref * int_0^inf t^(mu+nu+1) 0F3(mu+1, nu+1, mu+nu+1; z(t)) K_mu(t) J_nu(yt) dt,
    # the right side of I-2.9 and of I-2.10, each with its own argument z(t)
    def fn(t):
        return (t ** (mu + nu + 1) * hyp0f3_vec(mu + 1, nu + 1, mu + nu + 1, z(t), b.max_terms)
                * bessel_k_scaled_vec(mu, t) * np.exp(-t) * bessel_j_vec(nu, y * t))

    r = integrate_semiinf_decaying(fn, 0.0, 1.0, tol, max_evals=b.max_evals)
    return scaled(r, pref)


def _i29_rhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, a, y = p["mu"], p["nu"], p["a"], p["y"]
    arg = -(a ** 4 / 256.0) * (1 + y * y) ** 2
    pref = (a * a / 16.0) ** (mu + nu) * (1 + y * y) ** (mu + nu + 1)
    return _i29_core(mu, nu, y, lambda t: arg * t * t, pref, b, tol)


I_2_9 = IdentityRecord(
    id="I-2.9",
    statement=("G(mu+1) G(nu+1) G(mu+nu+1) J_mu(a^2/4) I_nu(a^2 y/4) = "
               "(a^2/16)^(mu+nu) (1+y^2)^(mu+nu+1) int_0^inf t^(mu+nu+1) "
               "0F3(mu+1,nu+1,mu+nu+1; -(a^4/256)(1+y^2)^2 t^2) K_mu(t) J_nu(yt) dt"),
    family="0F3 product representation",
    params=("mu", "nu", "a", "y"),
    space=ParamSpace(
        constraints=(
            Constraint("nu > -1", lambda p: p["nu"] > -1.0 + _M),
            Constraint("mu + nu > -1", lambda p: p["mu"] + p["nu"] > -1.0 + _M),
            Constraint("a > 0", lambda p: p["a"] > 0.0),
            Constraint("y > 0", lambda p: p["y"] > 0.0),
        ),
        default_grid=(
            {"mu": 0.0, "nu": 0.0, "a": 1.0, "y": 1.0},
            {"mu": 0.5, "nu": 0.0, "a": 1.2, "y": 0.5},
            {"mu": 1.0, "nu": 0.5, "a": 0.8, "y": 1.5},
            {"mu": 1.0, "nu": 1.0, "a": 1.5, "y": 0.7},
        ),
        hard_points=({"mu": 0.0, "nu": 1.0, "a": 2.0, "y": 2.0},),
    ),
    lhs=_i29_lhs, rhs=_i29_rhs,
    lhs_route="closed-form", rhs_route="quadrature:decaying",
    difficulty="easy",
)


def _i210_lhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, a, y = p["mu"], p["nu"], p["a"], p["y"]
    w = 1 + y * y
    return scaled(product(bessel_j(mu, 4 * a / w), bessel_i(nu, 4 * a * y / w)),
                  gamma(mu + 1) * gamma(nu + 1) * gamma(mu + nu + 1))


def _i210_rhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, a, y = p["mu"], p["nu"], p["a"], p["y"]
    return _i29_core(mu, nu, y, lambda t: -(a * t) ** 2, (1 + y * y) * a ** (mu + nu), b, tol)


I_2_10 = IdentityRecord(
    id="I-2.10",
    statement=("G(mu+1) G(nu+1) G(mu+nu+1) J_mu(4a/(1+y^2)) I_nu(4ay/(1+y^2)) = "
               "(1+y^2) a^(mu+nu) int_0^inf t^(mu+nu+1) "
               "0F3(mu+1,nu+1,mu+nu+1; -a^2 t^2) K_mu(t) J_nu(yt) dt"),
    family="0F3 product representation",
    params=("mu", "nu", "a", "y"),
    space=ParamSpace(
        constraints=(
            Constraint("nu > -1", lambda p: p["nu"] > -1.0 + _M),
            Constraint("mu + nu > -1", lambda p: p["mu"] + p["nu"] > -1.0 + _M),
            Constraint("a > 0", lambda p: p["a"] > 0.0),
            Constraint("y > 0", lambda p: p["y"] > 0.0),
        ),
        default_grid=(
            {"mu": 0.0, "nu": 0.0, "a": 1.0, "y": 1.0},
            {"mu": 0.5, "nu": 0.0, "a": 0.7, "y": 0.5},
            {"mu": 1.0, "nu": 0.5, "a": 1.2, "y": 1.5},
            {"mu": 1.0, "nu": 1.0, "a": 1.0, "y": 0.8},
        ),
        hard_points=({"mu": 0.0, "nu": 1.0, "a": 0.5, "y": 2.0},),
    ),
    lhs=_i210_lhs, rhs=_i210_rhs,
    lhs_route="closed-form", rhs_route="quadrature:decaying",
    difficulty="easy",
)


# ----------------------------------------------------------------------
# I-2.11  Hankel-inverted representation (oscillatory)
# ----------------------------------------------------------------------

def _i211_lhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, a, t = p["mu"], p["nu"], p["a"], p["t"]
    f = hyp0f3(mu + 1, nu + 1, mu + nu + 1, -(a * t) ** 2, b.max_terms)
    return scaled(product(f, bessel_k(mu, t)), (a * t) ** (mu + nu))


def _i211_rhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, a, t = p["mu"], p["nu"], p["a"], p["t"]

    def fn(y):
        w = 1 + y * y
        return (y / w * bessel_j_vec(nu, t * y) * bessel_j_vec(mu, 4 * a / w)
                * bessel_i_vec(nu, 4 * a * y / w))

    # past x0 = max(pi/t, 1, a/2), J_nu(ty) = Re H1_nu(ty) decays up the ray
    # x0 + iy; the other factors continue to Re z >= 1, where |1 + z^2| >= 1
    # keeps their essential singularities at z = +-i out of reach, and with
    # x0 >= a/2 their arguments stay within |4az/(1 + z^2)| <= 8, so the
    # scaled kernels take back exponentials of at most e^8 and the tail does
    # not cancel far below the size of its integrand
    x0 = max(math.pi / t, 1.0, 0.5 * a)
    phase = np.exp(1j * t * x0)

    def fc(z):
        w = 1 + z * z
        u, v = 4 * a / w, 4 * a * z / w
        return (z / w * bessel_h1_scaled_vec(nu, t * z) * phase * np.exp(-t * z.imag)
                * bessel_j_scaled_vec(mu, u) * np.exp(np.abs(u.imag))
                * bessel_i_scaled_complex_vec(nu, v) * np.exp(np.abs(v.real)))

    # y J_nu(ty) I_nu(4ay/(1+y^2)) ~ y^(2nu+1) at 0
    hints = (EndpointSingularity(0.0, 2 * nu + 1),) if nu < 0.0 else ()
    r = integrate_semiinf_oscillatory(Integrand(fn, singularities=hints), 0.0, x0, fc, t, tol,
                                      max_evals=b.max_evals)
    pref = gamma(mu + 1) * gamma(nu + 1) * gamma(mu + nu + 1)
    return scaled(r, pref)


I_2_11 = IdentityRecord(
    id="I-2.11",
    statement=("(at)^(mu+nu) 0F3(mu+1,nu+1,mu+nu+1; -a^2 t^2) K_mu(t) = "
               "G(mu+1) G(nu+1) G(mu+nu+1) int_0^inf y/(1+y^2) J_nu(ty) "
               "J_mu(4a/(1+y^2)) I_nu(4ay/(1+y^2)) dy"),
    family="Sonine-Gegenbauer",
    params=("mu", "nu", "a", "t"),
    space=ParamSpace(
        constraints=(
            Constraint("mu + nu > -1", lambda p: p["mu"] + p["nu"] > -1.0 + _M),
            Constraint("nu > -1/2 empirically sampled down to -0.25",
                       lambda p: p["nu"] >= -0.25),
            Constraint("a > 0", lambda p: p["a"] > 0.0),
            Constraint("t > 0", lambda p: p["t"] > 0.0),
        ),
        default_grid=(
            {"mu": 0.0, "nu": -0.25, "a": 0.5, "t": 1.0},
            {"mu": 0.0, "nu": 0.0, "a": 1.0, "t": 1.0},
            {"mu": 0.5, "nu": 0.0, "a": 1.0, "t": 0.5},
            {"mu": 0.0, "nu": 0.5, "a": 0.7, "t": 1.2},
        ),
        hard_points=({"mu": 0.5, "nu": 0.5, "a": 1.0, "t": 2.0},),
    ),
    lhs=_i211_lhs, rhs=_i211_rhs,
    lhs_route="closed-form", rhs_route="quadrature:oscillatory",
    difficulty="oscillatory",
)


# ----------------------------------------------------------------------
# I-2.12  Sonine-Gegenbauer limit (oscillatory)
# ----------------------------------------------------------------------

def _i212_lhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, t = p["mu"], p["nu"], p["t"]
    return scaled(bessel_k(mu, t), (0.5 * t) ** (mu + nu))


def _i212_rhs(p, b: Budgets, tol: float) -> EvalResult:
    mu, nu, t = p["mu"], p["nu"], p["t"]

    def fn(y):
        return y ** (nu + 1) * (1 + y * y) ** (-(mu + nu + 1)) * bessel_j_vec(nu, t * y)

    # past x0 the tail runs up the ray x0 + iy as in I-2.7, with J_nu = Re H1_nu;
    # the cut of (1 + z^2)^(-(mu+nu+1)) lies on the imaginary axis, off the ray
    x0 = math.pi / t
    phase = np.exp(1j * t * x0)

    def fc(z):
        return (z ** (nu + 1) * (1 + z * z) ** (-(mu + nu + 1))
                * bessel_h1_scaled_vec(nu, t * z) * phase * np.exp(-t * z.imag))

    # y^(nu+1) J_nu(ty) ~ y^(2nu+1) at 0
    hints = (EndpointSingularity(0.0, 2 * nu + 1),) if nu < 0.0 else ()
    r = integrate_semiinf_oscillatory(Integrand(fn, singularities=hints), 0.0, x0, fc, t, tol,
                                      max_evals=b.max_evals)
    pref = gamma(mu + nu + 1)
    return scaled(r, pref)


I_2_12 = IdentityRecord(
    id="I-2.12",
    statement=("(t/2)^(mu+nu) K_mu(t) = G(mu+nu+1) int_0^inf "
               "y^(nu+1) (1+y^2)^(-(mu+nu+1)) J_nu(ty) dy"),
    family="Sonine-Gegenbauer",
    params=("mu", "nu", "t"),
    space=ParamSpace(
        constraints=(
            Constraint("mu + nu > -1", lambda p: p["mu"] + p["nu"] > -1.0 + _M),
            Constraint("nu > -1", lambda p: p["nu"] > -1.0 + _M),
            Constraint("t > 0", lambda p: p["t"] > 0.0),
        ),
        default_grid=(
            {"mu": 0.0, "nu": 0.0, "t": 1.0},
            {"mu": 0.5, "nu": 0.5, "t": 0.5},
            {"mu": 1.0, "nu": 1.0, "t": 2.0},
            {"mu": 1.0, "nu": 0.5, "t": 1.0},
        ),
        hard_points=({"mu": 0.0, "nu": 1.0, "t": 0.5},),
    ),
    lhs=_i212_lhs, rhs=_i212_rhs,
    lhs_route="closed-form", rhs_route="quadrature:oscillatory",
    difficulty="oscillatory",
)


# ----------------------------------------------------------------------
# I-2.24  Laplace transform of t^(2nu+1) 0F3  vs  sine closed form
# ----------------------------------------------------------------------

def _i224_lhs(p, b: Budgets, tol: float) -> EvalResult:
    nu, al, be = p["nu"], p["alpha"], p["beta"]

    g = 2 * nu + 1

    def fn(t):
        return (np.exp(-be * t) * t ** g
                * hyp0f3_vec(1.5, nu + 1, nu + 1.5, -al * t * t, b.max_terms))

    hints = () if g == round(g) else (EndpointSingularity(0.0, g),)
    return integrate_semiinf_decaying(Integrand(fn, singularities=hints), 0.0, be, tol,
                                      max_evals=b.max_evals)


def _i224_rhs(p, b: Budgets, tol: float) -> EvalResult:
    nu, al, be = p["nu"], p["alpha"], p["beta"]
    return closed_form(gamma(2 * nu + 2) / (4.0 * math.sqrt(al))
                       * be ** (-(2 * nu + 1)) * math.sin(4.0 * math.sqrt(al) / be))


I_2_24 = IdentityRecord(
    id="I-2.24",
    statement=("int_0^inf e^(-beta t) t^(2nu+1) 0F3(3/2, nu+1, nu+3/2; -alpha t^2) dt "
               "= G(2nu+2)/(4 sqrt(alpha)) beta^-(2nu+1) sin(4 sqrt(alpha)/beta)"),
    family="0F3 Laplace transform",
    params=("nu", "alpha", "beta"),
    space=ParamSpace(
        constraints=(
            Constraint("nu > -1", lambda p: p["nu"] > -1.0 + _M),
            Constraint("alpha > 0", lambda p: p["alpha"] > 0.0),
            Constraint("beta > 0", lambda p: p["beta"] > 0.0),
        ),
        default_grid=(
            {"nu": 0.0, "alpha": 1.0, "beta": 1.0},
            {"nu": 0.5, "alpha": 0.5, "beta": 0.8},
            {"nu": 1.0, "alpha": 2.0, "beta": 1.5},
            {"nu": -0.5, "alpha": 1.0, "beta": 1.0},
        ),
        hard_points=({"nu": 1.5, "alpha": 4.0, "beta": 2.0},),
    ),
    lhs=_i224_lhs, rhs=_i224_rhs,
    lhs_route="quadrature:decaying", rhs_route="closed-form",
    difficulty="easy",
)


# ----------------------------------------------------------------------
# I-2.25 / I-2.26  finite-interval representations of sin(ax) J_nu(bx)
# ----------------------------------------------------------------------

def _i225_lhs(p, b: Budgets, tol: float) -> EvalResult:
    nu, a, bb, x = p["nu"], p["a"], p["b"], p["x"]
    return scaled(bessel_j(nu, bb * x), math.sin(a * x))


def _i225_core(nu, a, bb, x, b: Budgets, tol: float) -> EvalResult:
    # the I-2.25 right side; I-2.26 is its a = 1, b = y, x = pi/2 case
    g = nu - 0.5
    c2 = a * a - bb * bb

    def fn(u, q):
        return q ** g / (a + bb * u) ** (2 * nu + 1) * np.sin(c2 * x / (a + bb * u))

    r = integrate_finite(_on_unit_interval(fn, g, (-1.0, 1.0)), -1.0, 1.0,
                         tol, abs_floor=1e-16, max_evals=b.max_evals)
    pref = (0.5 * bb * x) ** nu * c2 ** (nu + 0.5) / (math.sqrt(math.pi) * gamma(nu + 0.5))
    return scaled(r, pref)


def _i225_rhs(p, b: Budgets, tol: float) -> EvalResult:
    return _i225_core(p["nu"], p["a"], p["b"], p["x"], b, tol)


I_2_25 = IdentityRecord(
    id="I-2.25",
    statement=("sin(ax) J_nu(bx) = (bx/2)^nu (a^2-b^2)^(nu+1/2) / (sqrt(pi) G(nu+1/2)) "
               "* int_-1^1 (1-u^2)^(nu-1/2) (a+bu)^-(2nu+1) sin((a^2-b^2)x/(a+bu)) du"),
    family="finite cos/sin representation",
    params=("nu", "a", "b", "x"),
    space=ParamSpace(
        constraints=(
            Constraint("|a| > |b| > 0 (with margin)",
                       lambda p: abs(p["b"]) > 0.0 and abs(p["b"]) <= abs(p["a"]) * (1.0 - _M)),
            Constraint("nu > -1/2", lambda p: p["nu"] > -0.5 + _M),
            Constraint("x >= 0", lambda p: p["x"] >= 0.0),
            Constraint("nu >= 0 when x = 0", lambda p: p["x"] > 0.0 or p["nu"] >= 0.0),
        ),
        default_grid=(
            {"nu": 0.0, "a": 2.0, "b": 1.0, "x": 0.7},
            {"nu": 0.5, "a": 2.0, "b": 1.0, "x": 2.0},
            {"nu": 1.5, "a": 3.0, "b": 0.5, "x": 1.0},
            {"nu": 1.0, "a": 1.5, "b": 1.2, "x": 2.5},
        ),
        hard_points=({"nu": -0.25, "a": 2.0, "b": 1.0, "x": 1.0},),
    ),
    lhs=_i225_lhs, rhs=_i225_rhs,
    lhs_route="closed-form", rhs_route="quadrature:finite",
    difficulty="easy",
)


def _i226_lhs(p, b: Budgets, tol: float) -> EvalResult:
    return bessel_j(p["nu"], 0.5 * math.pi * p["y"])


def _i226_rhs(p, b: Budgets, tol: float) -> EvalResult:
    return _i225_core(p["nu"], 1.0, p["y"], 0.5 * math.pi, b, tol)


I_2_26 = IdentityRecord(
    id="I-2.26",
    statement=("J_nu(pi y/2) = (pi y/4)^nu (1-y^2)^(nu+1/2) / (sqrt(pi) G(nu+1/2)) "
               "* int_-1^1 (1-u^2)^(nu-1/2) (1+uy)^-(2nu+1) "
               "sin((pi/2)(1-y^2)/(1+uy)) du"),
    family="finite cos/sin representation",
    params=("nu", "y"),
    space=ParamSpace(
        constraints=(
            Constraint("0 < y < 1 (with margin)",
                       lambda p: 0.0 < p["y"] <= 1.0 - _M),
            Constraint("nu > -1/2", lambda p: p["nu"] > -0.5 + _M),
        ),
        default_grid=(
            {"nu": 0.0, "y": 0.2},
            {"nu": 0.5, "y": 0.5},
            {"nu": 1.0, "y": 0.8},
            {"nu": 2.0, "y": 0.4},
        ),
        hard_points=({"nu": -0.25, "y": 0.9},),
    ),
    lhs=_i226_lhs, rhs=_i226_rhs,
    lhs_route="closed-form", rhs_route="quadrature:finite",
    difficulty="easy",
)


# ----------------------------------------------------------------------
# I-2.30 / I-2.35  pure series identities
# ----------------------------------------------------------------------

def _i230_lhs(p, b: Budgets, tol: float) -> EvalResult:
    return se.product_jj_neumann(p["nu"], p["a"], p["b"], p["x"],
                                 max_terms=min(500, b.max_terms))


def _jj_closed(p, b: Budgets, tol: float) -> EvalResult:
    # J_nu(ax) J_nu(bx): the right side of I-2.30 and the left side of I-2.37
    nu, a, bb, x = p["nu"], p["a"], p["b"], p["x"]
    return product(bessel_j(nu, a * x), bessel_j(nu, bb * x))


I_2_30 = IdentityRecord(
    id="I-2.30",
    statement=("J_nu(ax) J_nu(bx) = (abx/(2c))^nu sum_r (abx/(2c))^(2r) / (r! G(nu+r+1)) "
               "* J_(nu+2r)(xc),  c = sqrt(a^2+b^2)"),
    family="product series",
    params=("nu", "a", "b", "x"),
    space=ParamSpace(
        constraints=(
            Constraint("a > 0", lambda p: p["a"] > 0.0),
            Constraint("b > 0", lambda p: p["b"] > 0.0),
            Constraint("x >= 0", lambda p: p["x"] >= 0.0),
            Constraint("nu >= 0 when x = 0", lambda p: p["x"] > 0.0 or p["nu"] >= 0.0),
        ),
        default_grid=(
            {"nu": 0.0, "a": 1.0, "b": 1.0, "x": 1.0},
            {"nu": 0.5, "a": 1.0, "b": 2.0, "x": 0.9},
            {"nu": 2.0, "a": 0.5, "b": 2.0, "x": 5.0},
            {"nu": 0.0, "a": 1.0, "b": 1.0, "x": 0.0},
        ),
        hard_points=({"nu": 0.0, "a": 1.0, "b": 0.5, "x": 8.0},),
    ),
    lhs=_i230_lhs, rhs=_jj_closed,
    lhs_route="series", rhs_route="closed-form",
    difficulty="easy",
)


def _i235_lhs(p, b: Budgets, tol: float) -> EvalResult:
    return se.hyp0f1_product(p["c"], p["x"], p["y"], max_terms=min(500, b.max_terms))


def _i235_rhs(p, b: Budgets, tol: float) -> EvalResult:
    c = p["c"]
    return product(hyp0f1(c, p["x"], b.max_terms), hyp0f1(c, p["y"], b.max_terms))


I_2_35 = IdentityRecord(
    id="I-2.35",
    statement=("0F1(;c;x) 0F1(;c;y) = sum_r (xy)^r / (r! (c)_r (c)_2r) "
               "* 0F1(;c+2r;x+y)"),
    family="product series",
    params=("c", "x", "y"),
    space=ParamSpace(
        constraints=(
            Constraint("c not a nonpositive integer",
                       lambda p: not (p["c"] <= 0.0 and float(p["c"]).is_integer())),
        ),
        default_grid=(
            {"c": 1.0, "x": -0.25, "y": -0.25},
            {"c": 1.5, "x": 0.3, "y": 0.2},
            {"c": 0.7, "x": -2.0, "y": 3.0},
            {"c": 2.5, "x": -6.0, "y": -6.0},
        ),
        hard_points=({"c": 0.3, "x": -6.0, "y": 4.0},),
    ),
    lhs=_i235_lhs, rhs=_i235_rhs,
    lhs_route="series", rhs_route="closed-form",
    difficulty="easy",
)


# ----------------------------------------------------------------------
# I-2.37 / I-2.38 / I-2.39  cos-kernel finite representations
# ----------------------------------------------------------------------

def _i237_core(nu, c, w, budgets: Budgets, tol: float) -> EvalResult:
    # int_0^1 (1-t^2)^(nu-1/2) cos(c t) 0F3(nu+1, nu/2+1/4, nu/2+3/4; w (1-t^2)^2) dt
    g = nu - 0.5
    b1, b2, b3 = nu + 1.0, 0.5 * nu + 0.25, 0.5 * nu + 0.75

    def fn(t, q):
        return q ** g * np.cos(c * t) * hyp0f3_vec(b1, b2, b3, w * q * q, budgets.max_terms)

    return integrate_finite(_on_unit_interval(fn, g, (1.0,)), 0.0, 1.0,
                            tol, abs_floor=1e-16, max_evals=budgets.max_evals)


def _i237_rhs(p, b: Budgets, tol: float) -> EvalResult:
    nu, a, bb, x = p["nu"], p["a"], p["b"], p["x"]
    r = _i237_core(nu, x * math.hypot(a, bb), a * a * bb * bb * x ** 4 / 64.0, b, tol)
    pref = 2.0 / (math.pi * gamma(2 * nu + 1)) * (a * bb * x * x) ** nu
    return scaled(r, pref)


I_2_37 = IdentityRecord(
    id="I-2.37",
    statement=("J_nu(ax) J_nu(bx) = 2 (a b x^2)^nu / (pi G(2nu+1)) "
               "* int_0^1 (1-t^2)^(nu-1/2) cos(xt sqrt(a^2+b^2)) "
               "0F3(nu+1, nu/2+1/4, nu/2+3/4; a^2 b^2 x^4 (1-t^2)^2 / 64) dt"),
    family="0F3 product representation",
    params=("nu", "a", "b", "x"),
    space=ParamSpace(
        constraints=(
            Constraint("nu > -1/2", lambda p: p["nu"] > -0.5 + _M),
            Constraint("0 < b <= 0.9 a", lambda p: 0.0 < p["b"] <= 0.9 * p["a"]),
            Constraint("x >= 0", lambda p: p["x"] >= 0.0),
            Constraint("nu >= 0 when x = 0", lambda p: p["x"] > 0.0 or p["nu"] >= 0.0),
        ),
        default_grid=(
            {"nu": 0.0, "a": 1.0, "b": 0.5, "x": 1.0},
            {"nu": 0.5, "a": 2.0, "b": 1.0, "x": 1.5},
            {"nu": 1.0, "a": 1.0, "b": 0.9, "x": 3.0},
            {"nu": 2.0, "a": 1.0, "b": 0.8, "x": 2.0},
        ),
        hard_points=({"nu": -0.25, "a": 1.0, "b": 0.8, "x": 2.0},),
    ),
    lhs=_jj_closed, rhs=_i237_rhs,
    lhs_route="closed-form", rhs_route="quadrature:finite",
    difficulty="easy",
)


def _i238_lhs(p, b: Budgets, tol: float) -> EvalResult:
    nu, u = p["nu"], p["u"]
    ap = 0.5 * (math.sqrt(u * u + 2) + math.sqrt(u * u - 2))
    am = 0.5 * (math.sqrt(u * u + 2) - math.sqrt(u * u - 2))
    return product(bessel_j(nu, ap), bessel_j(nu, am))


def _i238_rhs(p, b: Budgets, tol: float) -> EvalResult:
    nu, u = p["nu"], p["u"]
    r = _i237_core(nu, u, 1.0 / 64.0, b, tol)
    pref = 2.0 / (math.pi * gamma(2 * nu + 1))
    return scaled(r, pref)


I_2_38 = IdentityRecord(
    id="I-2.38",
    statement=("J_nu((sqrt(u^2+2)+sqrt(u^2-2))/2) J_nu((sqrt(u^2+2)-sqrt(u^2-2))/2) = "
               "2/(pi G(2nu+1)) int_0^1 (1-t^2)^(nu-1/2) cos(ut) "
               "0F3(nu+1, nu/2+1/4, nu/2+3/4; (1-t^2)^2/64) dt"),
    family="0F3 product representation",
    params=("nu", "u"),
    space=ParamSpace(
        constraints=(
            Constraint("nu > -1/2", lambda p: p["nu"] > -0.5 + _M),
            Constraint("u^2 >= 2", lambda p: p["u"] * p["u"] >= 2.0),
        ),
        default_grid=(
            {"nu": 0.0, "u": 1.5},
            {"nu": 0.5, "u": 2.2},
            {"nu": 1.5, "u": 3.0},
        ),
        hard_points=({"nu": -0.3, "u": 1.45},),
    ),
    lhs=_i238_lhs, rhs=_i238_rhs,
    lhs_route="closed-form", rhs_route="quadrature:finite",
    difficulty="easy",
)


def _i239_lhs(p, b: Budgets, tol: float) -> EvalResult:
    a, bb, u = p["a"], p["b"], p["u"]
    c = math.sqrt((a * a + bb * bb) / (2 * a * bb))

    def fn(t, q):
        s = np.sqrt(q)
        return np.cos(u * c * t) * (bessel_i_vec(1, u * s) + bessel_j_vec(1, u * s)) / s

    return integrate_finite(_on_unit_interval(fn, -0.5, (1.0,)), 0.0, 1.0,
                            tol, abs_floor=1e-16, max_evals=b.max_evals)


def _i239_rhs(p, b: Budgets, tol: float) -> EvalResult:
    a, bb, u = p["a"], p["b"], p["u"]
    return closed_form(2.0 / u * math.sin(u * math.sqrt(a / (2 * bb)))
                       * math.sin(u * math.sqrt(bb / (2 * a))))


I_2_39 = IdentityRecord(
    id="I-2.39",
    statement=("int_0^1 cos(ut sqrt((a^2+b^2)/(2ab))) [I_1(u sqrt(1-t^2)) + "
               "J_1(u sqrt(1-t^2))] (1-t^2)^(-1/2) dt = "
               "(2/u) sin(u sqrt(a/2b)) sin(u sqrt(b/2a))"),
    family="finite cos/sin representation",
    params=("a", "b", "u"),
    space=ParamSpace(
        constraints=(
            Constraint("a > 0", lambda p: p["a"] > 0.0),
            Constraint("b > 0", lambda p: p["b"] > 0.0),
            Constraint("u > 0", lambda p: p["u"] > 0.0),
        ),
        default_grid=(
            {"a": 1.0, "b": 1.0, "u": 0.8},
            {"a": 2.0, "b": 1.0, "u": 1.7},
            {"a": 1.0, "b": 1.0, "u": 3.0},
            {"a": 1.5, "b": 0.5, "u": 2.0},
        ),
        hard_points=({"a": 2.0, "b": 1.0, "u": 6.0},),
    ),
    lhs=_i239_lhs, rhs=_i239_rhs,
    lhs_route="quadrature:finite", rhs_route="closed-form",
    difficulty="easy",
)


RECORDS = (
    I_2_4, I_2_6, I_2_7, I_2_9, I_2_10, I_2_11, I_2_12,
    I_2_24, I_2_25, I_2_26, I_2_30, I_2_35, I_2_37, I_2_38, I_2_39,
)
