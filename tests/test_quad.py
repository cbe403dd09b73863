import itertools
import math

import numpy as np
import pytest
from scipy import special as sp

from besselint import quad
from besselint.quad import (EndpointSingularity, Integrand, epsilon_extrapolate,
                            integrate_finite, integrate_semiinf_decaying,
                            integrate_semiinf_oscillatory)
from besselint.specfun import DomainError

import oracles


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def counted(fn):
    """fn with a call counter in ``calls[0]``."""
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return fn(x)

    return wrapped, calls


# ----------------------------------------------------------------------
# finite intervals
# ----------------------------------------------------------------------

def test_polynomial():
    r = integrate_finite(lambda x: x * x, 0.0, 1.0, 1e-12)
    assert r.converged
    assert abs(r.value - 1.0 / 3.0) < 1e-14


def test_arcsine_endpoint_singularities():
    f = Integrand(lambda u: (1 - u * u) ** -0.5,
                  singularities=(EndpointSingularity(-1.0, -0.5),
                                 EndpointSingularity(1.0, -0.5)))
    r = integrate_finite(f, -1.0, 1.0, 1e-11)
    assert r.converged
    assert abs(r.value - math.pi) <= max(r.abs_err_est, 1e-11)


def test_strong_singularity_with_offset_form():
    # int_0^1 (1-u^2)^g du = B(1/2, g+1)/2
    g = -0.75
    exact = 0.5 * math.gamma(0.5) * math.gamma(g + 1.0) / math.gamma(g + 1.5)
    f = Integrand(lambda u: (1 - u * u) ** g,
                  singularities=(EndpointSingularity(
                      1.0, g, offset_fn=lambda h: (h * (2 - h)) ** g),))
    r = integrate_finite(f, 0.0, 1.0, 1e-13)
    assert r.converged
    assert rel(r.value, exact) < 1e-13


@pytest.mark.parametrize("g", [-0.99, -0.999])
def test_offset_form_with_exponent_near_minus_one(g):
    # p = ceil(2 / (1 + g)) is 200 or 2000, so s**p underflows next to s = 0,
    # where the singular factor must still come out finite
    exact = 0.5 * math.gamma(0.5) * math.gamma(g + 1.0) / math.gamma(g + 1.5)
    f = Integrand(lambda u: (1 - u * u) ** g,
                  singularities=(EndpointSingularity(
                      1.0, g, offset_fn=lambda h: (h * (2 - h)) ** g),))
    r = integrate_finite(f, 0.0, 1.0, 1e-12)
    assert r.converged, r.note
    assert abs(r.value - exact) <= r.abs_err_est


def test_transformed_integrand_against_composite_oracle():
    # cos-kernel integrand with a (1-t^2)^(nu-1/2) endpoint factor at nu=1,
    # u=2: oracle is a 1e5-point composite rule on the u = 1-s^2 transform.
    nu, u = 1.0, 2.0
    s = np.linspace(0.0, 1.0, 100_001)
    t = 1.0 - s * s
    y = (1 - t * t) ** (nu - 0.5) * np.cos(u * t) * 2.0 * s
    want = oracles.simpson(y, s)
    f = Integrand(lambda tt: (1 - tt * tt) ** (nu - 0.5) * np.cos(u * tt),
                  singularities=(EndpointSingularity(1.0, nu - 0.5),))
    r = integrate_finite(f, 0.0, 1.0, 1e-11)
    assert rel(r.value, want) < 1e-9


def test_singular_end_where_a_factor_of_f_overflows():
    # x^-4 * x^3.05 ~ x^-0.95: the substitution's p = 40 puts nodes where
    # x^-4 alone overflows; nearer 0 than eps the smooth factor is constant
    f = Integrand(lambda x: x ** -4.0 * x ** 3.05 * np.cos(x),
                  singularities=(EndpointSingularity(0.0, -0.95),))
    with np.errstate(over="ignore"):
        r = integrate_finite(f, 0.0, 1.0, 1e-12)
    # int_0^1 x^-0.95 cos x dx, term by term
    want = math.fsum((-1) ** k / (math.factorial(2 * k) * (2 * k + 0.05)) for k in range(12))
    assert r.converged
    assert abs(r.value - want) <= r.abs_err_est


def test_interior_singularity_split():
    # int_0^2 |x-1|^(-1/2) dx = 4; the interior hint becomes two regularized
    # endpoint pieces
    f = Integrand(lambda x: np.abs(x - 1.0) ** -0.5,
                  singularities=(EndpointSingularity(1.0, -0.5),))
    r = integrate_finite(f, 0.0, 2.0, 1e-11)
    assert r.converged
    assert abs(r.value - 4.0) < 1e-10


def test_budget_exhaustion_flagged():
    # the zero integral makes the target unreachable; the budget ends the
    # run before the stall rule does (see test_stalled_run_stops)
    r = integrate_finite(lambda x: np.sin(x), 0.0, 2.0 * math.pi, 1e-12,
                         abs_floor=0.0, max_evals=1000)
    assert not r.converged
    assert "budget" in r.note
    # rounds that bisect several intervals at once still stop inside the budget
    for max_evals in (200, 500, 700):
        r = integrate_finite(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0, 1e-12,
                             initial_intervals=4, max_evals=max_evals)
        assert not r.converged
        assert "budget" in r.note
        assert r.terms_or_nodes_used <= max_evals


def test_stalled_run_stops():
    # int_0^2pi sin = 0 with no floor: the error settles at the rounding
    # level of f and stops halving long before the budget runs out
    r = integrate_finite(lambda x: np.sin(x), 0.0, 2.0 * math.pi, 1e-12,
                         abs_floor=0.0, max_evals=1_000_000)
    assert not r.converged
    assert r.note == "integrate_finite: error stagnated"
    assert abs(r.value) <= r.abs_err_est < 1e-14
    assert r.terms_or_nodes_used <= 2000


@pytest.mark.parametrize("fn", [np.log, lambda x: np.log(1.0 - x)], ids=["log x", "log(1-x)"])
def test_unhinted_log_endpoint_is_graded(fn):
    # no hint declared: the end intervals are cut geometrically toward the
    # singular end rather than halved once per round; at the right end no
    # node may round onto x = 1, where log(1 - x) is -inf
    f, calls = counted(fn)
    r = integrate_finite(f, 0.0, 1.0, 1e-12, initial_intervals=4)
    assert r.converged
    assert abs(r.value + 1.0) <= r.abs_err_est
    assert calls[0] <= 4


@pytest.mark.parametrize("fn, exact, tol, most", [
    (lambda x: x ** -0.3, 1.0 / 0.7, 1e-11, 6),
    (np.log, -1.0, 1e-12, 5),
], ids=["x^-0.3", "log x"])
def test_end_interval_cut_to_predicted_depth(fn, exact, tol, most):
    # after one halving of the end interval the contraction of its error is
    # measured, and the next cut goes as deep as that rate says the target
    # needs, instead of doubling the depth round by round
    f, calls = counted(fn)
    r = integrate_finite(f, 0.0, 1.0, tol)
    assert r.converged
    assert abs(r.value - exact) <= r.abs_err_est
    assert calls[0] <= most


def test_one_integrand_call_per_refinement_round():
    # the kink at 1/3 needs many rounds; each evaluates all its new halves at once
    f, calls = counted(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)))
    r = integrate_finite(f, 0.0, 1.0, 1e-12, initial_intervals=4)
    exact = 2.0 / 3.0 * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    assert r.converged
    assert abs(r.value - exact) <= max(r.abs_err_est, 1e-15)
    assert calls[0] <= 25


def test_wrong_shape_integrand_has_own_note():
    for fn, shape in ((lambda x: 1.0, "()"), (lambda x: np.ones(3), "(3,)")):
        r = integrate_finite(fn, 0.0, 1.0, 1e-8)
        assert not r.converged
        assert math.isinf(r.abs_err_est)
        assert r.note == f"integrate_finite: integrand returned shape {shape} for 15 nodes"


def test_nonfinite_integrand_stops_at_once():
    # NaN on [0.3, 0.7]: the first non-finite panel ends the run
    def f(x):
        return np.where((x > 0.3) & (x < 0.7), np.nan, np.sin(x))

    r = integrate_finite(f, 0.0, 1.0, 1e-10, max_evals=1_000_000)
    assert not r.converged
    assert "non-finite" in r.note
    assert r.terms_or_nodes_used <= 1000


def test_bad_interval():
    with pytest.raises(DomainError):
        integrate_finite(lambda x: x, 1.0, 0.0, 1e-8)
    with pytest.raises(DomainError):
        integrate_finite(lambda x: x, 0.0, 1.0, -1e-8)


# ----------------------------------------------------------------------
# semi-infinite, exponential decay
# ----------------------------------------------------------------------

def test_exponential():
    r = integrate_semiinf_decaying(lambda x: np.exp(-x), 0.0, 1.0, 1e-10)
    assert r.converged
    assert abs(r.value - 1.0) <= max(r.abs_err_est, 1e-10)


def test_gaussian():
    r = integrate_semiinf_decaying(lambda x: np.exp(-x * x), 0.0, 1.0, 1e-10)
    assert abs(r.value - 0.5 * math.sqrt(math.pi)) < 1e-10


def test_triple_j0_against_composite_oracle():
    # int_0^inf e^-x J0(sqrt(x))^3 dx by brute force on [0, 60]
    x = np.linspace(0.0, 60.0, 1_000_001)
    y = np.exp(-x) * sp.jv(0, np.sqrt(x)) ** 3
    want = oracles.simpson(y, x)
    r = integrate_semiinf_decaying(lambda t: np.exp(-t) * sp.jv(0, np.sqrt(t)) ** 3,
                                   0.0, 1.0, 1e-10)
    assert rel(r.value, want) < 1e-9


def test_decaying_head_integrated_once():
    # the tail past 30/rate is below the budget, so [0, 30] is the whole work
    # and the tail probes ride the head's first call
    f, calls = counted(lambda t: np.exp(-t) * np.cos(3.0 * t))
    r = integrate_semiinf_decaying(f, 0.0, 1.0, 1e-11)
    assert r.converged
    assert abs(r.value - 0.1) <= max(r.abs_err_est, 1e-13)
    assert calls[0] <= 4


def test_decaying_probe_nodes_are_charged():
    # the 5 probes share the head's first call but are charged as nodes:
    # every abscissa f sees is counted, and none past max_evals
    seen = []

    def f(t):
        seen.append(t.size)
        return np.exp(-t) * np.cos(3.0 * t)

    for max_evals in (20, 100, 300, 455, 1_000_000):
        seen.clear()
        r = integrate_semiinf_decaying(f, 0.0, 1.0, 1e-11, max_evals=max_evals)
        assert r.terms_or_nodes_used == sum(seen) <= max_evals
    assert r.converged


def test_decaying_nonfinite_probe_moves_truncation_out():
    # f is NaN just past t0 = 30, where the first probes sit: T moves out a
    # step, and [t0, T] meets the NaN, so the run cannot end on the head
    seen = []

    def f(t):
        seen.append(t.max())
        return np.where((t > 30.0) & (t < 32.5), np.nan, np.exp(-t))

    r = integrate_semiinf_decaying(f, 0.0, 1.0, 1e-10)
    assert max(seen) > 42.0
    assert not r.converged
    assert r.note == "integrate_finite: non-finite integrand value"


def _x_pow(g, rate):
    return lambda x: x ** g * np.exp(-rate * x)


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
@pytest.mark.parametrize("f, rate, want", [
    (Integrand(_x_pow(-0.9, 1.0), (EndpointSingularity(0.0, -0.9),)), 1.0, math.gamma(0.1)),
    (Integrand(_x_pow(-0.9, 1.0), (EndpointSingularity(0.0, -0.9, _x_pow(-0.9, 1.0)),)),
     1.0, math.gamma(0.1)),
    (Integrand(_x_pow(0.5, 2.0), (EndpointSingularity(0.0, 0.5),)), 2.0,
     math.gamma(1.5) / 2.0 ** 1.5),
], ids=["x^-0.9", "x^-0.9-offset", "x^0.5"])
def test_hinted_graded_head_within_its_estimate(f, rate, want, tol):
    # the head runs in u, x = 30 u^3 / rate: a hint x^g at 0 becomes
    # u^(3g + 2), its offset form off(L h^3) 3 L h^2
    r = integrate_semiinf_decaying(f, 0.0, rate, tol)
    assert r.converged, r.note
    assert abs(r.value - want) <= r.abs_err_est, (r.value, want)


def _shifted_pow(h):
    return h ** -0.9 * np.exp(-(1.0 + h))


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
@pytest.mark.parametrize("off", [None, _shifted_pow], ids=["x", "offset"])
def test_hint_at_a_nonzero_start(off, tol):
    # int_1^oo (x - 1)^-0.9 e^-x dx = Gamma(0.1)/e, about half of it within
    # 1e-13 of x = 1.  Without an offset form the head runs in x, where the
    # distance is divided out as f saw it: through a + L u^3 it would be
    # rounded to the spacing of 1
    f = Integrand(lambda x: np.abs(x - 1.0) ** -0.9 * np.exp(-x),
                  (EndpointSingularity(1.0, -0.9, off),))
    r = integrate_semiinf_decaying(f, 1.0, 1.0, tol)
    assert r.converged, r.note
    assert abs(r.value - math.gamma(0.1) / math.e) <= r.abs_err_est


def test_graded_head_nodes_stay_off_the_start():
    # x = a + L u^3 rounds onto a = 1 for u below about 2e-6, where an
    # unhinted log(x - 1) would be -inf
    r = integrate_semiinf_decaying(lambda x: np.log(x - 1.0) * np.exp(-x), 1.0, 1.0, 1e-13)
    assert r.converged, r.note
    assert abs(r.value + 0.5772156649015329 * math.exp(-1.0)) <= r.abs_err_est


def test_decaying_head_with_an_interior_hint_runs_in_x():
    # |x - 3|^-0.5 e^-x: the u-map would blur the distance to x = 3, so
    # that head is integrated in x, split at the hint
    f = Integrand(lambda x: np.abs(x - 3.0) ** -0.5 * np.exp(-x), (EndpointSingularity(3.0, -0.5),))
    want = math.sqrt(math.pi) * math.exp(-3.0) * (1.0 + sp.erfi(math.sqrt(3.0)))
    r = integrate_semiinf_decaying(f, 0.0, 1.0, 1e-13, max_evals=2000)
    assert r.converged, r.note
    assert abs(r.value - want) <= r.abs_err_est
    assert r.terms_or_nodes_used <= 300


def test_stalled_decaying_head_keeps_its_tail():
    # int_0^oo e^-t (1 - t) dt = 0, so the head [0, 30] alone is
    # 30 e^-30 = 2.8e-12; it stalls at its rounding floor, about 2e-16, and
    # the run still adds [30, T], unconverged, with the head's note
    r = integrate_semiinf_decaying(lambda t: np.exp(-t) * (1.0 - t), 0.0, 1.0, 1e-10)
    assert not r.converged
    assert r.note == "integrate_finite: error stagnated"
    assert abs(r.value) <= r.abs_err_est < 1e-15


def test_hinted_runs_and_oscillatory_heads_open_with_four_panels():
    # an unhinted run opens with one panel (15 nodes), a hinted run and an
    # oscillatory head with four (60 nodes)
    seen = []

    def f(x):
        seen.append(x.size)
        return np.cos(x)

    r = integrate_finite(np.exp, 0.0, 1.0, 1e-10)
    assert r.converged and r.terms_or_nodes_used == 15
    integrate_finite(Integrand(f, (EndpointSingularity(0.0, 0.5),)), 0.0, 1.0, 1e-10)
    assert seen[0] == 60
    seen.clear()
    integrate_semiinf_oscillatory(f, 0.0, math.pi, _j0_on_ray(math.pi), 1.0, 1e-10)
    assert seen[0] == 60


def test_decay_rate_must_be_positive():
    for rate in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            integrate_semiinf_decaying(lambda x: np.exp(-x), 0.0, rate, 1e-8)


def test_decaying_unmet_tail_bound_is_not_converged():
    # the rate overstates the decay: by 900/rate the tail of exp(-0.01 t)
    # is still far above the budget, so the run must not claim 100 - 1e-2
    r = integrate_semiinf_decaying(lambda t: np.exp(-0.01 * t), 0.0, 1.0, 1e-10)
    assert not r.converged
    assert math.isinf(r.abs_err_est)
    assert r.note == "integrate_semiinf_decaying: tail bound not met"


def test_decaying_node_budget_is_hard():
    # a tol beyond reach: head, tail probes and [t0, T] share max_evals
    def f(t):
        return np.exp(-t) * np.cos(40 * t) * (1 + 1e-9 * np.sin(1e7 * t))

    r = integrate_semiinf_decaying(f, 0.0, 1.0, 1e-15, max_evals=20_000)
    assert not r.converged
    assert "budget" in r.note
    assert r.terms_or_nodes_used <= 20_000
    # the declared rate overstates the decay, so the tail probes never settle
    r = integrate_semiinf_decaying(lambda t: np.exp(-0.05 * t), 0.0, 1.0, 1e-10,
                                   max_evals=200)
    assert not r.converged
    assert "budget" in r.note
    assert r.terms_or_nodes_used <= 200
    r = integrate_finite(lambda x: np.sin(x), 0.0, 1.0, 1e-12, max_evals=10)
    assert not r.converged and r.terms_or_nodes_used == 0


# ----------------------------------------------------------------------
# semi-infinite, oscillatory along a vertical ray
# ----------------------------------------------------------------------

def _j0_on_ray(x0):
    # H1_0(z) = hankel1e(0, z) exp(i x0) exp(-Im z) on Re z = x0; Re H1_0 = J_0
    return lambda z: sp.hankel1e(0, z) * np.exp(1j * x0) * np.exp(-z.imag)


@pytest.mark.parametrize("f, fc, want", [
    (sp.j0, _j0_on_ray(math.pi), 1.0),
    (lambda x: np.sinc(x / np.pi), lambda z: -1j * np.exp(1j * z) / z, 0.5 * math.pi),
], ids=["J0", "sinc"])
def test_ray_unit_integrals(f, fc, want):
    # int_0^inf J_0(x) dx = 1 and int_0^inf sin(x)/x dx = pi/2, each tail
    # the decaying integral -int_0^inf Im F(pi + iy) dy
    r = integrate_semiinf_oscillatory(f, 0.0, math.pi, fc, 1.0, 1e-10)
    assert r.converged and r.note == ""
    assert abs(r.value - want) <= r.abs_err_est < 1e-9
    assert r.terms_or_nodes_used < 1000


def test_ray_node_budget_is_hard():
    # head and tail share max_evals; a budget the tail cannot meet is not converged
    for max_evals in (0, 20, 100):
        r = integrate_semiinf_oscillatory(sp.j0, 0.0, math.pi, _j0_on_ray(math.pi), 1.0, 1e-10,
                                  max_evals=max_evals)
        assert not r.converged and "budget" in r.note, max_evals
        assert r.terms_or_nodes_used <= max_evals


def test_ray_nonfinite_continuation_is_unconverged():
    def nan_on_ray(z):
        return np.full(z.shape, complex(np.nan, np.nan))

    def nan_in_head(x):
        return np.where((x > 3.0) & (x < 3.2), np.nan, sp.j0(x))

    for f, fc in ((sp.j0, nan_on_ray), (nan_in_head, _j0_on_ray(2 * math.pi))):
        r = integrate_semiinf_oscillatory(f, 0.0, 2 * math.pi, fc, 1.0, 1e-10)
        assert not r.converged
        assert math.isinf(r.abs_err_est)
        assert r.note == "integrate_finite: non-finite integrand value"
    with pytest.raises(DomainError):
        integrate_semiinf_oscillatory(sp.j0, 1.0, 1.0, _j0_on_ray(1.0), 1.0, 1e-10)


def test_dirichlet_integral():
    # the value does not depend on where the ray stands
    f = Integrand(lambda x: np.sinc(x / np.pi))
    for x0 in (1.0, math.pi, 10.0):
        r = integrate_semiinf_oscillatory(f, 0.0, x0, lambda z: -1j * np.exp(1j * z) / z,
                                          1.0, 1e-10)
        assert r.converged
        assert abs(r.value - 0.5 * math.pi) < 1e-9, x0


def test_bessel_kernel_unit_integral():
    f = Integrand(lambda x: sp.jv(0, x))
    for x0 in (1.0, 2.405):
        r = integrate_semiinf_oscillatory(f, 0.0, x0, _j0_on_ray(x0), 1.0, 1e-10)
        assert r.converged
        assert abs(r.value - 1.0) < 1e-9, x0


def _hankel_k0_on_ray(x0):
    # y J_0(y) / (1 + y^2) continued with H1_0; the poles at +-i lie off the ray
    j0 = _j0_on_ray(x0)
    return lambda z: z / (1 + z * z) * j0(z)


def test_hankel_tail_matches_k0_oracle():
    # int_0^inf y J0(y)/(1+y^2) dy = K_0(1), target from the integral oracle
    want = oracles.bessel_k0_integral(1.0)
    f = Integrand(lambda y: y * sp.jv(0, y) / (1 + y * y))
    r = integrate_semiinf_oscillatory(f, 0.0, math.pi, _hankel_k0_on_ray(math.pi), 1.0, 1e-8)
    assert r.converged
    assert rel(r.value, want) < 1e-6


def test_oscillatory_error_covers_weber_schafheitlin():
    # int_0^inf x^-s J_mu(ax) J_nu(bx) dx against its 2F1 closed form, with
    # the tail continued as x^-s H1_mu(ax) J_nu(bx) at rate a - b: the
    # reported error must cover the true error
    def closed(mu, nu, s, a, b):
        f21 = sp.hyp2f1(0.5 * (nu - mu - s + 1), 0.5 * (nu + mu - s + 1), nu + 1, (b / a) ** 2)
        return (f21 * 2.0 ** -s * b ** nu * a ** (s - nu - 1) * math.gamma(0.5 * (mu + nu - s + 1))
                / (math.gamma(nu + 1) * math.gamma(0.5 * (mu - nu + s + 1))))

    worst = 0.0
    for mu, nu, s, (a, b) in itertools.product((0.0, 1.0, 2.0), (0.0, 1.0), (0.5, 1.5),
                                               ((1.0, 0.4), (1.3, 0.7), (2.0, 0.5))):
        g = mu + nu - s
        if g <= -1.0:  # divergent at 0
            continue
        f = Integrand(lambda x: x ** -s * sp.jv(mu, a * x) * sp.jv(nu, b * x),
                      singularities=(EndpointSingularity(0.0, g),) if g < 0 else ())
        x0 = math.pi / a

        def fc(z):
            return (z ** -s * sp.hankel1e(mu, a * z) * sp.jve(nu, b * z)
                    * np.exp(1j * a * x0) * np.exp(-(a - b) * z.imag))

        r = integrate_semiinf_oscillatory(f, 0.0, x0, fc, a - b, 1e-8)
        assert r.converged
        worst = max(worst, abs(r.value - closed(mu, nu, s, a, b)) / r.abs_err_est)
    assert worst <= 1.0


# ----------------------------------------------------------------------
# epsilon algorithm
# ----------------------------------------------------------------------

def test_epsilon_alternating_harmonic():
    sums = np.cumsum([(-1.0) ** k / (k + 1) for k in range(12)])
    r = epsilon_extrapolate(sums)
    assert abs(r.value - math.log(2.0)) < 1e-9


def test_epsilon_geometric_exact():
    sums = np.cumsum([0.5 ** k for k in range(5)])
    r = epsilon_extrapolate(sums)
    assert r.value == pytest.approx(2.0, abs=1e-14)


def test_epsilon_leibniz():
    sums = np.cumsum([(-1.0) ** k / (2 * k + 1) for k in range(15)])
    r = epsilon_extrapolate(sums)
    assert abs(r.value - 0.25 * math.pi) < 1e-10


def test_epsilon_breakdown_guard():
    r = epsilon_extrapolate([1.0, 1.0, 1.0, 1.0, 1.0])
    assert r.value == 1.0
    with pytest.raises(DomainError):
        epsilon_extrapolate([1.0, 2.0])


# ----------------------------------------------------------------------
# error-estimate honesty over a battery of known integrals
# ----------------------------------------------------------------------

def test_error_estimates_bound_truth():
    cases = []

    def record(result, truth):
        cases.append((abs(result.value - truth), result.abs_err_est))

    record(integrate_finite(lambda x: x * x, 0.0, 1.0, 1e-10), 1.0 / 3.0)
    record(integrate_finite(lambda x: np.exp(x), 0.0, 1.0, 1e-10), math.e - 1.0)
    record(integrate_finite(lambda x: np.cos(7 * x), 0.0, 2.0, 1e-10),
           math.sin(14.0) / 7.0)
    f = Integrand(lambda u: (1 - u * u) ** -0.5,
                  singularities=(EndpointSingularity(-1.0, -0.5),
                                 EndpointSingularity(1.0, -0.5)))
    record(integrate_finite(f, -1.0, 1.0, 1e-10), math.pi)
    record(integrate_semiinf_decaying(lambda x: np.exp(-x), 0.0, 1.0, 1e-9), 1.0)
    record(integrate_semiinf_decaying(lambda x: np.exp(-2 * x) * np.cos(3 * x),
                                      0.0, 2.0, 1e-9), 2.0 / 13.0)
    record(integrate_semiinf_decaying(lambda x: np.exp(-x * x), 0.0, 1.0, 1e-9),
           0.5 * math.sqrt(math.pi))
    record(integrate_semiinf_oscillatory(
        Integrand(lambda x: np.sinc(x / np.pi)), 0.0, math.pi,
        lambda z: -1j * np.exp(1j * z) / z, 1.0, 1e-9), 0.5 * math.pi)
    record(integrate_semiinf_oscillatory(
        Integrand(lambda x: sp.jv(0, x)), 0.0, math.pi, _j0_on_ray(math.pi), 1.0, 1e-9), 1.0)
    record(integrate_semiinf_oscillatory(
        Integrand(lambda y: y * sp.jv(0, y) / (1 + y * y)), 0.0, math.pi,
        _hankel_k0_on_ray(math.pi), 1.0, 1e-9),
        float(sp.kv(0, 1)))

    bounded = sum(1 for err, est in cases if err <= est)
    assert bounded / len(cases) >= 0.95
    for err, est in cases:
        assert err <= 100.0 * max(est, 5e-16)
