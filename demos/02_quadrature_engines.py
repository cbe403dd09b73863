# The three integration engines and the sequence accelerator.
#
# Run:  python demos/02_quadrature_engines.py

import math

import numpy as np
from scipy import special as sp

from besselint import (EndpointSingularity, Integrand, epsilon_extrapolate,
                       integrate_finite, integrate_semiinf_decaying,
                       integrate_semiinf_oscillatory)

print("== adaptive finite quadrature ==")
r = integrate_finite(lambda x: x * x, 0.0, 1.0, 1e-12)
print(f"int_0^1 x^2 dx        = {r.value:.15g}  (1/3), est={r.abs_err_est:.1e}")

# Endpoint singularities are declared, never auto-detected.  The hint can
# carry an offset form f(endpoint -+ h) so the singular factor is computed
# from the exact distance h.
arcsine = Integrand(lambda u: (1 - u * u) ** -0.5,
                    singularities=(EndpointSingularity(-1.0, -0.5),
                                   EndpointSingularity(1.0, -0.5)))
r = integrate_finite(arcsine, -1.0, 1.0, 1e-12)
print(f"int (1-u^2)^-1/2 du   = {r.value:.15g}  (pi = {math.pi:.15g})")

g = -0.75
strong = Integrand(lambda u: (1 - u * u) ** g,
                   singularities=(EndpointSingularity(
                       1.0, g, offset_fn=lambda h: (h * (2 - h)) ** g),))
r = integrate_finite(strong, 0.0, 1.0, 1e-13)
exact = 0.5 * math.gamma(0.5) * math.gamma(g + 1) / math.gamma(g + 1.5)
print(f"int_0^1 (1-u^2)^-3/4  = {r.value:.15g}  (beta form {exact:.15g})")

print()
print("== semi-infinite with exponential decay ==")
# The decay rate (here 1: the integrand falls at least like e^-x) drives an
# analytic tail bound; the finite part gets the other half of the budget.
r = integrate_semiinf_decaying(lambda x: np.exp(-x * x), 0.0, 1.0, 1e-11)
print(f"int_0^inf e^(-x^2) dx = {r.value:.15g}  (sqrt(pi)/2 = {math.sqrt(math.pi)/2:.15g})")

r = integrate_semiinf_decaying(lambda x: np.exp(-x) * sp.jv(0, np.sqrt(x)) ** 3,
                               0.0, 1.0, 1e-11)
print(f"int e^-x J0(sqrt x)^3 = {r.value:.15g}  ({r.terms_or_nodes_used} evals)")

print()
print("== conditionally convergent oscillatory integrals ==")
# The head [0, x0] goes through the finite engine.  Past x0 the integrand is
# Re F(x) for a continuation F that decays up the vertical ray x0 + iy, so
# by Cauchy's theorem the tail is the non-oscillating -int_0^inf Im F(x0 + iy) dy,
# integrated by the decaying engine at F's decay rate.  F is only called on
# the ray, so it may carry constants of the ray such as exp(i x0).
x0 = math.pi
r = integrate_semiinf_oscillatory(lambda x: np.sinc(x / np.pi), 0.0, x0,
                                  lambda z: -1j * np.exp(1j * z) / z, 1.0, 1e-10)
print(f"int_0^inf sin(x)/x dx = {r.value:.15g}  (pi/2 = {math.pi/2:.15g}), "
      f"{r.terms_or_nodes_used} evals")


# J_0 = Re H1_0 on the real axis; hankel1e(0, z) = H1_0(z) exp(-iz), and on
# the ray exp(iz) = exp(i x0) exp(-Im z).  The poles at z = +-i lie off the ray.
def hankel_tail(z):
    return z / (1 + z * z) * sp.hankel1e(0, z) * np.exp(1j * x0) * np.exp(-z.imag)


def hankel_head(y):
    return y * sp.j0(y) / (1 + y * y)


r = integrate_semiinf_oscillatory(hankel_head, 0.0, x0, hankel_tail, 1.0, 1e-10)
print(f"int y J0(y)/(1+y^2)   = {r.value:.15g}  (K_0(1) = {float(sp.kv(0, 1)):.15g}), "
      f"{r.terms_or_nodes_used} evals")

# Every engine spends at most max_evals integrand nodes; a run that needs
# more stops unconverged instead of running on.
r = integrate_semiinf_oscillatory(hankel_head, 0.0, x0, hankel_tail, 1.0, 1e-10,
                                  max_evals=100)
print(f"same, max_evals=100   : converged={r.converged}, {r.terms_or_nodes_used} evals"
      f" ({r.note})")

# int_0^inf x^-1/2 J_0(x) J_0(0.99 x) dx.  The product beats at a - b = 0.01,
# so on the real axis its oscillation barely decays.  Past x0 it is Re F(x)
# with F(z) = z^-1/2 H1_0(z) J_0(0.99 z), which decays like exp(-0.01 Im z).
# The scaled kernels keep their exponentials written out; the head [0, x0]
# keeps its x^-1/2 hint.
b = 0.99


def ray(z):
    return (z ** -0.5 * sp.hankel1e(0, z) * sp.jve(0, b * z) * np.exp(1j * x0)
            * np.exp(-(1 - b) * z.imag))


head = Integrand(lambda x: x ** -0.5 * sp.j0(x) * sp.j0(b * x),
                 singularities=(EndpointSingularity(0.0, -0.5),))
r = integrate_semiinf_oscillatory(head, 0.0, x0, ray, 1 - b, 1e-10)
exact = (2 ** -0.5 * math.gamma(0.25) / math.gamma(0.75)
         * float(sp.hyp2f1(0.25, 0.25, 1.0, b * b)))
print(f"int x^-1/2 J0(x) J0(0.99x) = {r.value:.15g}  (2F1 form {exact:.15g}), "
      f"{r.terms_or_nodes_used} evals")

print()
print("== Wynn's epsilon on raw partial sums ==")
sums = np.cumsum([(-1.0) ** k / (k + 1) for k in range(12)])
r = epsilon_extrapolate(sums)
print(f"12 alternating-harmonic sums -> {r.value:.12f}  (ln 2 = {math.log(2):.12f})")
print(f"last raw sum error {abs(sums[-1]-math.log(2)):.1e}  vs extrapolated "
      f"{abs(r.value-math.log(2)):.1e}")
