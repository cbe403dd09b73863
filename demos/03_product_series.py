# Series routes for products of Bessel functions and the Laplace transform
# of a product of three Bessel functions.
#
# Run:  python demos/03_product_series.py

import math

import numpy as np
from scipy import special as sp

from besselint import (TripleParams, hyp0f1_product, integrate_semiinf_decaying,
                       product_jj_gauss, product_jj_neumann, weber_j0jm_limit,
                       weber_triple, weber_triple_m)


def laplace(f):
    """int_0^inf f(t) dt for an integrand that decays like e^-t."""
    return integrate_semiinf_decaying(f, 0.0, 1.0, 1e-11).value


print("== two series routes to J_mu(ax) J_nu(bx) ==")
mu, nu, a, b, x = 0.5, 0.5, 2.0, 1.0, 1.3
direct = sp.jv(mu, a * x) * sp.jv(nu, b * x)
gauss = product_jj_gauss(mu, nu, a, b, x)
neumann = product_jj_neumann(nu, a, b, x)
print(f"direct product        = {direct:.15g}")
print(f"Gauss-sum expansion   = {gauss.value:.15g}   ({gauss.terms_or_nodes_used} terms)")
print(f"Neumann-series route  = {neumann.value:.15g}   ({neumann.terms_or_nodes_used} terms)")

print()
print("== 0F1 product expansion ==")
c, xx, yy = 1.5, -0.8, 0.4
r = hyp0f1_product(c, xx, yy)
print(f"r-expansion           = {r.value:.15g}")
print(f"0F1(c;x) * 0F1(c;y)   = "
      f"{float(sp.hyp0f1(c, xx)) * float(sp.hyp0f1(c, yy)):.15g}")

print()
print("== Laplace transform of J0 J0 J0 ==")
# The closed series: (1/a) e^{-(b1^2+b2^2+b3^2)/4a} sum (2-d_n0)(-1)^n I_n I_n I_n
p = TripleParams(alpha=1.0, beta1=1.0, beta2=1.0, beta3=1.0)
r = weber_triple(p)
print(f"series        = {r.value:.15g}  ({r.terms_or_nodes_used} terms)")
quad = laplace(lambda t: np.exp(-t) * sp.jv(0, np.sqrt(t)) ** 3)
print(f"quadrature    = {quad:.15g}")

# One parameter set to zero collapses the sum to its n = 0 term: Weber's
# second exponential integral.
p0 = TripleParams(1.0, 1.0, 1.0, 0.0)
print(f"beta3 = 0     : {weber_triple(p0).value:.15g}  "
      f"(= e^-1/2 I_0(1/2) = {math.exp(-0.5) * float(sp.iv(0, 0.5)):.15g})")

print()
print("== the m-th order generalization ==")
for m in (1, 2, 3):
    pm = TripleParams(1.0, 1.0, 1.0, 1.0, m)
    r = weber_triple_m(pm)
    f = lambda t: np.exp(-t) * sp.jv(0, np.sqrt(t)) * sp.jv(m, np.sqrt(t)) ** 2
    quad = laplace(f)
    print(f"m={m}: derivative form = {r.value:.12g}   quadrature = {quad:.12g}   "
          f"rel diff = {abs(r.value-quad)/abs(quad):.1e}")

print()
print("== the two-factor limit (finite sum, no truncation error) ==")
r = weber_j0jm_limit(1.0, 1.0, 1.0, 2)
f = lambda t: np.exp(-t) * sp.jv(0, np.sqrt(t)) * sp.jv(2, np.sqrt(t)) * t
print(f"closed sum = {r.value:.15g}   quadrature = {laplace(f):.15g}")
