# Tour of the scalar kernels: gamma, Bessel J/Y/I/K, Kelvin functions of
# real order, and the hypergeometric series 0F1 / 0F3 / 2F1.
#
# Run:  python demos/01_special_function_kernels.py

import math

from besselint import (bessel_j, bessel_k, bessel_y, gamma,
                       hyp0f3, hyp2f1, kelvin_bei, kelvin_ber)

print("== gamma ==")
print("gamma(5)   =", gamma(5.0), "(= 4!)")
print("gamma(1/2) =", gamma(0.5), "(= sqrt(pi) =", math.sqrt(math.pi), ")")

print()
print("== Bessel functions, scalar EvalResult surface ==")
r = bessel_j(0.5, math.pi / 2)
print(f"J_1/2(pi/2) = {r.value:.15g}  (closed form 2/pi = {2/math.pi:.15g})")
print(f"  abs_err_est={r.abs_err_est:.2g}  converged={r.converged}")
print(f"K_1/2(1)    = {bessel_k(0.5, 1.0).value:.15g}  "
      f"(sqrt(pi/2)/e = {math.sqrt(math.pi/2)/math.e:.15g})")

# Wronskian sanity: J_nu Y_nu' - J_nu' Y_nu = 2/(pi x), derivatives via the
# three-term recurrences.
nu, x = 0.7, 3.2
j, y = bessel_j(nu, x).value, bessel_y(nu, x).value
jp = 0.5 * (bessel_j(nu - 1, x).value - bessel_j(nu + 1, x).value)
yp = 0.5 * (bessel_y(nu - 1, x).value - bessel_y(nu + 1, x).value)
print(f"Wronskian residual at nu={nu}, x={x}: "
      f"{j*yp - jp*y - 2/(math.pi*x):.2e}")

print()
print("== Kelvin functions of general real order ==")
# ber_nu + i bei_nu = J_nu evaluated along the phase-3pi/4 ray, one call to
# scipy's complex jv.
for nu in (0.0, 0.5, 2.0):
    b, bi = kelvin_ber(nu, 2.0), kelvin_bei(nu, 2.0)
    print(f"ber_{nu}(2) = {b.value: .12f}   bei_{nu}(2) = {bi.value: .12f}")

print()
print("== 0F3 and the Kelvin bridge ==")
# ber(x) = 0F3(1/2,1/2,1; -x^4/256) and bei(x) = (x^2/4) 0F3(3/2,3/2,1; ...)
x = 3.0
z = -x ** 4 / 256.0
print("ber(3)                      =", kelvin_ber(0.0, x).value)
print("0F3(1/2,1/2,1; -81/256*...) =", hyp0f3(0.5, 0.5, 1.0, z).value)
print("bei(3)                      =", kelvin_bei(0.0, x).value)
print("(9/4) 0F3(3/2,3/2,1; ...)   =", 0.25 * x * x * hyp0f3(1.5, 1.5, 1.0, z).value)

# The error estimate tracks cancellation: a large negative argument burns
# digits and the result owns up to it.  The scalar sum stops after three
# negligible terms in a row, so the term count is the terms actually summed.
r = hyp0f3(0.5, 0.5, 1.0, -1e5)
print(f"hyp0f3(..., -1e5): value={r.value:.6g}, abs_err_est={r.abs_err_est:.2g}, "
      f"terms={r.terms_or_nodes_used}")

print()
print("== 2F1 ==")
print("2F1(1,1;2;1/2) =", hyp2f1(1, 1, 2, 0.5).value, " (= 2 ln 2 =", 2 * math.log(2), ")")
print("2F1(-3,4;1;0.3) =", hyp2f1(-3, 4, 1, 0.3).value, " (terminating, = P_3(0.4))")
