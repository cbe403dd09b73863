"""besselint: Bessel-family special functions and a numerically verified
catalog of definite-integral identities.

The package has four layers:

* :mod:`besselint.specfun` -- scalar kernels (gamma, J/Y/I/K, Kelvin
  ber/bei of real order, 0F1/0F3/2F1);
* :mod:`besselint.quad` -- adaptive finite quadrature plus semi-infinite
  engines for exponentially decaying and oscillatory integrands (the
  latter as a real head plus a decaying tail up a ray in the complex
  plane), and Wynn's epsilon algorithm;
* :mod:`besselint.series` -- the product/Laplace series evaluators, summed
  by one loop with the 0F1/0F3 stopping rule, and the exact m-th
  derivative of the m-th order triple series by Leibniz's rule;
* :mod:`besselint.catalog` -- the machine-readable identity manifest:
  each entry evaluates its two sides by independent numerical routes and
  quantifies agreement.

``besselint.cli`` exposes the same surface as the ``besselint`` command.
"""

__version__ = "0.1.0"

from .specfun import (DomainError, EvalResult, bessel_i, bessel_i_scaled,
                      bessel_j, bessel_k, bessel_k_scaled, bessel_y, gamma,
                      hyp0f1, hyp0f3, hyp2f1, kelvin_bei, kelvin_ber, log_gamma)
from .quad import (EndpointSingularity, Integrand, epsilon_extrapolate,
                   integrate_finite, integrate_semiinf_decaying,
                   integrate_semiinf_oscillatory)
from .series import (TripleParams, derivative_m, hyp0f1_product, product_jj_gauss,
                     product_jj_neumann, weber_j0jm_limit, weber_triple, weber_triple_m)

__all__ = [
    "__version__",
    "DomainError", "EvalResult",
    "gamma", "log_gamma",
    "bessel_j", "bessel_y", "bessel_i", "bessel_i_scaled",
    "bessel_k", "bessel_k_scaled",
    "kelvin_ber", "kelvin_bei",
    "hyp0f1", "hyp0f3", "hyp2f1",
    "Integrand", "EndpointSingularity",
    "integrate_finite", "integrate_semiinf_decaying",
    "integrate_semiinf_oscillatory", "epsilon_extrapolate",
    "TripleParams",
    "product_jj_gauss", "product_jj_neumann", "hyp0f1_product",
    "weber_triple", "weber_triple_m", "weber_j0jm_limit", "derivative_m",
]
