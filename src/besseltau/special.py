"""Complex special functions used throughout the package.

Everything here is pure and double precision: the complex log-Gamma
(principal branch), Pochhammer symbols, the entire Bessel-type function

    j_sigma(z) = sum_{k>=0} z^k / (k! * Gamma(2*sigma + 1 + k)),

evaluated elementwise over arrays, and ratios of the Barnes G-function
reduced to finite Gamma products via G(z+1) = Gamma(z) G(z).
"""

import cmath

import numpy as np
import scipy.special

from .errors import PoleError

__all__ = [
    "ln_gamma",
    "pochhammer",
    "j_sigma",
    "barnes_g_ratio",
    "upsilon",
]

#: terms allowed in the j_sigma series before giving up
_J_SERIES_CAP = 200


def _is_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    z = complex(z)
    return (
        abs(z.imag) <= tol
        and z.real <= 0.5
        and abs(z.real - round(z.real)) <= tol
        and round(z.real) <= 0
    )


def ln_gamma(z) -> complex:
    """Principal branch of log Gamma(z); exp of the result is Gamma(z)."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"Gamma pole at z = {z}")
    return complex(scipy.special.loggamma(z))


def gamma(z) -> complex:
    """Gamma(z) through the principal log-Gamma."""
    return cmath.exp(ln_gamma(z))


def pochhammer(alpha, k: int) -> complex:
    """Rising factorial alpha (alpha+1) ... (alpha+k-1); 1 for k = 0."""
    if k < 0:
        raise ValueError("pochhammer order must be a nonnegative integer")
    alpha = complex(alpha)
    out = 1.0 + 0.0j
    for i in range(k):
        out *= alpha + i
    return out


def j_sigma(sigma, z):
    """The entire function z^{-sigma} I_{2 sigma}(2 sqrt z), elementwise in z.

    Evaluated by its Taylor series, which converges superfactorially; the
    loop stops once the last two terms are below 1e-18 of the sum at every
    entry.  A scalar z gives a scalar.  Requires 2*sigma + 1 away from the
    non-positive integers.
    """
    sigma = complex(sigma)
    two_sigma_p1 = 2 * sigma + 1
    if _is_nonpositive_integer(two_sigma_p1):
        raise PoleError(f"j_sigma undefined: 2*sigma + 1 = {two_sigma_p1} is a Gamma pole")
    z = np.asarray(z, dtype=complex)
    term = np.full(z.shape, cmath.exp(-ln_gamma(two_sigma_p1)))
    total = term
    prev = np.abs(term)
    for k in range(_J_SERIES_CAP):
        term = term * z / ((k + 1) * (two_sigma_p1 + k))
        total = total + term
        cur = np.abs(term)
        small = 1e-18 * np.abs(total)
        if np.all((cur < small) & (prev < small)):
            break
        prev = cur
    return total if total.ndim else complex(total)


def barnes_g_ratio(z, n: int) -> complex:
    """G(z+n)/G(z) as a finite product of Gamma values.

    Uses G(z+1) = Gamma(z) G(z) repeatedly; the transcendental G itself is
    never evaluated.  For n >= 0 the result is prod_{k=0}^{n-1} Gamma(z+k),
    for n < 0 it is 1 / prod_{k=1}^{-n} Gamma(z-k).
    """
    z = complex(z)
    if n >= 0:
        log_sum = sum((ln_gamma(z + k) for k in range(n)), 0.0 + 0.0j)
        return cmath.exp(log_sum)
    log_sum = sum((ln_gamma(z - k) for k in range(1, -n + 1)), 0.0 + 0.0j)
    return cmath.exp(-log_sum)


def upsilon(nu, q: int) -> complex:
    """Structure constant Gamma^Q(1+nu) G(1+nu)/G(1+nu+Q).

    A rational function of nu, realized through barnes_g_ratio.
    """
    nu = complex(nu)
    return cmath.exp(q * ln_gamma(1 + nu)) / barnes_g_ratio(1 + nu, q)
