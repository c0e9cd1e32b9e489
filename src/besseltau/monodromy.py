"""Monodromy parameters of the Painleve III (D8) tau function.

The pair (sigma, eta) parameterizes the Stokes data of the linear
system; the tau function depends on it only through nu = sigma + 1/2
and eta.  This module validates the pair (2*sigma must stay off the
integer lattice, where the 1/sin(2 pi sigma) prefactors blow up).
"""

from dataclasses import dataclass, field

from .errors import DegenerateParameterError

__all__ = ["MonodromyParams", "check_off_lattice"]

#: minimal allowed distance of 2*sigma from the integer lattice
LATTICE_TOL = 1e-8


def check_off_lattice(sigma):
    """Raise DegenerateParameterError when 2*sigma is within LATTICE_TOL of Z."""
    sigma = complex(sigma)
    two_sigma = 2 * sigma
    dist = abs(two_sigma.imag) + abs(two_sigma.real - round(two_sigma.real))
    if dist < LATTICE_TOL:
        raise DegenerateParameterError(
            f"sigma on half-integer lattice: sigma = {sigma} has 2*sigma "
            f"within {LATTICE_TOL} of an integer"
        )


@dataclass(frozen=True)
class MonodromyParams:
    """Initial data (sigma, eta) of the tau function; nu = sigma + 1/2.

    Accepted anywhere in C^2 off the lattice 2*sigma in Z.  The
    normalizing strips sometimes imposed on (sigma, eta) are deliberately
    not enforced: quasi-periodicity checks need sigma and sigma + 1 at the
    same time.  Formulas are evaluated verbatim for out-of-strip input;
    identifying the resulting branch is left to the caller.
    """

    sigma: complex
    eta: complex
    nu: complex = field(init=False)

    def __post_init__(self):
        sigma = complex(self.sigma)
        eta = complex(self.eta)
        check_off_lattice(sigma)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "nu", sigma + 0.5)

    @classmethod
    def from_nu(cls, nu, eta) -> "MonodromyParams":
        return cls(complex(nu) - 0.5, eta)

    def shifted(self, n: int) -> "MonodromyParams":
        """Parameters with sigma -> sigma + n (same eta)."""
        return MonodromyParams(self.sigma + n, self.eta)

