"""Stokes data of the Painleve III (D8) linear system.

The pair (sigma, eta) parameterizes the connection matrix E and the
Stokes matrix S.  This module builds those matrices, the formal monodromy
M0 around the origin and its diagonalizer U, and validates the parameters
(2*sigma must stay off the integer lattice, where the 1/sin(2 pi sigma)
prefactors blow up).

Conventions: nu = sigma + 1/2 is the shifted parameter used by the
Fourier-mode and series modules; all matrices are plain 2x2 complex numpy
arrays.
"""

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateParameterError

__all__ = [
    "MonodromyParams",
    "check_off_lattice",
    "connection_matrix",
    "stokes_matrix",
    "m0",
    "diagonalizer",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

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


def connection_matrix(params: MonodromyParams) -> np.ndarray:
    """Connection matrix E relating canonical solutions at 0 and infinity.

    det E = 1; degenerate when sin(2 pi sigma) vanishes.
    """
    s, e = params.sigma, params.eta
    sin2s = cmath.sin(2 * cmath.pi * s)
    if abs(sin2s) < 1e-10:
        raise DegenerateParameterError(f"sin(2 pi sigma) ~ 0 for sigma = {s}")
    return (
        np.array(
            [
                [cmath.sin(2 * cmath.pi * e), -1j * cmath.sin(2 * cmath.pi * (e + s))],
                [1j * cmath.sin(2 * cmath.pi * (e - s)), cmath.sin(2 * cmath.pi * e)],
            ]
        )
        / sin2s
    )


def stokes_matrix(params: MonodromyParams) -> np.ndarray:
    """Upper-triangular Stokes matrix S with corner -2i cos(2 pi sigma)."""
    return np.array(
        [[1.0, -2j * cmath.cos(2 * cmath.pi * params.sigma)], [0.0, 1.0]], dtype=complex
    )


def m0(params: MonodromyParams) -> np.ndarray:
    """Monodromy matrix M0 = i sigma_x S^{-1} around the origin.

    Eigenvalues are -exp(+-2 pi i sigma); trace is -2 cos(2 pi sigma).
    """
    s_inv = np.linalg.inv(stokes_matrix(params))
    return 1j * PAULI_X @ s_inv


def diagonalizer(params: MonodromyParams) -> np.ndarray:
    """Matrix U with U M0 U^{-1} = exp(2 pi i nu sigma_z).

    The square root of sin(2 pi sigma) uses the principal branch.
    """
    s = params.sigma
    root = cmath.sqrt(2 * cmath.sin(2 * cmath.pi * s))
    a = cmath.exp(-1j * cmath.pi * (s + 0.25))
    b = cmath.exp(1j * cmath.pi * (s + 0.25))
    return np.array([[a, b], [b, -a]]) / root


def exp_formal_monodromy(params: MonodromyParams) -> np.ndarray:
    """exp(2 pi i S_frak) with S_frak = nu sigma_z."""
    nu = params.nu
    return np.diag(
        [cmath.exp(2j * cmath.pi * nu), cmath.exp(-2j * cmath.pi * nu)]
    ).astype(complex)
