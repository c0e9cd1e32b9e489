"""Exception hierarchy shared by all besseltau modules."""

import contextlib

import numpy as np


class BesselTauError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(BesselTauError, ValueError):
    """A Gamma-type function was evaluated at (or too close to) a pole."""


class DegenerateParameterError(BesselTauError, ValueError):
    """Monodromy parameters sit on the excluded half-integer lattice."""


class CauchyCollisionError(BesselTauError, ValueError):
    """Two shifted momenta coincide, so a Cauchy denominator vanishes."""


class QuadratureConvergenceError(BesselTauError, RuntimeError):
    """Fourier modes of a sampled kernel did not decay by the Nyquist index."""


class ConfigError(BesselTauError, ValueError):
    """A run configuration failed validation."""


@contextlib.contextmanager
def overflow_guard(message: str):
    """Raise BesselTauError(f"{message}: ...") for an overflow or invalid value in the block."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except ArithmeticError as exc:
        raise BesselTauError(f"{message}: {exc}") from exc
