"""Numerics for the most-degenerate Painleve III tau function.

The tau function is computed three independent ways — as a Fredholm
determinant of a generalized Bessel kernel in its Fourier-mode basis, as
a sum over pairs of Maya diagrams, and as a charge-graded instanton
sum — and the routes cross-validate each other and the defining ODEs.
"""

from .errors import (
    BesselTauError,
    CauchyCollisionError,
    ConfigError,
    DegenerateParameterError,
    PoleError,
    QuadratureConvergenceError,
)
from .kernel import (
    ModeMatrices,
    bessel_kernel_J,
    fredholm_det,
    kernel_a,
    kernel_d,
    mode_matrix_a,
    mode_matrix_d,
    modes_by_quadrature,
    rank_one_residual,
)
from .monodromy import MonodromyParams
from .nekrasov import (
    SeriesTruncation,
    check_lemma_identities,
    quasi_periodicity_residual,
    z_bif,
    z_inst_coefficients,
)
from .partitions import (
    MayaDiagram,
    YoungDiagram,
    maya_from_young,
    young_from_maya,
)
from .tau import (
    TauRoute,
    TauValue,
    cross_validate,
    ode_residual,
    painleve_q,
    sine_gordon_map,
    sine_gordon_residual,
    tau,
    zeta,
)

__version__ = "0.1.0"

__all__ = [
    "BesselTauError",
    "CauchyCollisionError",
    "ConfigError",
    "DegenerateParameterError",
    "PoleError",
    "QuadratureConvergenceError",
    "ModeMatrices",
    "bessel_kernel_J",
    "fredholm_det",
    "kernel_a",
    "kernel_d",
    "mode_matrix_a",
    "mode_matrix_d",
    "modes_by_quadrature",
    "rank_one_residual",
    "MonodromyParams",
    "SeriesTruncation",
    "check_lemma_identities",
    "quasi_periodicity_residual",
    "z_bif",
    "z_inst_coefficients",
    "MayaDiagram",
    "YoungDiagram",
    "maya_from_young",
    "young_from_maya",
    "TauRoute",
    "TauValue",
    "cross_validate",
    "ode_residual",
    "painleve_q",
    "sine_gordon_map",
    "sine_gordon_residual",
    "tau",
    "zeta",
    "__version__",
]
