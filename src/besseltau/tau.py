"""Tau-function evaluation, logarithmic derivatives, and ODE residuals.

Three independent routes compute the same normalized tau function
(the full tau divided by t^{nu^2}, so tau(0) = 1):

* ``fredholm``  — determinant of I - A D in the truncated mode basis;
* ``maya``      — direct sum over pairs of Maya diagrams;
* ``nekrasov``  — charge-graded sum of instanton sums.

All three are a t-independent structure (A and D(1) with D(t) =
D(1) * t**E, or the series records c t^e) evaluated in powers of t.  A
``TauRoute`` builds it once and evaluates it at every t of a grid; for
a single point, build a route and call it once.

The log-derivatives theta^k log tau_full (theta = t d/dt, prefactor
included) are exact for every route: one trace formula in the matrices
B_k = M^{-1} theta^k M, with M = I - A D for the determinant and the
1 x 1 series sum for the other two routes.  The sigma-form and
Painleve III (D8) residuals then quantify how well each route
satisfies the defining ODEs.

Derivatives require real t > 0 and raise ValueError otherwise; complex
t is accepted for plain evaluation with principal branches throughout
(branch continuity across arg t = pi is not tracked).  ``cross_validate``
is the one check battery: CLI ``check`` prints its rows.
"""

import cmath
import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import BesselTauError
from .kernel import (
    kernel_a,
    kernel_d,
    mode_exponents,
    mode_matrix_a,
    mode_matrix_d,
    modes_by_quadrature,
    rank_one_residual,
)
from .monodromy import MonodromyParams
from .nekrasov import (
    SeriesTruncation,
    check_lemma_identities,
    complex_fsum,
    quasi_periodicity_residual,
    tau_series_terms,
    z_dual_terms,
)
from .partitions import YoungDiagram, maya_from_young, partitions_of, young_from_maya

__all__ = [
    "METHODS",
    "TauValue",
    "TauRoute",
    "cross_validate",
]

METHODS = ("fredholm", "maya", "nekrasov")

#: |t| beyond which truncated evaluations are not trusted by default
DEFAULT_RELIABLE_RADIUS = 0.5


@dataclass(frozen=True)
class TauValue:
    """One tau evaluation: normalized value, provenance and error estimate."""

    t: complex
    tau: complex
    method: str
    truncation: dict = field(default_factory=dict)
    est_error: float = 0.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.est_error < 0:
            raise ValueError("est_error must be nonnegative")


def _theta_cumulants(b1, b2, b3, b4):
    """theta^k log det M, k = 1..4, from B_k = M^{-1} theta^k M.

    theta B_k = B_{k+1} - B_1 B_k, and the trace is cyclic, so the
    log-derivatives are the cumulants of the moments B_k.
    """
    b11 = b1 @ b1
    return tuple(
        complex(np.trace(x))
        for x in (
            b1,
            b2 - b11,
            b3 - 3 * b1 @ b2 + 2 * b11 @ b1,
            b4 - 4 * b1 @ b3 - 3 * b2 @ b2 + 12 * b11 @ b2 - 6 * b11 @ b11,
        )
    )


def _real_positive(x, message: str) -> float:
    """x as a float; ValueError(message) unless x is real and > 0."""
    if np.iscomplexobj(x) or not float(x) > 0:
        raise ValueError(f"{message}, got {x!r}")
    return float(x)


def _sigma_form_defect(t, z, zp, zpp) -> float:
    """|(t zeta'')^2 - 4 zeta'^2 (zeta - t zeta') + 4 zeta'|."""
    return abs((t * zpp) ** 2 - 4 * zp**2 * (z - t * zp) + 4 * zp)


class _Determinant:
    """Fredholm route: A and D(1) at n + 2 modes with the exponents E."""

    def __init__(self, params: MonodromyParams, n: int):
        self.n = n
        self.a = mode_matrix_a(params, n + 2)
        self.d1 = mode_matrix_d(params, 1.0, n + 2)
        self.exps = mode_exponents(params.nu, n + 2)

    def corners(self, t: complex, *orders):
        """(A, D(t), E) of truncation k for each k in ``orders``: by the
        interleaved mode order, the leading 2k x 2k corners of this build."""
        d = self.d1 * t**self.exps
        return [tuple(x[:2 * k, :2 * k] for x in (self.a, d, self.exps)) for k in orders]

    def values(self, t: complex):
        """det(I - A D) at n and n + 2 modes, one LU factorization each."""
        return tuple(
            complex(np.linalg.det(np.eye(len(a)) - a @ d))
            for a, d, _ in self.corners(t, self.n, self.n + 2)
        )

    def moments(self, t: complex):
        """B_k = -M^{-1} A (E^k * D) with M = I - A D, since theta^k D = E^k * D."""
        [(a, d, exps)] = self.corners(t, self.n)
        m = np.eye(len(a)) - a @ d
        rhs = np.hstack([a @ (exps**k * d) for k in range(1, 5)])
        return np.hsplit(-np.linalg.solve(m, rhs), 4)


class _Series:
    """Series route: the (exponent, coefficient) records up to weight cutoff + 1."""

    def __init__(self, records, cutoff: int):
        self.coarse = [(e, c) for (_, w, e, c) in records if w <= cutoff]
        self.extra = [(e, c) for (_, w, e, c) in records if w > cutoff]

    def values(self, t: complex):
        coarse = [c * t**e for e, c in self.coarse]
        finer = coarse + [c * t**e for e, c in self.extra]
        return complex_fsum(coarse), complex_fsum(finer)

    def moments(self, t: complex):
        """M is the 1 x 1 sum S_0 = sum c t^e; B_k = S_k / S_0, S_k = sum c e^k t^e."""
        terms = [(c * t**e, e) for e, c in self.coarse]
        s0, *sk = (complex_fsum(x * e**k for x, e in terms) for k in range(5))
        if s0 == 0:
            raise BesselTauError(f"tau vanishes at t = {t.real}; log-derivative undefined")
        return [np.array([[s / s0]]) for s in sk]


class TauRoute:
    """One route at one truncation, its t-independent structure built once.

    The structure is built at the next-finer truncation (n_modes + 2, or
    weight_cutoff + 1); values and log-derivatives are read off its
    leading blocks, or its terms of weight <= weight_cutoff, and the rest
    only supplies ``est_error``.  The method is dispatched here, once.
    """

    def __init__(
        self,
        params: MonodromyParams,
        method: str = "fredholm",
        n_modes: int = 12,
        trunc: SeriesTruncation = None,
    ):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        self.params, self.method = params, method
        trunc = trunc or SeriesTruncation()
        if method == "fredholm":
            if n_modes < 1:
                raise ValueError(f"n_modes must be >= 1, got {n_modes}")
            self.truncation = {"n_modes": n_modes}
            self._structure = _Determinant(params, n_modes)
        else:
            w_max = trunc.weight_cutoff
            self.truncation = {"weight_cutoff": w_max, "charge_cutoff": trunc.charge_cutoff}
            build = tau_series_terms if method == "maya" else z_dual_terms
            finer = SeriesTruncation(w_max + 1, trunc.charge_cutoff)
            self._structure = _Series(build(params, finer), w_max)

    def tau(self, t, force: bool = False) -> TauValue:
        """Normalized tau at t, est_error the change to the finer truncation;
        warns beyond |t| = DEFAULT_RELIABLE_RADIUS unless ``force``.

        Raises BesselTauError when the evaluation overflows or either
        truncation is not finite."""
        t = complex(t)
        if t == 0:
            return TauValue(t, 1.0 + 0.0j, self.method, dict(self.truncation), 0.0)
        if abs(t) > DEFAULT_RELIABLE_RADIUS and not force:
            warnings.warn(
                f"|t| = {abs(t):.3g} exceeds the reliable radius {DEFAULT_RELIABLE_RADIUS}; "
                "truncation error estimates may be optimistic",
                stacklevel=2,
            )
        try:
            with np.errstate(over="raise", invalid="raise"):
                val, finer = self._structure.values(t)
        except ArithmeticError as exc:
            raise BesselTauError(f"tau overflows at t = {t}: {exc}") from exc
        if not (cmath.isfinite(val) and cmath.isfinite(finer)):
            raise BesselTauError(f"tau is not finite at t = {t}")
        return TauValue(t, val, self.method, dict(self.truncation), abs(val - finer))

    def theta_log_tau(self, t):
        """(theta^1 .. theta^4) log tau_full at real t > 0, theta = t d/dt."""
        t = _real_positive(t, "theta-derivatives require real t > 0")
        th1, th2, th3, th4 = _theta_cumulants(*self._structure.moments(complex(t)))
        return th1 + self.params.nu**2, th2, th3, th4

    def zeta_derivatives(self, t):
        """(zeta, zeta', zeta'', zeta''') at real positive t, exact for every route."""
        th1, th2, th3, th4 = self.theta_log_tau(t)
        t = float(t)
        return th1, th2 / t, (th3 - th2) / t**2, (th4 - 3 * th3 + 2 * th2) / t**3

    def ode_residual(self, t) -> float:
        """Defect of the sigma-form: |(t zeta'')^2 - 4 zeta'^2 (zeta - t zeta') + 4 zeta'|."""
        z, zp, zpp, _ = self.zeta_derivatives(t)
        return _sigma_form_defect(float(t), z, zp, zpp)

    def painleve_q(self, t):
        """(q, residual) with q = -t zeta' and the degenerate-III defect.

        residual = |q'' - q'^2/q + q'/t - 2 q^2/t^2 + 2/t|, derivatives in t.
        """
        _, th2, th3, th4 = self.theta_log_tau(t)
        t = float(t)
        q = -th2
        qp = -th3 / t
        qpp = (th3 - th4) / t**2
        if q == 0:
            raise BesselTauError(f"q(t) = 0 at t = {t}; equation residual undefined")
        if abs(q) < 1e-8:
            warnings.warn(f"|q(t)| = {abs(q):.2e} is near zero; residual ill-conditioned")
        residual = abs(qpp - qp**2 / q + qp / t - 2 * q**2 / t**2 + 2 / t)
        return q, residual

    def sine_gordon_map(self, r) -> complex:
        """Field u(r) with q(2^{-12} r^4) = -2^{-6} r^2 exp(i u(r)).

        Principal logarithm; raises when q vanishes at the mapped time.
        """
        r = _real_positive(r, "sine_gordon_map requires real r > 0")
        t = 2.0**-12 * r**4
        q = -self.theta_log_tau(t)[1]
        if q == 0:
            raise BesselTauError(f"q = 0 at t = {t}; sine-Gordon field undefined")
        return -1j * cmath.log(-(2.0**6) * q / r**2)

    def sine_gordon_residual(self, r) -> float:
        """Defect |u_rr + u_r / r + sin u|, exact from theta^k log tau at t = 2^{-12} r^4.

        d/dr = (4/r) theta turns the left side into (16/r^2) theta^2 u +
        sin u, with theta^2 u = -i theta^2 log q and q, theta q, theta^2 q =
        -(theta^2, theta^3, theta^4) log tau; e^{iu} = -2^6 q / r^2."""
        r = _real_positive(r, "sine_gordon_residual requires real r > 0")
        _, th2, th3, th4 = self.theta_log_tau(2.0**-12 * r**4)
        if th2 == 0:
            raise BesselTauError(f"q = 0 at r = {r}; sine-Gordon field undefined")
        exp_iu = 2.0**6 * th2 / r**2
        theta2_u = -1j * (th4 / th2 - (th3 / th2) ** 2)
        return abs(16 / r**2 * theta2_u + (exp_iu - 1 / exp_iu) / 2j)


# ---------------------------------------------------------------------------
# Cross-validation battery


def cross_validate(
    t,
    params: MonodromyParams,
    n_modes: int = 12,
    trunc: SeriesTruncation = None,
    tolerance: float = 1e-8,
) -> list:
    """The check battery at real t > 0: eleven (name, value, tol) rows.

    A check passes when value < tol.  The structural identities run at
    fixed small sizes; the three routes must agree within ``tolerance``
    at t, and the sigma-form ODE and the nu -> nu + 1, eta -> eta + 1/2
    periodicities use the given truncation.  CLI ``check`` prints these
    rows.  Near-resonant parameters amplify every residual.
    """
    t = _real_positive(t, "cross_validate requires real t > 0")
    trunc = trunc or SeriesTruncation()
    n = 4
    quad_a = modes_by_quadrature(lambda zp, z: kernel_a(params, zp, z), n)
    quad_d = modes_by_quadrature(lambda zp, z: kernel_d(params, t, zp, z), n, block="d")
    lemmas = check_lemma_identities(params.nu, weight_cutoff=3, charge_cutoff=2)
    routes = {m: TauRoute(params, m, n_modes, trunc) for m in METHODS}
    vals = {m: route.tau(t, force=True).tau for m, route in routes.items()}
    shifted_eta = MonodromyParams(params.sigma, params.eta + 0.5)
    nek_eta = TauRoute(shifted_eta, "nekrasov", trunc=trunc).tau(t, force=True).tau
    roundtrip = sum(
        young_from_maya(maya_from_young(y, q)) != (y, q)
        for w in range(7)
        for y in map(YoungDiagram, partitions_of(w))
        for q in range(-3, 4)
    )
    return [
        ("rank_one_a", rank_one_residual(params, 6, "a"), 1e-10),
        ("rank_one_d", rank_one_residual(params, 6, "d"), 1e-10),
        ("quadrature_modes_a", float(np.max(np.abs(quad_a - mode_matrix_a(params, n)))), 1e-10),
        ("quadrature_modes_d", float(np.max(np.abs(quad_d - mode_matrix_d(params, t, n)))), 1e-10),
        ("maya_vs_box_weights", lemmas["maya_vs_box"], 1e-10),
        ("cauchy_vs_inst_weights", lemmas["cauchy_vs_inst"], 1e-10),
        (
            "three_route_agreement",
            max(abs(vals[a] - vals[b]) / abs(vals[b]) for a, b in combinations(METHODS, 2)),
            float(tolerance),
        ),
        ("sigma_form_ode", routes["maya"].ode_residual(t), 1e-6),
        (
            "quasi_periodicity",
            quasi_periodicity_residual(params, SeriesTruncation(4, trunc.charge_cutoff)),
            1e-11,
        ),
        ("eta_half_periodicity", abs(nek_eta - vals["nekrasov"]) / abs(vals["nekrasov"]), 1e-13),
        ("maya_young_roundtrip_failures", float(roundtrip), 1),
    ]
