"""Tau-function evaluation, logarithmic derivatives, and ODE residuals.

Three independent routes compute the same normalized tau function
(the full tau divided by t^{nu^2}, so tau(0) = 1):

* ``fredholm``  — determinant of I - A D in the truncated mode basis;
* ``maya``      — direct sum over pairs of Maya diagrams;
* ``nekrasov``  — charge-graded sum of instanton sums.

All three are a t-independent structure (A and D(1) with D(t) =
D(1) * t**E, or the series records c t^e) evaluated in powers of t.  A
``TauRoute`` builds it once, and ``TauRoute.grid`` evaluates a whole
t-grid in one pass, tau and, on request, the log-derivatives; ``tau``,
``theta_log_tau`` and the residuals are that pass at one point.  On the
Fredholm route the pass stacks D(t) over the grid, forms I - A D at n
modes once, and takes tau at n and n + 2 modes from two stacked
determinants and the derivatives from one stacked solve.  The series
routes sum their terms one t at a time, in Python's complex power.

The log-derivatives theta^k log tau_full (theta = t d/dt, prefactor
included) are exact for every route: one trace formula, the cumulants of
the moments B_k = M^{-1} theta^k M.  For the series routes M is the 1 x 1
sum.  For the determinant M = I - A D, and theta D = E * D is rank one,
u v^T, so every trace of the n x n B_k is the trace of a 4 x 4 matrix:
one solve with 4 right-hand sides per t.  The sigma-form and Painleve
III (D8) residuals then quantify how well each route satisfies the
defining ODEs.

Derivatives require real t > 0 and raise ValueError otherwise; complex
t is accepted for plain evaluation with principal branches throughout
(branch continuity across arg t = pi is not tracked).  ``cross_validate``
is the one check battery: CLI ``check`` prints its rows.
"""

import cmath
import copy
import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import BesselTauError, overflow_guard
from .kernel import (
    _d_factors,
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
    """theta^k log det M, k = 1..4, from B_k = M^{-1} theta^k M, stacked over
    the leading axes.

    theta B_k = B_{k+1} - B_1 B_k, and the trace is cyclic, so the
    log-derivatives are the cumulants of the moments B_k.
    """
    b11 = b1 @ b1
    return tuple(
        np.trace(x, axis1=-2, axis2=-1)
        for x in (
            b1,
            b2 - b11,
            b3 - 3 * b1 @ b2 + 2 * b11 @ b1,
            b4 - 4 * b1 @ b3 - 3 * b2 @ b2 + 12 * b11 @ b2 - 6 * b11 @ b11,
        )
    )


def _real_positive(x, message: str) -> float:
    """x as a float; ValueError(message) unless x is real and > 0."""
    if not _is_real_positive(x):
        raise ValueError(f"{message}, got {x!r}")
    return float(x)


def _is_real_positive(x) -> bool:
    """Whether x is a real number > 0; a complex type never is."""
    return not np.iscomplexobj(x) and float(x) > 0


def _sigma_form_defect(t, z, zp, zpp) -> float:
    """|(t zeta'')^2 - 4 zeta'^2 (zeta - t zeta') + 4 zeta'|."""
    return abs((t * zpp) ** 2 - 4 * zp**2 * (z - t * zp) + 4 * zp)


def _zeta(t: float, theta) -> tuple:
    """(zeta, zeta', zeta'', zeta''') at t from theta^1..4 log tau_full."""
    th1, th2, th3, th4 = theta
    return th1, th2 / t, (th3 - th2) / t**2, (th4 - 3 * th3 + 2 * th2) / t**3


def _leading_block(a, d, k: int) -> np.ndarray:
    """I - A D on the leading 2k x 2k blocks, D stacked over its first axis:
    by the interleaved mode order, truncation k of a larger build."""
    return np.eye(2 * k) - a[:2 * k, :2 * k] @ d[:, :2 * k, :2 * k]


#: the powers 0..3 of e and f in the moment factors, and for k = 1..4 the
#: matrix C_k[j, l] = C(k - 1, j) on the antidiagonal j + l = k - 1
_POWERS = np.arange(4)
_PASCAL = np.array(
    [[[math.comb(k, j) * (j + l == k) for l in _POWERS] for j in _POWERS] for k in _POWERS],
    dtype=float,
)

#: grid points per stacked pass, a memory cap: a Fredholm pass holds D(t) and
#: I - A D of each.  A 1000-point grid at N=24 peaked at +4.7 MB of RSS with 16,
#: +14 MB with 64 and +162 MB unblocked, all in about the same time
_BLOCK = 16


class _Determinant:
    """Fredholm route: A and D(1) at n + 2 modes with the exponents E, and
    the factors u1, v1, e, f of the rank-one theta D at n modes."""

    def __init__(self, params: MonodromyParams, n: int):
        self.n = n
        self.a = mode_matrix_a(params, n + 2)
        self.d1, u1, v1, e, f = _d_factors(params, n + 2)
        self.exps = mode_exponents(params.nu, n + 2)
        self.u1, self.v1, self.e, self.f = (x[:2 * n] for x in (u1, v1, e, f))

    def leading(self, n: int) -> "_Determinant":
        """This build at n modes: by the interleaved mode order (``kernel._psi``)
        its leading blocks are a build at n, bit for bit."""
        out, k = copy.copy(self), 2 * (n + 2)
        out.n, out.a, out.d1, out.exps = n, self.a[:k, :k], self.d1[:k, :k], self.exps[:k, :k]
        out.u1, out.v1, out.e, out.f = (x[:2 * n] for x in (self.u1, self.v1, self.e, self.f))
        return out

    def evaluate(self, ts: list, values: bool, pick: list):
        """(dets, moments) over the nonzero ts, with D(t) and M = I - A D at n
        modes stacked over them.

        dets are det(I - A D) at n and n + 2 modes if ``values``.  moments
        are the 4 x 4 matrices b_k at the ts[pick], with the traces of words
        of B_k = -M^{-1} A theta^k D: theta D = E * D is rank one (u = u1 t**e,
        v = v1 t**f), and E = e + f^T, so
        theta^k D = sum_j C(k-1, j) diag(e)^j u v^T diag(f)^(k-1-j) and
        B_k = X (-C_k) W^T, with X = M^{-1} A [u, e u, e^2 u, e^3 u],
        W = [v, f v, f^2 v, f^3 v] and C_k[j, l] = C(k-1, j) on j + l = k - 1.
        The trace is cyclic, so every word in the B_k has the trace of the same
        word in b_k = -C_k W^T X: one solve with 4 right-hand sides per t.  A U
        is formed before the solve: solving for M^{-1} A first loses digits of
        theta^4 at large t.
        """
        ts = np.array(ts, dtype=complex)
        # every complex power before the first matrix product: after a small
        # BLAS product the power ran about 10x slower on an AVX-512 Xeon
        d = self.d1 * ts[:, None, None] ** self.exps
        u, v = self.u1 * ts[pick, None] ** self.e, self.v1 * ts[pick, None] ** self.f
        m = _leading_block(self.a, d, self.n)
        dets = None
        if values:
            dets = np.linalg.det(m), np.linalg.det(_leading_block(self.a, d, self.n + 2))
        if not pick:
            return dets, None
        a = self.a[:2 * self.n, :2 * self.n]
        x = np.linalg.solve(m[pick], a @ (u[:, :, None] * self.e[:, None] ** _POWERS))
        g = (v[:, :, None] * self.f[:, None] ** _POWERS).swapaxes(1, 2) @ x
        return dets, [-c @ g for c in _PASCAL]


class _Series:
    """Series route: the (exponent, coefficient) records up to weight cutoff + 1."""

    def __init__(self, records, cutoff: int):
        self.coarse = [(e, c) for (_, w, e, c) in records if w <= cutoff]
        self.extra = [(e, c) for (_, w, e, c) in records if w > cutoff]

    def evaluate(self, ts: list, values: bool, pick: list):
        """(dets, moments) over the nonzero ts, one t at a time: numpy's complex
        power rounds differently from Python's, so the terms c t^e stay scalar.

        dets are the sums at the cutoff and at cutoff + 1 if ``values``.  M is
        the 1 x 1 sum S_0 = sum c t^e, so at the ts[pick] the moments are
        B_k = S_k / S_0 with S_k = sum c e^k t^e."""
        terms = [[c * t**e for e, c in self.coarse] for t in ts]
        dets = None
        if values:
            dets = [complex_fsum(x) for x in terms], [
                complex_fsum(x + [c * t**e for e, c in self.extra]) for t, x in zip(ts, terms)
            ]
        if not pick:
            return dets, None
        ratios, exps = [], [e for e, _ in self.coarse]
        for i in pick:
            s0, *sk = (complex_fsum(x * e**k for x, e in zip(terms[i], exps)) for k in range(5))
            if s0 == 0:
                raise BesselTauError(f"tau vanishes at t = {ts[i].real}; log-derivative undefined")
            ratios.append([s / s0 for s in sk])
        return dets, list(np.array(ratios).T[:, :, None, None])


class TauRoute:
    """One route at one truncation, its t-independent structure built once.

    The structure is built at the next-finer truncation (n_modes + 2, or
    weight_cutoff + 1); values and log-derivatives are read off its
    leading blocks, or its terms of weight <= weight_cutoff, and the rest
    only supplies ``est_error``.  The method is dispatched here, once.
    ``grid`` evaluates a whole t-grid in one pass; every other method is a
    call of that pass at one point.
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

    def grid(self, ts, derivatives: bool = False):
        """(values, thetas) at every t of ts, in one pass.

        values[i] is ``tau(ts[i], force=True)``.  With ``derivatives``,
        thetas[i] is ``theta_log_tau(ts[i])`` where ts[i] is real and > 0 and
        None elsewhere; without, thetas is None.  On the Fredholm route the
        derivatives reuse the D(t) and I - A D of the values.  A failure
        raises what the calls at one t after another would raise first."""
        return grids([self], ts, self if derivatives else None)[0]

    def _passes(self, ts: list, derivatives: bool):
        """``grid`` by passes over _BLOCK points; an error names the first t of
        its pass, not the first failing t."""
        passes = [
            self._pass(ts[i:i + _BLOCK], True, derivatives) for i in range(0, len(ts), _BLOCK)
        ]
        values = [v for vals, _ in passes for v in vals]
        return values, [th for _, ths in passes for th in ths] if derivatives else None

    def leading(self, n_modes: int) -> "TauRoute":
        """This Fredholm route at n_modes <= its own, read off the leading
        blocks of its build: bit for bit a build at n_modes."""
        if self.method != "fredholm" or not 1 <= n_modes <= self.truncation["n_modes"]:
            raise ValueError(
                f"leading needs a fredholm route with 1 <= n_modes <= its own, got {n_modes}"
            )
        route = copy.copy(self)
        route.truncation = {"n_modes": n_modes}
        route._structure = self._structure.leading(n_modes)
        return route

    def _pass(self, ts: list, values: bool, derivatives: bool):
        """``grid`` over at most _BLOCK points, its values only if ``values``.

        Errors name ts[0], the t of the one-point calls; ``grids`` finds the
        first failing t of a longer pass by calls at one t."""
        zs = [complex(t) for t in ts]
        live = [i for i, z in enumerate(zs) if z != 0]
        pick = [k for k, i in enumerate(live) if derivatives and _is_real_positive(ts[i])]
        where = f"tau overflows at t = {zs[0]}"
        if not values:
            where = f"log-derivatives overflow at t = {ts[0]}"
        with overflow_guard(where):
            dets, moments = self._structure.evaluate([zs[i] for i in live], values, pick)
            cumulants = _theta_cumulants(*moments) if pick else ()
        taus = dict(zip(live, zip(*dets))) if values else {}
        out = []
        for i, z in enumerate(zs) if values else ():
            val, finer = map(complex, taus.get(i, (1, 1)))  # tau(0) = 1 exactly
            if not (cmath.isfinite(val) and cmath.isfinite(finer)):
                raise BesselTauError(f"tau is not finite at t = {z}")
            out.append(TauValue(z, val, self.method, dict(self.truncation), abs(val - finer)))
        thetas = [None] * len(ts)
        for k, j in enumerate(pick):
            i = live[j]
            th1, th2, th3, th4 = (complex(c[k]) for c in cumulants)
            if not all(map(cmath.isfinite, (th1, th2, th3, th4))):
                raise BesselTauError(f"log-derivatives are not finite at t = {float(ts[i])}")
            thetas[i] = (th1 + self.params.nu**2, th2, th3, th4)
        return out, thetas

    def tau(self, t, force: bool = False) -> TauValue:
        """Normalized tau at t, est_error the change to the finer truncation;
        warns beyond |t| = DEFAULT_RELIABLE_RADIUS unless ``force``.

        Raises BesselTauError when the evaluation overflows or either
        truncation is not finite."""
        t = complex(t)
        if abs(t) > DEFAULT_RELIABLE_RADIUS and not force:
            warnings.warn(
                f"|t| = {abs(t):.3g} exceeds the reliable radius {DEFAULT_RELIABLE_RADIUS}; "
                "truncation error estimates may be optimistic",
                stacklevel=2,
            )
        return self._pass([t], True, False)[0][0]

    def theta_log_tau(self, t):
        """(theta^1 .. theta^4) log tau_full at real t > 0, theta = t d/dt.

        Raises BesselTauError when the evaluation overflows or a
        derivative is not finite."""
        t = _real_positive(t, "theta-derivatives require real t > 0")
        return self._pass([t], False, True)[1][0]

    def zeta_derivatives(self, t):
        """(zeta, zeta', zeta'', zeta''') at real positive t, exact for every route."""
        theta = self.theta_log_tau(t)
        return _zeta(float(t), theta)

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


def grids(routes, ts, derivatives: TauRoute = None) -> list:
    """``route.grid(ts)`` for every route, with thetas from the route
    ``derivatives`` only, in stacked passes of _BLOCK points.

    A failure raises what the calls at one t after another raise first: at
    each t, every route's ``tau`` in order, then ``theta_log_tau`` of
    ``derivatives``.  A pass names the first t of its block, so on an error
    the grid is evaluated again one t at a time to find the failing t.
    """
    ts = list(ts)
    try:
        return [route._passes(ts, route is derivatives) for route in routes]
    except (BesselTauError, np.linalg.LinAlgError):
        for t in ts:
            for route in routes:
                route.tau(t, force=True)
            if derivatives is not None and _is_real_positive(t):
                derivatives.theta_log_tau(t)
        raise


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
