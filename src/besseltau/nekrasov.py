"""Combinatorial series: instanton sums, dual sums, and the Maya expansion.

Three layers, all sharing the truncation (weight_cutoff, charge_cutoff):

* ``z_inst`` — the pure instanton sum over pairs of Young diagrams with
  bifundamental-type weights ``z_bif``;
* ``z_dual`` — the charge-graded sum of instanton sums at shifted
  parameter, with Barnes-quotient structure constants ``c_ratio``;
* ``tau_series_*`` — the same object organized as a sum over pairs of
  Maya diagrams, with explicit Cauchy-determinant weights Xi * Delta^2.

Both expansions are normalized so the leading (vacuum) coefficient is 1;
the overall prefactor t^{nu^2} is applied downstream.  Exponents of t are
kept symbolic as (q, nu)-affine data in the term records so that
derivatives in t can be taken analytically.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateParameterError
from .monodromy import MonodromyParams
from .partitions import YoungDiagram, maya_from_young, partitions_of
from .special import barnes_g_ratio, ln_gamma, pochhammer, upsilon

__all__ = [
    "SeriesTruncation",
    "z_bif",
    "z_inst_coefficients",
    "z_inst",
    "c_ratio",
    "z_dual_terms",
    "z_dual",
    "colored_positions",
    "xi_delta",
    "tau_series_terms",
    "tau_series_maya",
    "z_bif_tilde",
    "check_lemma_identities",
    "quasi_periodicity_residual",
    "complex_fsum",
]


def complex_fsum(values) -> complex:
    """Exactly rounded complex sum: math.fsum on real and imaginary parts."""
    values = [complex(v) for v in values]
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


@dataclass(frozen=True)
class SeriesTruncation:
    """Cutoffs for the combinatorial sums: |Y+| + |Y-| <= weight_cutoff
    and |Q| <= charge_cutoff."""

    weight_cutoff: int = 8
    charge_cutoff: int = 3

    def __post_init__(self):
        if self.weight_cutoff < 0 or self.charge_cutoff < 0:
            raise ValueError("truncation cutoffs must be nonnegative")


def z_bif(nu, y_plus: YoungDiagram, y_minus: YoungDiagram) -> complex:
    """Bifundamental weight: a product of linear factors over the boxes.

    prod_{(i,j) in Y+} (nu + 1 + arm_{Y+}(i,j) + leg_{Y-}(i,j))
    * prod_{(i,j) in Y-} (nu - 1 - arm_{Y-}(i,j) - leg_{Y+}(i,j)).

    Polynomial in nu; satisfies the reflection
    z_bif(-nu, Y-, Y+) = (-1)^{|Y+| + |Y-|} z_bif(nu, Y+, Y-).
    """
    nu = complex(nu)
    # extended arm Y_i - j and leg Y'_j - i, each conjugate built once
    cols_plus, cols_minus = y_plus.conjugate(), y_minus.conjugate()
    out = 1.0 + 0.0j
    for i, j in y_plus.boxes():
        out *= nu + 1 + (y_plus.row(i) - j) + (cols_minus.row(j) - i)
    for i, j in y_minus.boxes():
        out *= nu - 1 - (y_minus.row(i) - j) - (cols_plus.row(j) - i)
    return out


def _hyper_weight(nu, y_plus, y_minus) -> complex:
    """1 / prod_{s, s'} z_bif(nu (s - s') | Y^{s'}, Y^s)."""
    den = 1.0 + 0.0j
    for s in (1, -1):
        for sp in (1, -1):
            y_sp = y_plus if sp == 1 else y_minus
            y_s = y_plus if s == 1 else y_minus
            den *= z_bif(nu * (s - sp), y_sp, y_s)
    if den == 0:
        raise DegenerateParameterError(f"vanishing instanton denominator at nu = {nu}")
    return 1 / den


def z_inst_coefficients(nu, weight_cutoff: int) -> dict:
    """Taylor coefficients c_k of the instanton sum, k = 0..weight_cutoff.

    c_0 = 1 and c_1 = 1/(2 nu^2); each c_k is a rational function of nu.
    """
    nu = complex(nu)
    coeffs = {}
    for w in range(weight_cutoff + 1):
        coeffs[w] = complex_fsum(
            _hyper_weight(nu, YoungDiagram(rows_plus), YoungDiagram(rows_minus))
            for w_plus in range(w + 1)
            for rows_plus in partitions_of(w_plus)
            for rows_minus in partitions_of(w - w_plus)
        )
    return coeffs


def z_inst(t, nu, trunc: SeriesTruncation) -> complex:
    """Instanton sum sum_k c_k(nu) t^k truncated at the weight cutoff."""
    t = complex(t)
    coeffs = z_inst_coefficients(nu, trunc.weight_cutoff)
    return complex_fsum(coeffs[k] * t**k for k in sorted(coeffs))


def c_ratio(nu, n: int) -> complex:
    """Structure-constant quotient under nu -> nu + n.

    Equals 1 / (G(1+2nu+2n)/G(1+2nu) * G(1-2nu-2n)/G(1-2nu)) with G the
    Barnes function, realized as a finite Gamma product.
    """
    nu = complex(nu)
    return 1 / (barnes_g_ratio(1 + 2 * nu, 2 * n) * barnes_g_ratio(1 - 2 * nu, -2 * n))


def z_dual_terms(params: MonodromyParams, trunc: SeriesTruncation):
    """Term records of the charge-graded dual sum.

    Each record is (n, k, exponent, coeff) with exponent = n^2 + 2 n nu + k
    and coeff = exp(4 pi i n eta) c_ratio(nu, n) c_k(nu + n), so that the
    (normalized) sum is sum coeff * t^exponent.
    """
    nu, eta = params.nu, params.eta
    terms = []
    for n in range(-trunc.charge_cutoff, trunc.charge_cutoff + 1):
        pref = cmath.exp(4j * cmath.pi * n * eta) * c_ratio(nu, n)
        coeffs = z_inst_coefficients(nu + n, trunc.weight_cutoff)
        for k in sorted(coeffs):
            terms.append((n, k, n * n + 2 * n * nu + k, pref * coeffs[k]))
    return terms


def z_dual(t, params: MonodromyParams, trunc: SeriesTruncation) -> complex:
    """Dual sum over charges; equals the normalized tau function t^{-nu^2} tau."""
    t = complex(t)
    return complex_fsum(c * t**e for (_, _, e, c) in z_dual_terms(params, trunc))


def quasi_periodicity_residual(params: MonodromyParams, trunc: SeriesTruncation) -> float:
    """Term-by-term defect of the quasi-periodicity nu -> nu + 1.

    Shifting nu by 1 re-indexes the charge grading: after accounting for
    the t^{nu^2} prefactor, the charge-n coefficient at nu + 1 must equal
    exp(-4 pi i eta) / c_ratio(nu, 1) times the charge-(n+1) coefficient
    at nu.  Returns the worst relative mismatch over matched truncations,
    or inf when nothing matches (charge cutoff 0), so the check can fail.
    """
    shifted = {
        (n, k): c for (n, k, _, c) in z_dual_terms(params.shifted(1), trunc)
    }
    base = {(n, k): c for (n, k, _, c) in z_dual_terms(params, trunc)}
    const = cmath.exp(-4j * cmath.pi * params.eta) / c_ratio(params.nu, 1)
    mismatches = [
        abs(c - const * ref) / abs(const * ref)
        for (n, k), c in shifted.items()
        if (ref := base.get((n + 1, k)))
    ]
    return max(mismatches, default=math.inf)


# ---------------------------------------------------------------------------
# Maya expansion


def colored_positions(y_plus: YoungDiagram, y_minus: YoungDiagram, q: int):
    """Colored particle/hole sets of the Maya pair (Y+ at charge Q, Y- at -Q).

    Returns (particles, holes): tuples of (position, color) with positions
    positive half-integers (holes record |position|), colors +-1.
    """
    out_p, out_h = [], []
    for y, qq, s in ((y_plus, q, 1), (y_minus, -q, -1)):
        m = maya_from_young(y, qq)
        out_p.extend((pd / 2, s) for pd in sorted(m.particles))
        out_h.extend((-hd / 2, s) for hd in sorted(m.holes))
    return tuple(out_p), tuple(out_h)


def _gamma_quotient(nu, q: int) -> complex:
    """(Gamma(1 + 2 nu) / Gamma(1 - 2 nu))^{2Q} through the principal log-Gammas."""
    return cmath.exp(2 * q * (ln_gamma(1 + 2 * nu) - ln_gamma(1 - 2 * nu)))


def xi_delta(nu, particles, holes, q: int):
    """The pair (Xi, Delta) weighting one Maya configuration.

    Xi collects factorials, Pochhammer symbols and the Gamma-quotient
    raised to 2Q; Delta is the Cauchy ratio in the shifted momenta
    x_{p;s} = p - s nu.  The series weight of the configuration is
    Xi * Delta^2.
    """
    nu = complex(nu)
    prod = 1.0 + 0.0j
    for p, sp in particles:
        m = int(p - 0.5)
        prod *= math.factorial(m) * pochhammer(1 - 2 * sp * nu, m)
    for h, s in holes:
        m = int(h - 0.5)
        prod *= math.factorial(m) * pochhammer(2 * s * nu, m + 1)
    xi = (-1) ** q * _gamma_quotient(nu, q) / prod**2

    def x(pos, s):
        return pos - s * nu

    num = 1.0 + 0.0j
    for i in range(len(particles)):
        for j in range(i + 1, len(particles)):
            num *= x(*particles[i]) - x(*particles[j])
    for i in range(len(holes)):
        for j in range(i + 1, len(holes)):
            num *= x(-holes[j][0], holes[j][1]) - x(-holes[i][0], holes[i][1])
    den = 1.0 + 0.0j
    for p, sp in particles:
        for h, s in holes:
            den *= x(p, sp) - x(-h, s)
    return xi, num / den


def tau_series_terms(params: MonodromyParams, trunc: SeriesTruncation):
    """Term records (q, w, exponent, coeff) of the Maya expansion.

    exponent = Q^2 - 2 Q nu + w and coeff = exp(-4 pi i eta Q) Xi Delta^2,
    aggregated over all Maya pairs of charge Q and total weight w.
    """
    nu, eta = params.nu, params.eta
    terms = []
    for q in range(-trunc.charge_cutoff, trunc.charge_cutoff + 1):
        phase = cmath.exp(-4j * cmath.pi * eta * q)
        for w in range(trunc.weight_cutoff + 1):
            weights = []
            for w_plus in range(w + 1):
                for rows_plus in partitions_of(w_plus):
                    for rows_minus in partitions_of(w - w_plus):
                        ps, hs = colored_positions(
                            YoungDiagram(rows_plus), YoungDiagram(rows_minus), q
                        )
                        xi, delta = xi_delta(nu, ps, hs, q)
                        weights.append(xi * delta**2)
            terms.append((q, w, q * q - 2 * q * nu + w, phase * complex_fsum(weights)))
    return terms


def tau_series_maya(t, params: MonodromyParams, trunc: SeriesTruncation) -> complex:
    """Normalized tau function summed directly over Maya configurations."""
    t = complex(t)
    return complex_fsum(c * t**e for (_, _, e, c) in tau_series_terms(params, trunc))


# ---------------------------------------------------------------------------
# Structural identities tying the two expansions together


def z_bif_tilde(nu, y_plus: YoungDiagram, q_plus: int, y_minus: YoungDiagram, q_minus: int) -> complex:
    """Bifundamental weight written over Maya positions rather than boxes.

    Proportional to z_bif(nu + Q+ - Q- | Y+, Y-) / upsilon(nu, Q+ - Q-);
    the proportionality is a sign.
    """
    nu = complex(nu)
    mp = maya_from_young(y_plus, q_plus)
    mm = maya_from_young(y_minus, q_minus)
    hp = [-hd / 2 for hd in mp.holes]
    hm = [-hd / 2 for hd in mm.holes]
    pp = [pd / 2 for pd in mp.particles]
    pm = [pd / 2 for pd in mm.particles]
    prod = 1.0 + 0.0j
    for q in hp:
        prod *= pochhammer(-nu, int(q + 0.5))
    for q in hm:
        prod *= pochhammer(nu + 1, int(q - 0.5))
    for p in pm:
        prod *= pochhammer(-nu, int(p + 0.5))
    for p in pp:
        prod *= pochhammer(nu + 1, int(p - 0.5))
    num = 1.0 + 0.0j
    for q in hp:
        for p in pm:
            num *= nu - q - p
    for q in hm:
        for p in pp:
            num *= nu + p + q
    den = 1.0 + 0.0j
    for qm in hm:
        for qp in hp:
            den *= nu - qp + qm
    for p_m in pm:
        for p_p in pp:
            den *= nu + p_p - p_m
    if den == 0:
        raise DegenerateParameterError(f"z_bif_tilde pole at nu = {nu}")
    return prod * num / den


def check_lemma_identities(nu, weight_cutoff: int = 3, charge_cutoff: int = 2) -> dict:
    """Numerically verify the structural identities behind the Maya series.

    Returns a report with the worst-case deviations of

    * ``maya_vs_box``: | |z_bif_tilde / (z_bif / upsilon)| - 1 | over
      charged pairs (the proportionality is a sign);
    * ``cauchy_vs_inst``: relative error of Xi Delta^2 against the closed
      form in Gamma quotients, upsilon factors and the instanton weight
      at nu - Q (four z_bif values);
    * ``sign_rule``: True when sign(Xi Delta^2) = (-1)^Q holds for the
      supplied real nu in (0, 1/2).
    """
    nu = complex(nu)
    diagrams = [
        YoungDiagram(rows)
        for w in range(weight_cutoff + 1)
        for rows in partitions_of(w)
    ]
    worst_ratio = 0.0
    for yp in diagrams:
        for ym in diagrams:
            for qp in range(-charge_cutoff, charge_cutoff + 1):
                for qm in range(-charge_cutoff, charge_cutoff + 1):
                    zt = z_bif_tilde(nu, yp, qp, ym, qm)
                    rhs = z_bif(nu + qp - qm, yp, ym) / upsilon(nu, qp - qm)
                    if rhs == 0:
                        continue
                    worst_ratio = max(worst_ratio, abs(abs(zt / rhs) - 1))

    worst_closed = 0.0
    sign_ok = True
    real_case = abs(nu.imag) < 1e-14 and 0 < nu.real < 0.5
    for yp in diagrams:
        for ym in diagrams:
            if yp.weight + ym.weight > weight_cutoff:
                continue
            for q in range(-charge_cutoff, charge_cutoff + 1):
                ps, hs = colored_positions(yp, ym, q)
                xi, delta = xi_delta(nu, ps, hs, q)
                lhs = xi * delta**2
                rhs = _gamma_quotient(nu, q) * _hyper_weight(nu - q, yp, ym)
                rhs *= upsilon(2 * nu, -2 * q) * upsilon(-2 * nu, 2 * q)
                worst_closed = max(worst_closed, abs(lhs - rhs) / abs(rhs))
                if real_case and (lhs.real > 0) != ((-1) ** q > 0):
                    sign_ok = False
    return {
        "maya_vs_box": worst_ratio,
        "cauchy_vs_inst": worst_closed,
        "sign_rule": sign_ok,
    }
