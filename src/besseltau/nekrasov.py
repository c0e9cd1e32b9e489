"""Combinatorial series: the charge-graded instanton sum and the Maya expansion.

Both routes sum over pairs (Y+, Y-) of Young diagrams, and every factor
of a pair's weight is linear in nu: a + b nu, a and b integers.  Three layers:

* structure, free of t and of the parameters: ``_diagram_pairs`` lists the
  diagrams by weight and indexes every pair (Y+, Y-) by its two diagrams, in
  pair order: by weight w, then |Y+|, then Y+, then Y-.  The instanton route
  holds each diagram's squared hook product H(Y)^2 and, per pair of weight
  w, the w integer offsets a of its cross factor z_bif(2 nu | Y-, Y+) =
  prod(a + 2 nu).  The Maya route
  holds per charge the padded particle and hole positions of every diagram,
  one vectorized profile at charge 0 shifted by 2 c, and per pair the integer
  differences (x+ - x-)/2 of its two diagrams' positions.  Both cross factors
  are ragged integer lists with one row per pair, over the pairs of every
  weight;
* coefficients in nu and eta: ``_InstantonWeights`` weighs a pair by
  1 / (H(Y+)^2 H(Y-)^2 prod(a + 2 nu)^2) at nu + n for every charge n.
  ``_MayaWeights`` splits Xi * Delta^2 into a self factor per diagram and
  color, built once, and a cross-color Cauchy product per pair: the factors
  (x+ - x-)/2 - 2 nu where the kinds agree over those where they differ.
  One evaluator, ``_linear_product``, takes every cross factor, once per
  charge on the instanton route and twice on the Maya route.  Only the Gamma
  quotients, ``c_ratio`` and the eta phase are not linear in nu, and each
  layer's pair weights are summed exactly with ``complex_fsum``;
* evaluation in t: the term records (charge, weight, exponent, coeff) give
  the normalized tau function sum coeff * t^exponent (vacuum coefficient 1,
  the prefactor t^{nu^2} applied downstream), which ``tau.TauRoute`` sums.

``check_lemma_identities`` reads both sides of the Maya-position lemma off
these tables: ``_MayaWeights.z_bif_tilde`` against the box form of
``_InstantonWeights.z_bif_table``.  The scalar ``z_bif`` is the box-by-box reference.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BesselTauError, DegenerateParameterError, overflow_guard
from .monodromy import MonodromyParams
from .partitions import YoungDiagram, partitions_of
from .special import barnes_g_ratio, ln_gamma, upsilon

__all__ = [
    "SeriesTruncation",
    "z_bif",
    "z_inst_coefficients",
    "c_ratio",
    "z_dual_terms",
    "tau_series_terms",
    "check_lemma_identities",
    "quasi_periodicity_residual",
    "complex_fsum",
]


def complex_fsum(values) -> complex:
    """Exactly rounded complex sum: math.fsum on real and imaginary parts."""
    values = values if isinstance(values, np.ndarray) else np.fromiter(values, complex)
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


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


# ---------------------------------------------------------------------------
# Structure: one pair enumeration and index, per-diagram tables, one evaluator


def _padded(seqs) -> np.ndarray:
    """Integer sequences -> one int16 array, each row zero-padded to the longest."""
    seqs = list(seqs)
    lengths = np.array([len(seq) for seq in seqs])
    filled = np.arange(lengths.max(initial=0)) < lengths[:, None]
    out = np.zeros(filled.shape, dtype=np.int16)
    out[filled] = [v for seq in seqs for v in seq]
    return out


def _ragged(values, keep) -> tuple:
    """(values[keep], starts): the kept entries of each row (first axis) in
    row-major order, as one flat list with the start of every row."""
    counts = keep.reshape(len(keep), -1).sum(axis=1)
    return values[keep], np.cumsum(counts) - counts


def _linear_product(offsets, starts, x) -> np.ndarray:
    """prod(a + x) over each row of a ragged integer offset list: row i holds
    offsets[starts[i]:starts[i + 1]], the last row runs to the end, and an
    empty row reads 1.  No series factor vanishes off the lattice 2 nu in Z,
    so a zero raises DegenerateParameterError."""
    filled = np.diff(starts, append=len(offsets)) > 0
    out = np.ones(len(starts), dtype=complex)
    out[filled] = np.multiply.reduceat(offsets + complex(x), starts[filled])
    if not out.all():
        raise DegenerateParameterError(f"vanishing series factor a + x at x = {x}")
    return out


def _diagram_pairs(weight_cutoff: int) -> tuple:
    """The diagrams of weight <= weight_cutoff as row tuples, by weight and
    then in ``partitions_of`` order; the (i_plus, i_minus) indices of the
    diagrams of every pair in pair order (by weight w, then |Y+|, then Y+,
    then Y-); and the offsets that split the pairs by weight."""
    by_weight = [partitions_of(w) for w in range(weight_cutoff + 1)]
    counts = np.array([len(block) for block in by_weight])
    starts = np.cumsum(counts) - counts
    # block (w, v) holds the pairs of weight w with |Y+| = v: each diagram
    # of weight v against every diagram of weight w - v
    w, v = np.tril_indices(weight_cutoff + 1)
    sizes = counts[v] * counts[w - v]
    inner = np.repeat(counts[w - v], sizes)
    k = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    pair_index = np.array([
        np.repeat(starts[v], sizes) + k // inner,
        np.repeat(starts[w - v], sizes) + k % inner,
    ])
    splits = np.cumsum(np.convolve(counts, counts)[:weight_cutoff + 1])[:-1]
    return [rows for block in by_weight for rows in block], pair_index, splits


class _InstantonWeights:
    """1 / prod_{s, s'} z_bif(nu (s - s') | Y^{s'}, Y^s) of every pair of weight
    <= weight_cutoff, at any nu: ``weights(nu)`` by weight, in pair order.

    With z_bif(0 | Y, Y) = (-1)^{|Y|} H(Y)^2, H(Y) the hook product, and the
    reflection z_bif(-2 nu | Y+, Y-) = (-1)^w z_bif(2 nu | Y-, Y+), the weight
    is 1 / (H(Y+)^2 H(Y-)^2 P^2) with P = z_bif(2 nu | Y-, Y+).  Both read
    h(X, Y) = 1 + arm_X + leg_Y = (X_i - i - j + 1) + Y'_j at the boxes of X:

    * per diagram, built here once: its zero-padded column lengths, its boxes
      in row order as j and X_i - i - j + 1, and H(Y)^2 as a float;
    * per pair of weight w, the w offsets a of P = prod(a + 2 nu): h(Y-, Y+)
      over the boxes of Y-, -h(Y+, Y-) over those of Y+, one ragged list over
      the pairs of every weight, from one gather.

    ``z_bif_table`` takes the same gather over every two diagrams.
    """

    def __init__(self, weight_cutoff: int):
        diagrams, (i_plus, i_minus), self._splits = _diagram_pairs(weight_cutoff)
        rows = _padded(diagrams)
        k = np.arange(rows.shape[1])
        grid = k < rows[:, :, None]  # (diagram, i - 1, j - 1) inside the diagram
        self._cols, self._filled = grid.sum(axis=1), k < rows.sum(axis=1)[:, None]
        d, i, j = np.nonzero(grid)
        self._box_j, self._box_row = np.zeros_like(rows), np.zeros_like(rows)
        self._box_j[self._filled], self._box_row[self._filled] = j, rows[d, i] - i - j - 1
        # the hooks h(Y, Y) lead the offsets of z_bif(0 | Y, Y)
        every = np.arange(len(diagrams))
        hooks = np.where(self._filled, self._z_bif_offsets(every, every)[0][:, : k.size], 1)
        self._hook_sq = np.prod(hooks, axis=1, dtype=float) ** 2
        # per pair: 1 / (H(Y+)^2 H(Y-)^2), and the offsets of P as one ragged list
        self._inv_hook_sq = 1 / (self._hook_sq[i_plus] * self._hook_sq[i_minus])
        self._offsets, self._starts = _ragged(*self._z_bif_offsets(i_minus, i_plus))

    def _z_bif_offsets(self, x, y) -> tuple:
        """(a, boxes) with z_bif(v | X, Y) = prod(a + v) over the slots where boxes is set,
        for the diagrams x[p] and y[p] of each p: h(X, Y) at the box slots of X, then
        -h(Y, X) at those of Y."""
        row, j, filled = self._box_row, self._box_j, self._filled
        h_xy, h_yx = row[x] + self._cols[y[:, None], j[x]], row[y] + self._cols[x[:, None], j[y]]
        return np.concatenate([h_xy, -h_yx], axis=1), np.concatenate([filled[x], filled[y]], axis=1)

    def weights(self, nu) -> list:
        """1 / prod_{s, s'} z_bif(nu (s - s') | Y^{s'}, Y^s) of the pairs of each weight."""
        cross = _linear_product(self._offsets, self._starts, 2 * complex(nu))
        return np.split(self._inv_hook_sq / cross**2, self._splits)

    def z_bif_table(self, values) -> np.ndarray:
        """z_bif(v | Y+, Y-) at each v of ``values`` for every two diagrams, indexed (v, Y+, Y-)."""
        n = len(self._hook_sq)
        a, boxes = self._z_bif_offsets(*np.indices((n, n)).reshape(2, -1))
        factors = np.where(boxes, a + np.asarray(values, dtype=complex)[:, None, None], 1)
        return np.prod(factors, axis=-1).reshape(-1, n, n)


def _maya_positions(diagrams, charge_cutoff: int) -> dict:
    """The doubled Maya positions of every diagram at every charge |c| <= Q, as
    in ``partitions._profile``: per charge c a zero-padded int16 (diagram, slot)
    array, particles ascending, then holes ascending, so that kind = np.sign(x).

    With rows r_i and columns r'_j, the positions 2 (r_i - i) + 1 are occupied
    and 2 (j - r'_j) - 1 empty at charge 0 (i, j >= 1, each set ordered by i
    and by j), and charge c shifts both by 2 c.  Rows and columns padded to
    length + Q hold every particle and hole at |c| <= Q.  Raises OverflowError
    when the difference of two positions would not fit int16.
    """
    rows = _padded(diagrams).astype(int)
    n = rows.shape[1] + charge_cutoff
    i = np.arange(1, n + 1)
    cols = (rows[:, :, None] >= i).sum(axis=1)
    rows = np.pad(rows, ((0, 0), (0, charge_cutoff)))
    profile = np.concatenate([2 * (rows - i)[:, ::-1] + 1, 2 * (i - cols) - 1], axis=1)
    if 2 * (int(np.abs(profile).max(initial=0)) + 2 * charge_cutoff) > np.iinfo(np.int16).max:
        raise OverflowError(f"Maya positions at charge cutoff {charge_cutoff} exceed int16")
    # particles are the occupied positions above 0, holes the empty ones below
    side = np.repeat([1, -1], n)
    positions = {}
    for c in range(-charge_cutoff, charge_cutoff + 1):
        x = profile + 2 * c
        keep = x * side > 0
        counts = keep.sum(axis=1)
        positions[c] = np.zeros((len(x), counts.max()), dtype=np.int16)
        positions[c][np.arange(counts.max()) < counts[:, None]] = x[keep]
    return positions


def _cauchy(diff, kinds) -> tuple:
    """(prod of diff where kinds > 0, prod of diff where kinds < 0) over the last two axes."""
    return tuple(np.prod(np.where(sign * kinds > 0, diff, 1), axis=(-2, -1)) for sign in (1, -1))


class _MayaWeights:
    """Xi Delta^2 of every pair of weight <= weight_cutoff at every charge
    |Q| <= charge_cutoff, at one nu: ``weights(q)`` by weight, in pair order.

    Y+ sits at charge Q with color s = +1 and Y- at -Q with s = -1.  Their
    particles p > 0 and holes h < 0, of kind k = +1 and -1, are doubled
    positions x with momentum x/2 - s nu.  Then Xi Delta^2 = (-1)^Q (Gamma(1 +
    2 nu) / Gamma(1 - 2 nu))^{2Q} R^2, with R the Cauchy product of the
    momentum differences to the power k k' over all pairs of positions,
    over m! (1 - 2 s nu)_m per particle (m = p - 1/2) and m! (2 s nu)_{m+1}
    per hole (m = |h| - 1/2); signs drop out of the square.  In three layers:

    * structure, free of nu: the positions of every diagram at every charge,
      shifted from one profile at charge 0 (``_maya_positions``), and per
      charge Q the integer cross differences (x+ - x-)/2 over Y+ x Y- of
      every pair, as two ragged lists: where the kinds agree and where they
      differ;
    * coefficients, built here once: a self factor per charged diagram and
      color, the integer differences (x - x')/2 within the diagram over its
      Pochhammer factors, read off one cumulative product;
    * evaluation: ``weights(q)`` takes the cross factor (x+ - x-)/2 - 2 nu of
      every pair as two ``_linear_product`` calls over the ragged lists.
    """

    def __init__(self, nu, weight_cutoff: int, charge_cutoff: int):
        nu = self.nu = complex(nu)
        # by (color s = +1, -1; particle, hole; m): m! (1 - 2 s nu)_m and m! (2 s nu)_{m+1}.
        # No position exceeds 2 (W + Q) - 1 in size, so m < W + Q; a cutoff whose
        # factors overflow fails here, before any position table is made.
        k = np.arange(max(weight_cutoff + charge_cutoff, 1))
        steps = k * (k - 2 * nu * np.array([[[1], [-1]], [[-1], [1]]]))
        steps[:, 0, 0], steps[:, 1, 0] = 1, (2 * nu, -2 * nu)
        pochhammer = np.cumprod(steps, axis=-1)
        diagrams, self._pair_index, self._splits = _diagram_pairs(weight_cutoff)
        self._positions = _maya_positions(diagrams, charge_cutoff)
        self._self = {}
        for c, x in self._positions.items():
            kind = np.sign(x)
            num, den = _cauchy(
                np.abs(x[:, :, None] - x[:, None, :]) / 2,
                np.triu(kind[:, :, None] * kind[:, None, :], 1),
            )
            hole, m = np.where(kind < 0, 1, 0), np.where(kind != 0, (np.abs(x) - 1) // 2, 0)
            for color, s in enumerate((1, -1)):
                poch = np.prod(pochhammer[color, hole, m], axis=1)
                if not poch.all():
                    raise DegenerateParameterError(f"vanishing Pochhammer factor at nu = {nu}")
                self._self[c, s] = num / den / poch
        # per charge Q: (x+ - x-)/2 of each pair, where the kinds agree and where they differ
        i_plus, i_minus = self._pair_index
        self._cross = {}
        for q in range(-charge_cutoff, charge_cutoff + 1):
            x_plus, x_minus = self._positions[q], self._positions[-q]
            # every (slot of Y+, slot of Y-) of a pair, flattened row-major
            a, b = np.indices((x_plus.shape[1], x_minus.shape[1])).reshape(2, -1)
            x_plus, x_minus = x_plus[:, a][i_plus], x_minus[:, b][i_minus]
            diff, kinds = (x_plus - x_minus) // 2, np.sign(x_plus) * np.sign(x_minus)
            self._cross[q] = _ragged(diff, kinds > 0), _ragged(diff, kinds < 0)

    def weights(self, q: int) -> list:
        """Xi Delta^2 of the pairs of each weight at charge Q."""
        i_plus, i_minus = self._pair_index
        (agree, agree_starts), (differ, differ_starts) = self._cross[q]
        shift = -(2 * self.nu)  # so that a + shift rounds as a - 2 nu
        num = _linear_product(agree, agree_starts, shift)
        den = _linear_product(differ, differ_starts, shift)
        ratio = self._self[q, 1][i_plus] * self._self[-q, -1][i_minus] * num / den
        return np.split((-1) ** q * _gamma_quotient(self.nu, q) * ratio**2, self._splits)

    def z_bif_tilde(self) -> np.ndarray:
        """z_bif(nu + Q+ - Q- | Y+, Y-) / upsilon(nu, Q+ - Q-) up to a sign, indexed
        (Q+, Q-, Y+, Y-): over the positions x+ of Y+ at Q+ and x- of Y- at Q-, the
        products of nu + (x+ - x-)/2 where the kinds differ over those where they agree,
        times (-nu)_m at the holes of Y+ and the particles of Y- (m = (|x| + 1)/2) and
        (nu + 1)_m at the others (m = (|x| - 1)/2), from one cumulative product."""
        width = max(x.shape[1] for x in self._positions.values())
        x = np.stack([np.pad(x, ((0, 0), (0, width - x.shape[1]))) for x in self._positions.values()])
        kind = np.sign(x)
        m = np.arange((int(np.abs(x).max(initial=0)) + 1) // 2)
        steps = np.concatenate([np.ones((2, 1)), np.array([[-self.nu], [self.nu + 1]]) + m], axis=1)
        pochhammer = np.cumprod(steps, axis=1)
        plus, minus = (
            np.prod(pochhammer[(s * kind > 0).astype(int), (np.abs(x) - s * kind) // 2], axis=-1)
            for s in (1, -1)
        )
        # axes (Q+, Q-, Y+, Y-, position of Y+, position of Y-)
        x_plus, x_minus = x[:, None, :, None, :, None], x[None, :, None, :, None, :]
        agree, differ = _cauchy(self.nu + (x_plus - x_minus) // 2, np.sign(x_plus) * np.sign(x_minus))
        if not agree.all():
            raise DegenerateParameterError(f"z_bif_tilde pole at nu = {self.nu}")
        return plus[:, None, :, None] * minus[None, :, None, :] * differ / agree


def _gamma_quotient(nu, q: int) -> complex:
    """(Gamma(1 + 2 nu) / Gamma(1 - 2 nu))^{2Q} through the principal log-Gammas."""
    return cmath.exp(2 * q * (ln_gamma(1 + 2 * nu) - ln_gamma(1 - 2 * nu)))


# ---------------------------------------------------------------------------
# Coefficients: the instanton sum and its charge-graded dual


def z_inst_coefficients(nu, weight_cutoff: int) -> dict:
    """Taylor coefficients c_k of the instanton sum, k = 0..weight_cutoff.

    c_0 = 1 and c_1 = 1/(2 nu^2); each c_k is a rational function of nu.
    """
    inst = _InstantonWeights(weight_cutoff)
    return {w: complex_fsum(weights) for w, weights in enumerate(inst.weights(nu))}


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
    (normalized) sum is sum coeff * t^exponent.  The instanton weights are
    built once and evaluated at nu + n for every charge.  Raises
    BesselTauError when a coefficient overflows or is not finite.
    """
    nu, eta = params.nu, params.eta
    terms = []
    with overflow_guard("series coefficients overflow"):
        inst = _InstantonWeights(trunc.weight_cutoff)
        for n in range(-trunc.charge_cutoff, trunc.charge_cutoff + 1):
            pref = cmath.exp(4j * cmath.pi * n * eta) * c_ratio(nu, n)
            for k, weights in enumerate(inst.weights(nu + n)):
                terms.append((n, k, n * n + 2 * n * nu + k, pref * complex_fsum(weights)))
    if not all(cmath.isfinite(c) for *_, c in terms):
        raise BesselTauError("series coefficients are not finite")
    return terms


def quasi_periodicity_residual(params: MonodromyParams, trunc: SeriesTruncation) -> float:
    """Term-by-term defect of the quasi-periodicity nu -> nu + 1.

    Shifting nu by 1 re-indexes the charge grading: after accounting for
    the t^{nu^2} prefactor, the charge-n coefficient at nu + 1 must equal
    exp(-4 pi i eta) / c_ratio(nu, 1) times the charge-(n+1) coefficient
    at nu.  Returns the worst relative mismatch over matched truncations,
    or inf when nothing matches (charge cutoff 0), so the check can fail.
    """
    shifted = {(n, k): c for (n, k, _, c) in z_dual_terms(params.shifted(1), trunc)}
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


def tau_series_terms(params: MonodromyParams, trunc: SeriesTruncation):
    """Term records (q, w, exponent, coeff) of the Maya expansion.

    exponent = Q^2 - 2 Q nu + w and coeff = exp(-4 pi i eta Q) Xi Delta^2,
    aggregated over all Maya pairs of charge Q and total weight w.  Raises
    BesselTauError when a coefficient overflows or is not finite.
    """
    nu, eta = params.nu, params.eta
    terms = []
    with overflow_guard("series coefficients overflow"):
        maya = _MayaWeights(nu, trunc.weight_cutoff, trunc.charge_cutoff)
        for q in range(-trunc.charge_cutoff, trunc.charge_cutoff + 1):
            phase = cmath.exp(-4j * cmath.pi * eta * q)
            for w, weights in enumerate(maya.weights(q)):
                terms.append((q, w, q * q - 2 * q * nu + w, phase * complex_fsum(weights)))
    if not all(cmath.isfinite(c) for *_, c in terms):
        raise BesselTauError("series coefficients are not finite")
    return terms


# ---------------------------------------------------------------------------
# Structural identities tying the two expansions together


def check_lemma_identities(nu, weight_cutoff: int = 3, charge_cutoff: int = 2) -> dict:
    """Numerically verify the structural identities behind the Maya series.

    Returns a report with the worst-case deviations of

    * ``maya_vs_box``: | |z_bif_tilde / (z_bif / upsilon)| - 1 | over every two
      charged diagrams (the proportionality is a sign) where z_bif is not 0;
    * ``cauchy_vs_inst``: relative error of Xi Delta^2 against the closed
      form in Gamma quotients, upsilon factors and the instanton weight
      at nu - Q: the Maya weight of each pair against its instanton weight.

    The diagrams have weight <= weight_cutoff and the charges |Q| <= charge_cutoff.
    """
    nu = complex(nu)
    charges = range(-charge_cutoff, charge_cutoff + 1)
    # the box side reads the charges only through d = Q+ - Q-
    shifts = np.arange(-2 * charge_cutoff, 2 * charge_cutoff + 1)
    ups = np.array([upsilon(nu, int(d)) for d in shifts])
    maya, inst = _MayaWeights(nu, weight_cutoff, charge_cutoff), _InstantonWeights(weight_cutoff)
    box = inst.z_bif_table(nu + shifts) / ups[:, None, None]
    ref = box[np.subtract.outer(charges, charges) + 2 * charge_cutoff]
    kept = ref != 0
    worst_ratio = float(np.max(np.abs(np.abs(maya.z_bif_tilde()[kept] / ref[kept]) - 1), initial=0))

    worst_closed = 0.0
    for q in charges:
        gamma, ups_q = _gamma_quotient(nu, q), upsilon(2 * nu, -2 * q) * upsilon(-2 * nu, 2 * q)
        for lhs, weights in zip(maya.weights(q), inst.weights(nu - q)):
            rhs = gamma * weights * ups_q
            worst_closed = max(worst_closed, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    return {"maya_vs_box": worst_ratio, "cauchy_vs_inst": worst_closed}
