"""References that share no code with the package's tables or formulas.

The scalar ones compute one value at a time with plain Python products, so a
test can hold a vectorized table against it entry by entry.
``fredholm_moments`` is the direct n x n form of the Fredholm moments that
the route reads off its rank-one theta D.
"""

import numpy as np

from besseltau.errors import DegenerateParameterError
from besseltau.partitions import YoungDiagram, _profile, partitions_of


def pairs(w: int):
    """Pairs (rows_plus, rows_minus) of partitions of total weight w in pair
    order: by |Y+|, then Y+, then Y-, each in ``partitions_of`` order."""
    for w_plus in range(w + 1):
        for rows_plus in partitions_of(w_plus):
            for rows_minus in partitions_of(w - w_plus):
                yield rows_plus, rows_minus


def pochhammer(alpha, k: int) -> complex:
    """Rising factorial alpha (alpha+1) ... (alpha+k-1); 1 for k = 0."""
    if k < 0:
        raise ValueError("pochhammer order must be a nonnegative integer")
    alpha = complex(alpha)
    out = 1.0 + 0.0j
    for i in range(k):
        out *= alpha + i
    return out


def z_bif_tilde(nu, y_plus: YoungDiagram, q_plus: int, y_minus: YoungDiagram, q_minus: int) -> complex:
    """Bifundamental weight written over Maya positions rather than boxes.

    Proportional to z_bif(nu + Q+ - Q- | Y+, Y-) / upsilon(nu, Q+ - Q-);
    the proportionality is a sign.
    """
    nu = complex(nu)
    (pp, hp), (pm, hm) = _profile(y_plus.rows, q_plus), _profile(y_minus.rows, q_minus)
    hp, hm = [-hd / 2 for hd in hp], [-hd / 2 for hd in hm]
    pp, pm = [pd / 2 for pd in pp], [pd / 2 for pd in pm]
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


def fredholm_moments(a, d, exps) -> list:
    """B_k = -M^{-1} A (E^k * D), k = 1..4, with M = I - A D: theta^k D = E^k * D
    entrywise for D = D(1) * t**E.  One solve with 4n right-hand sides."""
    m = np.eye(len(a)) - a @ d
    rhs = np.hstack([a @ (exps**k * d) for k in range(1, 5)])
    return np.hsplit(-np.linalg.solve(m, rhs), 4)
