"""Reference values that share no code with the package under test.

Two routes, written from the formulas alone with numpy and scipy:

* ``fredholm``: det(I - A D(t)) from the closed-form Cauchy mode
  matrices, batched over a t-grid, with theta log det from the trace
  formula -tr(M^-1 A theta D) instead of a stencil;
* ``maya_table``: the coefficients of the Maya-diagram series, summed
  over all charged pairs of Young diagrams up to a weight and a charge.

The benchmark accepts a reference only where both routes agree
(``accepted_tau``), or, past the radius where the series converges,
where two determinant truncations agree.
"""

import cmath
import functools

import numpy as np
from scipy.special import loggamma

#: truncations well beyond the workloads' (N=12/24, W=6/10, Q=2/3)
FRED_N, FRED_N_CHECK = 48, 64
MAYA_W, MAYA_Q = 12, 4
#: largest t at which the Maya series is used to accept a reference
SERIES_T_MAX = 0.45
#: relative agreement needed before a value counts as reference: two
#: independent routes for t <= SERIES_T_MAX; beyond, two determinant
#: truncations, which share the rounding of an I - A D whose condition
#: number reaches 1e8 at t = 20 (seen: 5e-11)
ACCEPT_REL, ACCEPT_REL_LARGE_T = 1e-11, 1e-9


class ReferenceError(RuntimeError):
    """Two reference routes disagree: no value can be trusted."""


def _fact_poch(a, m_max):
    """[m! (a)_m for m = 0..m_max] by running products."""
    j = np.arange(m_max, dtype=float)
    return np.concatenate([[1.0 + 0j], np.cumprod((j + 1) * (a + j))])


def _fact_poch_next(a, m_max):
    """[m! (a)_{m+1} for m = 0..m_max] = m! (a)_m (a + m)."""
    return _fact_poch(a, m_max) * (a + np.arange(m_max + 1))


def _mode_factors(nu, n):
    """psi and psibar over the interleaved modes (k + 1/2, s), s = +1, -1."""
    m = np.repeat(np.arange(n), 2)
    s = np.tile([1, -1], n)
    psi = np.empty(2 * n, complex)
    psibar = np.empty(2 * n, complex)
    for col, sc in ((0, 1), (1, -1)):
        root = cmath.exp(0.5 * (loggamma(1 + 2 * sc * nu) - loggamma(1 - 2 * sc * nu)))
        fp = _fact_poch(1 - 2 * sc * nu, n - 1)
        fh = _fact_poch_next(2 * sc * nu, n - 1)
        psi[col::2] = root * cmath.exp(-1j * cmath.pi * sc / 4) / fp
        psibar[col::2] = cmath.exp(1j * cmath.pi * sc / 4) / (root * fh)
    return m + 0.5, s, psi, psibar


def fredholm(sigma, eta, ts, n=FRED_N):
    """Normalized tau and theta log tau at each t, from det(I - A D).

    Rows of A are hole modes (q, s), columns particle modes (p, s'):
    A = psi(p, s'; nu) psibar(q, s; nu) / (p + q + (s - s') nu)
        * exp(i pi (2 eta - sigma)(s - s')),
    D = psi(q, s; -nu) psibar(p, s'; -nu) / (p + q + (s - s') nu)
        * exp(i pi sigma (s - s')) * t^((s - s') nu + p + q),
    D with rows (p, s') and columns (q, s).
    """
    nu = sigma + 0.5
    pos, s, psi, psibar = _mode_factors(nu, n)
    _, _, psi_m, psibar_m = _mode_factors(-nu, n)
    ts = np.asarray(ts, dtype=complex)
    # A[r, c]: r = (q, s), c = (p, s')
    q, sr = pos[:, None], s[:, None]
    p, sc = pos[None, :], s[None, :]
    den_a = p + q + (sr - sc) * nu
    a = psi[None, :] * psibar[:, None] / den_a * np.exp(
        1j * np.pi * (2 * eta - sigma) * (sr - sc)
    )
    # D[r, c]: r = (p, s'), c = (q, s)
    p, sp = pos[:, None], s[:, None]
    q, sq = pos[None, :], s[None, :]
    expo = (sq - sp) * nu + p + q
    d0 = psi_m[None, :] * psibar_m[:, None] / expo * np.exp(1j * np.pi * sigma * (sq - sp))
    d = d0[None] * ts[:, None, None] ** expo[None]
    m = np.eye(2 * n)[None] - a[None] @ d
    tau = np.linalg.det(m)
    theta = -np.trace(np.linalg.solve(m, a[None] @ (expo[None] * d)), axis1=1, axis2=2)
    return tau, theta


@functools.lru_cache(maxsize=4)
def _maya_structure(w_max, q_max):
    """Charge-independent position data of every pair of weight <= w_max.

    For charge Q the pair (Y+, Y-) sits at charges (Q, -Q); the occupied
    positions of a charged partition are {Y_i - i + 1/2 + Q}.  Returns,
    per charge, arrays (weight, particle m and color, hole m and color),
    padded with m = -1.
    """
    parts = [[()]]
    for w in range(1, w_max + 1):
        found = []

        def gen(rest, largest, acc):
            if rest == 0:
                found.append(tuple(acc))
                return
            for first in range(min(rest, largest), 0, -1):
                gen(rest - first, first, acc + [first])

        gen(w, w, [])
        parts.append(found)

    def positions(rows, charge):
        depth = len(rows) + abs(charge) + 2
        occ = {
            (rows[i - 1] if i <= len(rows) else 0) - i + charge for i in range(1, depth + 1)
        }  # position - 1/2
        low = min(occ)
        particles = sorted(x for x in occ if x >= 0)
        holes = sorted(-x - 1 for x in range(low + 1, 0) if x not in occ)
        return particles, holes  # m = position - 1/2 for both

    out = {}
    for charge in range(-q_max, q_max + 1):
        rows = []
        for w in range(w_max + 1):
            for wp in range(w + 1):
                for yp in parts[wp]:
                    for ym in parts[w - wp]:
                        pp, hp = positions(yp, charge)
                        pm, hm = positions(ym, -charge)
                        rows.append(
                            (w, [(x, 1) for x in pp] + [(x, -1) for x in pm],
                             [(x, 1) for x in hp] + [(x, -1) for x in hm])
                        )
        lp = max(len(r[1]) for r in rows)
        lh = max(len(r[2]) for r in rows)
        arr = {
            "w": np.array([r[0] for r in rows]),
            "pm": np.full((len(rows), lp), -1), "ps": np.ones((len(rows), lp), int),
            "hm": np.full((len(rows), lh), -1), "hs": np.ones((len(rows), lh), int),
        }
        for i, (_, ps, hs) in enumerate(rows):
            for j, (m, c) in enumerate(ps):
                arr["pm"][i, j], arr["ps"][i, j] = m, c
            for j, (m, c) in enumerate(hs):
                arr["hm"][i, j], arr["hs"][i, j] = m, c
        out[charge] = arr
    return out


def _pair_product(x, valid):
    """prod over i < j of (x_i - x_j), rows independent, padding skipped."""
    diff = x[:, :, None] - x[:, None, :]
    keep = np.triu(np.ones(x.shape[1:] * 2, bool), 1)[None] & valid[:, :, None] & valid[:, None, :]
    return np.where(keep, diff, 1.0).prod(axis=(1, 2))


def maya_table(sigma, eta, w_max=MAYA_W, q_max=MAYA_Q):
    """{(Q, w): (exponent, coefficient)} of the Maya series.

    coefficient = exp(-4 pi i eta Q) sum Xi Delta^2 over pairs of weight w,
    Xi = (-1)^Q (Gamma(1+2nu)/Gamma(1-2nu))^(2Q) / prod^2 with
    prod = prod_particles m! (1 - 2 s nu)_m * prod_holes m! (2 s nu)_{m+1},
    Delta = Cauchy ratio in x = position - s nu (holes at negative
    positions); exponent = Q^2 - 2 Q nu + w.
    """
    nu = sigma + 0.5
    size = w_max + q_max + 2
    fp = {c: _fact_poch(1 - 2 * c * nu, size) for c in (1, -1)}
    fh = {c: _fact_poch_next(2 * c * nu, size) for c in (1, -1)}
    gq = cmath.exp(2 * (loggamma(1 + 2 * nu) - loggamma(1 - 2 * nu)))
    table = {}
    for charge, st in _maya_structure(w_max, q_max).items():
        pv, hv = st["pm"] >= 0, st["hm"] >= 0
        pm, hm = np.where(pv, st["pm"], 0), np.where(hv, st["hm"], 0)
        prod = np.ones(len(st["w"]), complex)
        for c in (1, -1):
            prod *= np.where(pv & (st["ps"] == c), fp[c][pm], 1).prod(axis=1)
            prod *= np.where(hv & (st["hs"] == c), fh[c][hm], 1).prod(axis=1)
        xp = pm + 0.5 - st["ps"] * nu
        xh = -(hm + 0.5) - st["hs"] * nu
        num = _pair_product(xp, pv) * _pair_product(xh, hv)
        cross = xp[:, :, None] - xh[:, None, :]
        den = np.where(pv[:, :, None] & hv[:, None, :], cross, 1.0).prod(axis=(1, 2))
        weight = (-1) ** charge * gq**charge / prod**2 * (num / den) ** 2
        phase = cmath.exp(-4j * cmath.pi * eta * charge)
        for w in range(w_max + 1):
            table[charge, w] = (
                charge * charge - 2 * charge * nu + w,
                phase * weight[st["w"] == w].sum(),
            )
    return table


def series_value(table, t, theta=False):
    """Sum of the table at t, or (sum, theta log sum) with theta = t d/dt."""
    e = np.array([v[0] for v in table.values()])
    c = np.array([v[1] for v in table.values()])
    terms = c[None, :] * np.asarray(t, complex)[:, None] ** e[None, :]
    total = terms.sum(axis=1)
    if not theta:
        return total
    return total, (terms * e[None, :]).sum(axis=1) / total


def sigma_form_residual(table, t, nu):
    """|(t z'')^2 - 4 z'^2 (z - t z') + 4 z'| for z = nu^2 + theta log(sum).

    The theta-derivatives are the cumulants of the exponents under the
    weights c t^e, so the truncated sum is differentiated exactly.
    """
    e = np.array([v[0] for v in table.values()])
    w = np.array([v[1] for v in table.values()]) * complex(t) ** e
    r1, r2, r3 = ((w * e**k).sum() / w.sum() for k in (1, 2, 3))
    th2, th3 = r2 - r1**2, r3 - 3 * r1 * r2 + 2 * r1**3
    z, zp, zpp = nu**2 + r1, th2 / t, (th3 - th2) / t**2
    return abs((t * zpp) ** 2 - 4 * zp**2 * (z - t * zp) + 4 * zp)


def accepted_tau(sigma, eta, ts):
    """(tau, theta log tau) at each t, both normalized, checked by two routes.

    t <= SERIES_T_MAX: Fredholm N=48 against the Maya series W=12, Q=4.
    Larger t: Fredholm N=48 against N=64.  Raises ReferenceError when they
    differ by more than ACCEPT_REL (ACCEPT_REL_LARGE_T) relative.
    """
    ts = np.asarray(ts, dtype=float)
    tau, theta = fredholm(sigma, eta, ts)
    small = ts <= SERIES_T_MAX
    check = np.empty_like(tau)
    if small.any():
        check[small] = series_value(maya_table(sigma, eta), ts[small])
    if (~small).any():
        check[~small] = fredholm(sigma, eta, ts[~small], FRED_N_CHECK)[0]
    rel = np.abs(tau - check) / np.abs(tau)
    if not np.all(rel <= np.where(small, ACCEPT_REL, ACCEPT_REL_LARGE_T)):
        raise ReferenceError(
            f"reference routes disagree by {rel.max():.2e} at sigma={sigma}, eta={eta}"
        )
    return tau, theta
