"""The generalized Bessel kernel and its Fourier modes.

Two faces of the same operator K = [[0, a], [d, 0]]:

* continuous 2x2 matrix kernels a(z', z), d(z', z) built from the matrix
  J_sigma(z', z), bilinear in the entire functions j_sigma;
* their Fourier modes, finite blocks A (rows = hole modes, columns =
  particle modes) and D (transposed roles), Cauchy matrices up to
  diagonal factors and phases.

The tau function is det(1 - K) = det(I - A D) in the truncated mode
basis.  The mode blocks come in three layers:

* structure, free of t and of the parameters: ``_modes(n)`` gives the
  interleaved basis [(1/2, +), (1/2, -), (3/2, +), (3/2, -), ...] as two
  index vectors, the half-integer momenta p and the colors s; by the
  interleaving every smaller truncation is a leading corner;
* coefficients in nu and eta: ``_psi`` gives the vectors psi and psibar
  over all modes, one Gamma root per color and the factorials and
  Pochhammer symbols as one cumulative product;
* evaluation: ``_cauchy_block`` is one broadcast psi x psibar / (p + q +
  (s - s') nu) times the twist phase, for A and for D(1), and
  D(t) = D(1) * t**E with the exponents ``mode_exponents``; ``TauRoute``
  takes det(I - A D) from one such build.  E is the Cauchy denominator of
  D(1), so theta D(t) = E * D(t) is rank one, and ``_d_factors`` gives its
  factors for the log-derivatives.

Fourier modes extracted from circle samples of the continuous kernels
(``modes_by_quadrature``) serve as an independent cross-check of the
closed-form entries.  All fractional powers take the principal branch,
arg in (-pi, pi].
"""

import cmath

import numpy as np

from .errors import CauchyCollisionError, QuadratureConvergenceError
from .monodromy import MonodromyParams, check_off_lattice
from .special import j_sigma, ln_gamma

__all__ = [
    "bessel_kernel_J",
    "kernel_a",
    "kernel_d",
    "mode_matrix_a",
    "mode_matrix_d",
    "modes_by_quadrature",
    "rank_one_residual",
    "mode_exponents",
]

#: relative closeness of z and z' below which the removable singularity
#: at z = z' is evaluated by a symmetric finite difference
_DIAGONAL_TOL = 1e-6
_DIAGONAL_STEP = 1e-5


def bessel_kernel_J(sigma, zp, z) -> np.ndarray:
    """The 2x2 matrix J_sigma(z', z) in the last two axes, z' and z
    broadcast; equals the identity at z' = z."""
    check_off_lattice(sigma)
    sigma = complex(sigma)
    shape = np.broadcast_shapes(np.shape(zp), np.shape(z))
    # at least 1-d: a scalar call rounds exactly like an array call
    zp, z = (np.atleast_1d(np.asarray(x, dtype=complex)) for x in (zp, z))
    pref = cmath.pi / cmath.sin(2 * cmath.pi * sigma)
    orders = (sigma + 0.5, -sigma, sigma, -sigma - 0.5)
    jp, jm, js, jms = (j_sigma(o, z) for o in orders)
    jp_p, jm_p, js_p, jms_p = (j_sigma(o, zp) for o in orders)
    entries = np.broadcast_arrays(
        zp * jp * jm_p - js * jms_p,
        1j * zp * jms * jm_p - 1j * z * jm * jms_p,
        1j * jp * js_p - 1j * js * jp_p,
        z * jm * jp_p - jms * js_p,
    )
    return (pref * np.stack(entries, axis=-1)).reshape(shape + (2, 2))


def _j_core(sigma, zp, z) -> np.ndarray:
    """(J_sigma(z', z) - 1)/(z - z'), with the removable diagonal limit."""
    zp, z = np.asarray(zp, dtype=complex), np.asarray(z, dtype=complex)
    diff = z - zp
    scale = np.maximum(np.maximum(np.abs(z), np.abs(zp)), 1.0)
    near = np.abs(diff) < _DIAGONAL_TOL * scale
    core = (bessel_kernel_J(sigma, zp, z) - np.eye(2)) / np.where(near, 1, diff)[..., None, None]
    if near.any():
        zp_n, z_n = np.broadcast_to(zp, near.shape)[near], np.broadcast_to(z, near.shape)[near]
        h = _DIAGONAL_STEP * scale[near]
        step = bessel_kernel_J(sigma, zp_n, z_n + h) - bessel_kernel_J(sigma, zp_n, z_n - h)
        core[near] = step / (2 * h)[:, None, None]
    return core


def kernel_a(params: MonodromyParams, zp, z) -> np.ndarray:
    """Continuous a-kernel; entire in both arguments.

    diag(w, 1/w) J_core diag(1/w, w) with w = exp(i pi (sigma - 2 eta))."""
    s, e = params.sigma, params.eta
    w = cmath.exp(1j * cmath.pi * (s - 2 * e))
    return _j_core(s, zp, z) * np.outer([w, 1 / w], [1 / w, w])


def kernel_d(params: MonodromyParams, t, zp, z) -> np.ndarray:
    """Continuous d-kernel; analytic in C* x C*, vanishes as t -> 0 but
    raises ValueError at t = 0, where w = t^nu has no inverse.

    diag(w, 1/w) sigma_y C sigma_y diag(1/w, w) with w = t^nu exp(i pi sigma)
    and C = (1 - J_sigma(t/z', t/z))/(z - z') = t/(z z') J_core(t/z', t/z);
    sigma_y C sigma_y is the swap [[C11, -C10], [-C01, C00]]."""
    zp, z, t = np.asarray(zp, dtype=complex), np.asarray(z, dtype=complex), complex(t)
    if t == 0 or np.any(zp == 0) or np.any(z == 0):
        raise ValueError("kernel_d requires t, z, z' != 0")
    s, nu = params.sigma, params.nu
    c = (t / (z * zp))[..., None, None] * _j_core(s, t / zp, t / z)
    w = t**nu * cmath.exp(1j * cmath.pi * s)
    # the swap reverses both axes; the signs of its off-diagonal ride on the phases
    return c[..., ::-1, ::-1] * np.outer([w, -1 / w], [1 / w, -w])


# ---------------------------------------------------------------------------
# Fourier modes: structure, coefficients, evaluation


def _modes(n: int):
    """The interleaved basis (1/2, +), (1/2, -), (3/2, +), ... of truncation n:
    the half-integer momenta p and the colors s, two arrays of length 2n."""
    return np.repeat(np.arange(n) + 0.5, 2), np.tile([1, -1], n)


def _psi(nu, n: int, branch_sign=None):
    """psi^{p;s}(nu) and psibar_{p;s}(nu) over the modes of ``_modes(n)``.

    With m = p - 1/2 and r_s the principal sqrt of Gamma(1 + 2s nu)/Gamma(1 - 2s nu),
    psi = r_s exp(-i pi s/4) / (m! (1 - 2s nu)_m) and
    psibar = exp(i pi s/4) / (r_s m! (2s nu)_{m+1}); ``branch_sign`` flips r_s
    per color, {+1: +-1, -1: +-1}.  Both denominators are cumulative products
    over m, so every entry reads only the lower modes and a smaller build is
    a prefix of a larger one, bit for bit.
    """
    branch_sign = branch_sign or {1: 1, -1: 1}
    psi, psibar = np.empty(2 * n, dtype=complex), np.empty(2 * n, dtype=complex)
    j = np.arange(1, n)
    steps = np.empty(n, dtype=complex)
    for k, s in enumerate((1, -1)):
        x = 2 * s * complex(nu)
        root = branch_sign[s] * cmath.exp(0.5 * (ln_gamma(1 + x) - ln_gamma(1 - x)))
        # m! (1 - x)_m = prod_{j <= m} j (j - x) and m! (x)_{m+1} = x prod_{j <= m} j (j + x)
        steps[0], steps[1:] = 1, j * (j - x)
        psi[k::2] = root * cmath.exp(-1j * cmath.pi * s / 4) / np.cumprod(steps)
        steps[0], steps[1:] = x, j * (j + x)
        psibar[k::2] = cmath.exp(1j * cmath.pi * s / 4) / root / np.cumprod(steps)
    return psi, psibar


def _cauchy_block(nu, twist, n: int, branch_sign=None) -> tuple:
    """Mode block with rows (x, s_x) and columns (y, s_y), both in ``_modes``
    order, and its numerator: (block, u, v) with den * block = outer(u, v).

    Entry psi^{y;s_y}(nu) psibar_{x;s_x}(nu) / (x + y + (s_x - s_y) nu)
    times the phase exp(i pi twist (s_x - s_y)): a Cauchy matrix up to
    diagonal factors, u = psibar exp(i pi twist s) and v = psi exp(-i pi twist s).
    Raises CauchyCollisionError when a denominator (a difference of shifted
    momenta) vanishes.
    """
    p, s = _modes(n)
    psi, psibar = _psi(nu, n, branch_sign)
    dcolor = s[:, None] - s[None, :]
    den = p[:, None] + p[None, :] + dcolor * nu
    small = np.abs(den) < 1e-10
    if small.any():
        r, c = np.argwhere(small)[0]
        raise CauchyCollisionError(
            f"shifted momenta collide: rows ({p[r]}, {s[r]}), columns ({p[c]}, {s[c]}), nu={nu}"
        )
    # s_x - s_y takes the values -2, 0, 2
    phases = np.array([cmath.exp(1j * cmath.pi * twist * k) for k in (-2, 0, 2)])
    block = psi[None, :] * psibar[:, None] / den * phases[dcolor // 2 + 1]
    twist_s = np.exp(1j * np.pi * twist * s)
    return block, psibar * twist_s, psi / twist_s


def mode_matrix_a(params: MonodromyParams, n: int, branch_sign=None) -> np.ndarray:
    """Closed-form a-modes: rows are hole modes (-q, s), columns particle modes (p, s').

    Each entry is psi^{p;s'}(nu) psibar_{q;s}(nu) / (x_{p;s'} - x_{-q;s})
    times the phase exp(i pi (2 eta - sigma)(s - s')), with the momentum
    difference x_{p;s'} - x_{-q;s} = p + q + (s - s') nu.
    ``branch_sign`` optionally flips the square-root branch inside psi and
    psibar per color, {+1: +-1, -1: +-1}.
    """
    return _cauchy_block(params.nu, 2 * params.eta - params.sigma, n, branch_sign)[0]


def mode_exponents(nu, n: int) -> np.ndarray:
    """t-exponents E = (s - s') nu + p + q of the d-modes, in their layout.

    D(t) = D(1) * t**E entrywise, so theta^k D = E**k * D for theta = t d/dt.
    """
    p, s = _modes(n)
    return (s[None, :] - s[:, None]) * complex(nu) + p[:, None] + p[None, :]


def mode_matrix_d(params: MonodromyParams, t, n: int, branch_sign=None) -> np.ndarray:
    """Closed-form d-modes: rows are particle modes (p, s'), columns hole modes (-q, s).

    The t dependence is isolated in the factors t**mode_exponents; the
    t-independent core D(1) is the a-block under nu -> -nu with twist
    -sigma, i.e. phase exp(i pi sigma (s - s')).
    """
    t = complex(t)
    if t == 0:
        return np.zeros((2 * n, 2 * n), dtype=complex)
    core = _cauchy_block(-params.nu, -params.sigma, n, branch_sign)[0]
    return core * t ** mode_exponents(params.nu, n)


def _d_factors(params: MonodromyParams, n: int) -> tuple:
    """(D(1), u, v, e, f): the t-independent d-modes and their rank-one theta.

    The exponents split as E = mode_exponents(nu, n) = e + f^T with
    e = p - s nu over the rows and f = p + s nu over the columns, and
    E * D(1) = outer(u, v), so theta D(t) = outer(u t**e, v t**f).  D(1) is
    the a-block under nu -> -nu with twist -sigma, and u, v its numerators.
    """
    core, u, v = _cauchy_block(-params.nu, -params.sigma, n)
    p, s = _modes(n)
    return core, u, v, p - s * params.nu, p + s * params.nu


def modes_by_quadrature(kern, n: int, block: str = "a") -> np.ndarray:
    """Extract mode matrices from samples of a continuous kernel on the unit circle.

    ``kern`` is a callable (z', z) -> 2x2 array that broadcasts: it is
    called once, on a column of z' against a row of z, and must return
    the 2x2 samples in its last two axes.  Each grid has max(64, 8n)
    points, and the z' grid is offset by half a step so the removable
    diagonal z = z' is never sampled.  For block 'a' the coefficients of
    z'^{p-1/2} z^{q-1/2} are returned in the layout of mode_matrix_a; for
    'd', the coefficients of z'^{-1/2-q} z^{-1/2-p} in the layout of
    mode_matrix_d.

    Raises QuadratureConvergenceError when the sampled mode spectrum has
    not decayed below 1e-10 (relative) at the Nyquist index.
    """
    if block not in ("a", "d"):
        raise ValueError("block must be 'a' or 'd'")
    m = max(64, 8 * n)
    theta = 2 * np.pi * np.arange(m) / m
    zp = np.exp(1j * (theta + np.pi / m))
    z = np.exp(1j * theta)
    modes = np.fft.fft2(kern(zp[:, None], z[None, :]), axes=(0, 1)) / m**2

    top = np.max(np.abs(modes))
    nyq = m // 2
    edge = max(np.max(np.abs(modes[nyq])), np.max(np.abs(modes[:, nyq])))
    if top > 0 and edge > 1e-10 * top:
        raise QuadratureConvergenceError(
            f"modes at Nyquist index {nyq} not below 1e-10 of peak ({edge / top:.2e})"
        )

    k = np.arange(n)
    # a: z'^{p-1/2} z^{q-1/2}, d: z'^{-1/2-q} z^{-1/2-p}; the z' power
    # indexes the output's column modes, the z power its row modes
    mzp = mz = k if block == "a" else -1 - k
    coef = modes[np.ix_(mzp % m, mz % m)] * np.exp(-1j * np.pi * mzp / m)[:, None, None, None]
    # kernel colors (row, column) land transposed in both layouts:
    # A[(q,s),(p,s')] from row s', column s; D[(p,s'),(q,s)] from row s, column s'
    return coef.transpose(1, 3, 0, 2).reshape(2 * n, 2 * n)


def rank_one_residual(params: MonodromyParams, n: int, which: str = "a") -> float:
    """Max deviation from the rank-one factorization of the mode matrices.

    For every retained (p, s'), (q, s) the entry times its Cauchy
    denominator must reproduce the outer product psi x psibar with the
    block's twist phase.  'd' reads mode_matrix_d at t = 1, where every
    power factor is exactly 1; its identity is that of 'a' under
    nu -> -nu, with rows and columns trading the roles of (p, s') and
    (q, s).
    """
    if which not in ("a", "d"):
        raise ValueError("which must be 'a' or 'd'")
    if n < 1:
        raise ValueError(f"truncation order must be >= 1, got {n}")
    if which == "a":
        mat, nu, twist = mode_matrix_a(params, n), params.nu, 2 * params.eta - params.sigma
    else:
        mat, nu, twist = mode_matrix_d(params, 1.0, n), -params.nu, -params.sigma
    p, s = _modes(n)
    psi, psibar = _psi(nu, n)
    dcolor = s[:, None] - s[None, :]
    lhs = (p[:, None] + p[None, :] + dcolor * nu) * mat
    rhs = psi[None, :] * psibar[:, None] * np.exp(1j * np.pi * twist * dcolor)
    return float(np.max(np.abs(lhs - rhs)))
