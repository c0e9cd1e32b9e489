"""The generalized Bessel kernel and its Fredholm determinant.

Two faces of the same operator K = [[0, a], [d, 0]]:

* continuous 2x2 matrix kernels a(z', z), d(z', z) built from the matrix
  J_sigma(z', z), bilinear in the entire functions j_sigma;
* their Fourier modes, which are Cauchy matrices up to diagonal factors
  and phases, assembled here into finite blocks A (rows = hole modes,
  columns = particle modes) and D (transposed roles).

The tau function is det(1 - K) = det(I - A D) in the truncated mode
basis.  Fourier modes extracted from circle samples of the continuous
kernels (``modes_by_quadrature``) serve as an independent cross-check of
the closed-form entries.

Mode ordering is the fixed interleaving
[(1/2, +), (1/2, -), (3/2, +), (3/2, -), ...]; determinants do not care,
and this keeps block growth local when the truncation order N increases.
All fractional powers take the principal branch, arg in (-pi, pi].
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CauchyCollisionError, QuadratureConvergenceError
from .monodromy import MonodromyParams, check_off_lattice
from .special import j_sigma, ln_gamma, pochhammer

__all__ = [
    "ModeMatrices",
    "bessel_kernel_J",
    "kernel_a",
    "kernel_d",
    "mode_matrix_a",
    "mode_matrix_d",
    "modes_by_quadrature",
    "fredholm_det",
    "fredholm_det_block",
    "adaptive_fredholm_det",
    "rank_one_residual",
    "mode_list",
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
    """Continuous d-kernel; analytic in C* x C*, vanishes as t -> 0.

    diag(w, 1/w) sigma_y C sigma_y diag(1/w, w) with w = t^nu exp(i pi sigma)
    and C = (1 - J_sigma(t/z', t/z))/(z - z') = t/(z z') J_core(t/z', t/z);
    sigma_y C sigma_y is the swap [[C11, -C10], [-C01, C00]]."""
    zp, z, t = np.asarray(zp, dtype=complex), np.asarray(z, dtype=complex), complex(t)
    if np.any(zp == 0) or np.any(z == 0):
        raise ValueError("kernel_d requires z, z' != 0")
    s, nu = params.sigma, params.nu
    c = (t / (z * zp))[..., None, None] * _j_core(s, t / zp, t / z)
    w = t**nu * cmath.exp(1j * cmath.pi * s)
    # the swap reverses both axes; the signs of its off-diagonal ride on the phases
    return c[..., ::-1, ::-1] * np.outer([w, -1 / w], [1 / w, -w])


# ---------------------------------------------------------------------------
# Fourier modes


def mode_list(n: int):
    """Interleaved mode enumeration [(1/2, +1), (1/2, -1), (3/2, +1), ...]."""
    out = []
    for k in range(n):
        out.append((k + 0.5, 1))
        out.append((k + 0.5, -1))
    return out


def _gamma_root(s: int, nu: complex) -> complex:
    """Principal sqrt of Gamma(1+2s nu)/Gamma(1-2s nu) via log-Gammas."""
    return cmath.exp(0.5 * (ln_gamma(1 + 2 * s * nu) - ln_gamma(1 - 2 * s * nu)))


def psi_mode(p: float, s: int, nu: complex, branch_sign: int = 1) -> complex:
    m = int(p - 0.5)
    root = branch_sign * _gamma_root(s, nu)
    return root * cmath.exp(-1j * cmath.pi * s / 4) / (
        math.factorial(m) * pochhammer(1 - 2 * s * nu, m)
    )


def psibar_mode(p: float, s: int, nu: complex, branch_sign: int = 1) -> complex:
    m = int(p - 0.5)
    root = branch_sign / _gamma_root(s, nu)
    return root * cmath.exp(1j * cmath.pi * s / 4) / (
        math.factorial(m) * pochhammer(2 * s * nu, m + 1)
    )


def _cauchy_block(nu, twist, n: int, branch_sign=None) -> np.ndarray:
    """Mode block with rows (x, s_x) and columns (y, s_y), both in mode_list order.

    Entry psi^{y;s_y}(nu) psibar_{x;s_x}(nu) / (x + y + (s_x - s_y) nu)
    times the phase exp(i pi twist (s_x - s_y)): a Cauchy matrix up to
    diagonal factors.  Raises CauchyCollisionError when a denominator
    (a difference of shifted momenta) vanishes.
    """
    branch_sign = branch_sign or {1: 1, -1: 1}
    ms = mode_list(n)
    pos = np.array([p for p, _ in ms])
    color = np.array([s for _, s in ms])
    psi = np.array([psi_mode(p, s, nu, branch_sign[s]) for p, s in ms])
    psibar = np.array([psibar_mode(p, s, nu, branch_sign[s]) for p, s in ms])
    dcolor = color[:, None] - color[None, :]
    den = pos[:, None] + pos[None, :] + dcolor * nu
    small = np.abs(den) < 1e-10
    if small.any():
        r, c = np.argwhere(small)[0]
        raise CauchyCollisionError(
            f"shifted momenta collide: rows ({ms[r]}), columns ({ms[c]}), nu={nu}"
        )
    # s_x - s_y takes the values -2, 0, 2
    phases = np.array([cmath.exp(1j * cmath.pi * twist * k) for k in (-2, 0, 2)])
    return psi[None, :] * psibar[:, None] / den * phases[dcolor // 2 + 1]


def mode_matrix_a(params: MonodromyParams, n: int, branch_sign=None) -> np.ndarray:
    """Closed-form a-modes: rows are hole modes (-q, s), columns particle modes (p, s').

    Each entry is psi^{p;s'}(nu) psibar_{q;s}(nu) / (x_{p;s'} - x_{-q;s})
    times the phase exp(i pi (2 eta - sigma)(s - s')), with the momentum
    difference x_{p;s'} - x_{-q;s} = p + q + (s - s') nu.
    ``branch_sign`` optionally flips the square-root branch inside psi and
    psibar per color, {+1: +-1, -1: +-1}.
    """
    return _cauchy_block(params.nu, 2 * params.eta - params.sigma, n, branch_sign)


def mode_exponents(nu, n: int) -> np.ndarray:
    """t-exponents E = (s - s') nu + p + q of the d-modes, in their layout.

    D(t) = D(1) * t**E entrywise, so theta^k D = E**k * D for theta = t d/dt.
    """
    ms = mode_list(n)
    return np.array([[(s - sp) * nu + p + q for q, s in ms] for p, sp in ms], dtype=complex)


def mode_matrix_d(params: MonodromyParams, t, n: int, branch_sign=None) -> np.ndarray:
    """Closed-form d-modes: rows are particle modes (p, s'), columns hole modes (-q, s).

    The t dependence is isolated in the factors t**mode_exponents; the
    t-independent core D(1) is the a-block under nu -> -nu with twist
    -sigma, i.e. phase exp(i pi sigma (s - s')).
    """
    t = complex(t)
    if t == 0:
        return np.zeros((2 * n, 2 * n), dtype=complex)
    core = _cauchy_block(-params.nu, -params.sigma, n, branch_sign)
    return core * t ** mode_exponents(params.nu, n)


@dataclass(frozen=True)
class ModeMatrices:
    """Truncated Fourier-mode blocks of K at truncation order N."""

    a: np.ndarray
    d: np.ndarray
    n: int
    t: complex

    @classmethod
    def build(cls, params: MonodromyParams, t, n: int, branch_sign=None):
        if n < 1:
            raise ValueError(f"truncation order must be >= 1, got {n}")
        return cls(
            a=mode_matrix_a(params, n, branch_sign),
            d=mode_matrix_d(params, t, n, branch_sign),
            n=n,
            t=complex(t),
        )

    def leading(self, n: int) -> "ModeMatrices":
        """The blocks at truncation n <= self.n: by the interleaved ordering,
        the leading 2n x 2n corners."""
        size = 2 * n
        return ModeMatrices(self.a[:size, :size], self.d[:size, :size], n, self.t)


def modes_by_quadrature(kern, n: int, radius: float, block: str = "a", samples=None) -> np.ndarray:
    """Extract mode matrices from circle samples of a continuous kernel.

    ``kern`` is a callable (z', z) -> 2x2 array that broadcasts: it is
    called once, on a column of z' against a row of z, and must return
    the 2x2 samples in its last two axes.  The z' grid is offset by half a
    step so the removable diagonal z = z' is never sampled.  For
    block 'a' the coefficients of z'^{p-1/2} z^{q-1/2} are returned in the
    layout of mode_matrix_a; for 'd', the coefficients of
    z'^{-1/2-q} z^{-1/2-p} in the layout of mode_matrix_d.

    Raises QuadratureConvergenceError when the sampled mode spectrum has
    not decayed below 1e-10 (relative) at the Nyquist index.
    """
    if block not in ("a", "d"):
        raise ValueError("block must be 'a' or 'd'")
    m = samples or max(64, 8 * n)
    theta = 2 * np.pi * np.arange(m) / m
    zp = radius * np.exp(1j * (theta + np.pi / m))
    z = radius * np.exp(1j * theta)
    modes = np.fft.fft2(kern(zp[:, None], z[None, :]), axes=(0, 1)) / m**2

    top = np.max(np.abs(modes))
    nyq = m // 2
    edge = max(np.max(np.abs(modes[nyq])), np.max(np.abs(modes[:, nyq])))
    if top > 0 and edge > 1e-10 * top:
        raise QuadratureConvergenceError(
            f"modes at Nyquist index {nyq} not below 1e-10 of peak ({edge / top:.2e})"
        )

    out = np.empty((2 * n, 2 * n), dtype=complex)
    for r in range(n):
        for c in range(n):
            if block == "a":
                mzp, mz = c, r  # z'^{p-1/2}, z^{q-1/2}
            else:
                mzp, mz = -1 - c, -1 - r  # z'^{-1/2-q}, z^{-1/2-p}
            coef = modes[mzp % m, mz % m] * np.exp(-1j * np.pi * mzp / m)
            coef = coef / radius ** (mzp + mz)
            # kernel colors (row, column) land transposed in both layouts:
            # A[(q,s),(p,s')] from row s', column s; D[(p,s'),(q,s)] from row s, column s'
            out[2 * r : 2 * r + 2, 2 * c : 2 * c + 2] = coef.T
    return out


# ---------------------------------------------------------------------------
# Determinants


def fredholm_det(modes: ModeMatrices) -> complex:
    """det(I - A D) by LU factorization with partial pivoting."""
    size = 2 * modes.n
    return complex(np.linalg.det(np.eye(size) - modes.a @ modes.d))


def fredholm_det_block(modes: ModeMatrices) -> complex:
    """Same determinant from the 4N x 4N block form [[I, -A], [-D, I]]."""
    size = 2 * modes.n
    eye = np.eye(size)
    top = np.hstack([eye, -modes.a])
    bottom = np.hstack([-modes.d, eye])
    return complex(np.linalg.det(np.vstack([top, bottom])))


def adaptive_fredholm_det(params: MonodromyParams, t, tol: float = 1e-12, max_n: int = 64):
    """Double N until the determinant stabilizes below tol (or N hits the cap).

    Returns (value, n, est_error) with est_error the last change of the
    value; it stays above tol when the cap stopped the doubling, and is
    inf when no doubling took place (max_n <= 4).
    """
    n = 4
    val = fredholm_det(ModeMatrices.build(params, t, n))
    change = math.inf
    while n < max_n and not change < tol:
        n = min(2 * n, max_n)
        prev, val = val, fredholm_det(ModeMatrices.build(params, t, n))
        change = abs(val - prev)
    return val, n, change


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
    if n == 0:
        return 0.0
    if which == "a":
        mat, nu, twist = mode_matrix_a(params, n), params.nu, 2 * params.eta - params.sigma
    else:
        mat, nu, twist = mode_matrix_d(params, 1.0, n), -params.nu, -params.sigma
    ms = mode_list(n)
    worst = 0.0
    for r, (x, sx) in enumerate(ms):
        for c, (y, sy) in enumerate(ms):
            rhs = (
                psi_mode(y, sy, nu)
                * psibar_mode(x, sx, nu)
                * cmath.exp(1j * cmath.pi * twist * (sx - sy))
            )
            lhs = (x + y + (sx - sy) * nu) * mat[r, c]
            worst = max(worst, abs(lhs - rhs))
    return worst
