"""Unit tests for the kernel functions and their Fourier modes."""

import cmath
import math
import sys
import types

import numpy as np
import pytest

from besseltau import special
from besseltau.errors import (
    CauchyCollisionError,
    DegenerateParameterError,
    QuadratureConvergenceError,
)
from besseltau.kernel import (
    _modes,
    bessel_kernel_J,
    kernel_a,
    kernel_d,
    mode_exponents,
    mode_matrix_a,
    mode_matrix_d,
    modes_by_quadrature,
    rank_one_residual,
)
from besseltau.monodromy import MonodromyParams
from besseltau.nekrasov import _maya_weights, _pairs
from besseltau.partitions import _profile
from besseltau.special import ln_gamma, pochhammer
from besseltau.tau import TauRoute

P_REAL = MonodromyParams.from_nu(0.37, 0.11)
P_COMPLEX = MonodromyParams(0.2 - 0.3j, 0.07 + 0.04j)

# z' against z: off-diagonal pairs, exact diagonals (0.3, 2 - 0.5i) and
# pairs 1e-9 apart, where the removable singularity is taken as a limit
GRID_ZP = np.array([0.3, (0.4 + 0.1j) * (1 + 1e-9), -0.7 + 0.3j, 2.0 - 0.5j])
GRID_Z = np.array([0.3, 0.4 + 0.1j, 0.9 - 0.2j, 2.0 - 0.5j])


# Scalar references for the broadcast mode layer: one mode, one entry at a time.


def mode_list(n):
    """Interleaved mode enumeration [(1/2, +1), (1/2, -1), (3/2, +1), ...]."""
    return [(k + 0.5, s) for k in range(n) for s in (1, -1)]


def gamma_root(s, nu):
    """Principal sqrt of Gamma(1 + 2s nu) / Gamma(1 - 2s nu) via log-Gammas."""
    return cmath.exp(0.5 * (ln_gamma(1 + 2 * s * nu) - ln_gamma(1 - 2 * s * nu)))


def psi_mode(p, s, nu, branch_sign=1):
    """psi^{p;s}(nu) = r_s exp(-i pi s/4) / (m! (1 - 2s nu)_m), m = p - 1/2."""
    m = int(p - 0.5)
    root = branch_sign * gamma_root(s, nu)
    return root * cmath.exp(-1j * cmath.pi * s / 4) / (
        math.factorial(m) * pochhammer(1 - 2 * s * nu, m)
    )


def psibar_mode(p, s, nu, branch_sign=1):
    """psibar_{p;s}(nu) = exp(i pi s/4) / (r_s m! (2s nu)_{m+1}), m = p - 1/2."""
    m = int(p - 0.5)
    root = branch_sign / gamma_root(s, nu)
    return root * cmath.exp(1j * cmath.pi * s / 4) / (
        math.factorial(m) * pochhammer(2 * s * nu, m + 1)
    )


def block_form_det(a, d):
    """det(I - A D) from the 4N x 4N block form [[I, -A], [-D, I]]."""
    eye = np.eye(len(a))
    return complex(np.linalg.det(np.block([[eye, -a], [-d, eye]])))


def count_ln_gamma(monkeypatch):
    """Arguments of every ln_gamma call, wherever a besseltau module binds it."""
    calls, orig = [], special.ln_gamma

    def counted(z):
        calls.append(z)
        return orig(z)

    for name, mod in list(sys.modules.items()):
        if name.startswith("besseltau") and getattr(mod, "ln_gamma", None) is orig:
            monkeypatch.setattr(mod, "ln_gamma", counted)
    return calls


class TestKernelJ:
    @pytest.mark.parametrize("z", [0.3, 0.37 + 0.1j, 2.0 - 0.5j])
    def test_identity_on_diagonal(self, z):
        np.testing.assert_allclose(
            bessel_kernel_J(0.2 - 0.3j, z, z), np.eye(2), atol=1e-13
        )

    def test_degenerate_sigma_rejected(self):
        with pytest.raises(DegenerateParameterError):
            bessel_kernel_J(0.5, 0.1, 0.2)

    def test_removable_singularity_of_a(self):
        z = 0.4 + 0.1j
        near = kernel_a(P_REAL, z, z + 1e-9)
        limit = kernel_a(P_REAL, z, z)
        np.testing.assert_allclose(near, limit, atol=1e-7)

    def test_removable_singularity_of_d(self):
        z, t = 0.9 - 0.2j, 0.05
        near = kernel_d(P_REAL, t, z, z * (1 + 1e-9))
        limit = kernel_d(P_REAL, t, z, z)
        np.testing.assert_allclose(near, limit, atol=1e-7)

    def test_d_rejects_origin(self):
        with pytest.raises(ValueError):
            kernel_d(P_REAL, 0.05, 0.0, 1.0)
        with pytest.raises(ValueError):
            kernel_d(P_REAL, 0.05, np.array([1.0, 0.0]), 1.0)

    def test_d_rejects_zero_time(self):
        # the kernel vanishes as t -> 0, but w = t^nu leaves 1/w undefined at t = 0
        with pytest.raises(ValueError, match="t, z, z' != 0"):
            kernel_d(P_REAL, 0.0, 1.0, 1j)

    @pytest.mark.parametrize(
        "kern",
        [
            lambda zp, z: bessel_kernel_J(P_COMPLEX.sigma, zp, z),
            lambda zp, z: kernel_a(P_COMPLEX, zp, z),
            lambda zp, z: kernel_d(P_COMPLEX, 0.05, zp, z),
        ],
        ids=["J", "a", "d"],
    )
    def test_array_call_matches_scalar_calls(self, kern):
        grid = kern(GRID_ZP[:, None], GRID_Z[None, :])
        assert grid.shape == (4, 4, 2, 2)
        assert kern(GRID_ZP[0], GRID_Z[0]).shape == (2, 2)
        scalar = np.array([[kern(zp, z) for z in GRID_Z] for zp in GRID_ZP])
        np.testing.assert_allclose(grid, scalar, rtol=1e-14, atol=0)


class TestModeMatrices:
    def test_ordering(self):
        p, s = _modes(2)
        np.testing.assert_array_equal(p, [0.5, 0.5, 1.5, 1.5])
        np.testing.assert_array_equal(s, [1, -1, 1, -1])
        assert mode_list(2) == [(0.5, 1), (0.5, -1), (1.5, 1), (1.5, -1)]

    def test_leading_entries(self):
        nu = P_REAL.nu
        a = mode_matrix_a(P_REAL, 2)
        d = mode_matrix_d(P_REAL, 0.05, 2)
        # equal-color corner entries are pure Cauchy values
        assert a[0, 0] == pytest.approx(1 / (2 * nu), rel=1e-13)
        assert d[0, 0] == pytest.approx(-0.05 / (2 * nu), rel=1e-13)

    def test_leading_blocks_are_the_smaller_build(self):
        # the interleaved ordering keeps every smaller truncation a corner,
        # bit for bit: the Fredholm route reads both of its truncations so
        lead = slice(0, 10)
        np.testing.assert_array_equal(
            mode_matrix_a(P_COMPLEX, 8)[lead, lead], mode_matrix_a(P_COMPLEX, 5)
        )
        np.testing.assert_array_equal(
            mode_matrix_d(P_COMPLEX, 0.3, 8)[lead, lead], mode_matrix_d(P_COMPLEX, 0.3, 5)
        )
        np.testing.assert_array_equal(
            mode_exponents(P_COMPLEX.nu, 8)[lead, lead], mode_exponents(P_COMPLEX.nu, 5)
        )

    def test_d_vanishes_at_zero_time(self):
        d = mode_matrix_d(P_REAL, 0.0, 3)
        assert np.all(d == 0)

    @pytest.mark.parametrize("params", [P_REAL, P_COMPLEX])
    def test_quadrature_matches_closed_form_a(self, params):
        quad = modes_by_quadrature(
            lambda zp, z: kernel_a(params, zp, z), 4, block="a"
        )
        np.testing.assert_allclose(quad, mode_matrix_a(params, 4), atol=1e-12)

    @pytest.mark.parametrize("params", [P_REAL, P_COMPLEX])
    def test_quadrature_matches_closed_form_d(self, params):
        t = 0.05
        quad = modes_by_quadrature(
            lambda zp, z: kernel_d(params, t, zp, z), 4, block="d"
        )
        np.testing.assert_allclose(quad, mode_matrix_d(params, t, 4), atol=1e-12)

    def test_quadrature_detects_nondecaying_modes(self):
        # a kernel with a pole just outside the unit circle decays too
        # slowly for the 64 samples of a small truncation
        def slow(zp, z):
            return np.ones((2, 2)) * (1 / (1.05 - z) + 0 * zp)[..., None, None]

        with pytest.raises(QuadratureConvergenceError):
            modes_by_quadrature(slow, 4, block="a")

    @pytest.mark.parametrize("block", ["a", "d"])
    def test_quadrature_calls_the_kernel_once(self, block):
        calls = []

        def counted(zp, z):
            calls.append(np.broadcast_shapes(zp.shape, z.shape))
            if block == "a":
                return kernel_a(P_REAL, zp, z)
            return kernel_d(P_REAL, 0.05, zp, z)

        modes_by_quadrature(counted, 4, block=block)
        assert calls == [(64, 64)]

    @pytest.mark.parametrize("branch_sign", [None, {1: -1, -1: 1}])
    def test_blocks_match_scalar_loop(self, branch_sign):
        # entry by entry from the scalar mode functions; the broadcast
        # products round differently, by a few ulp that grow slowly with m
        params = P_COMPLEX
        bs = branch_sign or {1: 1, -1: 1}
        nu, sigma, eta = params.nu, params.sigma, params.eta
        for n, rtol in ((4, 4e-15), (26, 1e-14)):
            ms = mode_list(n)
            a_ref = np.array(
                [
                    [
                        psi_mode(p, sp, nu, bs[sp])
                        * psibar_mode(q, s, nu, bs[s])
                        / (p + q + (s - sp) * nu)
                        * np.exp(1j * np.pi * (2 * eta - sigma) * (s - sp))
                        for p, sp in ms
                    ]
                    for q, s in ms
                ]
            )
            d_ref = np.array(
                [
                    [
                        psi_mode(q, s, -nu, bs[s])
                        * psibar_mode(p, sp, -nu, bs[sp])
                        / (p + q + (s - sp) * nu)
                        * np.exp(1j * np.pi * sigma * (s - sp))
                        for q, s in ms
                    ]
                    for p, sp in ms
                ]
            )
            np.testing.assert_allclose(mode_matrix_a(params, n, branch_sign), a_ref, rtol=rtol)
            np.testing.assert_allclose(mode_matrix_d(params, 1.0, n, branch_sign), d_ref, rtol=rtol)

    def test_collision_detected(self):
        # nu within 1e-10 of an integer collides the momenta p + q = 2 nu
        # while staying numerically clear of the Gamma poles
        nu = 1 + 2e-11
        fake = types.SimpleNamespace(nu=nu, sigma=nu - 0.5, eta=0.1)
        with pytest.raises(CauchyCollisionError):
            mode_matrix_a(fake, 2)

    def test_collision_detected_in_d(self):
        # the d-block shares the a-block's denominators p + q + (s - s') nu
        nu = 1 + 2e-11
        fake = types.SimpleNamespace(nu=nu, sigma=nu - 0.5, eta=0.1)
        with pytest.raises(CauchyCollisionError):
            mode_matrix_d(fake, 0.05, 2)

    @pytest.mark.parametrize("which", ["a", "d"])
    def test_rank_one_identity(self, which):
        assert rank_one_residual(P_REAL, 6, which) < 1e-12
        assert rank_one_residual(P_COMPLEX, 6, which) < 1e-12

    @pytest.mark.parametrize("which", ["a", "d"])
    def test_rank_one_detects_perturbed_block(self, which, monkeypatch):
        import besseltau.kernel as kernel_mod

        name = f"mode_matrix_{which}"
        orig = getattr(kernel_mod, name)

        def perturbed(*args, **kwargs):
            m = orig(*args, **kwargs)
            m[1, 2] *= 1 + 1e-6
            return m

        monkeypatch.setattr(kernel_mod, name, perturbed)
        assert rank_one_residual(P_REAL, 6, which) > 1e-10

    @pytest.mark.parametrize("which", ["a", "d"])
    def test_rank_one_rejects_empty_truncation(self, which):
        # an empty block has no entry that could fail the identity
        with pytest.raises(ValueError, match="truncation order"):
            rank_one_residual(P_REAL, 0, which)

    def test_route_build_takes_one_gamma_root_per_color(self, monkeypatch):
        # A and D(1): two colors, two log-Gammas each
        calls = count_ln_gamma(monkeypatch)
        TauRoute(P_COMPLEX, "fredholm", n_modes=24)
        assert 0 < len(calls) <= 8

    @pytest.mark.parametrize("which", ["a", "d"])
    def test_rank_one_takes_one_gamma_root_per_color(self, which, monkeypatch):
        calls = count_ln_gamma(monkeypatch)
        rank_one_residual(P_COMPLEX, 6, which)
        assert 0 < len(calls) <= 8

    def test_exponents_carry_the_t_dependence(self):
        t = 0.3 + 0.1j
        d1 = mode_matrix_d(P_COMPLEX, 1.0, 3)
        scaled = d1 * t ** mode_exponents(P_COMPLEX.nu, 3)
        np.testing.assert_allclose(mode_matrix_d(P_COMPLEX, t, 3), scaled, rtol=1e-14)
        # the equal-color entries carry the integer powers t^{p+q}
        assert mode_exponents(P_COMPLEX.nu, 2)[0, 0] == 1


class TestPrincipalMinors:
    @pytest.mark.parametrize("params", [P_REAL, P_COMPLEX], ids=["generic", "complex"])
    def test_minors_are_the_maya_weights(self, params):
        # det(I - A D(t)) expands into (-1)^k det A[H, P] det D(t)[P, H];
        # the minor on the colored holes H and particles P of a charged pair
        # is its Maya-series weight exp(-4 pi i eta Q) Xi Delta^2
        w_max, q_max = 4, 2
        n = w_max + q_max + 2
        a, d1 = mode_matrix_a(params, n), mode_matrix_d(params, 1.0, n)

        for w in range(w_max + 1):
            for q in range(-q_max, q_max + 1):
                weights = _maya_weights(params.nu, w, q)
                for (rows_plus, rows_minus), weight in zip(_pairs(w), weights):
                    (pp, hp), (pm, hm) = _profile(rows_plus, q), _profile(rows_minus, -q)
                    # the doubled position |x| and color s index mode |x| - 1 + (s == -1)
                    cols = [p - 1 for p in pp] + list(pm)
                    rows = [-h - 1 for h in hp] + [-h for h in hm]
                    minor = (
                        (-1) ** len(cols)
                        * np.linalg.det(a[np.ix_(rows, cols)])
                        * np.linalg.det(d1[np.ix_(cols, rows)])
                    )
                    phase = cmath.exp(-4j * cmath.pi * params.eta * q)
                    assert minor == pytest.approx(phase * weight, rel=1e-11, abs=0)


class TestDeterminant:
    def test_block_form_agrees(self):
        a, d = mode_matrix_a(P_REAL, 8), mode_matrix_d(P_REAL, 0.05, 8)
        d1 = TauRoute(P_REAL, "fredholm", n_modes=8).tau(0.05).tau
        d2 = block_form_det(a, d)
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_branch_sign_invariance(self):
        base = TauRoute(P_REAL, "fredholm", n_modes=8).tau(0.05).tau
        for flip in ({1: -1, -1: 1}, {1: 1, -1: -1}, {1: -1, -1: -1}):
            a, d = mode_matrix_a(P_REAL, 8, flip), mode_matrix_d(P_REAL, 0.05, 8, flip)
            flipped = block_form_det(a, d)
            assert flipped == pytest.approx(base, rel=1e-13)
