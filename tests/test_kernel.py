"""Unit tests for the kernel functions and their Fourier modes."""

import cmath
import types

import numpy as np
import pytest

from besseltau.errors import (
    CauchyCollisionError,
    DegenerateParameterError,
    QuadratureConvergenceError,
)
from besseltau.kernel import (
    ModeMatrices,
    adaptive_fredholm_det,
    bessel_kernel_J,
    fredholm_det,
    fredholm_det_block,
    kernel_a,
    kernel_d,
    mode_exponents,
    mode_list,
    mode_matrix_a,
    mode_matrix_d,
    modes_by_quadrature,
    psi_mode,
    psibar_mode,
    rank_one_residual,
)
from besseltau.monodromy import MonodromyParams
from besseltau.nekrasov import colored_positions, xi_delta
from besseltau.partitions import YoungDiagram, partitions_of

P_REAL = MonodromyParams.from_nu(0.37, 0.11)
P_COMPLEX = MonodromyParams(0.2 - 0.3j, 0.07 + 0.04j)

# z' against z: off-diagonal pairs, exact diagonals (0.3, 2 - 0.5i) and
# pairs 1e-9 apart, where the removable singularity is taken as a limit
GRID_ZP = np.array([0.3, (0.4 + 0.1j) * (1 + 1e-9), -0.7 + 0.3j, 2.0 - 0.5j])
GRID_Z = np.array([0.3, 0.4 + 0.1j, 0.9 - 0.2j, 2.0 - 0.5j])


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
        assert mode_list(2) == [(0.5, 1), (0.5, -1), (1.5, 1), (1.5, -1)]

    def test_leading_entries(self):
        nu = P_REAL.nu
        a = mode_matrix_a(P_REAL, 2)
        d = mode_matrix_d(P_REAL, 0.05, 2)
        # equal-color corner entries are pure Cauchy values
        assert a[0, 0] == pytest.approx(1 / (2 * nu), rel=1e-13)
        assert d[0, 0] == pytest.approx(-0.05 / (2 * nu), rel=1e-13)

    def test_leading_blocks_are_the_smaller_build(self):
        # the interleaved ordering keeps every smaller truncation a corner
        lead = ModeMatrices.build(P_COMPLEX, 0.3, 8).leading(5)
        small = ModeMatrices.build(P_COMPLEX, 0.3, 5)
        assert lead.n == 5
        np.testing.assert_array_equal(lead.a, small.a)
        np.testing.assert_array_equal(lead.d, small.d)

    def test_d_vanishes_at_zero_time(self):
        d = mode_matrix_d(P_REAL, 0.0, 3)
        assert np.all(d == 0)
        modes = ModeMatrices.build(P_REAL, 0.0, 3)
        assert fredholm_det(modes) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("params", [P_REAL, P_COMPLEX])
    def test_quadrature_matches_closed_form_a(self, params):
        quad = modes_by_quadrature(
            lambda zp, z: kernel_a(params, zp, z), 4, radius=1.0, block="a"
        )
        np.testing.assert_allclose(quad, mode_matrix_a(params, 4), atol=1e-12)

    @pytest.mark.parametrize("params", [P_REAL, P_COMPLEX])
    def test_quadrature_matches_closed_form_d(self, params):
        t = 0.05
        quad = modes_by_quadrature(
            lambda zp, z: kernel_d(params, t, zp, z), 4, radius=1.0, block="d"
        )
        np.testing.assert_allclose(quad, mode_matrix_d(params, t, 4), atol=1e-12)

    def test_quadrature_detects_nondecaying_modes(self):
        # a kernel with a pole just outside the unit circle decays too
        # slowly for the default sampling density
        def slow(zp, z):
            return np.ones((2, 2)) * (1 / (1.05 - z) + 0 * zp)[..., None, None]

        with pytest.raises(QuadratureConvergenceError):
            modes_by_quadrature(slow, 4, radius=1.0, block="a", samples=32)

    @pytest.mark.parametrize("block", ["a", "d"])
    def test_quadrature_calls_the_kernel_once(self, block):
        calls = []

        def counted(zp, z):
            calls.append(np.broadcast_shapes(zp.shape, z.shape))
            if block == "a":
                return kernel_a(P_REAL, zp, z)
            return kernel_d(P_REAL, 0.05, zp, z)

        modes_by_quadrature(counted, 4, radius=1.0, block=block)
        assert calls == [(64, 64)]

    @pytest.mark.parametrize("branch_sign", [None, {1: -1, -1: 1}])
    def test_blocks_match_scalar_loop(self, branch_sign):
        # entry by entry from the scalar mode functions; the broadcast
        # products may round differently, by a few ulp
        params, n = P_COMPLEX, 4
        bs = branch_sign or {1: 1, -1: 1}
        nu, sigma, eta = params.nu, params.sigma, params.eta
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
        np.testing.assert_allclose(mode_matrix_a(params, n, branch_sign), a_ref, rtol=4e-15)
        np.testing.assert_allclose(mode_matrix_d(params, 1.0, n, branch_sign), d_ref, rtol=4e-15)

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

        def index(pos, color):
            return int(2 * (pos - 0.5)) + (0 if color == 1 else 1)

        charged_pairs = [
            (YoungDiagram(rows_plus), YoungDiagram(rows_minus), q)
            for w in range(w_max + 1)
            for w_plus in range(w + 1)
            for rows_plus in partitions_of(w_plus)
            for rows_minus in partitions_of(w - w_plus)
            for q in range(-q_max, q_max + 1)
        ]
        for y_plus, y_minus, q in charged_pairs:
            ps, hs = colored_positions(y_plus, y_minus, q)
            cols, rows = [index(*x) for x in ps], [index(*x) for x in hs]
            minor = (
                (-1) ** len(cols)
                * np.linalg.det(a[np.ix_(rows, cols)])
                * np.linalg.det(d1[np.ix_(cols, rows)])
            )
            xi, delta = xi_delta(params.nu, ps, hs, q)
            weight = cmath.exp(-4j * cmath.pi * params.eta * q) * xi * delta**2
            assert minor == pytest.approx(weight, rel=1e-11, abs=0)


class TestDeterminant:
    def test_block_form_agrees(self):
        modes = ModeMatrices.build(P_REAL, 0.05, 8)
        d1, d2 = fredholm_det(modes), fredholm_det_block(modes)
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_adaptive_stabilizes(self):
        val, n, err = adaptive_fredholm_det(P_REAL, 0.05, tol=1e-12)
        ref = fredholm_det(ModeMatrices.build(P_REAL, 0.05, 16))
        assert val == pytest.approx(ref, rel=1e-11)
        assert err < 1e-12

    def test_adaptive_reports_unconverged_change(self):
        # at t = 3 the value needs N = 32 to settle; capped at 16 the
        # estimate is the last change, not zero
        val, n, err = adaptive_fredholm_det(P_REAL, 3.0, tol=1e-12, max_n=16)
        assert n == 16
        assert err > 1e-12
        assert err == abs(val - fredholm_det(ModeMatrices.build(P_REAL, 3.0, 8)))

    def test_empty_truncation_rejected(self):
        with pytest.raises(ValueError):
            ModeMatrices.build(P_REAL, 0.05, 0)

    def test_branch_sign_invariance(self):
        base = fredholm_det(ModeMatrices.build(P_REAL, 0.05, 8))
        for flip in ({1: -1, -1: 1}, {1: 1, -1: -1}, {1: -1, -1: -1}):
            flipped = fredholm_det(ModeMatrices.build(P_REAL, 0.05, 8, flip))
            assert flipped == pytest.approx(base, rel=1e-13)
