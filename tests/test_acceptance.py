"""End-to-end acceptance suite.

Each test exercises one externally checkable property of the engine at
the tolerances promised in the package documentation: degenerate
closed-form solutions, hand-computed expansion coefficients, agreement
of the three independent evaluation routes, the defining ODEs, and the
structural identities connecting the kernel modes to the combinatorial
series.
"""

import math

import numpy as np
import pytest

from besseltau.kernel import (
    ModeMatrices,
    fredholm_det,
    kernel_a,
    kernel_d,
    mode_matrix_a,
    mode_matrix_d,
    modes_by_quadrature,
    rank_one_residual,
)
from besseltau.monodromy import MonodromyParams
from besseltau.nekrasov import (
    SeriesTruncation,
    check_lemma_identities,
    quasi_periodicity_residual,
    z_bif,
    z_dual_terms,
    z_inst_coefficients,
)
from besseltau.partitions import (
    MayaDiagram,
    YoungDiagram,
    hook,
    maya_from_young,
    partitions_of,
    young_from_maya,
)
from besseltau.tau import ode_residual, painleve_q, tau

P_GENERIC = MonodromyParams.from_nu(0.37, 0.11)
P_COMPLEX_ETA = MonodromyParams(0.2 - 0.3j, 0.07 + 0.04j)


def _aggregated_coefficients(nu, eta, weight_cutoff, charge_cutoff):
    """Sum the dual-series coefficients sharing one power of t."""
    params = MonodromyParams.from_nu(nu, eta)
    out = {}
    for _, _, e, c in z_dual_terms(params, SeriesTruncation(weight_cutoff, charge_cutoff)):
        key = round(2 * e.real) if isinstance(e, complex) else round(2 * e)
        out[key] = out.get(key, 0.0) + c
    return out


class TestAcceptance:
    @pytest.mark.parametrize("eta,sign", [(0.0, -1), (0.25, +1)])
    def test_01_elementary_solutions(self, eta, sign):
        """nu = 1/4 degenerates to exp(+-4 sqrt t), sign selected by eta."""
        coeffs = _aggregated_coefficients(0.25, eta, weight_cutoff=8, charge_cutoff=4)
        for k in range(9):
            expected = (sign * 4.0) ** k / math.factorial(k)
            assert coeffs[k] == pytest.approx(expected, rel=1e-8), f"power t^{k / 2}"

    @pytest.mark.parametrize("nu", [0.37, 0.2 + 0.1j])
    def test_02_one_instanton_coefficient(self, nu):
        """The weight-1 coefficient of the instanton sum is 1/(2 nu^2)."""
        c1 = z_inst_coefficients(nu, 1)[1]
        assert c1 == pytest.approx(1 / (2 * nu**2), rel=1e-12)

    def test_03_three_route_agreement(self):
        """Determinant, Maya series and dual sum agree on a t-grid."""
        trunc = SeriesTruncation(6, 2)
        for t in (0.01, 0.05, 0.1, 0.2):
            vals = {
                m: tau(t, P_GENERIC, m, n_modes=12, trunc=trunc, force=True)
                for m in ("fredholm", "maya", "nekrasov")
            }
            worst = max(
                abs(a.tau - b.tau) / abs(b.tau)
                for a in vals.values()
                for b in vals.values()
            )
            budget = 10 * max(v.est_error for v in vals.values()) / abs(
                vals["maya"].tau
            )
            assert worst < max(1e-8, budget), f"t = {t}"
            if t <= 0.05:
                assert worst < 1e-8, f"t = {t}"

    @pytest.mark.parametrize("params", [P_GENERIC, P_COMPLEX_ETA])
    def test_04_mode_matrix_oracle(self, params):
        """Closed-form Fourier modes match circle-quadrature extraction."""
        n, t = 8, 0.05
        quad_a = modes_by_quadrature(
            lambda zp, z: kernel_a(params, zp, z), n, radius=1.0, block="a"
        )
        assert np.max(np.abs(quad_a - mode_matrix_a(params, n))) < 1e-10
        quad_d = modes_by_quadrature(
            lambda zp, z: kernel_d(params, t, zp, z), n, radius=1.0, block="d"
        )
        assert np.max(np.abs(quad_d - mode_matrix_d(params, t, n))) < 1e-10

    @pytest.mark.parametrize("which", ["a", "d"])
    def test_05_rank_one_identity(self, which):
        """Cauchy denominator times mode entry factorizes as psi x psibar."""
        assert rank_one_residual(P_GENERIC, 8, which) < 1e-10

    @pytest.mark.parametrize("nu", [0.313, 0.2 + 0.15j])
    def test_06_series_weight_identity(self, nu):
        """Cauchy weights equal the closed instanton form, weight <= 4, |Q| <= 2."""
        report = check_lemma_identities(nu, weight_cutoff=4, charge_cutoff=2)
        assert report["cauchy_vs_inst"] < 1e-10
        assert report["maya_vs_box"] < 1e-10

    def test_07_bifundamental_identities(self):
        """Reflection and diagonal-hook identities of z_bif, all |Y| <= 6."""
        nu = 0.41 + 0.23j
        diagrams = [
            YoungDiagram(rows) for w in range(7) for rows in partitions_of(w)
        ]
        for yp in diagrams:
            for ym in diagrams:
                if yp.weight + ym.weight > 6:
                    continue
                lhs = z_bif(-nu, ym, yp)
                rhs = (-1) ** (yp.weight + ym.weight) * z_bif(nu, yp, ym)
                assert abs(lhs - rhs) <= 1e-13 * abs(rhs)
        for y in diagrams:
            hooks = math.prod(hook(y, i, j) for i, j in y.boxes())
            expected = (-1) ** y.weight * hooks**2
            assert z_bif(0, y, y) == pytest.approx(expected, rel=1e-13)

    def test_08_sigma_form_residual(self):
        """The log-derivative satisfies the sigma-form ODE."""
        trunc = SeriesTruncation(8, 3)
        for t in (0.02, 0.05, 0.1):
            assert ode_residual(t, P_GENERIC, "maya", trunc=trunc) < 1e-6, f"t = {t}"
            assert (
                ode_residual(t, P_GENERIC, "fredholm", n_modes=12) < 1e-5
            ), f"t = {t}"

    def test_09_degenerate_painleve_residual(self):
        """q = -t zeta' satisfies the degenerate Painleve III equation."""
        _, res = painleve_q(0.05, P_GENERIC, "maya", trunc=SeriesTruncation(8, 3))
        assert res < 1e-5
        p_elem = MonodromyParams.from_nu(0.25, 0.25)
        q, _ = painleve_q(0.05, p_elem, "fredholm", n_modes=12)
        assert q == pytest.approx(-math.sqrt(0.05), abs=1e-8)

    def test_10_quasi_periodicity(self):
        """Shifting nu by 1 re-indexes the charge sectors term by term."""
        assert (
            quasi_periodicity_residual(P_GENERIC, SeriesTruncation(5, 3)) < 1e-11
        )

    def test_11_maya_young_bijection(self):
        """Round trip is exact for every diagram supported in [-19/2, 19/2]."""
        positive = [2 * k + 1 for k in range(10)]
        p_sets = [
            frozenset(p for i, p in enumerate(positive) if mask >> i & 1)
            for mask in range(1 << 10)
        ]
        h_sets = [frozenset(-p for p in s) for s in p_sets]
        for particles in p_sets:
            for holes in h_sets:
                m = MayaDiagram(particles, holes)
                y, q = young_from_maya(m)
                m2 = maya_from_young(y, q)
                assert m2.particles == particles and m2.holes == holes
        # sum rule on the documented worked example (charge -1, |Y| = 9)
        m = MayaDiagram(frozenset({5}), frozenset({-3, -11}))
        y, q = young_from_maya(m)
        assert (sum(m.particles) - sum(m.holes)) / 2 == q**2 / 2 + y.weight
        assert y.weight == 9

    def test_12_branch_independence(self):
        """The determinant ignores the psi/psibar square-root branch choice."""
        t, n = 0.05, 10
        base = fredholm_det(ModeMatrices.build(P_GENERIC, t, n))
        for flip in ({1: -1, -1: 1}, {1: 1, -1: -1}, {1: -1, -1: -1}):
            flipped = fredholm_det(ModeMatrices.build(P_GENERIC, t, n, flip))
            assert abs(flipped - base) <= 1e-12 * abs(base)
