"""Unit tests for the combinatorial series layer."""

import math

import pytest

from besseltau.monodromy import MonodromyParams
from besseltau.nekrasov import (
    SeriesTruncation,
    c_ratio,
    check_lemma_identities,
    colored_positions,
    quasi_periodicity_residual,
    tau_series_maya,
    tau_series_terms,
    xi_delta,
    z_bif,
    z_dual,
    z_inst,
    z_inst_coefficients,
)
from besseltau.partitions import EMPTY, YoungDiagram, arm, hook, leg, partitions_of

# weight-2 instanton coefficients frozen from a 40-digit independent run
W2_REAL = 18.69462911040480561  # nu = 0.37
W2_COMPLEX = 7.61 - 2.48j  # nu = 0.2 + 0.1i (exactly rational)

P_GENERIC = MonodromyParams.from_nu(0.37, 0.11)


class TestZBif:
    def test_empty(self):
        assert z_bif(0.41, EMPTY, EMPTY) == 1

    def test_single_box(self):
        nu = 0.7 - 0.2j
        one = YoungDiagram((1,))
        assert z_bif(nu, one, EMPTY) == pytest.approx(nu, rel=1e-14)
        assert z_bif(nu, EMPTY, one) == pytest.approx(nu, rel=1e-14)

    def test_reflection(self):
        nu = 0.37 + 0.21j
        yp, ym = YoungDiagram((3, 1)), YoungDiagram((2, 2, 1))
        lhs = z_bif(-nu, ym, yp)
        rhs = (-1) ** (yp.weight + ym.weight) * z_bif(nu, yp, ym)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_diagonal_hook_product(self):
        y = YoungDiagram((4, 2, 1))
        hooks = math.prod(hook(y, i, j) for i, j in y.boxes())
        assert z_bif(0, y, y) == pytest.approx((-1) ** y.weight * hooks**2, rel=1e-13)


    def test_matches_arm_leg_oracle_exactly(self):
        # the same integer factors in the same order as the box-by-box
        # definition through arm and leg
        nu = 0.37 - 0.05j
        diagrams = [YoungDiagram(rows) for w in range(5) for rows in partitions_of(w)]
        for yp in diagrams:
            for ym in diagrams:
                ref = 1.0 + 0.0j
                for i, j in yp.boxes():
                    ref *= nu + 1 + arm(yp, i, j) + leg(ym, i, j)
                for i, j in ym.boxes():
                    ref *= nu - 1 - arm(ym, i, j) - leg(yp, i, j)
                assert z_bif(nu, yp, ym) == ref


class TestZInst:
    def test_vacuum_normalization(self):
        assert z_inst_coefficients(0.37, 0)[0] == 1

    @pytest.mark.parametrize("nu", [0.37, 0.2 + 0.1j])
    def test_one_instanton(self, nu):
        c1 = z_inst_coefficients(nu, 1)[1]
        assert c1 == pytest.approx(1 / (2 * nu**2), rel=1e-13)

    def test_two_instanton_oracles(self):
        assert z_inst_coefficients(0.37, 2)[2] == pytest.approx(W2_REAL, rel=1e-12)
        assert z_inst_coefficients(0.2 + 0.1j, 2)[2] == pytest.approx(
            W2_COMPLEX, rel=1e-12
        )

    def test_sum_matches_coefficients(self):
        t, nu = 0.03, 0.41
        trunc = SeriesTruncation(4, 0)
        coeffs = z_inst_coefficients(nu, 4)
        expected = sum(coeffs[k] * t**k for k in range(5))
        assert z_inst(t, nu, trunc) == pytest.approx(expected, rel=1e-14)


class TestCRatio:
    def test_trivial(self):
        assert c_ratio(0.37, 0) == 1

    def test_elementary_value(self):
        # the charge -1 sector at nu = 1/4 carries weight -4, producing
        # the exp(-4 sqrt(t)) degeneration at eta = 0
        assert c_ratio(0.25, -1) == pytest.approx(-4.0, rel=1e-13)

    def test_composition(self):
        nu = 0.37 + 0.05j
        assert c_ratio(nu, 1) * c_ratio(nu + 1, 2) == pytest.approx(
            c_ratio(nu, 3), rel=1e-12
        )


class TestMayaSeries:
    def test_vacuum_term(self):
        xi, delta = xi_delta(0.37, (), (), 0)
        assert xi == 1 and delta == 1

    def test_colored_positions_sum_rule(self):
        yp, ym, q = YoungDiagram((2, 1)), YoungDiagram((1,)), 1
        ps, hs = colored_positions(yp, ym, q)
        total = sum(p for p, _ in ps) + sum(h for h, _ in hs)
        # each Maya diagram contributes Q^2/2 + |Y|
        assert total == q**2 + yp.weight + ym.weight

    def test_sign_rule(self):
        report = check_lemma_identities(0.313, weight_cutoff=3, charge_cutoff=2)
        assert report["sign_rule"] is True

    @pytest.mark.parametrize("nu", [0.313, 0.2 + 0.15j])
    def test_structural_identities(self, nu):
        report = check_lemma_identities(nu, weight_cutoff=3, charge_cutoff=2)
        assert report["maya_vs_box"] < 1e-12
        assert report["cauchy_vs_inst"] < 1e-12

    def test_maya_equals_dual(self):
        trunc = SeriesTruncation(5, 2)
        t = 0.04
        maya = tau_series_maya(t, P_GENERIC, trunc)
        dual = z_dual(t, P_GENERIC, trunc)
        assert maya == pytest.approx(dual, rel=1e-12)

    def test_term_records_normalized(self):
        terms = tau_series_terms(P_GENERIC, SeriesTruncation(2, 1))
        vacuum = [c for q, w, e, c in terms if q == 0 and w == 0]
        assert vacuum[0] == pytest.approx(1.0, rel=1e-14)


class TestSymmetries:
    def test_quasi_periodicity(self):
        assert quasi_periodicity_residual(P_GENERIC, SeriesTruncation(4, 2)) < 1e-12

    def test_quasi_periodicity_fails_when_nothing_is_compared(self):
        # charge cutoff 0 has no charge-1 coefficient to match the shifted charge 0 with
        assert quasi_periodicity_residual(P_GENERIC, SeriesTruncation(4, 0)) == math.inf

    def test_eta_half_period(self):
        t, trunc = 0.05, SeriesTruncation(5, 2)
        shifted = MonodromyParams(P_GENERIC.sigma, P_GENERIC.eta + 0.5)
        assert z_dual(t, shifted, trunc) == pytest.approx(
            z_dual(t, P_GENERIC, trunc), rel=1e-14
        )

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            SeriesTruncation(-1, 2)
        with pytest.raises(ValueError):
            SeriesTruncation(2, -1)
