"""Unit tests for the combinatorial series layer."""

import math

import numpy as np
import pytest

from besseltau.monodromy import MonodromyParams
from besseltau.nekrasov import (
    SeriesTruncation,
    _instanton_table,
    _instanton_weights,
    _maya_weights,
    _pairs,
    c_ratio,
    check_lemma_identities,
    quasi_periodicity_residual,
    tau_series_terms,
    z_bif,
    z_inst_coefficients,
)
from besseltau.partitions import EMPTY, YoungDiagram, _profile, hook, partitions_of
from besseltau.tau import TauRoute

# weight-2 instanton coefficients frozen from a 40-digit independent run
W2_REAL = 18.69462911040480561  # nu = 0.37
W2_COMPLEX = 7.61 - 2.48j  # nu = 0.2 + 0.1i (exactly rational)

P_GENERIC = MonodromyParams.from_nu(0.37, 0.11)


def arm(y, i, j):
    """Extended arm length Y_i - j, for the box-by-box z_bif oracle."""
    return y.row(i) - j


def leg(y, i, j):
    """Extended leg length Y'_j - i."""
    return y.conjugate().row(j) - i


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
        # at charge cutoff 0 the dual sum is the instanton sum
        t, nu = 0.03, 0.41
        route = TauRoute(MonodromyParams.from_nu(nu, 0.0), "nekrasov", trunc=SeriesTruncation(4, 0))
        coeffs = z_inst_coefficients(nu, 4)
        expected = sum(coeffs[k] * t**k for k in range(5))
        assert route.tau(t).tau == pytest.approx(expected, rel=1e-14)


class TestTables:
    @pytest.mark.parametrize("nu", [0.37, 0.2 + 0.1j])
    @pytest.mark.parametrize("shift", [0, 2, -1])
    def test_instanton_weights_match_z_bif(self, nu, shift):
        # 1 / prod_{s, s'} z_bif(nu (s - s') | Y^{s'}, Y^s) from the scalar z_bif
        nu = nu + shift
        for w in range(6):
            weights = _instanton_weights(_instanton_table(w), nu)
            assert len(weights) == sum(1 for _ in _pairs(w))
            for (rows_plus, rows_minus), weight in zip(_pairs(w), weights):
                y = {1: YoungDiagram(rows_plus), -1: YoungDiagram(rows_minus)}
                den = math.prod(
                    z_bif(nu * (s - sp), y[sp], y[s]) for s in (1, -1) for sp in (1, -1)
                )
                assert weight == pytest.approx(1 / den, rel=1e-14, abs=0)

    def test_pairs_enumerate_each_weight_once(self):
        for w in range(7):
            pairs = list(_pairs(w))
            assert len(set(pairs)) == len(pairs)
            assert all(sum(yp) + sum(ym) == w for yp, ym in pairs)
            assert len(pairs) == sum(
                len(partitions_of(k)) * len(partitions_of(w - k)) for k in range(w + 1)
            )


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
        assert _maya_weights(0.37, 0, 0).tolist() == [1]

    def test_colored_positions_sum_rule(self):
        # the walk's doubled positions: each Maya diagram contributes
        # (sum of particles - sum of holes) / 2 = Q^2/2 + |Y|
        rows_plus, rows_minus, q = (2, 1), (1,), 1
        total = 0
        for rows, charge in ((rows_plus, q), (rows_minus, -q)):
            particles, holes = _profile(rows, charge)
            total += sum(particles) - sum(holes)
        assert total == 2 * q**2 + 2 * (sum(rows_plus) + sum(rows_minus))

    def test_sign_rule(self):
        # for real nu in (0, 1/2), every Maya weight Xi Delta^2 has the sign (-1)^Q
        for w in range(4):
            for q in range(-2, 3):
                weights = _maya_weights(0.313, w, q)
                assert np.all(np.sign(weights.real) == (-1) ** q), (w, q)

    @pytest.mark.parametrize("nu", [0.313, 0.2 + 0.15j])
    def test_structural_identities(self, nu):
        report = check_lemma_identities(nu, weight_cutoff=3, charge_cutoff=2)
        assert report["maya_vs_box"] < 1e-12
        assert report["cauchy_vs_inst"] < 1e-12

    def test_maya_equals_dual(self):
        trunc = SeriesTruncation(5, 2)
        t = 0.04
        maya = TauRoute(P_GENERIC, "maya", trunc=trunc).tau(t).tau
        dual = TauRoute(P_GENERIC, "nekrasov", trunc=trunc).tau(t).tau
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
        assert TauRoute(shifted, "nekrasov", trunc=trunc).tau(t).tau == pytest.approx(
            TauRoute(P_GENERIC, "nekrasov", trunc=trunc).tau(t).tau, rel=1e-14
        )

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            SeriesTruncation(-1, 2)
        with pytest.raises(ValueError):
            SeriesTruncation(2, -1)
