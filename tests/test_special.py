"""Unit tests for the special functions.

Reference values were frozen from an independent arbitrary-precision
computation (mpmath at 40 digits) and are hard-coded here so the test
suite does not depend on the oracle package at runtime.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besseltau.errors import PoleError
from besseltau.special import (
    barnes_g_ratio,
    j_sigma,
    ln_gamma,
    upsilon,
)
from oracles import pochhammer


def gamma(z):
    """Gamma(z) through the principal log-Gamma, the reference for the tests below."""
    return cmath.exp(ln_gamma(z))


# frozen oracle values
LN_GAMMA_03_04 = 0.49665590338172582751 - 0.98274344760714660935j
J_HALF_AT_1 = 1.5906368546373290634  # equals I_1(2)
J_02_COMPLEX = 1.382289431929581455 + 0.091003955254936024036j
G_RATIO_17_3 = 5.8537658133288017935  # Gamma(1.7) Gamma(2.7) Gamma(3.7)


class TestLnGamma:
    def test_oracle_value(self):
        assert ln_gamma(0.3 + 0.4j) == pytest.approx(LN_GAMMA_03_04, rel=1e-14)

    def test_exponentiates_to_gamma(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma(5) == pytest.approx(24.0, rel=1e-14)

    @pytest.mark.parametrize("z", [0, -1, -7, 0.0 + 0.0j])
    def test_pole_raises(self, z):
        with pytest.raises(PoleError):
            ln_gamma(z)

    def test_near_pole_raises(self):
        with pytest.raises(PoleError):
            ln_gamma(-3 + 1e-14j)

    def test_recurrence(self):
        z = 0.7 - 0.2j
        assert gamma(z + 1) == pytest.approx(z * gamma(z), rel=1e-13)


class TestPochhammer:
    """The scalar Pochhammer oracle the mode and lemma tests read."""

    def test_base_cases(self):
        assert pochhammer(0.3 + 0.1j, 0) == 1
        assert pochhammer(2.5, 1) == 2.5

    def test_negative_order_raises(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, -1)

    @given(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=5, allow_nan=False),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=50)
    def test_recurrence(self, alpha, k):
        lhs = pochhammer(alpha, k + 1)
        rhs = pochhammer(alpha, k) * (alpha + k)
        assert cmath.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)

    def test_gamma_quotient(self):
        alpha, k = 1.3 + 0.4j, 6
        assert pochhammer(alpha, k) == pytest.approx(
            gamma(alpha + k) / gamma(alpha), rel=1e-12
        )


class TestJSigma:
    def test_bessel_value(self):
        # j_{1/2}(z) = z^{-1/2} I_1(2 sqrt(z)); at z = 1 this is I_1(2)
        assert j_sigma(0.5, 1.0) == pytest.approx(J_HALF_AT_1, rel=1e-14)

    def test_complex_oracle(self):
        assert j_sigma(0.2, 0.3 + 0.1j) == pytest.approx(J_02_COMPLEX, rel=1e-14)

    def test_value_at_origin(self):
        sigma = 0.37 - 0.5
        assert j_sigma(sigma, 0) == pytest.approx(
            cmath.exp(-ln_gamma(2 * sigma + 1)), rel=1e-14
        )

    def test_pole_in_order_raises(self):
        with pytest.raises(PoleError):
            j_sigma(-0.5, 1.0)  # 2 sigma + 1 = 0
        with pytest.raises(PoleError):
            j_sigma(-1.5, 1.0)

    def test_array_matches_scalar_calls(self):
        # one Taylor loop over the array runs until its slowest entry has
        # converged; the extra terms are below rounding at every other one
        sigma = 0.2 - 0.3j
        z = np.array([[0.0, 0.3, 0.4 + 0.1j], [-0.7 + 0.3j, 2.0 - 0.5j, 25.0]])
        vals = j_sigma(sigma, z)
        assert vals.shape == z.shape
        np.testing.assert_array_equal(vals, [[j_sigma(sigma, x) for x in row] for row in z])
        assert type(j_sigma(sigma, 0.3)) is complex

    def test_derivative_recurrence(self):
        # d/dz j_sigma(z) = j_{sigma + 1/2}(z)
        sigma, z, h = 0.21, 0.4 + 0.2j, 1e-6
        stencil = (j_sigma(sigma, z + h) - j_sigma(sigma, z - h)) / (2 * h)
        assert stencil == pytest.approx(j_sigma(sigma + 0.5, z), rel=1e-9)


class TestBarnesGRatio:
    def test_trivial(self):
        assert barnes_g_ratio(0.8 + 0.1j, 0) == 1

    def test_positive_shift(self):
        assert barnes_g_ratio(1.7, 3) == pytest.approx(G_RATIO_17_3, rel=1e-13)

    def test_inverse_consistency(self):
        z, n = 0.9 + 0.3j, 4
        assert barnes_g_ratio(z, n) * barnes_g_ratio(z + n, -n) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_recurrence(self):
        z, n = 1.2 - 0.4j, 3
        assert barnes_g_ratio(z, n + 1) == pytest.approx(
            barnes_g_ratio(z, n) * gamma(z + n), rel=1e-12
        )


class TestUpsilon:
    def test_shift_by_one_is_trivial(self):
        assert upsilon(0.74, 1) == pytest.approx(1.0, rel=1e-14)

    def test_shift_by_minus_one(self):
        nu = 0.74 + 0.2j
        assert upsilon(nu, -1) == pytest.approx(1 / nu, rel=1e-13)

    def test_recurrence(self):
        nu, q = 0.31 - 0.12j, 2
        assert upsilon(nu, q + 1) == pytest.approx(
            upsilon(nu, q) * gamma(1 + nu) / gamma(1 + nu + q), rel=1e-12
        )
