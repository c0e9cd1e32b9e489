"""Unit tests for the monodromy parameters and their lattice guard."""

import pytest

from besseltau.errors import DegenerateParameterError
from besseltau.monodromy import MonodromyParams


class TestParams:
    def test_nu_shift(self):
        p = MonodromyParams(-0.13, 0.11)
        assert p.nu == pytest.approx(0.37)

    def test_from_nu(self):
        p = MonodromyParams.from_nu(0.37, 0.11)
        assert p.sigma == pytest.approx(-0.13)

    def test_shifted(self):
        p = MonodromyParams(-0.13, 0.11).shifted(2)
        assert p.sigma == pytest.approx(1.87)
        assert p.eta == 0.11

    @pytest.mark.parametrize("sigma", [0.5, 0.0, 1.0, -1.5, 0.5 + 1e-12j])
    def test_lattice_rejected(self, sigma):
        with pytest.raises(DegenerateParameterError, match="lattice"):
            MonodromyParams(sigma, 0.1)

    def test_off_lattice_accepted(self):
        MonodromyParams(0.5 + 0.2j, 0.0)  # imaginary part moves off the lattice
