"""Unit tests for the tau engine."""

import cmath
import math

import numpy as np
import pytest

import besseltau
from besseltau import nekrasov, partitions
from besseltau import tau as tau_module
from besseltau.errors import BesselTauError
from besseltau.kernel import mode_exponents, mode_matrix_a, mode_matrix_d
from besseltau.monodromy import MonodromyParams
from besseltau.nekrasov import SeriesTruncation, complex_fsum, tau_series_terms
from besseltau.tau import (
    METHODS,
    TauRoute,
    TauValue,
    _theta_cumulants,
    cross_validate,
)
from oracles import fredholm_moments

P_GENERIC = MonodromyParams.from_nu(0.37, 0.11)
P_ELEM_PLUS = MonodromyParams.from_nu(0.25, 0.25)  # tau = t^{1/16} e^{+4 sqrt t}
TRUNC = SeriesTruncation(6, 2)
TRUNC_FINE = SeriesTruncation(8, 4)

# 7-point central coefficients in s = log t at offsets -3..3: d/ds and
# d^2/ds^2 (6th order), d^3/ds^3 and d^4/ds^4 (4th order)
_STENCILS = (
    (-1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60),
    (1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90),
    (1 / 8, -1.0, 13 / 8, 0.0, -13 / 8, 1.0, -1 / 8),
    (-1 / 6, 2.0, -13 / 2, 28 / 3, -13 / 2, 2.0, -1 / 6),
)


def stencil_theta(t, params, h, n_modes=12):
    """Oracle for theta^k log tau_full, k = 1..4: finite differences of
    Fredholm determinants in s = log t, step h / max(t, 0.05).

    It shares no derivative code with the package.  Differencing in log t
    keeps the t^{nu^2} prefactor exactly linear in s.
    """
    delta = h / max(t, 0.05)
    route = TauRoute(params, "fredholm", n_modes)
    f = [
        params.nu**2 * math.log(x) + cmath.log(route.tau(x, force=True).tau)
        for x in (t * math.exp(k * delta) for k in range(-3, 4))
    ]
    return tuple(
        sum(c * v for c, v in zip(coeffs, f)) / delta**k
        for k, coeffs in enumerate(_STENCILS, start=1)
    )


def exact_theta(t, params, method, **kwargs):
    """theta^k log tau_full from the package's zeta derivatives."""
    z, zp, zpp, zppp = TauRoute(params, method, **kwargs).zeta_derivatives(t)
    th2 = t * zp
    th3 = t**2 * zpp + th2
    th4 = t**3 * zppp + 3 * th3 - 2 * th2
    return z, th2, th3, th4


class TestTauValue:
    def test_method_validation(self):
        with pytest.raises(ValueError):
            TauValue(t=0.1, tau=1.0, method="magic")

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            TauValue(t=0.1, tau=1.0, method="maya", est_error=-1.0)


class TestTau:
    @pytest.mark.parametrize("method", METHODS)
    def test_normalization_at_origin(self, method):
        tv = TauRoute(P_GENERIC, method, trunc=TRUNC).tau(0.0)
        assert tv.tau == 1 and tv.est_error == 0

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            TauRoute(P_GENERIC, "lax")

    def test_reliable_region_warning(self):
        with pytest.warns(UserWarning, match="reliable radius"):
            TauRoute(P_GENERIC, "maya", trunc=TRUNC).tau(0.7)

    def test_force_suppresses_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TauRoute(P_GENERIC, "maya", trunc=TRUNC).tau(0.7, force=True)

    def test_est_error_brackets_truth(self):
        coarse = TauRoute(P_GENERIC, "maya", trunc=SeriesTruncation(4, 2)).tau(0.05)
        fine = TauRoute(P_GENERIC, "maya", trunc=SeriesTruncation(10, 3)).tau(0.05)
        assert abs(coarse.tau - fine.tau) < 10 * coarse.est_error

    @pytest.mark.parametrize("n_modes", [0, -1])
    def test_empty_truncation_rejected(self, n_modes):
        with pytest.raises(ValueError, match="n_modes"):
            TauRoute(P_GENERIC, "fredholm", n_modes=n_modes)

    @pytest.mark.parametrize("method", METHODS)
    def test_overflow_raises(self, method):
        # t**E and the series powers overflow: an error, not a nan or a traceback
        with pytest.raises(BesselTauError, match="overflows at t = "):
            TauRoute(P_GENERIC, method, trunc=TRUNC).tau(1e50, force=True)

    def test_finer_truncation_shared(self):
        # the value is read off the finer truncation; its blocks and terms
        # equal separate coarse builds, so only the determinant's last ulp
        # may move
        t = 0.05
        tv = TauRoute(P_GENERIC, "fredholm", n_modes=8).tau(t)
        a, d = mode_matrix_a(P_GENERIC, 8), mode_matrix_d(P_GENERIC, t, 8)
        alone = np.linalg.det(np.eye(16) - a @ d)
        assert tv.tau == pytest.approx(alone, rel=1e-15)
        finer = TauRoute(P_GENERIC, "fredholm", n_modes=10).tau(t).tau
        assert tv.est_error == pytest.approx(abs(finer - alone), rel=1e-6, abs=1e-15)
        tv = TauRoute(P_GENERIC, "maya", trunc=TRUNC).tau(t)

        def series_sum(trunc):
            return complex_fsum(c * complex(t) ** e for (_, _, e, c) in tau_series_terms(P_GENERIC, trunc))

        assert tv.tau == series_sum(TRUNC)
        finer = series_sum(SeriesTruncation(7, 2))
        assert tv.est_error == abs(finer - tv.tau)

    def test_truncation_metadata(self):
        tv = TauRoute(P_GENERIC, "fredholm", n_modes=6).tau(0.05)
        assert tv.truncation == {"n_modes": 6}
        tv = TauRoute(P_GENERIC, "nekrasov", trunc=TRUNC).tau(0.05)
        assert tv.truncation == {"weight_cutoff": 6, "charge_cutoff": 2}


class TestTauRoute:
    @pytest.mark.parametrize("method", ["maya", "nekrasov"])
    def test_series_build_makes_no_diagram_objects(self, method, monkeypatch):
        # the series structure is integer tables over row tuples; building a
        # route constructs no YoungDiagram or MayaDiagram and calls no maya_from_young
        calls = []

        def counted(name, fn):
            return lambda *args: calls.append(name) or fn(*args)

        for cls in (partitions.YoungDiagram, partitions.MayaDiagram):
            monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
        for mod in (besseltau, partitions, nekrasov, tau_module):
            if hasattr(mod, "maya_from_young"):
                monkeypatch.setattr(mod, "maya_from_young", counted("maya_from_young", mod.maya_from_young))
        TauRoute(P_GENERIC, method, trunc=TRUNC)
        assert calls == []
        # the counters do count
        partitions.maya_from_young(partitions.YoungDiagram((2, 1)), 1)
        assert calls == ["YoungDiagram", "maya_from_young", "MayaDiagram"]

    @pytest.mark.parametrize(
        "method, t",
        [("fredholm", 1e12), ("fredholm", 1e50), ("fredholm", 1e120)]
        + [("maya", 1e50), ("maya", 1e120)],
    )
    def test_log_derivative_overflow_raises(self, method, t):
        # t**E and the series powers overflow as in tau: an error, never a
        # nan, a RuntimeWarning or a bare OverflowError
        with pytest.raises(BesselTauError, match="log-derivatives overflow at t = "):
            TauRoute(P_GENERIC, method).theta_log_tau(t)

    def test_log_derivatives_finite_without_overflow(self):
        # at t = 1e12 the maya powers stay finite, so the value is returned
        assert all(map(cmath.isfinite, TauRoute(P_GENERIC, "maya").theta_log_tau(1e12)))

    @pytest.mark.parametrize("n_modes", [1, 6, 12])
    def test_fredholm_grid_is_the_determinant_per_t(self, n_modes):
        # tau and est_error of one stacked pass, bit for bit, against
        # det(I - A D) of separate builds at n and n + 2 modes, one t at a time
        ts = [0.0, -0.3, 0.05, 0.7 + 0.2j, 3.0, 20.0]
        values, thetas = TauRoute(P_GENERIC, "fredholm", n_modes).grid(ts)
        assert thetas is None
        blocks = {n: mode_matrix_a(P_GENERIC, n) for n in (n_modes, n_modes + 2)}
        for t, tv in zip(ts, values):
            if t == 0:
                assert (tv.t, tv.tau, tv.est_error) == (0, 1, 0)
                continue
            val, finer = (
                complex(np.linalg.det(np.eye(2 * n) - a @ mode_matrix_d(P_GENERIC, t, n)))
                for n, a in blocks.items()
            )
            assert (tv.t, tv.tau, tv.est_error) == (t, val, abs(val - finer)), t

    def test_leading_route_is_a_build_at_n(self):
        # tau, est_error and theta, bit for bit, off the leading blocks of one build
        route = TauRoute(P_GENERIC, "fredholm", 12)
        ts = [-0.3, 0.05, 0.7 + 0.2j, 5.0]
        for n in (1, 2, 7, 12):
            built, cut = TauRoute(P_GENERIC, "fredholm", n), route.leading(n)
            assert cut.truncation == built.truncation == {"n_modes": n}
            assert cut.grid(ts, derivatives=True) == built.grid(ts, derivatives=True), n
        assert route.truncation == {"n_modes": 12}
        for bad in (0, 13):
            with pytest.raises(ValueError, match="leading needs"):
                route.leading(bad)
        with pytest.raises(ValueError, match="leading needs"):
            TauRoute(P_GENERIC, "maya", trunc=TRUNC).leading(1)

    @pytest.mark.parametrize("method", METHODS)
    def test_grid_is_the_one_point_calls(self, method):
        # every value and log-derivative of one grid pass, bit for bit; theta
        # only at real t > 0
        ts = [0.0, -0.2, 0.01, 0.05 + 0.01j, 0.3, np.float64(0.45)]
        route = TauRoute(P_GENERIC, method, trunc=TRUNC)
        values, thetas = route.grid(ts, derivatives=True)
        assert values == [route.tau(t, force=True) for t in ts]
        assert thetas == [route.theta_log_tau(t) if t in (0.01, 0.3, 0.45) else None for t in ts]

    @pytest.mark.parametrize("method", METHODS)
    def test_grid_names_the_first_failing_t(self, method):
        # as the calls at one t after another: the first t that fails, and its
        # first failure, on a grid longer than one stacked pass
        ts = [0.1] * 70 + [1e50, 1e60]
        with pytest.raises(BesselTauError, match=r"tau overflows at t = \(1e\+50\+0j\)"):
            TauRoute(P_GENERIC, method, trunc=TRUNC).grid(ts, derivatives=True)

    def test_values_do_not_share_provenance(self):
        route = TauRoute(P_GENERIC, "maya", trunc=TRUNC)
        tv = route.tau(0.05)
        tv.truncation["weight_cutoff"] = 99
        assert route.tau(0.05).truncation["weight_cutoff"] == 6


class TestZeta:
    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            TauRoute(P_GENERIC, "maya", trunc=TRUNC).theta_log_tau(-0.1)

    @pytest.mark.parametrize(
        "t", [0.05 + 0.1j, np.complex128(0.05 + 0.1j)], ids=["complex", "complex128"]
    )
    def test_rejects_complex_t(self, t):
        # a complex128 would otherwise be cut to its real part
        with pytest.raises(ValueError, match="real t > 0"):
            TauRoute(P_GENERIC, "maya", trunc=TRUNC).theta_log_tau(t)

    def test_elementary_solution(self):
        t = 0.05
        expected = 1 / 16 + 2 * math.sqrt(t)
        route = TauRoute(P_ELEM_PLUS, "nekrasov", trunc=TRUNC_FINE)
        assert route.theta_log_tau(t)[0] == pytest.approx(expected, rel=1e-12)

    def test_small_t_limit(self):
        # zeta -> nu^2, with the correction decaying like t^{1 - 2 nu}
        route = TauRoute(P_GENERIC, "maya", trunc=TRUNC)
        d4 = abs(route.theta_log_tau(1e-4)[0] - P_GENERIC.nu**2)
        d6 = abs(route.theta_log_tau(1e-6)[0] - P_GENERIC.nu**2)
        assert d6 < d4 < 0.05
        assert d6 / d4 == pytest.approx(1e-2 ** (1 - 2 * 0.37), rel=0.05)

    def test_stencil_matches_analytic(self):
        t = 0.05
        analytic = TauRoute(P_GENERIC, "maya", trunc=SeriesTruncation(9, 3)).theta_log_tau(t)[0]
        stencil = stencil_theta(t, P_GENERIC, h=1e-3)[0]
        assert stencil == pytest.approx(analytic, abs=1e-10)

    def test_stencil_refinement_order(self):
        # the oracle converges to the exact Fredholm path at (at least)
        # its nominal O(h^4), at every order
        t = 0.1
        exact = exact_theta(t, P_GENERIC, "fredholm", n_modes=12)
        stencils = [stencil_theta(t, P_GENERIC, h) for h in (1.6e-2, 8e-3, 4e-3)]
        for k in range(4):
            err = [abs(st[k] - exact[k]) for st in stencils]
            assert err[0] / err[1] > 12, f"order {k + 1}"
            assert err[1] / err[2] > 12, f"order {k + 1}"

    @pytest.mark.parametrize("t", [0.02, 0.05, 0.1])
    def test_fredholm_matches_series(self, t):
        fred = TauRoute(P_GENERIC, "fredholm", n_modes=12).zeta_derivatives(t)
        maya = TauRoute(P_GENERIC, "maya", trunc=SeriesTruncation(9, 3)).zeta_derivatives(t)
        for k, (f, m, tol) in enumerate(zip(fred, maya, (1e-13, 1e-12, 1e-10, 1e-8))):
            assert abs(f - m) < tol, f"zeta derivative {k}"

    def test_derivative_consistency(self):
        # analytic zeta' against a numerical derivative of analytic zeta
        t, h = 0.05, 1e-4
        route = TauRoute(P_GENERIC, "maya", trunc=SeriesTruncation(9, 3))
        _, zp, zpp, zppp = route.zeta_derivatives(t)
        fd = (
            route.theta_log_tau(t - 2 * h)[0]
            - 8 * route.theta_log_tau(t - h)[0]
            + 8 * route.theta_log_tau(t + h)[0]
            - route.theta_log_tau(t + 2 * h)[0]
        ) / (12 * h)
        assert fd == pytest.approx(zp, rel=1e-10)
        assert zppp is not None


class TestFredholmDerivatives:
    @pytest.mark.parametrize(
        "eta, sign, tol_tau, tol_theta",
        [(0.0, -1, 5e-7, (3e-7, 4e-6, 1.2e-4, 2.5e-4)), (0.25, 1, 1e-10, (1e-8,) * 4)],
        ids=["decaying", "growing"],
    )
    def test_closed_form_at_quarter(self, eta, sign, tol_tau, tol_theta):
        # nu = 1/4: tau = exp(4 r) with r = -sqrt t at eta = 0 and +sqrt t at
        # eta = 1/4, so theta^k log tau_full = 1/16 + 2 r, r, r/2, r/4.  The
        # bounds hold at every t; the worst errors are at t = 20, where
        # I - A D has condition number about 2e9 at eta = 0
        route = TauRoute(MonodromyParams.from_nu(0.25, eta), "fredholm", n_modes=24)
        for t in (0.5, 1, 3.16, 5, 10, 20):
            r = sign * math.sqrt(t)
            assert abs(route.tau(t, force=True).tau / math.exp(4 * r) - 1) <= tol_tau, t
            exact = (1 / 16 + 2 * r, r, r / 2, r / 4)
            for k, (got, want, tol) in enumerate(zip(route.theta_log_tau(t), exact, tol_theta)):
                assert abs(got - want) <= tol * abs(want), (t, k + 1)

    @pytest.mark.parametrize("n_modes", [12, 24])
    @pytest.mark.parametrize("nu", [0.37 + 0.03j, 0.2 + 0.1j, 0.11 - 0.09j])
    def test_rank_one_moments_match_the_direct_formula(self, nu, n_modes):
        # the 4 x 4 moments against the n x n B_k = -M^{-1} A (E^k * D)
        params = MonodromyParams.from_nu(nu, 0.11)
        route = TauRoute(params, "fredholm", n_modes)
        exps = mode_exponents(params.nu, n_modes)
        a = mode_matrix_a(params, n_modes)
        for t in np.geomspace(0.01, 20, 12):
            direct = _theta_cumulants(*fredholm_moments(a, mode_matrix_d(params, t, n_modes), exps))
            got = route.theta_log_tau(t)
            for k, (g, d) in enumerate(zip((got[0] - params.nu**2,) + got[1:], direct)):
                assert abs(g - d) <= 1e-9 * max(1, abs(d)), (t, k + 1)

    @pytest.mark.parametrize("nu", [0.37 + 0.03j, 0.25, 0.11 - 0.09j])
    def test_theta_d_is_the_route_rank_one(self, nu):
        # E * D(1) = u1 v1^T with E = e + f^T: the route's factors of theta D
        params = MonodromyParams.from_nu(nu, 0.11)
        det = TauRoute(params, "fredholm", n_modes=12)._structure
        exps = mode_exponents(params.nu, 12)
        theta_d = exps * mode_matrix_d(params, 1.0, 12)
        rank_one = np.outer(det.u1, det.v1)
        assert np.max(np.abs(rank_one - theta_d)) <= 1e-14 * np.max(np.abs(theta_d))
        np.testing.assert_allclose(det.e[:, None] + det.f[None, :], exps, rtol=1e-15, atol=0)


class TestResiduals:
    def test_sigma_form_elementary(self):
        assert TauRoute(P_ELEM_PLUS, "nekrasov", trunc=TRUNC_FINE).ode_residual(0.05) < 1e-10

    def test_q_elementary(self):
        t = 0.05
        q, res = TauRoute(P_ELEM_PLUS, "nekrasov", trunc=TRUNC_FINE).painleve_q(t)
        assert q == pytest.approx(-math.sqrt(t), rel=1e-10)
        assert res < 1e-9

    def test_q_generic(self):
        q, res = TauRoute(P_GENERIC, "maya", trunc=SeriesTruncation(8, 3)).painleve_q(0.05)
        assert res < 1e-8

    def test_q_fredholm_stencil(self):
        t = 0.05
        q_series, _ = TauRoute(P_GENERIC, "maya", trunc=SeriesTruncation(8, 3)).painleve_q(t)
        q_fred, res = TauRoute(P_GENERIC, "fredholm", n_modes=12).painleve_q(t)
        assert q_fred == pytest.approx(q_series, abs=1e-9)
        assert q_fred == pytest.approx(-stencil_theta(t, P_GENERIC, h=1e-3)[1], abs=1e-9)
        assert res < 1e-4

    @pytest.mark.parametrize("t", [0.02, 0.05, 0.1])
    def test_sigma_form_fredholm_exact(self, t):
        assert TauRoute(P_GENERIC, "fredholm", n_modes=12).ode_residual(t) < 1e-12


class TestSineGordon:
    def test_elementary_field_vanishes(self):
        u = TauRoute(P_ELEM_PLUS, "nekrasov", trunc=TRUNC_FINE).sine_gordon_map(1.2)
        assert abs(u) < 1e-12

    def test_requires_positive_radius(self):
        with pytest.raises(ValueError):
            TauRoute(P_GENERIC, "maya").sine_gordon_map(-1.0)

    @pytest.mark.parametrize(
        "r", [1.2 + 0.1j, np.complex128(1.2 + 0.1j)], ids=["complex", "complex128"]
    )
    def test_rejects_complex_radius(self, r):
        with pytest.raises(ValueError, match="real r > 0"):
            TauRoute(P_GENERIC, "maya", trunc=TRUNC).sine_gordon_map(r)

    def test_real_field_for_unimodular_ratio(self):
        # elementary eta = 0 solution: q real negative, modulus matched
        p = MonodromyParams.from_nu(0.25, 0.0)
        u = TauRoute(p, "nekrasov", trunc=TRUNC_FINE).sine_gordon_map(0.9)
        assert abs(u.imag / max(abs(u), 1e-3)) < 1e-10

    def test_field_equation_residual(self):
        assert TauRoute(P_GENERIC, "maya", trunc=TRUNC_FINE).sine_gordon_residual(1.2) < 1e-4

    def test_field_equation_residual_is_exact(self):
        # t = 6^4 / 4096 = 0.32: the converged determinant satisfies the
        # equation to rounding; a one-box series does not, so the check can fail
        assert TauRoute(P_GENERIC, "fredholm").sine_gordon_residual(6.0) < 1e-12
        coarse = TauRoute(P_GENERIC, "maya", trunc=SeriesTruncation(1, 1))
        assert coarse.sine_gordon_residual(6.0) > 1e-3

    @pytest.mark.parametrize(
        "r", [1.2 + 0.5j, np.complex128(1.2 + 0.5j)], ids=["complex", "complex128"]
    )
    def test_residual_rejects_complex_radius(self, r):
        with pytest.raises(ValueError, match="real r > 0"):
            TauRoute(P_GENERIC, "maya", trunc=TRUNC).sine_gordon_residual(r)

    def test_fredholm_field_matches_series(self):
        u_fred = TauRoute(P_GENERIC, "fredholm").sine_gordon_map(1.2)
        u_maya = TauRoute(P_GENERIC, "maya", trunc=TRUNC_FINE).sine_gordon_map(1.2)
        assert u_fred == pytest.approx(u_maya, abs=1e-10)


class TestCrossValidation:
    def test_report_contents(self):
        rows = cross_validate(
            0.05, P_GENERIC, n_modes=10, trunc=SeriesTruncation(5, 2), tolerance=1e-7
        )
        assert [name for name, _, _ in rows] == [
            "rank_one_a",
            "rank_one_d",
            "quadrature_modes_a",
            "quadrature_modes_d",
            "maya_vs_box_weights",
            "cauchy_vs_inst_weights",
            "three_route_agreement",
            "sigma_form_ode",
            "quasi_periodicity",
            "eta_half_periodicity",
            "maya_young_roundtrip_failures",
        ]
        value = {name: v for name, v, _ in rows}
        tol = {name: t for name, _, t in rows}
        assert tol["three_route_agreement"] == 1e-7
        assert value["three_route_agreement"] < 1e-8
        assert value["rank_one_a"] < 1e-12
        assert value["cauchy_vs_inst_weights"] < 1e-12
        assert value["quasi_periodicity"] < 1e-11
        assert value["quadrature_modes_a"] < 1e-12

    @pytest.mark.parametrize(
        "t",
        [0.0, -0.05, 0.05 + 0.1j, np.complex128(0.05 + 0.1j)],
        ids=["zero", "negative", "complex", "complex128"],
    )
    def test_rejects_nonpositive_or_complex_t(self, t):
        with pytest.raises(ValueError, match="real t > 0"):
            cross_validate(t, P_GENERIC)
