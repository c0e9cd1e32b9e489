"""Unit tests for the combinatorial series layer."""

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy.special import loggamma

from besseltau import nekrasov, partitions
from besseltau.errors import BesselTauError, DegenerateParameterError, PoleError
from besseltau.monodromy import MonodromyParams
from besseltau.nekrasov import (
    SeriesTruncation,
    _diagram_pairs,
    _InstantonWeights,
    _linear_product,
    _maya_positions,
    _MayaWeights,
    c_ratio,
    check_lemma_identities,
    quasi_periodicity_residual,
    tau_series_terms,
    z_bif,
    z_dual_terms,
    z_inst_coefficients,
)
from besseltau.partitions import EMPTY, YoungDiagram, _profile, hook, partitions_of
from besseltau.special import upsilon
from besseltau.tau import TauRoute
from oracles import pairs, z_bif_tilde

# weight-2 instanton coefficients frozen from a 40-digit independent run
W2_REAL = 18.69462911040480561  # nu = 0.37
W2_COMPLEX = 7.61 - 2.48j  # nu = 0.2 + 0.1i (exactly rational)

P_GENERIC = MonodromyParams.from_nu(0.37, 0.11)


def counted(calls, name, fn):
    """fn, appending name to calls at every call."""
    return lambda *args: calls.append(name) or fn(*args)


def arm(y, i, j):
    """Extended arm length Y_i - j, for the box-by-box z_bif oracle."""
    return y.row(i) - j


def leg(y, i, j):
    """Extended leg length Y'_j - i."""
    return y.conjugate().row(j) - i


def maya_factor_lists(rows_plus, rows_minus, q):
    """The factors a + b nu of Xi Delta^2 for one pair at charge Q, as
    (numerator, denominator) lists of (a, b), pair by pair of positions.

    Y+ sits at charge Q and Y- at -Q; their particles p > 0 and holes h < 0
    carry the color s = +-1 and the momentum x = p - s nu.  The numerator
    holds the Cauchy differences among the particles and among the holes;
    the denominator those of particles against holes, with m! (1 - 2 s nu)_m
    per particle (m = p - 1/2) and m! (2 s nu)_{m+1} per hole (m = |h| - 1/2).
    Positions are doubled, so every difference (x - x')/2 is an integer.
    """
    (pp, hp), (pm, hm) = _profile(rows_plus, q), _profile(rows_minus, -q)
    ps, pc = pp + pm, (1,) * len(pp) + (-1,) * len(pm)
    hs, hc = hp + hm, (1,) * len(hp) + (-1,) * len(hm)
    num = []
    for xs, cs in ((ps, pc), (hs, hc)):
        num += [
            ((x - y) // 2, t - s)
            for i, (x, s) in enumerate(zip(xs, cs))
            for y, t in zip(xs[i + 1 :], cs[i + 1 :])
        ]
    den = [((p - h) // 2, t - s) for p, s in zip(ps, pc) for h, t in zip(hs, hc)]
    for p, s in zip(ps, pc):
        m = (p - 1) // 2
        den += [(k, 0) for k in range(1, m + 1)] + [(k, -2 * s) for k in range(1, m + 1)]
    for h, s in zip(hs, hc):
        m = (-h - 1) // 2
        den += [(k, 0) for k in range(1, m + 1)] + [(k, 2 * s) for k in range(m + 1)]
    return num, den


def maya_weight_reference(nu, rows_plus, rows_minus, q):
    """Xi Delta^2 = (-1)^Q (Gamma(1 + 2 nu) / Gamma(1 - 2 nu))^{2Q} (num / den)^2,
    one pair at a time, from the factor lists."""
    num, den = (
        math.prod(a + b * nu for a, b in factors)
        for factors in maya_factor_lists(rows_plus, rows_minus, q)
    )
    gamma = cmath.exp(2 * q * (loggamma(1 + 2 * nu) - loggamma(1 - 2 * nu)))
    return (-1) ** q * gamma * (num / den) ** 2


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
    @pytest.mark.parametrize("nu", [0.37, 0.2 + 0.1j, 0.11 - 0.09j])
    @pytest.mark.parametrize("shift", [0, 2, -1, -3])
    def test_instanton_weights_match_z_bif(self, nu, shift):
        # 1 / prod_{s, s'} z_bif(nu (s - s') | Y^{s'}, Y^s) from the scalar z_bif
        nu = nu + shift
        inst = _InstantonWeights(5)
        for w in range(6):
            weights = inst.weights(nu)[w]
            assert len(weights) == sum(1 for _ in pairs(w))
            for (rows_plus, rows_minus), weight in zip(pairs(w), weights):
                y = {1: YoungDiagram(rows_plus), -1: YoungDiagram(rows_minus)}
                den = math.prod(
                    z_bif(nu * (s - sp), y[sp], y[s]) for s in (1, -1) for sp in (1, -1)
                )
                assert weight == pytest.approx(1 / den, rel=1e-14, abs=0)

    def test_hook_squares_match_hook(self):
        # each diagram's stored H(Y)^2 against partitions.hook, box by box
        diagrams = _diagram_pairs(8)[0]
        hook_sq = _InstantonWeights(8)._hook_sq
        assert len(hook_sq) == len(diagrams)
        for rows, h_sq in zip(diagrams, hook_sq):
            y = YoungDiagram(rows)
            assert h_sq == math.prod(hook(y, i, j) for i, j in y.boxes()) ** 2, rows

    def test_weights_on_the_lattice_raise(self):
        # at nu = 1/2 (2 nu in Z, which MonodromyParams rejects) a cross factor
        # vanishes from weight 2 on: an error before any division or warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(np.all(np.isfinite(x)) for x in _InstantonWeights(1).weights(0.5))
            for w in range(2, 7):
                with pytest.raises(DegenerateParameterError, match="vanishing series factor"):
                    _InstantonWeights(w).weights(0.5)
            with pytest.raises(DegenerateParameterError):
                _MayaWeights(0.5, 6, 2)

    def test_instanton_build_conjugates_each_diagram_at_most_once(self, monkeypatch):
        # column lengths are built per diagram, not once per diagram and
        # weight table
        calls = []

        def counted(rows):
            calls.append(rows)
            return conjugate(rows)

        conjugate = partitions._conjugate
        for mod in (partitions, nekrasov):
            if hasattr(mod, "_conjugate"):
                monkeypatch.setattr(mod, "_conjugate", counted)
        z_dual_terms(P_GENERIC, SeriesTruncation(10, 3))
        assert len(calls) <= sum(len(partitions_of(k)) for k in range(11))
        # the counter counts
        calls.clear()
        YoungDiagram((2, 1)).conjugate()
        assert calls == [(2, 1)]

    def test_linear_product_is_ragged(self):
        # rows of 2, 0, 3, 0 and 1 offsets: an empty row reads 1, and each
        # product equals np.prod over the row padded with factors 1
        offsets, starts = np.array([1, -2, 4, 0, 3, -1], dtype=np.int16), np.array([0, 2, 2, 5, 5])
        x = 0.37 - 0.21j
        padded = np.ones((5, 3), dtype=complex)
        for row, (a, b) in enumerate(zip(starts, [*starts[1:], len(offsets)])):
            padded[row, : b - a] = offsets[a:b] + x
        out = _linear_product(offsets, starts, x)
        assert out[1] == out[3] == 1
        assert out.tobytes() == np.prod(padded, axis=-1).tobytes()
        assert _linear_product(offsets[:0], np.zeros(3, dtype=int), x).tolist() == [1, 1, 1]
        with pytest.raises(DegenerateParameterError, match="vanishing series factor"):
            _linear_product(offsets, starts, 2.0)

    @pytest.mark.parametrize("w_max", range(11))
    def test_diagram_pairs_match_the_walk(self, w_max):
        # the block-product index against a dict walk over the enumerated pairs
        diagrams, pair_index, splits = _diagram_pairs(w_max)
        assert diagrams == [rows for w in range(w_max + 1) for rows in partitions_of(w)]
        index = {rows: i for i, rows in enumerate(diagrams)}
        by_weight = [[(index[yp], index[ym]) for yp, ym in pairs(w)] for w in range(w_max + 1)]
        walk = np.array([pair for block in by_weight for pair in block]).T
        walk_splits = np.cumsum([len(block) for block in by_weight])[:-1]
        assert pair_index.dtype == walk.dtype and pair_index.tobytes() == walk.tobytes()
        assert splits.dtype == walk_splits.dtype and splits.tobytes() == walk_splits.tobytes()

    def test_pairs_enumerate_each_weight_once(self):
        for w in range(7):
            found = list(pairs(w))
            assert len(set(found)) == len(found)
            assert all(sum(yp) + sum(ym) == w for yp, ym in found)
            assert len(found) == sum(
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
        assert [x.tolist() for x in _MayaWeights(0.37, 0, 0).weights(0)] == [[1]]

    @pytest.mark.parametrize("nu", [0.313, 0.2 + 0.15j, 0.11 - 0.09j])
    def test_weights_match_factor_lists(self, nu):
        # every pair weight, in pair order, against the per-pair factor lists
        maya = _MayaWeights(nu, 7, 3)
        for w in range(8):
            for q in range(-3, 4):
                weights = maya.weights(q)[w]
                assert len(weights) == sum(1 for _ in pairs(w))
                for (rows_plus, rows_minus), weight in zip(pairs(w), weights):
                    ref = maya_weight_reference(nu, rows_plus, rows_minus, q)
                    assert weight == pytest.approx(ref, rel=1e-13, abs=0), (w, q, rows_plus)

    def test_deep_coefficients_match_instanton_route(self):
        # the Maya coefficient of (Q, w) is the dual sum's (n, k) = (-Q, w)
        trunc = SeriesTruncation(10, 3)
        dual = {(-n, k): (e, c) for n, k, e, c in z_dual_terms(P_GENERIC, trunc)}
        terms = tau_series_terms(P_GENERIC, trunc)
        assert len(terms) == len(dual)
        for q, w, e, c in terms:
            e_dual, c_dual = dual[q, w]
            assert e == pytest.approx(e_dual, rel=1e-15)
            assert c == pytest.approx(c_dual, rel=1e-12, abs=0), (q, w)

    @pytest.mark.parametrize("w_max, q_max", [(10, 3), (4, 0)])
    def test_series_build_walks_no_profile(self, monkeypatch, w_max, q_max):
        # the positions come from one vectorized table per build, with no
        # profile walk, and a second build makes them anew: nothing is cached
        calls = []
        for mod in (partitions, nekrasov):
            if hasattr(mod, "_profile"):
                monkeypatch.setattr(mod, "_profile", counted(calls, "_profile", _profile))
        positions = counted(calls, "_maya_positions", _maya_positions)
        monkeypatch.setattr(nekrasov, "_maya_positions", positions)
        trunc = SeriesTruncation(w_max, q_max)
        tau_series_terms(P_GENERIC, trunc)
        assert calls == ["_maya_positions"]
        tau_series_terms(MonodromyParams.from_nu(0.21 + 0.03j, -0.07), trunc)
        assert calls == ["_maya_positions"] * 2
        # the counter counts
        partitions._profile((1,), 0)
        assert calls[-1] == "_profile"

    def test_weights_are_built_per_charge(self, monkeypatch):
        # per charge over the pairs of every weight: the Maya route evaluates
        # its two cross-factor lists and one Gamma quotient (the build adds one
        # self-factor broadcast), the instanton route one cross-factor list;
        # the lemma check takes the box side's upsilon once per shift and the
        # closed form's two once per charge
        calls = []
        for name in ("_linear_product", "_cauchy", "_gamma_quotient", "upsilon"):
            monkeypatch.setattr(nekrasov, name, counted(calls, name, getattr(nekrasov, name)))
        q_max = 3
        tau_series_terms(P_GENERIC, SeriesTruncation(10, q_max))
        assert calls.count("_linear_product") == 2 * (2 * q_max + 1)
        assert calls.count("_cauchy") == 2 * q_max + 1
        assert 0 < calls.count("_gamma_quotient") <= 2 * q_max + 1
        calls.clear()
        z_dual_terms(P_GENERIC, SeriesTruncation(10, q_max))
        assert calls.count("_linear_product") == 2 * q_max + 1
        calls.clear()
        q_max = 2
        check_lemma_identities(0.37, 3, q_max)
        assert 0 < calls.count("upsilon") <= (4 * q_max + 1) + 2 * (2 * q_max + 1)

    def test_positions_match_profile_walk(self):
        # the vectorized table against the scalar walk, element by element and
        # in order (particles ascending, then holes ascending), zero-padded
        diagrams = _diagram_pairs(6)[0]
        positions = _maya_positions(diagrams, 3)
        assert sorted(positions) == list(range(-3, 4))
        for c, table in positions.items():
            assert table.dtype == np.int16 and len(table) == len(diagrams)
            for rows, x in zip(diagrams, table.tolist()):
                particles, holes = _profile(rows, c)
                walk = [*particles, *holes]
                assert x == walk + [0] * (len(x) - len(walk)), (rows, c)
            assert table.shape[1] == max(len(sum(_profile(rows, c), ())) for rows in diagrams)

    def test_positions_check_the_int16_range(self):
        # a cutoff whose position differences leave int16 is refused before
        # any table is made, never wrapped
        assert _maya_positions([(8000,)], 0)[0].tolist() == [[15999, -1]]
        for diagrams, charge_cutoff in (([(8200,)], 0), ([()], 9000)):
            with pytest.raises(OverflowError, match="int16"):
                _maya_positions(diagrams, charge_cutoff)

    def test_huge_charge_cutoff_fails_before_positions(self, monkeypatch):
        # the Pochhammer table, sized by W + Q, overflows first
        calls = []
        monkeypatch.setattr(nekrasov, "_maya_positions", counted(calls, "_maya_positions", _maya_positions))
        with pytest.raises(BesselTauError, match="series coefficients overflow"):
            tau_series_terms(P_GENERIC, SeriesTruncation(0, 4000))
        assert calls == []

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
        maya = _MayaWeights(0.313, 3, 2)
        for w in range(4):
            for q in range(-2, 3):
                weights = maya.weights(q)[w]
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


class TestLemmaTables:
    """The two sides of the maya_vs_box row, z_bif_tilde and z_bif / upsilon, as
    tables indexed (Q+, Q-, Y+, Y-) and (d, Y+, Y-), against the scalar oracles."""

    W, Q = 3, 2

    @pytest.mark.parametrize("nu", [0.37, 0.2 + 0.1j, 0.11 - 0.09j])
    def test_maya_side_matches_z_bif_tilde(self, nu):
        table = _MayaWeights(nu, self.W, self.Q).z_bif_tilde()
        diagrams = [YoungDiagram(rows) for rows in _diagram_pairs(self.W)[0]]
        charges = range(-self.Q, self.Q + 1)
        assert table.shape == (len(charges),) * 2 + (len(diagrams),) * 2
        for a, q_plus in enumerate(charges):
            for b, q_minus in enumerate(charges):
                for i, yp in enumerate(diagrams):
                    for j, ym in enumerate(diagrams):
                        ref = z_bif_tilde(nu, yp, q_plus, ym, q_minus)
                        assert table[a, b, i, j] == pytest.approx(ref, rel=1e-13, abs=0)

    @pytest.mark.parametrize("nu", [0.37, 0.2 + 0.1j, 0.11 - 0.09j])
    def test_box_side_matches_z_bif(self, nu):
        shifts = np.arange(-2 * self.Q, 2 * self.Q + 1)
        ups = np.array([upsilon(nu, int(d)) for d in shifts])
        table = _InstantonWeights(self.W).z_bif_table(nu + shifts) / ups[:, None, None]
        diagrams = [YoungDiagram(rows) for rows in _diagram_pairs(self.W)[0]]
        assert table.shape == (len(shifts), len(diagrams), len(diagrams))
        for k, d in enumerate(shifts):
            for i, yp in enumerate(diagrams):
                for j, ym in enumerate(diagrams):
                    ref = z_bif(nu + d, yp, ym) / upsilon(nu, int(d))
                    assert table[k, i, j] == pytest.approx(ref, rel=1e-13, abs=0)

    def test_lemma_row_makes_no_diagram_objects(self, monkeypatch):
        # both sides are read off the series tables: no YoungDiagram, no scalar
        # z_bif and no profile walk
        calls = []
        post_init = YoungDiagram.__post_init__
        monkeypatch.setattr(YoungDiagram, "__post_init__", counted(calls, "YoungDiagram", post_init))
        monkeypatch.setattr(nekrasov, "z_bif", counted(calls, "z_bif", z_bif))
        for mod in (partitions, nekrasov):
            if hasattr(mod, "_profile"):
                monkeypatch.setattr(mod, "_profile", counted(calls, "_profile", _profile))
        check_lemma_identities(0.37, self.W, self.Q)
        assert calls == []
        # the counters count
        nekrasov.z_bif(0.37, YoungDiagram((1,)), EMPTY)
        partitions._profile((1,), 0)
        assert set(calls) == {"YoungDiagram", "z_bif", "_profile"}

    def test_row_can_fail(self, monkeypatch):
        # a box side off by 1% shows in the row
        monkeypatch.setattr(nekrasov, "upsilon", lambda nu, q: 1.01 * upsilon(nu, q))
        assert check_lemma_identities(0.37, self.W, self.Q)["maya_vs_box"] >= 1e-3

    def test_edge_cases(self):
        assert check_lemma_identities(0.37, 0, 0)["maya_vs_box"] == 0.0
        with pytest.raises(DegenerateParameterError):
            check_lemma_identities(0.5, self.W, self.Q)
        with pytest.raises(PoleError):
            check_lemma_identities(1, self.W, self.Q)


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
