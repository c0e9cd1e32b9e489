"""Unit tests for Young/Maya combinatorics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besseltau.partitions import (
    EMPTY,
    MayaDiagram,
    YoungDiagram,
    hook,
    maya_from_young,
    partitions_of,
    young_from_maya,
)


def arm(y, i, j):
    """Extended arm length Y_i - j, valid for boxes outside Y too."""
    return y.row(i) - j


def leg(y, i, j):
    """Extended leg length Y'_j - i."""
    return y.conjugate().row(j) - i


@st.composite
def young_diagrams(draw, max_weight=20):
    rows = []
    remaining = draw(st.integers(min_value=0, max_value=max_weight))
    cap = remaining
    while remaining > 0:
        r = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        rows.append(r)
        cap = r
        remaining -= r
    return YoungDiagram(tuple(rows))


class TestYoungDiagram:
    def test_validation(self):
        with pytest.raises(ValueError):
            YoungDiagram((1, 2))
        with pytest.raises(ValueError):
            YoungDiagram((2, 0))

    def test_weight_and_padding(self):
        y = YoungDiagram((3, 1))
        assert y.weight == 4
        assert y.row(1) == 3 and y.row(2) == 1 and y.row(5) == 0

    def test_conjugate(self):
        assert YoungDiagram((3, 1)).conjugate().rows == (2, 1, 1)
        assert EMPTY.conjugate().rows == ()

    @given(young_diagrams())
    @settings(max_examples=60)
    def test_conjugate_involution(self, y):
        assert y.conjugate().conjugate().rows == y.rows

    def test_hooks(self):
        y = YoungDiagram((3, 1))
        assert hook(y, 1, 1) == 4
        assert hook(y, 1, 3) == 1
        with pytest.raises(ValueError):
            hook(y, 2, 2)

    def test_extended_arm_leg(self):
        y = YoungDiagram((3, 1))
        assert arm(y, 1, 2) == 1
        assert arm(y, 3, 1) == -1  # below the diagram
        assert leg(y, 1, 1) == 1
        assert leg(y, 1, 4) == -1  # right of the diagram


class TestMayaDiagram:
    def test_validation(self):
        with pytest.raises(ValueError):
            MayaDiagram(frozenset({2}), frozenset())  # even = not a half-integer
        with pytest.raises(ValueError):
            MayaDiagram(frozenset({-1}), frozenset())  # particle must be positive
        with pytest.raises(ValueError):
            MayaDiagram(frozenset(), frozenset({3}))  # hole must be negative
        # a list is coerced with int first, then checked the same way
        with pytest.raises(ValueError, match="particles must be"):
            MayaDiagram([2], [])
        with pytest.raises(ValueError, match="holes must be"):
            MayaDiagram([], [1])

    @pytest.mark.parametrize(
        "particles, holes, expected",
        [
            ([1, 3], {-1}, (frozenset({1, 3}), frozenset({-1}))),
            ((np.int64(5),), (), (frozenset({5}), frozenset())),
        ],
    )
    def test_coercion(self, particles, holes, expected):
        # anything but an int frozenset is coerced with int
        m = MayaDiagram(particles, holes)
        assert type(m.particles) is frozenset and type(m.holes) is frozenset
        assert all(type(x) is int for x in m.particles | m.holes)
        assert m == MayaDiagram(*expected)

    def test_worked_example_charges(self):
        # m+ = {5/2; holes at -3/2, -11/2}, m- = {9/2, 5/2; hole at -7/2}
        m_plus = MayaDiagram(frozenset({5}), frozenset({-3, -11}))
        m_minus = MayaDiagram(frozenset({9, 5}), frozenset({-7}))
        assert m_plus.charge == -1
        assert m_minus.charge == 1

    def test_empty_charge(self):
        assert MayaDiagram(frozenset(), frozenset()).charge == 0


class TestBijection:
    def test_empty(self):
        y, q = young_from_maya(MayaDiagram(frozenset(), frozenset()))
        assert y.rows == () and q == 0
        m = maya_from_young(EMPTY, 0)
        assert m.particles == frozenset() and m.holes == frozenset()

    def test_running_example_weight(self):
        # sum rule: sum(holes) + sum(particles) = Q^2/2 + |Y|
        m_plus = MayaDiagram(frozenset({5}), frozenset({-3, -11}))
        y, q = young_from_maya(m_plus)
        assert q == -1
        assert y.weight == 9
        doubled_sum = sum(m_plus.particles) - sum(m_plus.holes)
        assert doubled_sum / 2 == q**2 / 2 + y.weight

    @given(young_diagrams(), st.integers(min_value=-5, max_value=5))
    @settings(max_examples=100)
    def test_round_trip_from_young(self, y, q):
        y2, q2 = young_from_maya(maya_from_young(y, q))
        assert y2.rows == y.rows and q2 == q

    @given(
        st.frozensets(
            st.integers(min_value=0, max_value=12).map(lambda k: 2 * k + 1), max_size=8
        ),
        st.frozensets(
            st.integers(min_value=0, max_value=12).map(lambda k: -2 * k - 1), max_size=8
        ),
    )
    @settings(max_examples=100)
    def test_round_trip_from_maya(self, particles, holes):
        m = MayaDiagram(particles, holes)
        y, q = young_from_maya(m)
        m2 = maya_from_young(y, q)
        assert m2.particles == m.particles and m2.holes == m.holes

    @given(young_diagrams(), st.integers(min_value=-5, max_value=5))
    @settings(max_examples=100)
    def test_sum_rule(self, y, q):
        m = maya_from_young(y, q)
        doubled_sum = sum(m.particles) - sum(m.holes)
        assert doubled_sum / 2 == q**2 / 2 + y.weight


class TestEnumeration:
    def test_partition_counts(self):
        # p(0..8) = 1, 1, 2, 3, 5, 7, 11, 15, 22
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        assert [len(partitions_of(n)) for n in range(9)] == expected

    def test_partitions_are_sorted_tuples(self):
        for rows in partitions_of(5):
            assert rows == tuple(sorted(rows, reverse=True))
        assert partitions_of(3) == tuple(sorted(partitions_of(3)))
