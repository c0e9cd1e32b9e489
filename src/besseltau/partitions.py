"""Young diagrams, Maya diagrams, charges, and the bijection between them.

Half-integer positions are stored exactly as doubled integers (so the
particle at 5/2 is the odd integer 5); no floating point enters the
combinatorics.  A Maya diagram is the finite deviation from the Dirac-sea
filling of the negative half-integers: ``particles`` are the occupied
positive positions, ``holes`` the vacated negative positions.

The profile walk connecting Maya diagrams with charged partitions is the
standard one: with charge Q, the occupied positions are
{ rows[i] - i + 1/2 + Q : i >= 1 } (rows padded by zeros).
"""

import functools
from dataclasses import dataclass

__all__ = [
    "YoungDiagram",
    "MayaDiagram",
    "young_from_maya",
    "maya_from_young",
    "hook",
    "partitions_of",
]


@dataclass(frozen=True)
class YoungDiagram:
    """A partition as a weakly decreasing tuple of positive integers."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(map(int, self.rows))
        if rows and min(rows) < 1:
            raise ValueError("Young diagram rows must be positive")
        if list(rows) != sorted(rows, reverse=True):
            raise ValueError("Young diagram rows must be weakly decreasing")
        object.__setattr__(self, "rows", rows)

    @property
    def weight(self) -> int:
        return sum(self.rows)

    def conjugate(self) -> "YoungDiagram":
        return YoungDiagram(_conjugate(self.rows))

    def row(self, i: int) -> int:
        """Row length Y_i with the zero-padding extension (i >= 1)."""
        return self.rows[i - 1] if 1 <= i <= len(self.rows) else 0

    def boxes(self):
        for i, r in enumerate(self.rows, start=1):
            for j in range(1, r + 1):
                yield (i, j)

    def __len__(self):
        return len(self.rows)


EMPTY = YoungDiagram(())


@dataclass(frozen=True)
class MayaDiagram:
    """Particles at positive half-integers, holes at negative ones.

    Both sets are stored as frozensets of doubled (odd) integers.
    """

    particles: frozenset
    holes: frozenset

    def __post_init__(self):
        # an int frozenset is kept as it is; anything else is coerced with int first
        particles, holes = self.particles, self.holes
        if type(particles) is not frozenset or [
            p for p in particles if type(p) is not int or p < 1 or not p & 1
        ]:
            particles = frozenset(map(int, particles))
            if [p for p in particles if p < 1 or not p & 1]:
                raise ValueError("particles must be doubled positive half-integers (odd > 0)")
            object.__setattr__(self, "particles", particles)
        if type(holes) is not frozenset or [
            h for h in holes if type(h) is not int or h > -1 or not h & 1
        ]:
            holes = frozenset(map(int, holes))
            if [h for h in holes if h > -1 or not h & 1]:
                raise ValueError("holes must be doubled negative half-integers (odd < 0)")
            object.__setattr__(self, "holes", holes)

    @property
    def charge(self) -> int:
        return len(self.particles) - len(self.holes)


def _conjugate(rows: tuple) -> tuple:
    """Column lengths of the partition with the given rows."""
    return tuple(sum(1 for r in rows if r >= j) for j in range(1, rows[0] + 1)) if rows else ()


def _profile(rows: tuple, q: int):
    """Charged partition -> (particles, holes), its sorted doubled Maya positions.

    Row i >= 1 occupies the position 2 (rows[i] - i + 1/2 + Q), zero rows
    included, so past the last row every position is occupied; the holes
    are the negative positions above it that no row occupies.
    """
    occupied = [2 * (r - i + q) + 1 for i, r in enumerate(rows, start=1)]
    first_empty = 2 * (q - len(rows)) - 1
    particles = [*range(1, first_empty + 1, 2), *[x for x in reversed(occupied) if x > 0]]
    taken = set(occupied)
    holes = [h for h in range(first_empty + 2, 0, 2) if h not in taken]
    return tuple(particles), tuple(holes)


def maya_from_young(y: YoungDiagram, q: int) -> MayaDiagram:
    """Charged partition -> Maya diagram via the profile walk."""
    return MayaDiagram(*map(frozenset, _profile(y.rows, q)))


def young_from_maya(m: MayaDiagram):
    """Maya diagram -> (YoungDiagram, charge); inverse of maya_from_young."""
    q, holes = m.charge, m.holes
    # the particles, decreasing, sit at x = 2*Y_i - 2*i + 1 + 2*q; below them each
    # occupied negative position above the lowest hole has a box per hole under it
    rows = [y for i, x in enumerate(sorted(m.particles)[::-1], 1 - q) if (y := x // 2 + i) > 0]
    below = len(holes)
    for x in range(-1, min(holes, default=-1), -2):
        if x in holes:
            below -= 1
        else:
            rows.append(below)
    return YoungDiagram(tuple(rows)), q


def hook(y: YoungDiagram, i: int, j: int) -> int:
    """Hook length a + l + 1 of a box inside Y: arm Y_i - j, leg Y'_j - i."""
    if not (1 <= i <= len(y.rows) and 1 <= j <= y.rows[i - 1]):
        raise ValueError(f"box ({i}, {j}) lies outside the diagram {y.rows}")
    return (y.row(i) - j) + (y.conjugate().row(j) - i) + 1


@functools.lru_cache(maxsize=None)
def partitions_of(n: int):
    """All partitions of n as weakly decreasing tuples, lexicographic order."""

    def gen(total, largest):
        if total == 0:
            yield ()
            return
        for first in range(min(total, largest), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return tuple(sorted(gen(n, n)))
