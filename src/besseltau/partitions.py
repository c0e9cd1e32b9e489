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
    "arm",
    "leg",
    "hook",
    "partitions_of",
]


@dataclass(frozen=True)
class YoungDiagram:
    """A partition as a weakly decreasing tuple of positive integers."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        if any(r < 1 for r in rows):
            raise ValueError("Young diagram rows must be positive")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError("Young diagram rows must be weakly decreasing")
        object.__setattr__(self, "rows", rows)

    @property
    def weight(self) -> int:
        return sum(self.rows)

    def conjugate(self) -> "YoungDiagram":
        if not self.rows:
            return YoungDiagram(())
        cols = tuple(
            sum(1 for r in self.rows if r >= j) for j in range(1, self.rows[0] + 1)
        )
        return YoungDiagram(cols)

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
        particles = frozenset(int(p) for p in self.particles)
        holes = frozenset(int(h) for h in self.holes)
        if any(p <= 0 or p % 2 == 0 for p in particles):
            raise ValueError("particles must be doubled positive half-integers (odd > 0)")
        if any(h >= 0 or h % 2 == 0 for h in holes):
            raise ValueError("holes must be doubled negative half-integers (odd < 0)")
        object.__setattr__(self, "particles", particles)
        object.__setattr__(self, "holes", holes)

    @property
    def charge(self) -> int:
        return len(self.particles) - len(self.holes)


def maya_from_young(y: YoungDiagram, q: int) -> MayaDiagram:
    """Charged partition -> Maya diagram via the profile walk."""
    rows = y.rows
    depth = len(rows) + abs(q) + 2
    # doubled occupied positions 2*(rows[i] - i + 1/2 + q), i = 1..depth
    filled = set()
    for i in range(1, depth + 1):
        yi = rows[i - 1] if i <= len(rows) else 0
        filled.add(2 * yi - 2 * i + 1 + 2 * q)
    particles = {x for x in filled if x > 0}
    floor = min(filled)
    holes = {x for x in range(-1, floor, -2) if x not in filled}
    return MayaDiagram(frozenset(particles), frozenset(holes))


def young_from_maya(m: MayaDiagram):
    """Maya diagram -> (YoungDiagram, charge); inverse of maya_from_young."""
    q = m.charge
    floor = min(m.holes, default=-1) - 2 * len(m.particles) - 2
    filled = sorted(
        (set(range(-1, floor, -2)) - set(m.holes)) | set(m.particles), reverse=True
    )
    rows = []
    for i, x in enumerate(filled, start=1):
        # invert x = 2*Y_i - 2*i + 1 + 2*q
        yi = (x - 1 - 2 * q) // 2 + i
        if yi <= 0:
            break
        rows.append(yi)
    return YoungDiagram(tuple(rows)), q


def arm(y: YoungDiagram, i: int, j: int) -> int:
    """Extended arm length Y_i - j (valid for boxes outside Y too)."""
    return y.row(i) - j


def leg(y: YoungDiagram, i: int, j: int) -> int:
    """Extended leg length Y'_j - i."""
    return y.conjugate().row(j) - i


def hook(y: YoungDiagram, i: int, j: int) -> int:
    """Hook length a + l + 1 of a box inside Y."""
    if not (1 <= i <= len(y.rows) and 1 <= j <= y.rows[i - 1]):
        raise ValueError(f"box ({i}, {j}) lies outside the diagram {y.rows}")
    return arm(y, i, j) + leg(y, i, j) + 1


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
