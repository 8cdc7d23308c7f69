"""Exact coincidence solver for affine self-systems of tori.

k affine maps from an m-torus to an n-torus coincide exactly where the
stacked difference system D x = c holds modulo 1.  When the stacked matrix is
nonsingular the solution set is finite: x = adj(D) (c + z) / det D mod 1 for
z in Z^m, and closing the offset adj(D) c / det D under the columns of adj(D)
enumerates all |det D| points.  Every arithmetic step is over the integers, so
the index sum this module reports is ground truth for the cohomological
computation.

The points stay exact integer numerators over one common denominator in a
:class:`PointSet`.  Counting them builds nothing; a :class:`CoincidencePoint`
with ``Fraction`` coordinates is built only when a caller indexes or iterates
the set, and reports render coordinates straight from the numerators with
:func:`format_coordinate`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import EnumerationLimit, NonTransverse
from .lefschetz import TorusMapModel
from .matrices import IntegerMatrix, stack_rows
from .snf import smith_normal_form  # noqa: F401  perfbench/tracing.py wraps it by name

__all__ = [
    "CoincidencePoint",
    "MAX_ENUMERATED_POINTS",
    "PointSet",
    "format_coordinate",
    "solve_coincidences",
    "index_sum",
]

# Point counts equal |det| of the stacked system, which fits in 64 bits long
# before the points fit in memory; refuse hopeless enumerations up front.
# Callers with unusual needs can pass a larger max_points explicitly.
MAX_ENUMERATED_POINTS = 250_000


@dataclass(frozen=True)
class CoincidencePoint:
    """An isolated solution with its local index (the sign of the Jacobian)."""

    coordinates: tuple[Fraction, ...]
    local_index: int

    def __post_init__(self):
        if self.local_index == 0:
            raise ValueError("local index must be nonzero")
        for c in self.coordinates:
            if not 0 <= c < 1:
                raise ValueError(f"coordinate {c} is not reduced into [0, 1)")


@dataclass(frozen=True)
class PointSet(Sequence[CoincidencePoint]):
    """A coincidence set as exact numerators over one common denominator.

    Point i has coordinates ``numerators[i][j] / denominator`` and index
    ``local_index``.  ``len`` costs nothing; indexing and iteration build each
    :class:`CoincidencePoint` on demand, and slicing returns a smaller set.
    """

    denominator: int
    numerators: tuple[tuple[int, ...], ...]
    local_index: int

    def __post_init__(self):
        if self.local_index == 0:
            raise ValueError("local index must be nonzero")
        d = self.denominator
        if not all(0 <= v < d for nums in self.numerators for v in nums):
            raise ValueError(f"a numerator is not reduced into [0, {d})")

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PointSet(self.denominator, self.numerators[i], self.local_index)
        return self._point(self.numerators[i])

    def __iter__(self):
        return map(self._point, self.numerators)

    def _point(self, nums: tuple[int, ...]) -> CoincidencePoint:
        d = self.denominator
        return CoincidencePoint(tuple(Fraction(v, d) for v in nums), self.local_index)


def format_coordinate(numerator: int, denominator: int) -> str:
    """``str(Fraction(numerator, denominator))`` without building the Fraction."""
    if numerator == 0:
        return "0"
    g = gcd(numerator, denominator)
    return f"{numerator // g}/{denominator // g}"


def stacked_difference(model: TorusMapModel) -> IntegerMatrix:
    """Row-stack of A_i - A_1 for i = 2..k; square exactly when m = (k-1) n."""
    first = model.matrices[0]
    return stack_rows([a - first for a in model.matrices[1:]])


def solve_coincidences(
    model: TorusMapModel,
    max_points: int = MAX_ENUMERATED_POINTS,
) -> PointSet:
    """Enumerate the coincidence set of a transverse affine system.

    Raises NonTransverse when the stacked difference matrix is singular; the
    caller is responsible for perturbing such systems.  Points come back
    sorted lexicographically by coordinates, each carrying the common local
    index sign(det D).
    """
    model.require_top_degree()

    stacked = stacked_difference(model)
    det = stacked.det()
    if det == 0:
        raise NonTransverse(
            "stacked difference matrix has determinant 0; "
            "the coincidence set is not a finite transverse set"
        )
    if abs(det) > max_points:
        raise EnumerationLimit(
            f"coincidence set has {abs(det)} points, beyond the enumeration "
            f"budget of {max_points}"
        )
    index = 1 if det > 0 else -1

    rhs: list[Fraction] = []
    first = model.translations[0]
    for other in model.translations[1:]:
        rhs.extend(b1 - bi for b1, bi in zip(first, other))

    adj = _adjugate(stacked)
    columns = list(zip(*stacked.entries))
    for i, row in enumerate(adj):
        for j, col in enumerate(columns):
            if sum(a * b for a, b in zip(row, col)) != (det if i == j else 0):
                raise RuntimeError("internal error: adjugate certificate failed")

    # x = adj (c + z) / det mod 1 for z in Z^m.  Over the common denominator
    # L |det| this is the offset (z = 0) plus the subgroup generated by the
    # columns of adj: pure integer arithmetic, and the points stay that way.
    scale = lcm(*(r.denominator for r in rhs))
    count = abs(det)
    common = scale * count
    numer = [r.numerator * (scale // r.denominator) for r in rhs]
    offset = tuple(sum(index * a * c for a, c in zip(row, numer)) % common for row in adj)

    # Close the point set under one generator at a time: a multiple of it
    # either lands on a point already found or shifts every point so far.
    numerators = [offset]
    seen = {offset}
    for column in zip(*adj):
        gen = tuple(index * scale * a % common for a in column)
        base = list(numerators)
        shift = gen
        while len(numerators) < count and (
            tuple((a + b) % common for a, b in zip(offset, shift)) not in seen
        ):
            layer = [tuple((a + b) % common for a, b in zip(p, shift)) for p in base]
            numerators.extend(layer)
            seen.update(layer)
            shift = tuple((a + b) % common for a, b in zip(shift, gen))
    if len(numerators) != count:
        raise RuntimeError(f"internal error: {len(numerators)} points, expected {count}")

    # Sorting numerators over one denominator sorts the coordinates.
    return PointSet(common, tuple(sorted(numerators)), index)


def _adjugate(stacked: IntegerMatrix) -> list[list[int]]:
    """adj(D) by fraction-free Gauss-Jordan elimination on [D | I] (Bareiss).

    Every entry stays a minor of [D | I], so each division is exact; the
    result is plain ints, since (m-1)-minors may leave the 64-bit range.
    """
    size = stacked.rows
    rows = [list(a + b) for a, b in zip(stacked.entries, IntegerMatrix.identity(size).entries)]
    previous, sign = 1, 1
    for k in range(size):
        pivot = next(i for i in range(k, size) if rows[i][k])
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        for i, row in enumerate(rows):
            if i != k:
                rows[i] = [(top[k] * a - row[k] * b) // previous for a, b in zip(row, top)]
        previous = top[k]
    # The right block R now satisfies R D = sign * det * I.
    return [[sign * v for v in row[size:]] for row in rows]


def index_sum(points: Sequence[CoincidencePoint]) -> int:
    """Total coincidence index; equals the top-degree coincidence class."""
    return sum(p.local_index for p in points)

