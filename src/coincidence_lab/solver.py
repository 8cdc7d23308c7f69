"""Exact coincidence solver for affine self-systems of tori.

k affine maps from an m-torus to an n-torus coincide exactly where the
stacked difference system D x = c holds modulo 1.  When the stacked matrix is
nonsingular the solution set is finite: x = adj(D) (c + z) / det D mod 1 for
z in Z^m.  Over the common denominator M = L |det D| the numerators are the
offset (z = 0) plus the subgroup of (Z/M)^m that the scaled columns of adj(D)
span.  Every arithmetic step is over the integers, so the index sum this
module reports is ground truth for the cohomological computation.

A :class:`PointSet` keeps that subgroup as a triangular (Hermite) basis modulo
M (Domich, Kannan and Trotter, 1987; Cohen, Alg. 2.4.8): it counts the points
before any exists and lists them in lexicographic order by a mixed-radix walk.
A :class:`CoincidencePoint` is built only when a caller indexes or iterates
the set; reports render straight from the numerators (:func:`format_coordinate`).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm, prod

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
    """A coincidence set: ``offset`` plus the span of ``basis``, modulo ``denominator``.

    Row i is zero before its pivot, which divides ``denominator``, and takes
    coefficients below denominator / pivot, so ``len`` is a product of radices.
    :attr:`numerators` walks the points in order; indexing walks to one point.
    """

    denominator: int
    offset: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    local_index: int

    def __post_init__(self):
        if self.local_index == 0:
            raise ValueError("local index must be nonzero")
        d = self.denominator
        if not all(0 <= v < d for v in self.offset):
            raise ValueError(f"an offset numerator is not reduced into [0, {d})")
        for i, row in enumerate(self.basis):
            if any(row[:i]):
                raise ValueError(f"basis row {i} is nonzero before its pivot")
            if not (0 < row[i] and d % row[i] == 0):
                raise ValueError(f"basis pivot {row[i]} does not divide {d}")

    def __len__(self) -> int:
        return prod(self.denominator // row[i] for i, row in enumerate(self.basis))

    def __getitem__(self, i: int) -> CoincidencePoint:
        return self._point(next(islice(self.numerators, range(len(self))[i], None)))

    def __iter__(self):
        return map(self._point, self.numerators)

    @property
    def numerators(self) -> Iterator[tuple[int, ...]]:
        """Each point's numerators over ``denominator``, in lexicographic order."""
        # a pivot equal to the denominator is a zero row: a level of radix 1
        levels = [(i, row) for i, row in enumerate(self.basis) if row[i] != self.denominator]
        return self._walk(levels, self.offset) if levels else iter([self.offset])

    def _walk(self, levels, vector) -> Iterator[tuple[int, ...]]:
        # deeper rows are zero up to this column: it runs up in steps of the pivot
        (column, row), deeper, d = levels[0], levels[1:], self.denominator
        q = vector[column] // row[column]
        vector = tuple((a - q * b) % d for a, b in zip(vector, row))
        for _ in range(d // row[column]):
            if deeper:
                yield from self._walk(deeper, vector)
            else:
                yield vector
            vector = tuple((a + b) % d for a, b in zip(vector, row))

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


def solve_coincidences(model: TorusMapModel) -> PointSet:
    """Solve a transverse affine system: its coincidence set as a coset.

    Raises NonTransverse when the stacked difference matrix is singular; the
    caller is responsible for perturbing such systems.  Raises EnumerationLimit,
    carrying det D, past ``MAX_ENUMERATED_POINTS``.  Points come back sorted
    lexicographically by coordinates, each carrying the common local index
    sign(det D).
    """
    model.require_top_degree()

    stacked = stacked_difference(model)
    det = stacked.det()
    if det == 0:
        raise NonTransverse(
            "stacked difference matrix has determinant 0; "
            "the coincidence set is not a finite transverse set"
        )
    if abs(det) > MAX_ENUMERATED_POINTS:
        raise EnumerationLimit(
            f"coincidence set has {abs(det)} points, beyond the enumeration "
            f"budget of {MAX_ENUMERATED_POINTS}",
            det,
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
    basis = tuple(_triangular_basis([[scale * a % common for a in c] for c in zip(*adj)], common))
    points = PointSet(common, offset, basis, index)
    if len(points) != count:
        raise RuntimeError(f"internal error: {len(points)} points, expected {count}")
    return points


def _triangular_basis(vectors: list[list[int]], common: int) -> Iterator[tuple[int, ...]]:
    """Rows of a triangular basis of the subgroup of (Z/common)^m reduced vectors span.

    Euclid steps, which keep the span, fold the vectors into each row in turn.
    A row starts as common * e_i, so its (common / pivot) multiple stays in the
    span of the rows below it, and the radices reach each element once.
    """
    size = len(vectors)
    for i in range(size):
        row = [common * (i == j) for j in range(size)]
        for k, vector in enumerate(vectors):
            while vector[i]:
                q = row[i] // vector[i]
                row, vector = vector, [(a - q * b) % common for a, b in zip(row, vector)]
            vectors[k] = vector
        yield tuple(row)


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

