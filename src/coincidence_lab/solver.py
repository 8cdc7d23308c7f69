"""Exact coincidence solver for affine self-systems of tori.

k affine maps from an m-torus to an n-torus coincide exactly where the
stacked difference system D x = c holds modulo 1.  When the stacked matrix is
nonsingular the solution set is finite: diagonalizing D produces one residue
class per diagonal entry, and back-substitution enumerates all |det D| points.
Every arithmetic step is over the integers or exact rationals, so the index
sum this module reports is ground truth for the cohomological computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Sequence

from .errors import EnumerationLimit, NonTransverse
from .lefschetz import TorusMapModel
from .matrices import IntegerMatrix, stack_rows
from .snf import SnfResult, smith_normal_form

__all__ = [
    "CoincidencePoint",
    "MAX_ENUMERATED_POINTS",
    "SnfResult",
    "smith_normal_form",
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


def stacked_difference(model: TorusMapModel) -> IntegerMatrix:
    """Row-stack of A_i - A_1 for i = 2..k; square exactly when m = (k-1) n."""
    first = model.matrices[0]
    return stack_rows([a - first for a in model.matrices[1:]])


def solve_coincidences(
    model: TorusMapModel,
    max_points: int = MAX_ENUMERATED_POINTS,
) -> list[CoincidencePoint]:
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

    snf = smith_normal_form(stacked)
    diag = snf.diagonal()
    size = model.m

    # Transformed system: diag[j] * y_j = (U c)_j mod 1, then x = V y.
    uc = [
        sum(snf.U[i, j] * rhs[j] for j in range(size))
        for i in range(size)
    ]

    # Work over the common denominator L so the enumeration is pure integer
    # arithmetic; coordinates become fractions num/L only at the end.
    dens = [Fraction(u).denominator * s for u, s in zip(uc, diag)]
    common = lcm(*dens) if dens else 1
    scale = [common // d for d in dens]
    base = [w * Fraction(u).numerator for w, u in zip(scale, uc)]
    step = [w * Fraction(u).denominator for w, u in zip(scale, uc)]

    offsets = [
        sum(snf.V[i, j] * base[j] for j in range(size))
        for i in range(size)
    ]
    columns = [
        [snf.V[i, j] * step[j] for i in range(size)]
        for j in range(size)
    ]

    numerators: list[tuple[int, ...]] = []
    for residues in product(*(range(s) for s in diag)):
        point = list(offsets)
        for j, t in enumerate(residues):
            if t:
                col = columns[j]
                for i in range(size):
                    point[i] += t * col[i]
        numerators.append(tuple(v % common for v in point))
    numerators.sort()

    return [
        CoincidencePoint(tuple(Fraction(v, common) for v in nums), index)
        for nums in numerators
    ]


def index_sum(points: Sequence[CoincidencePoint]) -> int:
    """Total coincidence index; equals the top-degree coincidence class."""
    return sum(p.local_index for p in points)

