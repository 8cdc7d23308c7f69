"""Independent reference routines used only by tests.

These deliberately avoid the library's code paths: determinants come from
permutation or cofactor expansion instead of fraction-free elimination, and
pullback coefficients are recomputed minor by minor.  Agreement between the
two routes is the point of the tests that import this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from random import Random

from coincidence_lab import IntegerMatrix, TorusMapModel


def perm_det(rows) -> int:
    """Determinant as the signed sum over all permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = 1 if inversions % 2 == 0 else -1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def cofactor_det(rows) -> int:
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * rows[0][j] * cofactor_det(minor)
    return total


def reference_pullback(rows, terms, target_rank):
    """Pullback coefficients recomputed with cofactor minors.

    ``rows`` is the matrix as nested lists, ``terms`` maps 1-based index
    tuples to coefficients.  Returns the canonical term dict.
    """
    out: dict[tuple[int, ...], int] = {}
    for subset, coeff in terms.items():
        if not subset:
            out[()] = out.get((), 0) + coeff
            continue
        for target in combinations(range(1, target_rank + 1), len(subset)):
            minor = [[rows[i - 1][j - 1] for j in target] for i in subset]
            d = cofactor_det(minor)
            if d:
                out[target] = out.get(target, 0) + coeff * d
    return {key: value for key, value in out.items() if value}


def random_matrix(rng: Random, rows: int, cols: int, lo: int = -3, hi: int = 3) -> IntegerMatrix:
    return IntegerMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_translation(rng: Random, length: int, max_den: int = 5) -> tuple[Fraction, ...]:
    out = []
    for _ in range(length):
        den = rng.randint(1, max_den)
        out.append(Fraction(rng.randint(0, den - 1), den))
    return tuple(out)


def random_transverse_system(
    rng: Random,
    n: int | None = None,
    k: int | None = None,
    with_translations: bool = True,
) -> TorusMapModel:
    """Affine torus system with nonzero stacked-difference determinant."""
    while True:
        nn = n if n is not None else rng.choice([1, 2])
        kk = k if k is not None else rng.choice([2, 3])
        m = (kk - 1) * nn
        mats = [random_matrix(rng, nn, m) for _ in range(kk)]
        stacked = [
            [mats[i][r, c] - mats[0][r, c] for c in range(m)]
            for i in range(1, kk)
            for r in range(nn)
        ]
        if perm_det(stacked) == 0:
            continue
        translations = (
            [random_translation(rng, nn) for _ in mats] if with_translations else ()
        )
        return TorusMapModel.from_matrices(mats, translations)
