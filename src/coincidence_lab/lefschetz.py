"""Coincidence classes for k maps in the computable models.

Three routes produce a :class:`ClassValue`:

* ``multi_class_torus`` - maps between tori, given by the induced integer
  matrices on first homology.  Each map past the first contributes the
  pullback of the target orientation class along its difference with the
  base map; the full class is the cup product of those contributions,
  evaluated against the source orientation.
* ``sphere_class`` - maps into a sphere, given by the degrees of the
  complementary (k-1)-tuples.
* ``class_from_facts`` - axiomatized vanishing facts, propagated through the
  product factorization of the class.  This route only ever certifies Zero
  or reports Unknown; it never invents a nonzero value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    ArityMismatch,
    DimensionMismatch,
    IndexOutOfRange,
    UnknownIdentifier,
)
from .exterior import ExteriorElement, pullback, wedge
from .matrices import IntegerMatrix, checked_int64

KIND_INTEGER = "integer"
KIND_ZERO = "zero"
KIND_UNKNOWN = "unknown"

TORUS_PROVENANCE = "cup product of pairwise difference classes in the torus model"
SPHERE_PROVENANCE = "alternating sum of complementary-tuple degrees on the sphere"


@dataclass(frozen=True)
class ClassValue:
    """A computed coincidence class.

    ``integer`` carries the evaluation against a fixed orientation class.
    ``zero`` is symbolic: the class vanishes for a recorded reason, which is
    deliberately distinct from having computed the integer 0.  ``unknown``
    means the inputs did not determine the class.
    """

    kind: str
    value: int | None = None
    reason: str | None = None
    provenance: str = ""

    def __post_init__(self):
        if self.kind not in (KIND_INTEGER, KIND_ZERO, KIND_UNKNOWN):
            raise ValueError(f"unknown class kind {self.kind!r}")
        if self.kind == KIND_INTEGER and self.value is None:
            raise ValueError("integer class needs a value")
        if self.kind != KIND_INTEGER and self.value is not None:
            raise ValueError(f"{self.kind} class cannot carry a value")
        if self.kind in (KIND_ZERO, KIND_UNKNOWN) and not self.reason:
            raise ValueError(f"{self.kind} class needs a reason")

    @classmethod
    def integer(cls, value: int, provenance: str) -> ClassValue:
        return cls(KIND_INTEGER, value=value, provenance=provenance)

    @classmethod
    def zero(cls, reason: str, provenance: str | None = None) -> ClassValue:
        return cls(KIND_ZERO, reason=reason, provenance=provenance or reason)

    @classmethod
    def unknown(cls, reason: str, provenance: str = "") -> ClassValue:
        return cls(KIND_UNKNOWN, reason=reason, provenance=provenance)

    def is_vanishing(self) -> bool:
        """True for symbolic Zero and for a computed integer 0."""
        return self.kind == KIND_ZERO or (self.kind == KIND_INTEGER and self.value == 0)


@dataclass(frozen=True)
class TorusMapModel:
    """k affine maps x -> A_i x + b_i from T^m to T^n: the one torus system.

    Every A_i is n x m, the induced matrix on 1-cycles: rows index target
    circle factors, columns index source circle factors.  The translations
    b_i default to zero and are reduced into [0, 1); they move the
    coincidence points but never the class.
    """

    m: int
    n: int
    matrices: tuple[IntegerMatrix, ...]
    translations: tuple[tuple[Fraction, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if len(self.matrices) < 2:
            raise DimensionMismatch("a coincidence system needs at least two maps")
        # IntegerMatrix shapes are positive, so these checks also bound m, n >= 1
        for i, mat in enumerate(self.matrices, start=1):
            if mat.shape() != (self.n, self.m):
                raise DimensionMismatch(
                    f"matrix {i} has shape {mat.shape()}, expected ({self.n}, {self.m})"
                )
        translations = self.translations or ((0,) * self.n,) * self.k
        if len(translations) != self.k:
            raise DimensionMismatch(f"{len(translations)} translations for {self.k} maps")
        for i, translation in enumerate(translations, start=1):
            if len(translation) != self.n:
                raise DimensionMismatch(
                    f"translation {i} has {len(translation)} entries, expected {self.n}"
                )
        reduced = tuple(tuple(Fraction(t) % 1 for t in tr) for tr in translations)
        object.__setattr__(self, "translations", reduced)

    @classmethod
    def from_matrices(
        cls,
        matrices: Sequence[IntegerMatrix],
        translations: Sequence[Sequence[Fraction]] = (),
    ) -> TorusMapModel:
        """Infer (n, m) from the first matrix; the constructor checks the rest."""
        n, m = matrices[0].shape() if matrices else (0, 0)
        return cls(m, n, tuple(matrices), tuple(translations))

    @property
    def k(self) -> int:
        return len(self.matrices)

    def require_top_degree(self) -> None:
        """Raise unless m = (k-1) n, so the stacked difference system is square
        and the product of the k-1 pair classes lands in the top degree."""
        expected = (self.k - 1) * self.n
        if self.m != expected:
            raise DimensionMismatch(
                f"source dimension {self.m} must equal (k-1)*n = {expected}"
            )


def pair_class_torus(model: TorusMapModel, i: int) -> ExteriorElement:
    """Class of the pair (map 1, map i): pullback of the target orientation
    monomial along the difference matrix A_i - A_1."""
    if not 2 <= i <= model.k:
        raise IndexOutOfRange(f"pair index {i} outside 2..{model.k}")
    diff = model.matrices[i - 1] - model.matrices[0]
    return pullback(diff, ExteriorElement.top(model.n))


def multi_class_torus(model: TorusMapModel) -> ClassValue:
    """Top-degree coincidence class of the full k-tuple.

    Requires m = (k-1) n so the product of the k-1 pair classes lands in the
    top degree of the source torus.
    """
    model.require_top_degree()
    acc = ExteriorElement.one(model.m)
    for i in range(2, model.k + 1):
        acc = wedge(acc, pair_class_torus(model, i))
    return ClassValue.integer(acc.top_coefficient(), TORUS_PROVENANCE)


def sphere_class(n: int, k: int, hat_degrees: Sequence[int]) -> ClassValue:
    """Alternating sum of the complementary-tuple degrees for sphere targets.

    ``hat_degrees[j-1]`` is the multiple of the chosen top class pulled back
    by the (k-1)-tuple that omits map j.  The sign convention fixes the
    coefficient of the last map's term to +1, so for two maps the value is
    d_2 + (-1)^n d_1.
    """
    if k < 2:
        raise ArityMismatch(f"k must be at least 2, got {k}")
    if n < 1:
        raise ArityMismatch(f"n must be at least 1, got {n}")
    if len(hat_degrees) != k:
        raise ArityMismatch(f"expected {k} degrees, got {len(hat_degrees)}")
    total = 0
    for i in range(k):
        sign = -1 if (i * n) % 2 else 1
        total += sign * checked_int64(hat_degrees[k - 1 - i], "sphere degree")
    return ClassValue.integer(checked_int64(total, "sphere class"), SPHERE_PROVENANCE)


@dataclass(frozen=True)
class PairClassZero:
    """The class of the pair (map i, map j) is declared to vanish."""

    i: int
    j: int
    justification: str = ""


@dataclass(frozen=True)
class CohomologyGroupVanishes:
    """The named space has trivial cohomology in the stated degree."""

    space: str
    degree: int
    justification: str = ""


@dataclass(frozen=True)
class PullbackOfFundamentalClassVanishes:
    """The named map pulls the target's fundamental class back to zero."""

    map_id: str
    justification: str = ""


CohomologyFact = Union[
    PairClassZero, CohomologyGroupVanishes, PullbackOfFundamentalClassVanishes
]


@dataclass(frozen=True)
class FactContext:
    """Declared identifiers that facts may refer to.

    ``pair_class_degree`` is the cohomological degree of the source space in
    which each pairwise factor lives (the dimension of the target manifold).
    """

    map_ids: tuple[str, ...] = ()
    constant_maps: frozenset[str] = frozenset()
    space_id: str | None = None
    pair_class_degree: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "map_ids", tuple(self.map_ids))
        object.__setattr__(self, "constant_maps", frozenset(self.constant_maps))
        unknown = self.constant_maps - set(self.map_ids)
        if unknown:
            raise UnknownIdentifier(
                f"constant map(s) {sorted(unknown)} were never declared"
            )


def class_from_facts(
    k: int,
    facts: Sequence[CohomologyFact],
    context: FactContext | None = None,
) -> ClassValue:
    """Conservative evaluation of the k-map class from declared facts.

    The class is the cup product of pairwise factors, so any fact that
    forces one factor to vanish forces the whole class to vanish.  Facts
    that refer to undeclared identifiers raise UnknownIdentifier; facts that
    are declared but do not force anything are ignored.  With no forcing
    fact the result is Unknown, never a fabricated value.
    """
    if k < 2:
        raise ArityMismatch(f"k must be at least 2, got {k}")
    ctx = context or FactContext()
    for fact in facts:
        if isinstance(fact, PairClassZero):
            if not (1 <= fact.i <= k and 1 <= fact.j <= k) or fact.i == fact.j:
                raise UnknownIdentifier(
                    f"pair ({fact.i},{fact.j}) does not name two distinct maps in 1..{k}"
                )
            reason = fact.justification or (
                f"the class of the pair ({fact.i},{fact.j}) vanishes, "
                "so the product of pair classes vanishes"
            )
            return ClassValue.zero(reason)
        if isinstance(fact, CohomologyGroupVanishes):
            if ctx.space_id is None or fact.space != ctx.space_id:
                raise UnknownIdentifier(f"space {fact.space!r} was never declared")
            if ctx.pair_class_degree is not None and fact.degree == ctx.pair_class_degree:
                reason = (
                    f"H^{fact.degree}({fact.space})=0 forces all pair classes to vanish"
                )
                return ClassValue.zero(reason, provenance=fact.justification or reason)
            continue
        if isinstance(fact, PullbackOfFundamentalClassVanishes):
            if fact.map_id not in ctx.map_ids:
                raise UnknownIdentifier(f"map {fact.map_id!r} was never declared")
            has_constant_partner = any(
                other != fact.map_id for other in ctx.constant_maps
            )
            if has_constant_partner:
                reason = fact.justification or (
                    f"{fact.map_id} pulls the fundamental class back to zero and "
                    "pairs with a constant map, so that pair class vanishes"
                )
                return ClassValue.zero(reason)
            continue
        raise UnknownIdentifier(f"unsupported fact {fact!r}")
    return ClassValue.unknown("insufficient facts")
