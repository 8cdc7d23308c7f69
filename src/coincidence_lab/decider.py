"""Rule engine turning a computed class plus declared hypotheses into a verdict.

The rules are deliberately asymmetric.  NotDeformable is only ever emitted
from a certified nonzero class, because a nonzero class survives homotopy
and forces a coincidence for every representative.  DeformableFree is only
ever emitted when the full hypothesis list of one of the converse rules
passes; a vanishing class with failing hypotheses proves nothing either way,
so everything else is Inconclusive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .lefschetz import KIND_INTEGER, ClassValue

NOT_DEFORMABLE = "NotDeformable"
DEFORMABLE_FREE = "DeformableFree"
INCONCLUSIVE = "Inconclusive"

RULE_NONZERO_CLASS = "nonvanishing-coincidence-class"
RULE_SIMPLY_CONNECTED = "simply-connected-converse"
RULE_JIANG = "jiang-space-converse"
RULE_PRIMARY_OBSTRUCTION = "primary-obstruction-converse"


class JiangType(enum.Enum):
    """Declared membership in a family with the Jiang index-sign property."""

    NONE = "none"
    JIANG = "jiang"
    NILMANIFOLD = "nilmanifold"
    COMPACT_LIE_COSET = "compact-lie-coset"
    C_NILPOTENT_FINITE_CENTER = "c-nilpotent-finite-center"


@dataclass(frozen=True)
class SourceManifold:
    closed: bool = True
    connected: bool = True
    oriented: bool = True


@dataclass(frozen=True)
class TargetManifold:
    closed: bool = True
    connected: bool = True
    orientable: bool = True
    simply_connected: bool = False
    jiang_type: JiangType = JiangType.NONE
    aspherical: bool = False


@dataclass(frozen=True)
class Scenario:
    """Everything the rules may look at; all geometry is declared, not computed."""

    k: int
    n: int
    dim_M: int
    source: SourceManifold
    target: TargetManifold
    class_value: ClassValue
    obstruction_known_zero: bool | None = None

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.dim_M < 1:
            raise ValueError(f"dim_M must be at least 1, got {self.dim_M}")


@dataclass(frozen=True)
class HypothesisResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


@dataclass(frozen=True)
class Verdict:
    decision: str
    rule: str | None
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "notes", tuple(self.notes))
        if self.decision != INCONCLUSIVE and not self.rule:
            raise ValueError("a conclusive verdict must cite a rule")


def check_hypotheses(s: Scenario) -> list[HypothesisResult]:
    """Evaluate every hypothesis any rule may need, with explanations."""
    expected_dim = (s.k - 1) * s.n
    results = [
        HypothesisResult(
            "dimension-match",
            s.dim_M == expected_dim,
            f"dim M = {s.dim_M}, (k-1)*n = {expected_dim}",
        ),
        HypothesisResult(
            "dimension-gate",
            expected_dim >= 3,
            f"n*(k-1) = {expected_dim}, need >= 3 (surfaces need at least three maps)",
        ),
        HypothesisResult(
            "source-closed-connected",
            s.source.closed and s.source.connected,
            f"closed={s.source.closed}, connected={s.source.connected}",
        ),
        HypothesisResult(
            "target-closed-connected",
            s.target.closed and s.target.connected,
            f"closed={s.target.closed}, connected={s.target.connected}",
        ),
        HypothesisResult(
            "target-simply-connected",
            s.target.simply_connected,
            f"simply_connected={s.target.simply_connected}",
        ),
        HypothesisResult(
            "target-jiang-type",
            s.target.jiang_type is not JiangType.NONE,
            f"declared jiang_type={s.target.jiang_type.value}",
        ),
        HypothesisResult(
            "target-orientable",
            s.target.orientable,
            f"orientable={s.target.orientable}",
        ),
    ]
    return results


def decide(s: Scenario) -> Verdict:
    """Apply the rules in fixed priority order.

    1. a certified nonzero integer class blocks every deformation;
    2. simply connected target with vanishing class frees the maps;
    3. orientable Jiang-family target with vanishing class frees the maps;
    4. a declared vanishing primary obstruction frees the maps;
    5. otherwise the engine cannot conclude anything.
    """
    hypotheses = check_hypotheses(s)
    by_name = {h.name: h.passed for h in hypotheses}
    notes = tuple(str(h) for h in hypotheses)

    base_ok = (
        by_name["dimension-match"]
        and by_name["dimension-gate"]
        and by_name["source-closed-connected"]
        and by_name["target-closed-connected"]
    )
    cv = s.class_value
    if cv.kind == KIND_INTEGER and cv.value != 0:
        return Verdict(NOT_DEFORMABLE, RULE_NONZERO_CLASS, notes)
    vanishing = cv.is_vanishing()
    if base_ok and by_name["target-simply-connected"] and vanishing:
        return Verdict(DEFORMABLE_FREE, RULE_SIMPLY_CONNECTED, notes)
    if base_ok and by_name["target-orientable"] and by_name["target-jiang-type"] and vanishing:
        return Verdict(DEFORMABLE_FREE, RULE_JIANG, notes)
    if s.obstruction_known_zero is True and base_ok:
        return Verdict(DEFORMABLE_FREE, RULE_PRIMARY_OBSTRUCTION, notes)
    return Verdict(INCONCLUSIVE, None, notes)
