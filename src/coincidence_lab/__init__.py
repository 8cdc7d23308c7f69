"""Exact coincidence classes for multiple maps, with cross-checking oracle.

Public surface re-exported here: exterior algebra, group rings with the
signed conjugation action, the class computations, the affine solver, and
the verdict engine.  The command line lives in :mod:`coincidence_lab.cli`.

The re-exports are resolved on first access (PEP 562), so importing one
module, the command line included, loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": [
        "ArityMismatch",
        "CoincidenceLabError",
        "DimensionMismatch",
        "EnumerationLimit",
        "GroupMismatch",
        "IndexOutOfRange",
        "IntegerOverflow",
        "NonTransverse",
        "RankMismatch",
        "SchemaError",
        "UnknownIdentifier",
    ],
    "matrices": ["IntegerMatrix", "stack_rows"],
    "exterior": ["ExteriorElement", "pullback", "top_coefficient", "wedge"],
    "group_ring": [
        "AbelianGroupSpec",
        "GroupElement",
        "GroupRingElement",
        "Homomorphism",
        "HomSystem",
        "OrientationCharacter",
        "act",
        "augment",
        "induced_act",
    ],
    "snf": ["SnfResult", "smith_normal_form"],
    "solver": [
        "MAX_ENUMERATED_POINTS",
        "CoincidencePoint",
        "PointSet",
        "index_sum",
        "solve_coincidences",
        "stacked_difference",
    ],
    "lefschetz": [
        "ClassValue",
        "CohomologyFact",
        "CohomologyGroupVanishes",
        "FactContext",
        "PairClassZero",
        "PullbackOfFundamentalClassVanishes",
        "TorusMapModel",
        "class_from_facts",
        "multi_class_torus",
        "pair_class_torus",
        "sphere_class",
    ],
    "decider": [
        "DEFORMABLE_FREE",
        "INCONCLUSIVE",
        "NOT_DEFORMABLE",
        "RULE_JIANG",
        "RULE_NONZERO_CLASS",
        "RULE_PRIMARY_OBSTRUCTION",
        "RULE_SIMPLY_CONNECTED",
        "HypothesisResult",
        "JiangType",
        "Scenario",
        "SourceManifold",
        "TargetManifold",
        "Verdict",
        "check_hypotheses",
        "decide",
    ],
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
