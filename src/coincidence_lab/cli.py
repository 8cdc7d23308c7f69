"""Command-line frontend: scenario files in, deterministic JSON reports out.

Three subcommands share one scenario-file format:

* ``class``  - compute the coincidence class for any model; torus models are
  cross-checked against the geometric solver when transverse.
* ``solve``  - enumerate the coincidence set of a torus model.
* ``decide`` - run the verdict rules on the computed class.

Reports are rendered with sorted keys and fixed indentation so identical
inputs give byte-identical output.  Rationals travel as strings like "1/2"
to keep floats out of the pipeline entirely.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Any

import jsonschema

from .decider import (
    JiangType,
    Scenario,
    SourceManifold,
    TargetManifold,
    Verdict,
    decide,
)
from .errors import (
    ArityMismatch,
    CoincidenceLabError,
    DimensionMismatch,
    EnumerationLimit,
    IndexOutOfRange,
    IntegerOverflow,
    NonTransverse,
    RankMismatch,
    SchemaError,
    UnknownIdentifier,
)
from .lefschetz import (
    ClassValue,
    CohomologyFact,
    CohomologyGroupVanishes,
    FactContext,
    PairClassZero,
    PullbackOfFundamentalClassVanishes,
    TorusMapModel,
    class_from_facts,
    multi_class_torus,
    sphere_class,
)
from .matrices import IntegerMatrix
# stacked_difference is not called here; it stays bound because
# perfbench/tracing.py wraps it by name on this module.
from .solver import (  # noqa: F401
    CoincidencePoint,
    index_sum,
    solve_coincidences,
    stacked_difference,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DIMENSION = 3
EXIT_TRANSVERSALITY = 4
EXIT_OVERFLOW = 5

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")

_RATIONAL_ENTRY = {
    "oneOf": [
        {"type": "integer"},
        {"type": "string", "pattern": _RATIONAL_RE.pattern},
    ]
}

_TORUS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["source_dim", "target_dim", "maps"],
    "properties": {
        "source_dim": {"type": "integer", "minimum": 1},
        "target_dim": {"type": "integer", "minimum": 1},
        "maps": {
            "type": "array",
            "minItems": 2,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["matrix"],
                "properties": {
                    "matrix": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"type": "integer"},
                        },
                    },
                    "translation": {"type": "array", "items": _RATIONAL_ENTRY},
                },
            },
        },
    },
}

_SPHERE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["n", "k", "hat_degrees"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "k": {"type": "integer", "minimum": 2},
        "hat_degrees": {"type": "array", "items": {"type": "integer"}},
    },
}

_FACT_SCHEMAS = [
    {
        "type": "object",
        "additionalProperties": False,
        "required": ["kind", "i", "j"],
        "properties": {
            "kind": {"const": "pair-class-zero"},
            "i": {"type": "integer", "minimum": 1},
            "j": {"type": "integer", "minimum": 1},
            "justification": {"type": "string"},
        },
    },
    {
        "type": "object",
        "additionalProperties": False,
        "required": ["kind", "space", "degree"],
        "properties": {
            "kind": {"const": "cohomology-group-vanishes"},
            "space": {"type": "string"},
            "degree": {"type": "integer", "minimum": 0},
            "justification": {"type": "string"},
        },
    },
    {
        "type": "object",
        "additionalProperties": False,
        "required": ["kind", "map"],
        "properties": {
            "kind": {"const": "fundamental-class-pullback-vanishes"},
            "map": {"type": "string"},
            "justification": {"type": "string"},
        },
    },
]

_FACTS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["k", "facts"],
    "properties": {
        "k": {"type": "integer", "minimum": 2},
        "maps": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["id"],
                "properties": {
                    "id": {"type": "string"},
                    "constant": {"type": "boolean"},
                },
            },
        },
        "space": {
            "type": "object",
            "additionalProperties": False,
            "required": ["id"],
            "properties": {
                "id": {"type": "string"},
                "class_degree": {"type": "integer", "minimum": 0},
            },
        },
        "facts": {"type": "array", "items": {"oneOf": _FACT_SCHEMAS}},
    },
}

_DECIDER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["k", "n", "dim_M", "M", "N"],
    "properties": {
        "k": {"type": "integer", "minimum": 2},
        "n": {"type": "integer", "minimum": 1},
        "dim_M": {"type": "integer", "minimum": 1},
        "M": {
            "type": "object",
            "additionalProperties": False,
            "required": ["closed", "connected", "oriented"],
            "properties": {
                "closed": {"type": "boolean"},
                "connected": {"type": "boolean"},
                "oriented": {"type": "boolean"},
            },
        },
        "N": {
            "type": "object",
            "additionalProperties": False,
            "required": [
                "closed",
                "connected",
                "orientable",
                "simply_connected",
                "jiang_type",
                "aspherical",
            ],
            "properties": {
                "closed": {"type": "boolean"},
                "connected": {"type": "boolean"},
                "orientable": {"type": "boolean"},
                "simply_connected": {"type": "boolean"},
                "jiang_type": {"enum": [t.value for t in JiangType]},
                "aspherical": {"type": "boolean"},
            },
        },
        "obstruction_known_zero": {"type": ["boolean", "null"]},
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}

_SCENARIO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["model"],
    "properties": {
        "model": {"enum": ["torus-affine", "sphere-degrees", "facts"]},
        "torus": _TORUS_SCHEMA,
        "sphere": _SPHERE_SCHEMA,
        "facts": _FACTS_SCHEMA,
        "decider": _DECIDER_SCHEMA,
    },
}

_MODEL_PAYLOAD_KEY = {
    "torus-affine": "torus",
    "sphere-degrees": "sphere",
    "facts": "facts",
}


def _reject_float(literal: str):
    # JSON Schema's "integer" accepts 3.0, so floats are stopped while parsing
    raise SchemaError(
        f"float literal {literal} is not allowed; use an integer or a 'p/q' string"
    )


def load_scenario(path: str) -> dict:
    """Read, parse and schema-validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(
                handle, parse_float=_reject_float, parse_constant=_reject_float
            )
    except OSError as exc:
        raise SchemaError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario file is not valid JSON: {exc}") from exc
    validator = jsonschema.Draft202012Validator(_SCENARIO_SCHEMA)
    errors = sorted(validator.iter_errors(document), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        location = "/".join(str(p) for p in err.absolute_path) or "(top level)"
        raise SchemaError(f"field {location}: {err.message}")
    payload_key = _MODEL_PAYLOAD_KEY[document["model"]]
    if payload_key not in document:
        raise SchemaError(
            f"field {payload_key}: model {document['model']!r} requires this payload"
        )
    for key in _MODEL_PAYLOAD_KEY.values():
        if key != payload_key and key in document:
            raise SchemaError(
                f"field {key}: payload does not belong to model {document['model']!r}"
            )
    return document


def parse_rational(value: Any, context: str) -> Fraction:
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_RE.match(value):
        return Fraction(value)
    raise SchemaError(f"field {context}: {value!r} is not an integer or 'p/q' string")


def build_affine_maps(payload: dict) -> TorusMapModel:
    """The torus payload as one system; TorusMapModel validates its shapes."""
    n = payload["target_dim"]
    matrices, translations = [], []
    for idx, record in enumerate(payload["maps"]):
        matrices.append(IntegerMatrix(record["matrix"]))
        translations.append(tuple(
            parse_rational(t, f"torus/maps/{idx}/translation/{j}")
            for j, t in enumerate(record.get("translation", [0] * n))
        ))
    return TorusMapModel(payload["source_dim"], n, matrices, translations)


_FACT_BUILDERS = {
    "pair-class-zero": lambda r: PairClassZero(r["i"], r["j"], r.get("justification", "")),
    "cohomology-group-vanishes": lambda r: CohomologyGroupVanishes(
        r["space"], r["degree"], r.get("justification", "")
    ),
    "fundamental-class-pullback-vanishes": lambda r: PullbackOfFundamentalClassVanishes(
        r["map"], r.get("justification", "")
    ),
}


def build_facts(payload: dict) -> tuple[int, list[CohomologyFact], FactContext]:
    k = payload["k"]
    map_specs = payload.get("maps", [])
    if map_specs and len(map_specs) != k:
        raise DimensionMismatch(
            f"field facts/maps: {len(map_specs)} map records for k={k}"
        )
    context = FactContext(
        map_ids=tuple(record["id"] for record in map_specs),
        constant_maps=frozenset(
            record["id"] for record in map_specs if record.get("constant", False)
        ),
        space_id=payload.get("space", {}).get("id"),
        pair_class_degree=payload.get("space", {}).get("class_degree"),
    )
    facts = [_FACT_BUILDERS[record["kind"]](record) for record in payload["facts"]]
    return k, facts, context


def compute_class(document: dict) -> tuple[ClassValue, dict]:
    """Dispatch on the model; returns the class plus model-specific extras."""
    model = document["model"]
    if model == "torus-affine":
        system = build_affine_maps(document["torus"])
        value = multi_class_torus(system)
        try:
            points = solve_coincidences(system)
        except (NonTransverse, EnumerationLimit):
            # no finite point set within budget: the class stands unchecked
            return value, {}
        total = index_sum(points)
        return value, {"index_sum": total, "oracle_agrees": total == value.value}
    if model == "sphere-degrees":
        payload = document["sphere"]
        return sphere_class(payload["n"], payload["k"], payload["hat_degrees"]), {}
    k, facts, context = build_facts(document["facts"])
    return class_from_facts(k, facts, context), {}


def render_class(value: ClassValue) -> dict:
    return {
        "kind": value.kind,
        "value": value.value,
        "reason": value.reason,
        "provenance": value.provenance,
    }


def render_point(point: CoincidencePoint) -> dict:
    return {
        "coordinates": [str(c) for c in point.coordinates],
        "index": point.local_index,
    }


def render_verdict(verdict: Verdict, extra_notes: list[str]) -> dict:
    return {
        "decision": verdict.decision,
        "rule": verdict.rule,
        "notes": list(verdict.notes) + list(extra_notes),
    }


def cmd_class(path: str) -> dict:
    document = load_scenario(path)
    value, extras = compute_class(document)
    report = {"class": render_class(value), "inputs_echo": document}
    report.update(extras)
    return report


def cmd_solve(path: str) -> dict:
    document = load_scenario(path)
    if document["model"] != "torus-affine":
        raise SchemaError("field model: solve requires the 'torus-affine' model")
    system = build_affine_maps(document["torus"])
    points = solve_coincidences(system)
    value = multi_class_torus(system)
    return {
        "class": render_class(value),
        "coincidence_points": [render_point(p) for p in points],
        "index_sum": index_sum(points),
        "inputs_echo": document,
    }


def cmd_decide(path: str) -> dict:
    document = load_scenario(path)
    if "decider" not in document:
        raise SchemaError("field decider: the decide command requires this block")
    block = document["decider"]
    value, extras = compute_class(document)
    _check_decider_consistency(document, block)
    scenario = Scenario(
        k=block["k"],
        n=block["n"],
        dim_M=block["dim_M"],
        source=SourceManifold(**block["M"]),
        target=TargetManifold(
            closed=block["N"]["closed"],
            connected=block["N"]["connected"],
            orientable=block["N"]["orientable"],
            simply_connected=block["N"]["simply_connected"],
            jiang_type=JiangType(block["N"]["jiang_type"]),
            aspherical=block["N"]["aspherical"],
        ),
        class_value=value,
        obstruction_known_zero=block.get("obstruction_known_zero"),
    )
    verdict = decide(scenario)
    report = {
        "class": render_class(value),
        "verdict": render_verdict(verdict, block.get("notes", [])),
        "inputs_echo": document,
    }
    report.update(extras)
    return report


def _check_decider_consistency(document: dict, block: dict) -> None:
    """The decider block must agree with the model payload on shared values."""
    model = document["model"]
    if model == "torus-affine":
        payload = document["torus"]
        if block["k"] != len(payload["maps"]):
            raise DimensionMismatch(
                f"field decider/k: {block['k']} does not match the "
                f"{len(payload['maps'])} torus maps"
            )
        if block["n"] != payload["target_dim"]:
            raise DimensionMismatch(
                f"field decider/n: {block['n']} does not match target_dim "
                f"{payload['target_dim']}"
            )
        if block["dim_M"] != payload["source_dim"]:
            raise DimensionMismatch(
                f"field decider/dim_M: {block['dim_M']} does not match source_dim "
                f"{payload['source_dim']}"
            )
    elif model == "sphere-degrees":
        payload = document["sphere"]
        if block["k"] != payload["k"] or block["n"] != payload["n"]:
            raise DimensionMismatch(
                "field decider: k and n must match the sphere payload"
            )
    else:
        if block["k"] != document["facts"]["k"]:
            raise DimensionMismatch(
                f"field decider/k: {block['k']} does not match facts/k "
                f"{document['facts']['k']}"
            )


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


_COMMANDS = {"class": cmd_class, "solve": cmd_solve, "decide": cmd_decide}

_EXIT_CODES: list[tuple[type, int]] = [
    (SchemaError, EXIT_SCHEMA),
    (UnknownIdentifier, EXIT_SCHEMA),
    (NonTransverse, EXIT_TRANSVERSALITY),
    (IntegerOverflow, EXIT_OVERFLOW),
    (DimensionMismatch, EXIT_DIMENSION),
    (ArityMismatch, EXIT_DIMENSION),
    (IndexOutOfRange, EXIT_DIMENSION),
    (RankMismatch, EXIT_DIMENSION),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coincidence-lab",
        description="Exact coincidence classes, coincidence sets and "
        "deformability verdicts for multiple maps.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", default=None, help="write the report to this path instead of stdout"
    )
    common.add_argument(
        "--quiet", action="store_true", help="suppress the report on stdout"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "class", parents=[common], help="compute the coincidence class"
    ).add_argument("path", help="scenario file")
    sub.add_parser(
        "solve", parents=[common], help="enumerate the coincidence set"
    ).add_argument("path", help="scenario file (torus-affine model)")
    sub.add_parser(
        "decide", parents=[common], help="run the deformability rules"
    ).add_argument("path", help="scenario file with a decider block")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _COMMANDS[args.command](args.path)
    except CoincidenceLabError as exc:
        for err_type, code in _EXIT_CODES:
            if isinstance(exc, err_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    text = render_report(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
    elif not args.quiet:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
