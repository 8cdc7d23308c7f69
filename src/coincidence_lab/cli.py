"""Command-line frontend: scenario files in, deterministic JSON reports out.

Three subcommands share one scenario-file format:

* ``class``  - compute the coincidence class for any model; the torus class
  is det D from the solver, cross-checked against the exterior product.
* ``solve``  - enumerate the coincidence set of a torus model.
* ``decide`` - run the verdict rules on the computed class.

Reports are rendered with sorted keys and fixed indentation so identical
inputs give byte-identical output.  Rationals travel as strings like "1/2"
to keep floats out of the pipeline entirely.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import secrets
import stat
import sys
from fractions import Fraction
from typing import Any

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
    TORUS_PROVENANCE,
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
from .solver import (
    format_coordinate,
    solve_coincidences,
    stacked_difference,  # noqa: F401  perfbench/tracing.py wraps it by name
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DIMENSION = 3
EXIT_TRANSVERSALITY = 4
EXIT_OVERFLOW = 5

_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[1-9][0-9]*)?$")

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

# Values echoed in schema errors are cut here, so a huge field cannot turn
# one error into a megabyte line.
_ECHO_LIMIT = 200

_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _echo(text: str) -> str:
    return text if len(text) <= _ECHO_LIMIT else text[:_ECHO_LIMIT] + "..."


def _schema_errors(node: Any, schema: dict, path: tuple, errors: list) -> None:
    """Append ``(path, message)`` for each way ``node`` breaks ``schema``.

    Covers the keywords the scenario schema uses, in the order and wording
    of jsonschema 4.26's Draft 2020-12 validator, with echoed values capped
    at ``_ECHO_LIMIT`` characters.  Its ``const`` and ``enum`` values are
    strings, for which jsonschema's equality is ``==``, and its ``oneOf``
    branches exclude each other, so "valid under each of" cannot arise.
    """
    for keyword, rule in schema.items():
        if keyword == "type":
            types = (rule,) if isinstance(rule, str) else rule
            for name in types:
                if _IS_TYPE[name](node):
                    break
            else:
                names = ", ".join(repr(name) for name in types)
                errors.append((path, f"{_echo(repr(node))} is not of type {names}"))
        elif keyword == "properties":
            if isinstance(node, dict):
                for key, subschema in rule.items():
                    if key in node:
                        _schema_errors(node[key], subschema, path + (key,), errors)
        elif keyword == "additionalProperties":
            if isinstance(node, dict) and rule is False:
                known = schema.get("properties", {})
                extras = sorted((key for key in node if key not in known), key=str)
                if extras:
                    listed = _echo(", ".join(repr(key) for key in extras))
                    verb = "was" if len(extras) == 1 else "were"
                    errors.append((
                        path,
                        f"Additional properties are not allowed ({listed} {verb} unexpected)",
                    ))
        elif keyword == "required":
            if isinstance(node, dict):
                for key in rule:
                    if key not in node:
                        errors.append((path, f"{key!r} is a required property"))
        elif keyword == "items":
            if isinstance(node, list):
                for index, item in enumerate(node):
                    _schema_errors(item, rule, path + (index,), errors)
        elif keyword == "minItems":
            if isinstance(node, list) and len(node) < rule:
                wording = "should be non-empty" if rule == 1 else "is too short"
                errors.append((path, f"{_echo(repr(node))} {wording}"))
        elif keyword == "minimum":
            if _IS_TYPE["number"](node) and node < rule:
                errors.append(
                    (path, f"{_echo(repr(node))} is less than the minimum of {rule!r}")
                )
        elif keyword == "pattern":
            if isinstance(node, str) and not re.search(rule, node):
                errors.append((path, f"{_echo(repr(node))} does not match {rule!r}"))
        elif keyword == "enum":
            if node not in rule:
                errors.append((path, f"{_echo(repr(node))} is not one of {rule!r}"))
        elif keyword == "const":
            if node != rule:
                errors.append((path, f"{rule!r} was expected"))
        elif keyword == "oneOf":
            for branch in rule:
                branch_errors: list = []
                _schema_errors(node, branch, path, branch_errors)
                if not branch_errors:
                    break
            else:
                errors.append(
                    (path, f"{_echo(repr(node))} is not valid under any of the given schemas")
                )
        else:
            raise ValueError(f"schema keyword {keyword!r} has no hand validator")


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
    except RecursionError as exc:
        raise SchemaError(f"scenario file is nested too deeply: {exc}") from exc
    except SchemaError:  # a float literal, already worded by _reject_float
        raise
    except ValueError as exc:
        # malformed JSON, bytes that are not UTF-8, or an integer literal
        # longer than Python's int-from-string digit limit
        raise SchemaError(f"scenario file is not valid JSON: {exc}") from exc
    errors: list = []
    try:
        # repr of a deeply nested value in a message recurses
        _schema_errors(document, _SCENARIO_SCHEMA, (), errors)
    except RecursionError as exc:
        raise SchemaError(f"scenario file is nested too deeply: {exc}") from exc
    if errors:
        # the first error at the smallest path, as jsonschema's errors sorted by path
        path, message = sorted(errors, key=lambda e: e[0])[0]
        location = "/".join(str(p) for p in path) or "(top level)"
        raise SchemaError(f"field {location}: {message}")
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
    if isinstance(value, str) and _RATIONAL_RE.fullmatch(value):
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
        try:
            points = solve_coincidences(system)
        except NonTransverse:  # raised exactly when det D = 0
            return ClassValue.integer(0, TORUS_PROVENANCE), {}
        except EnumerationLimit as refused:
            return ClassValue.integer(refused.det, TORUS_PROVENANCE), {}
        value, extras = points.local_index * len(points), {}  # len counts from the basis
        # the labelled check, the pair classes' exterior product; omitted past 64 bits
        with contextlib.suppress(IntegerOverflow):
            agrees = multi_class_torus(system).value == value
            extras = {"index_sum": value, "oracle_agrees": agrees}
        return ClassValue.integer(value, TORUS_PROVENANCE), extras
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


def render_point(numerators: tuple[int, ...], denominator: int, local_index: int) -> dict:
    return {
        "coordinates": [format_coordinate(v, denominator) for v in numerators],
        "index": local_index,
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
    d, index = points.denominator, points.local_index
    total = index * len(points)
    return {
        "class": render_class(ClassValue.integer(total, TORUS_PROVENANCE)),
        "coincidence_points": [render_point(nums, d, index) for nums in points.numerators],
        "index_sum": total,
        "inputs_echo": document,
    }


def cmd_decide(path: str) -> dict:
    document = load_scenario(path)
    if "decider" not in document:
        raise SchemaError("field decider: the decide command requires this block")
    block = document["decider"]
    # before the class work, which can be exponential in the source dimension
    _check_decider_consistency(document, block)
    value, extras = compute_class(document)
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


# /dev/stdout, /dev/stderr, /dev/fd/N and /proc/<pid>/fd/N name an open stream
_STREAM_NAME = re.compile(r"/(dev/(fd/|std(in|out|err)$)|proc/[^/]+/fd/)")


def _names_a_stream(path: str) -> bool:
    """True when ``path`` is, or links through, a stream name such as /dev/stdout."""
    for _ in range(40):
        path = os.path.abspath(path)
        if _STREAM_NAME.match(path):
            return True
        if not os.path.islink(path):
            return False
        path = os.path.join(os.path.dirname(path), os.readlink(path))
    return False


def write_report(path: str, text: str) -> None:
    """Write ``text`` to ``path``, replacing an existing report atomically.

    A new or existing regular file is written to a uniquely named temporary
    file beside it, flushed to disk and renamed onto it, so a failed or
    interrupted run leaves an earlier report untouched and no temporary file.
    A symlink is followed, so the file it names is replaced, not the link,
    and a replaced file keeps its permission bits (not its owner or ACLs).
    The path is written in place instead where a rename would not replace
    what the path means: a stream name (appended to, so ``>> log`` keeps the
    log), a device or pipe, a file with other hard links, a file the user
    cannot write (so this fails as before) or a file in a directory the user
    cannot write.
    """
    if _names_a_stream(path):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text)
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    try:
        status = os.stat(target)
    except FileNotFoundError:
        status = None
    if status is not None and (
        not stat.S_ISREG(status.st_mode)
        or status.st_nlink > 1
        or not os.access(target, os.W_OK)
        or not os.access(directory, os.W_OK | os.X_OK)
    ):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    temporary = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    handle = open(temporary, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if status is not None:
            os.chmod(temporary, stat.S_IMODE(status.st_mode))
        os.replace(temporary, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        raise
    with contextlib.suppress(OSError):
        # make the rename itself durable where the platform allows it
        descriptor = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it unchanged.

    Only argv with options, help or a usage error needs it (see ``main``),
    so argparse is imported here and not with the module.
    """
    import argparse

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
    if argv is None:
        argv = sys.argv[1:]
    if len(argv) == 2 and argv[0] in _COMMANDS and not argv[1].startswith("-"):
        # "<command> <path>" parses to exactly this without argparse
        command, path, output, quiet = argv[0], argv[1], None, False
    else:
        args = build_parser().parse_args(argv)
        command, path, output, quiet = args.command, args.path, args.output, args.quiet
    try:
        report = _COMMANDS[command](path)
    except CoincidenceLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for t, code in _EXIT_CODES if isinstance(exc, t)), EXIT_SCHEMA)
    text = render_report(report)
    if output:
        try:
            write_report(output, text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
    elif not quiet:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
