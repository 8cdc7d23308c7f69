"""Output checker: decides whether one op produced the expected outcome.

It runs outside the timed interval.  It never calls the library: class values
come from the scenario generator's own determinant, and points are verified
against the congruences of the input system in exact integers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from pathlib import Path

from scenarios import Case, stacked

EXIT_OVERFLOW = 5

# A failed op is "refused" when a valid input ends in the documented overflow
# exit, and "wrong" when the program returned a wrong answer or exit code.
REFUSED = "refused"
WRONG = "wrong"


class Mismatch(Exception):
    """The op's output differs from the expected one."""


def check(case: Case, code: int, text: str) -> tuple[str, str] | None:
    """Return None when the op is as expected, else (kind, reason)."""
    if code != case.exit_code:
        kind = REFUSED if code == EXIT_OVERFLOW and case.exit_code == 0 else WRONG
        return kind, f"exit {code}, expected {case.exit_code}"
    if code != 0:
        return None
    try:
        if case.golden is not None:
            if text.encode("utf-8") != Path(case.golden).read_bytes():
                raise Mismatch(f"report differs from {Path(case.golden).name}")
            return None
        report = json.loads(text)
        if report.get("inputs_echo") != case.document:
            raise Mismatch("inputs_echo differs from the scenario document")
        _check_class(case, report["class"])
        if "oracle_agrees" in report:
            if report["oracle_agrees"] is not True or report.get("index_sum") != case.class_value:
                raise Mismatch("oracle disagrees with the class")
        if case.command == "solve":
            _check_points(case, report)
        elif case.command == "decide":
            _check_verdict(report)
    except Mismatch as exc:
        return WRONG, str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return WRONG, f"malformed report: {exc!r}"
    return None


def _check_class(case: Case, cls: dict) -> None:
    if cls["kind"] != case.class_kind:
        raise Mismatch(f"class kind {cls['kind']!r}, expected {case.class_kind!r}")
    if cls["value"] != case.class_value:
        raise Mismatch(f"class value {cls['value']!r}, expected {case.class_value!r}")


def _check_verdict(report: dict) -> None:
    cls = report["class"]
    nonzero = cls["kind"] == "integer" and cls["value"] != 0
    if (report["verdict"]["decision"] == "NotDeformable") != nonzero:
        raise Mismatch(
            f"verdict {report['verdict']['decision']} for class {cls['kind']} {cls['value']}"
        )


def _check_points(case: Case, report: dict) -> None:
    """Exactly |det| distinct sorted points, each solving the system mod 1."""
    mats, translations = case.system
    det = case.class_value
    points = report["coincidence_points"]
    if report["index_sum"] != det:
        raise Mismatch(f"index_sum {report['index_sum']}, expected {det}")
    if len(points) != abs(det):
        raise Mismatch(f"{len(points)} points, expected {abs(det)}")
    sign = 1 if det > 0 else -1
    dens = {1}
    for p in points:
        for c in p["coordinates"]:
            if "/" in c:
                dens.add(int(c[c.index("/") + 1:]))
    big = lcm(*dens)
    rows = stacked(mats)
    # Row j of A_i - A_1 must send x to b_1 - b_i modulo 1.  With x = v / big
    # and b_1 - b_i = u / w this is  w * (row . v) = u * big  (mod w * big).
    targets = []
    for i, mat in enumerate(mats[1:], start=1):
        for r in range(len(mat)):
            diff = Fraction(translations[0][r] - translations[i][r])
            targets.append((diff.denominator, diff.numerator * big, diff.denominator * big))
    previous = None
    for p in points:
        if p["index"] != sign:
            raise Mismatch(f"point index {p['index']}, expected {sign}")
        v = []
        for c in p["coordinates"]:
            num, _, den = c.partition("/")
            value = int(num) * (big // int(den or 1))
            if not 0 <= value < big:
                raise Mismatch(f"coordinate {c} is not in [0, 1)")
            v.append(value)
        v = tuple(v)
        if previous is not None and not previous < v:
            raise Mismatch("points are not sorted and distinct")
        previous = v
        for row, (w, rhs, modulus) in zip(rows, targets):
            if (w * sum(a * x for a, x in zip(row, v)) - rhs) % modulus:
                raise Mismatch(f"point {p['coordinates']} does not solve the system")
