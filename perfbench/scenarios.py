"""Seeded scenario lists for the benchmark workloads.

A workload is one fixed list of cases, a "pass".  Each case names a scenario
document, the subcommand to run on it and the outcome the checker expects.
Everything is drawn from one generator seeded with the workload name and
the seed, so one seed always gives byte-identical scenario files, and the
program only ever sees those files.

The expected outcomes are computed here, independently of the library:
determinants by this module's own fraction-free elimination, sphere classes
by their defining alternating sum, and fact classes by construction.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# The library's enumeration budget; duplicated so that the benchmark does not
# read its inputs' definition from the code under test.
MAX_ENUMERATED_POINTS = 250_000

WORKLOADS = ("fixtures-mix", "class-oracle")


@dataclass
class Case:
    """One op: run ``command`` on ``path`` and expect ``exit_code``.

    For exit 0 the checker uses whichever of ``golden``, ``class_kind`` and
    ``system`` is set.  ``system`` holds the integer matrices and the
    translations (as Fractions) of a torus document.
    """

    name: str
    command: str
    path: str
    exit_code: int = 0
    document: dict | None = None
    golden: str | None = None
    class_kind: str | None = None
    class_value: int | None = None
    system: tuple | None = field(default=None, repr=False)


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination on unbounded ints."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for t in range(n - 1):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, n) if a[i][t]), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def stacked(mats: list[list[list[int]]]) -> list[list[int]]:
    """Rows of A_i - A_1 for i = 2..k."""
    first = mats[0]
    return [
        [x - y for x, y in zip(row, row1)]
        for mat in mats[1:]
        for row, row1 in zip(mat, first)
    ]


def torus_document(mats, translations=None) -> dict:
    maps = []
    for i, mat in enumerate(mats):
        record = {"matrix": mat}
        if translations is not None:
            record["translation"] = translations[i]
        maps.append(record)
    return {
        "model": "torus-affine",
        "torus": {"source_dim": len(mats[0][0]), "target_dim": len(mats[0]), "maps": maps},
    }


def _random_rational(rng: random.Random):
    q = rng.randint(1, 6)
    p = rng.randint(-q, 2 * q)
    return p if q == 1 else f"{p}/{q}"


def _random_matrices(rng, m, n, k, lo, hi):
    return [[[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)] for _ in range(k)]


def _torus_case(name, command, mats, translations=None, exit_code=0) -> Case:
    doc = torus_document(mats, translations)
    fractions = [
        tuple(Fraction(t) for t in (translations[i] if translations else [0] * len(mats[0])))
        for i in range(len(mats))
    ]
    det = bareiss_det(stacked(mats))
    return Case(
        name, command, name + ".json", exit_code, doc,
        class_kind="integer", class_value=det, system=(mats, fractions),
    )


def _decider_block(rng, k, n, dim_m) -> dict:
    def flag():  # mostly well-formed manifolds, so some rules can fire
        return rng.random() < 0.8

    return {
        "k": k,
        "n": n,
        "dim_M": dim_m,
        "M": {"closed": flag(), "connected": flag(), "oriented": flag()},
        "N": {
            "closed": flag(),
            "connected": flag(),
            "orientable": flag(),
            "simply_connected": rng.random() < 0.5,
            "jiang_type": rng.choice(
                ["none", "jiang", "nilmanifold", "compact-lie-coset", "c-nilpotent-finite-center"]
            ),
            "aspherical": rng.random() < 0.5,
        },
        "obstruction_known_zero": rng.choice([None, True, False]),
    }


# --- fixtures-mix ---------------------------------------------------------------

# Valid small torus shapes (m, n) with m = (k-1) n and m <= 4.
_SMALL_TORUS = [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (4, 2)]
# Keeps every small torus command near the ~2 ms of the others: without it
# a few seeds draw systems with thousands of points, which then set the mix.
SMALL_MAX_DET = 24
_COMMANDS = ("class", "solve", "decide")
# Documents per model in a pass.  The seeded documents differ in cost; more
# of them make a pass's time depend less on which ones a seed draws.
SMALL_DRAWS = 48


def golden_cases(root: Path) -> list[Case]:
    """Every golden report ``<stem>.<command>.json`` with its fixture."""
    cases = []
    for golden in sorted((root / "fixtures" / "golden").glob("*.json")):
        stem, command = golden.stem.rsplit(".", 1)
        cases.append(
            Case(
                f"golden:{stem}.{command}", command,
                str(root / "fixtures" / f"{stem}.json"), golden=str(golden),
            )
        )
    return cases


def _sphere_case(rng, i) -> Case:
    k = rng.randint(2, 4)
    n = rng.randint(1, 4)
    hats = [rng.randint(-9, 9) for _ in range(k)]
    value = sum((-1) ** (i_ * n) * hats[k - 1 - i_] for i_ in range(k))
    doc = {"model": "sphere-degrees", "sphere": {"n": n, "k": k, "hat_degrees": hats}}
    doc["decider"] = _decider_block(rng, k, n, (k - 1) * n)
    name = f"sphere-{i:03d}"
    return Case(name, ("class", "decide")[i % 2], name + ".json", 0, doc,
                class_kind="integer", class_value=value)


def _facts_case(rng, i) -> Case:
    k = rng.randint(2, 4)
    ids = [f"f{j}" for j in range(1, k + 1)]
    constant = {x for x in ids if rng.random() < 0.3}
    degree = rng.randint(1, 3)
    facts, forcing = [], False
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(3)
        if kind == 0:
            a, b = rng.sample(range(1, k + 1), 2)
            facts.append({"kind": "pair-class-zero", "i": a, "j": b})
            forcing = True
        elif kind == 1:
            d = rng.randint(0, 3)
            facts.append({"kind": "cohomology-group-vanishes", "space": "X", "degree": d})
            forcing |= d == degree
        else:
            target = rng.choice(ids)
            facts.append({"kind": "fundamental-class-pullback-vanishes", "map": target})
            forcing |= any(c != target for c in constant)
    payload = {
        "k": k,
        "maps": [{"id": x, "constant": x in constant} for x in ids],
        "space": {"id": "X", "class_degree": degree},
        "facts": facts,
    }
    doc = {"model": "facts", "facts": payload, "decider": _decider_block(rng, k, degree, 4)}
    name = f"facts-{i:03d}"
    return Case(name, ("class", "decide")[i % 2], name + ".json", 0, doc,
                class_kind="zero" if forcing else "unknown")


def _small_torus_case(rng, i) -> Case:
    m, n = _SMALL_TORUS[i % len(_SMALL_TORUS)]
    k = m // n + 1
    command = _COMMANDS[i % 3]
    while True:
        mats = _random_matrices(rng, m, n, k, -2, 2)
        det = bareiss_det(stacked(mats))
        if abs(det) <= SMALL_MAX_DET and (det or command != "solve"):
            break
    translations = [[_random_rational(rng) for _ in range(n)] for _ in range(k)]
    case = _torus_case(f"torus-{i:03d}", command, mats, translations)
    case.document["decider"] = _decider_block(rng, k, n, m)
    return case


def _invalid_case(rng, i) -> Case:
    m, n = _SMALL_TORUS[i % 4]
    k = m // n + 1
    kind = i % 3
    if kind == 2:  # singular system: two equal maps make a zero row
        mats = _random_matrices(rng, m, n, k, -3, 3)
        mats[1] = [list(r) for r in mats[0]]
        return _torus_case(f"singular-{i:03d}", "solve", mats, exit_code=4)
    mats = _random_matrices(rng, m, n, k, -3, 3)
    doc = torus_document(mats)
    if kind == 0:  # unknown field
        doc["torus"]["maps"][rng.randrange(k)]["colour"] = "red"
        name, exit_code = f"unknown-field-{i:03d}", 2
    else:  # shape mismatch: one row one entry too long
        doc["torus"]["maps"][rng.randrange(k)]["matrix"][0].append(1)
        name, exit_code = f"shape-{i:03d}", 3
    # decide would stop first at the missing decider block (exit 2)
    return Case(name, rng.choice(("class", "solve")), name + ".json", exit_code, doc)


def fixtures_mix(rng, root) -> list[Case]:
    """14 golden pairs, 3 * ``SMALL_DRAWS`` seeded valid documents and
    ``SMALL_DRAWS`` / 2 invalid ones, interleaved."""
    generated = []
    for i in range(SMALL_DRAWS):
        generated += [_sphere_case(rng, i), _facts_case(rng, i), _small_torus_case(rng, i)]
        if i % 2:
            generated.append(_invalid_case(rng, i // 2))
    goldens = golden_cases(root)
    cases = []
    for i, case in enumerate(generated):
        cases.append(case)
        if i % 3 == 2 and goldens:
            cases.append(goldens.pop(0))
    return cases + goldens


# --- class-oracle ----------------------------------------------------------------


# Shapes (m, n) and draws per shape.  n runs through 1, 2, 3, 4 with m = 8
# or 9, the sizes where one class takes 5-25 ms, so that each case is
# replayed often enough in a run for its fastest replay to be steady on a
# shared host.  At m = 12 the int64 normal-form certificate overflows (exit 5)
# on about a fifth of the in-budget draws, and a workload must be one on
# which ops do not fail; at m = 8-9 certificates stay far below 64 bits.
ORACLE_SHAPES = ((8, 1, 36), (8, 2, 36), (9, 3, 36), (8, 4, 36))
# Draws with |det| above this are redrawn (it keeps the largest enumeration
# of a pass from depending on the seed).
ORACLE_MAX_DET = 3_000
ORACLE_POOL = 4


def class_oracle(rng, root) -> list[Case]:
    """Systems of ``ORACLE_SHAPES`` with entries in {-1, 0, 1}, 0 < |det| <= 3,000.

    For each shape the pass keeps every ``ORACLE_POOL``-th draw of a pool
    sorted by |det|, so every seed gets the same spread of sizes.  Draws are
    kept or redrawn on |det| alone, never on whether the program fails on
    them.
    """
    cases = []
    for m, n, draws in ORACLE_SHAPES:
        k = m // n + 1
        pool = []
        while len(pool) < draws * ORACLE_POOL:
            mats = _random_matrices(rng, m, n, k, -1, 1)
            det = bareiss_det(stacked(mats))
            if 0 < abs(det) <= ORACLE_MAX_DET:
                pool.append((abs(det), mats))
        pool.sort(key=lambda draw: draw[0])
        cases += [
            _torus_case(f"oracle-m{m}n{n}-{i:03d}", "class", mats)
            for i, (_, mats) in enumerate(pool[ORACLE_POOL // 2::ORACLE_POOL])
        ]
    return cases


GENERATORS = {
    "fixtures-mix": fixtures_mix,
    "class-oracle": class_oracle,
}


def generate(workload: str, seed: int, root: Path, workdir: Path) -> list[Case]:
    """Build the workload's pass for ``seed`` and write its scenario files."""
    rng = random.Random(f"{workload}:{seed}")
    cases = GENERATORS[workload](rng, root)
    workdir.mkdir(parents=True, exist_ok=True)
    for case in cases:
        if case.document is not None:
            path = workdir / case.path
            path.write_text(json.dumps(case.document, indent=1) + "\n", encoding="utf-8")
            case.path = str(path)
    return cases
