import contextlib
import io
import json
import os
import re
import sys
import tempfile
from random import Random
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import random_transverse_system
from coincidence_lab import cli
from coincidence_lab.cli import (
    EXIT_DIMENSION,
    EXIT_OK,
    EXIT_OVERFLOW,
    EXIT_SCHEMA,
    EXIT_TRANSVERSALITY,
    main,
)
from coincidence_lab.decider import JiangType
from coincidence_lab.lefschetz import TorusMapModel, multi_class_torus

GOLDEN_CASES = [
    ("example-7.1-pair.json", "decide", "example-7.1-pair.decide.json"),
    ("example-7.1-triple.json", "decide", "example-7.1-triple.decide.json"),
    ("example-7.2-pair.json", "decide", "example-7.2-pair.decide.json"),
    ("example-7.2-pair.json", "class", "example-7.2-pair.class.json"),
    ("example-7.2-triple.json", "decide", "example-7.2-triple.decide.json"),
    ("example-7.3-pair.json", "decide", "example-7.3-pair.decide.json"),
    ("example-7.3-tuple.json", "decide", "example-7.3-tuple.decide.json"),
    ("torus-diag-2-3.json", "class", "torus-diag-2-3.class.json"),
    ("torus-diag-2-3.json", "solve", "torus-diag-2-3.solve.json"),
    ("torus-diag-2-3.json", "decide", "torus-diag-2-3.decide.json"),
    ("torus-translated.json", "solve", "torus-translated.solve.json"),
    ("torus-unique-point.json", "solve", "torus-unique-point.solve.json"),
    ("torus-negative-index.json", "solve", "torus-negative-index.solve.json"),
    ("sphere-even-pair.json", "class", "sphere-even-pair.class.json"),
]


def run(command, path, capsys):
    code = main([command, str(path)])
    out = capsys.readouterr().out
    return code, out


def write_scenario(tmp_path, document):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


TORUS_DOC = {
    "model": "torus-affine",
    "torus": {
        "source_dim": 2,
        "target_dim": 1,
        "maps": [
            {"matrix": [[0, 0]]},
            {"matrix": [[2, 0]]},
            {"matrix": [[0, 3]]},
        ],
    },
}

TORUS_DECIDER = {
    "k": 3,
    "n": 1,
    "dim_M": 2,
    "M": {"closed": True, "connected": True, "oriented": True},
    "N": {
        "closed": True,
        "connected": True,
        "orientable": True,
        "simply_connected": False,
        "jiang_type": "jiang",
        "aspherical": True,
    },
}


# --- reports ------------------------------------------------------------------


def test_class_reports_value_and_oracle_agreement(tmp_path, capsys):
    path = write_scenario(tmp_path, TORUS_DOC)
    code, out = run("class", path, capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["class"]["kind"] == "integer"
    assert report["class"]["value"] == 6
    assert report["oracle_agrees"] is True
    assert report["index_sum"] == 6


def test_solve_reports_sorted_points(tmp_path, capsys):
    path = write_scenario(tmp_path, TORUS_DOC)
    code, out = run("solve", path, capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    points = [tuple(p["coordinates"]) for p in report["coincidence_points"]]
    assert points == sorted(points)
    assert len(points) == 6
    assert report["index_sum"] == 6


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    path = write_scenario(tmp_path, TORUS_DOC)
    _, first = run("class", path, capsys)
    _, second = run("class", path, capsys)
    assert first == second


def test_output_flag_writes_file_and_quiet_silences(tmp_path, capsys):
    path = write_scenario(tmp_path, TORUS_DOC)
    out_path = tmp_path / "report.json"
    code = main(["class", str(path), "--output", str(out_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    on_disk = out_path.read_text(encoding="utf-8")
    code = main(["class", str(path)])
    assert on_disk == capsys.readouterr().out
    code = main(["class", str(path), "--quiet"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""


def test_sphere_class_report(tmp_path, capsys):
    doc = {"model": "sphere-degrees", "sphere": {"n": 2, "k": 2, "hat_degrees": [3, 5]}}
    code, out = run("class", write_scenario(tmp_path, doc), capsys)
    assert code == EXIT_OK
    assert json.loads(out)["class"]["value"] == 8


OVER_BUDGET_DOC = {
    "model": "torus-affine",
    "torus": {
        "source_dim": 2,
        "target_dim": 2,
        "maps": [
            {"matrix": [[0, 0], [0, 0]]},
            {"matrix": [[3000000000, 1], [2, 3000000000]]},
        ],
    },
}

SINGULAR_DOC = {
    "model": "torus-affine",
    "torus": {
        "source_dim": 2,
        "target_dim": 1,
        "maps": [{"matrix": [[0, 0]]}, {"matrix": [[0, 0]]}, {"matrix": [[1, 1]]}],
    },
}


def test_class_skips_oracle_beyond_enumeration_budget(tmp_path, capsys):
    # the class is cheap to compute even when the point set is astronomical
    code, out = run("class", write_scenario(tmp_path, OVER_BUDGET_DOC), capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["class"]["value"] == 3000000000**2 - 2
    assert "oracle_agrees" not in report


def test_solve_beyond_enumeration_budget_is_exit_5(tmp_path, capsys):
    doc = {
        "model": "torus-affine",
        "torus": {
            "source_dim": 1,
            "target_dim": 1,
            "maps": [{"matrix": [[0]]}, {"matrix": [[30000000]]}],
        },
    }
    code = main(["solve", str(write_scenario(tmp_path, doc))])
    assert code == EXIT_OVERFLOW
    assert "budget" in capsys.readouterr().err


def test_class_skips_oracle_when_not_transverse(tmp_path, capsys):
    code, out = run("class", write_scenario(tmp_path, SINGULAR_DOC), capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["class"]["value"] == 0
    assert "oracle_agrees" not in report


# 4 maps T^3 -> T^1 with det D = 1, so one coincidence point, whose exterior
# product passes through a coefficient of about 3.7e19, past int64 (M = 2^32)
M = 2**32
DET_ONE_DOC = {
    "model": "torus-affine",
    "torus": {
        "source_dim": 3,
        "target_dim": 1,
        "maps": [
            {"matrix": [[0, 0, 0]]},
            {"matrix": [[M, M + 1, 0]]},
            {"matrix": [[-(M + 1), M, 1]]},
            {"matrix": [[1, 1, 0]]},
        ],
    },
    "decider": {**TORUS_DECIDER, "k": 4, "dim_M": 3},
}


def test_det_one_system_answers_though_its_exterior_check_overflows(tmp_path, capsys):
    path = write_scenario(tmp_path, DET_ONE_DOC)
    code, out = run("class", path, capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["class"]["value"] == 1
    assert "index_sum" not in report and "oracle_agrees" not in report
    code, out = run("solve", path, capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["class"]["value"] == report["index_sum"] == 1
    assert [p["coordinates"] for p in report["coincidence_points"]] == [["0", "0", "0"]]
    code, out = run("decide", path, capsys)
    assert code == EXIT_OK
    assert json.loads(out)["verdict"]["decision"] == "NotDeformable"


def test_determinant_past_int64_is_exit_5(tmp_path, capsys):
    doc = {
        "model": "torus-affine",
        "torus": {
            "source_dim": 2,
            "target_dim": 2,
            "maps": [{"matrix": [[0, 0], [0, 0]]}, {"matrix": [[2**62, 0], [0, 4]]}],
        },
    }
    for command in ("class", "solve"):
        assert main([command, str(write_scenario(tmp_path, doc))]) == EXIT_OVERFLOW
        assert "determinant 18446744073709551616" in capsys.readouterr().err


def test_class_and_solve_need_the_exterior_route_only_for_the_check(
    fixtures_dir, tmp_path, capsys, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("the exterior product ran outside the oracle check")

    monkeypatch.setattr(cli, "multi_class_torus", refuse)
    for scenario, command, golden in GOLDEN_CASES:
        if command == "solve":
            code, out = run(command, fixtures_dir / scenario, capsys)
            assert code == EXIT_OK
            assert out.encode("utf-8") == (fixtures_dir / "golden" / golden).read_bytes()
    for doc, value in [(SINGULAR_DOC, 0), (OVER_BUDGET_DOC, 3000000000**2 - 2)]:
        code, out = run("class", write_scenario(tmp_path, doc), capsys)
        assert code == EXIT_OK
        assert json.loads(out)["class"]["value"] == value


def torus_document(system):
    return {
        "model": "torus-affine",
        "torus": {
            "source_dim": system.m,
            "target_dim": system.n,
            "maps": [
                {"matrix": [list(row) for row in a.entries], "translation": [str(t) for t in b]}
                for a, b in zip(system.matrices, system.translations)
            ],
        },
    }


def test_class_equals_the_exterior_class_on_random_systems(tmp_path, capsys):
    rng = Random(15)
    systems = [random_transverse_system(rng) for _ in range(40)]
    for system in systems[:10]:
        # two equal maps make the stacked matrix singular
        j = rng.randrange(1, system.k)
        matrices = list(system.matrices)
        matrices[j] = matrices[rng.randrange(j)]
        systems.append(TorusMapModel.from_matrices(matrices, system.translations))
    singular = 0
    for system in systems:
        code, out = run("class", write_scenario(tmp_path, torus_document(system)), capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["class"]["value"] == multi_class_torus(system).value
        assert report.get("oracle_agrees", True) is True
        singular += "oracle_agrees" not in report
    assert singular == 10


def test_source_dimension_off_the_top_degree_is_exit_3(tmp_path, capsys):
    doc = json.loads(json.dumps(TORUS_DOC))
    doc["torus"]["source_dim"] = 3
    for record in doc["torus"]["maps"]:
        record["matrix"][0].append(1)
    doc["decider"] = dict(TORUS_DECIDER, dim_M=3)
    path = write_scenario(tmp_path, doc)
    for command in ("class", "solve", "decide"):
        assert main([command, str(path)]) == EXIT_DIMENSION
        assert capsys.readouterr().err == (
            "error: source dimension 3 must equal (k-1)*n = 2\n"
        )


# --- golden files -------------------------------------------------------------


@pytest.mark.parametrize("scenario,command,golden", GOLDEN_CASES)
def test_golden_reports(fixtures_dir, tmp_path, scenario, command, golden):
    out_path = tmp_path / "out.json"
    code = main([command, str(fixtures_dir / scenario), "--output", str(out_path)])
    assert code == EXIT_OK
    expected = (fixtures_dir / "golden" / golden).read_bytes()
    assert out_path.read_bytes() == expected


# --- error handling -----------------------------------------------------------


def test_unknown_top_level_field_is_schema_error(tmp_path, capsys):
    doc = dict(TORUS_DOC)
    doc["surprise"] = 1
    code = main(["class", str(write_scenario(tmp_path, doc))])
    assert code == EXIT_SCHEMA
    assert "surprise" in capsys.readouterr().err


def test_missing_payload_is_schema_error(tmp_path, capsys):
    code = main(["class", str(write_scenario(tmp_path, {"model": "torus-affine"}))])
    assert code == EXIT_SCHEMA
    assert "torus" in capsys.readouterr().err


def test_foreign_payload_is_schema_error(tmp_path):
    doc = dict(TORUS_DOC)
    doc["sphere"] = {"n": 2, "k": 2, "hat_degrees": [1, 1]}
    assert main(["class", str(write_scenario(tmp_path, doc))]) == EXIT_SCHEMA


def test_invalid_json_is_schema_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["class", str(path)]) == EXIT_SCHEMA


def test_missing_file_is_schema_error(tmp_path):
    assert main(["class", str(tmp_path / "nope.json")]) == EXIT_SCHEMA


@pytest.mark.parametrize(
    "content",
    [b'{"model": "\xff"}', b'{"model": 1' + b"0" * 5000 + b"}"],
    ids=["not-utf-8", "integer-past-the-digit-limit"],
)
def test_undecodable_file_is_schema_error(tmp_path, capsys, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    assert main(["class", str(path)]) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: scenario file is not valid JSON: ")


def nested(depth):
    return "[" * depth + "]" * depth


def test_deeply_nested_file_is_schema_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    # alone, as an extra key, and as a matrix entry at every depth near the
    # recursion limit, where parsing succeeds and validation recurses instead
    limit = sys.getrecursionlimit()
    texts = [nested(5000), '{"model": "facts", "extra": %s}' % nested(5000)] + [
        '{"model": "torus-affine", "torus": {"source_dim": 1, "target_dim": 1, '
        '"maps": [{"matrix": [[%s]]}, {"matrix": [[1]]}]}}' % nested(depth)
        for depth in range(limit - 300, limit + 1)
    ]
    for text in texts:
        path.write_text(text, encoding="utf-8")
        assert main(["class", str(path)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith("error: ")


def test_bad_rational_string_is_schema_error(tmp_path, capsys):
    doc = {
        "model": "torus-affine",
        "torus": {
            "source_dim": 1,
            "target_dim": 1,
            "maps": [
                {"matrix": [[0]], "translation": ["1/0"]},
                {"matrix": [[2]]},
            ],
        },
    }
    code = main(["class", str(write_scenario(tmp_path, doc))])
    assert code == EXIT_SCHEMA


@pytest.mark.parametrize(
    "translation,fragment",
    [
        # Python's \d takes every Unicode digit; the schema's [0-9] does not
        ("\u0661/2", "is not valid under any of the given schemas"),
        # the schema's $ lets a final newline through; the parser does not
        ("1/2\n", "is not an integer or 'p/q' string"),
    ],
)
def test_rational_takes_ascii_digits_and_nothing_after(tmp_path, capsys, translation, fragment):
    doc = json.loads(json.dumps(TORUS_DOC))
    doc["torus"]["maps"][1]["translation"] = [translation]
    for command in ("class", "solve"):
        assert main([command, str(write_scenario(tmp_path, doc))]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "torus/maps/1/translation/0" in err and fragment in err


def test_solve_rejects_non_torus_models(tmp_path, capsys):
    doc = {"model": "sphere-degrees", "sphere": {"n": 2, "k": 2, "hat_degrees": [3, 5]}}
    code = main(["solve", str(write_scenario(tmp_path, doc))])
    assert code == EXIT_SCHEMA
    assert "model" in capsys.readouterr().err


def test_decide_requires_decider_block(tmp_path, capsys):
    code = main(["decide", str(write_scenario(tmp_path, TORUS_DOC))])
    assert code == EXIT_SCHEMA
    assert "decider" in capsys.readouterr().err


def test_matrix_shape_mismatch_is_dimension_error(tmp_path, capsys):
    doc = {
        "model": "torus-affine",
        "torus": {
            "source_dim": 2,
            "target_dim": 1,
            "maps": [{"matrix": [[0, 0]]}, {"matrix": [[1]]}, {"matrix": [[0, 1]]}],
        },
    }
    code = main(["class", str(write_scenario(tmp_path, doc))])
    assert code == EXIT_DIMENSION
    assert "matrix" in capsys.readouterr().err


def test_model_decider_disagreement_is_dimension_error(tmp_path, capsys):
    doc = json.loads(json.dumps(TORUS_DOC))
    doc["decider"] = {
        "k": 2,
        "n": 1,
        "dim_M": 2,
        "M": {"closed": True, "connected": True, "oriented": True},
        "N": {
            "closed": True,
            "connected": True,
            "orientable": True,
            "simply_connected": False,
            "jiang_type": "jiang",
            "aspherical": True,
        },
    }
    code = main(["decide", str(write_scenario(tmp_path, doc))])
    assert code == EXIT_DIMENSION
    assert "decider/k" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("k", 2), ("n", 2), ("dim_M", 3)])
def test_decider_block_is_checked_before_the_class(tmp_path, capsys, monkeypatch, field, value):
    from coincidence_lab import cli

    def refuse(*args, **kwargs):
        raise AssertionError("decide computed the class before checking its block")

    monkeypatch.setattr(cli, "multi_class_torus", refuse)
    monkeypatch.setattr(cli, "solve_coincidences", refuse)
    doc = json.loads(json.dumps(TORUS_DOC))
    doc["decider"] = dict(TORUS_DECIDER, **{field: value})
    code = main(["decide", str(write_scenario(tmp_path, doc))])
    assert code == EXIT_DIMENSION
    assert f"decider/{field}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "record,expected,fragment",
    [
        # the schema runs while loading, so a bad rational still wins
        ({"matrix": [[2, 0]], "translation": ["1/0"]}, EXIT_SCHEMA, "translation/0"),
        # an overflowing entry is found by the class work, after the block check
        ({"matrix": [[2**63, 0]]}, EXIT_DIMENSION, "decider/k"),
    ],
)
def test_decider_block_precedence(tmp_path, capsys, record, expected, fragment):
    doc = json.loads(json.dumps(TORUS_DOC))
    doc["torus"]["maps"][1] = record
    doc["decider"] = dict(TORUS_DECIDER, k=2)
    code = main(["decide", str(write_scenario(tmp_path, doc))])
    assert code == expected
    assert fragment in capsys.readouterr().err


def test_non_transverse_solve_is_exit_4(tmp_path, capsys):
    code = main(["solve", str(write_scenario(tmp_path, SINGULAR_DOC))])
    assert code == EXIT_TRANSVERSALITY
    assert "determinant 0" in capsys.readouterr().err


@pytest.mark.parametrize("degrees", [[10**29, 5], [2**63 - 1, 5]])
def test_overflowing_sphere_degrees_are_exit_5(tmp_path, capsys, degrees):
    # a degree past int64, and a total past int64 from in-range degrees
    doc = {"model": "sphere-degrees", "sphere": {"n": 2, "k": 2, "hat_degrees": degrees}}
    code = main(["class", str(write_scenario(tmp_path, doc))])
    assert code == EXIT_OVERFLOW
    assert "64-bit" in capsys.readouterr().err


def test_overflowing_entry_is_exit_5(tmp_path, capsys):
    doc = {
        "model": "torus-affine",
        "torus": {
            "source_dim": 1,
            "target_dim": 1,
            "maps": [{"matrix": [[0]]}, {"matrix": [[2**63]]}],
        },
    }
    code = main(["class", str(write_scenario(tmp_path, doc))])
    assert code == EXIT_OVERFLOW
    assert "64-bit" in capsys.readouterr().err


FLOAT_DOCS = {
    # JSON Schema's "integer" type accepts these integral or huge floats
    "integral-float-degree": {
        "model": "sphere-degrees",
        "sphere": {"n": 2, "k": 2, "hat_degrees": [3.0, 5]},
    },
    "huge-float-entry": {
        "model": "torus-affine",
        "torus": {
            "source_dim": 1,
            "target_dim": 1,
            "maps": [{"matrix": [[0]]}, {"matrix": [[1e300]]}],
        },
    },
    "float-dimension": {
        "model": "torus-affine",
        "torus": dict(TORUS_DOC["torus"], target_dim=1.0),
    },
}


@pytest.mark.parametrize("name", sorted(FLOAT_DOCS))
def test_float_literal_is_schema_error(tmp_path, capsys, name):
    code = main(["class", str(write_scenario(tmp_path, FLOAT_DOCS[name]))])
    captured = capsys.readouterr()
    assert code == EXIT_SCHEMA
    assert "float" in captured.err
    assert not re.search(r"\d\.\d|\de[+-]?\d", captured.out)


def test_unwritable_output_is_schema_error(tmp_path, capsys):
    path = write_scenario(tmp_path, TORUS_DOC)
    missing = tmp_path / "missing-dir" / "report.json"
    code = main(["class", str(path), "--output", str(missing)])
    assert code == EXIT_SCHEMA
    assert "error: cannot write report:" in capsys.readouterr().err
    assert not missing.exists()


def test_failed_output_write_keeps_existing_report(tmp_path, capsys, monkeypatch):
    import builtins

    from coincidence_lab import cli

    def open_then_fail_midway(file, *args, **kwargs):
        # a real handle whose write stores half the text, then fails
        handle = builtins.open(file, *args, **kwargs)
        real_write = handle.write

        def write(text):
            real_write(text[: len(text) // 2])
            handle.flush()
            raise OSError(28, "No space left on device")

        handle.write = write
        return handle

    path = write_scenario(tmp_path, TORUS_DOC)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "report.json"
    target.write_text("previous report\n", encoding="utf-8")
    monkeypatch.setattr(cli, "open", open_then_fail_midway, raising=False)
    code = main(["solve", str(path), "--output", str(target)])
    assert code == EXIT_SCHEMA
    assert "error: cannot write report:" in capsys.readouterr().err
    assert target.read_text(encoding="utf-8") == "previous report\n"
    assert [p.name for p in out_dir.iterdir()] == ["report.json"]

    monkeypatch.undo()
    assert main(["solve", str(path), "--output", str(target)]) == EXIT_OK
    assert json.loads(target.read_text(encoding="utf-8"))["index_sum"] == 6
    assert [p.name for p in out_dir.iterdir()] == ["report.json"]


def test_output_follows_symlinks(tmp_path, capsys):
    path = write_scenario(tmp_path, TORUS_DOC)
    real = tmp_path / "real.json"
    real.write_text("previous report\n", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert main(["class", str(path), "--output", str(link)]) == EXIT_OK
    assert link.is_symlink()
    assert json.loads(real.read_text(encoding="utf-8"))["index_sum"] == 6


def test_output_to_a_pipe_is_written_not_replaced(tmp_path, capsys):
    import os
    import stat
    import threading

    path = write_scenario(tmp_path, TORUS_DOC)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []

    def read_pipe():
        with open(pipe, encoding="utf-8") as handle:
            received.append(handle.read())

    reader = threading.Thread(target=read_pipe, daemon=True)
    reader.start()
    assert main(["class", str(path), "--output", str(pipe)]) == EXIT_OK
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert json.loads(received[0])["index_sum"] == 6


def run_cli_process(args, **kwargs):
    import os
    import subprocess
    import sys

    import coincidence_lab

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(coincidence_lab.__file__))
    return subprocess.run(
        [sys.executable, "-m", "coincidence_lab.cli", *args],
        env=env, timeout=60, check=False, **kwargs,
    )


def test_output_to_piped_dev_stdout_is_written(tmp_path):
    import subprocess

    path = write_scenario(tmp_path, TORUS_DOC)
    done = run_cli_process(
        ["class", str(path), "--output", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["index_sum"] == 6
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


def test_output_to_appended_dev_stdout_keeps_the_log(tmp_path):
    path = write_scenario(tmp_path, TORUS_DOC)
    log = tmp_path / "all.log"
    log.write_text("earlier line\n", encoding="utf-8")
    for _ in range(2):
        with open(log, "a", encoding="utf-8") as appended:
            done = run_cli_process(
                ["class", str(path), "--output", "/dev/stdout"], stdout=appended
            )
        assert done.returncode == EXIT_OK
    text = log.read_text(encoding="utf-8")
    assert text.startswith("earlier line\n")
    report = text[len("earlier line\n"):]
    assert report[: len(report) // 2] == report[len(report) // 2:]
    assert json.loads(report[: len(report) // 2])["index_sum"] == 6


def test_stale_temporary_file_does_not_block_output(tmp_path, capsys):
    import os

    path = write_scenario(tmp_path, TORUS_DOC)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    stale = out_dir / f".report.json.{os.getpid()}.tmp"
    stale.write_text("left by a killed run\n", encoding="utf-8")
    target = out_dir / "report.json"
    assert main(["class", str(path), "--output", str(target)]) == EXIT_OK
    assert json.loads(target.read_text(encoding="utf-8"))["index_sum"] == 6
    assert sorted(p.name for p in out_dir.iterdir()) == [stale.name, "report.json"]


def test_replaced_output_keeps_its_permission_bits(tmp_path, capsys):
    import os
    import stat

    path = write_scenario(tmp_path, TORUS_DOC)
    target = tmp_path / "report.json"
    target.write_text("previous report\n", encoding="utf-8")
    target.chmod(0o640)
    before = os.stat(target).st_ino
    assert main(["class", str(path), "--output", str(target)]) == EXIT_OK
    assert os.stat(target).st_ino != before
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o640
    assert json.loads(target.read_text(encoding="utf-8"))["index_sum"] == 6


@pytest.mark.parametrize("case", ["hard-link", "read-only-file", "read-only-directory"])
def test_output_written_in_place_where_a_rename_would_change_the_file(
    tmp_path, capsys, monkeypatch, case
):
    import os

    from coincidence_lab import cli

    path = write_scenario(tmp_path, TORUS_DOC)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "report.json"
    target.write_text("previous report\n", encoding="utf-8")
    if case == "hard-link":
        os.link(target, tmp_path / "other-name.json")
    else:
        # the answer the kernel gives a user without write permission; a
        # superuser is always allowed, so it is imitated here
        denied = str(target if case == "read-only-file" else out_dir)
        real_access = os.access
        monkeypatch.setattr(
            cli.os, "access",
            lambda name, mode: False if str(name) == denied else real_access(name, mode),
        )
    before = os.stat(target).st_ino
    assert main(["class", str(path), "--output", str(target)]) == EXIT_OK
    monkeypatch.undo()
    assert os.stat(target).st_ino == before
    assert json.loads(target.read_text(encoding="utf-8"))["index_sum"] == 6
    assert [p.name for p in out_dir.iterdir()] == ["report.json"]
    if case == "hard-link":
        other = (tmp_path / "other-name.json").read_text(encoding="utf-8")
        assert other == target.read_text(encoding="utf-8")


# 249,500 coincidence points: diag(500, 499) against the zero map of T^2
LARGE_DOC = {
    "model": "torus-affine",
    "torus": {
        "source_dim": 2,
        "target_dim": 2,
        "maps": [{"matrix": [[0, 0], [0, 0]]}, {"matrix": [[500, 0], [0, 499]]}],
    },
    "decider": {**TORUS_DECIDER, "k": 2, "n": 2},
}


def test_class_counts_points_without_building_them(tmp_path, capsys, monkeypatch):
    from coincidence_lab import solver

    def refuse(*args, **kwargs):
        raise AssertionError("class built a CoincidencePoint")

    def refuse_walk(self):
        raise AssertionError("the points were listed")

    monkeypatch.setattr(solver, "CoincidencePoint", refuse)
    monkeypatch.setattr(solver.PointSet, "numerators", property(refuse_walk))
    doc = json.loads(json.dumps(TORUS_DOC))
    doc["torus"]["maps"][1]["translation"] = ["1/2"]
    code, out = run("class", write_scenario(tmp_path, doc), capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["oracle_agrees"] is True
    assert report["index_sum"] == report["class"]["value"] == 6
    path = write_scenario(tmp_path, LARGE_DOC)
    for command in ("class", "decide"):
        code, out = run(command, path, capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["index_sum"] == report["class"]["value"] == 249500
        assert report["oracle_agrees"] is True


def test_class_computes_det_once_on_singular_and_over_budget_systems(
    tmp_path, capsys, monkeypatch
):
    from coincidence_lab.matrices import IntegerMatrix

    det = IntegerMatrix.det
    for doc, value in [(SINGULAR_DOC, 0), (OVER_BUDGET_DOC, 3000000000**2 - 2)]:
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(IntegerMatrix, "det", lambda self: calls.append(self) or det(self))
            code, out = run("class", write_scenario(tmp_path, doc), capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["class"]["value"] == value
        assert "index_sum" not in report and "oracle_agrees" not in report
        assert len(calls) == 1


def test_translation_length_mismatch_is_dimension_error(tmp_path, capsys):
    doc = json.loads(json.dumps(TORUS_DOC))
    doc["torus"]["maps"][1]["translation"] = ["1/2", "1/3"]
    code = main(["class", str(write_scenario(tmp_path, doc))])
    assert code == EXIT_DIMENSION
    assert "translation" in capsys.readouterr().err


def test_ragged_matrix_rows_are_dimension_error(tmp_path, capsys):
    doc = {
        "model": "torus-affine",
        "torus": {
            "source_dim": 2,
            "target_dim": 2,
            "maps": [{"matrix": [[1, 0], [0]]}, {"matrix": [[0, 0], [0, 1]]}],
        },
    }
    code = main(["class", str(write_scenario(tmp_path, doc))])
    assert code == EXIT_DIMENSION
    assert "row" in capsys.readouterr().err


# 4 maps T^9 -> T^3 with det -740, drawn by seed 26 of the benchmark's
# class-oracle workload: the answer is small, but a Smith normal form
# certificate for it reaches an entry of about -2.5e19, past int64.  The
# solver keeps its intermediates as exact integers, so it must answer.
SNF_OVERFLOW_MATRICES = [
    [[1, 0, 0, 1, 1, 1, 1, 0, 0], [1, 0, 0, -1, 1, 1, 1, -1, -1], [0, 1, -1, 0, -1, 1, -1, 0, -1]],
    [[-1, 1, 1, 1, 0, -1, -1, -1, -1], [-1, -1, 1, 0, -1, -1, -1, 0, 0], [0, -1, 1, 0, 0, 0, -1, -1, 0]],
    [[0, 1, 0, -1, 0, 0, 1, 1, -1], [-1, 0, 0, -1, 0, 1, 0, -1, 1], [0, -1, -1, 0, -1, 0, 0, -1, 1]],
    [[-1, 1, 0, 0, 0, -1, 1, 1, 0], [0, 0, 1, 1, -1, -1, 1, 0, -1], [0, 0, 1, -1, -1, 1, -1, -1, 1]],
]


def test_small_det_system_with_overflowing_certificate(tmp_path, capsys):
    doc = {
        "model": "torus-affine",
        "torus": {
            "source_dim": 9,
            "target_dim": 3,
            "maps": [{"matrix": rows} for rows in SNF_OVERFLOW_MATRICES],
        },
    }
    code, out = run("class", write_scenario(tmp_path, doc), capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["class"]["value"] == -740
    assert report["oracle_agrees"] is True


def test_undeclared_fact_identifier_is_schema_error(tmp_path, capsys):
    doc = {
        "model": "facts",
        "facts": {
            "k": 2,
            "maps": [{"id": "a"}, {"id": "b"}],
            "facts": [
                {"kind": "fundamental-class-pullback-vanishes", "map": "ghost"}
            ],
        },
    }
    code = main(["class", str(write_scenario(tmp_path, doc))])
    assert code == EXIT_SCHEMA
    assert "ghost" in capsys.readouterr().err


# --- many commands in one process ----------------------------------------------

MATRIX_ENTRIES = st.integers(-1, 1)
RATIONALS = st.one_of(
    st.integers(-3, 3),
    st.builds("{}/{}".format, st.integers(-5, 5), st.integers(1, 6)),
)


@st.composite
def decider_blocks(draw, k, n, dim_M):
    # a block that mostly agrees with its payload; a mutation may break that
    return {
        "k": k,
        "n": n,
        "dim_M": dim_M,
        "M": {key: draw(st.booleans()) for key in ("closed", "connected", "oriented")},
        "N": {
            **{
                key: draw(st.booleans())
                for key in ("closed", "connected", "orientable", "simply_connected", "aspherical")
            },
            "jiang_type": draw(st.sampled_from([t.value for t in JiangType])),
        },
        "obstruction_known_zero": draw(st.sampled_from([None, True, False])),
        "notes": draw(st.lists(st.text(max_size=8), max_size=2)),
    }


@st.composite
def torus_documents(draw):
    n = draw(st.integers(1, 2))
    k = draw(st.integers(2, 6 // n + 1))
    m = draw(st.sampled_from([(k - 1) * n, (k - 1) * n, min(6, (k - 1) * n + 1)]))
    rows = st.lists(MATRIX_ENTRIES, min_size=m, max_size=m)
    maps = []
    for _ in range(k):
        record = {"matrix": draw(st.lists(rows, min_size=n, max_size=n))}
        if draw(st.booleans()):
            record["translation"] = draw(st.lists(RATIONALS, min_size=n, max_size=n))
        maps.append(record)
    doc = {"model": "torus-affine", "torus": {"source_dim": m, "target_dim": n, "maps": maps}}
    if draw(st.booleans()):
        doc["decider"] = draw(decider_blocks(k, n, m))
    return doc


@st.composite
def sphere_documents(draw):
    n, k = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    degrees = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))
    doc = {
        "model": "sphere-degrees",
        "sphere": {"n": n, "k": k, "hat_degrees": draw(st.lists(degrees, min_size=k, max_size=k))},
    }
    if draw(st.booleans()):
        doc["decider"] = draw(decider_blocks(k, n, draw(st.integers(1, 8))))
    return doc


@st.composite
def facts_documents(draw):
    k = draw(st.integers(2, 3))
    ids = ["f", "g", "h"][:k]
    names = st.sampled_from(ids + ["ghost"])
    fact = st.one_of(
        st.fixed_dictionaries({
            "kind": st.just("pair-class-zero"), "i": st.integers(1, 4), "j": st.integers(1, 4),
        }),
        st.fixed_dictionaries({
            "kind": st.just("cohomology-group-vanishes"),
            "space": st.sampled_from(["X", "Y"]),
            "degree": st.integers(0, 4),
        }),
        st.fixed_dictionaries({
            "kind": st.just("fundamental-class-pullback-vanishes"), "map": names,
        }),
    )
    payload = {"k": k, "facts": draw(st.lists(fact, max_size=3))}
    if draw(st.booleans()):
        payload["maps"] = [{"id": i, "constant": draw(st.booleans())} for i in ids]
    if draw(st.booleans()):
        payload["space"] = {"id": "X", "class_degree": draw(st.integers(0, 4))}
    doc = {"model": "facts", "facts": payload}
    if draw(st.booleans()):
        doc["decider"] = draw(decider_blocks(k, draw(st.integers(1, 4)), draw(st.integers(1, 8))))
    return doc


def locations(node, path=()):
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from locations(child, path + (key,))


MUTATIONS = ["drop", "unknown-key", "wrong-type", "extra-entry", "bad-rational"]


@st.composite
def mutated(draw, doc):
    """One mutation: a dropped key, an unknown key, a wrong type, an extra
    list entry (a shape mismatch) or a bad rational string."""
    doc = json.loads(json.dumps(doc))
    how = draw(st.sampled_from(MUTATIONS))
    wanted = {"unknown-key": dict, "extra-entry": list}.get(how, object)
    where = [p for p, node in locations(doc) if isinstance(node, wanted) and (p or wanted is dict)]
    if not where:
        return doc
    path = draw(st.sampled_from(where))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "drop":
        del parent[path[-1]]
    elif how == "unknown-key":
        (parent[path[-1]] if path else doc)["surprise"] = 1
    elif how == "extra-entry":
        node = parent[path[-1]]
        node.append(json.loads(json.dumps(node[-1])) if node else 0)
    elif how == "wrong-type":
        parent[path[-1]] = draw(st.sampled_from(["x", [], {}, True, None, -1, 2**64]))
    else:
        parent[path[-1]] = draw(st.sampled_from(["1/0", "1/-2", "one", "1.5", "2/3/4"]))
    return doc


DOCUMENTS = st.one_of(torus_documents(), torus_documents(), sphere_documents(), facts_documents())
RAW_FILES = [b"{not json", b'{"model": "\xff"}', b'{"model": 1.5}', b"[" * 3000, b""]
USAGE_ERRORS = [
    [], ["bogus", "{path}"], ["class"], ["solve", "{path}", "x"], ["decide", "{path}", "--output"]
]


@st.composite
def calls(draw):
    """argv for one command, with the bytes of its scenario file (or None)."""
    kind = draw(st.sampled_from(["valid", "valid", "mutated", "mutated", "raw", "usage"]))
    if kind == "usage":
        return draw(st.sampled_from(USAGE_ERRORS)), None
    if kind == "raw":
        content = draw(st.sampled_from(RAW_FILES))
    else:
        doc = draw(DOCUMENTS)
        if kind == "mutated":
            doc = draw(mutated(doc))
        content = json.dumps(doc).encode()
    command = draw(st.sampled_from(["class", "solve", "decide"]))
    return [command, "{path}"] + draw(st.sampled_from([[], ["--quiet"]])), content


def call_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse's usage errors; they are never a report
            assert exc.code == EXIT_SCHEMA and "usage:" in err.getvalue()
            code = "usage"
    return code, out.getvalue(), err.getvalue()


EXIT_CODES = {"usage", EXIT_OK, EXIT_SCHEMA, EXIT_DIMENSION, EXIT_TRANSVERSALITY, EXIT_OVERFLOW}


def reject_float(literal):
    raise AssertionError(f"float {literal} in a report")


@settings(max_examples=100, deadline=None)
@given(st.lists(calls(), min_size=1, max_size=6))
def test_commands_in_one_process_share_no_state(call_list):
    with tempfile.TemporaryDirectory() as directory:
        runs = []
        for index, (argv, content) in enumerate(call_list):
            path = os.path.join(directory, f"scenario-{index}.json")
            if content is not None:
                with open(path, "wb") as handle:
                    handle.write(content)
            runs.append([a.replace("{path}", path) for a in argv])
        results = [call_main(argv) for argv in runs]
        for argv, (code, out, err) in zip(runs, results):
            assert code in EXIT_CODES
            if code == EXIT_OK:
                assert err == ""
                if "--quiet" not in argv:
                    json.loads(out, parse_float=reject_float, parse_constant=reject_float)
            else:
                assert out == ""
                assert code == "usage" or err.startswith("error: ")
        # the same bytes again, in the other order, after all the other calls
        for argv, result in reversed(list(zip(runs, results))):
            assert call_main(argv) == result


# --- the hand-written schema validator ------------------------------------------

# jsonschema is the test oracle: the walker must reproduce its errors
SCHEMA_ORACLE = jsonschema.Draft202012Validator(cli._SCENARIO_SCHEMA)


def walker_errors(document):
    errors = []
    cli._schema_errors(document, cli._SCENARIO_SCHEMA, (), errors)
    return errors


def oracle_errors(document):
    return [(tuple(e.absolute_path), e.message) for e in SCHEMA_ORACLE.iter_errors(document)]


def is_capped(ours, theirs):
    """``ours`` is ``theirs`` with one stretch cut short and marked '...',
    as the cap on echoed values does."""
    cut = ours.find("...")
    while cut != -1:
        head, tail = ours[:cut], ours[cut + 3:]
        if len(theirs) > len(ours) and theirs.startswith(head) and theirs.endswith(tail):
            return True
        cut = ours.find("...", cut + 1)
    return False


def assert_walker_matches_jsonschema(document):
    ours, theirs = walker_errors(document), oracle_errors(document)
    # every error, in jsonschema's order; load_scenario reports the first by path
    assert [path for path, _ in ours] == [path for path, _ in theirs]
    for (_, mine), (_, oracle) in zip(ours, theirs):
        assert mine == oracle or is_capped(mine, oracle), (mine, oracle)
    return ours


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    DOCUMENTS, DOCUMENTS.flatmap(mutated), DOCUMENTS.flatmap(mutated).flatmap(mutated)
))
def test_hand_validator_matches_jsonschema(document):
    assert_walker_matches_jsonschema(document)


FACTS_DOC = {
    "model": "facts",
    "facts": {
        "k": 2,
        "maps": [{"id": "f", "constant": False}, {"id": "g"}],
        "space": {"id": "X", "class_degree": 2},
        "facts": [
            {"kind": "pair-class-zero", "i": 1, "j": 2},
            {"kind": "cohomology-group-vanishes", "space": "X", "degree": 2},
            {"kind": "fundamental-class-pullback-vanishes", "map": "f"},
        ],
    },
    "decider": {**TORUS_DECIDER, "k": 2, "obstruction_known_zero": None, "notes": ["n"]},
}

SPHERE_DOC = {"model": "sphere-degrees", "sphere": {"n": 2, "k": 2, "hat_degrees": [3, 5]}}

TRANSLATED_TORUS_DOC = {
    "model": "torus-affine",
    "torus": {
        "source_dim": 1,
        "target_dim": 1,
        "maps": [{"matrix": [[0]], "translation": ["1/2"]}, {"matrix": [[2]]}],
    },
    "decider": {**TORUS_DECIDER, "k": 2, "dim_M": 1},
}

# every object in the scenario schema, by its path in one of the documents above
OBJECT_PATHS = [
    (TORUS_DOC, ()),
    (TORUS_DOC, ("torus",)),
    (TORUS_DOC, ("torus", "maps", 1)),
    (SPHERE_DOC, ("sphere",)),
    (FACTS_DOC, ("facts",)),
    (FACTS_DOC, ("facts", "maps", 0)),
    (FACTS_DOC, ("facts", "space")),
    (FACTS_DOC, ("facts", "facts", 1)),
    (FACTS_DOC, ("decider",)),
    (FACTS_DOC, ("decider", "M")),
    (FACTS_DOC, ("decider", "N")),
]


def changed(document, path, value):
    """A copy of ``document`` with the node at ``path`` set to ``value``."""
    document = json.loads(json.dumps(document))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return document


def with_extra_keys(document, path, keys):
    document = json.loads(json.dumps(document))
    node = document
    for key in path:
        node = node[key]
    node.update({key: 1 for key in keys})
    return document


TRANSLATION = ("torus", "maps", 0, "translation", 0)
TARGETED = {
    "integer-is-true": (changed(TORUS_DOC, ("torus", "source_dim"), True), False),
    "integer-is-false": (changed(SPHERE_DOC, ("sphere", "k"), False), False),
    "integer-entry-is-true": (changed(TORUS_DOC, ("torus", "maps", 0, "matrix", 0, 0), True), False),
    "boolean-is-1": (changed(FACTS_DOC, ("decider", "M", "closed"), 1), False),
    "boolean-or-null-is-null": (FACTS_DOC, True),
    "boolean-or-null-is-true": (changed(FACTS_DOC, ("decider", "obstruction_known_zero"), True), True),
    "boolean-or-null-is-0": (changed(FACTS_DOC, ("decider", "obstruction_known_zero"), 0), False),
    "boolean-or-null-is-string": (changed(FACTS_DOC, ("decider", "obstruction_known_zero"), "x"), False),
    "rational-integer-branch": (changed(TRANSLATED_TORUS_DOC, TRANSLATION, -3), True),
    "rational-string-branch": (changed(TRANSLATED_TORUS_DOC, TRANSLATION, "-7/3"), True),
    "rational-trailing-newline": (changed(TRANSLATED_TORUS_DOC, TRANSLATION, "1/2\n"), True),
    "rational-non-ascii-digit": (changed(TRANSLATED_TORUS_DOC, TRANSLATION, "\u0661/2"), False),
    "rational-zero-denominator": (changed(TRANSLATED_TORUS_DOC, TRANSLATION, "1/0"), False),
    "rational-is-true": (changed(TRANSLATED_TORUS_DOC, TRANSLATION, True), False),
    "rational-is-list": (changed(TRANSLATED_TORUS_DOC, TRANSLATION, [1]), False),
    "min-items-2": (changed(TORUS_DOC, ("torus", "maps"), [{"matrix": [[1, 0]]}]), False),
    "min-items-1-matrix": (changed(TORUS_DOC, ("torus", "maps", 0, "matrix"), []), False),
    "min-items-1-row": (changed(TORUS_DOC, ("torus", "maps", 0, "matrix", 0), []), False),
    "minimum": (changed(SPHERE_DOC, ("sphere", "n"), 0), False),
    "minimum-and-type-elsewhere": (
        changed(changed(SPHERE_DOC, ("sphere", "n"), 0), ("sphere", "k"), "2"), False
    ),
    "enum-model": (changed(TORUS_DOC, ("model",), "torus"), False),
    "enum-jiang-type": (changed(FACTS_DOC, ("decider", "N", "jiang_type"), 3), False),
    "fact-kind-in-no-branch": (changed(FACTS_DOC, ("facts", "facts", 0, "kind"), "nope"), False),
    "fact-missing-field": (changed(FACTS_DOC, ("facts", "facts", 0), {"kind": "pair-class-zero"}), False),
    "required-several": (changed(FACTS_DOC, ("decider",), {"M": {}}), False),
    "extra-and-required": (changed(SPHERE_DOC, ("sphere",), {"b": 1, "a": 2}), False),
    "capped-min-items": (
        changed(TORUS_DOC, ("torus", "maps"), [{"matrix": [list(range(100))]}]), False
    ),
    "capped-extra-keys": (with_extra_keys(SPHERE_DOC, (), [f"key{i:03}" for i in range(40)]), False),
    **{
        f"extra-{count}-key-at-{'/'.join(map(str, path)) or 'top'}": (
            with_extra_keys(document, path, ["zz", "aa"][:count]), False
        )
        for document, path in OBJECT_PATHS
        for count in (1, 2)
    },
}


@pytest.mark.parametrize("name", sorted(TARGETED))
def test_hand_validator_targeted_cases(name):
    document, valid = TARGETED[name]
    errors = assert_walker_matches_jsonschema(document)
    assert (errors == []) == valid
    assert name.startswith("capped-") == any("..." in message for _, message in errors)


def test_extra_key_messages_are_worded_as_jsonschema(tmp_path, capsys):
    for keys, message in [
        (["zz"], "Additional properties are not allowed ('zz' was unexpected)"),
        (["zz", "aa"], "Additional properties are not allowed ('aa', 'zz' were unexpected)"),
    ]:
        path = write_scenario(tmp_path, with_extra_keys(SPHERE_DOC, ("sphere",), keys))
        assert main(["class", str(path)]) == EXIT_SCHEMA
        assert capsys.readouterr().err == f"error: field sphere: {message}\n"


def test_long_echoed_value_is_capped(tmp_path, capsys):
    doc = changed(TORUS_DOC, ("torus", "source_dim"), list(range(100_000)))
    assert main(["class", str(write_scenario(tmp_path, doc))]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: field torus/source_dim: [0, 1, 2, ")
    assert len(err.encode()) < 1024
    assert err.endswith("... is not of type 'integer'\n")
    assert is_capped(err[len("error: field torus/source_dim: "):-1], oracle_errors(doc)[0][1])


# --- argv without argparse ------------------------------------------------------------


class ParserUsed(Exception):
    pass


class Dispatched(Exception):
    pass


def refuse_parser():
    raise ParserUsed


ARGV_TOKENS = st.sampled_from(
    ["class", "solve", "decide", "bogus", "--output", "X", "--quiet", "-h", "--",
     "-", "-x.json", "--path", "", "scenario.json"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ARGV_TOKENS, max_size=4))
def test_plain_argv_parses_as_argparse_would(argv):
    def command(name):
        def dispatch(path):
            raise Dispatched(name, path)
        return dispatch

    commands = {name: command(name) for name in cli._COMMANDS}
    with mock.patch.object(cli, "_COMMANDS", commands), \
            mock.patch.object(cli, "build_parser", refuse_parser):
        try:
            cli.main(list(argv))
        except ParserUsed:
            return  # argparse handles it, as before
        except Dispatched as exc:
            name, path = exc.args
    namespace = cli.build_parser().parse_args(list(argv))
    assert vars(namespace) == {"command": name, "path": path, "output": None, "quiet": False}


def test_plain_argv_never_builds_the_parser(fixtures_dir, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", refuse_parser)
    assert main(["class", str(fixtures_dir / "torus-diag-2-3.json")]) == EXIT_OK
    golden = (fixtures_dir / "golden" / "torus-diag-2-3.class.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_options_and_usage_errors_go_through_argparse(fixtures_dir, capsys, monkeypatch):
    built, original = [], cli.build_parser

    def counted():
        built.append(True)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    assert main(["class", str(fixtures_dir / "torus-diag-2-3.json"), "--quiet"]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert len(built) == 1
    for argv in (["class"], ["class", "--quiet"], ["bogus", "x.json"], ["class", "-x.json"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_SCHEMA
        assert "usage: coincidence-lab" in capsys.readouterr().err
    assert len(built) == 5


# --- what the command line imports ------------------------------------------------

# jsonschema is made unimportable before anything else runs
WITHOUT_JSONSCHEMA = """
import sys
sys.modules["jsonschema"] = None
from coincidence_lab import cli
loaded_by_import = "coincidence_lab.group_ring" in sys.modules
code = cli.main(sys.argv[1:])
assert not loaded_by_import, "importing the CLI loaded group_ring"
assert "coincidence_lab.group_ring" not in sys.modules, "the command loaded group_ring"
sys.exit(code)
"""


def run_without_jsonschema(script, *args):
    import subprocess

    import coincidence_lab

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(coincidence_lab.__file__))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, timeout=60, check=False, capture_output=True, text=True,
    )


def test_class_runs_without_jsonschema_or_group_ring(fixtures_dir):
    done = run_without_jsonschema(WITHOUT_JSONSCHEMA, "class", str(fixtures_dir / "torus-diag-2-3.json"))
    assert done.returncode == EXIT_OK, done.stderr
    golden = (fixtures_dir / "golden" / "torus-diag-2-3.class.json").read_text(encoding="utf-8")
    assert done.stdout == golden


def test_schema_error_without_jsonschema_matches_in_process(tmp_path, capsys):
    doc = with_extra_keys(TORUS_DOC, ("torus", "maps", 0), ["surprise"])
    path = str(write_scenario(tmp_path, doc))
    assert main(["class", path]) == EXIT_SCHEMA
    in_process = capsys.readouterr().err
    done = run_without_jsonschema(WITHOUT_JSONSCHEMA, "class", path)
    assert done.returncode == EXIT_SCHEMA
    assert done.stderr == in_process
    assert in_process == (
        "error: field torus/maps/0: Additional properties are not allowed "
        "('surprise' was unexpected)\n"
    )


def test_package_exports_resolve_on_first_use():
    script = """
import sys
sys.modules["jsonschema"] = None
import coincidence_lab
assert "coincidence_lab.group_ring" not in sys.modules
from coincidence_lab import AbelianGroupSpec
assert AbelianGroupSpec.__module__ == "coincidence_lab.group_ring"
namespace = {}
exec("from coincidence_lab import *", namespace)
assert sorted(name for name in namespace if name != "__builtins__") == coincidence_lab.__all__
assert set(coincidence_lab.__all__) <= set(dir(coincidence_lab))
print(len(coincidence_lab.__all__))
"""
    done = run_without_jsonschema(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "60\n"
