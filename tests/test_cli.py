import json
import re

import pytest

from coincidence_lab.cli import (
    EXIT_DIMENSION,
    EXIT_OK,
    EXIT_OVERFLOW,
    EXIT_SCHEMA,
    EXIT_TRANSVERSALITY,
    main,
)

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


def test_class_skips_oracle_beyond_enumeration_budget(tmp_path, capsys):
    # the class is cheap to compute even when the point set is astronomical
    doc = {
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
    code, out = run("class", write_scenario(tmp_path, doc), capsys)
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
    doc = {
        "model": "torus-affine",
        "torus": {
            "source_dim": 2,
            "target_dim": 1,
            "maps": [{"matrix": [[0, 0]]}, {"matrix": [[0, 0]]}, {"matrix": [[1, 1]]}],
        },
    }
    code, out = run("class", write_scenario(tmp_path, doc), capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["class"]["value"] == 0
    assert "oracle_agrees" not in report


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


def test_non_transverse_solve_is_exit_4(tmp_path, capsys):
    doc = {
        "model": "torus-affine",
        "torus": {
            "source_dim": 2,
            "target_dim": 1,
            "maps": [{"matrix": [[0, 0]]}, {"matrix": [[0, 0]]}, {"matrix": [[1, 1]]}],
        },
    }
    code = main(["solve", str(write_scenario(tmp_path, doc))])
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
