"""Tests of the benchmark itself: generation, checker and tracer.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import run as bench  # noqa: E402
import scenarios  # noqa: E402
from coincidence_lab import cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_same_seed_same_files_other_seed_other_files(workload, tmp_path):
    scenarios.generate(workload, 7, bench.ROOT, tmp_path / "a")
    scenarios.generate(workload, 7, bench.ROOT, tmp_path / "b")
    scenarios.generate(workload, 8, bench.ROOT, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first and first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def test_independent_determinant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    for size in range(1, 9):
        rows = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        assert scenarios.bareiss_det(rows) == sympy.Matrix(rows).det()


def _report(case) -> tuple[int, str]:
    code, text, _, _ = bench.Run(cli).execute(case)
    return code, text


@pytest.fixture
def torus_solve(tmp_path):
    mats = [[[0, 0]], [[2, 0]], [[0, 3]]]
    case = scenarios._torus_case("t", "solve", mats, [[0], ["1/2"], ["1/3"]])
    path = tmp_path / case.path
    path.write_text(json.dumps(case.document), encoding="utf-8")
    case.path = str(path)
    return case


def test_checker_accepts_the_real_solve_report(torus_solve):
    code, text = _report(torus_solve)
    assert code == 0
    assert checker.check(torus_solve, code, text) is None


def test_checker_rejects_a_solve_report_missing_one_point(torus_solve):
    _, text = _report(torus_solve)
    report = json.loads(text)
    report["coincidence_points"].pop(3)
    kind, reason = checker.check(torus_solve, 0, cli.render_report(report))
    assert kind == checker.WRONG and "points" in reason


def test_checker_rejects_a_point_off_the_system(torus_solve):
    _, text = _report(torus_solve)
    report = json.loads(text)
    report["coincidence_points"][0]["coordinates"][0] = "1/7"
    assert checker.check(torus_solve, 0, cli.render_report(report))[0] == checker.WRONG


def test_checker_rejects_a_class_value_off_by_one(torus_solve):
    torus_solve.command = "class"
    code, text = _report(torus_solve)
    assert checker.check(torus_solve, code, text) is None
    report = json.loads(text)
    report["class"]["value"] += 1
    kind, reason = checker.check(torus_solve, 0, cli.render_report(report))
    assert kind == checker.WRONG and "class value" in reason


class _OverflowingCli:
    @staticmethod
    def main(argv):
        return 5


def test_exit_5_on_an_in_budget_oracle_input_is_a_failure(tmp_path):
    case = scenarios.class_oracle(random.Random(1), bench.ROOT)[0]
    assert 0 < abs(case.class_value) <= scenarios.MAX_ENUMERATED_POINTS
    run = bench.Run(_OverflowingCli)
    run.op(case)
    assert (run.attempted, run.failed, run.wrong) == (1, 1, 0)
    assert run.failed_cases == {case.name}
    assert run.live([case]) == []  # counted once, not replayed


def test_every_op_of_a_fixtures_mix_pass_is_as_expected(tmp_path, capsys):
    cases = scenarios.generate("fixtures-mix", 0, bench.ROOT, tmp_path)
    assert {c.exit_code for c in cases} == {0, 2, 3, 4}
    run = bench.Run(cli)
    for case in cases + cases:  # the second pass goes through the digest cache
        run.op(case)
    assert run.failed == 0, capsys.readouterr().out
    assert run.attempted == 2 * len(cases)


def _traced_golden_op():
    case = scenarios.golden_cases(bench.ROOT)[0]
    tracer = Tracer()
    tracer.install()
    try:
        code, text, _, elapsed = bench.Run(cli).execute(case)
    finally:
        tracer.uninstall()
    assert code == 0 and text
    return tracer, elapsed


def test_trace_check_passes_a_real_op_and_rebuilds_its_self_times():
    tracer, elapsed = _traced_golden_op()
    assert tracer.calls["cli.command"] == 1 and tracer.calls["cli.load_scenario"] == 1
    assert all(span is not None for span in tracer.spans)
    assert cli._COMMANDS["class"] is cli.cmd_class  # wrappers removed again
    unattributed, problems = bench.check_trace(tracer, [elapsed])
    # one op of about a millisecond: a preemption may push it past the share
    # that whole runs must meet, so only the record checks are asserted here
    assert [p for p in problems if "outside every top-level span" not in p] == []
    assert 0 <= unattributed < elapsed


def test_trace_check_rejects_uncovered_op_time_and_altered_records():
    tracer, elapsed = _traced_golden_op()
    _, problems = bench.check_trace(tracer, [2 * elapsed])
    assert any("outside every top-level span" in p for p in problems)
    tracer.spans[-1]["end_ns"] += 1000
    _, problems = bench.check_trace(tracer, [elapsed])
    assert any("span records give" in p for p in problems)


def test_benchmark_json_matches_what_the_runs_report():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
