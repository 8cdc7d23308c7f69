"""Timing wrappers installed around the library's layer entry points.

The CLI resolves these names at call time (module globals, the command table
and one class attribute), so replacing them from here times every call into a
layer without touching a source file.  Each wrapper either opens a span
(name, start, end, parent; all spans of one op share its id) or, for calls
made once per point or per minor, adds a count and a total to its parent.

A span's self time is its duration minus the time its children cover.  The
tracer keeps everything in memory; ``write`` dumps it when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id = 0  # set by the caller before each op
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # --- recording -------------------------------------------------------------

    def span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            frame = [len(self.spans), 0, {}]  # id, child ns, aggregates
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)  # reserve the id
            self._stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, frame, parent, start, _clock())
                raise
            end = _clock()
            self._close(name, frame, parent, start, end)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def aggregate(self, name, fn):
        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                self.self_ns[name] += elapsed
                self.calls[name] += 1
                if self._stack:
                    frame = self._stack[-1]
                    frame[1] += elapsed
                    agg = frame[2].setdefault(name, [0, 0])
                    agg[0] += 1
                    agg[1] += elapsed

        return wrapper

    def _close(self, name, frame, parent, start, end):
        self._stack.pop()
        span_id, child_ns, aggregates = frame
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration
        self.spans[span_id] = {
            "op": self.op_id, "id": span_id, "parent": parent, "name": name,
            "start_ns": start, "end_ns": end,
            "aggregates": {k: {"calls": c, "total_ns": t} for k, (c, t) in aggregates.items()},
        }

    # --- installation ----------------------------------------------------------

    def patch(self, owner, attr, wrapper_factory, name, **hooks):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        wrapped = wrapper_factory(name, original, **hooks)
        self._undo.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)

    def install(self):
        from coincidence_lab import cli, lefschetz, matrices, solver

        span, agg = self.span, self.aggregate
        for command in list(cli._COMMANDS):
            self.patch(cli._COMMANDS, command, span, "cli.command")
        self.patch(cli, "build_parser", span, "cli.build_parser")
        self.patch(cli, "load_scenario", span, "cli.load_scenario")
        self.patch(cli, "build_affine_maps", span, "cli.build_affine_maps")
        self.patch(cli, "multi_class_torus", span, "lefschetz.multi_class_torus")
        self.patch(cli, "sphere_class", span, "lefschetz.sphere_class")
        self.patch(cli, "class_from_facts", span, "lefschetz.class_from_facts")
        self.patch(cli, "decide", span, "decider.decide")
        self.patch(lefschetz, "pullback", span, "exterior.pullback")
        self.patch(lefschetz, "wedge", span, "exterior.wedge", on_result=_count_terms)
        self.patch(cli, "stacked_difference", span, "solver.stacked_difference")
        self.patch(solver, "stacked_difference", span, "solver.stacked_difference")
        self.patch(cli, "solve_coincidences", span, "solver.solve_coincidences",
                   on_result=_count_points)
        self.patch(solver, "smith_normal_form", span, "snf.smith_normal_form",
                   on_result=_certificate_bits)
        self.patch(solver, "CoincidencePoint", agg, "solver.CoincidencePoint")
        self.patch(matrices.IntegerMatrix, "det", agg, "matrices.det")
        self.patch(cli, "render_point", agg, "cli.render_point")
        self.patch(cli, "render_report", span, "cli.render_report", on_result=_count_bytes)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _count_terms(tracer, result):
    tracer.counters["exterior.wedge.terms_out"] += len(result.terms)


def _count_points(tracer, result):
    tracer.counters["solver.points"] += len(result)


def _count_bytes(tracer, result):
    tracer.counters["cli.report_bytes"] += len(result)  # reports are ASCII JSON


def _certificate_bits(tracer, result):
    bits = max(abs(x).bit_length() for m in (result.U, result.V) for row in m.entries for x in row)
    tracer.counters["snf.cert_max_bits"] = max(tracer.counters["snf.cert_max_bits"], bits)
