"""Self-tests: generator determinism, expected solution levels, the
output check's negative cases, count determinism and the output contract."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from hierplan.core import ExecutionTrace
from hierplan.planner import answer_query, refine

import layers
from spans import Tracer
from streams import EXPECTED_LEVEL, WORKLOADS, Workload, layout_for, make_stream, mix_slots
from verify import check_operation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_built: dict[int, object] = {}


def hierarchy(grid: int):
    if grid not in _built:
        h, violations = layers.build(layout_for(grid), Tracer(False))
        assert violations == []
        _built[grid] = h
    return _built[grid]


def small_stream(grid: int, kind: str, seed: int, size: int = 4):
    workload = Workload("probe", grid, ((kind, 1),), 0, size, 1, 99.0)
    return make_stream(hierarchy(grid).base, layout_for(grid), workload, seed)


def solve(h, sq):
    answer = answer_query(h, sq.query, plan_mode=sq.plan_mode)
    return answer, refine(h, answer.plan, sq.start)


def fingerprint(stream):
    return [
        (sq.kind, sq.plan_mode, sq.level, sq.start, sq.query.starts.bits, sq.query.goals.bits)
        for sq in stream
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stream_is_determined_by_seed(name):
    workload = WORKLOADS[name]
    workload = replace(workload, stream_size=2 * len(mix_slots(workload)))
    base, layout = hierarchy(workload.grid).base, layout_for(workload.grid)
    first = make_stream(base, layout, workload, 3)
    assert fingerprint(first) == fingerprint(make_stream(base, layout, workload, 3))
    assert fingerprint(first) != fingerprint(make_stream(base, layout, workload, 4))
    assert all(sq.start in sq.query.starts for sq in first)


def test_stream_mix_is_exact():
    workload = WORKLOADS["taxi5-abstract"]
    stream = make_stream(hierarchy(5).base, layout_for(5), workload, 1)
    assert len(stream) == workload.stream_size
    total = sum(weight for _, weight in workload.mix)
    for kind, weight in workload.mix:
        of_kind = [sq for sq in stream if sq.kind == kind]
        assert len(of_kind) == workload.stream_size * weight // total
        assert sum(sq.plan_mode == "value-iteration" for sq in of_kind) == len(of_kind) // 4


@pytest.mark.parametrize("grid", [5, 8, 12])
@pytest.mark.parametrize("kind", sorted(EXPECTED_LEVEL))
def test_kind_solves_at_expected_level(grid, kind):
    h = hierarchy(grid)
    for sq in small_stream(grid, kind, seed=grid):
        answer, trace = solve(h, sq)
        assert answer.level_index == EXPECTED_LEVEL[kind]
        assert check_operation(h.base, sq, answer, trace) is None


class TestCheckFlags:
    @pytest.fixture
    def solved(self):
        h = hierarchy(5)
        sq = small_stream(5, "deliver", seed=1)[0]
        answer, trace = solve(h, sq)
        assert check_operation(h.base, sq, answer, trace) is None
        return h, sq, answer, trace

    def test_teleporting_trace(self, solved):
        h, sq, answer, trace = solved
        bad = ExecutionTrace(trace.start, trace.end, 1, 0.0, (trace.start, trace.end))
        assert "no base transition" in check_operation(h.base, sq, answer, bad)

    def test_trace_from_another_start(self, solved):
        h, sq, answer, trace = solved
        visited = trace.visited[1:]
        bad = ExecutionTrace(visited[0], trace.end, len(visited) - 1, 0.0, visited)
        assert "starts at" in check_operation(h.base, sq, answer, bad)

    def test_trace_ending_outside_goals(self, solved):
        h, sq, answer, trace = solved
        visited = trace.visited[:2]  # the passenger is still at depot A
        bad = ExecutionTrace(trace.start, visited[-1], 1, 0.0, visited)
        assert "outside the goal set" in check_operation(h.base, sq, answer, bad)

    def test_wrong_solution_level(self, solved):
        h, sq, answer, trace = solved
        assert "expected 1" in check_operation(h.base, replace(sq, level=1), answer, trace)

    def test_broken_cost_identity(self, solved):
        h, sq, answer, trace = solved
        answer.record.total_ops += 1
        assert "total_ops" in check_operation(h.base, sq, answer, trace)

    def test_missing_answer(self, solved):
        h, sq, _, _ = solved
        assert "None" in check_operation(h.base, sq, None, None)


def test_same_seed_same_counts():
    """Fresh hierarchies and the same seed give identical counts and
    base_steps_mean, however short the window: option statistics and
    earlier runs leave no trace."""
    workload = WORKLOADS["taxi5-abstract"]
    layout = layout_for(5)
    runs = []
    for _ in range(2):
        tracer = Tracer(False)
        setup = layers.SetupResult(layout)
        stream = make_stream(layers.set_up(setup, tracer, True).base, layout, workload, 11)
        queries = layers.query_phase(setup, 2, stream, 0.001, tracer, True)
        replays = layers.replay_setup(setup.hierarchy, layout, tracer)
        assert len(setup.untraced_s) == len(setup.traced_s) == 1
        assert queries.failed == 0
        runs.append((queries.counts, queries.first_pass_steps, replays["counts"]))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == workload.stream_size


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "taxi5-abstract",
         "--seed", "2", "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    done = _run(tmp_path, 0)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
