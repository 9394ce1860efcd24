"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (visible with ``pytest
-s`` or ``-rA``); the test name states the criterion. Run the whole
module with ``pytest tests/test_acceptance.py -v``.
"""

import time

import pytest

from hierplan import (
    MatchPair,
    answer_query,
    build_taxi_hierarchy,
    candidate_goals,
    candidate_starts,
    execute_option,
    partition_option,
    plan_match,
    planning_cost,
    refine,
)
from hierplan.bench import run_benchmark
from hierplan.errors import NoMatch
from hierplan.taxi import benchmark_queries as taxi_queries
from hierplan.taxi import taxi_options_level1

from conftest import random_queries


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


@pytest.fixture(scope="module")
def hierarchy():
    return build_taxi_hierarchy()


@pytest.fixture(scope="module")
def benchmark_queries(hierarchy):
    return taxi_queries(hierarchy.base)


def test_criterion_01_hierarchy_sizes_650_20_4_under_5s():
    t0 = time.perf_counter()
    h = build_taxi_hierarchy()
    elapsed = time.perf_counter() - t0
    sizes = [h.num_states(j) for j in range(h.num_levels + 1)]
    assert sizes == [650, 20, 4]
    assert elapsed < 5.0
    report(f"PASS 1: level sizes {sizes}, built in {elapsed:.2f}s (< 5s)")


def test_criterion_02_query_solution_levels(hierarchy, benchmark_queries):
    levels = {
        name: answer_query(hierarchy, q).level_index
        for name, q in benchmark_queries.items()
    }
    assert levels == {"Q1": 2, "Q2": 1, "Q3": 0}
    report(f"PASS 2: solution levels {levels}")


def test_criterion_03_refinement_sound_for_every_start(hierarchy, benchmark_queries):
    checked = 0
    for name, q in benchmark_queries.items():
        answer = answer_query(hierarchy, q)
        for start in q.starts:
            trace = refine(hierarchy, answer.plan, start)
            assert trace.end in q.goals, f"{name} from {start}"
            checked += 1
    assert checked == 4 + 4 + 1
    report(f"PASS 3: {checked}/9 refined executions ended inside their goal sets")


def test_criterion_04_q1_single_option_plan_and_full_graph(hierarchy, benchmark_queries):
    answer = answer_query(hierarchy, benchmark_queries["Q1"])
    assert answer.level_index == 2
    start = next(iter(answer.plan.starts))
    sequence = answer.plan.action_sequence(start)
    assert sequence == ["passenger-to-red"]
    level2 = hierarchy.level(2)
    assert len(level2.transitions) == 12
    for i in range(4):
        for j in range(4):
            part = level2.parts[j]
            if i != j:
                assert level2.transitions[(i, part.part_id)] == j
    report("PASS 4: Q1 solved by the single option passenger-to-red; "
           "all 12 directed edges present")


def test_criterion_05_partition_counts(hierarchy):
    mdp = hierarchy.base
    counts = {}
    for option in taxi_options_level1(mdp):
        counts[option.name] = len(partition_option(option, mdp).parts)
    assert counts == {
        "drive-to-red": 2,
        "drive-to-green": 2,
        "drive-to-blue": 2,
        "drive-to-yellow": 2,
        "pick-up": 1,
        "put-down": 1,
    }
    report(f"PASS 5: partition counts {counts}")


def test_criterion_06_match_implies_match_below(hierarchy, benchmark_queries):
    h = hierarchy

    def matches_at(q, j):
        try:
            b = candidate_starts(h, j, q.starts)
            g = candidate_goals(h, j, q.goals)
        except NoMatch:
            return False
        return plan_match(h, MatchPair(j, b, g), q)

    suite = list(benchmark_queries.values()) + random_queries(h.base, 100)
    violations = 0
    for q in suite:
        assert answer_query(h, q) is not None, "all suite queries are solvable"
        flags = [matches_at(q, j) for j in range(h.num_levels + 1)]
        for j in range(1, len(flags)):
            if flags[j] and not all(flags[:j]):
                violations += 1
    assert violations == 0
    report(f"PASS 6: 0 violations over {len(suite)} queries "
           "(match at j implies match at every level below)")


def test_criterion_07_image_and_applicability_soundness(hierarchy):
    t0 = time.perf_counter()
    h = hierarchy
    violations = 0
    edges = 0
    for j in (1, 2):
        level = h.level(j)
        below = h.level(j - 1)
        for (s, part_id), t in level.transitions.items():
            edges += 1
            part = level.part(part_id)
            grounding = level.grounding_of(s)
            if not grounding.issubset(part.initiation):
                violations += 1
                continue
            target = level.grounding_of(t)
            for x in grounding:
                end = execute_option(below, part.option, x).end
                if end not in target:
                    violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 10.0
    report(f"PASS 7: {edges} abstract transitions exhaustively sound "
           f"in {elapsed:.2f}s (< 10s)")


def test_criterion_08_timing_orderings(hierarchy, benchmark_queries):
    rows = {r.query: r for r in run_benchmark(hierarchy, benchmark_queries,
                                              repetitions=100)}
    q1 = rows["Q1"].hier_ms / rows["Q1"].flat_ms
    q2 = rows["Q2"].hier_ms / rows["Q2"].flat_ms
    q3 = rows["Q3"].hier_ms / rows["Q3"].flat_ms
    assert q1 <= 0.1, f"Q1 hier/flat = {q1:.3f}"
    assert q2 <= 0.5, f"Q2 hier/flat = {q2:.3f}"
    assert q3 >= 0.9, f"Q3 hier/flat = {q3:.3f}"
    report(f"PASS 8: hier/flat ratios Q1 {q1:.3f} (<= 0.1), "
           f"Q2 {q2:.3f} (<= 0.5), Q3 {q3:.3f} (>= 0.9), means of 100 reps")


def test_criterion_09_cost_formula_matches_counters(hierarchy, benchmark_queries):
    h = hierarchy
    records = {}
    for name, q in benchmark_queries.items():
        rec = answer_query(h, q).record
        assert planning_cost(rec) == rec.total_ops, name
        records[name] = rec
    # top-level case reduces to that level's two terms
    rec1 = records["Q1"]
    assert rec1.first_match_level == rec1.solution_level == h.num_levels
    assert rec1.total_ops == rec1.match_ops[2] + rec1.plan_ops[2]
    # the base-level case sums matching at every level plus base planning,
    # mirroring the levels the search actually visited
    rec3 = records["Q3"]
    assert set(rec3.match_ops) == {0, 1, 2} and set(rec3.plan_ops) == {0}
    assert rec3.total_ops == (
        rec3.match_ops[2] + rec3.match_ops[1] + rec3.match_ops[0] + rec3.plan_ops[0]
    )
    report("PASS 9: recorded cost equals the per-level counter formula "
           "for Q1, Q2, Q3")


def test_criterion_10_absolute_times_out_of_scope():
    """Absolute milliseconds are hardware- and runtime-dependent and are
    not reproduced; criteria 8 and 9 are the property-based substitutes.
    The benchmark documents this contract."""
    import hierplan.bench as bench_mod

    assert "hardware-dependent" in (bench_mod.__doc__ or "")
    report("PASS 10: absolute timing values documented as non-reproducible; "
           "orderings and cost properties stand in")
