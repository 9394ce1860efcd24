"""Benchmark harness: row structure, mode consistency, output formats."""

import json

import pytest

from hierplan import action_sequence, findplan, flatten_options
from hierplan.bench import CSV_HEADER, rows_to_csv, rows_to_json, run_benchmark


@pytest.fixture(scope="module")
def rows(request):
    import hierplan

    h = hierplan.build_taxi_hierarchy()
    queries = hierplan.benchmark_queries(h.base)
    return run_benchmark(h, queries, repetitions=5)


class TestRows:
    def test_one_row_per_query_with_levels(self, rows):
        assert [r.query for r in rows] == ["Q1", "Q2", "Q3"]
        assert [r.level for r in rows] == [2, 1, 0]

    def test_hier_total_is_match_plus_plan(self, rows):
        for r in rows:
            assert r.hier_ms == pytest.approx(r.match_ms + r.plan_ms, rel=1e-9)

    def test_timings_positive(self, rows):
        for r in rows:
            assert r.match_ms > 0 and r.plan_ms > 0
            assert r.options_ms > 0 and r.flat_ms > 0


class TestFlattenedSMDP:
    def test_option_endpoints_real(self, taxi_hierarchy):
        base = taxi_hierarchy.base
        smdp = flatten_options(taxi_hierarchy)
        assert smdp.actions[: len(base.actions)] == base.actions
        extra_actions = smdp.actions[len(base.actions):]
        assert any(a.startswith("drive-to-") for a in extra_actions)
        assert any(a.startswith("passenger-to-") for a in extra_actions)
        extra_edges = {
            (s, a): t for (s, a), t in smdp.transition.items() if a in extra_actions
        }
        assert len(smdp.transition) == len(base.transition) + len(extra_edges)
        space = base.space
        for (s, a), t in list(extra_edges.items())[:50]:
            if a.startswith("drive-to-red"):
                asg = space.assignment(t)
                assert (asg[0], asg[1]) == (0, 4)

    def test_flattened_plans_are_shorter_or_equal(self, taxi_hierarchy, queries):
        smdp = flatten_options(taxi_hierarchy)
        q = queries["Q1"]
        with_options = findplan(smdp, q.starts, q.goals)
        flat = findplan(taxi_hierarchy.base, q.starts, q.goals)
        assert with_options is not None and flat is not None
        for s in q.starts:
            assert len(action_sequence(smdp, with_options, s)) <= len(
                action_sequence(taxi_hierarchy.base, flat, s)
            )


class TestOutputs:
    def test_csv_header_and_shape(self, rows):
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert all(len(line.split(",")) == 7 for line in lines[1:])

    def test_json_round_trips(self, rows):
        data = json.loads(rows_to_json(rows))
        assert [d["query"] for d in data] == ["Q1", "Q2", "Q3"]
        assert all(set(d) == {
            "query", "level", "match_ms", "plan_ms", "hier_ms", "options_ms",
            "flat_ms",
        } for d in data)
