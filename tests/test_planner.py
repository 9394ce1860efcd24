"""Candidate construction, plan matching, plan search, query answering,
refinement, and cost instrumentation."""

import pytest

from hierplan import (
    GroundingSet,
    Hierarchy,
    MatchPair,
    Option,
    PlanQuery,
    answer_query,
    candidate_goals,
    candidate_starts,
    execute_refined,
    findplan,
    findplan_value_iteration,
    load_domain,
    plan_match,
    planning_cost,
    refine,
)
from hierplan.errors import InconsistentRecord, NoMatch, RefinementFault
from hierplan.planner import InstrumentationRecord

from conftest import random_queries, state_of


def level2_node(h, depot):
    return h.level(2).space.labels.index(f"passenger-to-{depot}")


class TestCandidates:
    def test_q1_level2_start_candidate_is_blue_node(self, taxi_hierarchy, queries):
        b = candidate_starts(taxi_hierarchy, 2, queries["Q1"].starts)
        assert set(b) == {level2_node(taxi_hierarchy, "blue")}
        # the query's starts sit inside the node's base grounding
        assert queries["Q1"].starts.issubset(taxi_hierarchy.final_ground(2, b))

    def test_q1_level2_goal_candidate_is_red_node(self, taxi_hierarchy, queries):
        g = candidate_goals(taxi_hierarchy, 2, queries["Q1"].goals)
        assert set(g) == {level2_node(taxi_hierarchy, "red")}

    def test_q2_level1_start_candidates_are_four_depot_states(
        self, taxi_hierarchy, queries
    ):
        h = taxi_hierarchy
        b = candidate_starts(h, 1, queries["Q2"].starts)
        assert len(b) == 4
        space1 = h.level(1).space
        for s in b:
            asg = space1.assignment(s)
            assert (asg[2], asg[3], asg[4]) == (3, 0, False)  # passenger at blue

    def test_q3_level1_start_candidate_is_singleton(self, taxi_hierarchy, queries):
        b = candidate_starts(taxi_hierarchy, 1, queries["Q3"].starts)
        assert len(b) == 1
        asg = taxi_hierarchy.level(1).space.assignment(next(iter(b)))
        assert asg == (0, 4, 3, 0, False)

    def test_q3_level2_goal_has_no_match(self, taxi_hierarchy, queries):
        with pytest.raises(NoMatch):
            candidate_goals(taxi_hierarchy, 2, queries["Q3"].goals)

    def test_q2_level2_goal_has_no_match(self, taxi_hierarchy, queries):
        with pytest.raises(NoMatch):
            candidate_goals(taxi_hierarchy, 2, queries["Q2"].goals)

    def test_q3_goal_invisible_to_level1(self, taxi_hierarchy, queries):
        """Every level-1 grounding pins the passenger to a depot, so all
        of them are disjoint from a goal at a non-depot cell."""
        h = taxi_hierarchy
        for s in range(h.num_states(1)):
            assert h.final_grounding_of(1, s).isdisjoint(queries["Q3"].goals)
        with pytest.raises(NoMatch):
            candidate_goals(h, 1, queries["Q3"].goals)

    def test_goal_candidate_for_full_goal_set_is_everything(self, taxi_hierarchy):
        everything = GroundingSet.of(0, taxi_hierarchy.base.space.states)
        for j in (1, 2):
            g = candidate_goals(taxi_hierarchy, j, everything)
            assert len(g) == taxi_hierarchy.num_states(j)

    def test_start_candidate_coverage_failure(self, taxi_hierarchy):
        # a start set touching states outside every level-2 grounding
        stray = GroundingSet.of(0, {state_of(taxi_hierarchy.base, 2, 2, 1, 1)})
        with pytest.raises(NoMatch):
            candidate_starts(taxi_hierarchy, 2, stray)

    def test_candidates_deterministic(self, taxi_hierarchy, queries):
        q = queries["Q1"]
        assert candidate_starts(taxi_hierarchy, 2, q.starts) == candidate_starts(
            taxi_hierarchy, 2, q.starts
        )
        assert candidate_goals(taxi_hierarchy, 1, q.goals) == candidate_goals(
            taxi_hierarchy, 1, q.goals
        )


class TestPlanMatch:
    def test_q1_level2_pair_matches(self, taxi_hierarchy, queries):
        pair = MatchPair(
            2,
            GroundingSet.of(2, {level2_node(taxi_hierarchy, "blue")}),
            GroundingSet.of(2, {level2_node(taxi_hierarchy, "red")}),
        )
        assert plan_match(taxi_hierarchy, pair, queries["Q1"])

    def test_q2_no_level2_pair_matches(self, taxi_hierarchy, queries):
        q = queries["Q2"]
        for b_bits in range(16):
            for g_bits in range(16):
                pair = MatchPair(
                    2, GroundingSet(2, b_bits), GroundingSet(2, g_bits)
                )
                assert not plan_match(taxi_hierarchy, pair, q)

    def test_empty_start_candidate_never_matches(self, taxi_hierarchy, queries):
        pair = MatchPair(2, GroundingSet.empty(2), GroundingSet.of(2, {0}))
        assert not plan_match(taxi_hierarchy, pair, queries["Q1"])


class TestFindplan:
    def test_level2_plan_is_single_option(self, taxi_hierarchy):
        h = taxi_hierarchy
        blue = level2_node(h, "blue")
        red = level2_node(h, "red")
        plan = findplan(
            h.level(2), GroundingSet.of(2, {blue}), GroundingSet.of(2, {red})
        )
        assert plan is not None
        assert plan.action_sequence(blue) == ["passenger-to-red"]

    def test_q2_level1_policy_drives_to_yellow(self, taxi_hierarchy, queries):
        h = taxi_hierarchy
        b = candidate_starts(h, 1, queries["Q2"].starts)
        g = candidate_goals(h, 1, queries["Q2"].goals)
        plan = findplan(h.level(1), b, g)
        assert plan is not None
        for s in b:
            seq = plan.action_sequence(s)
            assert len(seq) <= 1
            if seq:
                assert seq[0].startswith("drive-to-yellow")

    def test_unreachable_goal_returns_none(self, taxi_hierarchy):
        h = taxi_hierarchy
        # goal set empty of incoming edges: no level-2 node reaches itself
        blue = level2_node(h, "blue")
        plan = findplan(
            h.level(2), GroundingSet.of(2, {blue}), GroundingSet.of(2, {blue})
        )
        assert plan is not None  # blue is already a goal
        assert plan.action_sequence(blue) == []

    def test_some_start_cannot_reach(self):
        from hierplan import BaseMDP, StateSpace

        space = StateSpace(level_index=0, num_states=3)
        mdp = BaseMDP(
            space=space,
            actions=("go",),
            transition={(0, "go"): 1},
            reward={(0, "go"): -1.0},
        )
        plan = findplan(mdp, GroundingSet.of(0, {0, 2}), GroundingSet.of(0, {1}))
        assert plan is None

    def test_value_iteration_agrees_on_feasibility(self, taxi_hierarchy, queries):
        h = taxi_hierarchy
        for q in queries.values():
            bfs = findplan(h.base, q.starts, q.goals)
            vi = findplan_value_iteration(h.base, q.starts, q.goals)
            assert (bfs is None) == (vi is None)
            if vi is not None:
                for s in list(q.starts)[:3]:
                    seq = vi.action_sequence(s)
                    state = s
                    for a in seq:
                        state, _ = h.base.step(state, a)
                    assert state in q.goals


class TestAnswerQuery:
    def test_solution_levels(self, taxi_hierarchy, queries):
        assert answer_query(taxi_hierarchy, queries["Q1"]).level_index == 2
        assert answer_query(taxi_hierarchy, queries["Q2"]).level_index == 1
        assert answer_query(taxi_hierarchy, queries["Q3"]).level_index == 0

    def test_returned_level_is_highest_solvable(self, taxi_hierarchy, queries):
        """No level above the answer has both a match and a plan."""
        h = taxi_hierarchy
        for q in queries.values():
            answered = answer_query(h, q).level_index
            for j in range(h.num_levels, answered, -1):
                try:
                    b = candidate_starts(h, j, q.starts)
                    g = candidate_goals(h, j, q.goals)
                except NoMatch:
                    continue
                pair = MatchPair(j, b, g)
                if plan_match(h, pair, q):
                    assert findplan(h.level(j), b, g) is None

    def test_at_level_starts_search_lower(self, taxi_hierarchy, queries):
        answer = answer_query(taxi_hierarchy, queries["Q1"], at_level=1)
        assert answer.level_index == 1
        assert answer.record.search_top == 1

    def test_value_iteration_mode(self, taxi_hierarchy, queries):
        for name, expected in (("Q1", 2), ("Q2", 1), ("Q3", 0)):
            answer = answer_query(
                taxi_hierarchy, queries[name], plan_mode="value-iteration"
            )
            assert answer.level_index == expected

    def test_unsolvable_query_returns_none(self):
        from hierplan import BaseMDP, Hierarchy, StateSpace

        space = StateSpace(level_index=0, num_states=2)
        mdp = BaseMDP(
            space=space,
            actions=("go",),
            transition={(0, "go"): 1, (1, "go"): 1},
            reward={(0, "go"): -1.0, (1, "go"): -1.0},
        )
        h = Hierarchy(base=mdp)
        q = PlanQuery(GroundingSet.of(0, {1}), GroundingSet.of(0, {0}))
        assert answer_query(h, q) is None

    def test_false_positive_match_falls_through(self):
        """A level can match a query yet have no plan (its graph is
        disconnected); the search must pay for the failed attempt and
        drop to the level below."""
        from hierplan import BaseMDP, Hierarchy, Option, StateSpace

        space = StateSpace(level_index=0, num_states=4)
        transition = {(0, "go"): 1, (1, "go"): 2, (2, "go"): 3}
        mdp = BaseMDP(
            space=space,
            actions=("go",),
            transition=transition,
            reward=dict.fromkeys(transition, -1.0),
        )
        early = Option(
            name="early",
            initiation=GroundingSet.of(0, {0, 1}),
            termination=GroundingSet.of(0, {1}),
            policy={0: "go"},
        )
        late = Option(
            name="late",
            initiation=GroundingSet.of(0, {2, 3}),
            termination=GroundingSet.of(0, {3}),
            policy={2: "go"},
        )
        h = Hierarchy(base=mdp).add_level([early, late])
        # widened groundings: early-node {0,1}, late-node {2,3}; only
        # self-loops exist because neither effect lies in the other's
        # initiation set
        assert (0, "late") not in h.level(1).transitions
        assert (1, "early") not in h.level(1).transitions
        q = PlanQuery(GroundingSet.of(0, {1}), GroundingSet.of(0, {2, 3}))
        answer = answer_query(h, q)
        assert answer.level_index == 0
        rec = answer.record
        assert rec.first_match_level == 1
        assert rec.solution_level == 0
        assert set(rec.plan_ops) == {0, 1}
        assert planning_cost(rec) == rec.total_ops
        trace = refine(h, answer.plan, 1)
        assert trace.end in q.goals

    def test_value_iteration_positive_loop_returns_none(self):
        """A reward-positive self-loop draws the value-iteration policy
        away from the goal, so no plan may leave ``answer_query``;
        reachability still finds the path."""
        mdp, _ = load_domain(
            {
                "actions": ["fwd", "stay"],
                "num_states": 3,
                "transitions": [[0, "fwd", 1], [1, "fwd", 2], [0, "stay", 0, 1.0]],
            }
        )
        h = Hierarchy(base=mdp)
        q = PlanQuery(GroundingSet.of(0, {0}), GroundingSet.of(0, {2}))
        assert findplan_value_iteration(mdp, q.starts, q.goals) is None
        assert answer_query(h, q, plan_mode="value-iteration") is None
        assert answer_query(h, q).plan.action_sequence(0) == ["fwd", "fwd"]

    def test_findplan_with_empty_goal_set_is_null(self, taxi_hierarchy):
        empty = GroundingSet.empty(0)
        some = GroundingSet.of(0, {0})
        assert findplan(taxi_hierarchy.base, some, empty) is None


class TestRefinement:
    def test_q1_refines_from_all_starts(self, taxi_hierarchy, queries):
        q = queries["Q1"]
        answer = answer_query(taxi_hierarchy, q)
        red = (0, 4)
        for start in q.starts:
            trace = refine(taxi_hierarchy, answer.plan, start)
            end = taxi_hierarchy.base.space.assignment(trace.end)
            assert (end[2], end[3]) == red
            assert trace.end in q.goals
            assert trace.visited[0] == start

    def test_q2_refinement_ends_parked_at_yellow(self, taxi_hierarchy, queries):
        q = queries["Q2"]
        answer = answer_query(taxi_hierarchy, q)
        start = state_of(taxi_hierarchy.base, 0, 4, 3, 0)  # taxi at red
        trace = refine(taxi_hierarchy, answer.plan, start)
        assert taxi_hierarchy.base.space.assignment(trace.end) == (0, 0, 3, 0, False)

    def test_level0_plan_trace_is_policy_walk(self, taxi_hierarchy, queries):
        q = queries["Q3"]
        answer = answer_query(taxi_hierarchy, q)
        assert answer.level_index == 0
        start = next(iter(q.starts))
        trace = refine(taxi_hierarchy, answer.plan, start)
        state = start
        for a in answer.plan.action_sequence(start):
            state, _ = taxi_hierarchy.base.step(state, a)
        assert state == trace.end

    @pytest.mark.parametrize("name, level", [("Q1", 2), ("Q2", 1), ("Q3", 0)])
    def test_refine_outside_grounded_starts_faults(
        self, taxi_hierarchy, queries, name, level
    ):
        answer = answer_query(taxi_hierarchy, queries[name])
        assert answer.level_index == level
        stranger = state_of(taxi_hierarchy.base, 2, 2, 1, 1)
        with pytest.raises(RefinementFault):
            refine(taxi_hierarchy, answer.plan, stranger)

    def test_refine_plan_without_starts_faults(self, taxi_hierarchy, queries):
        q = queries["Q3"]
        plan = findplan(taxi_hierarchy.base, GroundingSet.empty(0), q.goals)
        with pytest.raises(RefinementFault):
            refine(taxi_hierarchy, plan, next(iter(q.starts)))

    def test_trace_reward_counts_base_steps(self, taxi_hierarchy, queries):
        q = queries["Q1"]
        answer = answer_query(taxi_hierarchy, q)
        for start in q.starts:
            trace = refine(taxi_hierarchy, answer.plan, start)
            assert trace.cumulative_reward == -trace.steps

    def test_execute_refined_matches_option_semantics(self, taxi_hierarchy):
        h = taxi_hierarchy
        ferry = [o for o in h.option_sets[1] if o.name == "passenger-to-green"][0]
        start = state_of(h.base, 0, 0, 3, 0)  # taxi at yellow, passenger at blue
        trace = execute_refined(h, 2, ferry, start)
        end = h.base.space.assignment(trace.end)
        assert end == (4, 4, 4, 4, False)

    def test_execute_refined_level2_ping_pong_faults(self, taxi_hierarchy):
        """A level-2 option that drives the taxi red -> green -> red
        forever never reaches its termination set; the step bound over
        level 1 stops it."""
        h = taxi_hierarchy
        space = h.level(1).space
        at_red = space.state_of((0, 4, 3, 0, False))
        at_green = space.state_of((4, 4, 3, 0, False))
        ping_pong = Option(
            name="ping-pong",
            initiation=GroundingSet.of(1, {at_red}),
            termination=GroundingSet.of(1, {space.state_of((3, 0, 3, 0, True))}),
            policy={at_red: "drive-to-green", at_green: "drive-to-red"},
        )
        with pytest.raises(RefinementFault, match="ping-pong"):
            execute_refined(h, 2, ping_pong, state_of(h.base, 0, 4, 3, 0))

    def test_execute_refined_outside_initiation_faults(self, taxi_hierarchy):
        h = taxi_hierarchy
        pick_up = [o for o in h.option_sets[0] if o.name == "pick-up"][0]
        start = state_of(h.base, 2, 2, 1, 1)  # taxi away from the passenger
        assert start not in pick_up.initiation
        with pytest.raises(RefinementFault):
            execute_refined(h, 1, pick_up, start)


class TestInstrumentation:
    def test_match_cost_is_linear_in_level_size(self, taxi_hierarchy, queries):
        """Exactly two grounding tests per state per level visited."""
        h = taxi_hierarchy
        for q in queries.values():
            rec = answer_query(h, q).record
            for j, ops in rec.match_ops.items():
                assert ops == 2 * h.num_states(j)

    def test_q1_cost_is_top_level_only(self, taxi_hierarchy, queries):
        rec = answer_query(taxi_hierarchy, queries["Q1"]).record
        assert rec.first_match_level == 2 and rec.solution_level == 2
        assert set(rec.match_ops) == {2}
        assert set(rec.plan_ops) == {2}
        assert planning_cost(rec) == rec.match_ops[2] + rec.plan_ops[2]
        assert planning_cost(rec) == rec.total_ops

    def test_q3_cost_spans_all_levels(self, taxi_hierarchy, queries):
        rec = answer_query(taxi_hierarchy, queries["Q3"]).record
        assert rec.first_match_level == 0 and rec.solution_level == 0
        assert set(rec.match_ops) == {0, 1, 2}
        assert set(rec.plan_ops) == {0}
        expected = (
            rec.match_ops[2]
            + rec.match_ops[1]
            + rec.match_ops[0]
            + rec.plan_ops[0]
        )
        assert planning_cost(rec) == expected == rec.total_ops

    def test_top_level_match_case_analytically(self):
        """When the first match and solution coincide with the top level,
        the cost reduces to that level's match plus plan terms."""
        rec = InstrumentationRecord(
            search_top=3,
            match_ops={3: 14},
            plan_ops={3: 5},
            first_match_level=3,
            solution_level=3,
            total_ops=19,
        )
        assert planning_cost(rec) == 19

    def test_inconsistent_records_rejected(self):
        unsolved = InstrumentationRecord(search_top=2, match_ops={2: 8})
        with pytest.raises(InconsistentRecord):
            planning_cost(unsolved)
        upside_down = InstrumentationRecord(
            search_top=2,
            match_ops={2: 8, 1: 40},
            plan_ops={1: 3},
            first_match_level=1,
            solution_level=2,
            total_ops=51,
        )
        with pytest.raises(InconsistentRecord):
            planning_cost(upside_down)
        missing = InstrumentationRecord(
            search_top=2,
            match_ops={2: 8},
            plan_ops={},
            first_match_level=1,
            solution_level=1,
            total_ops=8,
        )
        with pytest.raises(InconsistentRecord):
            planning_cost(missing)


class TestStructuralProperties:
    def test_match_implies_match_below(self, taxi_hierarchy, queries):
        """A match at level j guarantees matches at every level under j,
        checked for the benchmark queries plus 100 random ones."""
        h = taxi_hierarchy

        def match_levels(q):
            matched = []
            for j in range(h.num_levels + 1):
                try:
                    b = candidate_starts(h, j, q.starts)
                    g = candidate_goals(h, j, q.goals)
                except NoMatch:
                    continue
                if plan_match(h, MatchPair(j, b, g), q):
                    matched.append(j)
            return matched

        all_queries = list(queries.values()) + random_queries(h.base, 100)
        for q in all_queries:
            matched = match_levels(q)
            assert matched, "level 0 always matches"
            top = max(matched)
            assert matched == list(range(top + 1))

    def test_base_level_always_matches_itself(self, taxi_hierarchy, queries):
        h = taxi_hierarchy
        for q in queries.values():
            b = candidate_starts(h, 0, q.starts)
            g = candidate_goals(h, 0, q.goals)
            assert b == q.starts
            assert g == q.goals
            assert plan_match(h, MatchPair(0, b, g), q)

    def test_completeness_on_random_solvable_queries(self, taxi_hierarchy):
        for q in random_queries(taxi_hierarchy.base, 100):
            assert answer_query(taxi_hierarchy, q) is not None

    def test_soundness_on_random_queries(self, taxi_hierarchy):
        for q in random_queries(taxi_hierarchy.base, 25, seed=777):
            answer = answer_query(taxi_hierarchy, q)
            for start in list(q.starts)[:3]:
                trace = refine(taxi_hierarchy, answer.plan, start)
                assert trace.end in q.goals
