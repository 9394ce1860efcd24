"""Hierarchy assembly, validation, and serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierplan import (
    BaseMDP,
    GroundingSet,
    Hierarchy,
    PlanQuery,
    RewardMode,
    StateSpace,
    answer_query,
    build_taxi_hierarchy,
    flatten_options,
    one_step_preimage_options,
    refine,
)
from hierplan.errors import (
    EmptyOptionSet,
    HierplanError,
    LevelOutOfRange,
    NoFactoredStructure,
)
from hierplan.taxi import depot_seed_states, taxi_options_level1

from conftest import random_queries


class TestAddLevel:
    def test_taxi_level_sizes(self, taxi_hierarchy):
        assert taxi_hierarchy.num_states(0) == 650
        assert taxi_hierarchy.num_states(1) == 20
        assert taxi_hierarchy.num_states(2) == 4

    def test_empty_option_set_rejected(self, taxi_mdp):
        with pytest.raises(EmptyOptionSet):
            Hierarchy(base=taxi_mdp).add_level([])

    def test_wrong_level_options_rejected(self, fresh_hierarchy, taxi_mdp):
        base_options = taxi_options_level1(taxi_mdp)
        with pytest.raises(LevelOutOfRange):
            fresh_hierarchy.add_level(base_options)  # top level is 2, not 0

    def test_factored_construction_needs_seeds(self, taxi_mdp):
        h = Hierarchy(base=taxi_mdp)
        with pytest.raises(NoFactoredStructure):
            h.add_level(taxi_options_level1(taxi_mdp), seeds=None)

    def test_add_level_returns_new_value(self, taxi_mdp):
        h0 = Hierarchy(base=taxi_mdp)
        h1 = h0.add_level(
            taxi_options_level1(taxi_mdp), seeds=depot_seed_states(taxi_mdp)
        )
        assert h0.num_levels == 0
        assert h1.num_levels == 1

    def test_one_step_wrappers_reproduce_base(self, taxi_mdp):
        """Wrapping every primitive transition as a one-step option gives
        an abstraction isomorphic to the (reachable) base MDP."""
        wrappers = one_step_preimage_options(taxi_mdp)
        h = Hierarchy(base=taxi_mdp).add_level(
            wrappers, seeds=GroundingSet.of(0, taxi_mdp.space.states)
        )
        level = h.level(1)
        assert level.num_states == taxi_mdp.num_states
        # state identity: groundings are exact singletons
        to_base = {}
        for s in level.space.states:
            g = level.grounding_of(s)
            assert len(g) == 1
            to_base[s] = next(iter(g))
        assert sorted(to_base.values()) == list(taxi_mdp.space.states)
        # every base edge appears as an abstract edge and vice versa
        base_edges = {(s, t) for (s, _), t in taxi_mdp.transition.items()}
        abstract_edges = {
            (to_base[s], to_base[t]) for (s, _), t in level.transitions.items()
        }
        assert abstract_edges == base_edges


class TestRebuild:
    def test_rebuild_after_use_is_identical(self, queries):
        """Empirical rewards depend only on the hierarchy's inputs:
        refining, flattening and validating leave nothing behind that a
        rebuild from the same option sets would see."""
        h = build_taxi_hierarchy(reward_mode=RewardMode.EMPIRICAL_MEAN)
        q = queries["Q1"]
        answer = answer_query(h, q)
        for start in q.starts:
            refine(h, answer.plan, start)
        flatten_options(h)
        assert h.validate() == []
        rebuilt = (
            Hierarchy(base=h.base, reward_mode=h.reward_mode)
            .add_level(h.option_sets[0], seeds=depot_seed_states(h.base))
            .add_level(h.option_sets[1])
        )
        assert rebuilt.to_json() == h.to_json()


class TestValidate:
    def test_taxi_hierarchy_is_sound(self, taxi_hierarchy):
        assert taxi_hierarchy.validate() == []

    def test_emptied_grounding_detected(self, fresh_hierarchy):
        h = fresh_hierarchy
        level = h.level(2)
        original = level.groundings[1]
        level.groundings[1] = GroundingSet.empty(1)
        try:
            violations = h.validate()
            assert any(
                v.kind == "empty-grounding" and "state 1" in v.detail
                for v in violations
            )
        finally:
            level.groundings[1] = original

    def test_unsound_edge_detected(self, fresh_hierarchy):
        h = fresh_hierarchy
        level = h.level(2)
        # force an edge whose image lands outside the target grounding
        part_id = level.parts[0].part_id
        target = level.transitions[(1, part_id)]
        wrong = (target + 1) % level.num_states
        level.transitions[(1, part_id)] = wrong
        try:
            violations = h.validate()
            assert any(v.kind == "image" for v in violations)
        finally:
            level.transitions[(1, part_id)] = target

    def test_widened_initiation_breach_detected(self, fresh_hierarchy):
        h = fresh_hierarchy
        level = h.level(2)
        state = 0
        original = level.groundings[state]
        # widen beyond the initiation profile: include every level-1 state
        level.groundings[state] = GroundingSet.of(1, range(h.num_states(1)))
        try:
            violations = h.validate()
            assert any(v.kind == "applicability" for v in violations)
        finally:
            level.groundings[state] = original


class TestDownwardRefinement:
    def test_benchmark_queries_refine_without_replanning(self, taxi_hierarchy, queries):
        for q in queries.values():
            answer = answer_query(taxi_hierarchy, q)
            assert answer is not None
            for start in q.starts:
                trace = refine(taxi_hierarchy, answer.plan, start)
                assert trace.end in q.goals

    def test_random_queries_refine_without_replanning(self, taxi_hierarchy):
        for q in random_queries(taxi_hierarchy.base, 100):
            answer = answer_query(taxi_hierarchy, q)
            assert answer is not None, "taxi is strongly connected"
            for start in list(q.starts)[:5]:
                trace = refine(taxi_hierarchy, answer.plan, start)
                assert trace.end in q.goals

    def test_every_state_has_nonempty_final_grounding(self, taxi_hierarchy):
        h = taxi_hierarchy
        for j in range(1, h.num_levels + 1):
            for s in range(h.num_states(j)):
                assert not h.final_grounding_of(j, s).is_empty()


class TestSnapshot:
    def test_snapshot_is_deterministic(self, taxi_mdp):
        from hierplan import build_taxi_hierarchy

        a = build_taxi_hierarchy().to_json()
        b = build_taxi_hierarchy().to_json()
        assert a == b

    def test_snapshot_structure(self, taxi_hierarchy):
        snap = taxi_hierarchy.to_snapshot()
        assert snap["num_levels"] == 2
        assert [lvl["num_states"] for lvl in snap["levels"]] == [650, 20, 4]
        level1 = snap["levels"][1]
        assert level1["construction"] == "factored"
        assert len(level1["actions"]) == 10
        assert all(len(edge) == 3 for edge in level1["transitions"])
        level2 = snap["levels"][2]
        assert level2["construction"] == "plan-graph"
        assert sorted(level2["states"]) == sorted(
            f"passenger-to-{d}" for d in ("red", "green", "blue", "yellow")
        )
        json.dumps(snap)  # JSON-serializable throughout

    def test_reward_mode_recorded(self, taxi_mdp):
        h = Hierarchy(base=taxi_mdp, reward_mode=RewardMode.EMPIRICAL_MEAN)
        assert h.to_snapshot()["reward_mode"] == "empirical"


@st.composite
def random_domains(draw):
    """A deterministic domain of 2-6 states with partial ``a``/``b``
    transitions, a reward mode, and a query's start and goal sets."""
    n = draw(st.integers(2, 6))
    transition = {}
    for s in range(n):
        for a in ("a", "b"):
            t = draw(st.none() | st.integers(0, n - 1))
            if t is not None:
                transition[(s, a)] = t
    states = st.sets(st.integers(0, n - 1), min_size=1)
    return n, transition, draw(st.sampled_from(RewardMode)), draw(states), draw(states)


class TestRandomDomains:
    @settings(max_examples=200, deadline=None)
    @given(random_domains())
    def test_build_is_sound_and_answers_refine_into_goals(self, domain):
        n, transition, mode, starts, goals = domain
        mdp = BaseMDP(
            space=StateSpace(level_index=0, num_states=n),
            actions=("a", "b"),
            transition=transition,
            reward=dict.fromkeys(transition, -1.0),
        )
        try:
            h = Hierarchy(base=mdp, reward_mode=mode).add_level(
                one_step_preimage_options(mdp)
            )
        except HierplanError:
            return
        assert h.validate() == []
        query = PlanQuery(GroundingSet.of(0, starts), GroundingSet.of(0, goals))
        for plan_mode in ("reachability", "value-iteration"):
            answer = answer_query(h, query, plan_mode=plan_mode)
            if answer is None:
                continue
            for start in starts:
                trace = refine(h, answer.plan, start)
                assert trace.visited[0] == start and trace.end in goals
                for here, there in zip(trace.visited, trace.visited[1:]):
                    assert there in (transition.get((here, a)) for a in ("a", "b"))
