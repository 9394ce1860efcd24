"""Hierarchy assembly, validation, and serialization."""

import json
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hierplan.hierarchy
from hierplan import (
    AbstractLevel,
    BaseMDP,
    Construction,
    GroundingSet,
    Hierarchy,
    Option,
    PlanQuery,
    RewardMode,
    StateSpace,
    Violation,
    action_sequence,
    answer_query,
    build_factored_abstraction,
    build_hierarchy,
    build_taxi_hierarchy,
    candidate_goals,
    candidate_starts,
    execute_option,
    findplan,
    findplan_value_iteration,
    flatten_options,
    load_domain,
    planning_cost,
    refine,
)
from hierplan.errors import (
    EmptyOptionSet,
    HierplanError,
    InvalidSeed,
    LevelMismatch,
    MalformedInput,
    NoFactoredStructure,
    NoMatch,
    UnknownName,
)
from hierplan.taxi import (
    DEFAULT_LAYOUT,
    depot_seed_states,
    taxi_options_level1,
)

from conftest import (
    GAMMAS,
    OPEN_8X8,
    REWARDS,
    assert_index_describes_the_base_groundings,
    draw_option_set,
    one_step_preimage_options,
    oracle_refine,
    oracle_widened_groundings,
    random_domains,
    random_factored_domains,
    random_queries,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"


class TestAddLevel:
    def test_taxi_level_sizes(self, taxi_hierarchy):
        assert taxi_hierarchy.num_states(0) == 650
        assert taxi_hierarchy.num_states(1) == 20
        assert taxi_hierarchy.num_states(2) == 4

    def test_empty_option_set_rejected(self, taxi_mdp):
        with pytest.raises(EmptyOptionSet):
            Hierarchy(base=taxi_mdp).add_level([])

    def test_wrong_level_options_rejected(self, fresh_hierarchy, taxi_mdp):
        """The partition's own check of an option's level, made before the
        option is simulated, rejects it."""
        base_options = taxi_options_level1(taxi_mdp)
        message = "^option 'drive-to-red' is over level 0, not 2$"
        with pytest.raises(LevelMismatch, match=message):
            fresh_hierarchy.add_level(base_options)  # top level is 2, not 0

    def test_factored_construction_needs_seeds(self, taxi_mdp):
        h = Hierarchy(base=taxi_mdp)
        with pytest.raises(NoFactoredStructure):
            h.add_level(taxi_options_level1(taxi_mdp), seeds=None)

    @pytest.mark.parametrize("factored", [False, True], ids=["plan-graph", "factored"])
    def test_seed_outside_the_top_level_rejected(self, factored):
        """Seeds are checked whichever way the level is built: a chain's
        one option is a subgoal, so its level is a plan graph unless the
        chain is factored and the option leaves a variable alone."""
        mdp, _ = load_domain({
            "actions": ["fwd"], "transitions": [[0, "fwd", 1], [1, "fwd", 2]],
            **({"variables": [["pos", [0, 1]], ["tag", [0, 1]]],
                "states": [[0, 0], [1, 0], [1, 1]]} if factored else {"num_states": 3}),
        })
        to_one = Option(
            "to-one", GroundingSet.of(0, [0]), GroundingSet.of(0, [1]), {0: "fwd"}
        )
        with pytest.raises(InvalidSeed, match="seed state 99 outside level 0"):
            Hierarchy(base=mdp).add_level([to_one], seeds=GroundingSet.of(0, [0, 99]))

    @pytest.mark.parametrize("factored", [False, True], ids=["plan-graph", "factored"])
    def test_seeds_of_another_level_rejected(self, factored):
        """Seeds over level 1 are not read as level-0 ids, through
        `add_level` whichever way the level is built, and through
        `build_factored_abstraction`."""
        mdp, _ = load_domain({
            "actions": ["fwd"], "transitions": [[0, "fwd", 1], [1, "fwd", 2]],
            **({"variables": [["pos", [0, 1]], ["tag", [0, 1]]],
                "states": [[0, 0], [1, 0], [1, 1]]} if factored else {"num_states": 3}),
        })
        to_one = Option(
            "to-one", GroundingSet.of(0, [0]), GroundingSet.of(0, [1]), {0: "fwd"}
        )
        seeds = GroundingSet.of(1, [0])
        builds = [lambda: Hierarchy(base=mdp).add_level([to_one], seeds=seeds)]
        if factored:
            builds.append(lambda: build_factored_abstraction([to_one], mdp, seeds))
        for build in builds:
            with pytest.raises(LevelMismatch, match="^seeds are over level 1, not 0$"):
                build()

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


class TestBuildOnce:
    def test_each_level_is_built_and_recorded_once(self, monkeypatch):
        """`build_hierarchy` builds each level once, rewards included, and
        makes one `Hierarchy`, whose tables equal a fresh one's."""
        calls = Counter()

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        index_of = hierplan.hierarchy.GroundingIndex.of.__func__
        monkeypatch.setattr(
            hierplan.hierarchy, "record_runs",
            counted("record_runs", hierplan.hierarchy.record_runs),
        )
        monkeypatch.setattr(
            hierplan.hierarchy.GroundingIndex, "of",
            classmethod(counted("GroundingIndex.of", index_of)),
        )
        monkeypatch.setattr(
            AbstractLevel, "__post_init__",
            counted("AbstractLevel", AbstractLevel.__post_init__),
        )
        h = build_taxi_hierarchy()
        assert calls == {"record_runs": 2, "GroundingIndex.of": 2, "AbstractLevel": 2}
        fresh = Hierarchy(h.base, h.levels_above, h.option_sets, h.reward_mode)
        assert h.lower_runs == fresh.lower_runs
        assert h.grounding_index == fresh.grounding_index


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

    def test_grounding_outside_level_below_reported_above_level_1(self, taxi_hierarchy):
        h = taxi_hierarchy
        level = h.level(2)
        groundings = dict(level.groundings)
        groundings[0] = groundings[0] | GroundingSet.single(1, h.num_states(1))
        broken = replace(
            h, levels_above=(h.level(1), replace(level, groundings=groundings))
        )
        assert Violation(2, "grounding-range", "state 0") in broken.validate()
        # the index skips the stray id; composing through it names a state
        # level 1 lacks
        assert broken.grounding_index[1].masks[0] == h.grounding_index[1].masks[0]
        assert broken.grounding_index[1].union == h.grounding_index[1].union
        with pytest.raises(UnknownName, match=f"no state {h.num_states(1)} at level 1"):
            broken.final_ground(2, GroundingSet.single(2, 0))

    def test_space_of_another_level_reported(self, taxi_hierarchy):
        h = taxi_hierarchy
        level = h.level(2)
        broken = replace(
            h,
            levels_above=(
                h.level(1),
                replace(level, space=replace(level.space, level_index=3)),
            ),
        )
        assert broken.validate() == [Violation(2, "level-index", "space says 3")]

    def test_grounding_at_another_level_reported(self, taxi_hierarchy):
        h = taxi_hierarchy
        level = h.level(2)
        groundings = dict(level.groundings)
        groundings[0] = GroundingSet(0, groundings[0].bits)
        # state 0 keeps no edges, so no edge check compares its grounding
        # with a level-1 initiation set
        kept = {e: t for e, t in level.transition.items() if e[0] != 0}
        broken = replace(
            h,
            levels_above=(
                h.level(1),
                replace(
                    level,
                    groundings=groundings,
                    transition=kept,
                    reward={e: level.reward[e] for e in kept},
                ),
            ),
        )
        assert Violation(2, "grounding-level", "state 0") in broken.validate()

    def test_grounding_at_another_level_reported_with_edges(self, taxi_hierarchy):
        """The state keeps its edges in and out. Their applicability and
        image checks, and the range check, are skipped rather than run
        against ids of another level, so only the level is reported."""
        h = taxi_hierarchy
        level = h.level(2)
        groundings = dict(level.groundings)
        groundings[0] = h.final_ground(2, GroundingSet.single(2, 0))
        assert groundings[0].level_index == 0
        assert any(s == 0 for s, _ in level.transition)
        broken = replace(
            h, levels_above=(h.level(1), replace(level, groundings=groundings))
        )
        assert broken.validate() == [Violation(2, "grounding-level", "state 0")]

    def test_empty_final_grounding_reported(self, taxi_hierarchy):
        h = taxi_hierarchy
        level = h.level(2)
        groundings = dict(level.groundings)
        # a grounding made only of ids the level below lacks grounds nothing
        groundings[0] = GroundingSet.single(1, h.num_states(1))
        broken = replace(
            h, levels_above=(h.level(1), replace(level, groundings=groundings))
        )
        assert broken.grounding_index[1].masks[0] == 0
        assert Violation(2, "empty-final-grounding", "state 0") in broken.validate()

    def test_grounding_member_without_a_recorded_run_reported(self, fresh_hierarchy):
        """A grounding widened in place after construction holds a lower
        state no run was recorded from: reported, not a KeyError."""
        h = fresh_hierarchy
        level = h.level(2)
        blue = level.space.labels.index("passenger-to-blue")
        part = level.part("passenger-to-green")
        original = level.groundings[blue]
        stray = next(iter(part.initiation - original))
        level.groundings[blue] = GroundingSet.single(1, stray)
        try:
            violations = h.validate()
        finally:
            level.groundings[blue] = original
        assert Violation(
            2,
            "execution",
            f"part passenger-to-green from lower state {stray} has no run "
            f"recorded at construction",
        ) in violations

    def test_option_set_count_mismatch_rejected(self, taxi_hierarchy):
        h = taxi_hierarchy
        with pytest.raises(MalformedInput, match="one option set per abstract level"):
            replace(h, option_sets=h.option_sets[:1])

    @pytest.mark.parametrize(
        "change",
        [lambda sets: (sets[1], sets[0]), lambda sets: (sets[0][:-1], sets[1])],
        ids=["swapped", "option-missing"],
    )
    def test_option_sets_of_other_levels_rejected(self, taxi_hierarchy, change):
        """Each set must name its level's options in part order, so an
        error names the cause here and not later, in `flatten_options`."""
        h = taxi_hierarchy
        names = [o.name for o in h.option_sets[0]]
        pattern = r"^option set 1 names .*, not level 1's options "
        with pytest.raises(MalformedInput, match=pattern) as got:
            replace(h, option_sets=change(h.option_sets))
        assert str(got.value).endswith(f"not level 1's options {names}")


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
                assert not h.final_ground(j, GroundingSet.single(j, s)).is_empty()


class TestSnapshot:
    def test_snapshot_is_deterministic(self, taxi_mdp):
        from hierplan import build_taxi_hierarchy

        a = build_taxi_hierarchy().to_json()
        b = build_taxi_hierarchy().to_json()
        assert a == b

    @pytest.mark.parametrize("mode", list(RewardMode), ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "name, layout", [("taxi5", DEFAULT_LAYOUT), ("taxi8_open", OPEN_8X8)],
        ids=["taxi5", "taxi8-open"],
    )
    def test_snapshot_matches_golden(self, name, layout, mode):
        """The whole built hierarchy, byte for byte: states, parts,
        transitions, rewards (empirical means depend on the order the
        per-start mean is updated in) and groundings."""
        golden = GOLDEN_DIR / f"{name}_{mode.value}.json"
        built = build_taxi_hierarchy(layout, reward_mode=mode).to_json() + "\n"
        assert built.encode() == golden.read_bytes()

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


def assert_flat_search_oracle(h, query, transition):
    """Searching from every level keeps the flat-search oracle's
    properties: a reachability answer exists exactly when flat `findplan`
    finds one, value iteration answers whenever flat value iteration
    does, every plan start's action sequence replays into the plan's
    goals, and every query start refines into the query's goals along
    base edges."""
    mdp = h.base
    # answer_query falls through to level 0, where it plans like flat
    # search, so flat search is the oracle for when an answer exists
    flat_bfs = findplan(mdp, query.starts, query.goals)
    flat_vi = findplan_value_iteration(mdp, query.starts, query.goals)
    matched = []
    for j in range(h.num_levels + 1):
        try:
            candidate_starts(h, j, query.starts), candidate_goals(h, j, query.goals)
        except NoMatch:
            continue
        matched.append(j)
    # a match at level j implies a match at every level below it
    assert matched == list(range(len(matched)))
    for at_level in range(h.num_levels + 1):
        for plan_mode in ("reachability", "value-iteration"):
            answer = answer_query(h, query, at_level=at_level, plan_mode=plan_mode)
            if plan_mode == "reachability":
                assert (answer is None) == (flat_bfs is None)
            elif flat_vi is not None:
                assert answer is not None
            if answer is None:
                continue
            assert planning_cost(answer.record) == answer.record.total_ops
            level = h.level(answer.level_index)
            for s in answer.plan.initiation:
                state = s
                for action in action_sequence(level, answer.plan, s):
                    state, _ = level.step(state, action)
                assert state in answer.plan.termination
            for start in query.starts:
                trace = refine(h, answer.plan, start)
                assert trace.visited[0] == start and trace.end in query.goals
                for here, there in zip(trace.visited, trace.visited[1:]):
                    assert there in (transition.get((here, a)) for a in mdp.actions)


def assert_lower_runs_are_execute_options(h):
    """Each level's lower runs hold exactly one entry per edge ``(s, pid)``
    and member ``x`` of ``s``'s grounding, and each is the whole trace
    `execute_option` returns for the part's option from ``x`` over the
    level below, or its error."""
    for j in range(1, h.num_levels + 1):
        level, below = h.level(j), h.level(j - 1)
        runs = h.lower_runs[j - 1]
        keys = set()
        for s, pid in level.transition:
            option = level.part(pid).option
            for x in level.grounding_of(s):
                keys.add((s, pid, x))
                run = runs[s, pid, x]
                try:
                    trace = execute_option(below, option, x)
                except HierplanError as exc:
                    assert (type(run), str(run)) == (type(exc), str(exc))
                    continue
                assert run == trace
        assert set(runs) == keys


def assert_top_set_refines_as_the_oracle(h):
    """Each option of ``h``'s top set refines from every base state its
    initiation grounds as `oracle_refine` composes it."""
    for option in h.option_sets[-1]:
        for start in h.final_ground(option.level_index, option.initiation):
            assert refine(h, option, start) == oracle_refine(h, option, start)


class TestLowerRuns:
    @pytest.mark.parametrize(
        "layout", [DEFAULT_LAYOUT, OPEN_8X8], ids=["taxi5", "taxi8-open"]
    )
    def test_runs_are_execute_options(self, layout):
        h = build_taxi_hierarchy(layout)
        assert_lower_runs_are_execute_options(h)
        assert [len(runs) for runs in h.lower_runs] == [108, 60]

    def test_runs_are_not_compared_shown_or_serialized(self, taxi_hierarchy):
        h = taxi_hierarchy
        field = {f.name: f for f in fields(Hierarchy)}["lower_runs"]
        assert (field.init, field.compare, field.repr) == (False, False, False)
        other = replace(h)
        object.__setattr__(other, "lower_runs", ())
        assert other == h
        assert repr(other) == repr(h)
        assert other.to_json() == h.to_json()


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
        assert_index_describes_the_base_groundings(h)
        assert_lower_runs_are_execute_options(h)
        query = PlanQuery(GroundingSet.of(0, starts), GroundingSet.of(0, goals))
        assert_flat_search_oracle(h, query, transition)

    @settings(max_examples=200, deadline=None)
    @given(random_domains(), st.data())
    def test_two_level_spec_stacks(self, domain, data):
        """Two option sets of drawn (initiation, termination) pairs, the
        second drawn over the level the first builds with some policies
        written out and naming options rather than parts, stacked by
        `build_hierarchy`, which plans every other policy, over drawn
        rewards and gamma. Each construction raises a typed error, or
        `validate()` finds no violation, a rebuild gives the same
        snapshot, every plan-graph level's groundings are the per-state
        profile widening, the flat-search oracle holds on the highest
        stack built, and each option of its top set refines as the oracle
        composes it."""
        n, transition, mode, starts, goals = domain
        edges = sorted(transition)
        rewards = data.draw(
            st.lists(st.sampled_from(REWARDS), min_size=len(edges), max_size=len(edges))
        )
        mdp = BaseMDP(
            space=StateSpace(level_index=0, num_states=n),
            actions=("a", "b"),
            transition=transition,
            reward=dict(zip(edges, rewards)),
            gamma=data.draw(st.sampled_from(GAMMAS)),
        )
        sets = [draw_option_set(data, mdp, "o")]
        try:
            h = build_hierarchy(mdp, sets, mode)
        except HierplanError:
            return
        sets.append(draw_option_set(data, h.level(1), "p"))
        try:
            h = build_hierarchy(mdp, sets, mode)
        except HierplanError:
            sets.pop()  # the one-level stack is still checked
        assert h.validate() == []
        assert_index_describes_the_base_groundings(h)
        assert_lower_runs_are_execute_options(h)
        assert build_hierarchy(mdp, sets, mode).to_json() == h.to_json()
        for j in range(1, h.num_levels + 1):
            level = h.level(j)
            assert [list(level.grounding_of(s)) for s in level.space.states] == (
                oracle_widened_groundings(h.level(j - 1), level.parts)
            )
        query = PlanQuery(GroundingSet.of(0, starts), GroundingSet.of(0, goals))
        assert_flat_search_oracle(h, query, transition)
        assert_top_set_refines_as_the_oracle(h)

    @settings(max_examples=200, deadline=None)
    @given(random_factored_domains(), st.data())
    def test_factored_levels_ground_to_one_state(self, domain, data):
        """A factored level is its seeds' closure over lower states. A
        stack of one or two drawn option sets, the second over level 1
        with some policies written out and naming options rather than
        parts, raises a typed error, or `validate()` finds no violation, a
        rebuild gives the same snapshot, every factored state grounds to
        exactly one lower state carrying the same assignment, every
        plan-graph level's groundings are the per-state profile widening,
        the flat-search oracle holds on a drawn query, and each option of
        the top set refines as the oracle composes it."""
        mdp, sets, mode = domain
        try:
            h = build_hierarchy(mdp, sets, mode)
        except HierplanError:
            if len(sets) == 1:
                return
            sets = sets[:1]  # the one-level stack is still checked
            h = build_hierarchy(mdp, sets, mode)
        assert h.validate() == []
        assert_index_describes_the_base_groundings(h)
        assert_lower_runs_are_execute_options(h)
        assert build_hierarchy(mdp, sets, mode).to_json() == h.to_json()
        for j in range(1, h.num_levels + 1):
            level, below = h.level(j), h.level(j - 1)
            if level.space.is_factored:
                for s in level.space.states:
                    (lower,) = level.grounding_of(s)
                    assert below.space.assignment(lower) == level.space.assignment(s)
            else:
                assert [list(level.grounding_of(s)) for s in level.space.states] == (
                    oracle_widened_groundings(below, level.parts)
                )
        ids = st.sets(st.integers(0, mdp.num_states - 1), min_size=1)
        starts, goals = (GroundingSet.of(0, data.draw(ids)) for _ in range(2))
        query = PlanQuery(starts, goals)
        assert_flat_search_oracle(h, query, mdp.transition)
        assert_top_set_refines_as_the_oracle(h)


def set_variable(name: str, value: int) -> dict:
    """A skill that sets variable ``name`` to ``value`` from everywhere."""
    return {"name": f"{name}-to-{value}", "initiation": {}, "termination": {name: value}}


# x in {0, 1, 2} and y in {0, 1}; state id 2x + y
XY_STATES = [[x, y] for x in range(3) for y in range(2)]
XY_DOMAIN = {
    "actions": ["right", "left", "flip"],
    "variables": [["x", [0, 1, 2]], ["y", [0, 1]]],
    "states": XY_STATES,
    "transitions": [
        [2 * x + y, action, 2 * (x + dx) + (1 - y if action == "flip" else y)]
        for x, y in XY_STATES
        for action, dx in (("right", 1), ("left", -1), ("flip", 0))
        if 0 <= x + dx <= 2
    ],
    "options": {
        "level1": {"seeds": [0], "options": [
            set_variable("x", 0), set_variable("x", 2),
            set_variable("y", 0), set_variable("y", 1),
        ]},
        "level2": {"seeds": [0], "options": [
            set_variable("x", 2), set_variable("y", 0), set_variable("y", 1),
        ]},
    },
}


class TestFactoredStack:
    def test_factored_level_over_a_factored_level(self):
        """Set-x and set-y skills stacked twice over an (x, y) grid build
        two factored levels; a query answered at level 2 refines as the
        oracle composes it."""
        mdp, sets = load_domain(XY_DOMAIN)
        h = build_hierarchy(mdp, [sets["level1"], sets["level2"]])
        assert [h.num_states(j) for j in range(3)] == [6, 4, 4]
        assert [h.level(j).construction for j in (1, 2)] == [Construction.FACTORED] * 2
        assert h.validate() == []
        assert_index_describes_the_base_groundings(h)
        assert_lower_runs_are_execute_options(h)
        answer = answer_query(
            h, PlanQuery(GroundingSet.of(0, [0]), GroundingSet.of(0, [5]))
        )
        assert answer.level_index == 2
        trace = refine(h, answer.plan, 0)
        assert trace.visited == (0, 2, 4, 5)
        assert trace == oracle_refine(h, answer.plan, 0)
