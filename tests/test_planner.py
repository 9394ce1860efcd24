"""Candidate construction, plan matching, plan search, query answering,
refinement, and cost instrumentation."""

import itertools
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hierplan.planner
from hierplan import (
    BaseMDP,
    GroundingSet,
    Hierarchy,
    Option,
    PlanQuery,
    RewardMode,
    StateSpace,
    Violation,
    action_sequence,
    answer_query,
    build_hierarchy,
    build_taxi_hierarchy,
    candidate_goals,
    candidate_starts,
    execute_option,
    findplan,
    findplan_value_iteration,
    load_domain,
    plan_option,
    planning_cost,
    refine,
)
from hierplan.errors import (
    HierplanError,
    InapplicableAction,
    InconsistentRecord,
    LevelMismatch,
    LevelOutOfRange,
    MalformedInput,
    NoMatch,
    NotInInitiationSet,
    RefinementFault,
    StepBoundExceeded,
    UndefinedPolicy,
)
from hierplan.hierarchy import GroundingIndex
from hierplan.planner import InstrumentationRecord, _localize
from hierplan.taxi import DEFAULT_LAYOUT

from conftest import (
    OPEN_8X8,
    MatchPair,
    assert_index_describes_the_base_groundings,
    base_grounding,
    one_step_preimage_options,
    oracle_candidate_goals,
    oracle_candidate_starts,
    oracle_localize,
    oracle_refine,
    oracle_value_iteration,
    plan_match,
    random_domains,
    random_queries,
    state_of,
)

PLAN_MODES = ("reachability", "value-iteration")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def level2_node(h, depot):
    return h.level(2).space.labels.index(f"passenger-to-{depot}")


def green_ferry_not_from_blue(h):
    """``h`` with the ``passenger-to-green`` option of level 2's parts
    unable to start from the level-1 state where taxi and passenger are
    at blue, though its part still applies there; and that state."""
    level = h.level(2)
    at_blue = h.level(1).space.state_of((3, 0, 3, 0, False))
    away = GroundingSet.single(1, at_blue)
    parts = tuple(
        replace(p, option=replace(p.option, initiation=p.option.initiation - away))
        if p.option.name == "passenger-to-green" else p
        for p in level.parts
    )
    return replace(h, levels_above=(h.level(1), replace(level, parts=parts))), at_blue


def goal_distances(transition, goals):
    """Steps from each state to the nearest goal, one breadth-first layer
    of edges at a time; states that reach no goal are absent."""
    dist, layer, depth = dict.fromkeys(goals, 0), set(goals), 0
    while layer:
        depth += 1
        layer = {s for (s, _), t in transition.items() if t in layer and s not in dist}
        dist.update(dict.fromkeys(layer, depth))
    return dist


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
            assert not base_grounding(h, 1, s) & queries["Q3"].goals
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

    def test_level0_start_outside_base_space_has_no_match(self, taxi_hierarchy):
        n = taxi_hierarchy.num_states(0)
        with pytest.raises(NoMatch):
            candidate_starts(taxi_hierarchy, 0, GroundingSet.of(0, {0, n}))

    def test_level0_goals_outside_base_space_are_dropped(self, taxi_hierarchy):
        n = taxi_hierarchy.num_states(0)
        g = candidate_goals(taxi_hierarchy, 0, GroundingSet.of(0, {3, n, n + 40}))
        assert g == GroundingSet.of(0, {3})
        with pytest.raises(NoMatch):
            candidate_goals(taxi_hierarchy, 0, GroundingSet.of(0, {n, n + 40}))

    def test_sets_of_another_level_rejected(self, taxi_hierarchy):
        level1_set = GroundingSet.of(1, {0})
        for j in range(taxi_hierarchy.num_levels + 1):
            with pytest.raises(LevelMismatch):
                candidate_starts(taxi_hierarchy, j, level1_set)
            with pytest.raises(LevelMismatch):
                candidate_goals(taxi_hierarchy, j, level1_set)

    @settings(max_examples=200, deadline=None)
    @given(random_domains(), st.integers(1, 2), st.data())
    def test_candidates_match_their_definition(self, domain, num_levels, data):
        """At every level of random one- and two-level hierarchies, both
        candidates equal a brute-force oracle over `final_ground`, NoMatch
        included. Query ids reach past the base space and may be empty."""
        n, transition, mode, _, _ = domain
        mdp = BaseMDP(
            space=StateSpace(level_index=0, num_states=n),
            actions=("a", "b"),
            transition=transition,
            reward=dict.fromkeys(transition, -1.0),
        )
        h = Hierarchy(base=mdp, reward_mode=mode)
        try:
            for _ in range(num_levels):
                h = h.add_level(one_step_preimage_options(h.level(h.num_levels)))
        except HierplanError:
            if h.num_levels == 0:
                return
        starts = data.draw(st.sets(st.integers(0, n + 1)))
        goals = data.draw(st.sets(st.integers(0, n + 1)))

        def found(candidates, j, states):
            try:
                out = candidates(h, j, GroundingSet.of(0, states))
            except NoMatch:
                return None
            assert out.level_index == j
            return set(out)

        for j in range(h.num_levels + 1):
            ground = {
                s: set(h.final_ground(j, GroundingSet.single(j, s)))
                for s in range(h.num_states(j))
            }
            meets = {s for s, g in ground.items() if g & starts}
            covered = set().union(*(ground[s] for s in meets))
            expected = meets if starts <= covered else None
            assert found(candidate_starts, j, starts) == expected
            inside = {s for s, g in ground.items() if g <= goals}
            assert found(candidate_goals, j, goals) == (inside or None)


@pytest.fixture(scope="module", params=[DEFAULT_LAYOUT, OPEN_8X8], ids=["taxi5", "taxi8-open"])
def taxi_by_layout(request):
    return build_taxi_hierarchy(request.param)


def outcome(f, *args):
    """``f(*args)``, or the type of the HierplanError it raises."""
    try:
        return f(*args)
    except HierplanError as exc:
        return type(exc)


def grounded_ids(h):
    """Every base id some abstract state of ``h`` grounds to, ascending."""
    return sorted(
        set().union(
            *(
                base_grounding(h, j, s)
                for j in range(1, h.num_levels + 1)
                for s in range(h.num_states(j))
            )
        )
    )


@st.composite
def base_subsets(draw, h):
    """A base set: every base state, or the base groundings of a few
    abstract states, plus some grounded ids and a few ids anywhere in or
    just past the base, less some grounded ids."""
    n = h.num_states(0)
    if draw(st.integers(0, 9)) == 0:
        return GroundingSet(0, (1 << n) - 1)
    grounded = grounded_ids(h)
    abstract = [(j, s) for j in range(1, h.num_levels + 1) for s in range(h.num_states(j))]
    ids = set()
    for j, s in draw(st.lists(st.sampled_from(abstract), max_size=3)):
        ids |= set(base_grounding(h, j, s))
    ids |= draw(st.sets(st.sampled_from(grounded), max_size=6))
    ids |= draw(st.sets(st.integers(0, n + 1), max_size=2))
    ids -= draw(st.sets(st.sampled_from(grounded), max_size=2))
    return GroundingSet.of(0, ids)


class TestGroundingIndex:
    """Matching and localization read each level's `GroundingIndex`; they
    must give what one test per state on the base groundings gives."""

    def test_index_describes_the_base_groundings(self, taxi_by_layout):
        assert_index_describes_the_base_groundings(taxi_by_layout)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_candidates_and_localize_equal_the_per_state_loops(self, taxi_by_layout, data):
        h = taxi_by_layout
        starts = data.draw(base_subsets(h))
        goals = data.draw(base_subsets(h))
        for j in range(h.num_levels + 1):
            assert outcome(candidate_starts, h, j, starts) == outcome(
                oracle_candidate_starts, h, j, starts
            )
            assert outcome(candidate_goals, h, j, goals) == outcome(
                oracle_candidate_goals, h, j, goals
            )
        base_state = data.draw(
            st.sampled_from(grounded_ids(h)) | st.integers(0, h.num_states(0) + 1)
        )
        for j in range(h.num_levels + 1):
            ids = data.draw(st.sets(st.integers(0, h.num_states(j) - 1)))
            candidates = GroundingSet.of(j, ids)
            assert outcome(_localize, h, j, candidates, base_state) == outcome(
                oracle_localize, h, j, candidates, base_state
            )

    def test_sets_as_wide_as_the_base(self, taxi_by_layout):
        """Ranks are read off the starts until one lies outside the union,
        and off the goals only inside it: a level's whole union reads
        exactly its ``cover``, every base state stops at a NoMatch, and
        both agree with the oracle."""
        h = taxi_by_layout
        everything = GroundingSet(0, (1 << h.num_states(0)) - 1)
        for j in range(1, h.num_levels + 1):
            index = h.grounding_index[j - 1]
            union = h.final_ground(j, GroundingSet.of(j, range(h.num_states(j))))
            assert index.ranks(union.bits) == index.cover
            assert index.ranks(everything.bits) is None
            for states in (union, everything):
                assert outcome(candidate_starts, h, j, states) == outcome(
                    oracle_candidate_starts, h, j, states
                )
                assert outcome(candidate_goals, h, j, states) == outcome(
                    oracle_candidate_goals, h, j, states
                )
            every_state = GroundingSet.of(j, range(h.num_states(j)))
            assert candidate_starts(h, j, union) == every_state
            assert candidate_goals(h, j, everything) == every_state
            with pytest.raises(NoMatch):
                candidate_starts(h, j, everything)

    def test_errors_are_the_oracles(self, taxi_by_layout):
        """A level-1 set is a LevelMismatch, starts reaching past every
        grounding a NoMatch, and a base state no candidate grounds a
        RefinementFault, as one test per state finds."""
        h = taxi_by_layout
        grounded = set(grounded_ids(h))
        stray = next(x for x in range(h.num_states(0)) if x not in grounded)
        level1 = GroundingSet.of(1, {0})
        for j in range(1, h.num_levels + 1):
            every_state = GroundingSet.of(j, range(h.num_states(j)))
            uncovered = base_grounding(h, j, 0) | GroundingSet.single(0, stray)
            cases = [
                (candidate_starts, oracle_candidate_starts, (h, j, level1), LevelMismatch),
                (candidate_goals, oracle_candidate_goals, (h, j, level1), LevelMismatch),
                (candidate_starts, oracle_candidate_starts, (h, j, uncovered), NoMatch),
                (_localize, oracle_localize, (h, j, every_state, stray), RefinementFault),
            ]
            for f, oracle, args, error in cases:
                assert outcome(f, *args) is error
                assert outcome(oracle, *args) is error

    def test_candidate_outside_the_level_grounds_nothing(self, taxi_hierarchy, queries):
        """A candidate id the level lacks is passed over, not looked up."""
        h = taxi_hierarchy
        start = next(iter(queries["Q1"].starts))
        ghost = GroundingSet.single(2, h.num_states(2))
        with pytest.raises(RefinementFault):
            _localize(h, 2, ghost, start)
        real = candidate_starts(h, 2, queries["Q1"].starts)
        assert _localize(h, 2, real | ghost, start) == oracle_localize(h, 2, real, start)


def oracle_pair(h, j, query):
    """Both oracle candidates at level ``j``, or None when either has no
    match."""
    try:
        return (
            oracle_candidate_starts(h, j, query.starts),
            oracle_candidate_goals(h, j, query.goals),
        )
    except NoMatch:
        return None


def assert_answers_are_the_oracles(h, query, pair=oracle_pair):
    """From every ``at_level`` in both plan modes, an answer's plan starts
    and ends on the oracle candidates of its level (``pair``), and its
    first match is the highest level at or under ``at_level`` where both
    oracles match."""
    for at_level in range(h.num_levels + 1):
        pairs = [pair(h, j, query) for j in range(at_level + 1)]
        for mode in PLAN_MODES:
            answer = answer_query(h, query, at_level, mode)
            if answer is None:
                continue
            plan = answer.plan
            assert (plan.initiation, plan.termination) == pairs[answer.level_index]
            first = max(j for j, p in enumerate(pairs) if p is not None)
            assert answer.record.first_match_level == first


class TestAnswerPath:
    """`answer_query` matches through the same helpers as the public
    candidate functions, from the query's side: it must answer with the
    oracles' candidates and rank each query's sets at most once."""

    @settings(max_examples=150, deadline=None)
    @given(random_domains(), st.integers(1, 2), st.data())
    def test_answers_equal_the_oracles(self, domain, num_levels, data):
        n, transition, mode, _, _ = domain
        mdp = BaseMDP(
            space=StateSpace(level_index=0, num_states=n),
            actions=("a", "b"),
            transition=transition,
            reward=dict.fromkeys(transition, -1.0),
        )
        h = Hierarchy(base=mdp, reward_mode=mode)
        try:
            for _ in range(num_levels):
                h = h.add_level(one_step_preimage_options(h.level(h.num_levels)))
        except HierplanError:
            if h.num_levels == 0:
                return
        starts = data.draw(st.sets(st.integers(0, n + 1), min_size=1))
        goals = data.draw(st.sets(st.integers(0, n + 1), min_size=1))
        query = PlanQuery(GroundingSet.of(0, starts), GroundingSet.of(0, goals))
        assert_answers_are_the_oracles(h, query)

    def test_empty_grounding_stays_a_goal_candidate(self, taxi_hierarchy, queries):
        """A level-2 state grounded only in an id level 1 lacks grounds
        nothing, so it lies inside every goal set and meets no start set.
        `final_ground` cannot compose its grounding, so the level-2 oracle
        tests the other states on the intact hierarchy."""
        h = taxi_hierarchy
        level = h.level(2)
        groundings = dict(level.groundings)
        groundings[0] = GroundingSet.single(1, h.num_states(1))
        broken = replace(
            h, levels_above=(h.level(1), replace(level, groundings=groundings))
        )
        assert broken.grounding_index[1].empty == 1

        def pair(_, j, query):
            if j < 2:
                return oracle_pair(h, j, query)
            ground = {s: base_grounding(h, 2, s) for s in range(1, h.num_states(2))}
            meets = [s for s, g in ground.items() if g & query.starts]
            covered = GroundingSet.empty(0)
            for s in meets:
                covered = covered | ground[s]
            if not query.starts <= covered:
                return None
            inside = [s for s, g in ground.items() if g <= query.goals]
            return GroundingSet.of(2, meets), GroundingSet.of(2, [0, *inside])

        for q in queries.values():
            assert 0 in candidate_goals(broken, 2, q.goals)
            assert 0 in answer_query(broken, q).plan.termination
            assert_answers_are_the_oracles(broken, q, pair)

    @pytest.mark.parametrize(
        "workload", ["taxi5-abstract", "taxi12-build", "taxi8-fallthrough"]
    )
    def test_one_rank_pass_per_set(self, workload, monkeypatch):
        """Over one benchmark stream, each query's goals are ranked once
        and its starts at most once, and not at all when no abstract
        level's goals match."""
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from streams import WORKLOADS, layout_for, make_stream

        w = WORKLOADS[workload]
        layout = layout_for(w.grid)
        h = build_taxi_hierarchy(layout)
        stream = make_stream(h.base, layout, w, 7)
        ranks = GroundingIndex.ranks
        calls = []

        def counted(index, bits):
            calls.append(bits)
            return ranks(index, bits)

        monkeypatch.setattr(GroundingIndex, "ranks", counted)
        for sq in stream:
            calls.clear()
            answer = answer_query(h, sq.query, plan_mode=sq.plan_mode)
            assert answer.level_index == sq.level
            goals_match = any(
                outcome(oracle_candidate_goals, h, j, sq.query.goals) is not NoMatch
                for j in range(1, h.num_levels + 1)
            )
            assert len(calls) <= 2
            if not goals_match:
                assert len(calls) == 1


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
        assert action_sequence(h.level(2), plan, blue) == ["passenger-to-red"]

    def test_q2_level1_policy_drives_to_yellow(self, taxi_hierarchy, queries):
        h = taxi_hierarchy
        b = candidate_starts(h, 1, queries["Q2"].starts)
        g = candidate_goals(h, 1, queries["Q2"].goals)
        plan = findplan(h.level(1), b, g)
        assert plan is not None
        for s in b:
            seq = action_sequence(h.level(1), plan, s)
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
        assert action_sequence(h.level(2), plan, blue) == []

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

    def test_sets_of_another_level_raise_level_mismatch(self, taxi_hierarchy):
        """A plan's level is its sets', so both must be over the level
        searched."""
        level = taxi_hierarchy.level(1)
        here, there = GroundingSet.of(1, {0}), GroundingSet.of(0, {0})
        for search in (findplan, findplan_value_iteration):
            for starts, goals in ((there, here), (here, there), (there, there)):
                with pytest.raises(LevelMismatch):
                    search(level, starts, goals)

    def test_plan_option_names_itself_on_another_level(self, taxi_hierarchy):
        sets = GroundingSet.of(1, {0}), GroundingSet.of(1, {1})
        with pytest.raises(LevelMismatch, match="option 'o' is over level 1, not 0"):
            plan_option("o", taxi_hierarchy.base, *sets)

    def test_empty_starts_raise_malformed_input(self, taxi_hierarchy, queries):
        """A plan is an option, and an option needs an initiation state."""
        goals = queries["Q3"].goals
        for search in (findplan, findplan_value_iteration):
            with pytest.raises(MalformedInput, match="empty initiation set"):
                search(taxi_hierarchy.base, GroundingSet.empty(0), goals)

    def test_value_iteration_agrees_on_feasibility(self, taxi_hierarchy, queries):
        h = taxi_hierarchy
        for q in queries.values():
            bfs = findplan(h.base, q.starts, q.goals)
            vi = findplan_value_iteration(h.base, q.starts, q.goals)
            assert (bfs is None) == (vi is None)
            if vi is not None:
                for s in list(q.starts)[:3]:
                    seq = action_sequence(h.base, vi, s)
                    state = s
                    for a in seq:
                        state, _ = h.base.step(state, a)
                    assert state in q.goals


    @settings(max_examples=200, deadline=None)
    @given(random_domains())
    def test_policy_is_first_action_one_step_closer(self, domain):
        n, transition, _, starts, goals = domain
        mdp = BaseMDP(
            space=StateSpace(level_index=0, num_states=n),
            actions=("a", "b"),
            transition=transition,
            reward=dict.fromkeys(transition, -1.0),
        )
        dist = goal_distances(transition, goals)
        b, g = GroundingSet.of(0, starts), GroundingSet.of(0, goals)
        plan = findplan(mdp, b, g)
        if any(s not in dist for s in starts):
            assert plan is None
            with pytest.raises(MalformedInput):
                plan_option("o", mdp, b, g)
            return
        for s, d in dist.items():
            if d >= 1:
                closer = [
                    a for a in ("a", "b")
                    if dist.get(transition.get((s, a)), -1) == d - 1
                ]
                assert plan.policy[s] == closer[0]
        option = plan_option("o", mdp, b, g)
        for s in starts:
            assert execute_option(mdp, option, s).steps == dist[s]
        assert findplan_value_iteration(mdp, b, g).policy == plan.policy

    def test_value_iteration_policy_is_findplans_under_uniform_penalty(
        self, taxi_hierarchy, queries
    ):
        h = taxi_hierarchy
        for name in ("Q1", "Q2", "Q3"):
            q = queries[name]
            for j in range(h.num_levels + 1):
                try:
                    b = candidate_starts(h, j, q.starts)
                    g = candidate_goals(h, j, q.goals)
                except NoMatch:
                    continue
                bfs = findplan(h.level(j), b, g)
                vi = findplan_value_iteration(h.level(j), b, g)
                assert (bfs is None) == (vi is None)
                if bfs is not None:
                    assert vi.policy == bfs.policy, (name, j)

    @settings(max_examples=200, deadline=None)
    @given(random_domains(), st.data())
    def test_value_iteration_return_is_best_simple_path(self, domain, data):
        """Without positive rewards or discounting, a best walk to the
        goals is a simple path, so brute force over simple paths is the
        oracle. Zero-reward edges put zero-reward cycles in the draw."""
        n, transition, _, starts, goals = domain
        edges = sorted(transition)
        rewards = data.draw(
            st.lists(st.sampled_from((-2.0, -1.0, -0.5, 0.0)),
                     min_size=len(edges), max_size=len(edges))
        )
        reward = dict(zip(edges, rewards))
        mdp = BaseMDP(
            space=StateSpace(level_index=0, num_states=n),
            actions=("a", "b"),
            transition=transition,
            reward=reward,
        )

        def best_return(s, seen):
            """Best return over simple paths from ``s``, None if none."""
            if s in goals:
                return 0.0
            returns = []
            for (u, a), t in transition.items():
                if u == s and t not in seen:
                    rest = best_return(t, seen | {t})
                    if rest is not None:
                        returns.append(reward[(u, a)] + rest)
            return max(returns, default=None)

        b, g = GroundingSet.of(0, starts), GroundingSet.of(0, goals)
        plan = findplan_value_iteration(mdp, b, g)
        assert (plan is None) == (findplan(mdp, b, g) is None)
        if plan is None:
            return
        for s in starts:
            state, total = s, 0.0
            for a in action_sequence(mdp, plan, s):
                state, r = mdp.step(state, a)
                total += r
            assert state in goals
            assert total == pytest.approx(best_return(s, {s}), abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(random_domains(), st.data())
    def test_value_iteration_ends_with_positive_rewards(self, domain, data):
        """Reward-positive cycles, discounted or not, end the search, and
        a returned plan still leads every start into the goals."""
        n, transition, _, starts, goals = domain
        edges = sorted(transition)
        rewards = data.draw(
            st.lists(st.sampled_from((-2.0, -1.0, -0.5, 0.0, 1.0)),
                     min_size=len(edges), max_size=len(edges))
        )
        mdp = BaseMDP(
            space=StateSpace(level_index=0, num_states=n),
            actions=("a", "b"),
            transition=transition,
            reward=dict(zip(edges, rewards)),
            gamma=data.draw(st.sampled_from((1.0, 0.9, 0.5))),
        )
        plan = findplan_value_iteration(
            mdp, GroundingSet.of(0, starts), GroundingSet.of(0, goals)
        )
        if plan is None:
            return
        for s in starts:
            state = s
            for a in action_sequence(mdp, plan, s):
                state, _ = mdp.step(state, a)
            assert state in goals


    @settings(max_examples=200, deadline=None)
    @given(random_domains(), st.data())
    def test_successors_follow_the_policy(self, domain, data):
        """A start's action sequence replayed on the domain ends in the
        goals, after exactly the start's distance for `findplan`."""
        n, transition, _, starts, goals = domain
        edges = sorted(transition)
        rewards = data.draw(
            st.lists(st.sampled_from((-2.0, -1.0, -0.5, 0.0)),
                     min_size=len(edges), max_size=len(edges))
        )
        mdp = BaseMDP(
            space=StateSpace(level_index=0, num_states=n),
            actions=("a", "b"),
            transition=transition,
            reward=dict(zip(edges, rewards)),
        )
        dist = goal_distances(transition, goals)
        b, g = GroundingSet.of(0, starts), GroundingSet.of(0, goals)
        for search in (findplan, findplan_value_iteration):
            plan = search(mdp, b, g)
            if plan is None:
                continue
            for s in starts:
                state = s
                sequence = action_sequence(mdp, plan, s)
                for a in sequence:
                    state, _ = mdp.step(state, a)
                assert state in goals
                if search is findplan:
                    assert len(sequence) == dist[s]

    def test_value_iteration_stale_label_returns_none(self):
        """With gamma < 1 the best return from state 2 enters the +1
        self-loop at state 1 and never reaches the goal 0. State 1 keeps
        improving after its queue budget is spent, so the improvement
        never reaches state 2, whose label is stale: no plan, not the
        plan ``2 -a-> 0`` that label supports."""
        edges = {
            (0, "a"): (2, 0.0), (0, "b"): (1, 1.0),
            (1, "a"): (1, 1.0), (1, "b"): (0, -1.0),
            (2, "a"): (0, 0.0), (2, "b"): (1, -1.0),
        }
        mdp = BaseMDP(
            space=StateSpace(level_index=0, num_states=3),
            actions=("a", "b"),
            transition={e: t for e, (t, _) in edges.items()},
            reward={e: r for e, (_, r) in edges.items()},
            gamma=0.9,
        )
        b, g = GroundingSet.of(0, {2}), GroundingSet.of(0, {0})
        assert findplan_value_iteration(mdp, b, g) is None
        assert action_sequence(mdp, findplan(mdp, b, g), 2) == ["a"]

    @pytest.mark.parametrize("search", [findplan, findplan_value_iteration])
    @pytest.mark.parametrize(
        "starts, goals, policy",
        [
            # a goal outside the level seeds nothing but stays a goal
            ({0}, {2, 5}, {0: "go", 1: "go"}),
            ({0}, {5}, None),
            # a start outside the level is unreachable unless it is a goal
            ({0, 7}, {2}, None),
            ({7}, {7}, {}),
            ({0, 7}, {2, 7}, {0: "go", 1: "go"}),
        ],
        ids=["goal-outside", "only-goal-outside", "start-outside",
             "start-is-goal-outside", "mixed"],
    )
    def test_ids_outside_the_level(self, search, starts, goals, policy):
        mdp = BaseMDP(
            space=StateSpace(level_index=0, num_states=3),
            actions=("go",),
            transition={(0, "go"): 1, (1, "go"): 2},
            reward={(0, "go"): -1.0, (1, "go"): -1.0},
        )
        record = InstrumentationRecord(search_top=0)
        b, g = GroundingSet.of(0, starts), GroundingSet.of(0, goals)
        plan = search(mdp, b, g, record)
        assert record.plan_ops[0] == (2 if 2 in goals else 0)
        if policy is None:
            assert plan is None
            return
        assert plan.policy == policy
        assert plan.termination == g and plan.initiation == b
        for s in starts:
            assert len(action_sequence(mdp, plan, s)) == (0 if s in goals else 2 - s)


def three_states(transition, level_index=0):
    return BaseMDP(
        space=StateSpace(level_index=level_index, num_states=3),
        actions=("a", "b"),
        transition=transition,
        reward=dict.fromkeys(transition, -1.0),
    )


class TestActionSequence:
    """A plan built by hand is walked through the level it is given, and
    every fault of the walk is typed."""

    @staticmethod
    def plan(policy):
        return Option("p", GroundingSet.of(0, [0]), GroundingSet.of(0, [1]), policy)

    def test_walks_the_levels_transition_table(self):
        level = three_states({(0, "a"): 2, (2, "b"): 1})
        plan = self.plan({0: "a", 2: "b"})
        assert action_sequence(level, plan, 0) == ["a", "b"]
        assert action_sequence(three_states({(0, "a"): 1}), self.plan({0: "a"}), 0) == ["a"]

    @pytest.mark.parametrize(
        "policy, transition, start, cause",
        [
            ({0: "a"}, {(0, "b"): 1}, 0, InapplicableAction),
            ({0: "a"}, {(0, "a"): 2}, 0, UndefinedPolicy),
            ({0: "a", 2: "a"}, {(0, "a"): 2, (2, "a"): 0}, 0, StepBoundExceeded),
            ({0: "a"}, {(0, "a"): 1}, 2, NotInInitiationSet),
        ],
        ids=["action-not-in-table", "state-without-action", "cycle",
             "start-outside-initiation"],
    )
    def test_broken_walk_raises_refinement_fault(self, policy, transition, start, cause):
        """Each fault is the one `execute_option`'s run over the level
        raises, as a RefinementFault."""
        with pytest.raises(RefinementFault) as fault:
            action_sequence(three_states(transition), self.plan(policy), start)
        assert type(fault.value.__cause__) is cause

    def test_level_of_another_index_raises_level_mismatch(self):
        level = three_states({(0, "a"): 1}, level_index=1)
        with pytest.raises(LevelMismatch):
            action_sequence(level, self.plan({0: "a"}), 0)


def assert_same_value_iteration(level, starts, goals):
    """`findplan_value_iteration` and `oracle_value_iteration` return the
    same policy, in the same order, examine the same number of edges,
    and fail on the same inputs."""
    got_record = InstrumentationRecord(search_top=level.level_index)
    want_record = InstrumentationRecord(search_top=level.level_index)
    got = findplan_value_iteration(level, starts, goals, got_record)
    want = oracle_value_iteration(level, starts, goals, want_record)
    assert got_record.plan_ops == want_record.plan_ops
    assert (got is None) == (want is None)
    if got is not None:
        assert list(got.policy.items()) == list(want.policy.items())
        assert (got.initiation, got.termination) == (starts, goals)


class TestValueIterationOracle:
    """The dense-id value iteration agrees with the label-dict walk it
    replaced, kept in `conftest` as `oracle_value_iteration`."""

    @settings(max_examples=400, deadline=None)
    @given(random_domains(), st.data())
    def test_random_domains(self, domain, data):
        """Positive rewards and gamma < 1 make labels improve again and go
        stale; few distinct rewards make ties common; both action orders
        test the tie rule; ids past the level test `findplan`'s rule."""
        n, transition, _, starts, goals = domain
        edges = sorted(transition)
        rewards = data.draw(
            st.lists(st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)),
                     min_size=len(edges), max_size=len(edges))
        )
        mdp = BaseMDP(
            space=StateSpace(level_index=0, num_states=n),
            actions=data.draw(st.sampled_from((("a", "b"), ("b", "a")))),
            transition=transition,
            reward=dict(zip(edges, rewards)),
            gamma=data.draw(st.sampled_from((1.0, 0.9, 0.5))),
        )
        outside = st.sets(st.integers(n, n + 2), max_size=2)
        b = GroundingSet.of(0, starts | data.draw(outside))
        g = GroundingSet.of(0, goals | data.draw(outside))
        assert_same_value_iteration(mdp, b, g)

    def test_taxi_candidates(self, taxi_by_reward_mode, queries):
        """Every level's candidate pair for the benchmark queries and for
        random ones, under both reward modes."""
        h = taxi_by_reward_mode
        for q in [*queries.values(), *random_queries(h.base, 40, seed=77)]:
            for j in range(h.num_levels + 1):
                try:
                    b = candidate_starts(h, j, q.starts)
                    g = candidate_goals(h, j, q.goals)
                except NoMatch:
                    continue
                assert_same_value_iteration(h.level(j), b, g)


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

    def test_unknown_plan_mode_rejected(self, taxi_hierarchy, queries):
        with pytest.raises(MalformedInput, match="unknown plan mode 'x'"):
            answer_query(taxi_hierarchy, queries["Q1"], plan_mode="x")

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
        assert action_sequence(mdp, answer_query(h, q).plan, 0) == ["fwd", "fwd"]

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
        for a in action_sequence(taxi_hierarchy.base, answer.plan, start):
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

    @pytest.mark.parametrize("j", [3, -1])
    def test_option_over_a_missing_level_raises_level_out_of_range(
        self, taxi_hierarchy, j
    ):
        """An option over a level the hierarchy lacks is refused by the
        level check, not by an index into the hierarchy's tables."""
        option = Option(
            name="ghost",
            initiation=GroundingSet.of(j, {0}),
            termination=GroundingSet.of(j, {1}),
            policy={},
        )
        with pytest.raises(LevelOutOfRange, match=f"^level {j} not in 0..2$"):
            refine(taxi_hierarchy, option, 0)

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
        trace = refine(h, ferry, start)
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
            refine(h, ping_pong, state_of(h.base, 0, 4, 3, 0))

    def test_execute_refined_outside_initiation_faults(self, taxi_hierarchy):
        h = taxi_hierarchy
        pick_up = [o for o in h.option_sets[0] if o.name == "pick-up"][0]
        start = state_of(h.base, 2, 2, 1, 1)  # taxi away from the passenger
        assert start not in pick_up.initiation
        with pytest.raises(RefinementFault):
            refine(h, pick_up, start)


    def test_execute_refined_level3_ping_pong_stops_at_level2_bound(
        self, taxi_hierarchy
    ):
        """An option over level 2 that ferries the passenger blue -> green
        -> blue forever stops at level 2's own step bound, 10 per state."""
        h = taxi_hierarchy
        blue, green, red = (level2_node(h, d) for d in ("blue", "green", "red"))
        ping_pong = Option(
            name="ferry-ping-pong",
            initiation=GroundingSet.of(2, {blue}),
            termination=GroundingSet.of(2, {red}),
            policy={blue: "passenger-to-green", green: "passenger-to-blue"},
        )
        bound = 10 * h.num_states(2)
        message = f"'ferry-ping-pong' exceeded {bound} steps"
        with pytest.raises(RefinementFault, match=message):
            refine(h, ping_pong, state_of(h.base, 3, 0, 3, 0))

    def test_execute_refined_inapplicable_option_faults(self, taxi_hierarchy):
        """A level-2 option whose policy names a level-1 option none of
        whose parts applies where the taxi is."""
        h = taxi_hierarchy
        space = h.level(1).space
        at_red = space.state_of((0, 4, 3, 0, False))  # passenger at blue
        stuck = Option(
            name="stuck",
            initiation=GroundingSet.of(1, {at_red}),
            termination=GroundingSet.of(1, {space.state_of((4, 4, 3, 0, False))}),
            policy={at_red: "pick-up"},
        )
        assert h.level(1).resolve_part(at_red, "pick-up") is None
        with pytest.raises(InapplicableAction) as run:
            execute_option(h.level(1), stuck, at_red)
        with pytest.raises(RefinementFault) as fault:
            refine(h, stuck, state_of(h.base, 0, 4, 3, 0))
        assert str(fault.value) == str(run.value)

    def test_execute_refined_level1_state_off_policy_faults(self, taxi_hierarchy):
        """A level-2 option whose policy stops covering the level-1 state
        its first step leads to."""
        h = taxi_hierarchy
        space = h.level(1).space
        at_red = space.state_of((0, 4, 3, 0, False))
        half_way = Option(
            name="half-way",
            initiation=GroundingSet.of(1, {at_red}),
            termination=GroundingSet.of(1, {space.state_of((3, 0, 3, 0, True))}),
            policy={at_red: "drive-to-green"},
        )
        with pytest.raises(RefinementFault, match="'half-way' has no action"):
            refine(h, half_way, state_of(h.base, 0, 4, 3, 0))

    def test_execute_refined_level2_state_off_policy_faults(self, taxi_hierarchy):
        """An option over level 2, run as a level-3 action, whose policy
        stops covering the level-2 state its first step leads to."""
        h = taxi_hierarchy
        blue, green, red = (level2_node(h, d) for d in ("blue", "green", "red"))
        onward = Option(
            name="onward",
            initiation=GroundingSet.of(2, {blue}),
            termination=GroundingSet.of(2, {red}),
            policy={blue: "passenger-to-green"},
        )
        message = f"'onward' has no action for state {green}"
        with pytest.raises(RefinementFault, match=message):
            refine(h, onward, state_of(h.base, 3, 0, 3, 0))

    def test_execute_refined_lower_option_outside_initiation_faults(
        self, taxi_hierarchy
    ):
        """A level-2 part whose option does not start from the level-1
        state the cursor is on (an applicability violation) faults when
        an option over level 2 applies it."""
        h = taxi_hierarchy
        broken, at_blue = green_ferry_not_from_blue(h)
        blue, green = level2_node(h, "blue"), level2_node(h, "green")
        ferry = Option(
            name="ferry",
            initiation=GroundingSet.of(2, {blue}),
            termination=GroundingSet.of(2, {green}),
            policy={blue: "passenger-to-green"},
        )
        assert refine(h, ferry, state_of(h.base, 3, 0, 3, 0)).end in (
            base_grounding(h, 2, green)
        )
        message = f"'passenger-to-green' from state {at_blue}"
        with pytest.raises(RefinementFault, match=message):
            refine(broken, ferry, state_of(h.base, 3, 0, 3, 0))

    def test_validate_reports_the_run_that_raises(self, taxi_hierarchy):
        """The part still applies where its option cannot start, so the run
        recorded for that lower state is the error, which `validate()`
        reports instead of raising."""
        broken, at_blue = green_ferry_not_from_blue(taxi_hierarchy)
        assert broken.validate() == [
            Violation(
                2,
                "execution",
                f"part passenger-to-green from lower state {at_blue} raised "
                f"NotInInitiationSet: option 'passenger-to-green' from state {at_blue}",
            )
        ]

    def test_cursor_outside_an_edges_grounding_faults(self, taxi_hierarchy):
        """Level 2's edge from blue by ``passenger-to-green`` redirected to
        red: `validate()` reports its image, and refining a tour through
        it leaves the level-1 cursor with the passenger at green, outside
        red's grounding, where the next edge has no run."""
        h = taxi_hierarchy
        level = h.level(2)
        blue, red, yellow = (level2_node(h, d) for d in ("blue", "red", "yellow"))
        transition = {**level.transition, (blue, "passenger-to-green"): red}
        broken = replace(
            h, levels_above=(h.level(1), replace(level, transition=transition))
        )
        assert {v.kind for v in broken.validate()} == {"image"}
        tour = Option(
            "tour",
            GroundingSet.single(2, blue),
            GroundingSet.single(2, yellow),
            {blue: "passenger-to-green", red: "passenger-to-yellow"},
        )
        with pytest.raises(RefinementFault, match="outside the grounding of level-2"):
            refine(broken, tour, state_of(h.base, 3, 0, 3, 0))

    def test_abstract_run_is_checked_before_it_is_refined(self, taxi_hierarchy):
        """With two faults, the one in the run over the option's own level
        is reported: ``onward`` applies ``passenger-to-green`` where that
        option cannot start, then has no action at green. The whole
        level-2 run is made before any of its steps is refined, so the
        fault is ``onward``'s, as it is the oracle's."""
        h = taxi_hierarchy
        broken, _ = green_ferry_not_from_blue(h)
        blue, green, red = (level2_node(h, d) for d in ("blue", "green", "red"))
        onward = Option(
            name="onward",
            initiation=GroundingSet.of(2, {blue}),
            termination=GroundingSet.of(2, {red}),
            policy={blue: "passenger-to-green"},
        )
        start = state_of(h.base, 3, 0, 3, 0)
        for refinement in (refine, oracle_refine):
            with pytest.raises(RefinementFault) as fault:
                refinement(broken, onward, start)
            assert type(fault.value.__cause__) is UndefinedPolicy
            assert str(fault.value) == f"option 'onward' has no action for state {green}"


@pytest.fixture(scope="module", params=list(RewardMode), ids=lambda m: m.value)
def taxi_by_reward_mode(request):
    return build_taxi_hierarchy(reward_mode=request.param)


# a line 0-1-2-3: "to-edge" runs from 1 to 0 and from 2 to 3, so it splits
# into one part per end; "to-middle" runs from 0 to 1 and from 3 to 2
SPLIT_LINE = {
    "actions": ["fwd", "back"],
    "num_states": 4,
    "transitions": [[0, "fwd", 1], [1, "fwd", 2], [2, "fwd", 3],
                    [1, "back", 0], [2, "back", 1], [3, "back", 2]],
    "options": {
        "level1": [
            {"name": "to-edge", "initiation": [1, 2], "termination": [0, 3],
             "policy": {"1": "back", "2": "fwd"}},
            {"name": "to-middle", "initiation": [0, 3], "termination": [1, 2],
             "policy": {"0": "fwd", "3": "back"}},
        ],
        # level-1 node 2 grounds to base 1 and node 3 to base 2
        "level2": [{"name": "out", "initiation": [2, 3], "termination": [0, 1],
                    "policy": {"2": "to-edge", "3": "to-edge"}}],
    },
}


class TestRefinementOracle:
    """`refine` gives the trace `oracle_refine` composes from whole option
    executions: same start, end, steps, visited states and reward."""

    @pytest.mark.parametrize("plan_mode", PLAN_MODES)
    def test_benchmark_queries_from_every_start(self, taxi_hierarchy, queries, plan_mode):
        h = taxi_hierarchy
        for q in queries.values():
            answer = answer_query(h, q, plan_mode=plan_mode)
            for start in q.starts:
                assert refine(h, answer.plan, start) == oracle_refine(h, answer.plan, start)

    def test_only_the_options_own_level_is_executed(
        self, taxi_hierarchy, queries, monkeypatch
    ):
        """Below the option's own level, refinement reads the recorded lower
        runs: `_execute_into` runs once, over the plan's level."""
        h = taxi_hierarchy
        answers = [answer_query(h, q) for q in queries.values()]
        assert {a.level_index for a in answers} == {0, 1, 2}
        execute = hierplan.planner._execute_into
        levels = []

        def counted(level, option, start, visited):
            levels.append(level.level_index)
            return execute(level, option, start, visited)

        monkeypatch.setattr(hierplan.planner, "_execute_into", counted)
        for q, answer in zip(queries.values(), answers):
            for start in q.starts:
                levels.clear()
                refine(h, answer.plan, start)
                assert levels == [answer.level_index]

    def test_level2_tours(self, taxi_by_reward_mode):
        """Plans over level 2 that ferry the passenger through every depot
        in turn, each step refined before the next, from every base state
        each tour's first depot grounds."""
        h = taxi_by_reward_mode
        ferry_to = h.level(2).space.labels  # node t is passenger-to-<depot>'s effect
        for tour in itertools.permutations(range(h.num_states(2))):
            policy = {s: ferry_to[t] for s, t in zip(tour, tour[1:])}
            first, last = (GroundingSet.single(2, tour[i]) for i in (0, -1))
            plan = Option("tour", first, last, policy)
            for start in h.final_ground(2, first):
                trace = refine(h, plan, start)
                assert trace == oracle_refine(h, plan, start)
                assert trace.end in h.final_ground(2, last)

    @pytest.mark.parametrize("plan_mode", PLAN_MODES)
    def test_random_query_answers(self, taxi_by_reward_mode, plan_mode):
        h = taxi_by_reward_mode
        levels = set()
        for q in random_queries(h.base, 40, seed=4242):
            answer = answer_query(h, q, plan_mode=plan_mode)
            assert answer is not None, "taxi is strongly connected"
            levels.add(answer.level_index)
            starts = list(q.starts)
            for start in starts[:: max(1, len(starts) // 6)]:
                assert refine(h, answer.plan, start) == oracle_refine(h, answer.plan, start)
        assert levels == {0, 1, 2}

    @pytest.mark.parametrize("start", [-1, -2, "num_states", 10**6])
    def test_start_outside_the_base_faults(self, taxi_hierarchy, queries, start):
        """A start that is no base state faults, from the same cause as the
        oracle's, for every option of both sets and every benchmark query's
        plan."""
        h = taxi_hierarchy
        s = h.num_states(0) if start == "num_states" else start
        options = [o for options in h.option_sets for o in options]
        options += [answer_query(h, q).plan for q in queries.values()]
        for option in options:
            with pytest.raises(RefinementFault) as got:
                refine(h, option, s)
            with pytest.raises(RefinementFault) as want:
                oracle_refine(h, option, s)
            assert type(got.value.__cause__) is type(want.value.__cause__)

    def test_written_policy_names_a_split_option(self):
        """A level-2 skill's written policy names the level-1 option
        ``to-edge``, which splits into a part from base 1 to 0 and one
        from 2 to 3. Each entry resolves to the part applicable in its
        state, both in the build and in refinement."""
        mdp, sets = load_domain(SPLIT_LINE)
        h = build_hierarchy(mdp, [sets["level1"], sets["level2"]])
        assert h.validate() == []
        assert h.level(1).actions == ("to-edge#0", "to-edge#1", "to-middle#0", "to-middle#1")
        (out,) = h.option_sets[1]
        for start, end in ((1, 0), (2, 3)):
            trace = refine(h, out, start)
            assert trace.visited == (start, end)
            assert trace == oracle_refine(h, out, start)

    @settings(max_examples=200, deadline=None)
    @given(random_domains(), st.integers(1, 2), st.data())
    def test_random_stacks(self, domain, num_levels, data):
        """On random one- and two-level stacks, answers searched from every
        level and plans with drawn policies at every level refine from
        every base state to the oracle's trace, and fault exactly when the
        oracle does, from a cause of the same type."""
        n, transition, mode, starts, goals = domain
        mdp = BaseMDP(
            space=StateSpace(level_index=0, num_states=n),
            actions=("a", "b"),
            transition=transition,
            reward=dict.fromkeys(transition, -1.0),
        )
        h = Hierarchy(base=mdp, reward_mode=mode)
        try:
            for _ in range(num_levels):
                h = h.add_level(one_step_preimage_options(h.level(h.num_levels)))
        except HierplanError:
            if h.num_levels == 0:
                return
        query = PlanQuery(GroundingSet.of(0, starts), GroundingSet.of(0, goals))
        plans = []
        for top in range(h.num_levels + 1):
            for plan_mode in PLAN_MODES:
                answer = answer_query(h, query, at_level=top, plan_mode=plan_mode)
                if answer is not None:
                    plans.append(answer.plan)
        for j in range(h.num_levels + 1):
            level = h.level(j)
            names = list(level.actions)
            if j:
                names += [o.name for o in h.option_sets[j - 1]]
            ids = st.integers(0, level.num_states - 1)
            policy = data.draw(st.dictionaries(ids, st.sampled_from(names)))
            drawn = [GroundingSet.of(j, data.draw(st.sets(ids, min_size=k))) for k in (1, 0)]
            plans.append(Option("drawn", *drawn, policy))

        def outcome(refinement, plan, start):
            try:
                return refinement(h, plan, start)
            except RefinementFault as fault:
                return type(fault.__cause__)

        for plan in plans:
            for start in range(n):
                assert outcome(refine, plan, start) == outcome(oracle_refine, plan, start)


class TestInstrumentation:
    def test_match_cost_is_linear_in_level_size(self, taxi_hierarchy, queries):
        """No test at level 0, which matches by identity; exactly two
        grounding tests per state at every level visited above it."""
        h = taxi_hierarchy
        for q in queries.values():
            rec = answer_query(h, q).record
            for j, ops in rec.match_ops.items():
                assert ops == (2 * h.num_states(j) if j else 0)

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

    def test_plan_cost_outside_the_match_span_rejected(self):
        """Level 2 was only matched, so a plan cost there is no part of
        the query's cost."""
        stray = InstrumentationRecord(
            search_top=2,
            match_ops={2: 8, 1: 40},
            plan_ops={2: 5, 1: 3},
            first_match_level=1,
            solution_level=1,
            total_ops=51,
        )
        with pytest.raises(
            InconsistentRecord, match=r"^plan cost recorded outside match span: \{2\}$"
        ):
            planning_cost(stray)


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
