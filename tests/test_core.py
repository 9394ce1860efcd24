"""Base MDP dynamics and option execution."""

import pytest
from hypothesis import given, settings, strategies as st

from hierplan import (
    BaseMDP,
    GroundingSet,
    Option,
    PlanQuery,
    StateSpace,
    Variable,
    execute_option,
)
from hierplan.errors import (
    HierplanError,
    InapplicableAction,
    LevelMismatch,
    MalformedInput,
    NotInInitiationSet,
    StepBoundExceeded,
    UndefinedPolicy,
    UnknownName,
)
from hierplan.taxi import taxi_options_level1

from conftest import (
    DEPOTS,
    one_step_preimage_options,
    oracle_execute,
    oracle_grid_distance,
    oracle_taxi_states,
    state_of,
)


class TestTaxiDynamics:
    def test_state_space_matches_oracle_enumeration(self, taxi_mdp):
        oracle = oracle_taxi_states()
        assert taxi_mdp.num_states == len(oracle) == 650
        assert set(taxi_mdp.space.assignments) == set(oracle)

    def test_hand_stepped_move_north(self, taxi_mdp):
        s = state_of(taxi_mdp, 0, 0, 0, 4)
        nxt, r = taxi_mdp.step(s, "move-north")
        assert taxi_mdp.space.assignment(nxt) == (0, 1, 0, 4, False)
        assert r == -1.0

    def test_move_blocked_at_top_row_self_loops(self, taxi_mdp):
        s = state_of(taxi_mdp, 2, 4, 0, 4)
        nxt, r = taxi_mdp.step(s, "move-north")
        assert nxt == s and r == -1.0

    def test_move_blocked_by_wall_self_loops(self, taxi_mdp):
        # the wall between (1,4) and (2,4)
        s = state_of(taxi_mdp, 1, 4, 0, 0)
        nxt, _ = taxi_mdp.step(s, "move-east")
        assert nxt == s

    def test_pick_up_when_colocated(self, taxi_mdp):
        s = state_of(taxi_mdp, 2, 2, 2, 2)
        nxt, r = taxi_mdp.step(s, "pick-up")
        assert taxi_mdp.space.assignment(nxt) == (2, 2, 2, 2, True)
        assert r == -1.0

    def test_pick_up_inapplicable_apart(self, taxi_mdp):
        s = state_of(taxi_mdp, 0, 0, 2, 2)
        with pytest.raises(InapplicableAction):
            taxi_mdp.step(s, "pick-up")

    def test_put_down_only_while_riding(self, taxi_mdp):
        riding = state_of(taxi_mdp, 1, 1, 1, 1, True)
        nxt, _ = taxi_mdp.step(riding, "put-down")
        assert taxi_mdp.space.assignment(nxt) == (1, 1, 1, 1, False)
        outside = state_of(taxi_mdp, 1, 1, 1, 1, False)
        with pytest.raises(InapplicableAction):
            taxi_mdp.step(outside, "put-down")

    def test_riding_passenger_moves_with_taxi(self, taxi_mdp):
        s = state_of(taxi_mdp, 2, 2, 2, 2, True)
        nxt, _ = taxi_mdp.step(s, "move-east")
        assert taxi_mdp.space.assignment(nxt) == (3, 2, 3, 2, True)

    def test_applicability_at_red_depot(self, taxi_mdp):
        s = state_of(taxi_mdp, 0, 4, 0, 4)
        acts = [a for a in taxi_mdp.actions if (s, a) in taxi_mdp.transition]
        assert "pick-up" in acts and "put-down" not in acts
        assert all(m in acts for m in ("move-north", "move-south", "move-east", "move-west"))


class TestOptionExecution:
    def options(self, taxi_mdp):
        return {o.name: o for o in taxi_options_level1(taxi_mdp)}

    def test_drive_to_blue_path_length_matches_oracle(self, taxi_mdp):
        drive = self.options(taxi_mdp)["drive-to-blue"]
        start = state_of(taxi_mdp, 0, 0, 0, 4)
        trace = execute_option(taxi_mdp, drive, start)
        assert trace.steps == oracle_grid_distance((0, 0), DEPOTS["blue"])
        end = taxi_mdp.space.assignment(trace.end)
        assert (end[0], end[1]) == DEPOTS["blue"]
        assert (end[2], end[3], end[4]) == (0, 4, False)

    def test_drive_from_depot_is_zero_steps(self, taxi_mdp):
        drive = self.options(taxi_mdp)["drive-to-blue"]
        start = state_of(taxi_mdp, 3, 0, 0, 4)
        trace = execute_option(taxi_mdp, drive, start)
        assert trace.steps == 0
        assert trace.end == start
        assert trace.visited == (start,)
        assert trace.cumulative_reward == 0.0

    def test_pick_up_outside_initiation(self, taxi_mdp):
        pick = self.options(taxi_mdp)["pick-up"]
        apart = state_of(taxi_mdp, 0, 0, 2, 2)
        with pytest.raises(NotInInitiationSet):
            execute_option(taxi_mdp, pick, apart)

    def test_execution_deterministic(self, taxi_mdp):
        drive = self.options(taxi_mdp)["drive-to-green"]
        start = state_of(taxi_mdp, 0, 0, 3, 0)
        first = execute_option(taxi_mdp, drive, start)
        second = execute_option(taxi_mdp, drive, start)
        assert first == second

    def test_reward_equals_sum_along_visited(self, taxi_mdp):
        drive = self.options(taxi_mdp)["drive-to-red"]
        start = state_of(taxi_mdp, 3, 0, 2, 2)
        trace = execute_option(taxi_mdp, drive, start)
        total = 0.0
        for a, b in zip(trace.visited, trace.visited[1:]):
            action = next(
                act
                for act in taxi_mdp.actions
                if taxi_mdp.transition.get((a, act)) == b
            )
            total += taxi_mdp.reward[(a, action)]
        assert total == trace.cumulative_reward

    def test_all_options_close_over_all_initiation_states(self, taxi_mdp):
        """Exhaustive: every execution terminates inside the termination
        set within the step bound."""
        for option in taxi_options_level1(taxi_mdp):
            for s in option.initiation:
                trace = execute_option(taxi_mdp, option, s)
                assert trace.end in option.termination
                assert trace.steps <= 10 * taxi_mdp.num_states

    def test_step_bound_exceeded_on_livelock(self, taxi_mdp):
        spin = Option(
            name="spin",
            initiation=GroundingSet.of(0, {0}),
            termination=GroundingSet.of(0, {649}),
            policy={s: "move-west" for s in range(650)},
        )
        with pytest.raises(StepBoundExceeded, match="exceeded 6500 steps"):
            execute_option(taxi_mdp, spin, 0)

    def test_undefined_policy_raises(self, taxi_mdp):
        partial = Option(
            name="partial",
            initiation=GroundingSet.of(0, {0}),
            termination=GroundingSet.of(0, {649}),
            policy={},
        )
        with pytest.raises(UndefinedPolicy):
            execute_option(taxi_mdp, partial, 0)

    def test_option_over_another_level_raises_level_mismatch(self, taxi_hierarchy):
        """An option runs only over the level its sets are over: a level-1
        option over the base, and a base option over level 1, each from a
        start in its initiation set, are refused before any step."""
        h = taxi_hierarchy
        upper, lower = h.option_sets[1][0], h.option_sets[0][0]
        assert (upper.level_index, lower.level_index) == (1, 0)
        for level, option, j in ((h.base, upper, 0), (h.level(1), lower, 1)):
            message = f"option {option.name!r} is over level {option.level_index}, "
            with pytest.raises(LevelMismatch, match=f"^{message}run over level {j}$"):
                execute_option(level, option, next(iter(option.initiation)))


def outcome(run, level, option, start):
    """An execution's trace, or its error's type and message."""
    try:
        return run(level, option, start)
    except HierplanError as exc:
        return type(exc), str(exc)


class TestMembershipStrings:
    """Options test termination by indexing a string built once, and a
    start by ``in`` on the initiation set; the answers, traces and errors
    are those of ``in`` on both sets."""

    @given(
        st.sets(st.integers(0, 3000), min_size=1),
        st.sets(st.integers(0, 3000)),
    )
    def test_string_test_matches_contains(self, initiation, termination):
        option = Option(
            "o", GroundingSet.of(0, initiation), GroundingSet.of(0, termination), {}
        )
        g, bits = option.termination, option._termination_bits
        for i in range(-2, g.bits.bit_length() + 3):
            # a negative id, or one past the string's end, is no member
            assert (0 <= i < len(bits) and bits[i] == "1") == (i in g)
        level = BaseMDP(StateSpace(0, 1), (), {}, {})
        for start in (-1, max(initiation) + 1):
            with pytest.raises(NotInInitiationSet):
                execute_option(level, option, start)

    def test_strings_take_no_part_in_equality(self):
        a = Option("o", GroundingSet.of(0, {1}), GroundingSet.of(0, {2}), {1: "x"})
        assert a == Option("o", GroundingSet.of(0, {1}), GroundingSet.of(0, {2}), {1: "x"})
        assert "_termination_bits" not in repr(a)
        assert not hasattr(a, "_initiation_bits")

    def test_every_start_matches_the_in_loop(self, taxi_hierarchy):
        """Every option of both sets, from every state of its level, gives
        `oracle_execute`'s trace or error, and from the ids -2, -1, the
        state count and 10**6 raises NotInInitiationSet. The level-2
        options step over level 1 by option id, which the tables lack, so
        those steps take the ``level.step`` fallback."""
        for j, options in enumerate(taxi_hierarchy.option_sets):
            level = taxi_hierarchy.level(j)
            n = level.num_states
            for option in options:
                for s in range(n):
                    assert outcome(execute_option, level, option, s) == outcome(
                        oracle_execute, level, option, s
                    )
                for s in (-2, -1, n, 10**6):
                    got = outcome(execute_option, level, option, s)
                    assert got == outcome(oracle_execute, level, option, s)
                    assert got[0] is NotInInitiationSet

    def test_inapplicable_action_matches_the_in_loop(self, taxi_mdp):
        """A policy action the tables lack in a state raises the base
        step's InapplicableAction, message included."""
        put = Option(
            "put", GroundingSet.of(0, {0}), GroundingSet.of(0, {649}), {0: "put-down"}
        )
        got = outcome(execute_option, taxi_mdp, put, 0)
        assert got == outcome(oracle_execute, taxi_mdp, put, 0)
        assert got[0] is InapplicableAction


# domain values of the taxi variables, plus one no variable takes
WHERE_VALUES = st.sampled_from([0, 1, 2, 4, 9, False, True])


@st.composite
def where_constraints(draw):
    """Constraints on a random subset of the taxi variables, each a single
    value, a list or a set of values (possibly empty)."""
    out = {}
    for name in ("taxi-x", "taxi-y", "pass-x", "pass-y", "in-taxi"):
        kind = draw(st.sampled_from(["absent", "value", "list", "set"]))
        if kind == "value":
            out[name] = draw(WHERE_VALUES)
        elif kind != "absent":
            values = draw(st.lists(WHERE_VALUES, max_size=3))
            out[name] = values if kind == "list" else set(values)
    return out


class TestWhere:
    @settings(max_examples=200, deadline=None)
    @given(constraints=where_constraints())
    def test_matches_brute_force_filter(self, taxi_mdp, constraints):
        space = taxi_mdp.space
        names = space.variable_names()
        expected = [
            s
            for s in space.states
            if all(
                space.assignment(s)[names.index(var)]
                in (allowed if isinstance(allowed, (list, set)) else (allowed,))
                for var, allowed in constraints.items()
            )
        ]
        assert list(space.where(**constraints)) == expected

    def test_no_constraints_is_every_state(self, taxi_mdp):
        assert list(taxi_mdp.space.where()) == list(taxi_mdp.space.states)

    def test_variable_named_self(self):
        """A domain may name a variable ``self``; it is a constraint like
        any other, not the method's own argument."""
        space = StateSpace(0, 2, (Variable("self", (0, 1)),), ((0,), (1,)))
        assert list(space.where(**{"self": 1})) == [1]

    @pytest.mark.parametrize(
        "constraints",
        [{"taxi-x": 9, "colour": 1}, {"taxi-x": [], "colour": 1}, {"colour": 1}],
        ids=["after-no-survivors", "after-empty-list", "alone"],
    )
    def test_unknown_variable_raises(self, taxi_mdp, constraints):
        with pytest.raises(UnknownName):
            taxi_mdp.space.where(**constraints)


THREE = StateSpace(level_index=0, num_states=3)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: StateSpace(level_index=0, num_states=0),
            lambda: BaseMDP(THREE, ("go",), {(0, "go"): 9}, {(0, "go"): -1.0}),
            lambda: BaseMDP(THREE, ("go",), {(0, "go"): 1}, {(0, "go"): -1.0, (1, "go"): -1.0}),
            lambda: BaseMDP(THREE, ("go",), {(0, "go"): 1}, {(0, "go"): -1.0}, gamma=0.0),
            lambda: Option("o", GroundingSet.empty(0), GroundingSet.of(0, {1}), {}),
            lambda: GroundingSet.of(0, [-1]),
            lambda: GroundingSet.of(0, [4, 0, -2, 7]),
            lambda: PlanQuery(GroundingSet.empty(0), GroundingSet.of(0, {1})),
            lambda: PlanQuery(GroundingSet.of(1, {0}), GroundingSet.of(1, {1})),
            lambda: Option("o", GroundingSet.of(0, {0}), GroundingSet.of(1, {1}), {}),
            lambda: StateSpace(0, 2, variables=(Variable("p", (0, 1)),)),
            lambda: StateSpace(0, 2, assignments=((0,), (1,))),
            lambda: StateSpace(0, 3, (Variable("p", (0, 1)),), ((0,), (1,))),
            lambda: StateSpace(0, 2, (Variable("p", (0, 1)),), ((0,), (1, 0))),
            lambda: StateSpace(0, 2, (Variable("p", (0, 1)),), ((1,), (1,))),
            lambda: StateSpace(0, 2, labels=("only",)),
        ],
        ids=[
            "no-states",
            "target-outside",
            "reward-keys",
            "gamma",
            "empty-initiation",
            "negative-index",
            "negative-index-after-others",
            "empty-starts",
            "query-over-level-1",
            "option-mixes-levels",
            "variables-without-assignments",
            "assignments-without-variables",
            "assignment-count",
            "assignment-arity",
            "duplicate-assignment",
            "label-count",
        ],
    )
    def test_rejected_with_typed_error(self, make):
        with pytest.raises(MalformedInput):
            make()


class TestOneStepWrappers:
    def test_each_wrapper_is_single_step(self, taxi_mdp):
        wrappers = one_step_preimage_options(taxi_mdp)
        assert len(wrappers) == 650  # taxi is strongly connected
        samples = wrappers[:: 40]
        for option in samples:
            target = next(iter(option.termination))
            for s in list(option.initiation)[:5]:
                trace = execute_option(taxi_mdp, option, s)
                assert trace.end == target
                assert trace.steps <= 1
