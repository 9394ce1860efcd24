"""Effect sets, option classification and partitioning, and the two
abstract-level constructions."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierplan import (
    AbstractLevel,
    AbstractSubgoal,
    BaseMDP,
    Construction,
    GroundingSet,
    Option,
    OptionPart,
    RewardMode,
    StateSpace,
    Subgoal,
    Unclassifiable,
    Variable,
    assign_rewards,
    build_factored_abstraction,
    build_plan_graph,
    classify_option,
    compute_effect_set,
    execute_option,
    partition_option,
)
from hierplan.errors import (
    InapplicableAction,
    InvalidSeed,
    MalformedInput,
    NoSubgoalStructure,
    PartitionExplosion,
    StepBoundExceeded,
    UndefinedPolicy,
    UnknownName,
)
from hierplan import build_taxi, build_taxi_hierarchy
from hierplan.abstraction import DEFAULT_PART_LIMIT
from hierplan.taxi import (
    TaxiLayout,
    depot_seed_states,
    taxi_options_level1,
    taxi_options_level2,
)

from conftest import DEPOTS, state_of


def option_by_name(options, name):
    return next(o for o in options if o.name == name)


class TestEffectSets:
    def test_pick_up_effect_is_25_riding_states(self, taxi_mdp):
        pick = option_by_name(taxi_options_level1(taxi_mdp), "pick-up")
        effect = compute_effect_set(pick, taxi_mdp)
        assert len(effect.states) == 25
        for s in effect.states:
            tx, ty, px, py, riding = taxi_mdp.space.assignment(s)
            assert riding and (tx, ty) == (px, py)

    def test_passenger_to_red_effect_is_singleton(self, fresh_hierarchy):
        h = fresh_hierarchy
        ferry = option_by_name(taxi_options_level2(h), "passenger-to-red")
        effect = compute_effect_set(ferry, h.level(1))
        assert len(effect.states) == 1
        s = next(iter(effect.states))
        assert h.level(1).space.assignment(s) == (0, 4, 0, 4, False)

    def test_fixed_point_option_effect(self, taxi_mdp):
        s_star = state_of(taxi_mdp, 2, 2, 2, 2)
        idle = Option(
            name="idle",
            initiation=GroundingSet.of(0, {s_star}),
            termination=GroundingSet.of(0, {s_star}),
            policy={},
        )
        effect = compute_effect_set(idle, taxi_mdp)
        assert set(effect.states) == {s_star}


class TestTerminalMaps:
    """The memoized terminal maps behind effect sets and partitions agree
    with one ``execute_option`` per initiation state."""

    @staticmethod
    def fresh_levels(h):
        """(level, fresh options over it) for both taxi option sets."""
        return [
            (h.level(0), lambda: taxi_options_level1(h.base)),
            (h.level(1), lambda: taxi_options_level2(h)),
        ]

    def test_effects_and_parts_match_per_start_execution(self, taxi_hierarchy):
        for level, fresh in self.fresh_levels(taxi_hierarchy):
            for option in fresh():
                ends = {
                    s: execute_option(level, option, s).end
                    for s in option.initiation
                }
                effect = compute_effect_set(option, level)
                assert set(effect.states) == set(ends.values())
                for part in partition_option(option, level).parts:
                    part_ends = {ends[s] for s in part.initiation}
                    assert set(part.effect) == part_ends
                    if part.terminal_state is not None:
                        assert part_ends == {part.terminal_state}

    def test_statistics_match_per_start_execution(self, taxi_hierarchy):
        """Every part stores its option's mean return over the whole
        initiation set, zero-step starts included."""
        for level, fresh in self.fresh_levels(taxi_hierarchy):
            for option in fresh():
                returns = [
                    execute_option(level, option, s).cumulative_reward
                    for s in option.initiation
                ]
                expected = sum(returns) / len(returns)
                for part in partition_option(option, level).parts:
                    # returns are summed from the end of the walk backwards
                    assert part.mean_return == pytest.approx(expected, rel=1e-12)

    # 0 reaches the terminal state 4 in one step; 1 -> 2 -> 3 -> 2 loops;
    # "stuck" applies nowhere
    CHAIN = {(0, "go"): 4, (1, "go"): 2, (2, "go"): 3, (3, "go"): 2}

    @pytest.mark.parametrize(
        "policy, error",
        [
            ({0: "go", 1: "go", 2: "go", 3: "go"}, StepBoundExceeded),
            ({0: "go", 1: "go", 2: "go"}, UndefinedPolicy),
            ({0: "go", 1: "go", 2: "stuck"}, InapplicableAction),
        ],
    )
    def test_first_failing_start_raises_as_per_start_execution(self, policy, error):
        mdp = BaseMDP(
            space=StateSpace(level_index=0, num_states=5),
            actions=("go", "stuck"),
            transition=self.CHAIN,
            reward=dict.fromkeys(self.CHAIN, -1.0),
        )
        option = Option(
            name="broken",
            initiation=GroundingSet.of(0, {0, 1, 2}),
            termination=GroundingSet.of(0, {4}),
            policy=policy,
        )
        # start 0 succeeds; start 1 is the first to fail
        execute_option(mdp, option, 0)
        with pytest.raises(error) as per_start:
            execute_option(mdp, option, 1)
        with pytest.raises(error, match=re.escape(str(per_start.value))):
            compute_effect_set(option, mdp)
        if error is StepBoundExceeded:
            assert "from state 1" in str(per_start.value)

    def test_open_8x8_grid_builds_and_validates(self):
        layout = TaxiLayout(
            width=8,
            height=8,
            depots=(
                ("red", (0, 7)),
                ("green", (7, 7)),
                ("blue", (7, 0)),
                ("yellow", (0, 0)),
            ),
        )
        h = build_taxi_hierarchy(layout)
        assert h.validate() == []
        assert [h.num_states(j) for j in range(3)] == [4160, 20, 4]
        assert len(h.base.transition) == 16768
        assert [len(h.level(j).actions) for j in (1, 2)] == [10, 4]
        assert [len(h.level(j).transitions) for j in (1, 2)] == [108, 12]


class TestClassification:
    def test_passenger_to_red_is_subgoal(self, fresh_hierarchy):
        h = fresh_hierarchy
        ferry = option_by_name(taxi_options_level2(h), "passenger-to-red")
        assert isinstance(classify_option(ferry, h.level(1)), Subgoal)

    def test_drive_restricted_to_outside_is_abstract_subgoal(self, taxi_mdp):
        drive = option_by_name(taxi_options_level1(taxi_mdp), "drive-to-blue")
        outside = taxi_mdp.space.where(**{"in-taxi": False})
        restricted = Option(
            name="drive-to-blue-outside",
            initiation=outside,
            termination=drive.termination,
            policy=drive.policy,
        )
        cls = classify_option(restricted, taxi_mdp)
        assert isinstance(cls, AbstractSubgoal)
        assert cls.mask == {"taxi-x", "taxi-y"}

    def test_zero_step_starts_are_identity_abstract_subgoal(self, taxi_mdp):
        """Starts already in the termination set end where they began: no
        variable changes, but the terminal state depends on the start."""
        drive = option_by_name(taxi_options_level1(taxi_mdp), "drive-to-red")
        parked = Option(
            name="drive-to-red-parked",
            initiation=drive.termination,
            termination=drive.termination,
            policy=drive.policy,
        )
        assert classify_option(parked, taxi_mdp) == AbstractSubgoal(frozenset())
        (part,) = partition_option(parked, taxi_mdp).parts
        assert part.option_class == AbstractSubgoal(frozenset())

    def test_unrestricted_drive_is_unclassifiable(self, taxi_mdp):
        drive = option_by_name(taxi_options_level1(taxi_mdp), "drive-to-blue")
        cls = classify_option(drive, taxi_mdp)
        assert isinstance(cls, Unclassifiable)


class TestPartitioning:
    def test_drive_options_split_into_two_parts(self, taxi_mdp):
        for depot in DEPOTS:
            drive = option_by_name(taxi_options_level1(taxi_mdp), f"drive-to-{depot}")
            parts = partition_option(drive, taxi_mdp).parts
            assert len(parts) == 2
            masks = sorted(tuple(sorted(p.mask)) for p in parts)
            assert masks == [
                ("pass-x", "pass-y", "taxi-x", "taxi-y"),
                ("taxi-x", "taxi-y"),
            ]

    def test_riding_part_holds_riding_states(self, taxi_mdp):
        drive = option_by_name(taxi_options_level1(taxi_mdp), "drive-to-blue")
        parts = partition_option(drive, taxi_mdp).parts
        wide = next(p for p in parts if len(p.mask) == 4)
        for s in wide.initiation:
            assert taxi_mdp.space.value(s, "in-taxi") is True

    def test_pick_up_and_put_down_are_single_parts(self, taxi_mdp):
        options = taxi_options_level1(taxi_mdp)
        for name, terminal in (("pick-up", True), ("put-down", False)):
            parts = partition_option(option_by_name(options, name), taxi_mdp).parts
            assert len(parts) == 1
            assert parts[0].mask == {"in-taxi"}
            assert dict(parts[0].effect_values) == {"in-taxi": terminal}

    def test_subgoal_option_is_one_part(self, fresh_hierarchy):
        h = fresh_hierarchy
        ferry = option_by_name(taxi_options_level2(h), "passenger-to-green")
        parts = partition_option(ferry, h.level(1)).parts
        assert len(parts) == 1
        assert isinstance(parts[0].option_class, Subgoal)

    def test_parts_partition_the_initiation_set(self, taxi_mdp):
        for option in taxi_options_level1(taxi_mdp):
            parts = partition_option(option, taxi_mdp).parts
            union = GroundingSet.empty(0)
            for p in parts:
                assert union.isdisjoint(p.initiation)
                union = union | p.initiation
            assert union == option.initiation

    def test_each_part_individually_classifies(self, taxi_mdp):
        for option in taxi_options_level1(taxi_mdp):
            for part in partition_option(option, taxi_mdp).parts:
                restricted = Option(
                    name=f"{part.part_id}-alone",
                    initiation=part.initiation,
                    termination=option.termination,
                    policy=option.policy,
                )
                cls = classify_option(restricted, taxi_mdp)
                assert not isinstance(cls, Unclassifiable)

    @given(
        st.integers(min_value=0, max_value=3),
        st.sets(st.integers(min_value=0, max_value=649), min_size=1, max_size=30),
    )
    @settings(max_examples=25, deadline=None)
    def test_partition_invariants_on_random_restrictions(self, depot_idx, starts):
        """Partition correctness holds for arbitrary restrictions of a
        navigation option: parts cover the initiation set, are pairwise
        disjoint, and each classifies."""
        mdp = build_taxi()
        depot = sorted(DEPOTS)[depot_idx]
        drive = option_by_name(taxi_options_level1(mdp), f"drive-to-{depot}")
        restricted = Option(
            name="restricted",
            initiation=GroundingSet.of(0, starts),
            termination=drive.termination,
            policy=drive.policy,
        )
        parts = partition_option(restricted, mdp).parts
        union = GroundingSet.empty(0)
        for p in parts:
            assert not isinstance(p.option_class, Unclassifiable)
            assert union.isdisjoint(p.initiation)
            union = union | p.initiation
        assert union == restricted.initiation

    def test_distinct_full_mask_terminals_stay_separate_parts(self):
        """Each start changes every variable, to different values: each
        alone is a subgoal, together they do not classify."""
        space = StateSpace(
            level_index=0,
            num_states=4,
            variables=(Variable("a", (0, 1)), Variable("b", (0, 1))),
            assignments=((0, 0), (1, 1), (0, 1), (1, 0)),
        )
        transition = {(0, "flip"): 1, (2, "flip"): 3}
        mdp = BaseMDP(
            space=space,
            actions=("flip",),
            transition=transition,
            reward=dict.fromkeys(transition, -1.0),
        )
        flip = Option(
            name="flip",
            initiation=GroundingSet.of(0, {0, 2}),
            termination=GroundingSet.of(0, {1, 3}),
            policy={0: "flip", 2: "flip"},
        )
        assert isinstance(classify_option(flip, mdp), Unclassifiable)
        parts = partition_option(flip, mdp).parts
        assert sorted(p.terminal_state for p in parts) == [1, 3]
        assert all(isinstance(p.option_class, Subgoal) for p in parts)

    def test_partition_explosion(self):
        # a non-factored space where the option stops in one more state
        # than the part limit allows
        n = DEFAULT_PART_LIMIT + 1
        space = StateSpace(level_index=0, num_states=n)
        transition = {(s, "halt"): s for s in range(n)}
        reward = dict.fromkeys(transition, -1.0)
        mdp = BaseMDP(space=space, actions=("halt",), transition=transition, reward=reward)
        scatter = Option(
            name="scatter",
            initiation=GroundingSet.of(0, range(n)),
            termination=GroundingSet.of(0, range(n)),
            policy={},
        )
        with pytest.raises(PartitionExplosion):
            partition_option(scatter, mdp)


class TestPlanGraph:
    def test_taxi_level2_four_nodes_twelve_edges(self, taxi_hierarchy):
        level = taxi_hierarchy.level(2)
        assert level.num_states == 4
        assert len(level.transitions) == 12
        for i in range(4):
            for part in level.parts:
                j = level.space.labels.index(part.part_id)
                if i == j:
                    assert (i, part.part_id) not in level.transitions
                else:
                    assert level.transitions[(i, part.part_id)] == j

    def test_self_loop_when_effect_inside_own_initiation(self):
        space = StateSpace(level_index=0, num_states=3)
        mdp = BaseMDP(
            space=space,
            actions=("go",),
            transition={(0, "go"): 1, (1, "go"): 1, (2, "go"): 1},
            reward={(0, "go"): -1.0, (1, "go"): -1.0, (2, "go"): -1.0},
        )
        homing = Option(
            name="homing",
            initiation=GroundingSet.of(0, {0, 1, 2}),
            termination=GroundingSet.of(0, {1}),
            policy={0: "go", 2: "go"},
        )
        level = build_plan_graph([homing], mdp)
        assert level.num_states == 1
        assert level.transitions == {(0, "homing"): 0}

    def test_no_edge_when_superset_test_fails(self):
        space = StateSpace(level_index=0, num_states=4)
        transition = {(0, "a"): 1, (2, "b"): 3, (3, "b"): 3}
        mdp = BaseMDP(
            space=space,
            actions=("a", "b"),
            transition=transition,
            reward=dict.fromkeys(transition, -1.0),
        )
        first = Option(
            name="first",
            initiation=GroundingSet.of(0, {0}),
            termination=GroundingSet.of(0, {1}),
            policy={0: "a"},
        )
        second = Option(
            name="second",
            initiation=GroundingSet.of(0, {2, 3}),
            termination=GroundingSet.of(0, {3}),
            policy={2: "b"},
        )
        level = build_plan_graph([first, second], mdp)
        # effect of first = {1}, not inside initiation of second = {2,3}
        assert (0, "second") not in level.transitions
        assert (1, "first") not in level.transitions

    def test_rejects_non_subgoal_parts(self, taxi_mdp):
        with pytest.raises(NoSubgoalStructure):
            build_plan_graph(taxi_options_level1(taxi_mdp), taxi_mdp)

    def test_widening_safety(self, taxi_hierarchy):
        """Widened grounding of a node lies inside the initiation set of
        every outgoing edge's part."""
        level = taxi_hierarchy.level(2)
        for (s, part_id), _ in level.transitions.items():
            part = level.part(part_id)
            assert level.grounding_of(s).issubset(part.initiation)


class TestFactoredConstruction:
    def test_taxi_level1_has_20_states(self, taxi_hierarchy):
        level = taxi_hierarchy.level(1)
        assert level.num_states == 20
        riding = [s for s in level.space.states if level.space.value(s, "in-taxi")]
        assert len(riding) == 4

    def test_closure_without_pick_up_loses_riding_states(self, taxi_mdp):
        options = [
            o for o in taxi_options_level1(taxi_mdp) if o.name != "pick-up"
        ]
        level = build_factored_abstraction(
            options, taxi_mdp, depot_seed_states(taxi_mdp)
        )
        assert level.num_states == 16
        assert not any(
            level.space.value(s, "in-taxi") for s in level.space.states
        )

    def test_empty_option_list_keeps_seed_assignments(self, taxi_mdp):
        level = build_factored_abstraction([], taxi_mdp, depot_seed_states(taxi_mdp))
        assert level.num_states == 16
        assert len(level.transitions) == 0

    def test_invalid_seed_rejected(self, taxi_mdp):
        with pytest.raises(InvalidSeed):
            build_factored_abstraction(
                [], taxi_mdp, GroundingSet.of(0, {10_000})
            )

    def test_groundings_are_exact_matches(self, taxi_hierarchy):
        level = taxi_hierarchy.level(1)
        base_space = taxi_hierarchy.base.space
        for s in level.space.states:
            g = level.grounding_of(s)
            assert len(g) == 1
            assert base_space.assignment(next(iter(g))) == level.space.assignment(s)


class TestSoundness:
    """Exhaustive image and applicability checks over both taxi levels."""

    def test_level1_transitions_sound(self, taxi_hierarchy):
        h = taxi_hierarchy
        level = h.level(1)
        for (s, part_id), t in level.transitions.items():
            part = level.part(part_id)
            g = level.grounding_of(s)
            assert g.issubset(part.initiation)
            target = level.grounding_of(t)
            for x in g:
                end = execute_option(h.base, part.option, x).end
                assert end in target

    def test_level2_transitions_sound(self, taxi_hierarchy):
        h = taxi_hierarchy
        level = h.level(2)
        below = h.level(1)
        for (s, part_id), t in level.transitions.items():
            part = level.part(part_id)
            g = level.grounding_of(s)
            assert g.issubset(part.initiation)
            target = level.grounding_of(t)
            for x in g:
                end = execute_option(below, part.option, x).end
                assert end in target


class TestAbstractLevelTables:
    """An abstract level is a BaseMDP whose actions are part ids, so the
    base MDP's table checks guard it too."""

    @staticmethod
    def make(**changes):
        option = Option(
            name="advance",
            initiation=GroundingSet.of(0, {0, 1}),
            termination=GroundingSet.of(0, {2}),
            policy={0: "go", 1: "go"},
        )
        part = OptionPart(
            part_id="advance#0",
            option=option,
            initiation=option.initiation,
            option_class=Subgoal(),
            effect=GroundingSet.of(0, {2}),
            mean_return=-1.5,
            terminal_state=2,
        )
        tables = dict(
            space=StateSpace(level_index=1, num_states=2),
            actions=("advance#0",),
            transition={(0, "advance#0"): 1},
            reward={(0, "advance#0"): -1.0},
            parts=(part,),
            groundings={0: GroundingSet.of(0, {0, 1}), 1: GroundingSet.of(0, {2})},
            construction=Construction.PLAN_GRAPH,
        )
        return AbstractLevel(**{**tables, **changes})

    def test_well_formed_level_steps_by_part_or_option_id(self):
        level = self.make()
        assert isinstance(level, BaseMDP)
        assert level.step(0, "advance#0") == (1, -1.0)
        assert level.step(0, "advance") == (1, -1.0)
        assert level.predecessor_edges(1) == ((0, "advance#0"),)
        with pytest.raises(InapplicableAction):
            level.step(1, "advance")

    @pytest.mark.parametrize(
        "changes, error, message",
        [
            (
                {"transition": {(0, "advance#0"): 2}},
                MalformedInput,
                "transition (0, 'advance#0') -> 2 leaves the space",
            ),
            (
                {"reward": {(1, "advance#0"): -1.0}},
                MalformedInput,
                "reward and transition tables have different keys",
            ),
            (
                {"transition": {(0, "ghost"): 1}, "reward": {(0, "ghost"): -1.0}},
                UnknownName,
                "transition (0, 'ghost') uses an undeclared action",
            ),
            (
                {"actions": ("advance#0", "ghost")},
                MalformedInput,
                "an abstract level's actions must be its part ids",
            ),
        ],
        ids=["target-outside", "reward-keys", "undeclared-part", "actions-not-parts"],
    )
    def test_malformed_tables_rejected(self, changes, error, message):
        with pytest.raises(error, match=re.escape(message)):
            self.make(**changes)


class TestRewardAssignment:
    def test_uniform_penalty(self, taxi_hierarchy):
        level = assign_rewards(taxi_hierarchy.level(1), RewardMode.UNIFORM_PENALTY)
        assert set(level.reward.values()) == {-1.0}

    def test_empirical_mean_is_arithmetic_mean(self, taxi_mdp):
        drive = option_by_name(taxi_options_level1(taxi_mdp), "drive-to-blue")
        a = state_of(taxi_mdp, 0, 0, 0, 4)      # distance 7 from blue
        b = state_of(taxi_mdp, 4, 0, 0, 4)      # distance 1 from blue
        two_starts = Option(
            name=drive.name,
            initiation=GroundingSet.of(0, {a, b}),
            termination=drive.termination,
            policy=drive.policy,
        )
        parts = partition_option(two_starts, taxi_mdp).parts
        assert [p.mean_return for p in parts] == [(-7.0 + -1.0) / 2]
        level = build_factored_abstraction(
            [two_starts], taxi_mdp, GroundingSet.of(0, {a, b}), _parts=parts
        )
        level = assign_rewards(level, RewardMode.EMPIRICAL_MEAN)
        assert set(level.reward.values()) == {-4.0}

    def test_empirical_hierarchy_rewards_are_negative_means(self):
        from hierplan import build_taxi_hierarchy

        h = build_taxi_hierarchy(reward_mode=RewardMode.EMPIRICAL_MEAN)
        for j in (1, 2):
            for (_, part_id), r in h.level(j).reward.items():
                assert r <= 0.0
        # ferrying costs several navigation steps on average at the base,
        # but abstract level-2 rewards come from level-1 step counts
        drive_parts = [
            r for (_, pid), r in h.level(1).reward.items() if pid.startswith("drive-to-")
        ]
        assert all(r < -1.0 for r in drive_parts)
