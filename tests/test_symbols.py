"""Set algebra of grounding sets and the hierarchy's grounding operators."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hierplan import GroundingSet
from hierplan.errors import LevelMismatch, LevelOutOfRange, UnknownName

from conftest import value_of

# wider than the 20,880 states of a 12x12 taxi grid; includes the empty set
indices = st.sets(st.integers(min_value=0, max_value=25_000))
# at most 65 bits wide, to pair with the wide sets above
narrow = st.sets(st.integers(min_value=0, max_value=64))


def gs(members, level=0):
    return GroundingSet.of(level, members)


class TestSetAlgebra:
    # iteration is checked as a list, so member order is pinned too
    @given(indices, indices)
    @example(set(), set())
    @example({0}, {25_000})
    def test_union_matches_set_oracle(self, a, b):
        assert list(gs(a) | gs(b)) == sorted(a | b)

    @given(indices, indices)
    def test_intersection_matches_set_oracle(self, a, b):
        assert list(gs(a) & gs(b)) == sorted(a & b)

    @given(indices, indices)
    def test_difference_matches_set_oracle(self, a, b):
        assert list(gs(a) - gs(b)) == sorted(a - b)

    @given(indices, indices)
    def test_subset_matches_set_oracle(self, a, b):
        assert gs(a).issubset(gs(b)) == a.issubset(b)

    @given(st.tuples(narrow, indices) | st.tuples(indices, narrow))
    @example(({0}, {0, 25_000}))
    @example(({0, 25_000}, {0}))
    def test_subset_and_difference_across_widths(self, pair):
        """Neither test negates a set, so a narrow and a wide operand, in
        either order, give Python's answers and a non-negative mask."""
        a, b = pair
        assert gs(a).issubset(gs(b)) == a.issubset(b)
        assert (gs(a) <= gs(b)) == (a <= b)
        diff = gs(a) - gs(b)
        assert list(diff) == sorted(a - b)
        assert diff.bits >= 0

    @given(indices)
    def test_intersection_idempotent(self, a):
        assert gs(a) & gs(a) == gs(a)

    @given(indices, indices)
    def test_absorption(self, a, b):
        assert gs(a).issubset(gs(a) | gs(b))
        assert (gs(a) & gs(b)).issubset(gs(a))

    @given(indices)
    def test_emptiness_and_len(self, a):
        s = gs(a)
        assert s.is_empty() == (len(a) == 0)
        assert len(s) == len(a)
        assert bool(s) == bool(a)

    @given(indices, st.integers(min_value=0, max_value=25_000))
    def test_membership(self, a, x):
        assert (x in gs(a)) == (x in a)

    # lists, so order and duplicates reach the mask build as drawn
    @given(st.one_of(
        st.just([]),
        st.lists(st.integers(min_value=0, max_value=25_000), max_size=40),
        st.integers(min_value=0, max_value=3_000).flatmap(
            lambda w: st.permutations(range(w))
        ),
        st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=30),
    ))
    @example([])
    @example([0, 0, 0])
    @example(list(range(20_735)))
    def test_mask_matches_naive_or(self, members):
        """Empty, sparse, dense (a whole shuffled range) and repeated
        index lists build the mask that ORing ``1 << i`` gives."""
        naive = 0
        for i in members:
            naive |= 1 << i
        assert gs(members).bits == naive
        assert gs(iter(members)).bits == naive

    def test_level_mismatch_rejected(self):
        with pytest.raises(LevelMismatch):
            gs({1}, level=0) | gs({2}, level=1)
        with pytest.raises(LevelMismatch):
            gs({1}, level=2).issubset(gs({1}, level=1))


class TestGroundingOperators:
    def test_identity_at_base(self, taxi_hierarchy):
        some = GroundingSet.of(0, {3, 17, 401})
        assert taxi_hierarchy.final_ground(0, some) == some

    def test_level_out_of_range(self, taxi_hierarchy):
        with pytest.raises(LevelOutOfRange):
            taxi_hierarchy.final_ground(3, GroundingSet.of(3, {0}))

    def test_set_of_another_level_is_level_mismatch(self, taxi_hierarchy):
        with pytest.raises(LevelMismatch, match="^expected level 2, got 1$"):
            taxi_hierarchy.final_ground(2, GroundingSet.of(1, {0}))

    @pytest.mark.parametrize("j", [1, 2])
    def test_unknown_state_is_unknown_name(self, taxi_hierarchy, j):
        """A state the level lacks is an UnknownName naming it and the
        level, which is still a KeyError."""
        level = taxi_hierarchy.level(j)
        with pytest.raises(UnknownName, match=f"^no state 999 at level {j}$"):
            level.grounding_of(999)
        with pytest.raises(KeyError):
            level.grounding_of(999)
        with pytest.raises(UnknownName, match=f"^no state 999 at level {j}$"):
            taxi_hierarchy.final_ground(j, GroundingSet.of(j, {0, 999}))

    def test_level1_grounds_to_singletons(self, taxi_hierarchy):
        h = taxi_hierarchy
        space1 = h.level(1).space
        for s in space1.states:
            g = h.level(1).grounding_of(s)
            assert len(g) == 1
            base_state = next(iter(g))
            assert h.base.space.assignment(base_state) == space1.assignment(s)

    def test_level1_final_ground_all_20_distinct(self, taxi_hierarchy):
        h = taxi_hierarchy
        everything = GroundingSet.of(1, h.level(1).space.states)
        base = h.final_ground(1, everything)
        assert len(base) == 20

    def test_level2_passenger_node_grounds_to_five(self, taxi_hierarchy):
        h = taxi_hierarchy
        space1 = h.level(1).space
        labels = h.level(2).space.labels
        node = labels.index("passenger-to-blue")
        g = h.level(2).grounding_of(node)
        assert len(g) == 5
        riding = [s for s in g if value_of(space1, s, "in-taxi")]
        outside = [s for s in g if not value_of(space1, s, "in-taxi")]
        assert len(riding) == 1 and len(outside) == 4
        for s in g:
            assert (
                value_of(space1, s, "pass-x"), value_of(space1, s, "pass-y")
            ) == (3, 0)

    def test_level2_final_ground(self, taxi_hierarchy):
        h = taxi_hierarchy
        labels = h.level(2).space.labels
        node = labels.index("passenger-to-blue")
        base = h.final_ground(2, GroundingSet.single(2, node))
        assert len(base) == 5
        space0 = h.base.space
        riding = [s for s in base if value_of(space0, s, "in-taxi")]
        assert len(riding) == 1
        assert space0.assignment(riding[0]) == (3, 0, 3, 0, True)
        for s in base:
            assert (
                value_of(space0, s, "pass-x"), value_of(space0, s, "pass-y")
            ) == (3, 0)

    def test_level2_node_grounds_to_exactly_passenger_at_depot_taxi_at_depot(
        self, taxi_hierarchy
    ):
        """The widened blue node covers precisely the base states with
        the passenger at blue and the taxi parked at some depot."""
        from hierplan.taxi import expand_constraints

        h = taxi_hierarchy
        node = h.level(2).space.labels.index("passenger-to-blue")
        base = h.final_ground(2, GroundingSet.single(2, node))
        expected = expand_constraints(
            h.base, {"pass-at": "blue", "taxi-at": "any-depot"}
        )
        assert base == expected

    def test_ground_distributes_over_union(self, taxi_hierarchy):
        h = taxi_hierarchy
        a = GroundingSet.of(2, {0, 1})
        b = GroundingSet.of(2, {2, 3})
        assert h.final_ground(2, a | b) == h.final_ground(2, a) | h.final_ground(2, b)

    def test_final_ground_composes(self, taxi_hierarchy):
        h = taxi_hierarchy
        for s in range(h.num_states(2)):
            one = GroundingSet.single(2, s)
            assert h.final_ground(2, one) == h.final_ground(1, h.level(2).grounding_of(s))

    def test_final_ground_monotone(self, taxi_hierarchy):
        h = taxi_hierarchy
        small = GroundingSet.of(2, {1})
        big = GroundingSet.of(2, {1, 2, 3})
        assert h.final_ground(2, small).issubset(h.final_ground(2, big))

    def test_taxi_level1_intersection_example(self, taxi_hierarchy):
        space1 = taxi_hierarchy.level(1).space
        pass_blue = space1.where(**{"pass-x": 3, "pass-y": 0})
        taxi_blue = space1.where(**{"taxi-x": 3, "taxi-y": 0})
        both = pass_blue & taxi_blue
        assert len(both) == 2
        assert sorted(value_of(space1, s, "in-taxi") for s in both) == [False, True]


class TestOverlappingGroundings:
    """Sibling groundings may overlap; nothing may assume a partition."""

    def make_overlapping(self):
        from hierplan import BaseMDP, Hierarchy, StateSpace
        from hierplan.abstraction import AbstractLevel, OptionPart
        from hierplan.core import Option

        space0 = StateSpace(level_index=0, num_states=4)
        mdp = BaseMDP(
            space=space0,
            actions=("go",),
            transition={(0, "go"): 1, (1, "go"): 2, (2, "go"): 3, (3, "go"): 3},
            reward={(0, "go"): -1.0, (1, "go"): -1.0, (2, "go"): -1.0, (3, "go"): -1.0},
        )
        opt = Option(
            name="advance",
            initiation=GroundingSet.of(0, {0, 1, 2}),
            termination=GroundingSet.of(0, {3}),
            policy={0: "go", 1: "go", 2: "go"},
        )
        part = OptionPart(
            part_id="advance",
            option=opt,
            initiation=opt.initiation,
            mean_return=-2.0,
            terminal_state=3,
        )
        level = AbstractLevel(
            space=StateSpace(level_index=1, num_states=2, labels=("low", "high")),
            actions=("advance",),
            transition={(0, "advance"): 1},
            reward={(0, "advance"): -1.0},
            parts=(part,),
            groundings={
                0: GroundingSet.of(0, {0, 1, 2}),
                1: GroundingSet.of(0, {1, 2, 3}),  # overlaps its sibling
            },
        )
        return Hierarchy(base=mdp, levels_above=(level,), option_sets=((opt,),))

    def test_overlap_tolerated(self):
        h = self.make_overlapping()
        both = GroundingSet.of(1, {0, 1})
        assert set(h.final_ground(1, both)) == {0, 1, 2, 3}
        overlap = h.level(1).grounding_of(0) & h.level(1).grounding_of(1)
        assert set(overlap) == {1, 2}

    def test_overlap_not_a_violation(self):
        h = self.make_overlapping()
        kinds = {v.kind for v in h.validate()}
        assert "image" not in kinds and "applicability" not in kinds
