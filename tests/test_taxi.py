"""Taxi domain facts: state counts, option sets, query expansion."""

import pytest

from hierplan import build_taxi, execute_option
from hierplan.errors import HierplanError, MalformedInput, UnknownName
from hierplan.taxi import (
    DEFAULT_LAYOUT,
    TaxiLayout,
    expand_constraints,
    taxi_options_level1,
    taxi_options_level2,
)

from conftest import (
    DEPOTS,
    WALL_PAIRS,
    oracle_grid_distance,
    oracle_taxi_transitions,
    state_of,
    value_of,
)


class TestDomain:
    def test_650_states(self, taxi_mdp):
        assert taxi_mdp.num_states == 650

    def test_25_riding_states_colocated(self, taxi_mdp):
        riding = [
            taxi_mdp.space.assignment(s)
            for s in taxi_mdp.space.states
            if value_of(taxi_mdp.space, s, "in-taxi")
        ]
        assert len(riding) == 25
        assert all((tx, ty) == (px, py) for tx, ty, px, py, _ in riding)

    def test_depots_at_four_distinct_cells(self):
        cells = [cell for _, cell in DEFAULT_LAYOUT.depots]
        assert len(set(cells)) == 4
        assert dict(DEFAULT_LAYOUT.depots) == DEPOTS

    def test_known_depot_distances(self):
        # hand-checked walks on the default map
        assert oracle_grid_distance(DEPOTS["red"], DEPOTS["yellow"]) == 4
        assert oracle_grid_distance(DEPOTS["green"], DEPOTS["blue"]) == 5
        assert oracle_grid_distance(DEPOTS["blue"], DEPOTS["red"]) == 7
        assert oracle_grid_distance(DEPOTS["yellow"], DEPOTS["blue"]) == 7

    def test_layout_ships_as_swappable_data(self):
        open_grid = TaxiLayout(walls=frozenset(), depots=DEFAULT_LAYOUT.depots)
        mdp = build_taxi(open_grid)
        assert mdp.num_states == 650
        s = state_of(mdp, 0, 0, 4, 4)
        nxt, _ = mdp.step(s, "move-east")  # no wall in the open grid
        assert mdp.space.assignment(nxt) == (1, 0, 4, 4, False)

    def test_variable_domains_follow_layout(self):
        mdp = build_taxi(TaxiLayout(width=6, height=3, depots=(("red", (0, 0)),)))
        assert mdp.num_states == 18 * 18 + 18
        assert [(v.name, v.domain) for v in mdp.space.variables] == [
            ("taxi-x", tuple(range(6))),
            ("taxi-y", tuple(range(3))),
            ("pass-x", tuple(range(6))),
            ("pass-y", tuple(range(3))),
            ("in-taxi", (False, True)),
        ]

    @pytest.mark.parametrize(
        "layout",
        [
            DEFAULT_LAYOUT,
            TaxiLayout(width=8, height=8, depots=(("red", (0, 7)),)),
            TaxiLayout(
                width=4,
                height=6,
                walls=frozenset(
                    {((0, 2), (1, 2)), ((2, 4), (2, 5)), ((3, 0), (3, 1))}
                ),
                depots=(("red", (0, 5)), ("blue", (3, 0))),
            ),
        ],
        ids=["walled-5x5", "open-8x8", "walled-4x6"],
    )
    def test_transition_table_matches_oracle(self, layout):
        mdp = build_taxi(layout)
        assert list(mdp.transition.items()) == oracle_taxi_transitions(mdp, layout)


class TestOptionSets:
    def test_level1_has_six_options(self, taxi_mdp):
        options = taxi_options_level1(taxi_mdp)
        assert len(options) == 6
        names = {o.name for o in options}
        assert names == {
            "drive-to-red",
            "drive-to-green",
            "drive-to-blue",
            "drive-to-yellow",
            "pick-up",
            "put-down",
        }

    def test_level2_has_four_options(self, fresh_hierarchy):
        options = taxi_options_level2(fresh_hierarchy)
        assert {o.name for o in options} == {
            f"passenger-to-{d}" for d in ("red", "green", "blue", "yellow")
        }

    def test_drive_options_start_anywhere(self, taxi_mdp):
        for o in taxi_options_level1(taxi_mdp):
            if o.name.startswith("drive-to-"):
                assert len(o.initiation) == 650

    def test_ferry_initiation_is_15_of_20(self, fresh_hierarchy):
        for o in taxi_options_level2(fresh_hierarchy):
            assert len(o.initiation) == 15

    @pytest.mark.parametrize(
        "layout, walls",
        [
            (DEFAULT_LAYOUT, WALL_PAIRS),
            (
                TaxiLayout(
                    width=8,
                    height=8,
                    depots=(("red", (0, 7)), ("green", (7, 7)), ("blue", (7, 0)),
                            ("yellow", (0, 0))),
                ),
                frozenset(),
            ),
        ],
        ids=["walled-5x5", "open-8x8"],
    )
    def test_drive_options_take_grid_distance_steps(self, layout, walls):
        mdp = build_taxi(layout)
        for o in taxi_options_level1(mdp, layout):
            if not o.name.startswith("drive-to-"):
                continue
            depot = layout.depot_cell(o.name.removeprefix("drive-to-"))
            for s in mdp.space.states:
                tx, ty, *_ = mdp.space.assignment(s)
                trace = execute_option(mdp, o, s)
                assert trace.steps == oracle_grid_distance(
                    (tx, ty), depot, layout.width, walls
                )

    def test_drive_moves_passenger_iff_riding(self, taxi_mdp):
        drive = next(
            o for o in taxi_options_level1(taxi_mdp) if o.name == "drive-to-green"
        )
        outside = state_of(taxi_mdp, 0, 0, 3, 0)
        trace = execute_option(taxi_mdp, drive, outside)
        assert taxi_mdp.space.assignment(trace.end) == (4, 4, 3, 0, False)
        riding = state_of(taxi_mdp, 0, 0, 0, 0, True)
        trace = execute_option(taxi_mdp, drive, riding)
        assert taxi_mdp.space.assignment(trace.end) == (4, 4, 4, 4, True)

    def test_ferry_leaves_passenger_outside_at_depot(self, fresh_hierarchy):
        h = fresh_hierarchy
        level1 = h.level(1)
        ferry = next(
            o for o in taxi_options_level2(h) if o.name == "passenger-to-yellow"
        )
        for s in ferry.initiation:
            trace = execute_option(level1, ferry, s)
            assert level1.space.assignment(trace.end) == (0, 0, 0, 0, False)


class TestQueryExpansion:
    def test_any_depot_taxi_with_blue_passenger(self, taxi_mdp):
        b = expand_constraints(
            taxi_mdp, {"pass-at": "blue", "taxi-at": "any-depot", "in-taxi": False}
        )
        assert len(b) == 4
        for s in b:
            tx, ty, px, py, riding = taxi_mdp.space.assignment(s)
            assert (px, py) == DEPOTS["blue"] and not riding
            assert (tx, ty) in DEPOTS.values()

    def test_unconstrained_goal_counts_riding_state(self, taxi_mdp):
        g = expand_constraints(taxi_mdp, {"pass-at": "red"})
        assert len(g) == 26  # 25 outside positions + the riding state

    def test_cell_coordinates(self, taxi_mdp):
        g = expand_constraints(taxi_mdp, {"pass-at": [1, 4]})
        assert len(g) == 26
        space = taxi_mdp.space
        assert all(
            (value_of(space, s, "pass-x"), value_of(space, s, "pass-y")) == (1, 4)
            for s in g
        )

    def test_explicit_state_list(self, taxi_mdp):
        g = expand_constraints(taxi_mdp, {"states": [1, 2, 3]})
        assert set(g) == {1, 2, 3}

    def test_raw_variable_constraints(self, taxi_mdp):
        g = expand_constraints(taxi_mdp, {"taxi-x": [0, 1], "in-taxi": False})
        assert all(value_of(taxi_mdp.space, s, "taxi-x") in (0, 1) for s in g)
        assert len(g) == 2 * 5 * 25

    @pytest.mark.parametrize("spec", [{"pass-at": "purple"}, {"colour": 1}])
    def test_unknown_names_raise_typed_key_errors(self, taxi_mdp, spec):
        with pytest.raises(UnknownName) as err:
            expand_constraints(taxi_mdp, spec)
        assert isinstance(err.value, HierplanError)
        assert isinstance(err.value, KeyError)

    @pytest.mark.parametrize("flag", ["false", None, 0, 1])
    def test_in_taxi_must_be_a_boolean(self, taxi_mdp, flag):
        # bool("false") is True: the string used to select the riding state
        spec = {"taxi-at": "red", "pass-at": "red", "in-taxi": flag}
        with pytest.raises(MalformedInput, match="'in-taxi' must be true or false"):
            expand_constraints(taxi_mdp, spec)

    def test_except_expands_taxi_sugar(self, taxi_mdp):
        """An ``except`` object is expanded like the query around it, in
        the ``states`` branch too, and subtracted."""
        outside = expand_constraints(taxi_mdp, {"in-taxi": False})
        red = expand_constraints(taxi_mdp, {"pass-at": "red"})
        for spec in (
            {"except": {"pass-at": "red"}, "in-taxi": False},
            {"states": sorted(outside), "except": {"pass-at": "red"}},
        ):
            assert expand_constraints(taxi_mdp, spec) == outside - red

    def test_empty_constraint_is_everything(self, taxi_mdp):
        g = expand_constraints(taxi_mdp, {})
        assert len(g) == 650

    def test_paper_query_shapes(self, queries):
        assert len(queries["Q1"].starts) == 4
        assert len(queries["Q1"].goals) == 26
        assert len(queries["Q2"].goals) == 1
        assert len(queries["Q3"].starts) == 1
        assert len(queries["Q3"].goals) == 26
