"""The taxi gridworld: a grid with named depots, optional interior walls
and a passenger to ferry around.

State variables are the taxi's cell, the passenger's cell, and whether
the passenger rides in the taxi (in which case both share a cell). A
grid of ``n`` cells has ``n * n`` passenger-outside states plus ``n``
co-located in-taxi states. Movement blocked by a wall or the grid edge
self-loops; every step costs -1.

The layout (size, walls, depots) is data, so other maps can be swapped
in. The default is the classic 5x5 four-depot map with three two-cell
interior wall segments, which has 650 states. Every skill is a name, an
initiation set and a termination set in `taxi_spec`, the option-set spec
domain files state too; `build_hierarchy` plans each policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abstraction import RewardMode
from .core import BaseMDP, Option, StateSpace, Variable
from .domain_io import OptionSetSpec, OptionSpec, build_hierarchy, expand_generic, resolve_options
from .errors import MalformedInput, UnknownName
from .hierarchy import Hierarchy, PlanQuery
from .symbols import GroundingSet

Cell = tuple[int, int]

MOVES: tuple[tuple[str, int, int], ...] = (
    ("move-north", 0, 1),
    ("move-south", 0, -1),
    ("move-east", 1, 0),
    ("move-west", -1, 0),
)
ACTIONS: tuple[str, ...] = tuple(m[0] for m in MOVES) + ("pick-up", "put-down")


def _norm_wall(a: Cell, b: Cell) -> tuple[Cell, Cell]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class TaxiLayout:
    """Grid geometry: size, blocked cell adjacencies, named depot cells."""

    width: int = 5
    height: int = 5
    walls: frozenset[tuple[Cell, Cell]] = frozenset()
    depots: tuple[tuple[str, Cell], ...] = ()

    def blocked(self, a: Cell, b: Cell) -> bool:
        return _norm_wall(a, b) in self.walls

    def in_bounds(self, c: Cell) -> bool:
        return 0 <= c[0] < self.width and 0 <= c[1] < self.height

    def depot_cell(self, name: str) -> Cell:
        cells = dict(self.depots)
        if name not in cells:
            raise UnknownName(
                f"unknown depot {name!r} (known: {', '.join(cells)})"
            )
        return cells[name]

    def depot_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.depots)


DEFAULT_LAYOUT = TaxiLayout(
    walls=frozenset(
        _norm_wall(a, b)
        for a, b in [
            ((1, 4), (2, 4)),
            ((1, 3), (2, 3)),
            ((0, 1), (1, 1)),
            ((0, 0), (1, 0)),
            ((2, 1), (3, 1)),
            ((2, 0), (3, 0)),
        ]
    ),
    depots=(
        ("red", (0, 4)),
        ("green", (4, 4)),
        ("blue", (3, 0)),
        ("yellow", (0, 0)),
    ),
)


def build_taxi(layout: TaxiLayout = DEFAULT_LAYOUT) -> BaseMDP:
    """The deterministic taxi MDP (650 states on the default 5x5 map).

    Pick-up applies when taxi and passenger share a cell with the
    passenger outside; put-down applies while the passenger rides. The
    coordinate variables range over the layout's columns and rows.
    """
    xs, ys = tuple(range(layout.width)), tuple(range(layout.height))
    variables = (
        Variable("taxi-x", xs),
        Variable("taxi-y", ys),
        Variable("pass-x", xs),
        Variable("pass-y", ys),
        Variable("in-taxi", (False, True)),
    )
    cells = [(x, y) for x in xs for y in ys]
    assignments: list[tuple] = []
    for tx, ty in cells:
        for px, py in cells:
            assignments.append((tx, ty, px, py, False))
    for tx, ty in cells:
        assignments.append((tx, ty, tx, ty, True))
    space = StateSpace(
        level_index=0,
        num_states=len(assignments),
        variables=variables,
        assignments=tuple(assignments),
    )

    def moved(cell: Cell, dx: int, dy: int) -> Cell:
        target = (cell[0] + dx, cell[1] + dy)
        if not layout.in_bounds(target) or layout.blocked(cell, target):
            return cell
        return target

    # ids follow the assignment order above: taxi cell t and passenger
    # cell p give t*n + p with the passenger outside, n*n + t riding.
    # Edges go in by id, then action, as the predecessor table and value
    # iteration's queue order depend on that insertion order.
    n = len(cells)
    cell_index = {c: i for i, c in enumerate(cells)}
    names = [name for name, _, _ in MOVES]
    # the cell each move leads to, per cell
    moves = [[cell_index[moved(c, dx, dy)] for _, dx, dy in MOVES] for c in cells]
    # one int object per state, shared by every key and value naming it,
    # so the tables do not hold a fresh int per edge
    ids = list(space.states)
    transition: dict[tuple[int, str], int] = {}
    for t in range(n):
        for p in range(n):
            sid = ids[t * n + p]
            for name, m in zip(names, moves[t]):
                transition[(sid, name)] = ids[m * n + p]
            if t == p:
                transition[(sid, "pick-up")] = ids[n * n + t]
    for t in range(n):
        sid = ids[n * n + t]
        for name, m in zip(names, moves[t]):
            transition[(sid, name)] = ids[n * n + m]
        transition[(sid, "put-down")] = ids[t * n + t]
    # every step costs -1; the reward table shares the transition keys
    reward = dict.fromkeys(transition, -1.0)
    return BaseMDP(space=space, actions=ACTIONS, transition=transition, reward=reward)


def taxi_spec(mdp: BaseMDP, layout: TaxiLayout = DEFAULT_LAYOUT) -> list[OptionSetSpec]:
    """The taxi's two option sets; `build_hierarchy` plans every policy.

    Level 1 drives the taxi, with any riding passenger, to each depot
    from anywhere; picks up wherever taxi and passenger share a cell; and
    puts down anywhere. Its closure seeds put taxi and passenger each at
    a depot, passenger outside. Level 2 ferries a passenger not at a
    depot to it, leaving the passenger outside with the taxi there.
    """
    space = mdp.space
    depots = [(d, *cell) for d, cell in layout.depots]
    # the taxi's coordinate domains, so the set depends on the MDP alone
    xs, ys = (v.domain for v in space.variables[:2])
    colocated = [space.state_of((x, y, x, y, r)) for x in xs for y in ys for r in (False, True)]
    seeds = [space.state_of((*t, *p, False)) for _, *t in depots for _, *p in depots]
    drive = [OptionSpec(f"drive-to-{d}", {}, {"taxi-x": x, "taxi-y": y}) for d, x, y in depots]
    pick_up = OptionSpec("pick-up", colocated, {"in-taxi": True})
    put_down = OptionSpec("put-down", {}, {"in-taxi": False})
    ferry = [
        OptionSpec(
            f"passenger-to-{d}",
            {"except": {"pass-x": x, "pass-y": y}},
            {"taxi-x": x, "taxi-y": y, "pass-x": x, "pass-y": y, "in-taxi": False},
        )
        for d, x, y in depots
    ]
    return [
        OptionSetSpec((*drive, pick_up, put_down), seeds=[s for s in seeds if s is not None]),
        OptionSetSpec(tuple(ferry)),
    ]


def taxi_options_level1(mdp: BaseMDP, layout: TaxiLayout = DEFAULT_LAYOUT) -> list[Option]:
    """The first option set of `taxi_spec`, over ``mdp``."""
    return resolve_options(mdp, taxi_spec(mdp, layout)[0])


def taxi_options_level2(h: Hierarchy, layout: TaxiLayout = DEFAULT_LAYOUT) -> list[Option]:
    """The second option set of `taxi_spec`, over the first level of ``h``."""
    return resolve_options(h.level(1), taxi_spec(h.base, layout)[1])


def depot_seed_states(mdp: BaseMDP, layout: TaxiLayout = DEFAULT_LAYOUT) -> GroundingSet:
    """The first option set's closure seeds."""
    return expand_generic(mdp, taxi_spec(mdp, layout)[0].seeds)


def build_taxi_hierarchy(
    layout: TaxiLayout = DEFAULT_LAYOUT,
    reward_mode: RewardMode = RewardMode.UNIFORM_PENALTY,
) -> Hierarchy:
    """Base MDP, navigation level, ferry level: `build_taxi` plus `taxi_spec`."""
    mdp = build_taxi(layout)
    return build_hierarchy(mdp, taxi_spec(mdp, layout), reward_mode)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def expand_constraints(
    mdp: BaseMDP, spec: dict, layout: TaxiLayout = DEFAULT_LAYOUT
) -> GroundingSet:
    """Base states matching a constraint object.

    Keys: ``taxi-at`` / ``pass-at`` (a depot name, ``"any-depot"``, or an
    ``[x, y]`` cell), ``in-taxi`` (boolean), ``states`` (explicit id
    list), ``except`` (a set to remove, itself expanded here when it is
    a constraint object), or raw variable names. Missing keys are
    unconstrained. ``states`` overrides every other key but ``except``.
    The rest becomes raw variable constraints, which `expand_generic`
    expands like any domain's.
    """
    space = mdp.space
    if isinstance(spec.get("except"), dict):
        removed = expand_constraints(mdp, spec["except"], layout)
        spec = {**spec, "except": list(removed)}
    if "states" in spec:
        return expand_generic(mdp, spec)
    constraints: dict[str, object] = {}

    def place(key: str, prefix: str, value) -> None:
        if isinstance(value, str):
            cell = layout.depot_cell(value)
        else:
            try:
                x, y = value
                cell = (int(x), int(y))
            except (TypeError, ValueError):
                raise MalformedInput(
                    f"{key!r} must be a depot name or an [x, y] cell, got {value!r}"
                ) from None
        constraints[f"{prefix}-x"] = cell[0]
        constraints[f"{prefix}-y"] = cell[1]

    any_depot: list[str] = []
    for key, value in spec.items():
        if key in ("taxi-at", "pass-at"):
            prefix = "taxi" if key == "taxi-at" else "pass"
            if value == "any-depot":
                any_depot.append(prefix)
            else:
                place(key, prefix, value)
        elif key == "in-taxi":
            if not isinstance(value, bool):
                raise MalformedInput(f"'in-taxi' must be true or false, got {value!r}")
            constraints["in-taxi"] = value
        else:
            constraints[key] = value
    result = expand_generic(mdp, constraints)
    for prefix in any_depot:
        cells = [layout.depot_cell(d) for d in layout.depot_names()]
        at_depot = GroundingSet.empty(0)
        for cx, cy in cells:
            at_depot = at_depot | space.where(
                **{f"{prefix}-x": cx, f"{prefix}-y": cy}
            )
        result = result & at_depot
    return result


def benchmark_queries(
    mdp: BaseMDP, layout: TaxiLayout = DEFAULT_LAYOUT
) -> dict[str, PlanQuery]:
    """The three benchmark queries.

    1. passenger at blue, taxi at some depot; deliver to red.
    2. same starts; exact goal state with the taxi parked at yellow.
    3. taxi at red, passenger at blue; leave the passenger at (1, 4).
    """

    def q(b: dict, g: dict) -> PlanQuery:
        return PlanQuery(
            expand_constraints(mdp, b, layout), expand_constraints(mdp, g, layout)
        )

    return {
        "Q1": q(
            {"pass-at": "blue", "taxi-at": "any-depot", "in-taxi": False},
            {"pass-at": "red"},
        ),
        "Q2": q(
            {"pass-at": "blue", "taxi-at": "any-depot", "in-taxi": False},
            {"pass-at": "blue", "taxi-at": "yellow", "in-taxi": False},
        ),
        "Q3": q(
            {"pass-at": "blue", "taxi-at": "red", "in-taxi": False},
            {"pass-at": [1, 4]},
        ),
    }
