"""Assembly and validation of multi-level abstraction hierarchies.

A hierarchy is a base MDP plus a stack of abstract levels, each built
from a caller-supplied option set over the level below by
`abstraction.build_level`, which partitions, builds and rewards the
level in one pass. Construction alternates with whatever
skill-acquisition process produces the option sets; this module only
enforces the structural contract: each option set names its level's
options in part order, every abstract state grounds (non-emptily) into
the level below, an option is applicable at an abstract state only when
the state's whole grounding lies in its initiation set, and abstract
transitions are sound with respect to actual option execution.

Hierarchies are immutable; `add_level` returns a new value (a chain of
calls records the earlier levels' tables again, which
`domain_io.build_hierarchy` avoids by making one value at the end), and
each abstract level's base groundings are stored once, as its
`GroundingIndex` ranked over level 1's union and composed from the index
below it, so that a query's sets are ranked once for every level and
concurrent reads never race a lazy cache. Beside it each level keeps its
lower runs: for each edge ``(s, part id)`` and each member ``x`` of
``s``'s grounding, the `ExecutionTrace` of the part's option run from
``x`` over the level below, exactly as `execute_option` returns it, or
the error that run raised. An option run from a given state is always
the same run, so refinement and `Hierarchy.validate` read these traces
instead of executing them again. `Hierarchy.level` is the one map from a
level index to a level. Options and abstract rewards are plain data
fixed at construction (an empirical reward is the option's mean return
over its initiation set, computed while partitioning), so planning,
refinement and validation never change a hierarchy, and rebuilding from
the same option sets gives the same hierarchy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .abstraction import AbstractLevel, RewardMode, build_level, part_reward
from .core import BaseMDP, ExecutionTrace, Option, execute_option
from .errors import HierplanError, LevelMismatch, LevelOutOfRange, MalformedInput
from .symbols import GroundingSet


@dataclass(frozen=True)
class PlanQuery:
    """A planning problem over the base MDP: start anywhere in ``starts``,
    end anywhere in ``goals``."""

    starts: GroundingSet
    goals: GroundingSet

    def __post_init__(self) -> None:
        if self.starts.level_index != 0 or self.goals.level_index != 0:
            raise MalformedInput("plan queries are posed over base states")
        if self.starts.is_empty() or self.goals.is_empty():
            raise MalformedInput("plan queries need non-empty start and goal sets")


@dataclass(frozen=True)
class Violation:
    level_index: int
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[level {self.level_index}] {self.kind}: {self.detail}"


@dataclass(frozen=True)
class GroundingIndex:
    """One abstract level's base groundings, indexed for matching.

    Every level ranks base ids over level 1's union, which holds the
    groundings above it too: ``union`` is its bitmask and ``position``
    maps each id to its ascending rank. ``masks[s]`` is state ``s``'s
    base grounding over those ranks, at level ``j > 1`` the OR of level
    ``j - 1``'s masks over its grounding, so no base-wide set is built.
    ``owners[r]`` are the states whose grounding holds rank ``r``,
    ``cover`` the OR of the masks and ``empty`` the states grounding
    nothing. The union is as narrow as level 1 (20 ids at taxi12, whose
    base is 20,880 wide).
    """

    union: int
    position: dict[int, int]
    masks: dict[int, int]
    owners: tuple[int, ...]
    cover: int
    empty: int

    @classmethod
    def of(cls, level: AbstractLevel, below: GroundingIndex | None) -> GroundingIndex:
        """``level``'s index: level 1's (``below`` None) ranks its own union;
        above it a mask ORs ``below``'s masks over the grounding's members."""
        groundings = {s: level.grounding_of(s) for s in level.space.states}
        if below is None:
            union = 0
            for g in groundings.values():
                union |= g.bits
            position = {x: i for i, x in enumerate(GroundingSet(0, union))}
            lower = {x: 1 << i for x, i in position.items()}
        else:
            union, position, lower = below.union, below.position, below.masks
        masks: dict[int, int] = {}
        owners = [0] * len(position)
        cover = empty = 0
        for s, g in groundings.items():
            m = 0
            for x in g:  # a member the level below lacks adds nothing
                m |= lower.get(x, 0)
            masks[s] = m
            cover |= m
            if not m:
                empty |= 1 << s
            while m:
                low = m & -m
                owners[low.bit_length() - 1] |= 1 << s
                m ^= low
        return cls(union, position, masks, tuple(owners), cover, empty)

    def ranks(self, bits: int) -> int | None:
        """The mask of the ranks of the members of ``bits``, or None at
        the first member outside ``union``. Members are read off highest
        first, each with two operations as wide as what is left of
        ``bits``, so at most ``len(position) + 1`` are read."""
        position = self.position
        out = 0
        while bits:
            x = bits.bit_length() - 1
            rank = position.get(x)
            if rank is None:
                return None
            out |= 1 << rank
            bits ^= 1 << x
        return out


LowerRuns = dict[tuple[int, str, int], ExecutionTrace | HierplanError]


def record_runs(level: AbstractLevel, below: BaseMDP | AbstractLevel) -> LowerRuns:
    """The run of each edge ``(s, pid)``'s option over ``below`` from each
    member ``x`` of ``s``'s grounding, keyed ``(s, pid, x)``: what
    `execute_option` returns, or the HierplanError it raised, kept without
    its traceback. Each state's grounding is read once, not once per edge."""
    members = {s: list(level.grounding_of(s)) for s in level.space.states}
    runs: LowerRuns = {}
    for s, pid in level.transition:
        option = level.part(pid).option
        for x in members[s]:
            try:
                runs[s, pid, x] = execute_option(below, option, x)
            except HierplanError as exc:
                runs[s, pid, x] = exc.with_traceback(None)
    return runs


@dataclass(frozen=True)
class Hierarchy:
    """Base MDP plus abstract levels M_1..M_n and their option sets.

    Each abstract level's base groundings are stored once, as its
    `GroundingIndex` (``grounding_index``), which matching and refinement
    read so that their tests cost what the level's groundings cost, not
    what the base's width costs. Each level's lower runs
    (``lower_runs``, one `record_runs` table per level) are recorded
    beside it; refinement below an option's own level and `validate`'s
    image check read them.
    """

    base: BaseMDP
    levels_above: tuple[AbstractLevel, ...] = ()
    option_sets: tuple[tuple[Option, ...], ...] = ()
    reward_mode: RewardMode = RewardMode.UNIFORM_PENALTY
    grounding_index: tuple[GroundingIndex, ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    lower_runs: tuple[LowerRuns, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if len(self.levels_above) != len(self.option_sets):
            raise MalformedInput("one option set per abstract level required")
        for j, options in enumerate(self.option_sets, start=1):
            level = self.levels_above[j - 1]
            names = [o.name for o in options]
            built = list(dict.fromkeys(p.option.name for p in level.parts))
            if names != built:
                raise MalformedInput(
                    f"option set {j} names {names}, not level {j}'s options {built}"
                )
        index: list[GroundingIndex] = []
        runs: list[LowerRuns] = []
        for j, level in enumerate(self.levels_above, start=1):
            runs.append(record_runs(level, self.level(j - 1)))
            index.append(GroundingIndex.of(level, index[-1] if index else None))
        object.__setattr__(self, "grounding_index", tuple(index))
        object.__setattr__(self, "lower_runs", tuple(runs))

    @property
    def num_levels(self) -> int:
        """Index of the highest level (0 for a bare base MDP)."""
        return len(self.levels_above)

    def level(self, j: int) -> BaseMDP | AbstractLevel:
        """Level ``j``; the one check of a level index, LevelOutOfRange
        outside 0..num_levels."""
        if j == 0:
            return self.base
        if not 1 <= j <= self.num_levels:
            raise LevelOutOfRange(f"level {j} not in 0..{self.num_levels}")
        return self.levels_above[j - 1]

    def num_states(self, j: int) -> int:
        return self.level(j).num_states

    def final_ground(self, j: int, states: GroundingSet) -> GroundingSet:
        """Grounding composed all the way to the base MDP (identity at
        level 0), through each level's own `AbstractLevel.grounding_of`.
        UnknownName for a state some level lacks."""
        self.level(j)
        if states.level_index != j:
            raise LevelMismatch(f"expected level {j}, got {states.level_index}")
        for i in range(j, 0, -1):
            level = self.levels_above[i - 1]
            out = GroundingSet.empty(i - 1)
            for s in states:
                out = out | level.grounding_of(s)
            states = out
        return states

    # -- construction -------------------------------------------------------

    def add_level(
        self,
        options: Sequence[Option],
        seeds: GroundingSet | None = None,
    ) -> Hierarchy:
        """This hierarchy with one more level on top: the one `build_level`
        builds from ``options`` over the current top level (a factored
        closure grows from ``seeds``), rewarded by the hierarchy's
        ``reward_mode``. Raises what `build_level` raises. The new value
        records the earlier levels' tables again."""
        level = build_level(options, self.level(self.num_levels), seeds, self.reward_mode)
        return Hierarchy(
            base=self.base,
            levels_above=self.levels_above + (level,),
            option_sets=self.option_sets + (tuple(options),),
            reward_mode=self.reward_mode,
        )

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Check every structural invariant; empty list means sound.

        Sibling groundings may overlap (levels need not partition the
        level below), so no disjointness is required. The image check
        reads each edge's lower runs, recorded at construction, rather
        than executing them: a run that raised is reported as an
        ``execution`` violation naming the part, the lower state and the
        error, and so is a grounding member with no recorded run (a level
        changed in place after the hierarchy was built).
        """
        out: list[Violation] = []
        for j in range(1, self.num_levels + 1):
            level = self.levels_above[j - 1]
            below = self.level(j - 1)
            runs = self.lower_runs[j - 1]
            if level.space.level_index != j:
                out.append(Violation(j, "level-index", f"space says {level.space.level_index}"))
            members: dict[int, list[int]] = {}
            for s in level.space.states:
                g = level.grounding_of(s)
                members[s] = xs = list(g)
                if not xs:
                    out.append(Violation(j, "empty-grounding", f"state {s}"))
                    continue
                if g.level_index != j - 1:
                    out.append(Violation(j, "grounding-level", f"state {s}"))
                elif any(x >= below.num_states for x in xs):
                    out.append(Violation(j, "grounding-range", f"state {s}"))
                if not self.grounding_index[j - 1].masks[s]:
                    out.append(Violation(j, "empty-final-grounding", f"state {s}"))
            for (s, pid), t in level.transition.items():
                part = level.part(pid)
                g = level.grounding_of(s)
                target = level.grounding_of(t)
                if g.level_index != j - 1 or target.level_index != j - 1:
                    # ids of another level name other states: the
                    # grounding is reported above and its edges go unchecked
                    continue
                if not g.issubset(part.initiation):
                    out.append(
                        Violation(
                            j,
                            "applicability",
                            f"grounding of state {s} not inside initiation of {pid}",
                        )
                    )
                    continue
                for x in members[s]:
                    run = runs.get((s, pid, x))
                    if run is None:
                        kind = "execution"
                        detail = "has no run recorded at construction"
                    elif isinstance(run, HierplanError):
                        kind = "execution"
                        detail = f"raised {type(run).__name__}: {run}"
                    elif run.end not in target:
                        kind = "image"
                        detail = f"ends at {run.end}, outside grounding of state {t}"
                    else:
                        continue
                    out.append(
                        Violation(j, kind, f"part {pid} from lower state {x} {detail}")
                    )
        return out

    # -- serialization ------------------------------------------------------

    def to_snapshot(self) -> dict:
        """JSON-ready structural dump for inspection and golden tests."""
        levels = []
        base = self.base
        levels.append(
            {
                "index": 0,
                "num_states": base.num_states,
                "factored": base.space.is_factored,
                "variables": [
                    [v.name, list(v.domain)] for v in base.space.variables or ()
                ],
                "actions": list(base.actions),
                "num_transitions": len(base.transition),
                "gamma": base.gamma,
            }
        )
        for j in range(1, self.num_levels + 1):
            level = self.levels_above[j - 1]
            levels.append(
                {
                    "index": j,
                    "construction": level.construction.value,
                    "num_states": level.num_states,
                    "states": [level.space.label(s) for s in level.space.states],
                    "actions": list(level.actions),
                    "transitions": sorted(
                        [s, pid, t] for (s, pid), t in level.transition.items()
                    ),
                    "rewards": {
                        p.part_id: part_reward(p, self.reward_mode) for p in level.parts
                    },
                    "groundings": {
                        str(s): sorted(level.grounding_of(s))
                        for s in level.space.states
                    },
                }
            )
        return {
            "num_levels": self.num_levels,
            "reward_mode": self.reward_mode.value,
            "levels": levels,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_snapshot(), indent=2, sort_keys=True)
