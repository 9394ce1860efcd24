"""Assembly and validation of multi-level abstraction hierarchies.

A hierarchy is a base MDP plus a stack of abstract levels, each built
from a caller-supplied option set over the level below. Construction
alternates with whatever skill-acquisition process produces the option
sets; this module only enforces the structural contract: every abstract
state grounds (non-emptily) into the level below, an option is applicable
at an abstract state only when the state's whole grounding lies in its
initiation set, and abstract transitions are sound with respect to actual
option execution.

Hierarchies are immutable; `add_level` returns a new value, and the
base-level groundings of every state are precomputed so that concurrent
reads never race a lazy cache. Options and abstract rewards are plain
data fixed at construction (an empirical reward is the option's mean
return over its initiation set, computed while partitioning), so
planning, refinement and validation never change a hierarchy, and
rebuilding from the same option sets gives the same hierarchy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .abstraction import (
    AbstractLevel,
    RewardMode,
    Subgoal,
    Unclassifiable,
    _partition_all,
    assign_rewards,
    build_factored_abstraction,
    build_plan_graph,
    part_reward,
)
from .core import BaseMDP, Option, execute_option
from .errors import (
    EmptyOptionSet,
    LevelMismatch,
    LevelOutOfRange,
    MalformedInput,
    NoFactoredStructure,
)
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
class Hierarchy:
    """Base MDP plus abstract levels M_1..M_n and their option sets."""

    base: BaseMDP
    levels_above: tuple[AbstractLevel, ...] = ()
    option_sets: tuple[tuple[Option, ...], ...] = ()
    reward_mode: RewardMode = RewardMode.UNIFORM_PENALTY
    _base_groundings: tuple[dict[int, GroundingSet], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if len(self.levels_above) != len(self.option_sets):
            raise ValueError("one option set per abstract level required")
        memos: list[dict[int, GroundingSet]] = []
        for j, level in enumerate(self.levels_above, start=1):
            memo: dict[int, GroundingSet] = {}
            for s in level.space.states:
                g = level.grounding_of(s)
                if j == 1:
                    memo[s] = g
                else:
                    acc = GroundingSet.empty(0)
                    for x in g:
                        acc = acc | memos[-1][x]
                    memo[s] = acc
            memos.append(memo)
        object.__setattr__(self, "_base_groundings", tuple(memos))

    @property
    def num_levels(self) -> int:
        """Index of the highest level (0 for a bare base MDP)."""
        return len(self.levels_above)

    def level(self, j: int) -> BaseMDP | AbstractLevel:
        if j == 0:
            return self.base
        if not 1 <= j <= self.num_levels:
            raise LevelOutOfRange(f"level {j} not in 0..{self.num_levels}")
        return self.levels_above[j - 1]

    def num_states(self, j: int) -> int:
        return self.level(j).num_states

    def grounding_of(self, j: int, state: int) -> GroundingSet:
        """Stored grounding of one level-``j`` state, at level ``j-1``."""
        if not 1 <= j <= self.num_levels:
            raise LevelOutOfRange(f"level {j} not in 1..{self.num_levels}")
        return self.levels_above[j - 1].grounding_of(state)

    def final_grounding_of(self, j: int, state: int) -> GroundingSet:
        """Base-level grounding of one level-``j`` state (precomputed)."""
        if j == 0:
            return GroundingSet.single(0, state)
        if not 1 <= j <= self.num_levels:
            raise LevelOutOfRange(f"level {j} not in 0..{self.num_levels}")
        return self._base_groundings[j - 1][state]

    def ground(self, j: int, states: GroundingSet | int) -> GroundingSet:
        """Grounding one level down: the level-``j-1`` states a level-``j``
        state (or a set of them, by union) refers to."""
        if not 1 <= j <= self.num_levels:
            raise LevelOutOfRange(f"level {j} not in 1..{self.num_levels}")
        if isinstance(states, int):
            return self.grounding_of(j, states)
        if states.level_index != j:
            raise LevelMismatch(f"expected level {j}, got {states.level_index}")
        out = GroundingSet.empty(j - 1)
        for s in states:
            out = out | self.grounding_of(j, s)
        return out

    def final_ground(self, j: int, states: GroundingSet) -> GroundingSet:
        """Grounding composed all the way to the base MDP (identity at
        level 0)."""
        if not 0 <= j <= self.num_levels:
            raise LevelOutOfRange(f"level {j} not in 0..{self.num_levels}")
        if states.level_index != j:
            raise LevelMismatch(f"expected level {j}, got {states.level_index}")
        if j == 0:
            return states
        out = GroundingSet.empty(0)
        for s in states:
            out = out | self.final_grounding_of(j, s)
        return out

    # -- construction -------------------------------------------------------

    def add_level(
        self,
        options: Sequence[Option],
        seeds: GroundingSet | None = None,
    ) -> Hierarchy:
        """Build the next abstract level from ``options`` over the current
        top level.

        Options are partitioned and classified; if every part is a subgoal
        the new level is a plan graph, otherwise (over a factored space)
        the factored closure from ``seeds`` is built. Rewards follow the
        hierarchy's ``reward_mode``.
        """
        if not options:
            raise EmptyOptionSet("add_level needs at least one option")
        top = self.level(self.num_levels)
        for o in options:
            if o.level_index != top.level_index:
                raise LevelOutOfRange(
                    f"option {o.name!r} is over level {o.level_index}, "
                    f"expected {top.level_index}"
                )
        parts = _partition_all(options, top)
        if all(isinstance(p.option_class, Subgoal) for p in parts):
            level = build_plan_graph(options, top, _parts=parts)
        elif top.space.is_factored:
            if any(isinstance(p.option_class, Unclassifiable) for p in parts):
                bad = [
                    p.part_id
                    for p in parts
                    if isinstance(p.option_class, Unclassifiable)
                ]
                raise NoFactoredStructure(f"unclassifiable parts: {', '.join(bad)}")
            if seeds is None:
                raise NoFactoredStructure(
                    "factored construction needs closure seed states"
                )
            level = build_factored_abstraction(options, top, seeds, _parts=parts)
        else:
            raise NoFactoredStructure(
                "options are not all subgoal and the lower space is not factored"
            )
        level = assign_rewards(level, self.reward_mode)
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
        level below), so no disjointness is required.
        """
        out: list[Violation] = []
        for j in range(1, self.num_levels + 1):
            level = self.levels_above[j - 1]
            below = self.level(j - 1)
            if level.space.level_index != j:
                out.append(Violation(j, "level-index", f"space says {level.space.level_index}"))
            for s in level.space.states:
                g = level.grounding_of(s)
                if g.is_empty():
                    out.append(Violation(j, "empty-grounding", f"state {s}"))
                    continue
                if g.level_index != j - 1:
                    out.append(Violation(j, "grounding-level", f"state {s}"))
                if any(x >= below.num_states for x in g):
                    out.append(Violation(j, "grounding-range", f"state {s}"))
                if self.final_grounding_of(j, s).is_empty():
                    out.append(Violation(j, "empty-final-grounding", f"state {s}"))
            for o in self.option_sets[j - 1]:
                if o.initiation.is_empty():
                    out.append(Violation(j, "empty-initiation", o.name))
            for (s, pid), t in level.transition.items():
                if not 0 <= t < level.num_states:
                    out.append(Violation(j, "transition-range", f"({s}, {pid})"))
                    continue
                part = level.part(pid)
                g = level.grounding_of(s)
                if not g.issubset(part.initiation):
                    out.append(
                        Violation(
                            j,
                            "applicability",
                            f"grounding of state {s} not inside initiation of {pid}",
                        )
                    )
                    continue
                target = level.grounding_of(t)
                for x in g:
                    end = execute_option(below, part.option, x).end
                    if end not in target:
                        out.append(
                            Violation(
                                j,
                                "image",
                                f"option {pid} from lower state {x} ends at "
                                f"{end}, outside grounding of state {t}",
                            )
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

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_snapshot(), indent=indent, sort_keys=True)
