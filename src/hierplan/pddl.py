"""PDDL export of abstract levels.

Factored levels become propositional STRIPS domains: one 0-ary predicate
per (variable, value) pair, one action per option part. An action's
effect sets the part's masked variables to its effect values (adding the
target proposition and deleting the siblings); its precondition is the
strongest conjunction of propositions implied by the part's initiation
set. Initiation sets that are not boxes (products of per-variable value
sets) lose information under conjunction, so such actions carry a
comment marking the precondition as an over-approximation.

Plan-graph levels have no variables to factor over and export as a
degenerate domain instead: one predicate per node, one action per edge.
"""

from __future__ import annotations

from .abstraction import AbstractLevel, Construction, OptionPart
from .core import StateSpace
from .errors import LevelOutOfRange, UnknownName
from .hierarchy import Hierarchy


def _prop(var: str, value) -> str:
    text = str(value).lower() if isinstance(value, bool) else str(value)
    return f"{var}-{text}"


def _sanitize(name: str) -> str:
    return name.replace("#", "-part")


def _initiation_profile(space: StateSpace, part: OptionPart):
    """Per-variable value sets over the initiation states, plus whether
    the initiation set is exactly the states of the space inside their
    product (the space may lack some combinations)."""
    names = space.variable_names()
    seen: dict[str, set] = {n: set() for n in names}
    count = 0
    for s in part.initiation:
        count += 1
        for n, v in zip(names, space.assignment(s)):
            seen[n].add(v)
    # the initiation states lie inside the box, so they are all of it
    # exactly when the box holds no more states than they are
    exact = len(space.where(**seen)) == count
    return seen, exact


DOMAIN_NAME = "abstract-level"
PROBLEM_NAME = "abstract-problem"


def export_pddl(
    h: Hierarchy,
    level_index: int,
    init_state: int | None = None,
    goal_state: int | None = None,
) -> tuple[str, str]:
    """Domain and problem text for one abstract level, named
    ``DOMAIN_NAME`` and ``PROBLEM_NAME``.

    The problem's initial state defaults to state 0 and its goal to the
    last state; both can be overridden with explicit state ids.
    """
    if not 1 <= level_index <= h.num_levels:
        raise LevelOutOfRange(f"no abstract level {level_index} to export")
    level: AbstractLevel = h.level(level_index)
    init = init_state if init_state is not None else 0
    goal = goal_state if goal_state is not None else level.num_states - 1
    for s in (init, goal):
        if not 0 <= s < level.num_states:
            raise UnknownName(f"no state {s} at level {level_index}")
    if level.construction is Construction.FACTORED:
        return _export_factored(h, level, init, goal)
    return _export_plan_graph(level, init, goal)


def _domain_text(predicates: list[str], actions: list[str]) -> str:
    """The domain skeleton both exports share."""
    return "\n".join(
        [
            f"(define (domain {DOMAIN_NAME})",
            "  (:requirements :strips)",
            "  (:predicates",
            "\n".join(f"    ({p})" for p in predicates),
            "  )",
            "\n".join(actions),
            ")",
            "",
        ]
    )


def _export_factored(
    h: Hierarchy, level: AbstractLevel, init: int, goal: int
) -> tuple[str, str]:
    below_space: StateSpace = h.level(level.level_index - 1).space
    space = level.space
    names = space.variable_names()
    domains = {v.name: v.domain for v in space.variables or ()}
    predicates = [_prop(n, value) for n, domain in domains.items() for value in domain]

    actions = []
    for part in level.parts:
        profile, exact = _initiation_profile(below_space, part)
        pre = []
        for n in names:
            values = sorted(profile[n], key=repr)
            if len(values) == 1:
                pre.append(f"({_prop(n, values[0])})")
        effects = []
        masked = dict(part.effect_values)
        for n in names:
            if n not in masked:
                continue
            value = masked[n]
            effects.append(f"({_prop(n, value)})")
            effects.extend(
                f"(not ({_prop(n, other)}))" for other in domains[n] if other != value
            )
        lines = [f"  (:action {_sanitize(part.part_id)}"]
        if not exact:
            lines.append("    ; precondition over-approximates a non-box initiation set")
        lines.append(f"    :precondition ({' '.join(['and'] + pre)})")
        lines.append(f"    :effect (and {' '.join(effects)})")
        lines.append("  )")
        actions.append("\n".join(lines))

    domain = _domain_text(predicates, actions)

    def state_props(s: int) -> list[str]:
        return [f"({_prop(n, v)})" for n, v in zip(names, space.assignment(s))]

    problem = "\n".join(
        [
            f"(define (problem {PROBLEM_NAME})",
            f"  (:domain {DOMAIN_NAME})",
            "  (:init",
            "\n".join(f"    {p}" for p in state_props(init)),
            "  )",
            "  (:goal (and",
            "\n".join(f"    {p}" for p in state_props(goal)),
            "  ))",
            ")",
            "",
        ]
    )
    return domain, problem


def _export_plan_graph(level: AbstractLevel, init: int, goal: int) -> tuple[str, str]:
    node = [f"at-{_sanitize(level.space.label(s))}" for s in level.space.states]
    actions = []
    for (s, part_id), t in sorted(level.transition.items()):
        actions.append(
            "\n".join(
                [
                    f"  (:action {_sanitize(part_id)}--from--{_sanitize(level.space.label(s))}",
                    f"    :precondition (and ({node[s]}))",
                    f"    :effect (and ({node[t]}) (not ({node[s]})))",
                    "  )",
                ]
            )
        )
    domain = _domain_text(node, actions)
    problem = "\n".join(
        [
            f"(define (problem {PROBLEM_NAME})",
            f"  (:domain {DOMAIN_NAME})",
            f"  (:init\n    ({node[init]})\n  )",
            f"  (:goal (and ({node[goal]})))",
            ")",
            "",
        ]
    )
    return domain, problem
