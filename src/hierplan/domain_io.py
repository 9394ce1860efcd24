"""JSON schemas for domains, option sets, and plan queries, and the
builder that turns option sets into a hierarchy.

Domain file::

    {
      "name": "chain",
      "gamma": 1.0,
      "actions": ["fwd", "back"],
      "variables": [["pos", [0, 1, 2]]],      // optional (factored)
      "states": [[0], [1], [2]],              // assignments, if factored
      "num_states": 3,                        // instead of variables/states;
                                              // at most MAX_STATES
      "labels": ["s0", "s1", "s2"],           // optional
      "transitions": [[0, "fwd", 1], [1, "fwd", 2, -1.0]],   // reward
                                                             // defaults -1
      "options": {
        "level1": {"seeds": [0], "options": [                // seeds optional
          {"name": "to-end", "initiation": {"except": {"pos": 2}},
           "termination": [2], "policy": {"0": "fwd", "1": "fwd"}}
        ]},
        "level2": [ ... ]                     // a list: options, no seeds
      }
    }

Each option set runs over the level the sets before it build. A set is
a constraint object or a list of that level's state ids; every id list
names states of its level. `plan_option` plans the policy of an option
that gives none. Rewards are finite.

Query file: ``{"B": {"pos": [0, 1]}, "G": {"states": [2]}}``.

Constraint objects map variable names to a value or list of allowed
values; ``states`` gives explicit ids and ``except`` removes another set.
The taxi domain additionally understands ``taxi-at`` / ``pass-at`` /
``any-depot`` sugar (see `hierplan.taxi.expand_constraints`).
"""

from __future__ import annotations

import json
import math
from os import PathLike
from pathlib import Path
from typing import Iterable, NamedTuple

from .abstraction import RewardMode, build_level, require_seed_ids
from .core import BaseMDP, Option, StateSpace, Variable, require_ids_within
from .errors import MalformedInput
from .hierarchy import Hierarchy, PlanQuery
from .planner import plan_option
from .symbols import GroundingSet

# the most states ``num_states`` may declare: 50 times the 12x12 taxi's
# 20,880, checked before any table with one entry per state is made
MAX_STATES = 2 ** 20


class OptionSpec(NamedTuple):
    """One skill, unresolved: a name, initiation and termination sets,
    and a policy that `plan_option` plans when it is None."""

    name: str
    initiation: dict | list
    termination: dict | list
    policy: dict[int, str] | None = None


class OptionSetSpec(NamedTuple):
    """The skills that build one level, and its factored closure seeds."""

    options: tuple[OptionSpec, ...]
    seeds: dict | list | None = None


def _object(value) -> dict:
    """``value`` itself; TypeError unless it is a JSON object."""
    if not isinstance(value, dict):
        raise TypeError(f"{value!r} is not an object")
    return value


def _string(value) -> str:
    """``value`` itself; TypeError unless it is a JSON string."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _scalar(value):
    """``value`` itself; TypeError unless it is a JSON scalar."""
    if value is not None and not isinstance(value, (str, int, float)):
        raise TypeError(f"{value!r} is not a scalar")
    return value


def _read(source) -> dict:
    """The JSON object in the UTF-8 file at ``source``, or ``source``
    itself when it is already parsed. MalformedInput naming the path when
    the file cannot be read, is not UTF-8 or is not valid JSON."""
    data = source
    if isinstance(source, (str, PathLike)):
        try:
            data = json.loads(Path(source).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"{source} is not valid JSON: {exc}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise MalformedInput(f"cannot read {source}: {exc}") from None
    if not isinstance(data, dict):
        raise MalformedInput(f"{source} does not hold a JSON object")
    return data


def _parse(data: dict, key: str, what: str, convert):
    """``convert(data[key])``; MalformedInput when the key is missing or
    its value does not have the shape ``convert`` reads."""
    try:
        value = data[key]
    except KeyError:
        raise MalformedInput(f"{what} has no {key!r} key") from None
    try:
        return convert(value)
    except (AttributeError, TypeError, ValueError, OverflowError):
        raise MalformedInput(f"{what} has a malformed {key!r}: {value!r}") from None


def _set_spec(value) -> dict | list:
    """``value`` itself; TypeError unless it is a list of state ids or a
    constraint object."""
    if isinstance(value, list) and all(type(s) is int for s in value):
        return value
    return _object(value)


def load_domain(source) -> tuple[BaseMDP, dict[str, OptionSetSpec]]:
    """Build a BaseMDP from a JSON file or an already-parsed dict, with
    its named option sets unresolved, for `build_hierarchy`."""
    data = {"gamma": 1.0, "options": {}, **_read(source)}
    labels = _parse(data, "labels", "domain", tuple) if "labels" in data else None
    if data.get("variables") is not None:
        assignments = _parse(
            data, "states", "domain", lambda v: tuple(tuple(map(_scalar, a)) for a in v)
        )
        space = StateSpace(
            level_index=0,
            num_states=len(assignments),
            variables=_parse(
                data,
                "variables",
                "domain",
                lambda v: tuple(Variable(_string(n), tuple(map(_scalar, d))) for n, d in v),
            ),
            assignments=assignments,
            labels=labels,
        )
        _require_in_domains(space)
    else:
        n = _parse(data, "num_states", "domain", int)
        if n > MAX_STATES:
            raise MalformedInput(f"domain has {n} states, more than {MAX_STATES}")
        space = StateSpace(level_index=0, num_states=n, labels=labels)
    transition: dict[tuple[int, str], int] = {}
    reward: dict[tuple[int, str], float] = {}
    for entry in _parse(data, "transitions", "domain", list):
        try:
            s, a, t = int(entry[0]), _string(entry[1]), int(entry[2])
            r = float(entry[3]) if len(entry) > 3 else -1.0
        except (IndexError, KeyError, TypeError, ValueError, OverflowError):
            raise MalformedInput(
                f"transition {entry!r} is not [state, action, state(, reward)]"
            ) from None
        if (s, a) in transition:
            raise MalformedInput(f"transition ({s}, {a!r}) given twice")
        if not math.isfinite(r):
            raise MalformedInput(f"transition ({s}, {a!r}) has reward {r}, not finite")
        transition[(s, a)] = t
        reward[(s, a)] = r
    mdp = BaseMDP(
        space=space,
        actions=_parse(data, "actions", "domain", lambda v: tuple(map(_string, v))),
        transition=transition,
        reward=reward,
        gamma=_parse(data, "gamma", "domain", float),
    )
    sets, what = _parse(data, "options", "domain", _object), "the 'options' object"
    return mdp, {n: _parse(sets, n, what, lambda v: _option_set(n, v)) for n in sets}


def _require_in_domains(space: StateSpace) -> None:
    """MalformedInput naming the first state, in id order, that gives a
    variable a value its declared domain lacks. Values compare with their
    JSON type, so ``true`` is not ``1`` and ``1.0`` is not ``1``. Checked
    here, at the file boundary, because spaces built in code (`build_taxi`)
    hold their domains by construction."""
    allowed = [{(type(d), d) for d in v.domain} for v in space.variables]
    for sid, asg in enumerate(space.assignments):
        for var, values, value in zip(space.variables, allowed, asg):
            if (type(value), value) not in values:
                raise MalformedInput(
                    f"state {sid} gives {var.name!r} the value {value!r}, "
                    f"outside its domain {list(var.domain)!r}"
                )


def _option_set(name: str, value) -> OptionSetSpec:
    """An option set: a list of options, or an object that holds them
    under ``options`` and may give ``seeds``. Policy keys become ids.
    TypeError when an option is not a JSON object."""
    spec = {"options": value} if isinstance(value, list) else _object(value)
    what, where = f"an option of set {name!r}", f"option set {name!r}"
    return OptionSetSpec(
        options=tuple(
            OptionSpec(
                name=_parse(e, "name", what, _string),
                initiation=_parse(e, "initiation", what, _set_spec),
                termination=_parse(e, "termination", what, _set_spec),
                policy=_parse(
                    e, "policy", what, lambda p: {int(k): _string(v) for k, v in p.items()}
                ) if "policy" in e else None,
            )
            for e in map(_object, _parse(spec, "options", where, list))
        ),
        seeds=_parse(spec, "seeds", where, _set_spec) if "seeds" in spec else None,
    )


def expand_generic(level, spec: dict | list) -> GroundingSet:
    """A set as states of ``level``, without domain-specific sugar: a
    list names state ids; a constraint object holds every state when it
    is empty, else those its ``states`` list or variable constraints
    give, less its ``except`` set. A ``states`` or ``except`` id list
    must name states of the level."""
    lvl = level.level_index
    if isinstance(spec, list):
        return GroundingSet.of(lvl, spec)
    rest = {k: v for k, v in spec.items() if k != "except"}
    if "states" in rest:
        result = GroundingSet.of(lvl, _state_ids(level, "states", rest["states"]))
    elif rest:
        result = level.space.where(**rest)
    else:
        result = GroundingSet(lvl, (1 << level.num_states) - 1)
    if "except" in spec:
        removed = _parse(spec, "except", "a constraint object", _set_spec)
        if isinstance(removed, list):
            _state_ids(level, "except", removed)
        result = result - expand_generic(level, removed)
    return result


def _state_ids(level, key: str, ids) -> list[int]:
    """``ids`` itself; MalformedInput naming ``key`` unless it lists
    states of ``level``."""
    n = level.num_states
    if not isinstance(ids, list) or not all(type(s) is int and 0 <= s < n for s in ids):
        raise MalformedInput(f"{key!r} must list state ids in 0..{n - 1}, got {ids!r}")
    return ids


def resolve_options(level, spec: OptionSetSpec) -> list[Option]:
    """``spec``'s options over ``level``; `plan_option` plans each one
    given without a policy."""
    options = []
    for o in spec.options:
        # checked before a bare id list becomes a set as wide as its highest id
        listed = [x for s in (o.initiation, o.termination) if isinstance(s, list) for x in s]
        require_ids_within(o.name, level, max(listed, default=-1))
        sets = expand_generic(level, o.initiation), expand_generic(level, o.termination)
        options.append(
            plan_option(o.name, level, *sets) if o.policy is None
            else Option(o.name, *sets, o.policy)
        )
    return options


def build_hierarchy(
    base: BaseMDP,
    sets: Iterable[OptionSetSpec],
    reward_mode: RewardMode = RewardMode.UNIFORM_PENALTY,
) -> Hierarchy:
    """The hierarchy over ``base`` with one level per option set, built
    bottom-up by `build_level`: each set's options and seeds are resolved
    against the level the sets before it built. One `Hierarchy` is made,
    at the end, so each level's lower runs are recorded once."""
    levels, option_sets = [base], []
    for spec in sets:
        top = levels[-1]
        if isinstance(spec.seeds, list):  # checked before it becomes a set, likewise
            require_seed_ids(top, sorted(spec.seeds))
        seeds = None if spec.seeds is None else expand_generic(top, spec.seeds)
        options = tuple(resolve_options(top, spec))
        levels.append(build_level(options, top, seeds, reward_mode))
        option_sets.append(options)
    return Hierarchy(base, tuple(levels[1:]), tuple(option_sets), reward_mode)


def load_query(mdp: BaseMDP, source, expand=expand_generic) -> PlanQuery:
    """Read ``{"B": ..., "G": ...}``; ``expand`` overrides constraint
    expansion (the CLI passes the taxi-aware expander for taxi runs)."""
    data = _read(source)
    return PlanQuery(
        expand(mdp, _parse(data, "B", "query", _object)),
        expand(mdp, _parse(data, "G", "query", _object)),
    )
