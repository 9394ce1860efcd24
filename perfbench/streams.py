"""Workloads, taxi grids and the seeded query generator of the benchmark.

Every workload runs on a taxi grid made from the parametric `TaxiLayout`,
so nothing is downloaded. A query stream is a list of `StreamQuery`
built from four query kinds through the public `expand_constraints`:

* deliver: passenger at depot A, taxi at any depot or a named one,
  passenger outside; goal `pass-at` depot B != A. Solves at level 2.
* park: deliver's starts; goal passenger at depot B != A with the taxi
  parked at a named depot, passenger outside. Solves at level 1.
* drop: deliver's starts; goal `pass-at` a non-depot cell, which no
  abstract level grounds inside. Solves at level 0.
* cruise: taxi at a non-depot cell, passenger at depot A, outside; goal
  `pass-at` depot B != A. No abstract level covers the start. Solves at
  level 0.

The larger grids reuse taxi's hard-coded 0..4 variable domains. Only
`pddl` and `Hierarchy.to_snapshot` read those domains and neither runs
here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from hierplan.core import BaseMDP
from hierplan.hierarchy import PlanQuery
from hierplan.symbols import GroundingSet
from hierplan.taxi import DEFAULT_LAYOUT, TaxiLayout, expand_constraints

EXPECTED_LEVEL = {"deliver": 2, "park": 1, "drop": 0, "cruise": 0}
BFS = "reachability"
VI = "value-iteration"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``mix``: query kinds with their relative weights. ``vi_every``: one
    query in this many of each kind plans by value iteration (0: none).
    ``stream_size`` must be a multiple of the mix's slot count
    (`mix_slots`) so the shares are exact for every seed.
    ``setup_reps``: set-ups per run, reported as their median.
    ``tail_pct``: the percentile ``query_tail_ms`` reports, the highest of
    99.9, 99, 90 with at least ten samples beyond it at the parent commit.
    It is fixed per workload so that a change in throughput cannot move
    the tail to another percentile; p99.9 is left out because its spread
    across seeds exceeds the metric's bound on a shared two-core machine.
    """

    name: str
    grid: int
    mix: tuple[tuple[str, int], ...]
    vi_every: int
    stream_size: int
    setup_reps: int
    tail_pct: float


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's walled 5x5 map: upper-level matching, abstract BFS
        # and value iteration, and refinement do the work. About 300
        # distinct queries exist, so queries repeat and a cache would show.
        # Deliver and park form two latency clusters; at half each the
        # median would fall in the gap between them and read the slowest
        # deliver, so park outweighs deliver 5:3.
        Workload("taxi5-abstract", 5, (("deliver", 3), ("park", 5)), 4, 1280, 21, 99.0),
        # Open 12x12 grid, 20,880 states: construction and validate() do
        # almost all the work; refinements are long and groundings wide.
        Workload("taxi12-build", 12, (("deliver", 3), ("park", 5)), 0, 400, 3, 99.0),
        # Open 8x8 grid: every query falls through to level 0, so level-0
        # matching and flat BFS dominate. Queries are mostly distinct, so a
        # cache is bypassed: the control for every taxi5-abstract change.
        Workload("taxi8-fallthrough", 8, (("drop", 1), ("cruise", 1)), 0, 640, 5, 90.0),
    )
}


def layout_for(grid: int) -> TaxiLayout:
    """The walled paper map for 5, else an open grid with corner depots."""
    if grid == 5:
        return DEFAULT_LAYOUT
    top = grid - 1
    return TaxiLayout(
        width=grid,
        height=grid,
        depots=(
            ("red", (0, top)),
            ("green", (top, top)),
            ("blue", (top, 0)),
            ("yellow", (0, 0)),
        ),
    )


@dataclass(frozen=True)
class StreamQuery:
    """One generated query with everything the check needs."""

    kind: str
    query: PlanQuery
    level: int
    plan_mode: str
    start: int


def members(states: GroundingSet) -> list[int]:
    """Ascending members by lowest-bit extraction.

    `GroundingSet.__iter__` shifts one bit at a time, which costs about
    15 ms on a 20,880-bit set; this is linear in the member count.
    """
    bits = states.bits
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _specs(kind: str, rng: random.Random, layout: TaxiLayout) -> tuple[dict, dict]:
    depots = list(layout.depot_names())
    a, b = rng.sample(depots, 2)
    starts = {"pass-at": a, "taxi-at": rng.choice(depots + ["any-depot"]), "in-taxi": False}
    if kind == "deliver":
        return starts, {"pass-at": b}
    if kind == "park":
        return starts, {"pass-at": b, "taxi-at": rng.choice(depots), "in-taxi": False}
    depot_cells = {layout.depot_cell(d) for d in depots}
    cells = [
        [x, y]
        for x in range(layout.width)
        for y in range(layout.height)
        if (x, y) not in depot_cells
    ]
    if kind == "drop":
        return starts, {"pass-at": rng.choice(cells)}
    if kind == "cruise":
        return {"pass-at": a, "taxi-at": rng.choice(cells), "in-taxi": False}, {"pass-at": b}
    raise ValueError(f"unknown query kind {kind!r}")


def mix_slots(workload: Workload) -> list[tuple[str, str]]:
    """The smallest list of (kind, plan mode) with the workload's shares."""
    vi_every = max(workload.vi_every, 1)
    return [
        (kind, VI if workload.vi_every and m % vi_every == 0 else BFS)
        for kind, weight in workload.mix
        for m in range(weight * vi_every)
    ]


def make_stream(
    mdp: BaseMDP, layout: TaxiLayout, workload: Workload, seed: int
) -> list[StreamQuery]:
    """The workload's query stream for ``seed``; same seed, same stream.

    Kinds and plan modes come in exact shares, in an order the seed
    shuffles; the seed also draws each query's depots and cells and its
    concrete start. Constraint sets are expanded once per distinct spec.
    """
    rng = random.Random(seed)
    mix = mix_slots(workload)
    if workload.stream_size % len(mix):
        raise ValueError(f"stream size must be a multiple of {len(mix)}")
    slots = mix * (workload.stream_size // len(mix))
    rng.shuffle(slots)
    expanded: dict[str, GroundingSet] = {}
    plan_queries: dict[tuple[str, str], PlanQuery] = {}

    def expand(spec: dict) -> str:
        key = json.dumps(spec, sort_keys=True)
        if key not in expanded:
            expanded[key] = expand_constraints(mdp, spec, layout)
        return key

    stream = []
    for kind, mode in slots:
        start_spec, goal_spec = _specs(kind, rng, layout)
        key = (expand(start_spec), expand(goal_spec))
        if key not in plan_queries:
            plan_queries[key] = PlanQuery(expanded[key[0]], expanded[key[1]])
        q = plan_queries[key]
        start = rng.choice(members(q.starts))
        stream.append(StreamQuery(kind, q, EXPECTED_LEVEL[kind], mode, start))
    return stream
