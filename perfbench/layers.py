"""Set-up, query phase and traced layer replays of the benchmark.

One query operation, the timed unit, is ``answer_query(h, q, plan_mode=m)``
followed by ``refine(h, answer.plan, s)`` for the stream's drawn start
``s``. The loop is closed: one caller, no think time, the output check
run between operations and outside the timer.

The traced run records spans around the public calls of ``taxi``,
``hierarchy``, ``abstraction``, ``core``, ``planner`` and ``bench`` from
here only. Per-level matching and planning, terminal maps, partitioning
and level building happen inside ``answer_query`` and ``add_level``, so
they are timed by replaying the same public functions on the same inputs,
outside the operation and set-up timers; net figures subtract the nested
work each replay repeats.
"""

from __future__ import annotations

import statistics
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from hierplan.abstraction import (
    Construction,
    RewardMode,
    build_factored_abstraction,
    build_plan_graph,
    compute_effect_set,
    partition_option,
)
from hierplan.bench import flatten_options
from hierplan.core import execute_option
from hierplan.errors import NoMatch
from hierplan.hierarchy import Hierarchy
from hierplan.planner import (
    answer_query,
    candidate_goals,
    candidate_starts,
    findplan,
    findplan_value_iteration,
    refine,
)
from hierplan.taxi import (
    TaxiLayout,
    build_taxi,
    depot_seed_states,
    taxi_options_level1,
    taxi_options_level2,
)

from spans import Tracer
from streams import BFS, StreamQuery, members
from verify import check_operation

FLAT_SAMPLE = 16
LEVELS = (0, 1, 2)


def build(layout: TaxiLayout, tracer: Tracer):
    """Build the taxi hierarchy in uniform reward mode and validate it.

    The same steps as `build_taxi_hierarchy`, one span each. Returns the
    hierarchy and the violations `validate()` found.
    """
    with tracer.span("setup"):
        with tracer.span("taxi.build_taxi"):
            mdp = build_taxi(layout)
        with tracer.span("taxi.options"):
            options1 = taxi_options_level1(mdp, layout)
            seeds = depot_seed_states(mdp, layout)
        h = Hierarchy(base=mdp, reward_mode=RewardMode.UNIFORM_PENALTY)
        with tracer.span("hierarchy.add_level.L1"):
            h = h.add_level(options1, seeds=seeds)
        with tracer.span("taxi.options"):
            options2 = taxi_options_level2(h, layout)
        with tracer.span("hierarchy.add_level.L2"):
            h = h.add_level(options2)
        with tracer.span("hierarchy.validate"):
            violations = h.validate()
    return h, violations


@dataclass
class SetupResult:
    layout: TaxiLayout
    hierarchy: Hierarchy | None = None
    untraced_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    traced_layers: list[dict[str, float]] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)


def set_up(setup: SetupResult, tracer: Tracer, trace: bool) -> Hierarchy:
    """One timed set-up from scratch, recorded in ``setup``. In the traced
    run every second set-up is traced and the others are the untraced
    reference."""
    traced = trace and (len(setup.untraced_s) + len(setup.traced_s)) % 2 == 1
    setup.hierarchy = None  # free the previous build before the next
    tracer.enabled = traced
    mark = tracer.mark()
    t0 = perf_counter()
    setup.hierarchy, violations = build(setup.layout, tracer)
    elapsed = perf_counter() - t0
    tracer.enabled = False
    setup.violations += [str(v) for v in violations]
    if traced:
        setup.traced_s.append(elapsed)
        setup.traced_layers.append(tracer.self_seconds(mark))
    else:
        setup.untraced_s.append(elapsed)
    return setup.hierarchy


@dataclass
class QueryResult:
    latencies_s: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    first_pass_steps: list[int] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    match_seconds: float = 0.0
    match_ops: int = 0
    traced_ms: list[float] = field(default_factory=list)
    untraced_ms: list[float] = field(default_factory=list)
    query_self: dict[str, float] = field(default_factory=dict)


def _candidates(fn, h: Hierarchy, j: int, states):
    try:
        return fn(h, j, states)
    except NoMatch:
        return None


def replay_query(h: Hierarchy, sq: StreamQuery, tracer: Tracer) -> None:
    """Time per-level matching and planning of one query, the way
    `answer_query` runs them: top down, both candidates at every level,
    planning where both exist, stopping at the first plan."""
    mode, plan_fn = ("bfs", findplan) if sq.plan_mode == BFS else ("vi", findplan_value_iteration)
    with tracer.span("replay.query"):
        for j in range(h.num_levels, -1, -1):
            with tracer.span(f"planner.match.L{j}"):
                starts = _candidates(candidate_starts, h, j, sq.query.starts)
                goals = _candidates(candidate_goals, h, j, sq.query.goals)
            if starts is None or goals is None:
                continue
            with tracer.span(f"planner.{mode}_plan.L{j}"):
                plan = plan_fn(h.level(j), starts, goals)
            if plan is not None:
                return


def query_phase(
    setup: SetupResult,
    reps: int,
    stream: list[StreamQuery],
    seconds: float,
    tracer: Tracer,
    trace: bool,
) -> QueryResult:
    """Run the stream in a closed loop for ``seconds``, cycling as needed.

    Latencies count the operations that start inside the window. If the
    window ends before one full pass, the pass is finished untimed, so
    the first-pass counts and ``base_steps_mean`` depend on the seed
    only. In the traced run every second operation is traced and then
    replayed layer by layer; the others are the untraced reference.

    The window is cut into ``reps`` slices with one set-up between each
    two, outside the window: on a machine whose speed drifts, set-ups then
    sample the same stretch of time as the queries. Queries go on with the
    newest hierarchy. ``setup`` holds the first set-up already.
    """
    out = QueryResult()
    n = len(stream)
    mark = tracer.mark()
    h = setup.hierarchy
    slice_s = seconds / reps
    done = 1
    spent, clock = 0.0, perf_counter()
    i = 0
    while True:
        now = perf_counter()
        spent, clock = spent + now - clock, now
        in_window = spent < seconds
        if done < reps and (spent >= done * slice_s or not in_window):
            h = None
            h = set_up(setup, tracer, trace)
            done += 1
            clock = perf_counter()
            continue
        if not in_window and i >= n:
            break
        sq = stream[i % n]
        tracer.enabled = trace and i % 2 == 0
        answer = result = None
        t0 = perf_counter()
        try:
            with tracer.span("query"):
                with tracer.span("planner.answer_query"):
                    answer = answer_query(h, sq.query, plan_mode=sq.plan_mode)
                with tracer.span("planner.refine"):
                    if answer is not None:
                        result = refine(h, answer.plan, sq.start)
            elapsed = perf_counter() - t0
            error = check_operation(h.base, sq, answer, result)
        except Exception as exc:  # a program error fails this operation, not the run
            error = f"{type(exc).__name__}: {exc}"
        out.attempted += 1
        if error is not None:
            out.failed += 1
            if len(out.errors) < 20:
                out.errors.append(f"stream[{i % n}] {sq.kind}: {error}")
        else:
            if in_window:
                out.latencies_s.append(elapsed)
            if trace:
                (out.traced_ms if tracer.enabled else out.untraced_ms).append(elapsed * 1e3)
            record = answer.record
            out.match_seconds += record.match_seconds
            out.match_ops += sum(record.match_ops.values())
            if i < n:
                _count_first_pass(out, record, result.steps)
            if tracer.enabled:
                replay_query(h, sq, tracer)
        i += 1
    tracer.enabled = False
    out.query_self = tracer.self_seconds(mark)
    return out


def _count_first_pass(out: QueryResult, record, steps: int) -> None:
    c = out.counts
    for j, ops in record.match_ops.items():
        c[f"planner.match_ops.L{j}"] += ops
    for j, ops in record.plan_ops.items():
        c[f"planner.plan_ops.L{j}"] += ops
    c[f"planner.solved_at.L{record.solution_level}"] += 1
    c["planner.fallthrough"] += record.first_match_level != record.solution_level
    c["planner.refine_steps"] += steps
    out.first_pass_steps.append(steps)


def percentile(samples: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    k = max(-(-int(pct * len(ordered)) // 100) - 1, 0)
    return ordered[k], len(ordered) - 1 - k


def end_to_end(
    setup: SetupResult, queries: QueryResult, tail_pct: float, peak_rss_mb: float
) -> tuple[dict, dict]:
    """End-to-end metrics for the result line, and those only printed.

    The median latency and the failure share are printed by name but left
    out of the result line. The median's spread across seeds, about 35% on
    taxi5-abstract and taxi8-fallthrough, exceeds every bound the result
    format allows: the machine's speed switches between a fast and a slow
    state, and a median snaps to one of them. The mean behind
    ``queries_per_s`` and the tail move smoothly. ``failed_frac`` reads 0,
    which the format forbids; the result line's ``failed`` and
    ``attempted`` carry it.
    """
    lat_ms = [s * 1e3 for s in queries.latencies_s]
    tail_ms, beyond = percentile(lat_ms, tail_pct)
    reported = {
        "setup_s": (statistics.median(setup.untraced_s), "s"),
        "query_tail_ms": (
            tail_ms, "ms", f"p{tail_pct:g} of {len(lat_ms)} samples, {beyond} beyond it"
        ),
        "queries_per_s": (len(lat_ms) / sum(queries.latencies_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "base_steps_mean": (statistics.fmean(queries.first_pass_steps), "steps"),
    }
    printed = {
        "query_p50_ms": (statistics.median(lat_ms), "ms", f"median of {len(lat_ms)} samples"),
        "failed_frac": (
            queries.failed / queries.attempted, "ratio",
            f"{queries.failed} of {queries.attempted} operations",
        ),
    }
    return reported, printed


def replay_setup(h: Hierarchy, layout: TaxiLayout, tracer: Tracer) -> dict:
    """Construction layers, by replaying each public construction step on
    the built hierarchy's own inputs; plus the structure counts."""
    tracer.enabled = True
    mark = tracer.mark()
    counts = {}
    with tracer.span("replay.setup"):
        for j in (1, 2):
            below, level, options = h.level(j - 1), h.level(j), h.option_sets[j - 1]
            with tracer.span(f"abstraction.compute_effect_set.L{j}"):
                for o in options:
                    compute_effect_set(o, below)
            with tracer.span(f"abstraction.partition_option.L{j}"):
                for o in options:
                    partition_option(o, below)
            with tracer.span(f"abstraction.build_level.L{j}"):
                if level.construction is Construction.FACTORED:
                    build_factored_abstraction(options, below, depot_seed_states(h.base, layout))
                else:
                    build_plan_graph(options, below)
            calls = steps = 0
            with tracer.span(f"core.execute_option.L{j}"):
                for o in options:
                    for s in members(o.initiation):
                        calls += 1
                        steps += execute_option(below, o, s, record_stats=False).steps
            counts[f"core.execute_option_calls.L{j}"] = calls
            counts[f"core.execute_option_steps.L{j}"] = steps
            counts[f"abstraction.parts.L{j}"] = len(level.actions)
            counts[f"abstraction.states.L{j}"] = level.num_states
            counts[f"abstraction.edges.L{j}"] = len(level.transitions)
        with tracer.span("hierarchy.Hierarchy"):
            Hierarchy(
                base=h.base,
                levels_above=h.levels_above,
                option_sets=h.option_sets,
                reward_mode=h.reward_mode,
            )
    tracer.enabled = False
    counts["hierarchy.validate_executions"] = sum(
        len(level.grounding_of(s)) for level in h.levels_above for (s, _) in level.transitions
    )
    return {"self": tracer.self_seconds(mark), "counts": counts}


def flat_reference(h: Hierarchy, stream: list[StreamQuery], tracer: Tracer) -> dict:
    """Flat breadth-first search against hierarchical answering (both
    in reachability mode) on the stream's first queries, and the cost
    of `flatten_options`, the second refinement path."""
    tracer.enabled = True
    flat, hier = [], []
    with tracer.span("replay.flat"):
        for sq in stream[:FLAT_SAMPLE]:
            t0 = perf_counter()
            with tracer.span("planner.findplan.flat"):
                findplan(h.base, sq.query.starts, sq.query.goals)
            t1 = perf_counter()
            with tracer.span("planner.answer_query.bfs"):
                answer_query(h, sq.query)
            t2 = perf_counter()
            flat.append(t1 - t0)
            hier.append(t2 - t1)
        t0 = perf_counter()
        with tracer.span("bench.flatten_options"):
            flatten_options(h)
        flatten_s = perf_counter() - t0
    tracer.enabled = False
    return {
        "flat_ms": statistics.median(flat) * 1e3,
        "hier_to_flat": statistics.median(hier) / statistics.median(flat),
        "flatten_s": flatten_s,
    }


def per_layer(setup: SetupResult, queries: QueryResult, replays: dict, flat: dict) -> dict:
    """Every per-layer metric of the traced run, as (value, unit)."""
    m: dict[str, tuple] = {}

    def layer(name: str) -> float:
        return statistics.median(run.get(name, 0.0) for run in setup.traced_layers)

    m["taxi.build_taxi_s"] = (layer("taxi.build_taxi"), "s")
    m["taxi.options_s"] = (layer("taxi.options"), "s")
    rs = replays["self"]
    for j in (1, 2):
        m[f"hierarchy.add_level_s.L{j}"] = (layer(f"hierarchy.add_level.L{j}"), "s")
        tmap = rs[f"abstraction.compute_effect_set.L{j}"]
        part = rs[f"abstraction.partition_option.L{j}"]
        m[f"abstraction.terminal_map_s.L{j}"] = (tmap, "s")
        m[f"abstraction.partition_s.L{j}"] = (part - tmap, "s")
        m[f"abstraction.build_level_s.L{j}"] = (rs[f"abstraction.build_level.L{j}"] - part, "s")
    for name, value in replays["counts"].items():
        m[name] = (value, "count")
    m["hierarchy.grounding_memo_s"] = (rs["hierarchy.Hierarchy"], "s")
    m["hierarchy.validate_s"] = (layer("hierarchy.validate"), "s")

    traced_ops = len(queries.traced_ms)
    qs = queries.query_self
    query_layers = 0.0
    for j in LEVELS:
        match_ms = qs.get(f"planner.match.L{j}", 0.0) / traced_ops * 1e3
        m[f"planner.match_ms.L{j}"] = (match_ms, "ms")
        m[f"planner.match_ops.L{j}"] = (queries.counts[f"planner.match_ops.L{j}"], "count")
        query_layers += match_ms
    m["symbols.ns_per_match_test"] = (queries.match_seconds / queries.match_ops * 1e9, "ns")
    for j in LEVELS:
        bfs_ms = qs.get(f"planner.bfs_plan.L{j}", 0.0) / traced_ops * 1e3
        m[f"planner.bfs_plan_ms.L{j}"] = (bfs_ms, "ms")
        query_layers += bfs_ms
        if j:
            vi_ms = qs.get(f"planner.vi_plan.L{j}", 0.0) / traced_ops * 1e3
            m[f"planner.vi_plan_ms.L{j}"] = (vi_ms, "ms")
            query_layers += vi_ms
        m[f"planner.plan_ops.L{j}"] = (queries.counts[f"planner.plan_ops.L{j}"], "count")
    for j in LEVELS:
        m[f"planner.solved_at.L{j}"] = (queries.counts[f"planner.solved_at.L{j}"], "count")
    m["planner.fallthrough"] = (queries.counts["planner.fallthrough"], "count")
    refine_ms = qs.get("planner.refine", 0.0) / traced_ops * 1e3
    m["planner.refine_ms"] = (refine_ms, "ms")
    m["planner.refine_steps"] = (queries.counts["planner.refine_steps"], "count")
    query_layers += refine_ms

    m["bench.flat_findplan_ms"] = (flat["flat_ms"], "ms")
    m["bench.hier_to_flat"] = (flat["hier_to_flat"], "ratio")
    m["bench.flatten_s"] = (flat["flatten_s"], "s")
    traced_setup = statistics.median(setup.traced_s)
    untraced_setup = statistics.median(setup.untraced_s)
    m["bench.flatten_to_setup"] = (flat["flatten_s"] / traced_setup, "ratio")

    setup_layers = sum(
        layer(name)
        for name in (
            "taxi.build_taxi", "taxi.options", "hierarchy.add_level.L1",
            "hierarchy.add_level.L2", "hierarchy.validate",
        )
    )
    m["trace.setup_s"] = (traced_setup, "s")
    m["trace.setup_untraced_s"] = (untraced_setup, "s")
    m["trace.setup_layers_s"] = (setup_layers, "s")
    m["trace.overhead_setup_s"] = (traced_setup - untraced_setup, "s")
    traced_q = statistics.fmean(queries.traced_ms)
    untraced_q = statistics.fmean(queries.untraced_ms)
    m["trace.query_ms"] = (traced_q, "ms")
    m["trace.query_untraced_ms"] = (untraced_q, "ms")
    m["trace.query_layers_ms"] = (query_layers, "ms")
    m["trace.overhead_query_ms"] = (traced_q - untraced_q, "ms")
    return m
