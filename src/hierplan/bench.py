"""Wall-clock comparison of three ways to answer the same plan query.

* hierarchical: top-down level matching plus planning at the matched
  level, timed as the matching/planning phase split reported by the
  planner's instrumentation (the two phases partition the search loop,
  so their sum is the hierarchical total);
* base + options: planning over the base MDP augmented with every option
  flattened to its base-level endpoint map (temporal abstraction without
  state abstraction), itself a `BaseMDP` with one extra action per
  option;
* flat: planning over the bare base MDP.

Each repetition runs the three modes in turn, after one untimed warm-up
round, so a drift in machine speed reaches every mode alike; rows report
per-mode medians in milliseconds, which one stalled run cannot move.
Absolute numbers are hardware-dependent; orderings and ratios between
modes are the meaningful output.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import asdict, dataclass
from statistics import median
from typing import Mapping

from .core import BaseMDP
from .errors import MalformedInput
from .hierarchy import Hierarchy, PlanQuery
from .planner import answer_query, findplan, refine


def flatten_options(h: Hierarchy) -> BaseMDP:
    """The base MDP plus every option of every level as a one-shot action
    named ``<option>@<level>``, whose endpoints and rewards come from
    actual refined execution. Zero-step executions add no edge."""
    transition = dict(h.base.transition)
    reward = dict(h.base.reward)
    names: list[str] = []
    for j, options in enumerate(h.option_sets, start=1):
        for option in options:
            name = f"{option.name}@{j}"
            names.append(name)
            for x in h.final_ground(j - 1, option.initiation):
                trace = refine(h, option, x)
                if trace.steps == 0:
                    continue
                transition[(x, name)] = trace.end
                reward[(x, name)] = trace.cumulative_reward
    return BaseMDP(
        space=h.base.space,
        actions=h.base.actions + tuple(names),
        transition=transition,
        reward=reward,
        gamma=h.base.gamma,
    )


@dataclass(frozen=True)
class BenchmarkRow:
    """Median per-mode timings for one query, milliseconds; ``hier_ms``
    is ``match_ms + plan_ms``."""

    query: str
    level: int
    match_ms: float
    plan_ms: float
    hier_ms: float
    options_ms: float
    flat_ms: float


CSV_HEADER = "query,level,match_ms,plan_ms,hier_ms,options_ms,flat_ms"


def _median_ms(samples: list[float]) -> float:
    return 1000.0 * median(samples) if samples else 0.0


def run_benchmark(
    h: Hierarchy,
    queries: Mapping[str, PlanQuery],
    repetitions: int = 100,
) -> list[BenchmarkRow]:
    """Time all three modes for each query, in turn within every
    repetition; one warm-up round is excluded, and the flattened SMDP is
    built once outside all timers."""
    if repetitions < 1:
        raise MalformedInput(f"repetitions must be >= 1, got {repetitions}")
    flat_plus = flatten_options(h)
    rows: list[BenchmarkRow] = []
    for name, query in queries.items():
        match_s: list[float] = []
        plan_s: list[float] = []
        options_s: list[float] = []
        base_s: list[float] = []
        for i in range(repetitions + 1):
            answer = answer_query(h, query)
            t0 = time.perf_counter()
            findplan(flat_plus, query.starts, query.goals)
            t1 = time.perf_counter()
            findplan(h.base, query.starts, query.goals)
            t2 = time.perf_counter()
            if i == 0:
                continue
            if answer is not None:
                match_s.append(answer.record.match_seconds)
                plan_s.append(answer.record.plan_seconds)
            options_s.append(t1 - t0)
            base_s.append(t2 - t1)
        match_ms, plan_ms = _median_ms(match_s), _median_ms(plan_s)
        rows.append(
            BenchmarkRow(
                query=name,
                level=answer.level_index if answer is not None else -1,
                match_ms=match_ms,
                plan_ms=plan_ms,
                hier_ms=match_ms + plan_ms,
                options_ms=_median_ms(options_s),
                flat_ms=_median_ms(base_s),
            )
        )
    return rows


def rows_to_csv(rows: list[BenchmarkRow]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in rows:
        out.write(
            f"{r.query},{r.level},{r.match_ms:.6f},{r.plan_ms:.6f},"
            f"{r.hier_ms:.6f},{r.options_ms:.6f},{r.flat_ms:.6f}\n"
        )
    return out.getvalue()


def rows_to_json(rows: list[BenchmarkRow]) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2)
