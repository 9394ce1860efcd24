"""Command-line surface: build, plan, bench, export-pddl.

Exit codes: 0 on success (plan found, for ``plan``), 2 when no plan
exists, 1 on any error or failed validation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import taxi as taxi_mod
from .abstraction import RewardMode
from .bench import rows_to_csv, rows_to_json, run_benchmark
from .domain_io import build_hierarchy, expand_generic, load_domain, load_query
from .errors import HierplanError, MalformedInput
from .hierarchy import PlanQuery
from .pddl import export_pddl
from .planner import action_sequence, answer_query, planning_cost, refine


def _build_hierarchy(domain_file: str | None, option_sets: tuple[str, ...],
                     reward_mode: str):
    mode = RewardMode(reward_mode)
    if domain_file is None:
        if option_sets:
            raise MalformedInput("--option-set needs --domain-file")
        return taxi_mod.build_taxi_hierarchy(reward_mode=mode)
    mdp, named = load_domain(domain_file)
    for name in option_sets:
        if name not in named:
            raise MalformedInput(f"domain file defines no option set {name!r}")
    return build_hierarchy(mdp, [named[n] for n in option_sets], mode)


def _json_arg(flag: str, text: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{flag} is not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise MalformedInput(f"{flag} is not a JSON object: {text}")
    return value


domain_options = [
    click.option("--domain-file", type=click.Path(exists=True), default=None,
                 help="JSON domain instead of the built-in taxi domain."),
    click.option("--option-set", "option_sets", multiple=True,
                 help="Option set from the domain file; repeat to stack levels."),
    click.option("--reward-mode", type=click.Choice(["uniform", "empirical"]),
                 default="uniform", show_default=True),
]


def with_domain_options(f):
    for opt in reversed(domain_options):
        f = opt(f)
    return f


class _Commands(click.Group):
    """Reports a library error as one ``error:`` line and exit code 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except HierplanError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(1)


@click.group(cls=_Commands)
def cli() -> None:
    """Abstraction hierarchies over discrete MDPs: build them, answer
    plan queries top-down, refine to base actions, benchmark."""


@cli.command()
@with_domain_options
@click.option("--out", type=click.Path(), default=None, help="Snapshot path (default stdout).")
def build(domain_file, option_sets, reward_mode, out) -> None:
    """Construct the hierarchy, validate it, emit a JSON snapshot."""
    h = _build_hierarchy(domain_file, option_sets, reward_mode)
    violations = h.validate()
    text = h.to_json()
    if out:
        Path(out).write_text(text)
        click.echo(f"snapshot written to {out}")
    else:
        click.echo(text)
    if violations:
        for v in violations:
            click.echo(str(v), err=True)
        sys.exit(1)
    sizes = " ".join(str(h.num_states(j)) for j in range(h.num_levels + 1))
    click.echo(f"levels valid; state counts: {sizes}", err=True)


@cli.command()
@with_domain_options
@click.option("--query-file", type=click.Path(exists=True), default=None)
@click.option("--B", "b_spec", default=None, help="Start constraints, JSON object.")
@click.option("--G", "g_spec", default=None, help="Goal constraints, JSON object.")
@click.option("--at-level", type=int, default=None,
              help="Start the search at this level instead of the top.")
@click.option("--mode", type=click.Choice(["reachability", "value-iteration"]),
              default="reachability", show_default=True)
@click.option("--refine-from", type=int, default=None,
              help="Also refine the plan from this base state.")
def plan(domain_file, option_sets, reward_mode, query_file, b_spec, g_spec,
         at_level, mode, refine_from) -> None:
    """Answer a plan query; prints the solution level and plan summary."""
    if query_file is None and not (b_spec and g_spec):
        raise MalformedInput("need --query-file or both --B and --G")
    h = _build_hierarchy(domain_file, option_sets, reward_mode)
    expand = taxi_mod.expand_constraints if domain_file is None else expand_generic
    if query_file is not None:
        query = load_query(h.base, query_file, expand=expand)
    else:
        query = PlanQuery(
            expand(h.base, _json_arg("--B", b_spec)),
            expand(h.base, _json_arg("--G", g_spec)),
        )
    answer = answer_query(h, query, at_level=at_level, plan_mode=mode)
    if answer is None:
        click.echo("no plan exists, even at the base level")
        sys.exit(2)
    rec = answer.record
    click.echo(f"solution level: {answer.level_index}")
    click.echo(f"start candidates: {sorted(answer.plan.initiation)}")
    click.echo(f"goal candidates: {sorted(answer.plan.termination)}")
    click.echo(
        f"first match at level {rec.first_match_level}; "
        f"cost {planning_cost(rec)} ops "
        f"(match {rec.match_seconds * 1000:.3f} ms, plan {rec.plan_seconds * 1000:.3f} ms)"
    )
    level = h.level(answer.level_index)
    for s in sorted(answer.plan.initiation):
        seq = action_sequence(level, answer.plan, s)
        label = level.space.label(s)
        click.echo(f"  from {label}: {' -> '.join(seq) if seq else '(already at goal)'}")
    if refine_from is not None:
        trace = refine(h, answer.plan, refine_from)
        click.echo(
            f"refined from base state {refine_from}: {trace.steps} base steps, "
            f"reward {trace.cumulative_reward:g}, ends at "
            f"{h.base.space.label(trace.end)}"
        )


@cli.command()
@with_domain_options
@click.option("--reps", type=int, default=100, show_default=True)
@click.option("--out", "out_format", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--out-file", type=click.Path(), default=None)
def bench(domain_file, option_sets, reward_mode, reps, out_format, out_file) -> None:
    """Run the three-mode timing comparison over the benchmark queries."""
    if domain_file is not None:
        raise MalformedInput("bench runs the built-in taxi queries")
    h = _build_hierarchy(None, option_sets, reward_mode)
    queries = taxi_mod.benchmark_queries(h.base)
    rows = run_benchmark(h, queries, repetitions=reps)
    text = rows_to_csv(rows) if out_format == "csv" else rows_to_json(rows)
    if out_file:
        Path(out_file).write_text(text)
        click.echo(f"results written to {out_file}")
    else:
        click.echo(text, nl=False)


@cli.command("export-pddl")
@with_domain_options
@click.option("--level", "level_index", type=int, required=True)
@click.option("--out-dir", type=click.Path(), default=None,
              help="Write domain.pddl and problem.pddl here (default stdout).")
@click.option("--init-state", type=int, default=None)
@click.option("--goal-state", type=int, default=None)
def export_pddl_cmd(domain_file, option_sets, reward_mode, level_index, out_dir,
                    init_state, goal_state) -> None:
    """Export one abstract level as a PDDL domain and problem."""
    h = _build_hierarchy(domain_file, option_sets, reward_mode)
    domain, problem = export_pddl(
        h, level_index, init_state=init_state, goal_state=goal_state
    )
    if out_dir:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / "domain.pddl").write_text(domain)
        (path / "problem.pddl").write_text(problem)
        click.echo(f"wrote {path / 'domain.pddl'} and {path / 'problem.pddl'}")
    else:
        click.echo(domain)
        click.echo(problem)


def main() -> None:
    """Console entry point."""
    cli()


if __name__ == "__main__":
    main()
