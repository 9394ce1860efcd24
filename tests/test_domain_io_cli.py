"""JSON domain loading and the command-line surface."""

import json
import re
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from hierplan import (
    GroundingSet,
    PlanQuery,
    RewardMode,
    answer_query,
    build_hierarchy,
    build_taxi_hierarchy,
    export_pddl,
    load_domain,
    load_query,
    refine,
)
from hierplan.cli import cli
from hierplan.domain_io import MAX_STATES, OptionSetSpec, OptionSpec, expand_generic
from hierplan.errors import HierplanError, MalformedInput, UnknownName
from hierplan.hierarchy import Hierarchy, Violation
from hierplan.taxi import DEFAULT_LAYOUT

from conftest import OPEN_8X8, taxi_domain

GOLDEN_DIR = Path(__file__).parent / "goldens"

CHAIN_DOMAIN = {
    "name": "chain",
    "gamma": 1.0,
    "actions": ["fwd"],
    "variables": [["pos", [0, 1, 2, 3]]],
    "states": [[0], [1], [2], [3]],
    "transitions": [[0, "fwd", 1], [1, "fwd", 2], [2, "fwd", 3]],
    "options": {
        "level1": [
            {
                "name": "to-mid",
                "initiation": [0, 1],
                "termination": [2],
                "policy": {"0": "fwd", "1": "fwd"},
            },
            {
                "name": "to-end",
                "initiation": [0, 1, 2],
                "termination": [3],
                "policy": {"0": "fwd", "1": "fwd", "2": "fwd"},
            },
        ]
    },
}


# the chain stacked twice, every policy planned: level 1 has one plan-graph
# node per option (0: to-mid, 1: to-end); level 2 runs over those nodes
STACKED_CHAIN = {
    **CHAIN_DOMAIN,
    "options": {
        "level1": {
            "seeds": [0],
            "options": [
                {"name": "to-mid", "initiation": [0, 1], "termination": {"pos": 2}},
                {"name": "to-end", "initiation": {"except": {"pos": 3}},
                 "termination": [3]},
            ],
        },
        "level2": [{"name": "finish", "initiation": [0], "termination": [1]}],
    },
}


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_DOMAIN))
    return str(path)


class TestDomainIO:
    def test_load_domain(self, chain_file):
        mdp, option_sets = load_domain(chain_file)
        assert mdp.num_states == 4
        assert mdp.step(0, "fwd") == (1, -1.0)
        assert list(option_sets) == ["level1"]
        assert [o.name for o in option_sets["level1"].options] == ["to-mid", "to-end"]

    def test_load_query_with_constraints(self, chain_file):
        mdp, _ = load_domain(chain_file)
        q = load_query(mdp, {"B": {"pos": [0, 1]}, "G": {"pos": 3}})
        assert set(q.starts) == {0, 1}
        assert set(q.goals) == {3}

    def test_load_query_with_states(self, chain_file):
        mdp, _ = load_domain(chain_file)
        q = load_query(mdp, {"B": {"states": [0]}, "G": {"states": [2, 3]}})
        assert set(q.starts) == {0} and set(q.goals) == {2, 3}

    def test_undeclared_action_rejected(self):
        """The planner ranks edges by their action's place in the
        declared actions, so the undeclared ``jump`` edge is rejected
        when the domain is loaded."""
        with pytest.raises(UnknownName):
            load_domain(
                {
                    "actions": ["fwd"],
                    "num_states": 3,
                    "transitions": [[0, "jump", 1], [1, "fwd", 2]],
                }
            )

    @pytest.mark.parametrize(
        "domain, message",
        [
            (
                {"actions": ["fwd"], "num_states": 3,
                 "transitions": [[0, "fwd", 1], [0, "fwd", 2, -5]]},
                "transition (0, 'fwd') given twice",
            ),
            ({"actions": ["fwd"], "num_states": 3}, "'transitions'"),
            ({"num_states": 3, "transitions": []}, "'actions'"),
            ({"actions": ["fwd"], "transitions": []}, "'num_states'"),
            (
                {"actions": ["fwd"], "num_states": 3, "transitions": [[0, "fwd"]]},
                "transition [0, 'fwd'] is not [state, action, state(, reward)]",
            ),
            (
                {"actions": ["fwd"], "num_states": "three", "transitions": []},
                "domain has a malformed 'num_states': 'three'",
            ),
            (
                {**CHAIN_DOMAIN, "options": {"l1": [{
                    "name": "o", "initiation": ["a"], "termination": [1],
                    "policy": {"0": "fwd"}}]}},
                "an option of set 'l1' has a malformed 'initiation': ['a']",
            ),
            (
                {**CHAIN_DOMAIN, "options": {"l1": [{
                    "name": "o", "initiation": [0], "termination": [1],
                    "policy": {"zero": "fwd"}}]}},
                "an option of set 'l1' has a malformed 'policy': {'zero': 'fwd'}",
            ),
            (
                {**CHAIN_DOMAIN, "states": [0, 1]},
                "domain has a malformed 'states': [0, 1]",
            ),
            ([1, 2], "[1, 2] does not hold a JSON object"),
            ({**CHAIN_DOMAIN, "options": []}, "domain has a malformed 'options': []"),
            (
                {**CHAIN_DOMAIN, "options": {"l1": 5}},
                "the 'options' object has a malformed 'l1': 5",
            ),
            (
                {**CHAIN_DOMAIN, "options": {"l1": [5]}},
                "the 'options' object has a malformed 'l1': [5]",
            ),
            ({**CHAIN_DOMAIN, "transitions": 5}, "domain has a malformed 'transitions': 5"),
            (
                {**CHAIN_DOMAIN, "transitions": [[0, ["fwd"], 1]]},
                "transition [0, ['fwd'], 1] is not [state, action, state(, reward)]",
            ),
            (
                {**CHAIN_DOMAIN, "actions": ["fwd", ["x"]]},
                "domain has a malformed 'actions': ['fwd', ['x']]",
            ),
            (
                {**CHAIN_DOMAIN, "states": [[[0]], [1], [2], [3]]},
                "domain has a malformed 'states': [[[0]], [1], [2], [3]]",
            ),
            (
                {**CHAIN_DOMAIN, "options": {"l1": [{
                    "name": ["o"], "initiation": [0], "termination": [1]}]}},
                "an option of set 'l1' has a malformed 'name': ['o']",
            ),
            (
                {**CHAIN_DOMAIN, "options": {"l1": [{
                    "name": 7, "initiation": [0], "termination": [1]}]}},
                "an option of set 'l1' has a malformed 'name': 7",
            ),
            (
                {**CHAIN_DOMAIN, "options": {"l1": [{
                    "name": "o", "initiation": [0], "termination": [1],
                    "policy": {"0": ["fwd"]}}]}},
                "an option of set 'l1' has a malformed 'policy': {'0': ['fwd']}",
            ),
            (
                {**CHAIN_DOMAIN, "variables": [[["pos"], [0, 1, 2, 3]]]},
                "domain has a malformed 'variables': [[['pos'], [0, 1, 2, 3]]]",
            ),
            # a value outside its variable's declared domain, which the
            # PDDL export would write as a predicate it never declares
            (
                {"actions": ["fwd"], "variables": [["p", [0, 1]], ["q", [0, 1]]],
                 "states": [[0, 7], [1, 7]], "transitions": []},
                "state 0 gives 'q' the value 7, outside its domain [0, 1]",
            ),
            # ``true`` equals 1, which the domain holds, but is not a number
            (
                {**CHAIN_DOMAIN, "states": [[0], [2], [True]],
                 "transitions": [[0, "fwd", 1]]},
                "state 2 gives 'pos' the value True, outside its domain [0, 1, 2, 3]",
            ),
            (
                {**CHAIN_DOMAIN, "states": [[0], [1.0], [2], [3]]},
                "state 1 gives 'pos' the value 1.0, outside its domain [0, 1, 2, 3]",
            ),
            # a reward that is no number would reach every plan's value
            (
                {**CHAIN_DOMAIN, "transitions": [[0, "fwd", 1], [1, "fwd", 2, float("nan")]]},
                "transition (1, 'fwd') has reward nan, not finite",
            ),
            (
                {**CHAIN_DOMAIN, "transitions": [[0, "fwd", 1, float("-inf")]]},
                "transition (0, 'fwd') has reward -inf, not finite",
            ),
            # a state count too large for the per-state tables, rejected
            # before any of them is made, and counts no int can hold
            (
                {"actions": ["fwd"], "num_states": 10 ** 12, "transitions": [[0, "fwd", 1]]},
                f"domain has 1000000000000 states, more than {MAX_STATES}",
            ),
            (
                {"actions": ["fwd"], "num_states": MAX_STATES + 1, "transitions": []},
                f"domain has {MAX_STATES + 1} states, more than {MAX_STATES}",
            ),
            (
                {"actions": ["fwd"], "num_states": float("inf"), "transitions": []},
                "domain has a malformed 'num_states': inf",
            ),
            (
                {"actions": ["fwd"], "num_states": 3, "transitions": [[float("inf"), "fwd", 1]]},
                "transition [inf, 'fwd', 1] is not [state, action, state(, reward)]",
            ),
        ],
    )
    def test_malformed_domain_rejected(self, domain, message):
        with pytest.raises(MalformedInput, match=re.escape(message)):
            load_domain(domain)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda path: None, "No such file or directory"),
            (lambda path: path.mkdir(), "Is a directory"),
            (lambda path: path.write_bytes(b'{"name": "caf\xe9"}'), "can't decode byte 0xe9"),
        ],
        ids=["missing", "directory", "not-utf8"],
    )
    def test_unreadable_file_rejected(self, tmp_path, make, message):
        """A path that is no readable UTF-8 file is MalformedInput naming
        the path, for domains and queries alike."""
        path = tmp_path / "domain.json"
        make(path)
        for load in (load_domain, lambda p: load_query(None, p)):
            with pytest.raises(MalformedInput, match=re.escape(f"cannot read {path}: ")) as got:
                load(str(path))
            assert message in str(got.value)

    @pytest.mark.parametrize(
        "query, message",
        [
            ({"B": 5, "G": {"pos": 3}}, "query has a malformed 'B': 5"),
            ({"B": {"pos": 0}, "G": [3]}, "query has a malformed 'G': [3]"),
            ([1, 2], "[1, 2] does not hold a JSON object"),
            (
                {"B": {"states": 5}, "G": {"pos": 3}},
                "'states' must list state ids in 0..3, got 5",
            ),
            (
                {"B": {"states": [9999]}, "G": {"pos": 3}},
                "'states' must list state ids in 0..3, got [9999]",
            ),
            (
                {"B": {"pos": [0, 1], "except": [0, 99]}, "G": {"pos": 3}},
                "'except' must list state ids in 0..3, got [0, 99]",
            ),
            (
                {"B": {"except": {"except": [-1]}}, "G": {"pos": 3}},
                "'except' must list state ids in 0..3, got [-1]",
            ),
        ],
    )
    def test_malformed_query_rejected(self, chain_file, query, message):
        mdp, _ = load_domain(chain_file)
        with pytest.raises(MalformedInput, match=re.escape(message)):
            load_query(mdp, query)

    def test_chain_hierarchy_plans_at_level1(self, chain_file):
        mdp, option_sets = load_domain(chain_file)
        h = build_hierarchy(mdp, [option_sets["level1"]])
        # plan-graph nodes ground to the options' effect states, so a
        # level-1 match needs starts covered by {2} or {3}
        q = load_query(mdp, {"B": {"pos": 2}, "G": {"pos": 3}})
        answer = answer_query(h, q)
        assert answer.level_index == 1
        wide = load_query(mdp, {"B": {"pos": [0, 1, 2]}, "G": {"pos": 3}})
        assert answer_query(h, wide).level_index == 0


class TestOptionSetSpec:
    def test_load_domain_keeps_sets_unresolved(self):
        _, option_sets = load_domain(STACKED_CHAIN)
        assert option_sets["level1"] == OptionSetSpec(
            options=(
                OptionSpec("to-mid", [0, 1], {"pos": 2}),
                OptionSpec("to-end", {"except": {"pos": 3}}, [3]),
            ),
            seeds=[0],
        )
        assert option_sets["level2"] == OptionSetSpec((OptionSpec("finish", [0], [1]),))

    def test_policies_given_in_the_file_are_kept(self):
        """``skip`` reaches the termination state in one step, so only a
        policy taken from the file walks ``fwd`` twice."""
        mdp, option_sets = load_domain({
            "actions": ["fwd", "skip"],
            "num_states": 3,
            "transitions": [[0, "fwd", 1], [1, "fwd", 2], [0, "skip", 2]],
            "options": {"l1": [
                {"name": "given", "initiation": [0], "termination": [2],
                 "policy": {"0": "fwd", "1": "fwd"}},
                {"name": "planned", "initiation": [0], "termination": [2]},
            ]},
        })
        given, planned = build_hierarchy(mdp, [option_sets["l1"]]).option_sets[0]
        assert dict(given.policy) == {0: "fwd", 1: "fwd"}
        assert dict(planned.policy) == {0: "skip", 1: "fwd"}

    def test_two_levels_from_one_file_with_planned_policies(self):
        mdp, option_sets = load_domain(STACKED_CHAIN)
        h = build_hierarchy(mdp, [option_sets["level1"], option_sets["level2"]])
        assert [h.num_states(j) for j in range(3)] == [4, 2, 1]
        assert h.validate() == []
        to_mid, to_end = h.option_sets[0]
        # planned over the whole backward closure of each termination set
        assert dict(to_mid.policy) == {0: "fwd", 1: "fwd"}
        assert dict(to_end.policy) == {0: "fwd", 1: "fwd", 2: "fwd"}
        assert dict(h.option_sets[1][0].policy) == {0: "to-end"}
        q = PlanQuery(GroundingSet.of(0, {2}), GroundingSet.of(0, {3}))
        assert answer_query(h, q).level_index == 1

    @pytest.mark.parametrize(
        "spec, members",
        [
            ({}, {0, 1, 2, 3}),
            ({"except": {"pos": 3}}, {0, 1, 2}),
            ({"pos": [1, 2, 3], "except": [2]}, {1, 3}),
            ({"states": [0, 3], "except": {"except": {"pos": 0}}}, {0}),
            ([2, 0], {0, 2}),
        ],
    )
    def test_expand_generic_sets(self, spec, members):
        mdp, _ = load_domain(CHAIN_DOMAIN)
        assert set(expand_generic(mdp, spec)) == members

    def test_sets_resolve_at_the_level_they_run_over(self):
        mdp, option_sets = load_domain(STACKED_CHAIN)
        level = build_hierarchy(mdp, [option_sets["level1"]]).level(1)
        assert expand_generic(level, {}) == GroundingSet.of(1, {0, 1})
        assert expand_generic(level, {"except": [0]}) == GroundingSet.of(1, {1})
        assert expand_generic(level, {"states": [1]}) == GroundingSet.of(1, {1})
        with pytest.raises(MalformedInput, match=re.escape("in 0..1, got [2]")):
            expand_generic(level, {"states": [2]})

    @pytest.mark.parametrize(
        "sets, message",
        [
            ({"l1": {"seeds": "x", "options": []}},
             "option set 'l1' has a malformed 'seeds': 'x'"),
            ({"l1": {"seeds": [0]}}, "option set 'l1' has no 'options' key"),
            ({"l1": {"options": 5}}, "option set 'l1' has a malformed 'options': 5"),
            ({"l1": {"options": [5]}},
             "the 'options' object has a malformed 'l1': {'options': [5]}"),
            ({"l1": [{"name": "o", "initiation": 0, "termination": [1]}]},
             "an option of set 'l1' has a malformed 'initiation': 0"),
            ({"l1": [{"name": "o", "initiation": [0], "termination": [True]}]},
             "an option of set 'l1' has a malformed 'termination': [True]"),
        ],
    )
    def test_malformed_option_set_rejected(self, sets, message):
        with pytest.raises(MalformedInput, match=re.escape(message)):
            load_domain({**CHAIN_DOMAIN, "options": sets})

    @pytest.mark.parametrize(
        "option, message",
        [
            ({"initiation": {"except": 5}, "termination": [3]},
             "a constraint object has a malformed 'except': 5"),
            ({"initiation": [0, 9], "termination": [3]},
             "option 'o' names state 9, outside level 0's 4 states"),
            ({"initiation": [3], "termination": [0]},
             "option 'o': some initiation state cannot reach termination"),
            ({"initiation": {"except": {}}, "termination": [0]},
             "option 'o' has an empty initiation set"),
            ({"initiation": {"except": [3, 99]}, "termination": [3]},
             "'except' must list state ids in 0..3, got [3, 99]"),
        ],
    )
    def test_bad_planned_option_rejected(self, option, message):
        mdp, option_sets = load_domain(
            {**CHAIN_DOMAIN, "options": {"l1": [{"name": "o", **option}]}}
        )
        with pytest.raises(MalformedInput, match=re.escape(message)):
            build_hierarchy(mdp, [option_sets["l1"]])


class TestTaxiDomainFile:
    """The taxi written out as a domain file, both option sets as sets
    with seeds and no policies, builds the built-in hierarchy."""

    @pytest.mark.parametrize("mode", list(RewardMode), ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "layout", [DEFAULT_LAYOUT, OPEN_8X8], ids=["taxi5", "taxi8-open"]
    )
    def test_build_matches_built_in_hierarchy(self, tmp_path, layout, mode):
        domain = tmp_path / "taxi.json"
        domain.write_text(json.dumps(taxi_domain(layout)))
        out = tmp_path / "snapshot.json"
        result = CliRunner().invoke(cli, [
            "build", "--domain-file", str(domain), "--option-set", "level1",
            "--option-set", "level2", "--reward-mode", mode.value, "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert out.read_text() == build_taxi_hierarchy(layout, reward_mode=mode).to_json()

    @pytest.mark.parametrize("level", [1, 2])
    def test_pddl_matches_goldens(self, tmp_path, level):
        domain = tmp_path / "taxi.json"
        domain.write_text(json.dumps(taxi_domain(DEFAULT_LAYOUT)))
        result = CliRunner().invoke(cli, [
            "export-pddl", "--domain-file", str(domain), "--option-set", "level1",
            "--option-set", "level2", "--level", str(level), "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        for kind in ("domain", "problem"):
            golden = GOLDEN_DIR / f"taxi_level{level}_{kind}.pddl"
            assert (tmp_path / f"{kind}.pddl").read_text() == golden.read_text()


class TestCLI:
    def test_build_taxi_snapshot(self):
        runner = CliRunner()
        result = runner.invoke(cli, ["build"])
        assert result.exit_code == 0, result.output
        snapshot = json.loads(result.output[: result.output.rindex("}") + 1])
        assert snapshot["num_levels"] == 2
        assert [lvl["num_states"] for lvl in snapshot["levels"]] == [650, 20, 4]

    def test_build_writes_snapshot_file(self, tmp_path):
        out = tmp_path / "snapshot.json"
        runner = CliRunner()
        result = runner.invoke(cli, ["build", "--out", str(out)])
        assert result.exit_code == 0, result.output
        snapshot = json.loads(out.read_text())
        assert snapshot["levels"][1]["construction"] == "factored"

    def test_plan_q1_exits_zero_at_level2(self, tmp_path):
        query = tmp_path / "q1.json"
        query.write_text(
            json.dumps(
                {
                    "B": {"pass-at": "blue", "taxi-at": "any-depot", "in-taxi": False},
                    "G": {"pass-at": "red"},
                }
            )
        )
        runner = CliRunner()
        result = runner.invoke(cli, ["plan", "--query-file", str(query)])
        assert result.exit_code == 0, result.output
        assert "solution level: 2" in result.output
        assert "passenger-to-red" in result.output

    def test_plan_inline_constraints_with_refinement(self):
        runner = CliRunner()
        result = runner.invoke(
            cli,
            [
                "plan",
                "--B", '{"pass-at": "blue", "taxi-at": "red", "in-taxi": false}',
                "--G", '{"pass-at": "green"}',
                "--refine-from", "115",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "refined from base state 115" in result.output

    def test_plan_value_iteration_mode(self):
        runner = CliRunner()
        result = runner.invoke(
            cli,
            [
                "plan",
                "--B", '{"pass-at": "blue", "taxi-at": "any-depot", "in-taxi": false}',
                "--G", '{"pass-at": "red"}',
                "--mode", "value-iteration",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "solution level: 2" in result.output

    def test_plan_at_level_flag(self):
        runner = CliRunner()
        result = runner.invoke(
            cli,
            [
                "plan",
                "--B", '{"pass-at": "blue", "taxi-at": "any-depot", "in-taxi": false}',
                "--G", '{"pass-at": "red"}',
                "--at-level", "1",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "solution level: 1" in result.output

    def test_plan_unsolvable_exits_two(self, tmp_path):
        domain = dict(CHAIN_DOMAIN)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(domain))
        query = tmp_path / "impossible.json"
        query.write_text(json.dumps({"B": {"pos": 3}, "G": {"pos": 0}}))
        runner = CliRunner()
        result = runner.invoke(
            cli,
            ["plan", "--domain-file", str(path), "--query-file", str(query)],
        )
        assert result.exit_code == 2, result.output
        assert "no plan" in result.output

    def test_plan_on_file_domain_with_options(self, chain_file, tmp_path):
        query = tmp_path / "q.json"
        query.write_text(json.dumps({"B": {"pos": 2}, "G": {"pos": 3}}))
        runner = CliRunner()
        result = runner.invoke(
            cli,
            [
                "plan",
                "--domain-file", chain_file,
                "--option-set", "level1",
                "--query-file", str(query),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "solution level: 1" in result.output

    def test_bench_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        runner = CliRunner()
        result = runner.invoke(
            cli, ["bench", "--reps", "2", "--out-file", str(out)]
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "query,level,match_ms,plan_ms,hier_ms,options_ms,flat_ms"
        assert len(lines) == 4

    def test_bench_zero_reps_prints_one_error_line(self):
        runner = CliRunner()
        result = runner.invoke(cli, ["bench", "--reps", "0"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert lines == ["error: repetitions must be >= 1, got 0"], result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (["build", "--domain-file", "{chain}", "--option-set", "x"],
             "error: domain file defines no option set 'x'"),
            (["plan", "--B", '{"pass-at": "red"}'],
             "error: need --query-file or both --B and --G"),
            # checked before the hierarchy is built: the file has no set l1
            (["plan", "--domain-file", "{chain}", "--option-set", "l1"],
             "error: need --query-file or both --B and --G"),
            (["bench", "--domain-file", "{chain}"],
             "error: bench runs the built-in taxi queries"),
        ],
        ids=["unknown-option-set", "no-query", "no-query-unbuildable", "bench-domain-file"],
    )
    def test_usage_error_prints_one_error_line(self, chain_file, args, message):
        result = CliRunner().invoke(cli, [a.replace("{chain}", chain_file) for a in args])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [message], result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["build"],
            ["plan", "--B", '{"pass-at": "blue"}', "--G", '{"pass-at": "red"}'],
            ["bench", "--reps", "1"],
            ["export-pddl", "--level", "1"],
        ],
        ids=["build", "plan", "bench", "export-pddl"],
    )
    def test_option_set_without_domain_file_prints_one_error_line(self, args):
        """The built-in taxi has no named option sets, so naming one is an
        error, not an option silently ignored."""
        result = CliRunner().invoke(cli, args + ["--option-set", "l1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            "error: --option-set needs --domain-file"
        ], result.output

    def test_export_pddl_writes_files(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            cli, ["export-pddl", "--level", "1", "--out-dir", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        domain = (tmp_path / "domain.pddl").read_text()
        problem = (tmp_path / "problem.pddl").read_text()
        assert domain.startswith("(define (domain")
        assert problem.startswith("(define (problem")

    def test_export_pddl_bad_level_exits_one(self):
        runner = CliRunner()
        result = runner.invoke(cli, ["export-pddl", "--level", "9"])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "b_spec, message",
        [
            ('{"pass-at": "purple"}', "error: unknown depot 'purple'"),
            ('{"colour": 1}', "error: unknown variable 'colour'"),
            ("5", "error: --B is not a JSON object: 5"),
            (
                '{"pass-at": 5}',
                "error: 'pass-at' must be a depot name or an [x, y] cell, got 5",
            ),
            (
                '{"states": 5}',
                "error: 'states' must list state ids in 0..649, got 5",
            ),
            (
                '{"states": [9999]}',
                "error: 'states' must list state ids in 0..649, got [9999]",
            ),
            (
                '{"taxi-at": "red", "pass-at": "red", "in-taxi": "false"}',
                "error: 'in-taxi' must be true or false, got 'false'",
            ),
            ('{"in-taxi": null}', "error: 'in-taxi' must be true or false, got None"),
            ('{"except": 5}', "error: a constraint object has a malformed 'except': 5"),
            (
                '{"except": [9999], "pass-at": "blue", "taxi-at": "red", "in-taxi": false}',
                "error: 'except' must list state ids in 0..649, got [9999]",
            ),
        ],
    )
    def test_plan_unknown_name_prints_one_error_line(self, b_spec, message):
        runner = CliRunner()
        result = runner.invoke(
            cli, ["plan", "--B", b_spec, "--G", '{"pass-at": "red"}']
        )
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message), result.output

    def test_plan_query_file_constraint_not_object_prints_one_error_line(
        self, tmp_path
    ):
        query = tmp_path / "q.json"
        query.write_text(json.dumps({"B": 5, "G": {"pass-at": "red"}}))
        runner = CliRunner()
        result = runner.invoke(cli, ["plan", "--query-file", str(query)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert lines == ["error: query has a malformed 'B': 5"], result.output

    def test_plan_malformed_json_prints_one_error_line(self):
        runner = CliRunner()
        result = runner.invoke(cli, ["plan", "--B", "{bad", "--G", "{}"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --B is not valid JSON")

    @pytest.mark.parametrize(
        "domain_patch, option_patch, message",
        [
            ({"transitions": [[0, "fwd", 9]]}, {},
             "error: transition (0, 'fwd') -> 9 leaves the space"),
            ({"transitions": [[0, "fwd"]]}, {}, "error: transition [0, 'fwd'] is not"),
            ({}, {"initiation": []},
             "error: option 'to-one' has an empty initiation set"),
            ({"num_states": "three"}, {},
             "error: domain has a malformed 'num_states': 'three'"),
            ({}, {"initiation": ["a"]},
             "error: an option of set 'l1' has a malformed 'initiation': ['a']"),
            ({}, {"policy": {"zero": "fwd"}},
             "error: an option of set 'l1' has a malformed 'policy': {'zero': 'fwd'}"),
            ({"variables": [["pos", [0, 1, 2]]], "states": [0, 1]}, {},
             "error: domain has a malformed 'states': [0, 1]"),
            ({"options": []}, {}, "error: domain has a malformed 'options': []"),
            ({"options": {"l1": 5}}, {},
             "error: the 'options' object has a malformed 'l1': 5"),
            ({"options": {"l1": [5]}}, {},
             "error: the 'options' object has a malformed 'l1': [5]"),
            ({"transitions": 5}, {}, "error: domain has a malformed 'transitions': 5"),
            ({}, {"initiation": [0, 7], "termination": [1, 7]},
             "error: option 'to-one' names state 7, outside level 0's 3 states"),
            ({"variables": [["pos", [0, 1, 2]]], "states": [[0], [1], [2]]},
             {"initiation": [0, 7], "termination": [1, 7]},
             "error: option 'to-one' names state 7, outside level 0's 3 states"),
            ({"options": {"l1": {"seeds": [0, 99], "options": [
                {"name": "to-one", "initiation": [0], "termination": [1]}]}}}, {},
             "error: seed state 99 outside level 0"),
            # ids as high as these are checked before a set that wide is built
            ({}, {"initiation": [0, 10 ** 12]},
             "error: option 'to-one' names state 1000000000000, outside level 0's 3 states"),
            ({"options": {"l1": {"seeds": [10 ** 12], "options": [
                {"name": "to-one", "initiation": [0], "termination": [1]}]}}}, {},
             "error: seed state 1000000000000 outside level 0"),
            ({"transitions": [[0, "fwd", 1, float("nan")]]}, {},
             "error: transition (0, 'fwd') has reward nan, not finite"),
            ({"num_states": 10 ** 12}, {},
             f"error: domain has 1000000000000 states, more than {MAX_STATES}"),
        ],
        ids=["target-outside", "short-entry", "empty-initiation", "num-states-text",
             "initiation-text", "policy-key-text", "factored-states-flat",
             "options-list", "option-set-number", "option-entry-number",
             "transitions-number", "option-state-outside",
             "factored-option-state-outside", "seed-outside", "option-state-huge",
             "seed-huge", "reward-nan", "num-states-huge"],
    )
    def test_bad_domain_input_prints_one_error_line(
        self, tmp_path, domain_patch, option_patch, message
    ):
        option = {"name": "to-one", "initiation": [0], "termination": [1],
                  "policy": {"0": "fwd"}, **option_patch}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "actions": ["fwd"], "num_states": 3, "transitions": [[0, "fwd", 1]],
            "options": {"l1": [option]}, **domain_patch,
        }))
        runner = CliRunner()
        result = runner.invoke(
            cli, ["build", "--domain-file", str(path), "--option-set", "l1"]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message), result.output

    @pytest.mark.parametrize(
        "level2, message",
        [
            ({"initiation": [0, 5], "termination": [1]},
             "error: option 'finish' names state 5, outside level 1's 2 states"),
            ({"initiation": {"pos": 0}, "termination": [1]},
             "error: unknown variable 'pos'"),
        ],
        ids=["id-outside-level1", "variable-of-level0"],
    )
    def test_bad_level2_set_prints_one_error_line(self, tmp_path, level2, message):
        options = {**STACKED_CHAIN["options"], "level2": [{"name": "finish", **level2}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**STACKED_CHAIN, "options": options}))
        result = CliRunner().invoke(cli, [
            "build", "--domain-file", str(path),
            "--option-set", "level1", "--option-set", "level2",
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [message], result.output

    def test_plan_empty_start_set_prints_one_error_line(self):
        runner = CliRunner()
        result = runner.invoke(
            cli, ["plan", "--B", '{"states": []}', "--G", '{"pass-at": "red"}']
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "error: plan queries need non-empty start and goal sets"
        ), result.output

    @pytest.mark.parametrize("command", ["build", "plan"])
    @pytest.mark.parametrize(
        "make", [lambda path: path.mkdir(), lambda path: path.write_bytes(b"\xff{}")],
        ids=["directory", "not-utf8"],
    )
    def test_unreadable_file_prints_one_error_line(self, tmp_path, command, make):
        path = tmp_path / "input.json"
        make(path)
        flag = "--domain-file" if command == "build" else "--query-file"
        result = CliRunner().invoke(cli, [command, flag, str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {path}: ")

    def test_domain_file_not_json_prints_one_error_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"actions": ["fwd"],')
        result = CliRunner().invoke(cli, ["build", "--domain-file", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1, result.output
        assert lines[0].startswith(f"error: {path} is not valid JSON: "), result.output

    def test_build_prints_each_violation_and_exits_one(self, monkeypatch):
        found = [
            Violation(1, "image", "part p from lower state 3 ends at 4"),
            Violation(2, "empty-grounding", "state 0"),
        ]
        monkeypatch.setattr(Hierarchy, "validate", lambda self: found)
        result = CliRunner().invoke(cli, ["build"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines() == [
            "[level 1] image: part p from lower state 3 ends at 4",
            "[level 2] empty-grounding: state 0",
        ]
        assert json.loads(result.stdout)["num_levels"] == 2

    @pytest.mark.parametrize(
        "domain, message",
        [
            ({"actions": ["fwd"], "num_states": 2}, "error: domain has no 'transitions'"),
            (
                {"actions": ["fwd"], "num_states": 2,
                 "transitions": [[0, "fwd", 1], [0, "fwd", 0]]},
                "error: transition (0, 'fwd') given twice",
            ),
            ([1, 2], "error: {path} does not hold a JSON object"),
        ],
    )
    def test_malformed_domain_file_prints_one_error_line(
        self, tmp_path, domain, message
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(domain))
        runner = CliRunner()
        result = runner.invoke(cli, ["build", "--domain-file", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1, result.output
        assert lines[0].startswith(message.format(path=path)), result.output


# ---------------------------------------------------------------------------
# loader fuzz: one JSON node of a domain or query file replaced by a bad value
# ---------------------------------------------------------------------------

CHAIN_QUERY = {"B": {"pos": [0, 1]}, "G": {"states": [3]}}

FUZZ_DOCUMENTS = {"chain": CHAIN_DOMAIN, "stacked": STACKED_CHAIN, "query": CHAIN_QUERY}

# JSON values of every type, ids inside and outside the chain, huge ids
# bare and in a list, and constraint objects naming a state, a variable
# or an except set
BAD_VALUES = [
    None, True, False, 0, -1, 1, 3, 99, 10 ** 12, 2.5, "", "x", "fwd",
    [], [0], [-1], [99], [10 ** 12], [[0]], ["x"], [0, "fwd", 1],
    {}, {"pos": 9}, {"states": [99]}, {"except": 5}, {"x": 1},
]


def json_paths(node, path=()):
    """The path of ``node`` and of every node inside it, keys and indices."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from json_paths(child, path + (key,))


FUZZ_CASES = [
    (doc, path) for doc, document in FUZZ_DOCUMENTS.items() for path in json_paths(document)
]


def replaced(document, path, value):
    """A copy of ``document`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    out = json.loads(json.dumps(document))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def typed(f, *args, **kwargs):
    """``f``'s result, or None when it raises a HierplanError; any other
    exception fails the test."""
    try:
        return f(*args, **kwargs)
    except HierplanError:
        return None


def run_library(domain, query):
    """Load, build, validate, serialize, export every abstract level, then
    answer the query in both plan modes and refine each answer from every
    start. Each step may raise only a HierplanError; one that does skips
    the steps that need its result. Returns the hierarchy and the query,
    each None when it could not be made."""
    loaded = typed(load_domain, domain)
    if loaded is None:
        return None, None
    mdp, named = loaded
    h = typed(build_hierarchy, mdp, list(named.values()))
    q = typed(load_query, mdp, query)
    if h is None:
        return None, q
    typed(h.validate)
    typed(h.to_json)
    for j in range(1, h.num_levels + 1):
        typed(export_pddl, h, j)
    for mode in ("reachability", "value-iteration"):
        answer = q and typed(answer_query, h, q, plan_mode=mode)
        for s in q.starts if answer else ():
            typed(refine, h, answer.plan, s)
    return h, q


def assert_cli_reports(args, failed: bool) -> None:
    """The CLI ends without a traceback; when it reports an error, or the
    library could not make what it reads (``failed``), it exits 1 with one
    error line."""
    result = CliRunner().invoke(cli, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        result.output
    )
    lines = result.output.splitlines()
    if failed or any(line.startswith("error: ") for line in lines):
        assert result.exit_code == 1, result.output
        assert len(lines) == 1 and lines[0].startswith("error: "), result.output


class TestLoaderFuzz:
    # the three files hold 128 nodes, so 26 bad values give 3,328 cases,
    # each a few milliseconds; 300 examples keep this test near a second
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FUZZ_CASES), st.sampled_from(BAD_VALUES))
    def test_bad_node_raises_only_typed_errors(self, case, value):
        doc, path = case
        mutated = replaced(FUZZ_DOCUMENTS[doc], path, value)
        original = STACKED_CHAIN if doc == "query" else FUZZ_DOCUMENTS[doc]
        domain, query = (original, mutated) if doc == "query" else (mutated, CHAIN_QUERY)
        h, q = run_library(domain, query)
        sets = [a for name in original["options"] for a in ("--option-set", name)]
        with tempfile.TemporaryDirectory() as tmp:
            domain_file, query_file = Path(tmp, "domain.json"), Path(tmp, "query.json")
            domain_file.write_text(json.dumps(domain))
            query_file.write_text(json.dumps(query))
            if doc == "query":
                args = ["plan", "--query-file", str(query_file)]
            else:
                args = ["build", "--out", str(Path(tmp, "snapshot.json"))]
            args += ["--domain-file", str(domain_file), *sets]
            assert_cli_reports(args, q is None if doc == "query" else h is None)
