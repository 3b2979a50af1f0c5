from __future__ import annotations

import copy
import io
import json
import os
import random
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLEANER_WORLD, GOLDEN_DIR, REPO_ROOT, bench_gen, random_general_af
from goalarg import load_scenario, run_pipeline, selection
from goalarg.cli import main


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def write_scenario(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


DIRECT_DOC = {
    "goals": [
        {"id": "a", "predicate": "alpha()", "preference": 0.9},
        {"id": "b", "predicate": "beta()", "preference": 0.4},
    ],
    "goal_attacks": [
        {"from": "a", "to": "b", "kinds": ["r"]},
        {"from": "b", "to": "a", "kinds": ["r"]},
    ],
}


def test_validate_ok(run):
    code, out, err = run("validate", CLEANER_WORLD)
    assert code == 0
    assert out.strip() == "ok"
    assert err == ""


def test_validate_reports_dangling_attack(run, tmp_path):
    doc = json.loads(CLEANER_WORLD.read_text())
    doc["attacks"].append({"from": "A", "to": "Z", "kinds": ["t"]})
    path = write_scenario(tmp_path, doc)
    code, _out, err = run("validate", path)
    assert code == 1
    assert "Z" in err


def test_select_text_output(run):
    code, out, _ = run("select", CLEANER_WORLD)
    assert code == 0
    assert out.splitlines() == [
        "pursued: {g1, g3, g5}",
        "utility: 2.4",
        "conflict-free sets: 14",
    ]


def test_select_json_output(run):
    code, out, _ = run("select", CLEANER_WORLD, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pursued"] == ["g1", "g3", "g5"]
    assert payload["conflict_free_count"] == 14
    assert payload["utility"] == "2.4"


TIED_DOC = {
    "goals": [
        {"id": "a", "predicate": "alpha()", "preference": 0.5},
        {"id": "b", "predicate": "beta()", "preference": 0.5},
        {"id": "c", "predicate": "gamma()", "preference": 0.25},
    ],
    "goal_attacks": [{"from": "a", "to": "b", "kinds": ["t"]}],
}


@pytest.mark.parametrize("doc", [json.loads(CLEANER_WORLD.read_text()), TIED_DOC],
                         ids=["cleaner-world", "tied-maxima"])
def test_select_json_is_the_report_selection(run, tmp_path, doc):
    path = write_scenario(tmp_path, doc)
    code, out, _ = run("select", path, "--format", "json")
    assert code == 0
    code, report, _ = run("report", path)
    assert code == 0
    assert json.loads(out) == json.loads(report)["selection"]


def test_select_all_extensions_flag(run):
    code, out, _ = run("select", CLEANER_WORLD, "--all-extensions")
    assert code == 0
    assert "maximal extensions:" in out
    assert "  {g1, g3, g5}" in out


def test_select_reports_ties(run, tmp_path):
    doc = {
        "goals": [
            {"id": "a", "predicate": "alpha()", "preference": 0.5},
            {"id": "b", "predicate": "beta()", "preference": 0.5},
        ],
        "goal_attacks": [{"from": "a", "to": "b", "kinds": ["t"]}],
    }
    code, out, _ = run("select", write_scenario(tmp_path, doc))
    assert code == 0
    assert "pursued: {a}" in out
    assert "ties: 2 extensions reach the maximum" in out


def test_beliefs_text(run):
    code, out, _ = run("beliefs", CLEANER_WORLD)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 18
    assert lines[0] == "b1: ¬incomp(g5)  [no-conflicts]"


def test_beliefs_json_reparses(run):
    code, out, _ = run("beliefs", CLEANER_WORLD, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [b["id"] for b in payload] == [f"b{i}" for i in range(1, 19)]
    assert payload[0]["kind"] == "not_incomp"


def test_explain_why_not_g4_sentences(run):
    code, out, _ = run("explain", "why-not", "g4", CLEANER_WORLD)
    assert code == 0
    golden = (GOLDEN_DIR / "cleaner_world_sentences.txt").read_text().splitlines()
    start = golden.index("# why-not g4") + 1
    expected = golden[start:start + 4]
    assert out.splitlines() == expected


def test_explain_wrong_direction(run):
    code, _out, err = run("explain", "why", "g4", CLEANER_WORLD)
    assert code == 1
    assert "why-not g4" in err


def test_explain_unknown_goal(run):
    code, _out, err = run("explain", "why", "g9", CLEANER_WORLD)
    assert code == 1
    assert "g9" in err


def test_explain_structured_reparses(run):
    code, out, _ = run(
        "explain", "why-not", "g2", CLEANER_WORLD, "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["goal"] == "g2"
    assert payload["query"] == "why-not"
    assert payload["kind"] == "partial"
    assert payload["semantics"] == "grounded"
    assert len(payload["arguments"]) == 3
    assert len(payload["extensions"]) == 1
    assert len(payload["sentences"]) == 2
    assert sorted(payload["defeats"]) == [["A13", "A3"], ["A3", "A8"], ["A8", "A3"]]


def test_explain_complete_text_is_an_error(run):
    code, _out, err = run("explain", "why-not", "g2", CLEANER_WORLD, "--complete")
    assert code == 1
    assert "graph" in err


def test_explain_complete_dot(run):
    code, out, _ = run(
        "explain", "why-not", "g2", CLEANER_WORLD, "--complete", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph {")
    assert out.count(" -> ") == 3


def test_explain_complete_structured(run):
    code, out, _ = run(
        "explain", "why-not", "g2", CLEANER_WORLD, "--complete", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "complete"
    assert "sentences" not in payload


def test_explain_semantics_flag(run):
    code, out, _ = run(
        "explain", "why", "g1", CLEANER_WORLD, "--semantics", "preferred"
    )
    assert code == 0
    assert len(out.splitlines()) == 2  # same two sentences under preferred


def test_report_matches_golden_file(run):
    code, out, _ = run("report", CLEANER_WORLD)
    assert code == 0
    assert out == (GOLDEN_DIR / "cleaner_world_report.json").read_text()


def test_report_is_byte_stable(run):
    _code, first, _ = run("report", CLEANER_WORLD)
    _code, second, _ = run("report", CLEANER_WORLD)
    assert first == second


def test_report_reparses(run):
    _code, out, _ = run("report", CLEANER_WORLD)
    payload = json.loads(out)
    assert set(payload) == {
        "arguments", "beliefs", "config", "explanatory_frameworks",
        "goal_af", "goals", "rule_instances", "selection",
    }
    assert payload["explanatory_frameworks"]["g2"]["extensions"] == [["A8", "A13"]]


def reverse_lists(value):
    """The document with every list in it reversed, at every depth."""
    if isinstance(value, list):
        return [reverse_lists(v) for v in reversed(value)]
    if isinstance(value, dict):
        return {k: reverse_lists(v) for k, v in value.items()}
    return value


GOAL_LEVEL_DOC = {
    "goals": [
        {"id": "a", "predicate": "alpha()", "preference": 0.9},
        {"id": "b", "predicate": "beta()", "preference": 0.4},
        {"id": "c", "predicate": "gamma()", "preference": 0.4},
        {"id": "d", "predicate": "delta()", "preference": "1/3"},
    ],
    "goal_attacks": [
        {"from": "a", "to": "b", "kinds": ["r", "t"]},
        {"from": "b", "to": "c", "kinds": ["s"]},
        {"from": "c", "to": "b", "kinds": ["s"]},
        {"from": "d", "to": "c", "kinds": ["t"]},
    ],
}


@pytest.mark.parametrize("doc", [json.loads(CLEANER_WORLD.read_text()), GOAL_LEVEL_DOC],
                         ids=["cleaner-world", "goal-level"])
def test_reordering_a_document_keeps_the_report_bytes(run, tmp_path, doc):
    code, expected, _ = run("report", write_scenario(tmp_path, doc))
    assert code == 0
    code, out, _ = run("report", write_scenario(tmp_path, reverse_lists(doc)))
    assert (code, out) == (0, expected)


def test_export_goal_stages(run):
    code, raw, _ = run("export", CLEANER_WORLD, "--dot", "goals-raw")
    assert code == 0
    assert raw.count(" -> ") == 8
    code, filtered, _ = run("export", CLEANER_WORLD, "--dot", "goals")
    assert code == 0
    assert filtered.count(" -> ") == 4


def test_export_general_stage(run):
    code, out, _ = run("export", CLEANER_WORLD, "--dot", "general")
    assert code == 0
    assert out.count(" -> ") == 28


@pytest.mark.parametrize("argv, golden", [
    (["--dot", "general"], "cleaner_world_general.dot"),
    (["--dot", "goals-raw"], "cleaner_world_goals-raw.dot"),
    (["--dot", "goals"], "cleaner_world_goals.dot"),
    (["--dot", "xaf", "--goal", "g4"], "cleaner_world_xaf_g4.dot"),
], ids=["general", "goals-raw", "goals", "xaf-g4"])
def test_export_matches_golden_files(run, argv, golden):
    code, out, err = run("export", CLEANER_WORLD, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / golden).read_text()


def test_export_xaf_requires_goal(run):
    code, _out, err = run("export", CLEANER_WORLD, "--dot", "xaf")
    assert code == 1
    assert "--goal" in err
    code, out, _ = run("export", CLEANER_WORLD, "--dot", "xaf", "--goal", "g2")
    assert code == 0
    assert out.count(" -> ") == 3
    code, _out, err = run("export", CLEANER_WORLD, "--dot", "xaf", "--goal", "g9")
    assert (code, err) == (1, "error: unknown goal 'g9'\n")


@pytest.mark.parametrize("stage", ["general", "goals-raw", "goals"])
@pytest.mark.parametrize("goal", ["g1", "g9", ""])
def test_export_refuses_goal_outside_xaf(run, stage, goal):
    code, out, err = run("export", CLEANER_WORLD, "--dot", stage, "--goal", goal)
    expected = f"error: --goal applies only to --dot xaf, not --dot {stage}\n"
    assert (code, out, err) == (1, "", expected)


@pytest.mark.parametrize("argv", [["--dot", "xaf"], ["--dot", "goals", "--goal", "g1"]],
                         ids=["xaf-without-goal", "goal-without-xaf"])
def test_export_usage_errors_come_before_the_pipeline(run, monkeypatch, argv):
    def forbidden(*args, **kwargs):
        raise AssertionError("export ran the pipeline before checking --goal")

    monkeypatch.setattr("goalarg.pipeline.run_pipeline", forbidden)
    code, out, err = run("export", CLEANER_WORLD, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "--goal" in err


def test_direct_goal_attack_path(run, tmp_path):
    path = write_scenario(tmp_path, DIRECT_DOC)
    code, out, _ = run("select", path)
    assert code == 0
    assert "pursued: {a}" in out
    code, out, _ = run("explain", "why-not", "b", path)
    assert code == 0
    assert out.splitlines() == [
        "alpha() and beta() have the following conflicts: 'r'. Since beta() is "
        "less preferable than alpha(), beta() did not become pursued.",
        "Since beta() did not belong to the set of goals that maximizes the "
        "utility, it did not become pursued.",
    ]


def test_export_general_on_goal_level_document(run, tmp_path):
    # A goal-level document is one plan per goal, each conflict both ways.
    doc = dict(DIRECT_DOC, goal_attacks=DIRECT_DOC["goal_attacks"][:1])
    code, out, err = run("export", write_scenario(tmp_path, doc), "--dot", "general")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "digraph {", '  "a";', '  "b";', '  "a" -> "b";', '  "b" -> "a";', "}",
    ]


def test_export_general_rejects_an_invalid_plan_graph(run, tmp_path):
    doc = {
        "goals": [{"id": "g1", "predicate": "one()", "preference": 0.5}],
        "arguments": [{"id": "A", "claim": "g9"}],
        "attacks": [],
    }
    code, out, err = run("export", write_scenario(tmp_path, doc), "--dot", "general")
    assert (code, out) == (1, "")
    assert err == (
        "error: validation failed: error at arguments[0] (A): "
        "claim references unknown goal 'g9'\n"
    )


def test_malformed_json_has_location(run, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"goals": [', encoding="utf-8")
    code, _out, err = run("validate", path)
    assert code == 1
    assert "broken.json:1" in err


def test_schema_errors_have_location(run, tmp_path):
    doc = {
        "goals": [{"id": "a", "predicate": "alpha()", "preference": 1.5}],
        "goal_attacks": [],
    }
    code, _out, err = run("validate", write_scenario(tmp_path, doc))
    assert code == 1
    assert "goals[0].preference" in err


def test_flags_override_scenario_config(run, tmp_path):
    doc = dict(DIRECT_DOC)
    doc["config"] = {"semantics": "stable"}
    path = write_scenario(tmp_path, doc)
    code, out, _ = run(
        "explain", "why", "a", path, "--semantics", "grounded", "--format", "structured"
    )
    assert code == 0
    assert json.loads(out)["semantics"] == "grounded"
    code, out, _ = run("explain", "why", "a", path, "--format", "structured")
    assert code == 0
    assert json.loads(out)["semantics"] == "stable"


def test_scenario_config_utility(run, tmp_path):
    doc = {
        "goals": [
            {"id": "a", "predicate": "alpha()", "preference": 0.3},
            {"id": "b", "predicate": "beta()", "preference": 0.9},
        ],
        "goal_attacks": [{"from": "a", "to": "b", "kinds": ["t"]}],
        "main_goals": ["a"],
        "config": {"utility": "sum_main"},
    }
    path = write_scenario(tmp_path, doc)
    code, out, _ = run("select", path)
    assert code == 0
    # only `a` counts toward utility, so it beats the higher-preference b
    assert "pursued: {a}" in out
    code, out, _ = run("select", path, "--utility", "sum_all")
    assert "pursued: {b}" in out



def cleaner_doc():
    return json.loads(CLEANER_WORLD.read_text())


def add_sub_arg_chain(doc, cyclic):
    """Add 1,500 plans for g1, each the sub-argument of the one before."""
    ids = [f"P{i}" for i in range(1500)]
    ends = [[ids[0]] if cyclic else []]
    for pid, subs in zip(ids, [[nxt] for nxt in ids[1:]] + ends):
        doc["arguments"].append({"id": pid, "claim": "g1", "sub_args": subs})


def with_literal(doc, literal):
    """The document text with goal g1's preference written as `literal`,
    which json.dumps cannot produce."""
    doc["goals"][0]["preference"] = "LITERAL"
    return json.dumps(doc).replace('"LITERAL"', literal)


def tiny_selected_preferences(doc):
    """g1 and g5 are both selected; each preference prints, but their sum
    has a denominator of about 7,200 digits."""
    doc["goals"][0]["preference"] = f"1/{3**8000}"
    doc["goals"][4]["preference"] = f"1/{7**4000}"


def lone_surrogate_goal(doc):
    """A goal id JSON can spell but no UTF-8 output can hold; the goal has
    no plans, so it would be pursued and printed."""
    doc["goals"].append({"id": "\ud800", "predicate": "idle()", "preference": 0.5})


def lone_surrogate_attack(doc):
    """An attack on an unknown plan whose id no UTF-8 output can hold;
    `validate` would print its missing reverse as a warning on stdout."""
    doc["attacks"].append({"from": "A", "to": "\ud800", "kinds": ["t"]})


def latin1_predicate(doc):
    """The document written in Latin-1, with a predicate UTF-8 cannot decode."""
    doc["goals"][0]["predicate"] = "g\xe9"
    return json.dumps(doc, ensure_ascii=False).encode("latin-1")


def goals_free_of_conflict(doc):
    """A goal-level document with a few more goals than the recursion limit
    and no conflict: selection would walk 2**n conflict-free sets."""
    goals = [{"id": f"g{i}", "predicate": f"task{i}()", "preference": 0.5}
             for i in range(sys.getrecursionlimit() + 20)]
    return json.dumps({"goals": goals, "goal_attacks": []})


@pytest.mark.parametrize(
    "command",
    [["validate"], ["select"], ["report"], ["export", "--dot", "goals"]],
    ids=["validate", "select", "report", "export-goals"],
)
@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(main_goals=[["x"]]),
        lambda d: d["arguments"][0].update(sub_args=[["x"]]),
        lambda d: d["goals"][0].update(preference="1e999999"),
        lambda d: d["goals"][0].update(preference="1e-5000"),
        lambda d: add_sub_arg_chain(d, cyclic=False),
        lambda d: add_sub_arg_chain(d, cyclic=True),
        lambda d: with_literal(d, "1" * 5000),
        tiny_selected_preferences,
        lambda d: d["goals"][0].update(preference="1e-9999999"),
        lambda d: with_literal(d, "1e-9999999"),
        lambda d: "[" * 100_000 + "]" * 100_000,
        lone_surrogate_goal,
        lone_surrogate_attack,
        latin1_predicate,
        lambda d: json.dumps(d).encode("utf-16"),
        goals_free_of_conflict,
    ],
    ids=["main-goal-list", "sub-arg-list", "pref-1e999999", "pref-1e-5000",
         "deep-chain", "deep-cycle", "pref-5000-digit-int", "pref-sum-7200-digits",
         "pref-1e-9999999", "pref-literal-1e-9999999", "nested-100000-deep",
         "lone-surrogate-id", "lone-surrogate-attack", "latin-1-file", "utf-16-file",
         "goals-free-of-conflict"],
)
def test_hostile_inputs_end_in_an_exit_code(run, tmp_path, command, mutate):
    doc = cleaner_doc()
    # A mutation returns the file's text, or its bytes, when json.dumps
    # of the document would not give them.
    text = mutate(doc)
    path = tmp_path / "scenario.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text or json.dumps(doc), encoding="utf-8")
    code, _out, err = run(*command, path)
    assert code in (0, 1)
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1


def clique_doc(n):
    goals = [
        {"id": f"g{i:02d}", "predicate": f"task{i}()", "preference": f"{i}/{n}"}
        for i in range(1, n + 1)
    ]
    attacks = [
        {"from": a["id"], "to": b["id"], "kinds": ["r"]}
        for i, a in enumerate(goals)
        for b in goals[i + 1:]
    ]
    return {"goals": goals, "goal_attacks": attacks}


def test_every_semantics_answers_a_large_clique_quickly(tmp_path):
    # A generic evaluation under complete or preferred would enumerate every
    # conflict-free set of each per-goal framework: 2^24 for g01 here.
    path = write_scenario(tmp_path, clique_doc(24))
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    outputs = {}
    for semantics in ("grounded", "complete", "preferred", "stable"):
        done = subprocess.run(
            [sys.executable, "-m", "goalarg.cli", "explain", "why-not", "g01",
             str(path), "--semantics", semantics],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert done.returncode == 0, done.stderr
        outputs[semantics] = done.stdout
    assert len(outputs["grounded"].splitlines()) == 24
    assert set(outputs.values()) == {outputs["grounded"]}


def chain_doc(n, linked):
    """n goals at one preference; with `linked`, goal i conflicts with goal
    i + 1, so the conflict graph is a path, and otherwise it has no edge."""
    goals = [{"id": f"g{i:04d}", "predicate": f"task{i}()", "preference": 0.5}
             for i in range(n)]
    attacks = [{"from": a["id"], "to": b["id"], "kinds": ["r"]}
               for a, b in zip(goals, goals[1:])] if linked else []
    return {"goals": goals, "goal_attacks": attacks}


def run_cli_subprocess(*argv, timeout):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "goalarg.cli", *map(str, argv)],
                          capture_output=True, text=True, timeout=timeout, env=env)


@pytest.mark.parametrize("n", [24, 1200], ids=["isolated-24", "free-1200"])
def test_select_counts_unconflicted_goals_in_closed_form(tmp_path, n):
    # Each unconflicted goal doubles the conflict-free sets; counted by
    # components, that costs no time.
    done = run_cli_subprocess("select", write_scenario(tmp_path, chain_doc(n, False)),
                              timeout=60)
    assert done.returncode == 0, done.stderr
    assert f"conflict-free sets: {2**n}\n" in done.stdout
    assert "utility: " + str(n // 2) + "\n" in done.stdout


def test_select_branches_on_a_dense_component(tmp_path):
    # The complete bipartite graph K(30,30) holds over half of its goal
    # pairs in conflict, yet 2**30 + 2**30 - 1 conflict-free sets: each side
    # and its subsets.  Branching on a goal leaves the other side free.
    doc = chain_doc(60, False)
    left, right = doc["goals"][:30], doc["goals"][30:]
    doc["goal_attacks"] = [{"from": a["id"], "to": b["id"], "kinds": ["r"]}
                           for a in left for b in right]
    done = run_cli_subprocess("select", write_scenario(tmp_path, doc), timeout=60)
    assert done.returncode == 0, done.stderr
    assert f"conflict-free sets: {2**30 + 2**30 - 1}\n" in done.stdout
    assert "utility: 15\n" in done.stdout


def test_select_on_a_long_conflict_path_ends_in_an_exit_code(tmp_path):
    # One large sparse component: branching nests about once per two goals.
    done = run_cli_subprocess("select", write_scenario(tmp_path, chain_doc(1500, True)),
                              timeout=120)
    assert done.returncode in (0, 1)
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert done.stderr == "" if done.returncode == 0 else len(errors) == 1, done.stderr


def ranked_goals(n):
    """n goals at twenty preference levels."""
    return [{"id": f"g{i:03d}", "predicate": f"task{i}()", "preference": f"{i % 20 + 1}/20"}
            for i in range(n)]


def full_conflict_doc(n):
    """n goals, every pair in conflict one way."""
    goals = ranked_goals(n)
    attacks = [{"from": a["id"], "to": b["id"], "kinds": ["r"]}
               for i, a in enumerate(goals) for b in goals[i + 1:]]
    return {"goals": goals, "goal_attacks": attacks}


def plans_in_conflict_doc(n, k):
    """n goals with k plans each; every two plans of different goals attack
    each other both ways."""
    goals = ranked_goals(n)
    plans = [{"id": f"{g['id']}p{j}", "claim": g["id"], "sub_args": []}
             for g in goals for j in range(k)]
    attacks = [{"from": a["id"], "to": b["id"], "kinds": ["t"]}
               for a in plans for b in plans if a["claim"] != b["claim"]]
    return {"goals": goals, "arguments": plans, "attacks": attacks}


def limit_address_space():
    # Runs in the child between fork and exec, so only the child is capped.
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "doc, argv",
    [
        ("full200", ["select"]),
        ("full200", ["explain", "why-not", "g000"]),
        ("full200", ["beliefs"]),
        ("plans-100x3", ["select"]),
        ("plans-100x3", ["report"]),
    ],
    ids=["full200-select", "full200-why-not", "full200-beliefs",
         "plans-100x3-select", "plans-100x3-report"],
)
def test_large_valid_documents_end_under_a_memory_cap(tmp_path, doc, argv):
    built = full_conflict_doc(200) if doc == "full200" else plans_in_conflict_doc(100, 3)
    path = write_scenario(tmp_path, built)
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "goalarg.cli", *argv, str(path)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=120, env=env, preexec_fn=limit_address_space)
    assert done.returncode in (0, 1), done.stderr
    if done.returncode == 1:
        assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1, done.stderr
    else:
        assert done.stderr == ""


def test_a_count_too_long_to_print_is_an_error_line(run, tmp_path, monkeypatch):
    # The real bound (about 14,285 unconflicted goals) is pinned in
    # test_selection; here the CLI must turn it into one error line.
    monkeypatch.setattr(selection, "DIGITS_BOUND", 10**7)
    code, out, err = run("select", write_scenario(tmp_path, chain_doc(24, False)))
    assert (code, out) == (1, "")
    assert err == "error: the number of conflict-free goal sets has more digits than can be printed\n"


@pytest.mark.parametrize("command, lines", [("report", 1), ("select", 0)],
                         ids=["large-output-closed-after-one-line", "closed-before-any-output"])
def test_a_closed_output_ends_in_an_error_line(tmp_path, command, lines):
    # dense-20's report (about 455 KB) outgrows the pipe, so the command
    # is still writing when the reader goes; select's few lines wait in the
    # stdout buffer until the reader has gone.
    path = write_scenario(tmp_path, bench_gen().direct_doc(random.Random(1), 20, 0.8))
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, "-X", "dev", "-W", "error", "-m", "goalarg.cli", command, str(path)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env) as child:
        for _ in range(lines):
            child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    assert (code, err) == (1, "error: output closed before it was written\n")


def test_running_out_of_memory_ends_in_an_error_line(run, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("goalarg.pipeline.run_pipeline", exhausted)
    assert run("report", CLEANER_WORLD) == (1, "", "error: out of memory\n")


def plan_level_doc(gaf):
    """A scenario document stating the plan level `gaf` as it is."""
    return {
        "goals": [{"id": g.id, "predicate": g.predicate, "preference": str(g.preference)}
                  for g in gaf.goals],
        "arguments": [{"id": a.id, "claim": a.claim, "sub_args": list(a.sub_args)}
                      for a in gaf.args],
        "attacks": [{"from": a, "to": b, "kinds": [k.value for k in kinds]}
                    for (a, b), kinds in gaf.attacks.items()],
    }


# Runs each command line given as JSON in this interpreter and prints, as
# JSON, every exit code with what the command wrote to stdout and stderr.
COMMANDS_SCRIPT = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from goalarg.cli import main
outputs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    outputs.append([argv, code, out.getvalue(), err.getvalue()])
print(json.dumps(outputs))
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # String hashing, and so set and dict-of-set iteration order, changes
    # with the seed; what the commands print must not.
    rng = random.Random(19)
    paths = [CLEANER_WORLD]
    for i in range(3):
        paths.append(tmp_path / f"random{i}.json")
        paths[-1].write_text(json.dumps(plan_level_doc(random_general_af(rng))), encoding="utf-8")
    commands = []
    for path in map(str, paths):
        report = run_pipeline(load_scenario(path))
        commands += [["validate", path], ["report", path]]
        commands += [["explain", "why" if g in report.selection.pursued else "why-not", g, path]
                     for g in report.gaf_sc.goals]
    printed = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", COMMANDS_SCRIPT, json.dumps(commands)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        printed[seed] = json.loads(done.stdout)
    assert all(code == 0 and out and not err for _, code, out, err in printed["0"])
    assert printed["0"] == printed["1"]


def test_deep_sub_argument_chain_validates(run, tmp_path):
    doc = cleaner_doc()
    add_sub_arg_chain(doc, cyclic=False)
    code, out, err = run("validate", write_scenario(tmp_path, doc))
    assert (code, out.strip(), err) == (0, "ok", "")


# A small plan-level document: a sub-plan chain, a one-sided attack and a
# config block, so that mutations reach every part of the schema.
PLAN_DOC = {
    "goals": [
        {"id": "g1", "predicate": "deliver(p)", "preference": "2/3"},
        {"id": "g2", "predicate": "charge()", "preference": 0.5},
        {"id": "g3", "predicate": "fetch(p)", "preference": 1},
    ],
    "arguments": [
        {"id": "P", "claim": "g1", "sub_args": ["Q"]},
        {"id": "Q", "claim": "g3"},
        {"id": "R", "claim": "g2"},
    ],
    "attacks": [
        {"from": "P", "to": "R", "kinds": ["r"]},
        {"from": "R", "to": "P", "kinds": ["r"]},
        {"from": "Q", "to": "R", "kinds": ["t", "s"]},
    ],
    "main_goals": ["g1", "g2"],
    "config": {"utility": "sum_all", "semantics": "preferred", "tie_break": "lexicographic"},
}

HOSTILE_VALUES = [
    None, True, 0, -1, 2, 1e308, -1e-308, float("nan"), float("inf"), "", "1/0", "0/0",
    "\ud800", "q" * 5000, [], {}, ["q"], [[]], [{}], {"q": 1}, "g1", "P", "t",
]

# Every command shape; None stands for the scenario path.
COMMAND_SHAPES = [
    ["validate", None],
    ["select", None],
    ["select", None, "--all-extensions", "--utility", "sum_main"],
    ["select", None, "--format", "json"],
    ["beliefs", None],
    ["beliefs", None, "--format", "json"],
    ["explain", "why", "g1", None],
    ["explain", "why-not", "g1", None, "--format", "structured"],
    ["explain", "why", "g1", None, "--complete", "--format", "dot"],
    ["explain", "why-not", "g2", None, "--semantics", "stable", "--format", "structured"],
    ["report", None],
    ["report", None, "--utility", "sum_main"],
    ["export", None, "--dot", "general"],
    ["export", None, "--dot", "goals-raw"],
    ["export", None, "--dot", "goals"],
    ["export", None, "--dot", "xaf", "--goal", "g1"],
]


def value_paths(value, prefix=()):
    """The path to `value` and to everything inside it."""
    yield prefix
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from value_paths(child, (*prefix, key))


def mutations(doc):
    """Set a value to a hostile one, delete a key or list entry, or
    duplicate a list entry."""
    paths = list(value_paths(doc))
    in_lists = [p for p in paths if p and isinstance(p[-1], int)]
    return st.one_of(
        st.tuples(st.just("set"), st.sampled_from(paths), st.sampled_from(HOSTILE_VALUES)),
        st.tuples(st.just("delete"), st.sampled_from(paths[1:]), st.none()),
        st.tuples(st.just("duplicate"), st.sampled_from(in_lists), st.none()),
    )


def mutated(doc, op, path, value):
    doc = copy.deepcopy(doc)
    if not path:
        return value
    *parents, last = path
    container = doc
    for key in parents:
        container = container[key]
    if op == "set":
        container[last] = value
    elif op == "delete":
        del container[last]
    else:
        container.insert(last, copy.deepcopy(container[last]))
    return doc


def utf8_stream():
    """A strict UTF-8 text stream, as stdout is: a lone surrogate that
    reaches it raises, as it would on a terminal."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([json.loads(CLEANER_WORLD.read_text()), PLAN_DOC]).flatmap(
    lambda doc: st.tuples(st.just(doc), mutations(doc))))
def test_mutated_documents_end_in_an_exit_code(tmp_path_factory, case):
    doc, (op, path, value) = case
    scenario = tmp_path_factory.getbasetemp() / "fuzzed.json"
    scenario.write_text(json.dumps(mutated(doc, op, path, value)), encoding="utf-8")
    for shape in COMMAND_SHAPES:
        argv = [str(scenario) if word is None else word for word in shape]
        out, err = utf8_stream(), utf8_stream()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1), argv
        assert code == 0 or err.buffer.getvalue(), argv
