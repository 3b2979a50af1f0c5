"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import json
import random

import pytest

import oracles
from conftest import (
    CLEANER_WORLD,
    GOLDEN_DIR,
    cleaner_general_af,
    random_af,
    random_goal_af,
)
from goalarg import (
    BeliefKind,
    Claim,
    Semantics,
    apply_successful_attacks,
    build_explanation_model,
    derive_goal_af,
    extensions_of,
    kinds_from_letters,
    load_scenario,
    render_partial_explanation,
    report_to_dict,
    run_pipeline,
    select,
    why,
    why_not,
)
from goalarg.cli import main
from oracles import (
    AbstractAF,
    complete_extensions,
    grounded_extension,
    preferred_extensions,
    stable_extensions,
)


@pytest.fixture(scope="module")
def report():
    return run_pipeline(load_scenario(CLEANER_WORLD))


def shape(entity):
    inst = entity if hasattr(entity, "schema_id") and hasattr(entity, "x") else entity.instance
    return (inst.schema_id, inst.x, inst.y)


def test_criterion_1_goal_graph_derivation():
    raw = derive_goal_af(cleaner_general_af())
    expected_pairs = {
        frozenset({"g1", "g4"}),
        frozenset({"g2", "g3"}),
        frozenset({"g2", "g4"}),
        frozenset({"g3", "g4"}),
    }
    assert oracles.conflict_pairs(raw) == expected_pairs
    assert raw.attacks.keys() == {
        (a, b) for pair in expected_pairs for a in pair for b in pair if a != b
    }
    expected_labels = {
        frozenset({"g3", "g2"}): kinds_from_letters("s"),
        frozenset({"g3", "g4"}): kinds_from_letters("t"),
        frozenset({"g1", "g4"}): kinds_from_letters("tr"),
        frozenset({"g2", "g4"}): kinds_from_letters("tr"),
    }
    for (a, b), labels in raw.attacks.items():
        assert labels == expected_labels[frozenset({a, b})]
    print("criterion 1 (goal-graph derivation incl. conflict labels): PASS")


def test_criterion_2_selection(report):
    assert report.selection.cf_count == 14
    assert report.selection.pursued == {"g1", "g3", "g5"}
    maxima, best, count = oracles.max_utility_brute(
        report.gaf_sc.goals, report.gaf_sc.attacks, report.gaf_sc.pref
    )
    assert set(report.selection.all_max_extensions) == maxima
    assert report.selection.winning_utility == best
    assert report.selection.cf_count == count
    print("criterion 2 (selection: 14 conflict-free sets, pursued {g1,g3,g5}): PASS")


def test_criterion_3_belief_generation(report):
    expected = {
        (BeliefKind.NOT_INCOMP, ("g5",), None),
        (BeliefKind.INCOMPAT, ("g3", "g2"), kinds_from_letters("s")),
        (BeliefKind.INCOMPAT, ("g3", "g4"), kinds_from_letters("t")),
        (BeliefKind.INCOMPAT, ("g1", "g4"), kinds_from_letters("tr")),
        (BeliefKind.INCOMPAT, ("g2", "g4"), kinds_from_letters("tr")),
        (BeliefKind.MAX_UTIL, ("g1",), None),
        (BeliefKind.MAX_UTIL, ("g3",), None),
        (BeliefKind.MAX_UTIL, ("g5",), None),
        (BeliefKind.NOT_MAX_UTIL, ("g2",), None),
        (BeliefKind.NOT_MAX_UTIL, ("g4",), None),
        (BeliefKind.PREF, ("g3", "g4"), None),
        (BeliefKind.NOT_PREF, ("g4", "g3"), None),
        (BeliefKind.PREF, ("g1", "g4"), None),
        (BeliefKind.NOT_PREF, ("g4", "g1"), None),
        (BeliefKind.PREF, ("g2", "g4"), None),
        (BeliefKind.NOT_PREF, ("g4", "g2"), None),
        (BeliefKind.PREF, ("g3", "g2"), None),
        (BeliefKind.NOT_PREF, ("g2", "g3"), None),
    }
    got = {(b.kind, b.goals, b.labels) for b in report.model.beliefs}
    assert len(report.model.beliefs) == 18
    assert got == expected
    print("criterion 3 (18 generated beliefs, exact set): PASS")


def test_criterion_4_rules_and_arguments(report):
    expected = {
        ("r1", "g5", None, Claim("g5", True)),
        ("r2", "g1", "g4", Claim("g1", True)),
        ("r2", "g2", "g4", Claim("g2", True)),
        ("r2", "g3", "g2", Claim("g3", True)),
        ("r2", "g3", "g4", Claim("g3", True)),
        ("r3", "g1", "g4", Claim("g4", False)),
        ("r3", "g2", "g4", Claim("g4", False)),
        ("r3", "g3", "g2", Claim("g2", False)),
        ("r3", "g3", "g4", Claim("g4", False)),
        ("r5", "g1", None, Claim("g1", True)),
        ("r5", "g3", None, Claim("g3", True)),
        ("r5", "g5", None, Claim("g5", True)),
        ("r6", "g2", None, Claim("g2", False)),
        ("r6", "g4", None, Claim("g4", False)),
    }
    instances = report.model.instances
    assert len(instances) == 14
    assert {(i.schema_id, i.x, i.y, i.head) for i in instances} == expected

    arguments = report.model.arguments
    assert len(arguments) == 14
    for arg in arguments:
        inst = arg.instance
        assert arg.claim == inst.head
        assert arg.support == frozenset((*inst.body, inst))
        body_kinds = [b.kind for b in inst.body]
        expected_sizes = {"r1": 1, "r2": 2, "r3": 2, "r4": 2, "r5": 1, "r6": 1}
        assert len(body_kinds) == expected_sizes[inst.schema_id]
    print("criterion 4 (14 rule instances and 14 arguments, exact shapes): PASS")


def test_criterion_5_per_goal_extensions(report):
    expected = {
        "g1": {("r2", "g1", "g4"), ("r5", "g1", None)},
        "g2": {("r3", "g3", "g2"), ("r6", "g2", None)},
        "g3": {("r2", "g3", "g2"), ("r2", "g3", "g4"), ("r5", "g3", None)},
        "g4": {
            ("r3", "g1", "g4"),
            ("r3", "g2", "g4"),
            ("r3", "g3", "g4"),
            ("r6", "g4", None),
        },
        "g5": {("r1", "g5", None), ("r5", "g5", None)},
    }
    for goal, want in expected.items():
        (extension,) = extensions_of(report.model.xafs[goal], Semantics.GROUNDED)
        assert {shape(a) for a in extension} == want, goal
    print("criterion 5 (grounded extension per goal matches the worked example): PASS")


def test_criterion_6_rendered_sentences(report):
    names = {g.id: g.predicate for g in report.goals}
    queries = {"g1": why, "g2": why_not, "g3": why, "g4": why_not, "g5": why}
    counts = {"g1": 2, "g2": 2, "g3": 3, "g4": 4, "g5": 2}

    golden: dict[str, list[str]] = {}
    current = None
    for line in (GOLDEN_DIR / "cleaner_world_sentences.txt").read_text().splitlines():
        if line.startswith("# "):
            current = line.split()[-1]
            golden[current] = []
        elif line.strip():
            golden[current].append(line)

    for goal, query in queries.items():
        sentences = [
            s.text
            for s in render_partial_explanation(query(report.model, goal), names)
        ]
        assert len(sentences) == counts[goal]
        assert sentences == golden[goal]
    print("criterion 6 (partial-explanation sentences match the golden file): PASS")


def test_criterion_7_property_suite():
    rng = random.Random(2024)

    checked_afs = 0
    for _ in range(500):
        nodes, attacks = random_af(rng, max_nodes=12)
        af = AbstractAF.of(nodes, attacks)
        grounded = grounded_extension(af)
        complete = set(complete_extensions(af))
        preferred = set(preferred_extensions(af))
        stable = set(stable_extensions(af))

        truth = oracles.all_semantics_brute(nodes, attacks)
        assert grounded == truth["grounded"]
        assert complete == truth["complete"]
        assert preferred == truth["preferred"]
        assert stable == truth["stable"]

        assert all(grounded <= e for e in complete)
        assert all(any(p >= c for p in preferred) for c in complete)
        assert preferred <= complete
        assert stable <= preferred
        checked_afs += 1

    checked_scenarios = 0
    for _ in range(200):
        filtered = apply_successful_attacks(random_goal_af(rng, max_goals=15))
        result = select(filtered)
        maxima, best, count = oracles.max_utility_brute(
            filtered.goals, filtered.attacks, filtered.pref
        )
        assert set(result.all_max_extensions) == maxima
        assert result.winning_utility == best
        assert result.cf_count == count
        assert result.pursued in maxima

        model = build_explanation_model(filtered, result)
        claims = {(a.claim.goal, a.claim.pursued) for a in model.arguments}
        for goal in filtered.goals:
            assert (goal, goal in result.pursued) in claims
        checked_scenarios += 1

    assert checked_afs >= 500 and checked_scenarios >= 200
    print(
        f"criterion 7 (property suite: {checked_afs} frameworks vs oracle, "
        f"{checked_scenarios} selection scenarios vs oracle, pipeline coherence): PASS"
    )


def test_criterion_8_report_determinism(report, capsys, tmp_path):
    runs = [
        json.dumps(report_to_dict(run_pipeline(load_scenario(CLEANER_WORLD))), sort_keys=True)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]

    direct_fixture = tmp_path / "direct.json"
    direct_fixture.write_text(
        json.dumps(
            {
                "goals": [
                    {"id": "a", "predicate": "a()", "preference": 0.5},
                    {"id": "b", "predicate": "b()", "preference": 0.5},
                    {"id": "c", "predicate": "c()", "preference": 0.25},
                ],
                "goal_attacks": [
                    {"from": "a", "to": "b", "kinds": ["t", "s"]},
                    {"from": "b", "to": "c", "kinds": ["r"]},
                ],
            }
        ),
        encoding="utf-8",
    )
    for fixture in (CLEANER_WORLD, direct_fixture):
        outputs = []
        for _ in range(2):
            assert main(["report", str(fixture)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
    print("criterion 8 (byte-identical consecutive report runs): PASS")
