from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from conftest import CLEANER_WORLD
from goalarg import (
    IncompatibilityKind,
    ScenarioError,
    Semantics,
    UtilityVariant,
    kinds_from_letters,
    load_scenario,
    parse_scenario,
    run_pipeline,
    validate,
)


T = IncompatibilityKind.TERMINAL


def load_doc():
    return json.loads(CLEANER_WORLD.read_text())


def write(tmp_path, doc):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_preferences_parse_as_exact_fractions():
    scenario = load_scenario(CLEANER_WORLD)
    prefs = {g.id: g.preference for g in scenario.goals}
    assert prefs["g1"] == Fraction(4, 5)
    assert all(isinstance(p, Fraction) for p in prefs.values())


def test_preference_accepts_fraction_strings(tmp_path):
    doc = {
        "goals": [{"id": "a", "predicate": "a()", "preference": "1/3"}],
        "goal_attacks": [],
    }
    scenario = load_scenario(write(tmp_path, doc))
    assert scenario.goals[0].preference == Fraction(1, 3)


def test_explicit_main_goals_respected():
    scenario = load_scenario(CLEANER_WORLD)
    assert scenario.main_goals == {"g1", "g5"}


def test_main_goals_default_from_sub_claims(tmp_path):
    doc = load_doc()
    del doc["main_goals"]
    scenario = load_scenario(write(tmp_path, doc))
    # goals achieved only by sub-plans are not main
    assert scenario.main_goals == {"g1", "g5"}


def test_main_goals_default_on_direct_path(tmp_path):
    doc = {
        "goals": [
            {"id": "a", "predicate": "a()", "preference": 0.5},
            {"id": "b", "predicate": "b()", "preference": 0.5},
        ],
        "goal_attacks": [],
    }
    scenario = load_scenario(write(tmp_path, doc))
    assert scenario.main_goals == {"a", "b"}


def test_main_goals_default_with_a_sub_plan_and_a_standalone_plan(tmp_path):
    # b's plan Q is a sub-plan of a's plan P, and b also has the standalone
    # plan R: one sub-plan is enough to make b not main.
    doc = {
        "goals": [
            {"id": "a", "predicate": "a()", "preference": 0.5},
            {"id": "b", "predicate": "b()", "preference": 0.5},
        ],
        "arguments": [
            {"id": "P", "claim": "a", "sub_args": ["Q"]},
            {"id": "Q", "claim": "b"},
            {"id": "R", "claim": "b"},
        ],
        "attacks": [],
    }
    scenario = load_scenario(write(tmp_path, doc))
    assert scenario.main_goals == {"a"}


def test_direct_goal_attacks_are_mirrored(tmp_path):
    doc = {
        "goals": [
            {"id": "a", "predicate": "a()", "preference": 0.5},
            {"id": "b", "predicate": "b()", "preference": 0.5},
        ],
        "goal_attacks": [{"from": "a", "to": "b", "kinds": ["t"]}],
    }
    scenario = load_scenario(write(tmp_path, doc))
    assert scenario.general.attacks == {("a", "b"): {T}, ("b", "a"): {T}}
    raw = run_pipeline(scenario).goal_af_raw
    assert raw.attacks == {("a", "b"): {T}, ("b", "a"): {T}}


def random_goal_level_doc(rng):
    """Goals with random preferences and random conflicts, each declared
    in one direction or in both."""
    goals = [
        {"id": f"g{i}", "predicate": f"p{i}()", "preference": f"{rng.randint(1, 8)}/8"}
        for i in range(rng.randint(1, 7))
    ]
    entries = []
    for i, a in enumerate(goals):
        for b in goals[i + 1:]:
            if rng.random() < 0.5:
                kinds = rng.sample("trs", rng.randint(1, 3))
                pair = [a["id"], b["id"]]
                for source, target in rng.choice([[pair], [pair[::-1]], [pair, pair[::-1]]]):
                    entries.append({"from": source, "to": target, "kinds": kinds})
    rng.shuffle(entries)
    return {"goals": goals, "goal_attacks": entries}


def test_goal_level_documents_derive_their_declared_conflicts():
    rng = random.Random(7)
    for _ in range(60):
        doc = random_goal_level_doc(rng)
        scenario = parse_scenario(doc)
        assert validate(scenario.general) == []
        raw = run_pipeline(scenario).goal_af_raw
        declared = {}
        for e in doc["goal_attacks"]:
            kinds = {IncompatibilityKind(k) for k in e["kinds"]}
            declared[(e["from"], e["to"])] = declared[(e["to"], e["from"])] = kinds
        assert raw.attacks == declared
        assert raw.pref == {g["id"]: Fraction(g["preference"]) for g in doc["goals"]}


def test_direct_goal_attacks_reject_inconsistent_reverse(tmp_path):
    doc = {
        "goals": [
            {"id": "a", "predicate": "a()", "preference": 0.5},
            {"id": "b", "predicate": "b()", "preference": 0.5},
        ],
        "goal_attacks": [
            {"from": "a", "to": "b", "kinds": ["t"]},
            {"from": "b", "to": "a", "kinds": ["s"]},
        ],
    }
    with pytest.raises(ScenarioError, match="disagree"):
        load_scenario(write(tmp_path, doc))


@pytest.mark.parametrize(
    "mutate, location",
    [
        (lambda d: d.pop("goals"), "goals"),
        (lambda d: d["goals"].append({"id": "g1", "predicate": "x", "preference": 0.5}),
         "goals[5].id"),
        (lambda d: d["goals"][0].update(preference=2), "goals[0].preference"),
        (lambda d: d["goals"][0].update(predicate=""), "goals[0].predicate"),
        (lambda d: d["attacks"][0].pop("kinds"), "attacks[0]"),
        (lambda d: d["attacks"][0].update(kinds=["x"]), "attacks[0].kinds"),
        (lambda d: d.update(goal_attacks=[]), "$"),
        (lambda d: d.pop("attacks"), "$"),
        (lambda d: d.update(mystery=1), "$"),
        (lambda d: d.update(main_goals=["gX"]), "main_goals"),
        (lambda d: d.update(main_goals=[["x"]]), "main_goals[0]"),
        (lambda d: d["arguments"][0].update(sub_args=[["x"]]), "arguments[0].sub_args[0]"),
        (lambda d: d.update(config={"utility": "product"}), "config.utility"),
        (lambda d: d.update(config={"semantics": "ideal"}), "config.semantics"),
        (lambda d: d.update(config={"tie_break": "random"}), "config.tie_break"),
        (lambda d: d.update(config={"bogus": 1}), "config"),
    ],
)
def test_schema_violations_carry_locations(mutate, location):
    doc = load_doc()
    mutate(doc)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.location == location


def goal_level_doc(*entries):
    goals = [{"id": g, "predicate": f"{g}()", "preference": 0.5} for g in ("a", "b", "c")]
    return {"goals": goals, "goal_attacks": list(entries)}


def attacks_doc(mutate):
    doc = load_doc()
    mutate(doc["attacks"])
    return doc


def surrogate(attacks, key):
    attacks[3][key] = "\ud800"


@pytest.mark.parametrize(
    "doc, message",
    [
        (attacks_doc(lambda a: a.__setitem__(2, "A->B")), "attacks[2]: must be an object"),
        (attacks_doc(lambda a: a[1].pop("from")), "attacks[1]: missing key 'from'"),
        (attacks_doc(lambda a: a[1].pop("to")), "attacks[1]: missing key 'to'"),
        (attacks_doc(lambda a: a[1].pop("kinds")), "attacks[1]: missing key 'kinds'"),
        (attacks_doc(lambda a: a[4].update({"to": 7})), "attacks[4]: 'from'/'to' must be strings"),
        (attacks_doc(lambda a: surrogate(a, "from")),
         "attacks[3]: holds a lone surrogate, which cannot be printed"),
        (attacks_doc(lambda a: surrogate(a, "to")),
         "attacks[3]: holds a lone surrogate, which cannot be printed"),
        (attacks_doc(lambda a: a[0].update(kinds=[])),
         "attacks[0].kinds: 'kinds' must be a nonempty list"),
        (attacks_doc(lambda a: a[0].update(kinds="t")),
         "attacks[0].kinds: 'kinds' must be a nonempty list"),
        (attacks_doc(lambda a: a[0].update(kinds=["t", "x", "q"])),
         "attacks[0].kinds: unknown incompatibility kind 'x'"),
        (attacks_doc(lambda a: a.append({"from": "A", "to": "B", "kinds": ["s"]})),
         "attacks[28]: pair (A, B) declared twice with different kinds"),
        (goal_level_doc({"from": "a", "to": "zz", "kinds": ["t"]}),
         "goal_attacks[(a, zz)]: unknown goal 'zz'"),
        (goal_level_doc({"from": "a", "to": "a", "kinds": ["t"]}),
         "goal_attacks[(a, a)]: a goal cannot conflict with itself"),
        (goal_level_doc({"from": "a", "to": "b", "kinds": ["t"]},
                        {"from": "b", "to": "a", "kinds": ["t", "s"]}),
         "goal_attacks[(a, b)]: kinds for (a, b) disagree with the reverse direction"),
        # Two faults in one entry: the check that runs first names the fault.
        (attacks_doc(lambda a: a[5].update({"from": 1, "kinds": []})),
         "attacks[5]: 'from'/'to' must be strings"),
        (goal_level_doc({"from": "zz", "to": "zz", "kinds": ["t"]}),
         "goal_attacks[(zz, zz)]: unknown goal 'zz'"),
        # Kinds that a lookup of tuple(kinds) would accept or fail to hash.
        (attacks_doc(lambda a: a[0].update(kinds={"t": 1})),
         "attacks[0].kinds: 'kinds' must be a nonempty list"),
        (attacks_doc(lambda a: a[0].update(kinds=[["t"]])),
         "attacks[0].kinds: unknown incompatibility kind ['t']"),
        (attacks_doc(lambda a: a[0].update(kinds=[{}])),
         "attacks[0].kinds: unknown incompatibility kind {}"),
        (goal_level_doc({"from": "a", "to": "b", "kinds": "t"}),
         "goal_attacks[0].kinds: 'kinds' must be a nonempty list"),
    ],
)
def test_attack_entry_faults_are_reported_verbatim(doc, message):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "config, message",
    [
        ({"utility": "product"}, "config.utility: unknown utility variant 'product'"),
        ({"semantics": "ideal"}, "config.semantics: unknown semantics 'ideal'"),
        ({"semantics": ["grounded"]}, "config.semantics: unknown semantics ['grounded']"),
        ({"tie_break": "random"}, "config.tie_break: unknown tie-break policy 'random'"),
        ({"bogus": 1, "extra": 2}, "config: unknown config keys: bogus, extra"),
    ],
)
def test_config_errors_name_the_bad_value(config, message):
    doc = load_doc()
    doc["config"] = config
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "raw",
    ["1e999999", "1e-5000", "1e-9999999", "2.5E+1_000_000_000",
     pytest.param("1/" + str(2**14000), id="1/2**14000"), "9e4300"],
)
def test_unprintable_preferences_are_rejected(raw):
    # 1e999999 is out of range and 1e-5000 in range, but neither value can
    # be converted to text under the interpreter's int-to-str digit limit.
    # The exponent alone rejects them, before 10**exp is ever built.
    # 1/2**14000 (in range) and 9e4300 (out of range) do get built, and the
    # check that the value prints rejects them.
    doc = load_doc()
    doc["goals"][0]["preference"] = raw
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert str(err.value) == "goals[0].preference: preference has more digits than can be printed"


def test_unprintable_utility_sums_are_rejected():
    # Each preference prints, but g1 + g5 (both selected) would have a
    # denominator of about 7,200 digits.
    doc = load_doc()
    doc["goals"][0]["preference"] = f"1/{3**8000}"
    doc["goals"][4]["preference"] = f"1/{7**4000}"
    with pytest.raises(ScenarioError, match="sum to more digits") as err:
        parse_scenario(doc)
    assert err.value.location == "goals"


@pytest.mark.parametrize("literal", ["1" * 5000, "0." + "1" * 5000, "1e-9999999"])
def test_unreadable_number_literals_are_rejected(tmp_path, literal):
    doc = load_doc()
    doc["goals"][0]["preference"] = "LITERAL"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc).replace('"LITERAL"', literal), encoding="utf-8")
    with pytest.raises(ScenarioError, match="more digits than can be read") as err:
        load_scenario(path)
    assert err.value.location == str(path)


@pytest.mark.parametrize(
    "mutate, location",
    [
        (lambda d: d["goals"][0].update(id="g\ud800"), "goals[0].id"),
        (lambda d: d["goals"][2].update(predicate="\udfff()"), "goals[2].predicate"),
        (lambda d: d["arguments"][1].update(id="\ud800"), "arguments[1]"),
        (lambda d: d["attacks"][3].update(to="\ud800"), "attacks[3]"),
    ],
)
def test_lone_surrogates_are_rejected(mutate, location):
    doc = load_doc()
    mutate(doc)
    with pytest.raises(ScenarioError, match="lone surrogate") as err:
        parse_scenario(doc)
    assert err.value.location == location


def test_deeply_nested_documents_are_rejected(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(ScenarioError, match="nested too deeply") as err:
        load_scenario(path)
    assert err.value.location == str(path)


def test_duplicate_attack_pair_with_identical_kinds_is_tolerated(tmp_path):
    doc = load_doc()
    doc["attacks"].append(dict(doc["attacks"][0]))
    load_scenario(write(tmp_path, doc))  # no error
    # Entries off the common spelling that are still well formed.
    tr = kinds_from_letters("tr")
    for goal_ids, entries, labels in [
        ("ab", [{"from": "a", "to": "b", "kinds": ["t", "t"]}], {T}),
        ("ab", [{"from": "a", "to": "b", "kinds": ["r", "t"]},
                {"from": "a", "to": "b", "kinds": ["t", "r"]}], tr),
        ("ab", [{"from": "a", "to": "b", "kinds": ["t"], "note": "extra key"}], {T}),
        (("gé", "b"), [{"from": "gé", "to": "b", "kinds": ["r", "t", "r"]}], tr),
    ]:
        a, b = goal_ids
        goals = [{"id": g, "predicate": f"{g}()", "preference": 0.5} for g in goal_ids]
        scenario = parse_scenario({"goals": goals, "goal_attacks": entries})
        assert scenario.general.attacks == {(a, b): labels, (b, a): labels}


def test_missing_file():
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario("/nonexistent/nowhere.json")


@pytest.mark.parametrize(
    "data",
    [json.dumps({"goals": []}).replace("[]", '["g\xe9"]').encode("latin-1"),
     json.dumps({"goals": []}).encode("utf-16")],
    ids=["latin-1", "utf-16"],
)
def test_non_utf8_file_is_reported_at_its_path(tmp_path, data):
    path = tmp_path / "s.json"
    path.write_bytes(data)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.location == str(path)
    assert str(err.value).startswith(f"{path}: cannot read scenario: 'utf-8' codec can't decode")


def test_config_defaults_and_values(tmp_path):
    scenario = load_scenario(CLEANER_WORLD)
    assert scenario.config.utility is UtilityVariant.SUM_ALL
    assert scenario.config.semantics is Semantics.GROUNDED
    assert scenario.config.tie_break == "lexicographic"

    doc = load_doc()
    doc["config"] = {"utility": "sum_main", "semantics": "preferred"}
    scenario = load_scenario(write(tmp_path, doc))
    assert scenario.config.utility is UtilityVariant.SUM_MAIN
    assert scenario.config.semantics is Semantics.PREFERRED


def test_validate_scenario_clean_fixture():
    assert validate(load_scenario(CLEANER_WORLD).general) == []


def test_pipeline_override_beats_file_config(tmp_path):
    doc = load_doc()
    doc["config"] = {"semantics": "preferred"}
    scenario = load_scenario(write(tmp_path, doc))
    assert run_pipeline(scenario).config.semantics is Semantics.PREFERRED
    overridden = run_pipeline(scenario, semantics=Semantics.GROUNDED)
    assert overridden.config.semantics is Semantics.GROUNDED


def test_report_timing_is_measured_but_not_serialized():
    from goalarg import report_to_dict

    report = run_pipeline(load_scenario(CLEANER_WORLD))
    assert report.elapsed_seconds > 0
    assert "elapsed" not in json.dumps(report_to_dict(report))
