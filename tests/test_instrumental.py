from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from conftest import CLEANER_ARGS, CLEANER_GOALS, cleaner_general_af, random_general_af
from goalarg import (
    GeneralAF,
    GoalDecl,
    IncompatibilityKind,
    InputError,
    InstrumentalArgDecl,
    ValidationError,
    ValidationIssue,
    format_kinds,
    kinds_from_letters,
    parse_scenario,
    report_to_dict,
    require_valid,
    run_pipeline,
    validate,
)
from goalarg.instrumental import LABEL_SETS
from oracles import args_for_goal, attacks_with_kind


def test_cleaner_world_fixture_is_valid():
    issues = validate(cleaner_general_af())
    assert issues == []
    require_valid(cleaner_general_af())  # does not raise


def test_dangling_attack_id_is_reported():
    gaf = GeneralAF(
        CLEANER_GOALS,
        CLEANER_ARGS,
        {("A", "Z"): kinds_from_letters("t")},
    )
    errors = [i for i in validate(gaf) if i.severity == "error"]
    assert any("Z" in i.message for i in errors)
    with pytest.raises(ValidationError):
        require_valid(gaf)


def test_empty_label_set_is_reported():
    gaf = GeneralAF(CLEANER_GOALS, CLEANER_ARGS, {("A", "B"): frozenset()})
    errors = [i for i in validate(gaf) if i.severity == "error"]
    assert any("label" in i.message for i in errors)


def test_duplicate_ids_are_reported():
    goals = CLEANER_GOALS + (GoalDecl("g1", "again", Fraction(1, 2)),)
    args = CLEANER_ARGS + (InstrumentalArgDecl("A", "g1"),)
    messages = [i.message for i in validate(GeneralAF(goals, args, {}))]
    assert "duplicate goal id" in messages
    assert "duplicate argument id" in messages


def test_cyclic_sub_arguments_are_reported():
    args = (
        InstrumentalArgDecl("A", "g1", ("B",)),
        InstrumentalArgDecl("B", "g1", ("A",)),
    )
    gaf = GeneralAF(CLEANER_GOALS, args, {})
    assert validate(gaf) == [
        ValidationIssue("error", "arguments (A)", "cyclic sub-argument relation: A -> B -> A")
    ]


def sub_arg_chain(depth, cyclic):
    """Plans P0 -> P1 -> ... -> P<depth-1>, closed back to P0 if cyclic."""
    ids = [f"P{i}" for i in range(depth)]
    subs = [(nxt,) for nxt in ids[1:]] + [(ids[0],) if cyclic else ()]
    return GeneralAF(
        CLEANER_GOALS, tuple(InstrumentalArgDecl(a, "g1", sub) for a, sub in zip(ids, subs)), {}
    )


def test_deep_sub_argument_cycle_is_one_issue():
    (issue,) = validate(sub_arg_chain(1500, cyclic=True))
    assert issue.severity == "error"
    assert issue.location == "arguments (P0)"
    assert issue.message.startswith("cyclic sub-argument relation: P0 -> P1 -> P2")
    assert issue.message.endswith("P1499 -> P0")


def test_preference_out_of_range_is_reported():
    goals = (GoalDecl("g1", "x()", Fraction(0)),)
    gaf = GeneralAF(goals, (), {})
    assert any("preference" in i.message for i in validate(gaf))


def test_empty_predicate_is_reported():
    goals = (GoalDecl("g", "", Fraction(1, 2)),)
    assert [str(i) for i in validate(GeneralAF(goals, (), {}))] == [
        "error at goals[0] (g): empty predicate"
    ]


def test_asymmetric_attack_warns_but_passes():
    gaf = GeneralAF(
        CLEANER_GOALS, CLEANER_ARGS, {("A", "B"): kinds_from_letters("t")}
    )
    issues = validate(gaf)
    assert [i.severity for i in issues] == ["warning"]
    require_valid(gaf)  # warnings are not fatal


@pytest.mark.parametrize(
    "attacks, expected",
    [
        ({("A", "Z"): "t", ("Z", "A"): "t"},
         ["error at attacks[(A, Z)]: unknown argument 'Z'",
          "error at attacks[(Z, A)]: unknown argument 'Z'"]),
        ({("A", "A"): "r"}, ["error at attacks[(A, A)]: self-attack"]),
        ({("A", "B"): "t"}, ["warning at attacks[(A, B)]: reverse attack not declared"]),
        ({("A", "B"): "t", ("B", "A"): "tr"},
         ["warning at attacks[(A, B)]: labels differ from the reverse attack's",
          "warning at attacks[(B, A)]: labels differ from the reverse attack's"]),
        ({("A", "B"): "rs", ("B", "A"): "rs"}, []),
    ],
)
def test_attack_issues_are_reported_verbatim(attacks, expected):
    labeled = {pair: kinds_from_letters(letters) for pair, letters in attacks.items()}
    issues = validate(GeneralAF(CLEANER_GOALS, CLEANER_ARGS, labeled))
    assert [str(i) for i in issues] == expected


def test_issues_are_reported_in_section_order():
    """One framework with a fault in every section and both warnings: goals,
    then arguments, sub-arguments, cycles, then attack pairs in sorted
    order, each pair's errors before its warning."""
    goals = (
        GoalDecl("g1", "clean()", Fraction(1, 2)),
        GoalDecl("g1", "again()", Fraction(1, 2)),
        GoalDecl("g2", "", Fraction(1, 2)),
        GoalDecl("g3", "x()", Fraction(3, 2)),
    )
    args = (
        InstrumentalArgDecl("A", "g1", ("B",)),
        InstrumentalArgDecl("B", "g2", ("A",)),
        InstrumentalArgDecl("C", "nowhere"),
        InstrumentalArgDecl("C", "elsewhere"),
        InstrumentalArgDecl("D", "g3", ("ghost",)),
    )
    attacks = {
        ("A", "ghost"): kinds_from_letters("t"),
        ("C", "C"): kinds_from_letters("r"),
        ("A", "B"): frozenset(),
        ("B", "A"): kinds_from_letters("t"),
        ("D", "D"): frozenset(),
        ("Y", "Z"): kinds_from_letters("s"),
    }
    assert [str(i) for i in validate(GeneralAF(goals, args, attacks))] == [
        "error at goals[1] (g1): duplicate goal id",
        "error at goals[2] (g2): empty predicate",
        "error at goals[3] (g3): preference 3/2 outside (0, 1]",
        "error at arguments[2] (C): claim references unknown goal 'nowhere'",
        "error at arguments[3] (C): duplicate argument id",
        "error at arguments[3] (C): claim references unknown goal 'elsewhere'",
        "error at arguments[4] (D): unknown sub-argument 'ghost'",
        "error at arguments (A): cyclic sub-argument relation: A -> B -> A",
        "error at attacks[(A, B)]: empty incompatibility label set",
        "warning at attacks[(A, B)]: labels differ from the reverse attack's",
        "error at attacks[(A, ghost)]: unknown argument 'ghost'",
        "warning at attacks[(A, ghost)]: reverse attack not declared",
        "warning at attacks[(B, A)]: labels differ from the reverse attack's",
        "error at attacks[(C, C)]: self-attack",
        "error at attacks[(D, D)]: self-attack",
        "error at attacks[(D, D)]: empty incompatibility label set",
        "error at attacks[(Y, Z)]: unknown argument 'Y'",
        "error at attacks[(Y, Z)]: unknown argument 'Z'",
        "warning at attacks[(Y, Z)]: reverse attack not declared",
    ]


def inject(rng, gaf, fault):
    """`gaf` with one fault of the named kind: one of `validate`'s ten
    errors, a warning only, or none; or with several faults: the warning,
    then one to three distinct errors."""
    if fault == "several faults":
        for one in ["warning only"] + rng.sample(ERRORS, rng.randint(1, 3)):
            gaf = inject(rng, gaf, one)
        return gaf
    goals, args, attacks = list(gaf.goals), list(gaf.args), dict(gaf.attacks)
    if len(args) < 2:
        args += [InstrumentalArgDecl("q0", goals[0].id), InstrumentalArgDecl("q1", goals[-1].id)]
    g, a = rng.randrange(len(goals)), rng.randrange(len(args))
    one, other = (x.id for x in rng.sample(args, 2))
    labels = kinds_from_letters(rng.sample("trs", rng.randint(1, 3)))
    if fault == "duplicate goal id":
        goals.append(goals[g]._replace(predicate="again()"))
    elif fault == "empty predicate":
        goals[g] = goals[g]._replace(predicate="")
    elif fault == "preference out of range":
        goals[g] = goals[g]._replace(preference=rng.choice([Fraction(0), Fraction(-1, 2), Fraction(3, 2)]))
    elif fault == "duplicate argument id":
        args.append(args[a]._replace(claim=rng.choice(goals).id))
    elif fault == "unknown claim":
        args[a] = args[a]._replace(claim="nowhere")
    elif fault == "unknown sub-argument":
        args[a] = args[a]._replace(sub_args=args[a].sub_args + ("ghost",))
    elif fault == "sub-argument cycle":
        ring = rng.sample(range(len(args)), rng.randint(1, min(3, len(args))))
        for here, there in zip(ring, ring[1:] + ring[:1]):
            args[here] = args[here]._replace(sub_args=(args[there].id,))
    elif fault == "unknown attack endpoint":
        attacks[rng.choice([(one, "ghost"), ("ghost", one)])] = labels
    elif fault == "self-attack":
        attacks[(one, one)] = labels
    elif fault == "empty label set":
        attacks[(one, other)] = frozenset()
    elif fault == "warning only":  # differing reverse labels, or no reverse
        attacks[(one, other)] = labels
        if attacks.get((other, one)) == labels:
            del attacks[(other, one)]
    return GeneralAF(tuple(goals), tuple(args), attacks)


ERRORS = [
    "duplicate goal id", "empty predicate", "preference out of range", "duplicate argument id",
    "unknown claim", "unknown sub-argument", "sub-argument cycle", "unknown attack endpoint",
    "self-attack", "empty label set",
]
FAULTS = ERRORS + ["several faults"]


@pytest.mark.parametrize("fault", FAULTS + ["warning only", "none"])
def test_require_valid_agrees_with_validate(fault):
    rng = random.Random(fault)
    several_errors = 0
    for _ in range(40):
        gaf = inject(rng, random_general_af(rng), fault)
        issues = validate(gaf)
        errors = [i for i in issues if i.severity == "error"]
        several_errors += len(errors) > 1
        assert bool(errors) == (fault in FAULTS)
        if fault == "warning only":
            assert issues
        if errors:
            with pytest.raises(ValidationError) as err:
                require_valid(gaf)
            assert err.value.issues == errors
            assert str(err.value) == str(ValidationError(errors))
        else:
            assert require_valid(gaf) is gaf
    if fault == "several faults":  # the full list and message, not only the first error
        assert several_errors >= 20


def test_args_for_goal_cleaner_world():
    gaf = cleaner_general_af()
    assert args_for_goal(gaf, "g1") == {"A", "C"}
    assert args_for_goal(gaf, "g4") == {"H"}


def test_args_for_goal_empty_and_unknown():
    goals = CLEANER_GOALS + (GoalDecl("g6", "idle()", Fraction(1, 10)),)
    gaf = GeneralAF(goals, CLEANER_ARGS, cleaner_general_af().attacks)
    assert args_for_goal(gaf, "g6") == frozenset()
    with pytest.raises(InputError):
        args_for_goal(gaf, "nope")


def test_kind_relations_recover_the_attack_keys():
    gaf = cleaner_general_af()
    reunited = set()
    for kind in IncompatibilityKind:
        reunited |= attacks_with_kind(gaf, kind)
    assert reunited == set(gaf.attacks)


def test_every_argument_belongs_to_exactly_its_claim_goal():
    gaf = cleaner_general_af()
    for arg in gaf.args:
        for goal in gaf.goals:
            member = arg.id in args_for_goal(gaf, goal.id)
            assert member == (goal.id == arg.claim)


def test_format_kinds_fixed_order():
    # All eight label sets, each spelled in every letter order and with its
    # first letter repeated: the printed form, the parsed goal_attacks entry
    # and the report's kinds lists all follow t, r, s order.
    assert format_kinds(kinds_from_letters("rt")) == "t,r"
    assert format_kinds(kinds_from_letters("srt")) == "t,r,s"
    assert format_kinds(frozenset()) == ""
    goals = [{"id": g, "predicate": f"{g}()", "preference": 0.5} for g in ("a", "b")]
    for size in range(4):
        for letters in combinations("trs", size):
            orders = list(permutations(letters))
            for spelling in orders + [order + order[:1] for order in orders if order]:
                kinds = kinds_from_letters(spelling)
                assert kinds == {IncompatibilityKind(letter) for letter in letters}
                assert format_kinds(kinds) == format_kinds(list(kinds)) == ",".join(letters)
                if not letters:
                    continue
                attack = {"from": "a", "to": "b", "kinds": list(spelling)}
                scenario = parse_scenario({"goals": goals, "goal_attacks": [attack]})
                assert scenario.general.attacks[("a", "b")] is LABEL_SETS[letters]
                report = report_to_dict(run_pipeline(scenario))
                listed = [entry["kinds"] for entry in report["goal_af"]["raw_attacks"]]
                listed += [b["kinds"] for b in report["beliefs"] if b["kind"] == "incompat"]
                assert listed == [list(letters)] * 4
