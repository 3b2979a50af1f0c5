from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest

from conftest import CLEANER_GOALS, cleaner_general_af, random_goal_af, random_loose_general_af
from goalarg import (
    GeneralAF,
    GoalAF,
    GoalDecl,
    InputError,
    InstrumentalArgDecl,
    apply_successful_attacks,
    derive_goal_af,
    kinds_from_letters,
)
from oracles import conflict_pairs, derive_brute

EXPECTED_CONFLICT_PAIRS = {
    frozenset({"g1", "g4"}),
    frozenset({"g2", "g3"}),
    frozenset({"g2", "g4"}),
    frozenset({"g3", "g4"}),
}
EXPECTED_LABELS = {
    frozenset({"g1", "g4"}): kinds_from_letters("tr"),
    frozenset({"g2", "g3"}): kinds_from_letters("s"),
    frozenset({"g2", "g4"}): kinds_from_letters("tr"),
    frozenset({"g3", "g4"}): kinds_from_letters("t"),
}


def test_derivation_produces_exactly_the_expected_pairs():
    raw = derive_goal_af(cleaner_general_af())
    assert conflict_pairs(raw) == EXPECTED_CONFLICT_PAIRS
    # derivation is symmetric
    assert all((b, a) in raw.attacks for (a, b) in raw.attacks)


def test_derived_incompatibility_labels():
    raw = derive_goal_af(cleaner_general_af())
    for pair, labels in EXPECTED_LABELS.items():
        a, b = sorted(pair)
        assert raw.attacks[(a, b)] == labels
        assert raw.attacks[(b, a)] == labels


def test_no_plan_attacks_means_no_goal_attacks():
    gaf = GeneralAF(CLEANER_GOALS, cleaner_general_af().args, {})
    raw = derive_goal_af(gaf)
    assert raw.attacks == {}


def test_goal_without_plans_gets_no_attacks():
    goals = CLEANER_GOALS + (GoalDecl("g6", "idle()", Fraction(1, 100)),)
    gaf = GeneralAF(goals, cleaner_general_af().args, cleaner_general_af().attacks)
    raw = derive_goal_af(gaf)
    assert not any("g6" in pair for pair in raw.attacks)


def test_partial_plan_conflicts_do_not_lift():
    # Two plans for ga, only one of which conflicts with gb's plan.
    goals = (GoalDecl("ga", "a()", Fraction(1, 2)), GoalDecl("gb", "b()", Fraction(1, 3)))
    args = (
        InstrumentalArgDecl("P1", "ga"),
        InstrumentalArgDecl("P2", "ga"),
        InstrumentalArgDecl("Q", "gb"),
    )
    attacks = {
        ("P1", "Q"): kinds_from_letters("t"),
        ("Q", "P1"): kinds_from_letters("t"),
    }
    raw = derive_goal_af(GeneralAF(goals, args, attacks))
    assert raw.attacks == {}


def test_derivation_matches_the_definition():
    rng = random.Random(14)
    lifted = unlifted = 0
    for _ in range(300):
        gaf = random_loose_general_af(rng)
        raw = derive_goal_af(gaf)
        assert raw.attacks == derive_brute(gaf)
        assert raw.pref == {g.id: g.preference for g in gaf.goals}
        planned = len({a.claim for a in gaf.args} & raw.pref.keys())
        lifted += len(raw.attacks)
        unlifted += planned * (planned - 1) - len(raw.attacks)
    assert lifted > 100 and unlifted > 100  # goal pairs of both outcomes occur


def test_successful_attacks_match_worked_example():
    filtered = apply_successful_attacks(derive_goal_af(cleaner_general_af()))
    # labels carried over unchanged
    assert filtered.attacks == {
        ("g3", "g2"): kinds_from_letters("s"),
        ("g1", "g4"): kinds_from_letters("tr"),
        ("g3", "g4"): kinds_from_letters("t"),
        ("g2", "g4"): kinds_from_letters("tr"),
    }


def test_equal_preference_keeps_both_directions():
    goals = (GoalDecl("ga", "a()", Fraction(1, 2)), GoalDecl("gb", "b()", Fraction(1, 2)))
    args = (InstrumentalArgDecl("P", "ga"), InstrumentalArgDecl("Q", "gb"))
    attacks = {
        ("P", "Q"): kinds_from_letters("t"),
        ("Q", "P"): kinds_from_letters("t"),
    }
    filtered = apply_successful_attacks(derive_goal_af(GeneralAF(goals, args, attacks)))
    t = kinds_from_letters("t")
    assert filtered.attacks == {("ga", "gb"): t, ("gb", "ga"): t}


def test_fixture_preference_orderings_hold():
    pref = {g.id: g.preference for g in CLEANER_GOALS}
    assert pref["g3"] > pref["g2"]
    assert pref["g1"] > pref["g4"]
    assert pref["g2"] > pref["g4"]
    assert pref["g3"] > pref["g4"]


def test_filtering_is_idempotent():
    rng = random.Random(29)
    for _ in range(100):
        filtered = apply_successful_attacks(random_goal_af(rng, max_goals=10))
        again = apply_successful_attacks(filtered)
        # A graph compares by identity, so its two fields are compared.
        assert (again.pref, again.attacks) == (filtered.pref, filtered.attacks)


@pytest.mark.parametrize("pairs, message", [
    ([("a", "x")], "attack (a, x): unknown node 'x'"),
    ([("x", "a")], "attack (x, a): unknown node 'x'"),
    ([("a", "x"), ("x", "a")], "attack (a, x): unknown node 'x'"),
    ([("b", "a"), ("a", "b"), ("y", "x")], "attack (y, x): unknown node 'y'"),
], ids=["target", "attacker", "both-directions", "after-known-pairs"])
def test_an_attack_on_an_undeclared_goal_is_refused_as_select_refuses_it(pairs, message):
    # The graph refuses it when built, so filtering, selection and belief
    # generation never meet it.
    pref = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    attacks = dict.fromkeys(pairs, kinds_from_letters("t"))
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        GoalAF(pref, attacks)


def test_a_self_attack_is_refused_when_the_graph_is_built():
    with pytest.raises(InputError, match="^self-attack on 'a' is not allowed$"):
        GoalAF({"a": Fraction(1, 2)}, {("a", "a"): kinds_from_letters("t")})


def test_filtering_is_monotone_and_preserves_conflict_pairs():
    rng = random.Random(7)
    for _ in range(50):
        raw = random_goal_af(rng, max_goals=10)
        filtered = apply_successful_attacks(raw)
        assert filtered.attacks.items() <= raw.attacks.items()
        assert conflict_pairs(filtered) == conflict_pairs(raw)


def test_filtering_invariant_under_monotone_rescaling():
    rng = random.Random(11)
    for _ in range(50):
        raw = random_goal_af(rng, max_goals=10)
        halved = GoalAF({g: p / 2 for g, p in raw.pref.items()}, raw.attacks)
        assert (
            apply_successful_attacks(raw).attacks
            == apply_successful_attacks(halved).attacks
        )


def test_goals_scale_and_weights_are_what_their_definitions_give():
    # A graph computes them once, when built: its sorted goals, the LCM of
    # the preferences' denominators, and each preference times that LCM.
    rng = random.Random(53)
    for _ in range(100):
        raw = random_goal_af(rng, max_goals=12)
        ids = rng.sample(raw.goals, len(raw.goals))
        pref = {g: Fraction(rng.randint(0, 60), rng.randint(1, 60)) for g in ids}
        for gaf in (GoalAF(pref, raw.attacks), apply_successful_attacks(GoalAF(pref, raw.attacks))):
            scale = math.lcm(*(p.denominator for p in pref.values()))
            assert gaf.goals == tuple(sorted(pref))
            assert gaf.scale == scale
            assert gaf.weights == {g: p.numerator * scale // p.denominator
                                   for g, p in pref.items()}
            assert not hasattr(gaf, "__dict__")
