from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from conftest import cleaner_general_af, labeled_goal_af, random_goal_af
from goalarg import (
    Belief,
    BeliefKind,
    InputError,
    apply_successful_attacks,
    comps,
    derive_goal_af,
    generate_beliefs,
    kinds_from_letters,
    select,
)


@pytest.fixture(scope="module")
def cleaner_filtered():
    return apply_successful_attacks(derive_goal_af(cleaner_general_af()))


@pytest.fixture(scope="module")
def cleaner_beliefs(cleaner_filtered):
    return generate_beliefs(cleaner_filtered, select(cleaner_filtered))


def atom(belief: Belief):
    return (belief.kind, belief.goals, belief.labels)


# The 18 beliefs of the worked example, up to identifier naming.
EXPECTED_ATOMS = {
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


def test_comps_worked_example(cleaner_filtered):
    assert comps(cleaner_filtered) == {"g5"}


def test_comps_disconnected_and_mutual():
    lonely = labeled_goal_af({"a": Fraction(1, 2), "b": Fraction(1, 3)}, set())
    assert comps(lonely) == {"a", "b"}
    duel = labeled_goal_af(
        {"a": Fraction(1, 2), "b": Fraction(1, 2)}, {("a", "b"), ("b", "a")}
    )
    assert comps(duel) == frozenset()


def pref_pairs(beliefs):
    return {b.goals for b in beliefs if b.kind is BeliefKind.PREF}


def test_pref_beliefs_worked_example(cleaner_beliefs):
    assert pref_pairs(cleaner_beliefs) == {
        ("g3", "g2"), ("g1", "g4"), ("g3", "g4"), ("g2", "g4"),
    }


def test_pref_beliefs_symmetric_and_single():
    sym = labeled_goal_af(
        {"a": Fraction(1, 2), "b": Fraction(1, 2)}, {("a", "b"), ("b", "a")}
    )
    assert pref_pairs(generate_beliefs(sym, select(sym))) == set()
    one = labeled_goal_af({"a": Fraction(1, 2), "b": Fraction(1, 3)}, {("a", "b")})
    assert pref_pairs(generate_beliefs(one, select(one))) == {("a", "b")}


def test_generate_beliefs_refuses_a_raw_graph_with_strict_preferences():
    raw = derive_goal_af(cleaner_general_af())
    with pytest.raises(InputError, match=re.escape(
        "attack (g1, g4) is kept both ways between goals of unequal preference"
    )):
        generate_beliefs(raw, select(raw))


@pytest.mark.parametrize("pref, pairs, message", [
    ({"a": Fraction(1, 2), "b": Fraction(1, 4)}, {("a", "b"), ("b", "a")},
     "attack (a, b) is kept both ways between goals of unequal preference"),
    ({"a": Fraction(1, 2), "b": Fraction(1, 4)}, {("b", "a")},
     "attack (b, a) is kept one way from a goal not strictly preferred"),
    ({"a": Fraction(1, 2), "b": Fraction(1, 2)}, {("b", "a")},
     "attack (b, a) is kept one way from a goal not strictly preferred"),
    ({"a": Fraction(1, 2), "b": Fraction(1, 4), "c": Fraction(1, 8)},
     {("a", "b"), ("c", "b"), ("a", "c"), ("c", "a")},
     "attack (a, c) is kept both ways between goals of unequal preference"),
], ids=["both-ways-unequal", "one-way-dominated", "one-way-equal", "least-of-two"])
def test_an_unfiltered_graph_is_refused_naming_its_least_offending_attack(pref, pairs, message):
    gaf = labeled_goal_af(pref, pairs)
    with pytest.raises(InputError, match=f"^{re.escape(message)}: belief generation needs a "
                                         "preference-filtered goal graph$"):
        generate_beliefs(gaf, select(gaf))


def test_preference_beliefs_agree_with_the_weights():
    # Hand-built graphs whose conflicts are kept in any direction, or as
    # filtering keeps them: belief generation refuses exactly the unfiltered
    # ones, and each preference belief it makes is true.
    rng = random.Random(31)
    refused = accepted = 0
    for _ in range(300):
        goals = [f"g{i}" for i in range(rng.randint(2, 6))]
        pref = {g: Fraction(rng.randint(1, 4), 4) for g in goals}
        pairs = set()
        for i, g in enumerate(goals):
            for h in goals[i + 1:]:
                pairs |= rng.choice([set(), {(g, h)}, {(h, g)}, {(g, h), (h, g)}])
        kept = set(apply_successful_attacks(
            labeled_goal_af(pref, pairs | {(h, g) for g, h in pairs})).attacks)
        if rng.random() < 0.5:  # as often, the filtered graph of the same conflicts
            pairs = kept
        gaf = labeled_goal_af(pref, pairs)
        is_filtered = pairs == kept
        try:
            beliefs = generate_beliefs(gaf, select(gaf))
        except InputError:
            assert not is_filtered
            refused += 1
            continue
        assert is_filtered
        accepted += 1
        for b in beliefs:
            if b.kind is BeliefKind.PREF:
                assert pref[b.goals[0]] > pref[b.goals[1]]
            elif b.kind is BeliefKind.NOT_PREF:
                assert pref[b.goals[0]] < pref[b.goals[1]]
            elif b.kind is BeliefKind.EQ_PREF:
                assert pref[b.goals[0]] == pref[b.goals[1]]
    assert refused > 50 and accepted > 50


def test_worked_example_beliefs_exactly(cleaner_beliefs):
    assert len(cleaner_beliefs) == 18
    assert {atom(b) for b in cleaner_beliefs} == EXPECTED_ATOMS
    # identifiers are consecutive, starting at b1
    assert [b.index for b in cleaner_beliefs] == list(range(1, 19))


def test_empty_framework_yields_no_beliefs():
    empty = labeled_goal_af({}, set())
    assert generate_beliefs(empty, select(empty)) == ()


def test_isolated_pursued_goal():
    solo = labeled_goal_af({"g": Fraction(1, 2)}, set())
    beliefs = generate_beliefs(solo, select(solo))
    assert {atom(b) for b in beliefs} == {
        (BeliefKind.NOT_INCOMP, ("g",), None),
        (BeliefKind.MAX_UTIL, ("g",), None),
    }


def test_equal_preference_pair_generates_both_directions():
    labels = kinds_from_letters("t")
    duel = labeled_goal_af(
        {"a": Fraction(1, 2), "b": Fraction(1, 2)},
        {("a", "b"), ("b", "a")},
        labels=labels,
    )
    beliefs = generate_beliefs(duel, select(duel))
    atoms = {atom(b) for b in beliefs}
    assert (BeliefKind.EQ_PREF, ("a", "b"), None) in atoms
    assert (BeliefKind.EQ_PREF, ("b", "a"), None) in atoms
    assert (BeliefKind.INCOMPAT, ("a", "b"), labels) in atoms
    assert (BeliefKind.INCOMPAT, ("b", "a"), labels) in atoms
    assert not any(b.kind is BeliefKind.PREF for b in beliefs)


def test_pref_beliefs_come_in_ordered_pairs(cleaner_beliefs):
    prefs = {b.goals for b in cleaner_beliefs if b.kind is BeliefKind.PREF}
    not_prefs = {b.goals for b in cleaner_beliefs if b.kind is BeliefKind.NOT_PREF}
    assert not_prefs == {(h, g) for (g, h) in prefs}
    assert not any((h, g) in prefs for (g, h) in prefs)


def test_belief_set_cardinality_formula():
    rng = random.Random(23)
    for _ in range(60):
        filtered = apply_successful_attacks(random_goal_af(rng, max_goals=10))
        beliefs = generate_beliefs(filtered, select(filtered))
        n_eval = sum(1 for (g, h) in filtered.attacks if (h, g) not in filtered.attacks)
        n_eq = sum(1 for (g, h) in filtered.attacks if (h, g) in filtered.attacks)
        expected = (
            len(comps(filtered))
            + 2 * n_eval
            + n_eq
            + len(filtered.attacks)
            + len(filtered.goals)
        )
        assert len(beliefs) == expected
        # no belief appears along with its negation
        atoms = {atom(b) for b in beliefs}
        mirror = {
            BeliefKind.PREF: BeliefKind.NOT_PREF,
            BeliefKind.MAX_UTIL: BeliefKind.NOT_MAX_UTIL,
        }
        for kind, goals, _labels in atoms:
            if kind in mirror:
                assert (mirror[kind], goals, None) not in atoms


def test_selection_must_belong_to_framework(cleaner_filtered):
    foreign = select(labeled_goal_af({"zz": Fraction(1, 2)}, set()))
    with pytest.raises(InputError):
        generate_beliefs(cleaner_filtered, foreign)


def test_belief_text_forms(cleaner_beliefs):
    by_atom = {atom(b): str(b) for b in cleaner_beliefs}
    assert by_atom[(BeliefKind.NOT_INCOMP, ("g5",), None)] == "¬incomp(g5)"
    assert (
        by_atom[(BeliefKind.INCOMPAT, ("g1", "g4"), kinds_from_letters("tr"))]
        == "incompat(g1,g4,'t,r')"
    )
    assert by_atom[(BeliefKind.NOT_MAX_UTIL, ("g2",), None)] == "¬max_util(g2)"
