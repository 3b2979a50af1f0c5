from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from conftest import cleaner_general_af, labeled_goal_af, random_goal_af
from goalarg import (
    GoalAF,
    InputError,
    Stage,
    UtilityVariant,
    apply_successful_attacks,
    derive_goal_af,
    select,
)
from oracles import utility_sum_all, utility_sum_main

FIXTURE_PREF = {
    "g1": Fraction("0.8"),
    "g2": Fraction("0.6"),
    "g3": Fraction("0.7"),
    "g4": Fraction("0.5"),
    "g5": Fraction("0.9"),
}


@pytest.fixture(scope="module")
def cleaner_filtered():
    return apply_successful_attacks(derive_goal_af(cleaner_general_af()))


def test_worked_example_selection(cleaner_filtered):
    result = select(cleaner_filtered)
    assert result.cf_count == 14
    assert result.pursued == {"g1", "g3", "g5"}
    assert result.winning_utility == Fraction("2.4")
    assert result.all_max_extensions == (frozenset({"g1", "g3", "g5"}),)


def test_worked_example_against_oracle(cleaner_filtered):
    maxima, best, count = oracles.max_utility_brute(
        cleaner_filtered.goals, cleaner_filtered.attacks, cleaner_filtered.pref
    )
    result = select(cleaner_filtered)
    assert set(result.all_max_extensions) == maxima
    assert result.winning_utility == best
    assert result.cf_count == count


def test_single_goal_is_pursued():
    result = select(labeled_goal_af({"g": Fraction(1, 3)}, set()))
    assert result.pursued == {"g"}
    assert result.cf_count == 2


def test_two_conflicting_goals_higher_preference_wins():
    pref = {"a": Fraction("0.9"), "b": Fraction("0.4")}
    result = select(labeled_goal_af(pref, {("a", "b")}))
    assert result.cf_count == 3
    assert result.pursued == {"a"}
    assert result.all_max_extensions == (frozenset({"a"}),)


def test_empty_goal_set():
    result = select(labeled_goal_af({}, set()))
    assert result.pursued == frozenset()
    assert result.cf_count == 1
    assert result.winning_utility == 0


def test_utility_sum_all():
    assert utility_sum_all([], FIXTURE_PREF) == 0
    assert utility_sum_all(["g1", "g3", "g5"], FIXTURE_PREF) == Fraction("2.4")
    assert utility_sum_all(["g5"], FIXTURE_PREF) == Fraction("0.9")


def test_utility_sum_main():
    main = frozenset({"g1", "g5"})
    assert utility_sum_main(["g2", "g3"], FIXTURE_PREF, main) == 0
    assert utility_sum_main(["g1", "g3", "g5"], FIXTURE_PREF, main) == Fraction("1.7")
    everything = frozenset(FIXTURE_PREF)
    assert utility_sum_main(["g1", "g3", "g5"], FIXTURE_PREF, everything) == utility_sum_all(
        ["g1", "g3", "g5"], FIXTURE_PREF
    )


def test_main_goal_variant_on_fixture(cleaner_filtered):
    result = select(
        cleaner_filtered, UtilityVariant.SUM_MAIN, frozenset({"g1", "g5"})
    )
    assert result.winning_utility == Fraction("1.7")
    assert all(
        {"g1", "g5"} <= ext for ext in result.all_max_extensions
    )
    # lexicographically least maximum is picked as the primary choice
    assert result.pursued == min(
        result.all_max_extensions, key=lambda s: tuple(sorted(s))
    )


def test_select_requires_filtered_stage():
    raw = derive_goal_af(cleaner_general_af())
    with pytest.raises(InputError):
        select(raw)


def test_sum_main_requires_main_goals(cleaner_filtered):
    with pytest.raises(InputError):
        select(cleaner_filtered, UtilityVariant.SUM_MAIN)
    with pytest.raises(InputError):
        select(cleaner_filtered, UtilityVariant.SUM_MAIN, frozenset({"gX"}))


def test_argmax_family_matches_oracle_on_random_scenarios():
    rng = random.Random(13)
    for _ in range(120):
        filtered = apply_successful_attacks(random_goal_af(rng, max_goals=10))
        result = select(filtered)
        maxima, best, count = oracles.max_utility_brute(
            filtered.goals, filtered.attacks, filtered.pref
        )
        assert set(result.all_max_extensions) == maxima
        assert result.winning_utility == best
        assert result.cf_count == count
        assert result.pursued in maxima


def test_conflict_free_extra_goal_joins_every_maximum():
    rng = random.Random(17)
    for _ in range(40):
        filtered = apply_successful_attacks(random_goal_af(rng, max_goals=8))
        before = select(filtered)
        extra = "zz_new"
        grown = GoalAF(
            {**filtered.pref, extra: Fraction(1, 4)}, filtered.attacks, Stage.FILTERED
        )
        after = select(grown)
        assert after.cf_count == 2 * before.cf_count
        assert all(extra in ext for ext in after.all_max_extensions)
        assert set(after.all_max_extensions) == {
            ext | {extra} for ext in before.all_max_extensions
        }


def test_argmax_family_invariant_under_positive_scaling():
    rng = random.Random(19)
    for _ in range(40):
        filtered = apply_successful_attacks(random_goal_af(rng, max_goals=8))
        # scaling by 1/3 keeps every preference inside (0, 1]
        scaled = GoalAF(
            {g: p / 3 for g, p in filtered.pref.items()}, filtered.attacks, Stage.FILTERED
        )
        assert set(select(filtered).all_max_extensions) == set(
            select(scaled).all_max_extensions
        )


def random_filtered(rng, n):
    """A filtered goal graph of n goals: preferences over mixed denominators
    (so the integer scaling needs a real LCM), and each conflict kept in one
    or both directions, as preference filtering leaves it."""
    goals = tuple(f"g{i:02d}" for i in range(n))
    pref = {}
    for g in goals:
        d = rng.choice([1, 2, 3, 7, 10, 20])
        pref[g] = Fraction(rng.randint(1, d), d)
    p = rng.choice([0.0, 0.15, 0.3, 0.6])
    attacks = set()
    for i, g in enumerate(goals):
        for h in goals[i + 1:]:
            if rng.random() < p:
                attacks |= rng.choice([{(g, h)}, {(h, g)}, {(g, h), (h, g)}])
    return labeled_goal_af(pref, attacks)


def test_select_matches_power_set_oracle_under_both_utilities():
    rng = random.Random(23)
    for k in range(200):
        filtered = random_filtered(rng, 0 if k == 0 else rng.randint(0, 12))
        goals = filtered.goals
        # zero, some and all goals main: zero-weight goals make ties
        main = frozenset(rng.choice([(), goals, rng.sample(goals, len(goals) // 2)]))
        for result, expected in (
            (select(filtered), oracles.select_brute(goals, filtered.attacks, filtered.pref)),
            (
                select(filtered, UtilityVariant.SUM_MAIN, main),
                oracles.select_brute(goals, filtered.attacks, filtered.pref, main),
            ),
        ):
            assert type(result.winning_utility) is Fraction
            got = (result.pursued, result.winning_utility, result.all_max_extensions,
                   result.cf_count)
            assert got == expected


def random_components(rng, n):
    """A filtered goal graph of n goals split into one to four components,
    whose goals interleave in name order.  Preferences come from two values,
    so many goals tie, and each component's conflicts are sparse or dense."""
    goals = [f"g{i:02d}" for i in range(n)]
    rng.shuffle(goals)
    k = rng.randint(1, 4)
    parts = [goals[i::k] for i in range(k)]
    pref = dict.fromkeys(goals, Fraction(1, 2))
    for g in rng.sample(goals, rng.randint(0, n)):
        pref[g] = Fraction(1, 4)
    attacks = set()
    for part in parts:
        p = rng.choice([0.1, 0.2, 0.35, 0.6])
        for i, g in enumerate(part):
            for h in part[i + 1:]:
                if rng.random() < p:
                    attacks |= rng.choice([{(g, h)}, {(h, g)}, {(g, h), (h, g)}])
    return labeled_goal_af(pref, attacks)


def test_select_by_components_matches_power_set_oracle():
    # Components multiply counts and add scores; zero-weight goals under
    # sum_main make their maxima multiply too, and the product must come
    # out in the order of sorted ids.
    rng = random.Random(29)
    for _ in range(100):
        filtered = random_components(rng, rng.randint(1, 14))
        goals = filtered.goals
        main = frozenset(rng.sample(goals, rng.randint(0, len(goals))))
        for result, expected in (
            (select(filtered), oracles.select_brute(goals, filtered.attacks, filtered.pref)),
            (
                select(filtered, UtilityVariant.SUM_MAIN, main),
                oracles.select_brute(goals, filtered.attacks, filtered.pref, main),
            ),
        ):
            got = (result.pursued, result.winning_utility, result.all_max_extensions,
                   result.cf_count)
            assert got == expected


def test_a_count_too_long_to_print_is_refused():
    # n unconflicted goals have 2**n conflict-free sets; 2**14300 has 4,305
    # digits, past the 4,300 the interpreter converts to text.
    pref = dict.fromkeys((f"g{i:05d}" for i in range(14_300)), Fraction(1, 2))
    with pytest.raises(InputError, match="more digits than can be printed"):
        select(labeled_goal_af(pref, set()))
