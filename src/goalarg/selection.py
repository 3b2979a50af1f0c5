"""Selecting the pursued goals: maximum-utility conflict-free sets.

Every conflict-free subset of the filtered goal graph (the empty set
included) is scored by a utility function over preferences; the pursued
set is the best one.  All maxima are reported, with the lexicographically
least (by sorted goal ids) as the deterministic primary choice, and ties
left visible so explanations can mention them.

Utilities are exact rationals end to end, so the argmax is never subject
to floating-point noise.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import af_core
from .errors import InputError
from .goal_graph import GoalAF, Stage


class UtilityVariant(Enum):

    SUM_ALL = "sum_all"
    SUM_MAIN = "sum_main"


@dataclass(frozen=True)
class SelectionResult:
    pursued: frozenset[str]
    winning_utility: Fraction
    all_max_extensions: tuple[frozenset[str], ...]
    cf_count: int


def utility_sum_all(extension: Iterable[str], pref: Mapping[str, Fraction]) -> Fraction:
    """Sum of the preference values of every goal in the extension."""
    return sum((pref[g] for g in extension), start=Fraction(0))


def utility_sum_main(
    extension: Iterable[str],
    pref: Mapping[str, Fraction],
    main_goals: frozenset[str],
) -> Fraction:
    """Sum of preferences over main goals only; sub-goals contribute nothing."""
    return sum((pref[g] for g in extension if g in main_goals), start=Fraction(0))


def select(
    gaf_sc: GoalAF,
    utility: UtilityVariant = UtilityVariant.SUM_ALL,
    main_goals: frozenset[str] | None = None,
) -> SelectionResult:
    """Enumerate conflict-free goal sets and return the utility maxima."""
    if gaf_sc.stage is not Stage.FILTERED:
        raise InputError("selection expects a successful-attack-filtered goal framework")
    if utility is UtilityVariant.SUM_MAIN:
        if main_goals is None:
            raise InputError("the main-goals utility needs the set of main goals")
        unknown = sorted(main_goals - set(gaf_sc.goals))
        if unknown:
            raise InputError(f"main goals not declared: {', '.join(unknown)}")

    af = af_core.AbstractAF.of(gaf_sc.goals, gaf_sc.attacks)
    candidates = af_core.conflict_free_sets(af)

    def score(s: frozenset[str]) -> Fraction:
        if utility is UtilityVariant.SUM_MAIN:
            return utility_sum_main(s, gaf_sc.pref, main_goals or frozenset())
        return utility_sum_all(s, gaf_sc.pref)

    scores = [score(s) for s in candidates]
    best = max(scores, default=Fraction(0))
    maxima = tuple(s for s, value in zip(candidates, scores) if value == best)
    return SelectionResult(
        pursued=maxima[0],
        winning_utility=best,
        all_max_extensions=maxima,
        cf_count=len(candidates),
    )
