"""Selecting the pursued goals: maximum-utility conflict-free sets.

Every conflict-free subset of the goal graph (the empty set included) is
scored by a utility function over preferences; the pursued set is the
best one.  A set's conflict-freeness reads only which pairs conflict, so
a raw and a filtered graph give the same answer.  All maxima are
reported, with the lexicographically least (by sorted goal ids) as the
deterministic primary choice, and ties left visible so explanations can
mention them.

Utilities are exact rationals end to end: `af_core` scores sets by the
goal graph's integer weights, with uncounted goals at 0, which order sets
exactly as the rational sums do.  A count too long to print (2**n for n
unconflicted goals, past about 14,280 of them) is refused, as preferences
that cannot be printed are.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import af_core
from .errors import InputError
from .goal_graph import GoalAF
from .instrumental import DIGITS_BOUND


class UtilityVariant(Enum):
    """Which preferences a set's utility sums: every goal's, or the main
    goals' only (sub-goals then count 0)."""

    SUM_ALL = "sum_all"
    SUM_MAIN = "sum_main"


@dataclass(frozen=True)
class SelectionResult:
    pursued: frozenset[str]
    winning_utility: Fraction
    all_max_extensions: tuple[frozenset[str], ...]
    cf_count: int


def select(
    gaf_sc: GoalAF,
    utility: UtilityVariant = UtilityVariant.SUM_ALL,
    main_goals: frozenset[str] | None = None,
) -> SelectionResult:
    """Count the conflict-free goal sets and return the utility maxima."""
    weights = gaf_sc.weights
    if utility is UtilityVariant.SUM_MAIN:
        if main_goals is None:
            raise InputError("the main-goals utility needs the set of main goals")
        unknown = sorted(main_goals - set(gaf_sc.goals))
        if unknown:
            raise InputError(f"main goals not declared: {', '.join(unknown)}")
        weights = {g: w if g in main_goals else 0 for g, w in weights.items()}

    af = af_core.AbstractAF(gaf_sc.goals, gaf_sc.attacks.keys())  # checked when built
    count, best, maxima = af_core.max_weight_conflict_free(af, weights)
    if count >= DIGITS_BOUND:  # reports print the count
        raise InputError("the number of conflict-free goal sets has more digits "
                         "than can be printed")
    return SelectionResult(
        pursued=maxima[0],
        winning_utility=Fraction(best, gaf_sc.scale),
        all_max_extensions=tuple(maxima),
        cf_count=count,
    )
