"""Goal-level conflict graph: derivation from the plan level and filtering.

A goal attacks another goal only when *every* plan for the first conflicts
with *every* plan for the second; the conflict kinds of all those plan
pairs are unioned into the goal pair's label.  Preference then breaks the
symmetry: an attack survives filtering only if its source is at least as
preferred as its target, so strictly dominated directions disappear while
equal-preference pairs keep both.  Filtering a filtered graph changes
nothing, and selection reads only which pairs conflict, so it answers the
same on a raw graph as on its filtered one.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product

from .af_core import AbstractAF
from .instrumental import GeneralAF, IncompatibilityKind


@dataclass(frozen=True)
class GoalAF:
    """Goal preferences and goal-level attacks with their conflict kinds.

    `pref` maps each goal to its preference, and `goals` lists its keys in
    sorted order; `attacks` maps each (attacker, target) pair to its
    conflict-kind labels.  An attack on an undeclared goal or on itself is
    refused when the graph is built, naming the least such attack.
    `weights` holds each preference times `scale`, the LCM of their
    denominators: integers that compare and add as the preferences do.
    """

    pref: Mapping[str, Fraction]
    attacks: Mapping[tuple[str, str], frozenset[IncompatibilityKind]]

    def __post_init__(self) -> None:
        AbstractAF(self.goals, self.attacks.keys()).check()

    @cached_property
    def goals(self) -> tuple[str, ...]:
        return tuple(sorted(self.pref))

    @cached_property
    def scale(self) -> int:
        return math.lcm(*(p.denominator for p in self.pref.values()))

    @cached_property
    def weights(self) -> dict[str, int]:
        return {g: p.numerator * (self.scale // p.denominator) for g, p in self.pref.items()}


def derive_goal_af(gaf: GeneralAF) -> GoalAF:
    """Lift the instrumental framework to the goal level, unfiltered.

    A goal with no plans participates in no attacks: the all-plan-pairs
    condition is only applied between goals that both have at least one
    instrumental argument.  Plans claiming an undeclared goal are ignored.
    A plan pair conflicts when an attack in either direction carries a
    label, as every attack of a valid framework does.
    """
    goal_ids = tuple(sorted(g.id for g in gaf.goals))
    plans: dict[str, list[str]] = {g: [] for g in goal_ids}
    for arg in gaf.args:
        if arg.claim in plans:
            plans[arg.claim].append(arg.id)

    get = gaf.attacks.get
    attacks: dict[tuple[str, str], frozenset[IncompatibilityKind]] = {}
    for g, h in combinations(goal_ids, 2):
        if not plans[g] or not plans[h]:
            continue
        met = set()  # the label sets seen, and None for an undeclared direction
        for a, b in product(plans[g], plans[h]):
            forward, backward = get((a, b)), get((b, a))
            if not (forward or backward):  # an unattacked plan pair: no goal attack
                break
            met.add(forward)
            met.add(backward)
        else:
            met.discard(None)
            attacks[(g, h)] = attacks[(h, g)] = frozenset().union(*met)

    return GoalAF({g.id: g.preference for g in gaf.goals}, attacks)


def apply_successful_attacks(goal_af: GoalAF) -> GoalAF:
    """Keep an attack only when its source is not strictly less preferred.

    Strictly ordered pairs end up with a single direction (from the
    preferred goal); equal-preference pairs keep both directions.
    Preferences are compared exactly, as integer weights.
    """
    weight = goal_af.weights
    return GoalAF(goal_af.pref, {(g, h): kinds for (g, h), kinds in goal_af.attacks.items()
                                 if weight[g] >= weight[h]})
