"""Goal-level conflict graph: derivation from the plan level and filtering.

A goal attacks another goal only when *every* plan for the first conflicts
with *every* plan for the second; the conflict kinds of all those plan
pairs are unioned into the goal pair's label.  Preference then breaks the
symmetry: an attack survives filtering only if its source is at least as
preferred as its target, so strictly dominated directions disappear while
equal-preference pairs keep both.  Filtering a filtered graph changes
nothing, and selection reads only which pairs conflict, so it answers the
same on a raw graph as on its filtered one.  The pipeline reads every
graph's sorted goals and integer weights, so a `GoalAF` computes them
once, when it is built.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, Mapping
from fractions import Fraction
from itertools import chain, combinations, product, starmap
from operator import eq

from .errors import InputError
from .instrumental import GeneralAF, IncompatibilityKind


def check_attacks(nodes: Iterable[str], attacks: Collection[tuple[str, str]]) -> None:
    """Refuse an attack on an unknown node or on itself, naming the least one."""
    node_set = set(nodes)
    # A valid graph, the common case, is checked without sorting.
    if node_set.issuperset(chain.from_iterable(attacks)) and not any(starmap(eq, attacks)):
        return
    for attacker, target in sorted(attacks):
        if attacker not in node_set:
            raise InputError(f"attack ({attacker}, {target}): unknown node {attacker!r}")
        if target not in node_set:
            raise InputError(f"attack ({attacker}, {target}): unknown node {target!r}")
        if attacker == target:
            raise InputError(f"self-attack on {attacker!r} is not allowed")


class GoalAF:
    """Goal preferences and goal-level attacks with their conflict kinds.

    `pref` maps each goal to its preference, and `goals` lists its keys in
    sorted order; `attacks` maps each (attacker, target) pair to its
    conflict-kind labels.  An attack on an undeclared goal or on itself is
    refused when the graph is built, naming the least such attack.
    `weights` holds each preference times `scale`, the LCM of their
    denominators: integers that compare and add as the preferences do.
    """

    __slots__ = ("pref", "attacks", "goals", "scale", "weights")

    def __init__(self, pref: Mapping[str, Fraction],
                 attacks: Mapping[tuple[str, str], frozenset[IncompatibilityKind]]) -> None:
        self.pref = pref
        self.attacks = attacks
        self.goals = tuple(sorted(pref))
        check_attacks(self.goals, attacks.keys())
        self.scale = math.lcm(*(p.denominator for p in pref.values()))
        self.weights = {g: p.numerator * (self.scale // p.denominator) for g, p in pref.items()}


def derive_goal_af(gaf: GeneralAF) -> GoalAF:
    """Lift the instrumental framework to the goal level, unfiltered.

    A goal with no plans participates in no attacks: the all-plan-pairs
    condition is only applied between goals that both have at least one
    instrumental argument.  Plans claiming an undeclared goal are ignored.
    A plan pair conflicts when an attack in either direction carries a
    label, as every attack of a valid framework does.
    """
    plans: dict[str, list[str]] = {g.id: [] for g in gaf.goals}
    for arg in gaf.args:
        if arg.claim in plans:
            plans[arg.claim].append(arg.id)

    get = gaf.attacks.get
    attacks: dict[tuple[str, str], frozenset[IncompatibilityKind]] = {}
    for g, h in combinations(sorted(goal for goal, mine in plans.items() if mine), 2):
        met = set()  # the label sets seen, and None for an undeclared direction
        for a, b in product(plans[g], plans[h]):
            forward, backward = get((a, b)), get((b, a))
            if not (forward or backward):  # an unattacked plan pair: no goal attack
                break
            met.add(forward)
            met.add(backward)
        else:
            met.discard(None)
            # One label set, the usual case, is kept as the object it is.
            kinds = met.pop() if len(met) == 1 else frozenset().union(*met)
            attacks[(g, h)] = attacks[(h, g)] = kinds

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
