"""Ground beliefs describing the goal graph and the selection outcome.

These beliefs are the vocabulary the explanatory rules fire on: which
goals are conflict-free, which goal is preferred over which, what kinds of
conflict connect each attacking pair, and who made it into the
maximum-utility set.  They live in their own store rather than being mixed
into a general belief base, which keeps explanation provenance clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .af_core import AbstractAF
from .errors import InputError
from .goal_graph import GoalAF, Stage
from .instrumental import IncompatibilityKind, format_kinds
from .selection import SelectionResult


class BeliefKind(Enum):
    __hash__ = object.__hash__  # singletons, so identity agrees with ==; Enum.__hash__ runs in Python

    NOT_INCOMP = "not_incomp"
    PREF = "pref"
    NOT_PREF = "not_pref"
    EQ_PREF = "eq_pref"
    INCOMPAT = "incompat"
    MAX_UTIL = "max_util"
    NOT_MAX_UTIL = "not_max_util"


_NEGATED = {BeliefKind.NOT_INCOMP: "incomp", BeliefKind.NOT_PREF: "pref",
            BeliefKind.NOT_MAX_UTIL: "max_util"}


@dataclass(frozen=True)
class Belief:
    """One ground fact.  Equality and hashing ignore the bookkeeping fields,
    so beliefs compare by shape alone."""

    kind: BeliefKind
    goals: tuple[str, ...]
    labels: frozenset[IncompatibilityKind] | None = None
    index: int = field(default=0, compare=False)
    provenance: str = field(default="", compare=False)

    @property
    def id(self) -> str:
        return f"b{self.index}"

    def __str__(self) -> str:
        args = ",".join(self.goals)
        if self.kind is BeliefKind.INCOMPAT:
            return f"incompat({args},'{format_kinds(self.labels or frozenset())}')"
        if self.kind in _NEGATED:
            return f"¬{_NEGATED[self.kind]}({args})"
        return f"{self.kind.value}({args})"


def comps(gaf_sc: GoalAF) -> frozenset[str]:
    """Goals with no incident attack in either direction.  An attack that
    names an undeclared goal raises the `InputError` `select` raises."""
    if gaf_sc.stage is not Stage.FILTERED:
        raise InputError("belief generation expects a filtered goal framework")
    touched = {g for pair in gaf_sc.attacks for g in pair}
    if not touched <= gaf_sc.pref.keys():
        AbstractAF.of(gaf_sc.goals, gaf_sc.attacks)  # names the goal, as in `select`
    return frozenset(g for g in gaf_sc.goals if g not in touched)


def eval_pref(gaf_sc: GoalAF) -> frozenset[tuple[str, str]]:
    """Attack pairs whose reverse is absent, i.e. decided by preference."""
    if gaf_sc.stage is not Stage.FILTERED:
        raise InputError("belief generation expects a filtered goal framework")
    return frozenset(
        (g, h) for (g, h) in gaf_sc.attacks if (h, g) not in gaf_sc.attacks
    )


def generate_beliefs(gaf_sc: GoalAF, selection: SelectionResult) -> tuple[Belief, ...]:
    """Produce the full belief set for a filtered goal graph and selection.

    Shapes, in generation order: one ¬incomp per conflict-free goal, one
    incompat per directed attack, max_util / ¬max_util partitioning the
    goals by the selection outcome, then pref plus ¬pref for each
    preference-decided pair, and eq_pref for the symmetric remainder.
    Identifiers b1, b2, ... follow this order with goal ids sorted inside
    each group.
    """
    if not selection.pursued <= set(gaf_sc.goals):
        raise InputError("selection result does not belong to this goal framework")

    beliefs: list[Belief] = []

    def add(kind: BeliefKind, goals: tuple[str, ...], provenance: str,
            labels: frozenset[IncompatibilityKind] | None = None) -> None:
        beliefs.append(Belief(kind, goals, labels, len(beliefs) + 1, provenance))

    for g in sorted(comps(gaf_sc)):
        add(BeliefKind.NOT_INCOMP, (g,), "no-conflicts")
    for pair, kinds in sorted(gaf_sc.attacks.items()):
        add(BeliefKind.INCOMPAT, pair, "conflict-kinds", kinds)
    for g in sorted(selection.pursued):
        add(BeliefKind.MAX_UTIL, (g,), "max-utility")
    for g in sorted(set(gaf_sc.goals) - selection.pursued):
        add(BeliefKind.NOT_MAX_UTIL, (g,), "non-max-utility")
    weight = gaf_sc.weights
    for (g, h) in sorted(eval_pref(gaf_sc)):
        if weight[g] > weight[h]:
            add(BeliefKind.PREF, (g, h), "preference-order")
            add(BeliefKind.NOT_PREF, (h, g), "preference-order")
    for (g, h) in sorted(gaf_sc.attacks):
        if (h, g) in gaf_sc.attacks:
            add(BeliefKind.EQ_PREF, (g, h), "equal-preference")

    return tuple(beliefs)
