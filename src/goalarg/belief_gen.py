"""Ground beliefs describing the goal graph and the selection outcome.

These beliefs are the vocabulary the explanatory rules fire on: which
goals are conflict-free, which goal is preferred over which, what kinds of
conflict connect each attacking pair, and who made it into the
maximum-utility set.  They live in their own store rather than being mixed
into a general belief base, which keeps explanation provenance clean.

A belief is an immutable named tuple: it is built with one tuple
allocation, copied with `_replace`, and compared by shape alone.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import InputError
from .goal_graph import GoalAF
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


def _equal_on_first(n: int):
    """`__eq__`, `__ne__` and `__hash__` for a named tuple that compares on
    its first n fields and equals only instances of its own class.  Tuple's
    own `__ne__` would compare every field, so it is replaced too."""

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self[:n] == other[:n]

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or self[:n] != other[:n]

    def __hash__(self):
        return hash(self[:n])

    return __eq__, __ne__, __hash__


class Belief(NamedTuple):
    """One ground fact.  Equality and hashing ignore the bookkeeping fields
    `index` and `provenance`, so beliefs compare by shape alone."""

    kind: BeliefKind
    goals: tuple[str, ...]
    labels: frozenset[IncompatibilityKind] | None = None
    index: int = 0
    provenance: str = ""

    __eq__, __ne__, __hash__ = _equal_on_first(3)

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
    """Goals with no incident attack in either direction."""
    touched = {g for pair in gaf_sc.attacks for g in pair}
    return frozenset(g for g in gaf_sc.goals if g not in touched)


def eval_pref(gaf_sc: GoalAF) -> frozenset[tuple[str, str]]:
    """Attack pairs whose reverse is absent, i.e. decided by preference."""
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

    The preference beliefs hold only of a preference-filtered graph, so
    any other is refused, naming its least attack that is kept one way
    from a goal not strictly preferred, or both ways between goals of
    unequal preference.
    """
    if not selection.pursued <= set(gaf_sc.goals):
        raise InputError("selection result does not belong to this goal framework")

    attacks = sorted(gaf_sc.attacks.items())
    weight = gaf_sc.weights
    decided, equal = [], []
    for (g, h), _ in attacks:
        mutual = (h, g) in gaf_sc.attacks
        if weight[g] == weight[h] and mutual:
            equal.append((BeliefKind.EQ_PREF, (g, h), None, "equal-preference"))
        elif weight[g] > weight[h] and not mutual:
            decided += ((BeliefKind.PREF, (g, h), None, "preference-order"),
                        (BeliefKind.NOT_PREF, (h, g), None, "preference-order"))
        else:
            how = ("both ways between goals of unequal preference" if mutual
                   else "one way from a goal not strictly preferred")
            raise InputError(f"attack ({g}, {h}) is kept {how}: belief generation "
                             "needs a preference-filtered goal graph")
    # (kind, goals, labels, provenance), numbered in one pass below.
    shapes = [(BeliefKind.NOT_INCOMP, (g,), None, "no-conflicts") for g in sorted(comps(gaf_sc))]
    shapes += [(BeliefKind.INCOMPAT, pair, kinds, "conflict-kinds") for pair, kinds in attacks]
    shapes += [(BeliefKind.MAX_UTIL, (g,), None, "max-utility") for g in sorted(selection.pursued)]
    shapes += [(BeliefKind.NOT_MAX_UTIL, (g,), None, "non-max-utility")
               for g in sorted(set(gaf_sc.goals) - selection.pursued)]
    return tuple([Belief(kind, goals, labels, index, provenance)
                  for index, (kind, goals, labels, provenance)
                  in enumerate(shapes + decided + equal, 1)])
