"""Abstract argumentation frameworks and their extension-based semantics.

A framework is a directed attack graph over opaque node identifiers.  The
semantics here (conflict-free, complete, grounded, preferred, stable)
are the classical extension-based ones.  Goal selection uses the
weighted conflict-free walk; `explain` reads explanatory frameworks,
under a `Semantics` member, in closed form, tested against the rest.

Everything is a pure function over immutable values.  Each framework
indexes its attackers once, on first use, and every semantics reads that
index instead of rescanning the attack set.  Conflict-free sets come from
one bitmask walk over the sorted node order with integer scores; it is
exhaustive, which is fine at deliberation scale (a few dozen nodes), and
results come back in a fixed lexicographic order so golden tests are
stable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import InputError


class Semantics(Enum):

    GROUNDED = "grounded"
    COMPLETE = "complete"
    PREFERRED = "preferred"
    STABLE = "stable"


@dataclass(frozen=True)
class AbstractAF:
    """A directed attack graph: `attacks` holds (attacker, target) pairs."""

    nodes: tuple[str, ...]
    attacks: frozenset[tuple[str, str]]

    @classmethod
    def of(cls, nodes: Iterable[str], attacks: Iterable[tuple[str, str]] = ()) -> "AbstractAF":
        """Build a validated framework; nodes are kept in sorted order."""
        af = cls(tuple(sorted(set(nodes))), frozenset(attacks))
        af.check()
        return af

    def check(self) -> None:
        node_set = set(self.nodes)
        for attacker, target in sorted(self.attacks):
            if attacker not in node_set:
                raise InputError(f"attack ({attacker}, {target}): unknown node {attacker!r}")
            if target not in node_set:
                raise InputError(f"attack ({attacker}, {target}): unknown node {target!r}")
            if attacker == target:
                raise InputError(f"self-attack on {attacker!r} is not allowed")

    @cached_property
    def _attackers(self) -> dict[str, frozenset[str]]:
        found: dict[str, set[str]] = {n: set() for n in self.nodes}
        for attacker, target in self.attacks:
            found[target].add(attacker)
        return {n: frozenset(a) for n, a in found.items()}

    def attackers_of(self, node: str) -> frozenset[str]:
        attackers = self._attackers.get(node)
        if attackers is None:
            raise InputError(f"unknown node {node!r}")
        return attackers


def max_weight_conflict_free(
    af: AbstractAF, weights: Mapping[str, int]
) -> tuple[int, int, list[frozenset[str]]]:
    """Count the conflict-free sets and find those of greatest total weight.

    One pre-order walk over the sorted node order visits every subset with
    no internal attack in either direction, the empty set first.  The
    current set and the nodes still free to join it are integer bitmasks,
    and each set's integer score is its parent's plus one weight, so a set
    costs one add and one compare.  Returns (number of sets, best score,
    the sets scoring it); only those are built as frozensets, in the
    walk's lexicographic order.
    """
    order = af.nodes
    index = {node: i for i, node in enumerate(order)}
    clash = [1 << i for i in range(len(order))]
    for attacker, target in af.attacks:
        i, j = index[attacker], index[target]
        clash[i] |= 1 << j
        clash[j] |= 1 << i
    # Per node bit: the mask of nodes that stay free once it joins, and its weight.
    step = {1 << i: (~clash[i], weights[node]) for i, node in enumerate(order)}
    count, best, maxima = 1, 0, [0]  # the empty set, scoring 0, comes first

    # Recursion depth is the size of the current set.  Reaching depth d
    # proves a conflict-free set of d nodes, whose 2**d subsets are all
    # conflict-free: a walk that hits the recursion limit could never end.
    def extend(free: int, members: int, score: int) -> None:
        nonlocal count, best, maxima
        while free:
            bit = free & -free
            free ^= bit
            keep, weight = step[bit]
            child, child_score = members | bit, score + weight
            count += 1
            if child_score > best:
                best, maxima = child_score, [child]
            elif child_score == best:
                maxima.append(child)
            if free & keep:
                extend(free & keep, child, child_score)

    try:
        extend((1 << len(order)) - 1, 0, 0)
    except RecursionError:
        raise InputError(f"too many of the {len(order)} nodes are free of conflict to walk "
                         "their conflict-free sets, which double with each such node") from None
    finally:
        del extend  # it holds itself through its cell: free it without the cyclic collector
    return count, best, [
        frozenset(node for i, node in enumerate(order) if mask >> i & 1) for mask in maxima
    ]


def conflict_free_sets(af: AbstractAF) -> list[frozenset[str]]:
    """All subsets with no internal attack in either direction, the empty
    set included, in lexicographic order: the weighted walk with every
    weight 0, where every set ties for best."""
    return max_weight_conflict_free(af, dict.fromkeys(af.nodes, 0))[2]


def defends(af: AbstractAF, s: Iterable[str], a: str) -> bool:
    """True iff every attacker of `a` is attacked by some member of `s`."""
    members = frozenset(s)
    unknown = members - af._attackers.keys()
    if unknown:
        raise InputError(f"unknown node {next(iter(unknown))!r}")
    return all(not af._attackers[x].isdisjoint(members) for x in af.attackers_of(a))


def characteristic(af: AbstractAF, s: Iterable[str]) -> frozenset[str]:
    """F(S) = the set of nodes defended by S."""
    members = frozenset(s)
    return frozenset(a for a in af.nodes if defends(af, members, a))


def grounded_extension(af: AbstractAF) -> frozenset[str]:
    """Least fixpoint of the defense function (unique, possibly empty)."""
    current: frozenset[str] = frozenset()
    while True:
        nxt = characteristic(af, current)
        if nxt == current:
            return current
        current = nxt


def complete_extensions(af: AbstractAF) -> list[frozenset[str]]:
    """Conflict-free fixpoints of the defense function."""
    return [s for s in conflict_free_sets(af) if s == characteristic(af, s)]


def preferred_extensions(af: AbstractAF) -> list[frozenset[str]]:
    """Maximal (by set inclusion) complete extensions."""
    complete = complete_extensions(af)
    return [s for s in complete if not any(s < other for other in complete)]


def stable_extensions(af: AbstractAF) -> list[frozenset[str]]:
    """Conflict-free sets attacking every outside node; may be empty."""
    return [
        s for s in conflict_free_sets(af)
        if all(not af.attackers_of(n).isdisjoint(s) for n in af.nodes if n not in s)
    ]
