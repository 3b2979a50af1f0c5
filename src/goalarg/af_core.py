"""Abstract argumentation frameworks and their extension-based semantics.

A framework is a directed attack graph over opaque node identifiers.  The
semantics here (conflict-free, admissible, complete, grounded, preferred,
stable) are the classical extension-based ones; they are shared by the
goal-selection stage (which only needs conflict-free enumeration) and the
explanation stage (which evaluates per-goal frameworks, grounded by
default).

Everything is a pure function over immutable values.  Each framework
indexes its attackers once, on first use, and every semantics reads that
index instead of rescanning the attack set.  Enumeration is exhaustive
with conflict pruning over the sorted node order, which is fine at
deliberation scale (a few dozen nodes); results come back in a fixed
lexicographic order so golden tests are stable.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .errors import InputError


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


def _neighbour_map(af: AbstractAF) -> dict[str, set[str]]:
    """Undirected conflict adjacency: who is in conflict with whom."""
    adj: dict[str, set[str]] = {n: set() for n in af.nodes}
    for attacker, target in af.attacks:
        adj[attacker].add(target)
        adj[target].add(attacker)
    return adj


def conflict_free_sets(af: AbstractAF) -> list[frozenset[str]]:
    """All subsets with no internal attack in either direction.

    The empty set is always included.  Enumerated by backtracking over the
    sorted node order, pruning any node in conflict with the current set;
    the pre-order walk already emits the sets in lexicographic order.
    """
    adj = _neighbour_map(af)
    order = af.nodes
    found: list[frozenset[str]] = []

    def extend(start: int, current: list[str], blocked: set[str]) -> None:
        found.append(frozenset(current))
        for i in range(start, len(order)):
            node = order[i]
            if node in blocked:
                continue
            current.append(node)
            extend(i + 1, current, blocked | adj[node])
            current.pop()

    extend(0, [], set())
    return found


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


def admissible_sets(af: AbstractAF) -> list[frozenset[str]]:
    """Conflict-free sets that defend all of their members."""
    return [s for s in conflict_free_sets(af) if s <= characteristic(af, s)]


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
