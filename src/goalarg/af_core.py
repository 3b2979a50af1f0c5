"""Abstract argumentation frameworks and their extension-based semantics.

A framework is a directed attack graph over opaque node identifiers.  The
semantics here (conflict-free, complete, grounded, preferred, stable)
are the classical extension-based ones.  Goal selection uses the
weighted conflict-free search; `explain` reads explanatory frameworks,
under a `Semantics` member, in closed form, tested against the rest.

Everything is a pure function over immutable values.  Each framework
indexes its attackers once, on first use, and every semantics reads that
index instead of rescanning the attack set.  Conflict-free sets are
counted, and the best found, over integer bitmasks with integer scores:
the conflict graph splits into connected pieces whose counts multiply,
a small or dense piece is walked set by set, and any other piece branches
on its busiest node.  Unconflicted nodes cost nothing, but one large,
sparse connected piece can still take exponential time.  Results come
back in a fixed lexicographic order so golden tests are stable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, compress, starmap
from operator import eq

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
        # A valid framework, the common case, is checked without sorting.
        if node_set.issuperset(chain.from_iterable(self.attacks)) and not any(
            starmap(eq, self.attacks)
        ):
            return
        for attacker, target in sorted(self.attacks):  # name the least bad attack
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


# A connected piece of at most this many nodes, or with at least this share
# of its node pairs in conflict, is walked set by set; branching on one node
# gains little there.  Any other piece is branched on.
_WALK_SIZE = 6
_WALK_DENSITY = 0.5


def max_weight_conflict_free(
    af: AbstractAF, weights: Mapping[str, int]
) -> tuple[int, int, list[frozenset[str]]]:
    """Count the conflict-free sets and find those of greatest total weight.

    A set is conflict-free when no attack joins two of its members in
    either direction, so only the undirected conflict graph matters.  Sets
    are integer bitmasks, the first node in sorted order the highest bit.
    `_solve` splits a mask into connected pieces: across pieces counts
    multiply, best scores add, and the maxima are the unions of one maximum
    of each piece.  A piece is walked (`_walk`) when it is small or dense;
    otherwise it branches on a node v of highest degree, the sets without v
    and the sets with v, whose other members avoid v's neighbours.  Returns
    (number of sets, best score, the sets scoring it); only those are built
    as frozensets, in the lexicographic order of their sorted nodes, which
    is the order a walk over the sorted nodes meets them, the empty set
    first.
    """
    order = af.nodes
    n = len(order)
    bits = {node: 1 << (n - 1 - i) for i, node in enumerate(order)}
    closed = dict(bits)  # each node's closed neighbourhood in the conflict graph
    for attacker, target in af.attacks:
        closed[attacker] |= bits[target]
        closed[target] |= bits[attacker]
    # Per node bit: the mask of nodes that stay free once it joins, and its weight.
    step = {b: (~closed[node], weights[node]) for node, b in bits.items()}
    full = (1 << n) - 1
    try:
        count, best, maxima = _solve(full, step, {})
    except RecursionError:
        raise InputError(f"the conflicts among the {n} nodes nest too deep to count "
                         "their conflict-free sets") from None
    # Sort by a set's place in that walk: one step into each member, and
    # the whole subtree of each skipped node before the last member.  With
    # the first node highest, a node's subtree has as many sets as its
    # bit's value.
    if len(maxima) > 1:
        maxima.sort(key=lambda m: m.bit_count() + ((full ^ m) & -(m & -m)))
        # Ties can number 2**k, for k unconflicted goals of weight 0.  Masks
        # made afresh in this order are freed in it as their sets replace
        # them below, so the sets reuse their memory.
        maxima = [m + 0 for m in maxima]
    node_bits = tuple(bits.values())
    for i, m in enumerate(maxima):
        maxima[i] = frozenset(compress(order, map(m.__and__, node_bits)))
    return count, best, maxima


def _solve(
    mask: int, step: dict[int, tuple[int, int]], memo: dict[int, tuple]
) -> tuple[int, int, list[int]]:
    """(count, best score, maxima) over the conflict-free subsets of `mask`.

    A mask of at most `_WALK_SIZE` nodes is walked whole.  Each connected
    piece of a larger one is solved once per selection (`memo`): branching
    meets the same piece again from both sides.  Recursion depth is the
    number of nested branchings.
    """
    if mask.bit_count() <= _WALK_SIZE:
        return _walk(mask, step)
    count, best, maxima = 1, 0, [0]
    while mask:
        piece = frontier = mask & -mask
        while frontier and piece != mask:  # grow the lowest node's piece
            b = frontier & -frontier
            frontier ^= b
            linked = mask & ~(step[b][0] | piece)
            piece |= linked
            frontier |= linked
        mask ^= piece
        found = memo.get(piece)
        if found is None:
            v = _branch_node(piece, step)
            if v is None:
                found = _walk(piece, step)
            else:
                keep, weight = step[v]
                c_out, s_out, m_out = _solve(piece ^ v, step, memo)
                c_in, s_in, m_in = _solve(piece & keep, step, memo)
                s_in += weight
                if s_out > s_in:
                    found = (c_out + c_in, s_out, m_out)
                else:
                    m_in = [m | v for m in m_in]
                    found = (c_out + c_in, s_in, m_out + m_in if s_out == s_in else m_in)
            memo[piece] = found
        c, s, m = found
        count, best = count * c, best + s
        maxima = [x | y for x in maxima for y in m]
    return count, best, maxima


def _branch_node(piece: int, step: dict[int, tuple[int, int]]) -> int | None:
    """The bit of a node of highest degree in a connected piece, or None
    when the piece is small or dense enough to walk."""
    size = piece.bit_count()
    if size <= _WALK_SIZE:
        return None
    rest, degrees, top = piece, 0, 0
    while rest:
        b = rest & -rest
        rest ^= b
        degree = (piece & ~step[b][0]).bit_count()
        degrees += degree
        if degree > top:
            top, v = degree, b
    # Each degree above counts the node itself.
    return None if degrees - size >= _WALK_DENSITY * size * (size - 1) else v


def _walk(piece: int, step: dict[int, tuple[int, int]]) -> tuple[int, int, list[int]]:
    """(count, best score, maxima) by visiting every conflict-free subset of
    `piece` once: a set grows only by bits above the last one added that
    clash with none of its members (`free`), so each set has one parent."""
    count, best, maxima = 1, 0, [0]  # the empty set, scoring 0
    stack = [(piece, 0, 0)]
    while stack:
        free, members, score = stack.pop()
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
                stack.append((free & keep, child, child_score))
    return count, best, maxima


def conflict_free_sets(af: AbstractAF) -> list[frozenset[str]]:
    """All subsets with no internal attack in either direction, the empty
    set included, in lexicographic order: the weighted search with every
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
