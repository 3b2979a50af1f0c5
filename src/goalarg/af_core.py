"""The weighted conflict-free search that selects the pursued goals.

Goal selection counts the conflict-free sets of a conflict graph and finds
those of greatest total weight; a set is conflict-free (Dung, AIJ 1995)
when no two of its members conflict.  Checking the graph is the caller's
work: `GoalAF` refuses an undeclared goal or a self-attack when built.

Sets are integer bitmasks with integer scores.  The conflict graph splits
into connected pieces whose counts multiply; each piece branches on its
nodes in conflict with all the others, or else on a node of highest
degree.  Unconflicted nodes cost nothing, but one large, sparse connected
piece can still take exponential time.  The maxima come back in a fixed
lexicographic order so golden tests are stable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import compress

from .errors import InputError


# (number of sets, best score, the bitmasks of the sets scoring it)
_Found = tuple[int, int, list[int]]


def max_weight_conflict_free(
    nodes: Sequence[str], pairs: Iterable[tuple[str, str]], weights: Mapping[str, int]
) -> tuple[int, int, list[frozenset[str]]]:
    """Count the conflict-free sets and find those of greatest total weight.

    `nodes` lists the node ids sorted, without repeats, and `pairs` the
    conflicts, each between two of them, in either direction.  Sets are
    integer bitmasks, the first node in sorted order the highest bit.
    `_solve` splits a mask into connected pieces: across pieces counts
    multiply, best scores add, and the maxima are the unions of one maximum
    of each piece.  A piece branches on the nodes in conflict with all its
    others, each a set on its own, or when there is none, on a node v of
    highest degree: the sets without v, and the sets with v, whose other
    members avoid v's neighbours.  Returns (number of sets, best score, the
    sets scoring it); only those are built as frozensets, in the
    lexicographic order of their sorted nodes, the empty set first: the
    order in which a depth-first listing that adds nodes in sorted order
    meets them.
    """
    n = len(nodes)
    bits = {node: 1 << (n - 1 - i) for i, node in enumerate(nodes)}
    closed = dict(bits)  # each node's closed neighbourhood in the conflict graph
    for a, b in pairs:
        closed[a] |= bits[b]
        closed[b] |= bits[a]
    # Per node bit: the mask of nodes that stay free once it joins, and its weight.
    step = {b: (~closed[node], weights[node]) for node, b in bits.items()}
    full = (1 << n) - 1
    try:
        count, best, maxima = _solve(full, step, {})
    except RecursionError:
        raise InputError(f"the conflicts among the {n} nodes nest too deep to count "
                         "their conflict-free sets") from None
    # Sort by a set's place in that listing: one step into each member, and
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
        maxima[i] = frozenset(compress(nodes, map(m.__and__, node_bits)))
    return count, best, maxima


def _solve(mask: int, step: dict[int, tuple[int, int]], memo: dict[int, _Found]) -> _Found:
    """(count, best score, maxima) over the conflict-free subsets of `mask`.

    Each connected piece of the mask branches, and is solved once per
    selection (`memo`): branching meets the same piece again from both
    sides.  The empty mask has one set, the empty one, scoring 0.
    Recursion depth is the number of nested branchings.
    """
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
            # The sets with none of the split nodes, then those with each.
            split = _split_nodes(piece, step)
            found = _solve(piece ^ split, step, memo)
            while split:
                v = split & -split
                split ^= v
                keep, weight = step[v]
                c_in, s_in, m_in = _solve(piece & keep, step, memo)
                c, s, m = found
                s_in += weight
                if s > s_in:
                    found = (c + c_in, s, m)
                else:
                    m_in = [x | v for x in m_in]
                    found = (c + c_in, s_in, m + m_in if s == s_in else m_in)
            memo[piece] = found
        c, s, m = found
        count, best = count * c, best + s
        maxima = [x | y for x in maxima for y in m]
    return count, best, maxima


def _split_nodes(piece: int, step: dict[int, tuple[int, int]]) -> int:
    """The mask of a connected piece's nodes in conflict with all its others
    or, when there is none, the bit of a node of highest degree: no two of
    them join one set."""
    rest, top, alone = piece, 0, 0
    while rest:
        b = rest & -rest
        rest ^= b
        near = piece & ~step[b][0]  # the node and its neighbours
        if near == piece:
            alone |= b
        if near.bit_count() > top:
            top, v = near.bit_count(), b
    return alone or v

