"""The weighted conflict-free search that selects the pursued goals.

Goal selection counts the conflict-free sets of a conflict graph and finds
those of greatest total weight; a set is conflict-free (Dung, AIJ 1995)
when no two of its members conflict.  Checking the graph is the caller's
work: `GoalAF` refuses an undeclared goal or a self-attack when built.

Sets are integer bitmasks with integer scores.  The conflict graph splits
into connected pieces whose counts multiply; a one-node piece is answered
from its weight, and any other branches on its nodes in conflict with all
the others, or else on a node of highest degree, on one work stack at any
depth: one large, sparse connected piece can still take exponential time.
The maxima come back in a fixed lexicographic order, stable for golden tests.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import compress


# (number of sets, best score, the bitmasks of the sets scoring it)
_Found = tuple[int, int, list[int]]
# (split node's bit, or 0 for none, its weight, the pieces the branch leaves)
_Branch = tuple[int, int, list[int]]


def max_weight_conflict_free(
    nodes: Sequence[str], pairs: Iterable[tuple[str, str]], weights: Mapping[str, int]
) -> tuple[int, int, list[frozenset[str]]]:
    """Count the conflict-free sets and find those of greatest total weight.

    `nodes` lists the node ids sorted, without repeats, and `pairs` the
    conflicts, each between two of them, in either direction.  Sets are
    integer bitmasks, the first node in sorted order the highest bit.  The
    graph splits into connected pieces: across pieces counts multiply, best
    scores add, and the maxima are the unions of one maximum of each piece.
    A one-node piece is answered from its weight.  Any other branches on
    the nodes in conflict with all its others, each a set on its own, or
    when there is none, on a node v of highest degree: the sets without v,
    and the sets with v, whose other members avoid v's neighbours.  Each
    piece is solved once, after those its branches leave.
    Returns (number of sets, best score, the sets scoring it); only those
    are built as frozensets, in the lexicographic order of their sorted
    nodes, the empty set first: the order in which a depth-first listing
    that adds nodes in sorted order meets them.
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
    top = _pieces(full, step)
    memo: dict[int, _Found] = {b: (2, w, [b]) if w > 0 else (2, 0, [0, b] if w == 0 else [0])
                               for b, (_, w) in step.items()}  # each one-node piece's answer
    # Pieces to expand, each then pushed back under its branches' pieces to score.
    stack: list[int | tuple[int, list[_Branch]]] = top[:]
    while stack:
        piece = stack.pop()
        if isinstance(piece, tuple):  # a (piece, branches) pair to score
            memo[piece[0]] = _score(piece[1], memo)
        elif piece not in memo:
            # The sets with none of the split nodes, then those with each.
            split = _split_nodes(piece, step)
            branches = [(0, 0, _pieces(piece ^ split, step))]
            while split:
                v = split & -split
                split ^= v
                keep, weight = step[v]
                branches.append((v, weight, _pieces(piece & keep, step)))
            stack.append((piece, branches))
            for _, _, left in branches:
                stack += left
    count, best, maxima = _score([(0, 0, top)], memo)
    del memo  # every piece's maxima, freed before the sets are built
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


def _pieces(mask: int, step: dict[int, tuple[int, int]]) -> list[int]:
    """The connected pieces of `mask`, each grown from its lowest node."""
    pieces = []
    while mask:
        piece = frontier = mask & -mask
        while frontier and piece != mask:
            b = frontier & -frontier
            frontier ^= b
            linked = mask & ~(step[b][0] | piece)
            piece |= linked
            frontier |= linked
        mask ^= piece
        pieces.append(piece)
    return pieces


def _score(branches: list[_Branch], memo: dict[int, _Found]) -> _Found:
    """(count, best score, maxima) over a mask's branches: a branch's sets
    join its split node to one set of each piece it leaves, and across
    branches counts add and the maxima are those of the best-scoring ones."""
    count, best, maxima = 0, None, []
    for v, weight, left in branches:
        c, s = 1, weight
        for p in left:
            c, s = c * memo[p][0], s + memo[p][1]
        count += c
        if best is None or s > best:
            best, maxima = s, []
        if s == best:
            m = [v]
            for p in left:
                m = [x | y for x in m for y in memo[p][2]]
            maxima += m
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
