from __future__ import annotations

import gc
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import pipeline_models, random_af
from goalarg import InputError, af_core, run_pipeline
from goalarg.af_core import max_weight_conflict_free
from oracles import (
    AbstractAF,
    characteristic,
    complete_extensions,
    conflict_free_sets,
    defends,
    grounded_extension,
    preferred_extensions,
    stable_extensions,
)

EXAMPLE2_CONFLICTS = [("g3", "g2"), ("g1", "g4"), ("g3", "g4"), ("g2", "g4")]


@st.composite
def abstract_afs(draw, max_nodes=8):
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    nodes = [f"n{i}" for i in range(n)]
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    attacks = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return AbstractAF.of(nodes, attacks)


def test_singleton_no_attacks():
    af = AbstractAF.of(["a"])
    assert conflict_free_sets(af) == [frozenset(), frozenset({"a"})]


def test_example2_conflict_graph_has_14_sets():
    af = AbstractAF.of(["g1", "g2", "g3", "g4", "g5"], EXAMPLE2_CONFLICTS)
    assert len(conflict_free_sets(af)) == 14


def test_mutual_attack_excludes_pair():
    af = AbstractAF.of(["a", "b"], [("a", "b"), ("b", "a")])
    assert conflict_free_sets(af) == [frozenset(), frozenset({"a"}), frozenset({"b"})]


def test_defends_vacuously_when_unattacked():
    af = AbstractAF.of(["a", "b"], [])
    assert defends(af, set(), "a")


def test_defends_chain_reinstatement():
    af = AbstractAF.of(["a", "b", "c"], [("c", "b"), ("b", "a")])
    assert defends(af, {"c"}, "a")
    assert not defends(af, set(), "a")


def test_defends_unknown_node():
    af = AbstractAF.of(["a"])
    with pytest.raises(InputError):
        defends(af, set(), "zz")
    with pytest.raises(InputError):
        defends(af, {"zz"}, "a")


def test_grounded_no_attacks_is_everything():
    af = AbstractAF.of(["a", "b", "c"])
    assert grounded_extension(af) == {"a", "b", "c"}


def test_grounded_two_cycle_is_empty():
    af = AbstractAF.of(["a", "b"], [("a", "b"), ("b", "a")])
    assert grounded_extension(af) == frozenset()


def test_no_attacks_preferred_and_stable_are_all_nodes():
    af = AbstractAF.of(["a", "b"])
    assert preferred_extensions(af) == [frozenset({"a", "b"})]
    assert stable_extensions(af) == [frozenset({"a", "b"})]


def test_two_cycle_semantics():
    af = AbstractAF.of(["a", "b"], [("a", "b"), ("b", "a")])
    assert preferred_extensions(af) == [frozenset({"a"}), frozenset({"b"})]
    assert stable_extensions(af) == [frozenset({"a"}), frozenset({"b"})]
    assert grounded_extension(af) == frozenset()


def test_odd_cycle_has_no_stable_extension():
    af = AbstractAF.of(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert stable_extensions(af) == []
    assert grounded_extension(af) == frozenset()


def test_empty_framework():
    af = AbstractAF.of([])
    assert conflict_free_sets(af) == [frozenset()]
    assert grounded_extension(af) == frozenset()
    assert complete_extensions(af) == [frozenset()]


def test_validation_rejects_self_attacks():
    with pytest.raises(InputError, match="self-attack"):
        AbstractAF.of(["a"], [("a", "a")])


def test_validation_rejects_unknown_endpoints():
    with pytest.raises(InputError, match="unknown node"):
        AbstractAF.of(["a"], [("a", "z")])
    with pytest.raises(InputError) as err:
        AbstractAF.of(["a"], [("x", "a")])
    assert str(err.value) == "attack (x, a): unknown node 'x'"


@settings(max_examples=200)
@given(abstract_afs())
def test_conflict_free_sets_match_oracle(af):
    got = conflict_free_sets(af)
    assert set(got) == oracles.conflict_free_brute(af.nodes, af.attacks)
    # Selection's primary pick relies on this order: sorted, no repeats.
    keys = [tuple(sorted(s)) for s in got]
    assert keys == sorted(set(keys))


@settings(max_examples=200)
@given(abstract_afs())
def test_semantics_match_oracle(af):
    nodes, attacks = af.nodes, af.attacks
    assert set(oracles.admissible_sets(af)) == oracles.admissible_brute(nodes, attacks)
    assert set(complete_extensions(af)) == oracles.complete_brute(nodes, attacks)
    assert grounded_extension(af) == oracles.grounded_brute(nodes, attacks)
    assert set(preferred_extensions(af)) == oracles.preferred_brute(nodes, attacks)
    assert set(stable_extensions(af)) == oracles.stable_brute(nodes, attacks)
    # The conflict-free sets include the empty one.
    for s in oracles.conflict_free_brute(nodes, attacks):
        defended = {a for a in nodes if oracles.defends_brute(nodes, attacks, s, a)}
        assert characteristic(af, s) == defended
        for a in nodes:
            assert defends(af, s, a) == (a in defended)


@settings(max_examples=200)
@given(abstract_afs())
def test_semantics_inclusions(af):
    grounded = grounded_extension(af)
    complete = complete_extensions(af)
    preferred = set(preferred_extensions(af))
    stable = set(stable_extensions(af))
    assert all(grounded <= e for e in complete)
    assert preferred <= set(complete)
    assert stable <= preferred


@settings(max_examples=100)
@given(abstract_afs(max_nodes=6))
def test_conflict_free_downward_closed(af):
    sets = set(conflict_free_sets(af))
    for s in sets:
        for member in s:
            assert s - {member} in sets


@settings(max_examples=100)
@given(abstract_afs(max_nodes=7))
def test_isolated_node_doubles_conflict_free_count(af):
    before = len(conflict_free_sets(af))
    extended = AbstractAF.of(list(af.nodes) + ["zz_isolated"], af.attacks)
    assert len(conflict_free_sets(extended)) == 2 * before


@settings(max_examples=50)
@given(abstract_afs())
def test_operations_are_pure(af):
    assert conflict_free_sets(af) == conflict_free_sets(af)
    assert grounded_extension(af) == grounded_extension(af)
    assert preferred_extensions(af) == preferred_extensions(af)


def test_results_in_lexicographic_order():
    af = AbstractAF.of(["b", "a", "c"])
    listed = [tuple(sorted(s)) for s in conflict_free_sets(af)]
    assert listed == sorted(listed)


def test_a_clique_past_the_recursion_limit_is_counted():
    # Every node of a clique is in conflict with all the others, so the
    # search branches on all of them at one level, not one per nesting.
    n = sys.getrecursionlimit() + 10
    nodes = [f"n{i:04d}" for i in range(n)]
    af = AbstractAF.of(nodes, [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]])
    count, best, maxima = max_weight_conflict_free(af.nodes, af.attacks, dict.fromkeys(nodes, 1))
    assert (count, best) == (n + 1, 1)
    assert maxima == [frozenset({node}) for node in nodes]


def test_every_small_graph_matches_the_oracle():
    # Every undirected graph on 0 to 5 nodes: 1 + 1 + 2 + 8 + 64 + 1024.
    # With all weights 0 every conflict-free set ties for best, which pins
    # their order.
    graphs = 0
    for n in range(6):
        nodes = [f"n{i}" for i in range(n)]
        pairs = list(combinations(nodes, 2))
        for edges in range(1 << len(pairs)):
            attacks = [pair for k, pair in enumerate(pairs) if edges >> k & 1]
            af = AbstractAF.of(nodes, attacks)
            sets = oracles.conflict_free_brute(nodes, set(attacks))
            for weights in (dict.fromkeys(nodes, 0), {v: i % 3 for i, v in enumerate(nodes)},
                            {v: i % 3 - 1 for i, v in enumerate(nodes)}):
                best = max(sum(weights[v] for v in s) for s in sets)
                maxima = sorted((s for s in sets if sum(weights[v] for v in s) == best),
                                key=sorted)
                found = max_weight_conflict_free(af.nodes, af.attacks, weights)
                assert found == (len(sets), best, maxima)
            graphs += 1
    assert graphs == 1100


def test_a_one_node_piece_is_answered_without_a_split(monkeypatch):
    # A one-node piece, whole or left by a branch, is answered from its
    # weight, so the split rule only ever sees pieces of two nodes or more.
    cases = [(m.gaf_sc.goals, m.gaf_sc.attacks, m.gaf_sc.weights)
             for family in ("select-sparse", "explain-dense", "cli-mix")
             for m in pipeline_models(family)]
    rng = random.Random(1)
    for _ in range(300):
        nodes, attacks = random_af(rng)  # sparse draws leave nodes isolated
        cases.append((nodes, attacks, {v: rng.randint(0, 2) for v in nodes}))
    expected = [max_weight_conflict_free(*case) for case in cases]
    split_nodes, pieces = af_core._split_nodes, []

    def recording(piece, step):
        pieces.append(piece)
        return split_nodes(piece, step)

    monkeypatch.setattr(af_core, "_split_nodes", recording)
    assert [max_weight_conflict_free(*case) for case in cases] == expected
    assert pieces
    assert min(piece.bit_count() for piece in pieces) >= 2


def frame_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_conflicts_nested_past_the_recursion_limit_are_counted():
    # A clique less every other pair: no node is in conflict with all the
    # others, so the search branches on one node per nesting, 120 deep.
    nodes = [f"n{i:03d}" for i in range(120)]
    unconflicted = set(zip(nodes[::2], nodes[1::2]))
    af = AbstractAF.of(nodes, [pair for pair in combinations(nodes, 2)
                               if pair not in unconflicted])
    weights = dict.fromkeys(nodes, 1)
    limit = sys.getrecursionlimit()
    # Python 3.12 and later refuse a limit below the current depth.
    sys.setrecursionlimit(frame_depth() + 40)
    try:
        found = max_weight_conflict_free(af.nodes, af.attacks, weights)
    finally:
        sys.setrecursionlimit(limit)
    # The empty set, the 120 singletons and the 60 unconflicted pairs.
    assert found[:2] == (181, 2)


def test_a_thousand_node_clique_less_a_matching_is_counted():
    # As above at the default recursion limit: 1,000 nodes, every other
    # pair unconflicted.  The empty set, the 1,000 singletons and the 500
    # unconflicted pairs.
    nodes = [f"g{i:04d}" for i in range(1000)]
    unconflicted = set(zip(nodes[::2], nodes[1::2]))
    af = AbstractAF.of(nodes, [pair for pair in combinations(nodes, 2)
                               if pair not in unconflicted])
    count, best, _ = max_weight_conflict_free(af.nodes, af.attacks, dict.fromkeys(nodes, 1))
    assert (count, best) == (1501, 2)


def test_a_long_path_under_a_low_recursion_limit_is_counted():
    # A path of 1,500 nodes: each branching leaves a shorter path, about
    # 750 nested branchings.  Its independent sets number F(1502)
    # (Fibonacci, F(1) = F(2) = 1), the largest take every other node, 750
    # of them, and an even path has 751 such sets.
    nodes = [f"g{i:04d}" for i in range(1500)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 40)
    try:
        found = max_weight_conflict_free(nodes, list(zip(nodes, nodes[1:])),
                                         dict.fromkeys(nodes, 1))
    finally:
        sys.setrecursionlimit(limit)
    fib = [0, 1]
    while len(fib) <= 1502:
        fib.append(fib[-1] + fib[-2])
    count, best, maxima = found
    assert (count, best, len(maxima)) == (fib[1502], 750, 751)
    assert all(len(m) == 750 for m in maxima)


def test_a_pipeline_run_leaves_no_cyclic_garbage(cleaner_scenario):
    # Left to the cyclic collector, working state held in a reference cycle
    # would outlive each selection.
    gc.collect()
    gc.disable()
    try:
        run_pipeline(cleaner_scenario)
        assert gc.collect() == 0
    finally:
        gc.enable()
