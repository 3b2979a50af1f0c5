"""Reference semantics and brute-force oracles for the tests.

The reference semantics come first: the conflict-free, admissible,
complete, grounded, preferred and stable extensions of an `AbstractAF`,
the plain attack graph defined here, over the library's pruned
conflict-free search and an attacker index built once per call.  The
library runs none of them: it reads each pipeline framework's one
extension off the side that holds its decisive argument.  The closed
form for every two-sided framework, `two_sided_extensions`, follows
them, and the tests check both readings against them.

Everything after them is written straight from the definitions.  The
`*_brute` functions enumerate all subsets and apply the defining
condition verbatim, independent of any pruning, so they serve as ground
truth, the reference semantics included, for frameworks up to ~15 nodes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, product
from typing import NamedTuple

from goalarg import SCHEMAS, Claim, InputError, RuleInstance, Semantics
from goalarg.af_core import max_weight_conflict_free
from goalarg.goal_graph import check_attacks
from goalarg.render import SENTENCE_TEMPLATES


class AbstractAF(NamedTuple):
    """A directed attack graph: `attacks` holds (attacker, target) pairs."""

    nodes: tuple
    attacks: frozenset

    @classmethod
    def of(cls, nodes, attacks=()):
        """A framework checked as goal graphs are, its nodes sorted."""
        af = cls(tuple(sorted(set(nodes))), frozenset(attacks))
        check_attacks(af.nodes, af.attacks)
        return af


def conflict_free_sets(af):
    """All subsets with no internal attack in either direction, the empty
    set included, in lexicographic order: the weighted search with every
    weight 0, where every set ties for best."""
    return max_weight_conflict_free(af.nodes, af.attacks, dict.fromkeys(af.nodes, 0))[2]


def _attackers(af):
    """Each node's attackers, indexed afresh for one evaluation."""
    found = {n: set() for n in af.nodes}
    for attacker, target in af.attacks:
        found[target].add(attacker)
    return found


def _known(attackers, s):
    members = frozenset(s)
    unknown = members - attackers.keys()
    if unknown:
        raise InputError(f"unknown node {min(unknown)!r}")
    return members


def _defended(attackers, members):
    """F(S) over an attacker index, for a set of known nodes."""
    return frozenset(
        a for a, attacking in attackers.items()
        if all(not attackers[x].isdisjoint(members) for x in attacking)
    )


def defends(af, s, a):
    """True iff every attacker of `a` is attacked by some member of `s`."""
    attackers = _attackers(af)
    members = _known(attackers, s)
    if a not in attackers:
        raise InputError(f"unknown node {a!r}")
    return all(not attackers[x].isdisjoint(members) for x in attackers[a])


def characteristic(af, s):
    """F(S) = the set of nodes defended by S."""
    attackers = _attackers(af)
    return _defended(attackers, _known(attackers, s))


def grounded_extension(af):
    """Least fixpoint of the defense function (unique, possibly empty)."""
    attackers = _attackers(af)
    current = frozenset()
    while (defended := _defended(attackers, current)) != current:
        current = defended
    return current


def admissible_sets(af):
    """Conflict-free sets that defend all of their members."""
    attackers = _attackers(af)
    return [s for s in conflict_free_sets(af) if s <= _defended(attackers, s)]


def complete_extensions(af):
    """Conflict-free fixpoints of the defense function."""
    attackers = _attackers(af)
    return [s for s in conflict_free_sets(af) if s == _defended(attackers, s)]


def preferred_extensions(af):
    """Maximal (by set inclusion) complete extensions."""
    complete = complete_extensions(af)
    return [s for s in complete if not any(s < other for other in complete)]


def stable_extensions(af):
    """Conflict-free sets attacking every outside node; may be empty."""
    attackers = _attackers(af)
    return [
        s for s in conflict_free_sets(af)
        if all(not attackers[n].isdisjoint(s) for n in af.nodes if n not in s)
    ]


def two_sided_extensions(xaf, semantics):
    """An explanatory framework's extensions read off its two sides, each
    ordered by argument index.

    Under the defeat rule, decisive arguments that all claim one polarity
    are unattacked and defeat every opponent, so that side is the one
    extension under every semantics.  With one side empty nothing is
    attacked, so the other side is.  Otherwise every argument is defeated
    from the other side and each whole side defeats all of the other:
    grounded yields the empty set, complete the empty set and both sides,
    preferred and stable both sides.
    """
    pro, con = xaf.pro, xaf.con
    decisive = {a.claim.pursued for a in xaf.arguments if a.decisive}
    if len(decisive) == 1:
        return (pro if True in decisive else con,)
    if not pro or not con:
        return (pro or con,)
    both = tuple(sorted((pro, con), key=lambda ext: [a.index for a in ext]))
    if semantics is Semantics.GROUNDED:
        return ((),)
    return ((), *both) if semantics is Semantics.COMPLETE else both


def powerset(nodes):
    items = sorted(nodes)
    return [
        frozenset(c) for c in chain.from_iterable(
            combinations(items, r) for r in range(len(items) + 1)
        )
    ]


def is_conflict_free(s, attacks):
    return not any((a, b) in attacks for a in s for b in s)


def defends_brute(nodes, attacks, s, a):
    attackers = {x for (x, t) in attacks if t == a}
    return all(any((y, x) in attacks for y in s) for x in attackers)


def conflict_free_brute(nodes, attacks):
    return {s for s in powerset(nodes) if is_conflict_free(s, attacks)}


def admissible_brute(nodes, attacks):
    return {
        s for s in conflict_free_brute(nodes, attacks)
        if all(defends_brute(nodes, attacks, s, a) for a in s)
    }


def complete_brute(nodes, attacks):
    return {
        s for s in conflict_free_brute(nodes, attacks)
        if s == frozenset(a for a in nodes if defends_brute(nodes, attacks, s, a))
    }


def grounded_brute(nodes, attacks):
    complete = complete_brute(nodes, attacks)
    least = [s for s in complete if all(s <= other for other in complete)]
    assert len(least) == 1, "grounded extension must be the unique least complete"
    return least[0]


def preferred_brute(nodes, attacks):
    complete = complete_brute(nodes, attacks)
    return {s for s in complete if not any(s < other for other in complete)}


def stable_brute(nodes, attacks):
    out = set()
    for s in conflict_free_brute(nodes, attacks):
        attacked = {t for (a, t) in attacks if a in s}
        if all(n in attacked for n in nodes if n not in s):
            out.add(s)
    return out


def all_semantics_brute(nodes, attacks):
    """Every semantics for one framework, sharing the subset enumeration."""
    conflict_free = conflict_free_brute(nodes, attacks)
    admissible = {
        s for s in conflict_free if all(defends_brute(nodes, attacks, s, a) for a in s)
    }
    complete = {
        s for s in conflict_free
        if s == frozenset(a for a in nodes if defends_brute(nodes, attacks, s, a))
    }
    least = [s for s in complete if all(s <= other for other in complete)]
    assert len(least) == 1
    preferred = {s for s in complete if not any(s < other for other in complete)}
    stable = set()
    for s in conflict_free:
        attacked = {t for (a, t) in attacks if a in s}
        if all(n in attacked for n in nodes if n not in s):
            stable.add(s)
    return {
        "conflict_free": conflict_free,
        "admissible": admissible,
        "complete": complete,
        "grounded": least[0],
        "preferred": preferred,
        "stable": stable,
    }


def conflict_free_subsets(goals, conflicts):
    """Every subset of `goals` that contains no conflict pair, in either
    direction, the empty set first.  A subset is a bitmask over the sorted
    goals, and a pair is inside it when both of the pair's bits are set."""
    items = sorted(goals)
    bit = {g: 1 << i for i, g in enumerate(items)}
    pairs = {bit[a] | bit[b] for a, b in conflicts}
    return [
        frozenset(g for g in items if mask & bit[g])
        for mask in range(1 << len(items))
        if all(mask & pair != pair for pair in pairs)
    ]


def max_utility_brute(goals, conflicts, weights):
    """All maximum-weight conflict-free goal sets, plus count and maximum.

    `conflicts` may be directed; a pair in either direction keeps the two
    goals apart.
    """
    candidates = conflict_free_subsets(goals, conflicts)
    # A set's total is its parent's, the set without its last goal, plus
    # that goal's weight; the parent is conflict-free too, and comes first.
    totals = {frozenset(): Fraction(0)}
    for s in candidates[1:]:
        last = max(s)
        totals[s] = totals[s - {last}] + weights[last]
    best = max(totals.values())
    maxima = {s for s, total in totals.items() if total == best}
    return maxima, best, len(candidates)


def utility_sum_all(extension, pref):
    """Sum of the preference values of every goal in the extension."""
    return sum((pref[g] for g in extension), start=Fraction(0))


def utility_sum_main(extension, pref, main_goals):
    """Sum of preferences over main goals only; sub-goals contribute nothing."""
    return sum((pref[g] for g in extension if g in main_goals), start=Fraction(0))


def select_brute(goals, conflicts, pref, main_goals=None):
    """Selection from the definition: Fraction utilities over the power set.

    Sums every goal's preference, or only the main goals' when `main_goals`
    is given.  Returns (pursued, best utility, every maximum in the
    lexicographic order of sorted ids, number of conflict-free sets).
    """
    if main_goals is None:
        def score(s):
            return utility_sum_all(s, pref)
    else:
        def score(s):
            return utility_sum_main(s, pref, main_goals)
    candidates = conflict_free_subsets(goals, conflicts)
    totals = {s: score(s) for s in candidates}
    best = max(totals.values())
    maxima = sorted((s for s, total in totals.items() if total == best),
                    key=lambda s: tuple(sorted(s)))
    return maxima[0], best, tuple(maxima), len(candidates)


def derives(support, claim):
    """True iff some rule instance in the support fires entirely inside it
    and concludes the claim."""
    return any(
        isinstance(e, RuleInstance) and e.head == claim and set(e.body) <= support
        for e in support
    )


def negation(claim):
    return Claim(claim.goal, not claim.pursued)


# The six explanatory rules, restated: id, body atoms as (belief kind,
# variables), head variable, head polarity.
RULES = (
    ("r1", (("not_incomp", "x"),), "x", True),
    ("r2", (("incompat", "xy"), ("pref", "xy")), "x", True),
    ("r3", (("incompat", "xy"), ("not_pref", "yx")), "y", False),
    ("r4", (("incompat", "xy"), ("eq_pref", "xy")), "x", True),
    ("r5", (("max_util", "x"),), "x", True),
    ("r6", (("not_max_util", "x"),), "x", False),
)


def trigger_brute(beliefs):
    """Every rule instance, by definition: each rule under every binding of
    x (and y for binary rules) to the goals the beliefs mention, kept when
    every body atom is a belief.  Labels come from the incompat body belief;
    instances are numbered by rule, then by (x, y)."""
    by_shape = {(b.kind.value, b.goals): b for b in beliefs}
    goals = sorted({g for b in beliefs for g in b.goals})
    out = []
    for rule_id, body, head_var, head_pursued in RULES:
        arity = max(len(variables) for _, variables in body)
        for binding in product(goals, repeat=arity):
            subst = dict(zip("xy", binding))
            hits = [by_shape.get((kind, tuple(subst[v] for v in variables)))
                    for kind, variables in body]
            if any(h is None for h in hits):
                continue
            labels = next((h.labels for h in hits if h.kind.value == "incompat"), None)
            head = Claim(subst[head_var], head_pursued)
            schema = next(s for s in SCHEMAS if s.id == rule_id)
            out.append(RuleInstance(schema, subst["x"], subst.get("y"), labels,
                                    tuple(hits), head, index=len(out) + 1))
    return tuple(out)


def derive_brute(gaf):
    """The goal-level attacks by definition: distinct declared goals g and h,
    each with at least one plan, attack each other when every plan of g and
    every plan of h are joined by an attack in either direction; the label
    is the union of the labels of all those plan-level attacks."""
    plans = {g.id: [a.id for a in gaf.args if a.claim == g.id] for g in gaf.goals}
    attacks = {}
    for g, h in product(plans, plans):
        if g == h or not plans[g] or not plans[h]:
            continue
        joining = [
            [gaf.attacks[pair] for pair in ((a, b), (b, a)) if pair in gaf.attacks]
            for a, b in product(plans[g], plans[h])
        ]
        if all(joining):
            attacks[(g, h)] = frozenset().union(*chain.from_iterable(joining))
    return attacks


def args_for_goal(gaf, goal_id):
    """All instrumental arguments whose claim is the given goal (its plans)."""
    if goal_id not in {g.id for g in gaf.goals}:
        raise InputError(f"unknown goal {goal_id!r}")
    return frozenset(a.id for a in gaf.args if a.claim == goal_id)


def attacks_with_kind(gaf, kind):
    """The plan-level attack pairs whose label set contains `kind`."""
    return frozenset(pair for pair, labels in gaf.attacks.items() if kind in labels)


def rebuts(a, b):
    """Contradictory claims about the same goal (always mutual)."""
    return a.claim.goal == b.claim.goal and a.claim.pursued != b.claim.pursued


def defeats(a, b):
    """Directed sharpening of a rebuttal.

    A max-utility argument defeats a non-decisive opponent one-way; between
    two non-decisive (or two decisive) opponents the rebuttal stays mutual,
    so both directions count as defeats.
    """
    return rebuts(a, b) and (a.decisive or not b.decisive)


def conflict_pairs(goal_af):
    """The undirected conflicts underlying a goal framework's attacks."""
    return frozenset(frozenset(pair) for pair in goal_af.attacks)


def render_brute(arg, names):
    """An argument's sentence text by definition: its rule's template,
    filled by `str.format` from its instance's substitution, with x and y
    each replaced by its display predicate."""
    slots = arg.instance.substitution()
    for var in ("x", "y"):
        if var in slots:
            if slots[var] not in names:
                raise InputError(f"no predicate known for goal {slots[var]!r}")
            slots[var] = names[slots[var]]
    return SENTENCE_TEMPLATES[arg.schema_id].format(**slots)
