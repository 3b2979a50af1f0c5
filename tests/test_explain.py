from __future__ import annotations

import random
from dataclasses import replace
from functools import cache

import pytest

from conftest import (CLEANER_WORLD, bench_gen, cleaner_general_af, random_general_af,
                      random_goal_af)
from goalarg import (
    Belief,
    BeliefKind,
    Claim,
    ExplanationKind,
    ExplanatoryAF,
    ExplanatoryArgument,
    InputError,
    QueryDirectionError,
    QueryKind,
    RuleInstance,
    Semantics,
    apply_successful_attacks,
    build_explanation_model,
    build_xaf,
    complete_explanation,
    construct_arguments,
    derive_goal_af,
    extensions_of,
    generate_beliefs,
    kinds_from_letters,
    load_scenario,
    parse_scenario,
    render_argument,
    require_valid,
    run_pipeline,
    select,
    trigger_rules,
    why,
    why_not,
)
from goalarg.explain import SCHEMAS
from oracles import (
    AbstractAF,
    complete_extensions,
    defeats,
    derives,
    grounded_extension,
    negation,
    preferred_extensions,
    rebuts,
    stable_extensions,
    trigger_brute,
    two_sided_extensions,
)


@pytest.fixture(scope="module")
def cleaner_model():
    filtered = apply_successful_attacks(derive_goal_af(cleaner_general_af()))
    return build_explanation_model(filtered, select(filtered))


def instance_shape(inst):
    return (inst.schema_id, inst.x, inst.y, inst.labels, inst.head)


EXPECTED_INSTANCES = {
    ("r1", "g5", None, None, Claim("g5", True)),
    ("r2", "g1", "g4", kinds_from_letters("tr"), Claim("g1", True)),
    ("r2", "g2", "g4", kinds_from_letters("tr"), Claim("g2", True)),
    ("r2", "g3", "g2", kinds_from_letters("s"), Claim("g3", True)),
    ("r2", "g3", "g4", kinds_from_letters("t"), Claim("g3", True)),
    ("r3", "g1", "g4", kinds_from_letters("tr"), Claim("g4", False)),
    ("r3", "g2", "g4", kinds_from_letters("tr"), Claim("g4", False)),
    ("r3", "g3", "g2", kinds_from_letters("s"), Claim("g2", False)),
    ("r3", "g3", "g4", kinds_from_letters("t"), Claim("g4", False)),
    ("r5", "g1", None, None, Claim("g1", True)),
    ("r5", "g3", None, None, Claim("g3", True)),
    ("r5", "g5", None, None, Claim("g5", True)),
    ("r6", "g2", None, None, Claim("g2", False)),
    ("r6", "g4", None, None, Claim("g4", False)),
}


def test_schema_table_is_exactly_the_six_rules():
    assert [s.id for s in SCHEMAS] == ["r1", "r2", "r3", "r4", "r5", "r6"]
    assert [s.decisive for s in SCHEMAS] == [False, False, False, False, True, True]


def test_trigger_rules_on_worked_example(cleaner_model):
    instances = cleaner_model.instances
    assert len(instances) == 14
    assert {instance_shape(i) for i in instances} == EXPECTED_INSTANCES
    assert [i.index for i in instances] == list(range(1, 15))


def test_trigger_rules_empty():
    assert trigger_rules(()) == ()


def test_trigger_rules_minimal_conflict():
    beliefs = (
        Belief(BeliefKind.INCOMPAT, ("a", "b"), kinds_from_letters("t"), index=1),
        Belief(BeliefKind.PREF, ("a", "b"), index=2),
        Belief(BeliefKind.NOT_PREF, ("b", "a"), index=3),
    )
    instances = trigger_rules(beliefs)
    assert {instance_shape(i) for i in instances} == {
        ("r2", "a", "b", kinds_from_letters("t"), Claim("a", True)),
        ("r3", "a", "b", kinds_from_letters("t"), Claim("b", False)),
    }


def test_equal_preference_rule_fires_both_ways():
    labels = kinds_from_letters("r")
    beliefs = (
        Belief(BeliefKind.INCOMPAT, ("a", "b"), labels, index=1),
        Belief(BeliefKind.INCOMPAT, ("b", "a"), labels, index=2),
        Belief(BeliefKind.EQ_PREF, ("a", "b"), index=3),
        Belief(BeliefKind.EQ_PREF, ("b", "a"), index=4),
    )
    instances = trigger_rules(beliefs)
    assert {instance_shape(i) for i in instances} == {
        ("r4", "a", "b", labels, Claim("a", True)),
        ("r4", "b", "a", labels, Claim("b", True)),
    }


def instance_record(inst):
    body = tuple((b, b.index) for b in inst.body)
    return (inst.schema_id, inst.x, inst.y, inst.labels, body, inst.head, inst.index)


def test_trigger_rules_match_the_definition():
    # Belief sets from random direct and instrumental scenarios, then
    # shuffled subsets with about a fifth of the beliefs dropped, so that
    # some bodies are incomplete and the input order varies.
    rng = random.Random(41)
    raws = [random_goal_af(rng, max_goals=10) for _ in range(30)]
    raws += [derive_goal_af(require_valid(random_general_af(rng))) for _ in range(30)]
    belief_sets = []
    for raw in raws:
        filtered = apply_successful_attacks(raw)
        belief_sets.append(generate_beliefs(filtered, select(filtered)))
    for beliefs in rng.sample(belief_sets, 20):
        kept = [b for b in beliefs if rng.random() >= 0.2]
        rng.shuffle(kept)
        belief_sets.append(tuple(kept))
    for beliefs in belief_sets:
        got = [instance_record(i) for i in trigger_rules(beliefs)]
        assert got == [instance_record(i) for i in trigger_brute(beliefs)]


def test_arguments_one_per_instance(cleaner_model):
    args = cleaner_model.arguments
    assert len(args) == 14
    for arg, inst in zip(args, cleaner_model.instances):
        assert arg.instance == inst
        assert arg.claim == inst.head
        assert arg.support == frozenset((*inst.body, inst))


def test_single_rule_argument_has_two_element_support():
    beliefs = (Belief(BeliefKind.NOT_INCOMP, ("g",), index=1),)
    instances = trigger_rules(beliefs)
    (arg,) = construct_arguments(beliefs, instances)
    assert len(arg.support) == 2
    assert arg.claim == Claim("g", True)


def assert_supports_minimal(arguments):
    """Each support derives its claim, not the opposite claim, and stops
    deriving it when any one element is removed."""
    for arg in arguments:
        assert derives(arg.support, arg.claim)
        assert not derives(arg.support, negation(arg.claim))
        for element in arg.support:
            assert not derives(arg.support - {element}, arg.claim)


def test_supports_are_minimal_by_exhaustive_removal(cleaner_model):
    assert_supports_minimal(cleaner_model.arguments)


def test_construct_rejects_foreign_instances(cleaner_model):
    foreign = trigger_rules(
        (Belief(BeliefKind.NOT_INCOMP, ("other",), index=1),)
    )
    with pytest.raises(InputError):
        construct_arguments(cleaner_model.beliefs, foreign)


def test_construct_accepts_instances_triggered_from_equal_copies(cleaner_model):
    copies = tuple(b._replace() for b in cleaner_model.beliefs)
    arguments = construct_arguments(cleaner_model.beliefs, trigger_rules(copies))
    assert [str(a) for a in arguments] == [str(a) for a in cleaner_model.arguments]
    foreign = trigger_rules(copies[:1] + (Belief(BeliefKind.NOT_INCOMP, ("other",), index=99),))
    with pytest.raises(InputError) as err:
        construct_arguments(cleaner_model.beliefs, foreign)
    assert str(err.value) == f"instance {foreign[-1].id} was not triggered from these beliefs"


def test_construct_refuses_instances_citing_beliefs_it_was_not_given(cleaner_model):
    # Equal but for their ids, the copies would give arguments whose support
    # ids (b101, b102, ...) name no belief of the set.
    copies = tuple(b._replace(index=b.index + 100) for b in cleaner_model.beliefs)
    with pytest.raises(InputError) as err:
        construct_arguments(cleaner_model.beliefs, trigger_rules(copies))
    assert str(err.value) == "instance r1 was not triggered from these beliefs"


def test_records_compare_as_tuples(cleaner_model):
    # Beliefs, rule instances and arguments compare and hash as the plain
    # tuples of their fields, ids and provenance included.
    belief = next(b for b in cleaner_model.beliefs if b.kind is BeliefKind.INCOMPAT)
    inst, arg = cleaner_model.instances[3], cleaner_model.arguments[3]
    other_labels = kinds_from_letters("rs" if belief.labels != kinds_from_letters("rs") else "t")
    equal = [(record, copy) for record in (belief, inst, arg)
             for copy in (record._replace(), tuple(record))]
    unequal = [
        (belief, belief._replace(index=99)),
        (belief, belief._replace(provenance="elsewhere")),
        (belief, belief._replace(goals=belief.goals[::-1])),
        (belief, belief._replace(labels=other_labels)),
        (inst, inst._replace(index=99)),
        (inst, inst._replace(x="elsewhere")),
        (inst, inst._replace(head=negation(inst.head))),
        (arg, arg._replace(index=99)),
        (arg, arg._replace(instance=inst._replace(index=99))),
        (arg, arg._replace(instance=cleaner_model.instances[4])),
    ]
    for a, b in equal + unequal:
        for left, right in ((a, b), (b, a)):
            assert (left != right) is (not left == right)
    for a, b in equal:
        assert a == b and hash(a) == hash(b) and b in {a}
    for a, b in unequal:
        assert a != b and b != a and b not in {a}

    sentence = render_argument(arg, {g: g for g in "g1 g2 g3 g4 g5".split()})
    for record, name in ((belief, "index"), (inst, "index"), (arg, "index"),
                         (arg.claim, "goal"), (sentence, "text")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = None

    fact = Belief(BeliefKind.INCOMPAT, ("a", "b"), kinds_from_letters("t"), 3, "conflict-kinds")
    assert repr(fact) == (
        "Belief(kind=<BeliefKind.INCOMPAT: 'incompat'>, goals=('a', 'b'), "
        "labels=frozenset({<IncompatibilityKind.TERMINAL: 't'>}), "
        "index=3, provenance='conflict-kinds')"
    )


def by_shape(model, schema_id, x, y=None):
    hits = [
        a for a in model.arguments
        if a.schema_id == schema_id and a.instance.x == x and a.instance.y == y
    ]
    assert len(hits) == 1
    return hits[0]


def test_rebuts_on_worked_example(cleaner_model):
    pursued_g2 = by_shape(cleaner_model, "r2", "g2", "g4")
    not_pursued_g2 = by_shape(cleaner_model, "r3", "g3", "g2")
    max_util_not_g2 = by_shape(cleaner_model, "r6", "g2")
    pursued_g5_free = by_shape(cleaner_model, "r1", "g5")
    pursued_g5_max = by_shape(cleaner_model, "r5", "g5")

    assert rebuts(not_pursued_g2, pursued_g2)
    assert rebuts(pursued_g2, not_pursued_g2)
    assert rebuts(max_util_not_g2, pursued_g2)
    assert not rebuts(pursued_g5_free, pursued_g5_max)  # same polarity
    assert not rebuts(pursued_g2, pursued_g5_free)  # different goals
    assert not rebuts(pursued_g2, pursued_g2)  # irreflexive


def test_defeat_directions(cleaner_model):
    pursued_g2 = by_shape(cleaner_model, "r2", "g2", "g4")
    not_pursued_g2 = by_shape(cleaner_model, "r3", "g3", "g2")
    max_util_not_g2 = by_shape(cleaner_model, "r6", "g2")

    # decisive vs non-decisive: one-way defeat
    assert defeats(max_util_not_g2, pursued_g2)
    assert not defeats(pursued_g2, max_util_not_g2)
    # non-decisive vs non-decisive: the rebuttal stays mutual
    assert defeats(not_pursued_g2, pursued_g2)
    assert defeats(pursued_g2, not_pursued_g2)


def test_xaf_for_contested_goal(cleaner_model):
    xaf = cleaner_model.xafs["g2"]
    pursued_g2 = by_shape(cleaner_model, "r2", "g2", "g4")
    not_pursued_g2 = by_shape(cleaner_model, "r3", "g3", "g2")
    max_util_not_g2 = by_shape(cleaner_model, "r6", "g2")
    assert set(xaf.arguments) == {pursued_g2, not_pursued_g2, max_util_not_g2}
    assert xaf.defeats == {
        (max_util_not_g2.id, pursued_g2.id),
        (not_pursued_g2.id, pursued_g2.id),
        (pursued_g2.id, not_pursued_g2.id),
    }
    (extension,) = extensions_of(xaf, Semantics.GROUNDED)
    assert set(extension) == {not_pursued_g2, max_util_not_g2}


def test_xaf_for_uncontested_goals(cleaner_model):
    g4 = cleaner_model.xafs["g4"]
    assert len(g4.arguments) == 4
    assert g4.defeats == frozenset()
    (ext_g4,) = extensions_of(g4, Semantics.GROUNDED)
    assert ext_g4 == g4.arguments

    g5 = cleaner_model.xafs["g5"]
    assert len(g5.arguments) == 2
    assert g5.defeats == frozenset()
    (ext_g5,) = extensions_of(g5, Semantics.GROUNDED)
    assert ext_g5 == g5.arguments


def test_build_xaf_empty_goal(cleaner_model):
    # An empty framework holds no decisive argument: extensions_of refuses
    # it, and the closed form gives it the empty extension.
    xaf = build_xaf("unclaimed", cleaner_model.arguments)
    assert xaf == ExplanatoryAF((), (), ())
    assert xaf.defeats == frozenset()
    assert two_sided_extensions(xaf, Semantics.GROUNDED) == ((),)
    assert_closed_form_is_the_reference(xaf)
    assert_read_where_one_side_decides(xaf)


def test_why_partial_answers(cleaner_model):
    explanation = why(cleaner_model, "g1")
    assert explanation.kind is ExplanationKind.PARTIAL
    assert explanation.query is QueryKind.WHY
    assert explanation.semantics is Semantics.GROUNDED
    (extension,) = explanation.extensions
    assert set(extension) == {
        by_shape(cleaner_model, "r2", "g1", "g4"),
        by_shape(cleaner_model, "r5", "g1"),
    }


def test_why_not_partial_answers(cleaner_model):
    explanation = why_not(cleaner_model, "g2")
    (extension,) = explanation.extensions
    assert set(extension) == {
        by_shape(cleaner_model, "r3", "g3", "g2"),
        by_shape(cleaner_model, "r6", "g2"),
    }


def test_wrong_direction_queries(cleaner_model):
    with pytest.raises(QueryDirectionError) as err:
        why(cleaner_model, "g2")
    assert err.value.suggested_query == "why-not"
    with pytest.raises(QueryDirectionError) as err:
        why_not(cleaner_model, "g1")
    assert err.value.suggested_query == "why"


def test_unknown_goal_queries(cleaner_model):
    for query in (why, why_not, complete_explanation):
        with pytest.raises(InputError):
            query(cleaner_model, "gX")


def test_complete_explanation(cleaner_model):
    explanation = complete_explanation(cleaner_model, "g2")
    assert explanation.kind is ExplanationKind.COMPLETE
    assert explanation.query is QueryKind.WHY_NOT
    assert explanation.xaf == cleaner_model.xafs["g2"]
    assert explanation.extensions == ()
    assert explanation.semantics is None

    g5 = complete_explanation(cleaner_model, "g5")
    assert g5.query is QueryKind.WHY
    assert g5.xaf.defeats == frozenset()


def test_partial_is_extension_of_complete(cleaner_model):
    for goal in cleaner_model.gaf_sc.goals:
        query = why if goal in cleaner_model.selection.pursued else why_not
        partial = query(cleaner_model, goal)
        xaf = complete_explanation(cleaner_model, goal).xaf
        whole = AbstractAF.of((a.id for a in xaf.arguments), xaf.defeats)
        for extension in partial.extensions:
            assert frozenset(a.id for a in extension) == grounded_extension(whole)


def test_extension_claims_agree_in_polarity(cleaner_model):
    for goal in cleaner_model.gaf_sc.goals:
        for extension in extensions_of(cleaner_model.xafs[goal], Semantics.GROUNDED):
            polarities = {a.claim.pursued for a in extension}
            assert len(polarities) == 1


def test_decisive_arguments_always_survive(cleaner_model):
    for goal in cleaner_model.gaf_sc.goals:
        (extension,) = extensions_of(cleaner_model.xafs[goal], Semantics.GROUNDED)
        for arg in cleaner_model.xafs[goal].arguments:
            if arg.decisive:
                assert arg in extension


def test_multi_extension_semantics_on_symmetric_rebuttal():
    # Two non-decisive arguments about the same goal with opposite claims:
    # the mutual defeat splits preferred/stable into two extensions.
    beliefs = (
        Belief(BeliefKind.INCOMPAT, ("a", "b"), kinds_from_letters("t"), index=1),
        Belief(BeliefKind.PREF, ("a", "b"), index=2),
        Belief(BeliefKind.NOT_PREF, ("b", "a"), index=3),
        Belief(BeliefKind.INCOMPAT, ("b", "c"), kinds_from_letters("s"), index=4),
        Belief(BeliefKind.PREF, ("b", "c"), index=5),
    )
    instances = trigger_rules(beliefs)
    arguments = construct_arguments(beliefs, instances)
    # Neither is decisive, so extensions_of refuses the framework and the
    # closed form of the oracles reads it.
    xaf = build_xaf("b", arguments)
    assert len(xaf.arguments) == 2
    assert two_sided_extensions(xaf, Semantics.GROUNDED) == ((),)
    preferred = two_sided_extensions(xaf, Semantics.PREFERRED)
    assert len(preferred) == 2
    assert two_sided_extensions(xaf, Semantics.STABLE) == preferred
    complete = two_sided_extensions(xaf, Semantics.COMPLETE)
    assert len(complete) == 3  # empty set plus the two singletons
    assert_closed_form_is_the_reference(xaf)
    assert_read_where_one_side_decides(xaf)


def test_pipeline_coherence_on_random_scenarios():
    rng = random.Random(29)
    for _ in range(60):
        filtered = apply_successful_attacks(random_goal_af(rng, max_goals=8))
        selection = select(filtered)
        model = build_explanation_model(filtered, selection)
        claims = {(a.claim.goal, a.claim.pursued) for a in model.arguments}
        for goal in filtered.goals:
            assert (goal, goal in selection.pursued) in claims
        assert_supports_minimal(model.arguments)


def test_defeat_edges_connect_rebutting_pairs_only():
    rng = random.Random(31)
    for _ in range(40):
        filtered = apply_successful_attacks(random_goal_af(rng, max_goals=8))
        model = build_explanation_model(filtered, select(filtered))
        for xaf in model.xafs.values():
            by_id = {a.id: a for a in xaf.arguments}
            for (src, dst) in xaf.defeats:
                assert rebuts(by_id[src], by_id[dst])
            # and every defeat among the goal's arguments is an edge
            assert xaf.defeats == {
                (a.id, b.id) for a in xaf.arguments for b in xaf.arguments if defeats(a, b)
            }


def test_pipeline_leaves_defeats_underived():
    # Deciding never needs the defeat edges: a pipeline framework stores its
    # arguments and its two sides only, and each read of `defeats` yields
    # the defeat rule's edges.
    rng = random.Random(43)
    for _ in range(20):
        ids = [f"g{i}" for i in range(rng.randint(4, 10))]
        doc = {
            "goals": [{"id": g, "predicate": f"{g}()", "preference": f"{rng.randint(1, 8)}/8"}
                      for g in ids],
            "goal_attacks": [{"from": a, "to": b, "kinds": rng.sample("trs", rng.randint(1, 3))}
                             for i, a in enumerate(ids) for b in ids[i + 1:]
                             if rng.random() < 0.8],
        }
        for xaf in run_pipeline(parse_scenario(doc)).model.xafs.values():
            assert (xaf._fields, len(xaf)) == (("arguments", "pro", "con"), 3)
            assert not hasattr(xaf, "__dict__")
            assert xaf.defeats == {
                (a.id, b.id) for a in xaf.arguments for b in xaf.arguments if defeats(a, b)
            }


REFERENCE_SEMANTICS = {
    Semantics.GROUNDED: lambda af: [grounded_extension(af)],
    Semantics.COMPLETE: complete_extensions,
    Semantics.PREFERRED: preferred_extensions,
    Semantics.STABLE: stable_extensions,
}


def test_pipeline_extensions_match_af_core_under_every_semantics():
    # Every pipeline framework holds one decisive argument, so extensions_of
    # reads its extension off in closed form; the generic evaluation of the
    # same framework in oracles is the reference.
    rng = random.Random(37)
    raws = [random_goal_af(rng, max_goals=8) for _ in range(40)]
    raws += [derive_goal_af(require_valid(random_general_af(rng))) for _ in range(40)]
    for raw in raws:
        filtered = apply_successful_attacks(raw)
        model = build_explanation_model(filtered, select(filtered))
        for xaf in model.xafs.values():
            assert sum(a.decisive for a in xaf.arguments) == 1
            af = AbstractAF.of((a.id for a in xaf.arguments), xaf.defeats)
            for semantics, evaluate in REFERENCE_SEMANTICS.items():
                got = extensions_of(xaf, semantics)
                assert [frozenset(a.id for a in ext) for ext in got] == evaluate(af)
                for ext in got:
                    assert [a.index for a in ext] == sorted(a.index for a in ext)


@cache
def pipeline_models(family):
    """The cleaner world's model (family None), or those of every seed-1
    document of a benchmark workload, built once for the tests below."""
    if family is None:
        return (run_pipeline(load_scenario(CLEANER_WORLD)).model,)
    return tuple(run_pipeline(parse_scenario(doc)).model
                 for doc in bench_gen().family_docs(family, 1, 100))


@pytest.mark.parametrize("family", ["select-sparse", "explain-dense", "cli-mix"])
def test_every_semantics_reads_the_grounded_extension_on_benchmark_documents(family):
    # Each framework of the benchmark's seed-1 documents has one decisive
    # argument, so all four semantics give one extension: the grounded one.
    for model in pipeline_models(family):
        for xaf in model.xafs.values():
            found = {s: [[a.id for a in ext] for ext in extensions_of(xaf, s)]
                     for s in Semantics}
            (extension,) = found[Semantics.GROUNDED]
            assert all(ids == [extension] for ids in found.values())
            af = AbstractAF.of((a.id for a in xaf.arguments), xaf.defeats)
            assert set(extension) == grounded_extension(af)


@pytest.mark.parametrize("family", [None, "select-sparse", "explain-dense", "cli-mix"])
def test_records_are_the_records_their_constructors_build(family):
    # The pipeline builds records with tuple.__new__ and reads an argument's
    # claim, decisive and schema_id through attrgetter: on the cleaner world
    # (None) and on every seed-1 benchmark document, each record must be what
    # its class's constructor builds from its fields.
    for model in pipeline_models(family):
        claims = [inst.head for inst in model.instances]
        for cls, records in ((Belief, model.beliefs), (RuleInstance, model.instances),
                             (ExplanatoryArgument, model.arguments), (Claim, claims)):
            for r in records:
                assert type(r) is cls
                assert len(r) == len(cls._fields)
                assert r == cls(*r)
        for a in model.arguments:
            assert a.claim == a.instance.head
            assert a.decisive == a.instance.schema.decisive
            assert a.schema_id == a.instance.schema.id == a.instance.schema_id


@pytest.mark.parametrize("family", [None, "select-sparse", "explain-dense", "cli-mix"])
def test_each_framework_is_its_two_sides(family):
    # The pipeline splits each goal's arguments by claim as it groups them:
    # on the cleaner world and every seed-1 benchmark document, each side is
    # in index order, exactly one side holds the one decisive argument, and
    # that side, which agrees with the selection, is the one extension under
    # every semantics.
    for model in pipeline_models(family):
        for goal, xaf in model.xafs.items():
            assert type(xaf) is ExplanatoryAF
            assert xaf == ExplanatoryAF(*xaf)
            assert xaf == build_xaf(goal, model.arguments)
            assert list(xaf.arguments) == sorted(xaf.arguments, key=lambda a: a.index)
            assert xaf.pro == tuple(a for a in xaf.arguments if a.claim.pursued)
            assert xaf.con == tuple(a for a in xaf.arguments if not a.claim.pursued)
            assert {a.claim.goal for a in xaf.arguments} == {goal}
            (decisive,) = (a for a in xaf.arguments if a.decisive)
            holding = [side for side in (xaf.pro, xaf.con) if decisive in side]
            assert len(holding) == 1
            (side,) = holding
            assert decisive.claim.pursued == (goal in model.selection.pursued)
            for semantics in Semantics:
                assert extensions_of(xaf, semantics) == (side,)


def assert_closed_form_is_the_reference(xaf):
    """The oracles' closed form gives the reference semantics' extensions,
    each ordered by argument index and the extensions by their index lists.
    The reference orders extensions by id, so they are compared as sets."""
    af = AbstractAF.of((a.id for a in xaf.arguments), xaf.defeats)
    for semantics, evaluate in REFERENCE_SEMANTICS.items():
        got = two_sided_extensions(xaf, semantics)
        expected = evaluate(af)
        assert len(got) == len(expected)
        assert {frozenset(a.id for a in ext) for ext in got} == set(expected)
        assert list(got) == sorted(got, key=lambda ext: [a.index for a in ext])
        for ext in got:
            assert [a.index for a in ext] == sorted(a.index for a in ext)


def assert_read_where_one_side_decides(xaf, semantics_asked=tuple(Semantics)):
    """extensions_of gives the closed form's one extension when decisive
    arguments sit on one side only, and refuses any other framework."""
    decisive = {a.claim.pursued for a in xaf.arguments if a.decisive}
    for semantics in semantics_asked:
        if len(decisive) == 1:
            assert extensions_of(xaf, semantics) == two_sided_extensions(xaf, semantics)
        else:
            held = "decisive arguments on both sides" if decisive else "no decisive argument"
            with pytest.raises(InputError, match=f"^the framework holds {held},"):
                extensions_of(xaf, semantics)


def test_pooled_frameworks_match_af_core_under_every_semantics():
    # One goal's arguments pooled from two models whose selections differ
    # (the second re-indexed), then random subsets: decisive arguments fall
    # on one side, on both sides or on neither.  The closed form of the
    # oracles matches the reference evaluation on each, and extensions_of
    # reads the first kind and refuses the other two.
    rng = random.Random(41)
    sides_seen = set()
    for _ in range(30):
        filtered = apply_successful_attacks(random_goal_af(rng, max_goals=6))
        selection = other = select(filtered)
        goals = filtered.goals
        while other.pursued == selection.pursued:
            pursued = frozenset(rng.sample(goals, rng.randint(0, len(goals))))
            other = replace(selection, pursued=pursued)
        first = build_explanation_model(filtered, selection).arguments
        second = build_explanation_model(filtered, other).arguments
        pool = first + tuple(a._replace(index=a.index + len(first)) for a in second)
        for goal in goals:
            for _ in range(8):
                xaf = build_xaf(goal, rng.sample(pool, rng.randint(0, len(pool))))
                sides_seen.add(len({a.claim.pursued for a in xaf.arguments if a.decisive}))
                assert_closed_form_is_the_reference(xaf)
                assert_read_where_one_side_decides(xaf)
    assert sides_seen == {0, 1, 2}


def contested_xaf(n):
    """Goal g's framework with n pro arguments (g preferred over h_i, r2)
    and n con arguments (k_i preferred over g, r3), none of them decisive."""
    t = kinds_from_letters("t")
    beliefs = []
    for i in range(n):
        beliefs += [Belief(BeliefKind.INCOMPAT, ("g", f"h{i}"), t),
                    Belief(BeliefKind.PREF, ("g", f"h{i}")),
                    Belief(BeliefKind.INCOMPAT, (f"k{i}", "g"), t),
                    Belief(BeliefKind.NOT_PREF, ("g", f"k{i}"))]
    return build_xaf("g", construct_arguments(beliefs, trigger_rules(beliefs)))


def test_a_contested_framework_is_read_off_its_two_sides():
    # With no decisive argument, extensions_of refuses the framework and the
    # closed form of the oracles reads it.  At 40 a side it has 2^41
    # conflict-free sets, too many for the reference, which checks the same
    # shape at 1 to 4 a side.
    xaf = contested_xaf(40)
    pro, con = xaf.arguments[:40], xaf.arguments[40:]
    assert (xaf.pro, xaf.con) == (pro, con)
    assert {a.claim.pursued for a in pro} == {True} and {a.claim.pursued for a in con} == {False}
    assert two_sided_extensions(xaf, Semantics.GROUNDED) == ((),)
    assert two_sided_extensions(xaf, Semantics.COMPLETE) == ((), pro, con)
    assert two_sided_extensions(xaf, Semantics.PREFERRED) == (pro, con)
    assert two_sided_extensions(xaf, Semantics.STABLE) == (pro, con)
    assert_read_where_one_side_decides(xaf)
    for n in range(1, 5):
        assert_closed_form_is_the_reference(contested_xaf(n))


def contested_with_shared_ids():
    # No side holds a decisive argument, and two con arguments take the ids
    # of pro arguments A9 and A10: the least shared id, as a string, is named.
    arguments = contested_xaf(10).arguments
    con = [a._replace(index=i) for a, i in zip(arguments[10:], [9, 10])]
    return "g", arguments[:10] + tuple(con) + arguments[12:], arguments, "A10"


def cleaner_g2_with_shared_id():
    # Only the con side (A8, decisive A13) holds a decisive argument, and
    # the pro argument A3 takes the id A13.
    filtered = apply_successful_attacks(derive_goal_af(cleaner_general_af()))
    arguments = build_explanation_model(filtered, select(filtered)).xafs["g2"].arguments
    assert [(a.id, a.claim.pursued, a.decisive) for a in arguments] == [
        ("A3", True, False), ("A8", False, False), ("A13", False, True)]
    moved = tuple(a._replace(index=13) if a.claim.pursued else a for a in arguments)
    return "g2", moved, arguments, "A13"


@pytest.mark.parametrize("semantics", list(Semantics))
def test_a_pro_and_a_con_argument_sharing_an_id_are_rejected(semantics):
    # build_xaf refuses the clash, in whatever order the arguments come,
    # before any semantics is asked for; the same arguments without it build
    # a framework that extensions_of reads, or refuses, as for any other.
    for goal, shared, unshared, least in (contested_with_shared_ids(),
                                          cleaner_g2_with_shared_id()):
        message = rf"^self-attack on '{least}' is not allowed$"
        for arguments in (shared, shared[::-1]):
            with pytest.raises(InputError, match=message):
                build_xaf(goal, arguments)
        assert_read_where_one_side_decides(build_xaf(goal, unshared), [semantics])
