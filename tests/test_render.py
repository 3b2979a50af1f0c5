from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_DIR, cleaner_general_af, pipeline_models, pipeline_scenarios
from goalarg import (
    GeneralAF,
    InputError,
    InstrumentalArgDecl,
    Semantics,
    apply_successful_attacks,
    build_explanation_model,
    build_xaf,
    complete_explanation,
    derive_goal_af,
    export_dot,
    format_rational,
    kinds_from_letters,
    render_argument,
    render_partial_explanation,
    select,
    why,
    why_not,
)
from goalarg.explain import SCHEMAS, Explanation, ExplanationKind, QueryKind
from goalarg.render import SENTENCE_TEMPLATES, ExplanatorySentence, _printf_form
from oracles import render_brute


@pytest.fixture(scope="module")
def cleaner_model():
    filtered = apply_successful_attacks(derive_goal_af(cleaner_general_af()))
    return build_explanation_model(filtered, select(filtered))


@pytest.fixture(scope="module")
def names():
    return {g.id: g.predicate for g in cleaner_general_af().goals}


def golden_sentences() -> dict[str, list[str]]:
    blocks: dict[str, list[str]] = {}
    current = None
    for line in (GOLDEN_DIR / "cleaner_world_sentences.txt").read_text().splitlines():
        if line.startswith("# "):
            current = line[2:].split()[-1]
            blocks[current] = []
        elif line.strip():
            blocks[current].append(line)
    return blocks


def find_argument(model, schema_id, x, y=None):
    (hit,) = [
        a for a in model.arguments
        if a.schema_id == schema_id and a.instance.x == x and a.instance.y == y
    ]
    return hit


def test_no_conflict_scheme(cleaner_model, names):
    arg = find_argument(cleaner_model, "r1", "g5")
    sentence = render_argument(arg, names)
    assert sentence.text == "be(fixed) has no incompatibility, so it became pursued."
    assert sentence.scheme_id == "r1"
    assert sentence.argument_id == arg.id


def test_preference_scheme(cleaner_model, names):
    arg = find_argument(cleaner_model, "r2", "g1", "g4")
    assert render_argument(arg, names).text == (
        "clean(5,5) and be(in_workshop) have the following conflicts: 't,r'. "
        "Since clean(5,5) is more preferable than be(in_workshop), "
        "clean(5,5) became pursued."
    )


def test_non_max_utility_scheme(cleaner_model, names):
    arg = find_argument(cleaner_model, "r6", "g2")
    assert render_argument(arg, names).text == (
        "Since pickup(5,5) did not belong to the set of goals that maximizes "
        "the utility, it did not become pursued."
    )


def test_equal_preference_scheme(names):
    from goalarg import Belief, BeliefKind, construct_arguments, kinds_from_letters, trigger_rules

    beliefs = (
        Belief(BeliefKind.INCOMPAT, ("g1", "g2"), kinds_from_letters("rs"), index=1),
        Belief(BeliefKind.EQ_PREF, ("g1", "g2"), index=2),
    )
    (arg,) = construct_arguments(beliefs, trigger_rules(beliefs))
    assert render_argument(arg, names).text == (
        "clean(5,5) and pickup(5,5) have the following conflicts: 'r,s'. "
        "Since clean(5,5) and pickup(5,5) have the same preference value, "
        "clean(5,5) became pursued."
    )


def test_unresolvable_goal_id(cleaner_model):
    arg = find_argument(cleaner_model, "r1", "g5")
    with pytest.raises(InputError):
        render_argument(arg, {})


@pytest.mark.parametrize("missing", ["g1", "g4"])
def test_an_unknown_x_or_y_is_named(cleaner_model, names, missing):
    # x is checked before y; each message is the oracle's.
    arg = find_argument(cleaner_model, "r2", "g1", "g4")
    partial = {g: p for g, p in names.items() if g != missing}
    message = re.escape(f"no predicate known for goal {missing!r}")
    for render in (render_argument, render_brute):
        with pytest.raises(InputError, match=f"^{message}$"):
            render(arg, partial)


@pytest.mark.parametrize("family", [None, "select-sparse", "explain-dense", "cli-mix"])
def test_every_argument_renders_as_its_template_defines(family):
    # On the cleaner world and every seed-1 benchmark document, each
    # argument's sentence is its template filled by `str.format`.
    for scenario, model in zip(pipeline_scenarios(family), pipeline_models(family)):
        names = scenario.names()
        for arg in model.arguments:
            sentence = render_argument(arg, names)
            assert type(sentence) is ExplanatorySentence
            assert sentence == ExplanatorySentence(arg.id, arg.schema_id, render_brute(arg, names))


# Predicates that printf and `str.format` would read as markup if they
# were not inserted verbatim, and non-ASCII text.
AWKWARD = st.lists(
    st.sampled_from(["%", "%%", "%(x)s", "%s", "{x}", "{", "}", "{{", "é", "目標"]) | st.text(),
    max_size=4,
).map("".join)


@settings(max_examples=100, deadline=None)
@given(st.lists(AWKWARD, min_size=5, max_size=5))
def test_predicates_are_inserted_verbatim(cleaner_model, predicates):
    names = dict(zip(("g1", "g2", "g3", "g4", "g5"), predicates))
    for arg in cleaner_model.arguments:
        text = render_argument(arg, names).text
        assert text == render_brute(arg, names)
        for goal in (arg.instance.x, arg.instance.y):
            assert goal is None or names[goal] in text


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["{x}", "{y}", "{ls}", "{{", "}}", "%", "%%", "%(x)s", "é "])
                | st.text(alphabet=st.characters(exclude_characters="{}")), max_size=8),
       st.lists(AWKWARD, min_size=3, max_size=3))
def test_a_printf_form_fills_as_its_template_formats(pieces, values):
    # The form is read with the parser `str.format` uses: literal `%` is
    # escaped, doubled braces are literal, and each slot is a mapping key.
    template = "".join(pieces)
    slots = dict(zip(("x", "y", "ls"), values))
    assert _printf_form(template) % slots == template.format(**slots)


def test_partial_explanations_match_golden_file(cleaner_model, names):
    expected = golden_sentences()
    queries = {
        "g1": why, "g2": why_not, "g3": why, "g4": why_not, "g5": why,
    }
    for goal, query in queries.items():
        sentences = render_partial_explanation(query(cleaner_model, goal), names)
        assert [s.text for s in sentences] == expected[goal]


def test_partial_sentence_counts(cleaner_model, names):
    counts = {"g1": 2, "g2": 2, "g3": 3, "g4": 4, "g5": 2}
    for goal, n in counts.items():
        query = why if goal in cleaner_model.selection.pursued else why_not
        assert len(render_partial_explanation(query(cleaner_model, goal), names)) == n


def test_empty_extension_renders_empty(names):
    xaf = build_xaf("nothing", ())
    explanation = Explanation(
        "nothing", QueryKind.WHY, ExplanationKind.PARTIAL, xaf,
        Semantics.GROUNDED, ((),),
    )
    assert render_partial_explanation(explanation, names) == []


def test_complete_explanation_has_no_sentence_form(cleaner_model, names):
    explanation = complete_explanation(cleaner_model, "g2")
    with pytest.raises(InputError, match="graph"):
        render_partial_explanation(explanation, names)


def test_rendering_is_injective_on_the_fixture(cleaner_model, names):
    texts = [render_argument(a, names).text for a in cleaner_model.arguments]
    assert len(set(texts)) == len(texts) == 14


def test_rendering_is_stable(cleaner_model, names):
    first = [s.text for s in render_partial_explanation(why(cleaner_model, "g1"), names)]
    second = [s.text for s in render_partial_explanation(why(cleaner_model, "g1"), names)]
    assert first == second


def test_every_schema_has_a_template():
    assert {s.id for s in SCHEMAS} == set(SENTENCE_TEMPLATES)
    assert len(SENTENCE_TEMPLATES) == len(SCHEMAS) == 6


def test_templates_are_read_only():
    # The printf forms are read from the templates once, so the templates
    # cannot change under them.
    with pytest.raises(TypeError):
        SENTENCE_TEMPLATES["r1"] = "{x} was pursued."
    assert SENTENCE_TEMPLATES["r1"] == "{x} has no incompatibility, so it became pursued."


def plan_af(ids, attacks=()):
    """A plan framework: one plan per id, each attack labelled `t`."""
    args = tuple(InstrumentalArgDecl(i, i) for i in ids)
    return GeneralAF((), args, dict.fromkeys(attacks, kinds_from_letters("t")))


def test_export_dot_empty():
    assert export_dot(plan_af([])) == "digraph {\n}\n"


def test_export_dot_goal_graph(cleaner_model, names):
    text = export_dot(cleaner_model.gaf_sc, names)
    assert text.count(" -> ") == 4
    assert '"g3" -> "g2" [label="s"];' in text
    assert '"g1" -> "g4" [label="t,r"];' in text
    assert '"g5" [label="g5: be(fixed)"];' in text
    assert text.count("label=") == 5 + 4  # five nodes, four edges


def test_export_dot_explanatory_framework(cleaner_model):
    xaf = cleaner_model.xafs["g2"]
    text = export_dot(xaf)
    for arg in xaf.arguments:
        assert f'"{arg.id}"' in text
    assert text.count(" -> ") == 3


def test_export_dot_abstract():
    # Plans are drawn in id order, and their attacks without labels.
    af = plan_af(["b", "a"], [("b", "a"), ("a", "b")])
    assert export_dot(af) == 'digraph {\n  "a";\n  "b";\n  "a" -> "b";\n  "b" -> "a";\n}\n'


def test_export_dot_escapes_quotes():
    assert '\\"hi\\"' in export_dot(plan_af(['say "hi"']))


def test_format_rational():
    assert format_rational(Fraction("0.8")) == "0.8"
    assert format_rational(Fraction(12, 5)) == "2.4"
    assert format_rational(Fraction(1)) == "1"
    assert format_rational(Fraction(1, 4)) == "0.25"
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(-3, 2)) == "-1.5"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(101, 100)) == "1.01"
