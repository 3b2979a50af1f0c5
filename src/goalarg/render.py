"""Rendering: pseudo-natural sentences and DOT graphs.

Each rule schema has one sentence template; which template applies to an
argument is decided by the rule its instance came from.  Templates are
plain data, written once in the read-only `SENTENCE_TEMPLATES`, so adding
schemes later needs no engine change.  Each template is read once, at
import, into a printf form (`%` escaped, each `{slot}` as `%(slot)s`),
and a sentence is that form filled from one dict of its instance's x, y
and label set: values go in verbatim, whatever braces or `%` signs they
hold.  Only partial explanations render as sentences, each an immutable
named tuple; complete explanations are graphs and go out as DOT or
structured documents.
"""

from __future__ import annotations

from _string import formatter_parser  # what `string.Formatter.parse` runs
from collections.abc import Mapping
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from .errors import InputError
from .instrumental import GeneralAF, format_kinds

if TYPE_CHECKING:
    from .explain import Explanation, ExplanatoryAF, ExplanatoryArgument
    from .goal_graph import GoalAF


SENTENCE_TEMPLATES: Mapping[str, str] = MappingProxyType({
    "r1": "{x} has no incompatibility, so it became pursued.",
    "r2": (
        "{x} and {y} have the following conflicts: '{ls}'. "
        "Since {x} is more preferable than {y}, {x} became pursued."
    ),
    "r3": (
        "{x} and {y} have the following conflicts: '{ls}'. "
        "Since {y} is less preferable than {x}, {y} did not become pursued."
    ),
    "r4": (
        "{x} and {y} have the following conflicts: '{ls}'. "
        "Since {x} and {y} have the same preference value, {x} became pursued."
    ),
    "r5": "Since {x} belonged to the set of goals that maximizes the utility, it became pursued.",
    "r6": (
        "Since {x} did not belong to the set of goals that maximizes the utility, "
        "it did not become pursued."
    ),
})


def _printf_form(template: str) -> str:
    """The template as `str.format` reads it, written as a printf form.
    Its slots are bare names, with no format spec or conversion."""
    return "".join(
        literal.replace("%", "%%") + ("" if slot is None else f"%({slot})s")
        for literal, slot, _spec, _conversion in formatter_parser(template)
    )


_FORMS = {rule: _printf_form(template) for rule, template in SENTENCE_TEMPLATES.items()}


# Builds a named tuple from its fields in C, as `explain` builds its records.
_new = tuple.__new__


class ExplanatorySentence(NamedTuple):
    argument_id: str
    scheme_id: str
    text: str


def render_argument(
    arg: ExplanatoryArgument, names: Mapping[str, str]
) -> ExplanatorySentence:
    """Apply the scheme matching the argument's rule.

    The slots are the instance's x and y, resolved through `names` to
    their display predicates, verbatim, and its label set, rendered as its
    letters in fixed t, r, s order.
    """
    inst = arg.instance
    rule, x, y, labels = inst.schema.id, inst.x, inst.y, inst.labels
    if x not in names:
        raise InputError(f"no predicate known for goal {x!r}")
    slots = {"x": names[x]}
    if y is not None:
        if y not in names:
            raise InputError(f"no predicate known for goal {y!r}")
        slots["y"] = names[y]
    if labels is not None:
        slots["ls"] = format_kinds(labels)
    return _new(ExplanatorySentence, (arg.id, rule, _FORMS[rule] % slots))


def render_partial_explanation(
    explanation: Explanation, names: Mapping[str, str]
) -> list[ExplanatorySentence]:
    """One sentence per extension member, in argument order.

    When a multi-extension semantics produced several extensions their
    sentence groups are concatenated in extension order.
    """
    # Read off the kind's own class: this module does not import `explain`.
    if explanation.kind is not type(explanation.kind).PARTIAL:
        raise InputError(
            "complete explanations have no sentence form; export them as a graph "
            "(DOT) or as a structured document"
        )
    return [
        render_argument(arg, names)
        for extension in explanation.extensions
        for arg in extension
    ]


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_label(label: str | None) -> str:
    return "" if label is None else f" [label={_dot_quote(label)}]"


def export_dot(
    af: GeneralAF | GoalAF | ExplanatoryAF, names: Mapping[str, str] | None = None
) -> str:
    """Deterministic DOT text for a plan, goal or explanatory framework.

    Plans come in id order; goal graphs carry their conflict kinds as edge
    labels; explanatory frameworks label each node with its claim.  Only
    the plan level's module is imported, so a plan graph loads no later stage.
    """
    if isinstance(af, GeneralAF):
        nodes = [(arg_id, None) for arg_id in sorted({arg.id for arg in af.args})]
        edges = [(a, b, None) for (a, b) in sorted(af.attacks)]
    elif hasattr(af, "defeats"):  # an explanatory framework
        nodes = [(arg.id, f"{arg.id}: {arg.claim}") for arg in af.arguments]
        edges = [(a, b, None) for (a, b) in sorted(af.defeats)]
    else:  # a goal graph
        nodes = [(g, f"{g}: {names[g]}" if names and g in names else g) for g in af.goals]
        edges = [(a, b, format_kinds(kinds)) for (a, b), kinds in sorted(af.attacks.items())]
    lines = ["digraph {"]
    lines += [f"  {_dot_quote(n)}{_dot_label(label)};" for n, label in nodes]
    lines += [f"  {_dot_quote(a)} -> {_dot_quote(b)}{_dot_label(label)};" for a, b, label in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"

