"""The instrumental-argument level: plans, goals, and labeled attacks.

This framework is the pipeline's *input*: each instrumental argument stands
for a plan achieving a goal, and every attack between two plans is labeled
with the kinds of incompatibility that cause it (terminal, resource,
superfluity).  How those attacks are identified from a knowledge base is
out of scope here; scenario authors state the labeled relation directly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ValidationError


class IncompatibilityKind(Enum):
    """The three closed kinds of conflict between plans; declaration
    order (t, r, s) is the display order of label sets."""

    TERMINAL = "t"
    RESOURCE = "r"
    SUPERFLUITY = "s"


def kinds_from_letters(letters: Iterable[str]) -> frozenset[IncompatibilityKind]:
    return frozenset(IncompatibilityKind(letter) for letter in letters)


def format_kinds(kinds: frozenset[IncompatibilityKind]) -> str:
    """Render a label set as its letters in fixed t, r, s order: "t,r"."""
    return ",".join(k.value for k in IncompatibilityKind if k in kinds)


@dataclass(frozen=True)
class GoalDecl:
    """A pursuable goal: opaque id, display predicate, preference in (0, 1]."""

    id: str
    predicate: str
    preference: Fraction


@dataclass(frozen=True)
class InstrumentalArgDecl:
    """A plan argument: which goal it achieves and its sub-plan arguments."""

    id: str
    claim: str
    sub_args: tuple[str, ...] = ()


@dataclass(frozen=True)
class GeneralAF:
    """Instrumental arguments plus the labeled attack relation between them.

    `attacks` maps each directed pair to its nonempty incompatibility label
    set; the per-kind relations are recoverable by filtering on the labels.
    """

    goals: tuple[GoalDecl, ...]
    args: tuple[InstrumentalArgDecl, ...]
    attacks: Mapping[tuple[str, str], frozenset[IncompatibilityKind]]


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity} at {self.location}: {self.message}"


def validate(gaf: GeneralAF) -> list[ValidationIssue]:
    """Check all framework invariants; returns every violation found.

    Asymmetric attack labeling (a pair present without its reverse, or with
    differing labels) is reported as a warning, not an error: symmetry holds
    in every construction we know of, but nothing forbids other inputs.
    """
    issues: list[ValidationIssue] = []

    seen_goals: set[str] = set()
    for i, goal in enumerate(gaf.goals):
        loc = f"goals[{i}] ({goal.id})"
        if goal.id in seen_goals:
            issues.append(ValidationIssue("error", loc, "duplicate goal id"))
        seen_goals.add(goal.id)
        if not goal.predicate:
            issues.append(ValidationIssue("error", loc, "empty predicate"))
        if not (0 < goal.preference <= 1):
            issues.append(
                ValidationIssue("error", loc, f"preference {goal.preference} outside (0, 1]")
            )

    goal_ids = {g.id for g in gaf.goals}
    seen_args: set[str] = set()
    for i, arg in enumerate(gaf.args):
        loc = f"arguments[{i}] ({arg.id})"
        if arg.id in seen_args:
            issues.append(ValidationIssue("error", loc, "duplicate argument id"))
        seen_args.add(arg.id)
        if arg.claim not in goal_ids:
            issues.append(ValidationIssue("error", loc, f"claim references unknown goal {arg.claim!r}"))

    arg_ids = {a.id for a in gaf.args}
    for i, arg in enumerate(gaf.args):
        for sub in arg.sub_args:
            if sub not in arg_ids:
                issues.append(
                    ValidationIssue(
                        "error", f"arguments[{i}] ({arg.id})", f"unknown sub-argument {sub!r}"
                    )
                )

    for cycle in _sub_arg_cycles(gaf):
        issues.append(
            ValidationIssue(
                "error",
                f"arguments ({cycle[0]})",
                "cyclic sub-argument relation: " + " -> ".join(cycle),
            )
        )

    def attack_issue(severity: str, pair: tuple[str, str], message: str) -> None:
        # The location is formatted only for a pair that has an issue.
        issues.append(ValidationIssue(severity, "attacks[({}, {})]".format(*pair), message))

    for pair, labels in sorted(gaf.attacks.items()):
        attacker, target = pair
        for endpoint in pair:
            if endpoint not in arg_ids:
                attack_issue("error", pair, f"unknown argument {endpoint!r}")
        if attacker == target:
            attack_issue("error", pair, "self-attack")
        if not labels:
            attack_issue("error", pair, "empty incompatibility label set")
        reverse = gaf.attacks.get((target, attacker))
        if reverse is None:
            attack_issue("warning", pair, "reverse attack not declared")
        elif reverse != labels:
            attack_issue("warning", pair, "labels differ from the reverse attack's")

    return issues


def _sub_arg_cycles(gaf: GeneralAF) -> Iterator[list[str]]:
    """Yield each cycle the depth-first search closes, as the path from a
    node back to itself.  The search uses an explicit stack, so chains of
    any depth are checked without recursion; a plan with no sub-arguments
    closes no cycle and is never a root."""
    graph = {a.id: a.sub_args for a in gaf.args}
    state: dict[str, int] = {}  # 0 visiting, 1 done

    for root in sorted(graph):
        if root in state or not graph[root]:
            continue
        state[root] = 0
        path = [root]
        pending = [iter(graph[root])]
        while pending:
            for child in pending[-1]:
                if state.get(child) == 0:
                    yield path[path.index(child):] + [child]
                elif child in graph and child not in state:
                    state[child] = 0
                    path.append(child)
                    pending.append(iter(graph[child]))
                    break
            else:
                state[path.pop()] = 1
                pending.pop()


def _is_valid(gaf: GeneralAF) -> bool:
    """Whether `validate` finds no error, decided without building any text."""
    goal_ids = {g.id for g in gaf.goals}
    arg_ids = {a.id for a in gaf.args}
    return (
        len(goal_ids) == len(gaf.goals)
        and len(arg_ids) == len(gaf.args)
        and all(g.predicate and 0 < g.preference <= 1 for g in gaf.goals)
        and all(a.claim in goal_ids and arg_ids.issuperset(a.sub_args) for a in gaf.args)
        and all(
            labels and a != b and a in arg_ids and b in arg_ids
            for (a, b), labels in gaf.attacks.items()
        )
        and next(_sub_arg_cycles(gaf), None) is None
    )


def require_valid(gaf: GeneralAF) -> GeneralAF:
    """Return the framework unchanged, or raise with all error-level issues.

    The text-free `_is_valid` decides; `validate` runs only to word a failure."""
    if _is_valid(gaf):
        return gaf
    raise ValidationError([i for i in validate(gaf) if i.severity == "error"])
