"""The instrumental-argument level: plans, goals, and labeled attacks.

This framework is the pipeline's *input*: each instrumental argument stands
for a plan achieving a goal, and every attack between two plans is labeled
with the kinds of incompatibility that cause it (terminal, resource,
superfluity).  How those attacks are identified from a knowledge base is
out of scope here; scenario authors state the labeled relation directly.
Every label set is one of the eight in `LABEL_SETS`, the one place their
spelling is decided; exact values print through `format_rational`.
The records here are named tuples, compared as tuples, copied by `_replace`.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Mapping
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .errors import ValidationError


class IncompatibilityKind(Enum):
    """The three closed kinds of conflict between plans; declaration
    order (t, r, s) is the display order of label sets."""

    TERMINAL = "t"
    RESOURCE = "r"
    SUPERFLUITY = "s"


# The eight label sets, keyed by their letters in t, r, s order; the parser
# hands out these very sets.  Keys built from string literals hold the same
# one-letter strings JSON parsing returns, so lookups match by identity.
LABEL_SETS: dict[tuple[str, ...], frozenset[IncompatibilityKind]] = {
    tuple(letters): frozenset(map(IncompatibilityKind, letters))
    for letters in ("", "t", "r", "s", "tr", "ts", "rs", "trs")
}
# Each set's letters, as reports list them, and its printed form ("t,r").
LETTERS = {kinds: letters for letters, kinds in LABEL_SETS.items()}
_PRINTED = {kinds: ",".join(letters) for letters, kinds in LABEL_SETS.items()}


def kinds_from_letters(letters: Iterable[str]) -> frozenset[IncompatibilityKind]:
    """The table's set for these letters, in any order and with repeats."""
    return LABEL_SETS[LETTERS[frozenset(map(IncompatibilityKind, letters))]]


def format_kinds(kinds: Iterable[IncompatibilityKind]) -> str:
    """Render a label set as its letters in fixed t, r, s order: "t,r"."""
    return _PRINTED[frozenset(kinds)]


# The interpreter converts at most this many digits between int and str;
# with that limit switched off, its default still bounds what is accepted.
MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
DIGITS_BOUND = 10**MAX_DIGITS  # the least integer with too many digits to print


def format_rational(value: Fraction) -> str:
    """Exact decimal when the value terminates, else "numerator/denominator"."""
    num, den = value.numerator, value.denominator
    rest = den
    twos = fives = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    if digits == 0:
        return str(num)
    scaled = abs(num) * 10**digits // den
    whole, frac = divmod(scaled, 10**digits)
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{str(frac).zfill(digits)}"


class GoalDecl(NamedTuple):
    """A pursuable goal: opaque id, display predicate, preference in (0, 1]."""

    id: str
    predicate: str
    preference: Fraction


class InstrumentalArgDecl(NamedTuple):
    """A plan argument: which goal it achieves and its sub-plan arguments."""

    id: str
    claim: str
    sub_args: tuple[str, ...] = ()


class GeneralAF(NamedTuple):
    """Instrumental arguments plus the labeled attack relation between them.

    `attacks` maps each directed pair to its nonempty incompatibility label
    set; the per-kind relations are recoverable by filtering on the labels.
    """

    goals: tuple[GoalDecl, ...]
    args: tuple[InstrumentalArgDecl, ...]
    attacks: Mapping[tuple[str, str], frozenset[IncompatibilityKind]]


class ValidationIssue(NamedTuple):
    severity: str  # "error" | "warning"
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity} at {self.location}: {self.message}"


_error = partial(ValidationIssue, "error")


def validate(gaf: GeneralAF) -> list[ValidationIssue]:
    """Check all framework invariants; returns every violation found.

    Asymmetric attack labeling (a pair present without its reverse, or with
    differing labels) is reported as a warning, not an error: symmetry holds
    in every construction we know of, but nothing forbids other inputs.
    """
    return list(_issues(gaf))


def _issues(gaf: GeneralAF, warnings: bool = True) -> Iterator[ValidationIssue]:
    """Yield the issues of `validate` in its order: goals, arguments,
    sub-arguments, cycles, then attack pairs in sorted order.  Text is
    formatted only for a rule the input breaks; `warnings=False` skips the
    reverse-attack checks."""
    goal_ids: set[str] = set()
    for i, goal in enumerate(gaf.goals):
        if goal.id in goal_ids:
            yield _error(f"goals[{i}] ({goal.id})", "duplicate goal id")
        goal_ids.add(goal.id)
        if not goal.predicate:
            yield _error(f"goals[{i}] ({goal.id})", "empty predicate")
        if not 0 < goal.preference <= 1:
            yield _error(f"goals[{i}] ({goal.id})", f"preference {goal.preference} outside (0, 1]")

    arg_ids: set[str] = set()
    for i, arg in enumerate(gaf.args):
        if arg.id in arg_ids:
            yield _error(f"arguments[{i}] ({arg.id})", "duplicate argument id")
        arg_ids.add(arg.id)
        if arg.claim not in goal_ids:
            yield _error(f"arguments[{i}] ({arg.id})",
                         f"claim references unknown goal {arg.claim!r}")
    for i, arg in enumerate(gaf.args):
        for sub in arg.sub_args:
            if sub not in arg_ids:
                yield _error(f"arguments[{i}] ({arg.id})", f"unknown sub-argument {sub!r}")

    for cycle in _sub_arg_cycles(gaf):
        yield _error(f"arguments ({cycle[0]})",
                     "cyclic sub-argument relation: " + " -> ".join(cycle))

    # Attack pairs are checked in any order; only the flagged ones are sorted.
    flagged: dict[tuple[str, str], list[ValidationIssue]] = {}

    def flag(severity: str, pair: tuple[str, str], message: str) -> None:
        location = "attacks[({}, {})]".format(*pair)
        flagged.setdefault(pair, []).append(ValidationIssue(severity, location, message))

    for pair, labels in gaf.attacks.items():
        attacker, target = pair
        # Each end is tested on its own: a loop over the pair runs half again as long.
        if attacker not in arg_ids:
            flag("error", pair, f"unknown argument {attacker!r}")
        if target not in arg_ids:
            flag("error", pair, f"unknown argument {target!r}")
        if attacker == target:
            flag("error", pair, "self-attack")
        if not labels:
            flag("error", pair, "empty incompatibility label set")
        if warnings:
            reverse = gaf.attacks.get((target, attacker))
            if reverse is None:
                flag("warning", pair, "reverse attack not declared")
            elif reverse != labels:
                flag("warning", pair, "labels differ from the reverse attack's")
    for pair in sorted(flagged):
        yield from flagged[pair]


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


def require_valid(gaf: GeneralAF) -> GeneralAF:
    """Return the framework unchanged, or raise with all error-level issues."""
    errors = list(_issues(gaf, warnings=False))
    if errors:
        raise ValidationError(errors)
    return gaf
