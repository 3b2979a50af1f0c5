"""Explanatory arguments: from generated beliefs to WHY / WHY_NOT answers.

The flow mirrors the deliberation it explains.  Six fixed rule schemas are
instantiated against the generated beliefs; every ground instance becomes
one explanatory argument (its support is the instance plus its body
beliefs, derivable, consistent and minimal by construction).  Arguments
about the same goal with opposite claims rebut each other; rebuttals are
sharpened into defeats in favor of arguments grounded in the max-utility
outcome, which is what actually decided the selection.  Each goal then
gets its own framework whose extensions are the explanations.

A complete explanation is the whole per-goal framework; a partial one is
an extension of it.  A framework is a named tuple of its arguments and
their two sides, pro and con, each in index order; its defeats follow
from the sides by one defeat rule and are derived on each read, never
stored.  Every goal gets one max_util or ¬max_util belief, so every
pipeline framework has one decisive argument (r5 or r6), unattacked and
defeating each opponent: under every semantics its one extension is the
side that holds it, which agrees with the selection.  `extensions_of`
returns that side, and refuses a framework with no decisive argument or
with decisive arguments on both sides; the closed form of their
extensions is kept with the test oracles (`tests/oracles.py`).

Claims, rule patterns, rule instances and arguments are immutable named
tuples, and each compares and hashes as the tuple of its fields, ids
included.  The pipeline builds claims, instances and arguments with
`tuple.__new__(Cls, fields)`, as `Cls._make` does, without the Python
frame of the named tuple's `__new__`, and each has one such construction
site.  An argument's `claim`, `schema_id` and `decisive` are `attrgetter`
properties, read in C like the fields themselves, so grouping, sides and
extensions run no Python frame per argument.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from itertools import chain, count, repeat
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .belief_gen import Belief, BeliefKind, generate_beliefs
from .errors import InputError, QueryDirectionError
from .goal_graph import GoalAF
from .instrumental import IncompatibilityKind, format_kinds
from .scenario import Semantics
from .selection import SelectionResult

# Builds a named tuple from its fields in C (see the module docstring).
_new = tuple.__new__


class Claim(NamedTuple):
    """pursued(g) or its negation."""

    goal: str
    pursued: bool

    def __str__(self) -> str:
        return f"pursued({self.goal})" if self.pursued else f"¬pursued({self.goal})"


class AtomPattern(NamedTuple):
    """One body atom of a schema: belief kind plus positional variables."""

    kind: BeliefKind
    vars: tuple[str, ...]


class RuleSchema(NamedTuple):
    """A rule template.  `decisive` marks the max-utility rules, whose
    arguments defeat (rather than merely rebut) their opponents."""

    id: str
    body: tuple[AtomPattern, ...]
    head_var: str
    head_pursued: bool
    decisive: bool = False


# r2-r4 open with the conflict between x and y; its belief carries the labels.
_INCOMPAT_XY = AtomPattern(BeliefKind.INCOMPAT, ("x", "y"))

SCHEMAS: tuple[RuleSchema, ...] = (
    RuleSchema("r1", (AtomPattern(BeliefKind.NOT_INCOMP, ("x",)),), "x", True),
    RuleSchema("r2", (_INCOMPAT_XY, AtomPattern(BeliefKind.PREF, ("x", "y"))), "x", True),
    RuleSchema("r3", (_INCOMPAT_XY, AtomPattern(BeliefKind.NOT_PREF, ("y", "x"))), "y", False),
    RuleSchema("r4", (_INCOMPAT_XY, AtomPattern(BeliefKind.EQ_PREF, ("x", "y"))), "x", True),
    RuleSchema("r5", (AtomPattern(BeliefKind.MAX_UTIL, ("x",)),), "x", True, decisive=True),
    RuleSchema("r6", (AtomPattern(BeliefKind.NOT_MAX_UTIL, ("x",)),), "x", False, decisive=True),
)


class RuleInstance(NamedTuple):
    """A schema applied to concrete goals.  The six schemas only ever bind
    x, y, and a label set, so the substitution is stored flat."""

    schema: RuleSchema
    x: str
    y: str | None
    labels: frozenset[IncompatibilityKind] | None
    body: tuple[Belief, ...]
    head: Claim
    index: int = 0

    @property
    def id(self) -> str:
        return f"r{self.index}"

    schema_id = property(attrgetter("schema.id"), doc="The id of the schema applied.")

    def substitution(self) -> dict[str, str]:
        subst = {"x": self.x}
        if self.y is not None:
            subst["y"] = self.y
        if self.labels is not None:
            subst["ls"] = format_kinds(self.labels)
        return subst

    def __str__(self) -> str:
        body = " ∧ ".join(str(b) for b in self.body)
        return f"{self.id}: {body} → {self.head}"


def trigger_rules(beliefs: Iterable[Belief]) -> tuple[RuleInstance, ...]:
    """Fire every schema whose body unifies with the belief set.

    Each belief of a schema's first body kind yields at most one instance,
    whose later atoms and head are read by position off that belief's goals;
    numbering is by schema order, then by the sorted goals of that first
    body belief, so runs are stable.
    """
    by_kind: dict[BeliefKind, dict[tuple[str, ...], Belief]] = {kind: {} for kind in BeliefKind}
    for b in beliefs:
        by_kind[b.kind][b.goals] = b
    # Only the tables a schema opens with are walked, so only they are sorted.
    opening = {schema.body[0].kind for schema in SCHEMAS}
    ordered = {kind: sorted(by_kind[kind].items()) for kind in opening}

    claims: dict[tuple[str, bool], Claim] = {}
    instances: list[RuleInstance] = []
    for schema in SCHEMAS:
        first, *rest = schema.body
        where = first.vars.index
        # Later atoms (r2-r4 have one) bind two variables: itemgetter yields a key tuple.
        tables = [(itemgetter(*map(where, atom.vars)), by_kind[atom.kind]) for atom in rest]
        x, head = where("x"), where(schema.head_var)
        y = where("y") if "y" in first.vars else None
        labeled, pursued = first.kind is BeliefKind.INCOMPAT, schema.head_pursued
        for goals, belief in ordered[first.kind]:
            body = (belief,)
            for pick, table in tables:
                hit = table.get(pick(goals))
                if hit is None:
                    break
                body += (hit,)
            else:
                labels = belief.labels if labeled else None
                key = (goals[head], pursued)
                claim = claims.get(key) or claims.setdefault(key, _new(Claim, key))
                instances.append(_new(RuleInstance, (
                    schema, goals[x], None if y is None else goals[y],
                    labels, body, claim, len(instances) + 1)))
    return tuple(instances)


SupportElement = Belief | RuleInstance


class ExplanatoryArgument(NamedTuple):
    """One rule instance packaged with its ground body: support plus claim."""

    instance: RuleInstance
    index: int = 0

    @property
    def id(self) -> str:
        return f"A{self.index}"

    @property
    def support(self) -> frozenset[SupportElement]:
        return frozenset((*self.instance.body, self.instance))

    claim = property(attrgetter("instance.head"), doc="The instance's head.")
    schema_id = property(attrgetter("instance.schema.id"), doc="The id of the schema applied.")
    decisive = property(attrgetter("instance.schema.decisive"),
                        doc="Whether the schema is a max-utility rule.")

    def __str__(self) -> str:
        parts = [b.id for b in self.instance.body] + [self.instance.id]
        return f"{self.id} = ⟨{{{', '.join(parts)}}}, {self.claim}⟩"


def construct_arguments(
    beliefs: Iterable[Belief], instances: Iterable[RuleInstance]
) -> tuple[ExplanatoryArgument, ...]:
    """One argument per rule instance triggered from `beliefs`.

    The support is that one instance plus its body: it derives the claim,
    holds no rule for the opposite claim, and stops deriving the claim if
    any element is dropped, so it is derivable, consistent and minimal by
    construction.  Each body belief must equal one of `beliefs`, id and
    provenance included, so every support id the argument cites is a
    belief of this set.
    """
    known = set(beliefs)
    instances = tuple(instances)
    # Every body at once, the common case; the first failing instance is
    # looked for only when one fails.
    if not known.issuperset(chain.from_iterable(map(_BODY, instances))):
        inst = next(inst for inst in instances if not known.issuperset(inst.body))
        raise InputError(f"instance {inst.id} was not triggered from these beliefs")
    return tuple(map(_new, repeat(ExplanatoryArgument), zip(instances, count(1))))


class ExplanatoryAF(NamedTuple):
    """One goal's framework: the arguments claiming it and the same
    arguments split into the pro and the con side, all in index order."""

    arguments: tuple[ExplanatoryArgument, ...]
    pro: tuple[ExplanatoryArgument, ...]
    con: tuple[ExplanatoryArgument, ...]

    @property
    def defeats(self) -> frozenset[tuple[str, str]]:
        """The defeat rule, derived on each read: a pro and a con argument
        rebut each other, and each rebuttal is a defeat, except that a
        non-decisive argument does not defeat a decisive one.  So a
        max-utility argument defeats its opponents one way, and any other
        rebuttal stays mutual."""
        pro, con = self.pro, self.con
        rebuttals = [(a, b) for a in pro for b in con] + [(b, a) for a in pro for b in con]
        return frozenset((a.id, b.id) for a, b in rebuttals if a.decisive or not b.decisive)


_INDEX = attrgetter("index")
_BODY = attrgetter("body")
_DECISIVE = attrgetter("decisive")


def build_xaf(goal: str, arguments: Iterable[ExplanatoryArgument]) -> ExplanatoryAF:
    """The framework of the arguments claiming `goal`, in index order and
    split into sides.  A pro and a con argument with one id would defeat
    themselves, so that is refused, naming the least shared id as a string."""
    mine = tuple(sorted((a for a in arguments if a.claim.goal == goal), key=_INDEX))
    pro = tuple(a for a in mine if a.claim.pursued)
    con = tuple(a for a in mine if not a.claim.pursued)
    shared = set(map(_INDEX, pro)).intersection(map(_INDEX, con))
    if shared:
        least = min(a.id for a in con if a.index in shared)
        raise InputError(f"self-attack on {least!r} is not allowed")
    return ExplanatoryAF(mine, pro, con)


def extensions_of(
    xaf: ExplanatoryAF, semantics: Semantics
) -> tuple[tuple[ExplanatoryArgument, ...], ...]:
    """The framework's one extension under every semantics: the side that
    holds its decisive arguments, which are then unattacked and defeat
    every opponent.  A framework with no decisive argument, or with
    decisive arguments on both sides, has extensions that depend on the
    semantics, and is refused."""
    pro_decides = any(map(_DECISIVE, xaf.pro))
    if pro_decides is any(map(_DECISIVE, xaf.con)):
        held = "decisive arguments on both sides" if pro_decides else "no decisive argument"
        raise InputError(f"the framework holds {held}, so its extensions depend on the semantics")
    return (xaf.pro if pro_decides else xaf.con,)


class QueryKind(Enum):

    WHY = "why"
    WHY_NOT = "why-not"


class ExplanationKind(Enum):

    PARTIAL = "partial"
    COMPLETE = "complete"


@dataclass(frozen=True)
class Explanation:
    goal: str
    query: QueryKind
    kind: ExplanationKind
    xaf: ExplanatoryAF
    semantics: Semantics | None
    extensions: tuple[tuple[ExplanatoryArgument, ...], ...]


class ExplanationModel(NamedTuple):
    """Everything the query operations need, built once per deliberation."""

    gaf_sc: GoalAF
    selection: SelectionResult
    beliefs: tuple[Belief, ...]
    instances: tuple[RuleInstance, ...]
    arguments: tuple[ExplanatoryArgument, ...]
    xafs: Mapping[str, ExplanatoryAF]


def build_explanation_model(gaf_sc: GoalAF, selection: SelectionResult) -> ExplanationModel:
    """Run the generation steps: beliefs, instances, arguments, one
    framework per goal."""
    beliefs = generate_beliefs(gaf_sc, selection)
    instances = trigger_rules(beliefs)
    arguments = construct_arguments(beliefs, instances)
    # Each goal's arguments, pro side and con side, all in index order as
    # `arguments` is.
    fields: dict[str, tuple[list[ExplanatoryArgument], ...]] = {
        g: ([], [], []) for g in gaf_sc.goals}
    for a in arguments:
        claim = a.claim
        mine = fields[claim.goal]
        mine[0].append(a)
        mine[1 if claim.pursued else 2].append(a)
    xafs = {g: _new(ExplanatoryAF, tuple(map(tuple, mine))) for g, mine in fields.items()}
    return ExplanationModel(gaf_sc, selection, beliefs, instances, arguments, xafs)


def _explain(
    model: ExplanationModel,
    goal: str,
    query: QueryKind | None,
    complete: bool,
    semantics: Semantics,
) -> Explanation:
    """The one query body: `query` None asks in whichever direction the
    selection went."""
    if goal not in model.gaf_sc.goals:
        raise InputError(f"unknown goal {goal!r}")
    actual = QueryKind.WHY if goal in model.selection.pursued else QueryKind.WHY_NOT
    if query not in (None, actual):
        outcome = "became" if actual is QueryKind.WHY else "did not become"
        raise QueryDirectionError(
            f"{goal} {outcome} pursued; ask {actual.value} {goal}", actual.value
        )
    xaf = model.xafs[goal]
    if complete:
        return Explanation(goal, actual, ExplanationKind.COMPLETE, xaf, None, ())
    return Explanation(
        goal, actual, ExplanationKind.PARTIAL, xaf, semantics, extensions_of(xaf, semantics)
    )


def why(
    model: ExplanationModel,
    goal: str,
    complete: bool = False,
    semantics: Semantics = Semantics.GROUNDED,
) -> Explanation:
    """Explain why `goal` became pursued; only answerable for pursued goals."""
    return _explain(model, goal, QueryKind.WHY, complete, semantics)


def why_not(
    model: ExplanationModel,
    goal: str,
    complete: bool = False,
    semantics: Semantics = Semantics.GROUNDED,
) -> Explanation:
    """Explain why `goal` did not become pursued; the mirror of `why`."""
    return _explain(model, goal, QueryKind.WHY_NOT, complete, semantics)


def complete_explanation(model: ExplanationModel, goal: str) -> Explanation:
    """The goal's full explanatory framework, whichever way the query runs."""
    return _explain(model, goal, None, True, Semantics.GROUNDED)
