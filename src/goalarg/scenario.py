"""Scenario documents: the input format and its parser.

A scenario is one JSON document: goals with preferences, then either the
instrumental level (`arguments` + labeled `attacks`) or a directly stated
goal-level conflict relation (`goal_attacks`).  The latter is shorthand for
one plan per goal: it loads as a plan level whose plan ids are the goal
ids, with each declared conflict in both directions, so both kinds of
document take the same route through the pipeline (`goalarg.pipeline`).
Preferences are parsed as exact fractions ("0.8" means 4/5, never a
float), so selection and all golden outputs are exact.  `config` may
name the `UtilityVariant` and the `Semantics` that reads explanations;
both live here, so loading imports no later stage.  Records are named tuples.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Any, NamedTuple

from .errors import ScenarioError
from .instrumental import (
    DIGITS_BOUND,
    LABEL_SETS,
    MAX_DIGITS,
    GeneralAF,
    GoalDecl,
    IncompatibilityKind,
    InstrumentalArgDecl,
    format_rational,
    kinds_from_letters,
)


class UtilityVariant(Enum):
    """Which preferences a set's utility sums: every goal's, or the main
    goals' only (sub-goals then count 0)."""

    SUM_ALL = "sum_all"
    SUM_MAIN = "sum_main"


class Semantics(Enum):
    """The semantics under which each goal's explanatory framework is read."""

    GROUNDED = "grounded"
    COMPLETE = "complete"
    PREFERRED = "preferred"
    STABLE = "stable"


class RunConfig(NamedTuple):
    utility: UtilityVariant = UtilityVariant.SUM_ALL
    semantics: Semantics = Semantics.GROUNDED
    tie_break: str = "lexicographic"


class Scenario(NamedTuple):
    """A loaded document: its plan level, which declares the goals, ready
    for the pipeline."""

    general: GeneralAF
    main_goals: frozenset[str]
    config: RunConfig

    @property
    def goals(self) -> tuple[GoalDecl, ...]:
        return self.general.goals

    def names(self) -> dict[str, str]:
        return {g.id: g.predicate for g in self.goals}


def _expect(condition: bool, message: str, location: str) -> None:
    if not condition:
        raise ScenarioError(message, location)


# JSON can spell a lone surrogate ("\ud800"), which UTF-8 cannot encode.
_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_MESSAGE = "holds a lone surrogate, which cannot be printed"


def _has_surrogate(text: str) -> bool:
    return not text.isascii() and _SURROGATE.search(text) is not None


_PLACES_BOUNDS = (2**MAX_DIGITS, 5**MAX_DIGITS)
_TOO_LONG = "preference has more digits than can be printed"
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _exact(text: str) -> Fraction:
    """`Fraction(text)`.  A plain decimal such as "-0.25", the usual JSON
    literal, is read from its digits, without `Fraction`'s regex; while
    they number at most `MAX_DIGITS`, `int` reads them as `Fraction` does.
    Any other text goes to `Fraction`, but an exponent past `MAX_DIGITS`
    raises up front: such a value never prints, and `Fraction` would build
    10**exp exactly (seconds for "1e-9999999")."""
    whole, _, places = text.partition(".")
    number = whole + places
    if (places.isdigit() and number.removeprefix("-").isdigit() and number.isascii()
            and len(number) <= MAX_DIGITS):
        return Fraction(int(number), 10 ** len(places))
    match = _EXPONENT.search(text)
    digits = match.group(1).replace("_", "").lstrip("0") if match else ""
    if len(digits) > 9 or int(digits or 0) > MAX_DIGITS:
        raise OverflowError(f"exponent too large in {text!r}")
    return Fraction(text)


def _parse_preference(raw: Any, location: str) -> Fraction:
    if isinstance(raw, bool) or not isinstance(raw, (int, float, Fraction, str)):
        raise ScenarioError(f"preference must be a number, got {raw!r}", location)
    try:
        # Floats (from documents parsed without parse_float) go through their
        # shortest decimal form, so 0.8 means 4/5 exactly.
        value = _exact(str(raw)) if isinstance(raw, (float, str)) else Fraction(raw)
    except OverflowError:
        raise ScenarioError(_TOO_LONG, location) from None
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"not a valid rational: {raw!r}", location) from exc
    try:
        # Reports print every preference exactly; a value with more digits
        # than the interpreter converts to text can never be reported.
        format_rational(value)
        str(value)
    except ValueError:
        raise ScenarioError(_TOO_LONG, location) from None
    if not 0 < value <= 1:
        raise ScenarioError(f"preference {value} outside (0, 1]", location)
    return value


def _parse_goals(doc: Mapping[str, Any]) -> tuple[GoalDecl, ...]:
    """Like the attack loops, each check formats its text only when it raises."""
    raw = doc.get("goals")
    _expect(isinstance(raw, list) and raw, "'goals' must be a nonempty list", "goals")
    out: list[GoalDecl] = []
    seen: set[str] = set()
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ScenarioError("must be an object", f"goals[{i}]")
        for key in ("id", "predicate", "preference"):
            if key not in entry:
                raise ScenarioError(f"missing key '{key}'", f"goals[{i}]")
        gid, predicate, preference = entry["id"], entry["predicate"], entry["preference"]
        if not (isinstance(gid, str) and gid):
            raise ScenarioError("'id' must be a nonempty string", f"goals[{i}].id")
        if _has_surrogate(gid):
            raise ScenarioError(_SURROGATE_MESSAGE, f"goals[{i}].id")
        if gid in seen:
            raise ScenarioError(f"duplicate goal id {gid!r}", f"goals[{i}].id")
        seen.add(gid)
        if not (isinstance(predicate, str) and predicate):
            raise ScenarioError("'predicate' must be a nonempty string", f"goals[{i}].predicate")
        if _has_surrogate(predicate):
            raise ScenarioError(_SURROGATE_MESSAGE, f"goals[{i}].predicate")
        # A fraction read from the file, in range, whose denominator is below
        # 2**64 (so it prints in under 64 places) passes as it is.
        if not (type(preference) is Fraction
                and 0 < preference.numerator <= preference.denominator < 2**64):
            preference = _parse_preference(preference, f"goals[{i}].preference")
        out.append(GoalDecl(gid, predicate, preference))
    # A utility sums at most len(out) preferences, so its denominator divides
    # their LCM, its numerator is at most len(out) times that, and its decimal
    # places are at most the LCM's count of factor 2 or of 5, whichever is more.
    lcm = math.lcm(*(g.preference.denominator for g in out))
    printable = len(out) * lcm < DIGITS_BOUND and all(lcm % b for b in _PLACES_BOUNDS)
    _expect(printable, "preferences sum to more digits than can be printed", "goals")
    return tuple(out)


def _parse_attack_entries(
    raw: Any, key: str
) -> dict[tuple[str, str], frozenset[IncompatibilityKind]]:
    """Each entry gets one cheap test: a plain dict with ASCII string ends,
    a kinds list keying a nonempty set of `LABEL_SETS`, and a pair that is
    new or repeats its label set.  Any other entry goes through the located
    checks of `_checked_attack_entry`, which name its first fault."""
    _expect(isinstance(raw, list), f"'{key}' must be a list", key)
    attacks: dict[tuple[str, str], frozenset[IncompatibilityKind]] = {}
    for i, entry in enumerate(raw):
        if type(entry) is dict:
            source, target, letters = entry.get("from"), entry.get("to"), entry.get("kinds")
            if (type(source) is str and type(target) is str and type(letters) is list
                    and source.isascii() and target.isascii()):
                try:
                    kinds = LABEL_SETS[tuple(letters)]
                except (KeyError, TypeError):  # another spelling, or an unhashable letter
                    kinds = None
                if kinds and attacks.setdefault((source, target), kinds) is kinds:
                    continue
        pair, kinds = _checked_attack_entry(entry, f"{key}[{i}]", attacks)
        attacks[pair] = kinds
    return attacks


def _checked_attack_entry(
    entry: Any, where: str, attacks: Mapping[tuple[str, str], frozenset[IncompatibilityKind]]
) -> tuple[tuple[str, str], frozenset[IncompatibilityKind]]:
    """Check one attack entry against the ones before it; here and in
    `_one_plan_per_goal`, checks format text only when they raise."""
    if not isinstance(entry, dict):
        raise ScenarioError("must be an object", where)
    for field_name in ("from", "to", "kinds"):
        if field_name not in entry:
            raise ScenarioError(f"missing key '{field_name}'", where)
    source, target = entry["from"], entry["to"]
    if not (isinstance(source, str) and isinstance(target, str)):
        raise ScenarioError("'from'/'to' must be strings", where)
    if _has_surrogate(source) or _has_surrogate(target):
        raise ScenarioError(_SURROGATE_MESSAGE, where)
    letters = entry["kinds"]
    if not (isinstance(letters, list) and letters):
        raise ScenarioError("'kinds' must be a nonempty list", f"{where}.kinds")
    for letter in letters:
        if not (isinstance(letter, str) and (letter,) in LABEL_SETS):
            raise ScenarioError(f"unknown incompatibility kind {letter!r}", f"{where}.kinds")
    kinds = kinds_from_letters(letters)
    if attacks.get((source, target), kinds) != kinds:
        raise ScenarioError(f"pair ({source}, {target}) declared twice with different kinds", where)
    return (source, target), kinds


def _parse_arguments(doc: Mapping[str, Any]) -> tuple[InstrumentalArgDecl, ...]:
    raw = doc.get("arguments")
    _expect(isinstance(raw, list), "'arguments' must be a list", "arguments")
    out: list[InstrumentalArgDecl] = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ScenarioError("must be an object", f"arguments[{i}]")
        for key in ("id", "claim"):
            if key not in entry:
                raise ScenarioError(f"missing key '{key}'", f"arguments[{i}]")
        arg_id, claim = entry["id"], entry["claim"]
        if not (isinstance(arg_id, str) and isinstance(claim, str)):
            raise ScenarioError("'id' and 'claim' must be strings", f"arguments[{i}]")
        if _has_surrogate(arg_id):
            raise ScenarioError(_SURROGATE_MESSAGE, f"arguments[{i}]")
        sub = entry.get("sub_args", [])
        if not isinstance(sub, list):
            raise ScenarioError("'sub_args' must be a list", f"arguments[{i}].sub_args")
        for j, sub_id in enumerate(sub):
            if not isinstance(sub_id, str):
                raise ScenarioError("must be a string", f"arguments[{i}].sub_args[{j}]")
        out.append(InstrumentalArgDecl(arg_id, claim, tuple(sub)))
    return tuple(out)


def _one_plan_per_goal(
    goals: tuple[GoalDecl, ...],
    entries: dict[tuple[str, str], frozenset[IncompatibilityKind]],
) -> GeneralAF:
    """The plan level a goal-level document stands for: each goal is its
    own single plan, and each declared conflict holds in both directions."""
    goal_ids = {g.id for g in goals}
    attacks: dict[tuple[str, str], frozenset[IncompatibilityKind]] = {}
    # Entries are checked in document order, and sorted only when one
    # fails, to name the least faulty entry.
    for (a, b), kinds in entries.items():
        if a == b or a not in goal_ids or b not in goal_ids or entries.get((b, a), kinds) != kinds:
            for (a, b), kinds in sorted(entries.items()):
                for goal in (a, b):
                    if goal not in goal_ids:
                        raise ScenarioError(f"unknown goal {goal!r}", f"goal_attacks[({a}, {b})]")
                if a == b:
                    raise ScenarioError("a goal cannot conflict with itself",
                                        f"goal_attacks[({a}, {b})]")
                if entries.get((b, a), kinds) != kinds:
                    raise ScenarioError(f"kinds for ({a}, {b}) disagree with the reverse direction",
                                        f"goal_attacks[({a}, {b})]")
        attacks[(a, b)] = attacks[(b, a)] = kinds
    plans = tuple(InstrumentalArgDecl(g.id, g.id) for g in goals)
    return GeneralAF(goals, plans, attacks)


# The config keys that name an enum member, with the noun their error uses.
_CONFIG_ENUMS = (("utility", UtilityVariant, "utility variant"), ("semantics", Semantics, "semantics"))


def _parse_config(doc: Mapping[str, Any]) -> RunConfig:
    raw = doc.get("config", {})
    _expect(isinstance(raw, dict), "'config' must be an object", "config")
    values = {}
    for key, enum, noun in _CONFIG_ENUMS:
        if key in raw:
            try:
                values[key] = enum(raw[key])
            except ValueError:
                raise ScenarioError(f"unknown {noun} {raw[key]!r}", f"config.{key}") from None
    if "tie_break" in raw:
        _expect(
            raw["tie_break"] == "lexicographic",
            f"unknown tie-break policy {raw['tie_break']!r}",
            "config.tie_break",
        )
    unknown = sorted(set(raw) - {"utility", "semantics", "tie_break"})
    _expect(not unknown, f"unknown config keys: {', '.join(unknown)}", "config")
    return RunConfig(**values)


def parse_scenario(doc: Any) -> Scenario:
    """Build a scenario from an already-parsed document."""
    _expect(isinstance(doc, dict), "scenario document must be a JSON object", "$")
    goals = _parse_goals(doc)
    goal_ids = {g.id for g in goals}

    has_general = "attacks" in doc
    has_direct = "goal_attacks" in doc
    _expect(
        has_general != has_direct,
        "exactly one of 'attacks' (with 'arguments') or 'goal_attacks' is required",
        "$",
    )

    if has_general:
        _expect("arguments" in doc, "'attacks' requires 'arguments'", "$")
        args = _parse_arguments(doc)
        general = GeneralAF(goals, args, _parse_attack_entries(doc["attacks"], "attacks"))
    else:
        _expect("arguments" not in doc, "'arguments' only makes sense with 'attacks'", "$")
        entries = _parse_attack_entries(doc["goal_attacks"], "goal_attacks")
        general = _one_plan_per_goal(goals, entries)

    main_raw = doc.get("main_goals")
    if main_raw is None:
        main = _default_main_goals(goals, general)
    else:
        _expect(isinstance(main_raw, list), "'main_goals' must be a list", "main_goals")
        for i, g in enumerate(main_raw):
            _expect(isinstance(g, str), "must be a string", f"main_goals[{i}]")
            _expect(g in goal_ids, f"unknown goal {g!r}", "main_goals")
        main = frozenset(main_raw)

    known = {"goals", "arguments", "attacks", "goal_attacks", "main_goals", "config"}
    unknown = sorted(set(doc) - known)
    _expect(not unknown, f"unknown keys: {', '.join(unknown)}", "$")

    return Scenario(general, main, _parse_config(doc))


def _default_main_goals(goals: tuple[GoalDecl, ...], general: GeneralAF) -> frozenset[str]:
    """A goal is main unless one of its plans appears as a sub-argument."""
    arg_claims = {a.id: a.claim for a in general.args}
    sub_claims = {
        arg_claims[sub]
        for a in general.args
        for sub in a.sub_args
        if sub in arg_claims
    }
    return frozenset(g.id for g in goals if g.id not in sub_claims)


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file; all numbers come in as fractions."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", str(path)) from exc
    try:
        doc = json.loads(text, parse_float=_exact)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON: {exc.msg}", f"{path}:{exc.lineno}:{exc.colno}"
        ) from exc
    except (ValueError, OverflowError):  # a number literal too long to read
        raise ScenarioError("a number has more digits than can be read", str(path)) from None
    except RecursionError:
        raise ScenarioError("document is nested too deeply", str(path)) from None
    return parse_scenario(doc)
