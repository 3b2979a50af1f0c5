"""Answer checks, computed from the scenario documents alone.

Nothing here imports `goalarg.selection` or `goalarg.af_core`: the goal
conflict graph, the main goals, the maximum utility and the number of
conflict-free sets are all recomputed from the document, so a wrong answer
from the program cannot also be the expected one.  Each `check_*` function
returns a list of problems; an empty list means the answer is right.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations


def _fraction(raw) -> Fraction:
    # Documents hold short decimals; str() gives back the written digits.
    return Fraction(str(raw))


@dataclass(frozen=True)
class Expected:
    """What any correct run on one document must report."""

    goals: tuple[str, ...]
    names: dict
    conflicts: frozenset          # undirected goal pairs, as frozensets
    weights: dict                 # goal -> its share of the utility
    max_utility: Fraction
    cf_count: int


def goal_conflicts(doc: dict) -> frozenset:
    """Undirected goal conflicts: stated directly, or lifted from the plan
    level when every plan of one goal attacks every plan of the other."""
    if "goal_attacks" in doc:
        return frozenset(frozenset((a["from"], a["to"])) for a in doc["goal_attacks"])
    plans: dict[str, list[str]] = {g["id"]: [] for g in doc["goals"]}
    for arg in doc["arguments"]:
        plans[arg["claim"]].append(arg["id"])
    attacked = {frozenset((a["from"], a["to"])) for a in doc["attacks"]}
    return frozenset(
        frozenset((g, h))
        for g, h in combinations(sorted(plans), 2)
        if plans[g] and plans[h]
        and all(frozenset((a, b)) in attacked for a in plans[g] for b in plans[h])
    )


def main_goals(doc: dict) -> set[str]:
    if "main_goals" in doc:
        return set(doc["main_goals"])
    if "arguments" not in doc:
        return {g["id"] for g in doc["goals"]}
    claim = {a["id"]: a["claim"] for a in doc["arguments"]}
    subs = {claim[s] for a in doc["arguments"] for s in a.get("sub_args", ())}
    return {g["id"] for g in doc["goals"]} - subs


def count_and_best(goals, conflicts, weights) -> tuple[int, Fraction]:
    """Number of conflict-free goal sets and the best total weight among
    them, by branching on one goal at a time over bitmasks (memoised).
    Weights may be ints or Fractions."""
    index = {g: i for i, g in enumerate(goals)}
    nbr = [0] * len(goals)
    for pair in conflicts:
        a, b = (index[g] for g in pair)
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    w = [weights[g] for g in goals]
    memo: dict[int, tuple[int, Fraction]] = {0: (1, 0)}

    def solve(mask: int) -> tuple[int, Fraction]:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        if not nbr[v] & rest:
            count, best = solve(rest)
            result = (2 * count, best + max(w[v], 0))
        else:
            c_out, b_out = solve(rest)
            c_in, b_in = solve(rest & ~nbr[v])
            result = (c_out + c_in, max(b_out, b_in + w[v]))
        memo[mask] = result
        return result

    return solve((1 << len(goals)) - 1)


def expected_for(doc: dict) -> Expected:
    goals = tuple(sorted(g["id"] for g in doc["goals"]))
    pref = {g["id"]: _fraction(g["preference"]) for g in doc["goals"]}
    utility = doc.get("config", {}).get("utility", "sum_all")
    counted = main_goals(doc) if utility == "sum_main" else set(goals)
    weights = {g: pref[g] if g in counted else Fraction(0) for g in goals}
    conflicts = goal_conflicts(doc)
    cf_count, best = count_and_best(goals, conflicts, weights)
    names = {g["id"]: g["predicate"] for g in doc["goals"]}
    return Expected(goals, names, conflicts, weights, best, cf_count)


def check_selection(exp: Expected, pursued, utility, cf_count, conflicts=None) -> list[str]:
    """The pursued set must be conflict-free, score the reported utility,
    and that utility must be the maximum; the count must be exact."""
    problems = []
    if conflicts is not None and conflicts != exp.conflicts:
        problems.append("goal conflict graph differs from the document's")
    if any(frozenset(p) in exp.conflicts for p in combinations(sorted(pursued), 2)):
        problems.append(f"pursued set {sorted(pursued)} is not conflict-free")
    score = sum((exp.weights.get(g, Fraction(0)) for g in pursued), start=Fraction(0))
    if score != utility:
        problems.append(f"pursued set scores {score}, reported utility is {utility}")
    if utility != exp.max_utility:
        problems.append(f"reported utility {utility} is not the maximum {exp.max_utility}")
    if cf_count != exp.cf_count:
        problems.append(f"conflict-free count {cf_count}, expected {exp.cf_count}")
    return problems


def check_cycle(exp: Expected, report, answers) -> list[str]:
    """Check one in-process cycle: the selection, then every goal's answer.

    `answers` maps each goal to its (explanation, sentences) pair.  Every
    extension must hold the goal's decisive argument (r5 for a pursued goal,
    r6 otherwise) and one sentence per member.
    """
    sel = report.selection
    problems = check_selection(
        exp, sel.pursued, sel.winning_utility, sel.cf_count,
        frozenset(frozenset(p) for p in report.gaf_sc.attacks),
    )
    if set(answers) != set(exp.goals):
        problems.append("not every goal was answered")
    for goal, (explanation, sentences) in sorted(answers.items()):
        pursued = goal in sel.pursued
        schema = "r5" if pursued else "r6"
        if not explanation.extensions or not all(
            any(a.schema_id == schema and a.claim.goal == goal and a.claim.pursued == pursued
                for a in ext)
            for ext in explanation.extensions
        ):
            problems.append(f"{goal}: decisive {schema} argument missing from its extension")
        if len(sentences) != sum(len(ext) for ext in explanation.extensions):
            problems.append(f"{goal}: one sentence per extension member expected")
    return problems


DECISIVE_SENTENCE = {
    True: "Since {} belonged to the set of goals that maximizes the utility, it became pursued.",
    False: ("Since {} did not belong to the set of goals that maximizes the utility, "
            "it did not become pursued."),
}


def check_error_exit(code: int, stderr: str) -> list[str]:
    """A refused query: exit 1, exactly one `error:` line, no traceback."""
    lines = stderr.splitlines()
    if code != 1:
        return [f"exit code {code}, expected 1"]
    if len(lines) != 1 or not lines[0].startswith("error:") or "Traceback" in stderr:
        return [f"expected one 'error:' line, got {stderr!r}"]
    return []


def _check_selection_json(exp: Expected, payload: dict) -> list[str]:
    return check_selection(
        exp, payload["pursued"], _fraction(payload["utility"]), payload["conflict_free_count"]
    )


def check_select_json(exp: Expected, stdout: str) -> list[str]:
    """`select --format json` output."""
    return _check_selection_json(exp, json.loads(stdout))


def check_report_json(exp: Expected, stdout: str) -> list[str]:
    """The selection section of `report` output."""
    return _check_selection_json(exp, json.loads(stdout)["selection"])


def check_structured(goal: str, pursued: bool, stdout: str) -> list[str]:
    payload = json.loads(stdout)
    schema = "r5" if pursued else "r6"
    by_id = {a["id"]: a for a in payload["arguments"]}
    exts = payload.get("extensions", [])
    if not exts or not all(any(by_id[i]["schema"] == schema for i in ext) for ext in exts):
        return [f"{goal}: decisive {schema} argument missing from the structured answer"]
    return []
