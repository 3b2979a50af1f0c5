"""The end-to-end deliberation pipeline and the JSON views of its report.

`run_pipeline` is a deterministic function of a loaded scenario: derive,
filter, select, generate beliefs, build the explanation model, and
evaluate every per-goal framework under the configured semantics.  The
serialized report deliberately omits wall-clock timing so identical
inputs give identical bytes.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from .belief_gen import Belief
from .explain import (
    ExplanationModel,
    ExplanatoryArgument,
    RuleInstance,
    build_explanation_model,
    extensions_of,
)
from .goal_graph import GoalAF, apply_successful_attacks, derive_goal_af
from .instrumental import LETTERS, GoalDecl, format_rational, require_valid
from .scenario import RunConfig, Scenario, Semantics, UtilityVariant
from .selection import SelectionResult, select


@dataclass(frozen=True)
class RunReport:
    """Everything one deliberation produced, stage by stage."""

    config: RunConfig
    goals: tuple[GoalDecl, ...]
    main_goals: frozenset[str]
    goal_af_raw: GoalAF
    gaf_sc: GoalAF
    selection: SelectionResult
    model: ExplanationModel
    extensions: Mapping[str, tuple[tuple[ExplanatoryArgument, ...], ...]]
    elapsed_seconds: float


def run_pipeline(
    scenario: Scenario,
    utility: UtilityVariant | None = None,
    semantics: Semantics | None = None,
) -> RunReport:
    """Run every stage on a scenario; keyword overrides beat file config."""
    started = time.perf_counter()
    config = RunConfig(
        utility or scenario.config.utility,
        semantics or scenario.config.semantics,
        scenario.config.tie_break,
    )
    raw = derive_goal_af(require_valid(scenario.general))
    gaf_sc = apply_successful_attacks(raw)
    selection = select(gaf_sc, config.utility, scenario.main_goals)
    model = build_explanation_model(gaf_sc, selection)
    extensions = {
        g: extensions_of(model.xafs[g], config.semantics) for g in gaf_sc.goals
    }
    return RunReport(
        config,
        scenario.goals,
        scenario.main_goals,
        raw,
        gaf_sc,
        selection,
        model,
        extensions,
        time.perf_counter() - started,
    )


def _attack_dicts(goal_af: GoalAF) -> list[dict[str, Any]]:
    return [
        {"from": a, "to": b, "kinds": list(LETTERS[kinds])}
        for (a, b), kinds in sorted(goal_af.attacks.items())
    ]


def belief_to_dict(belief: Belief) -> dict[str, Any]:
    entry: dict[str, Any] = {
        "id": belief.id,
        "kind": belief.kind.value,
        "goals": list(belief.goals),
        "text": str(belief),
        "provenance": belief.provenance,
    }
    if belief.labels is not None:
        entry["kinds"] = list(LETTERS[belief.labels])
    return entry


def instance_to_dict(inst: RuleInstance) -> dict[str, Any]:
    return {
        "id": inst.id,
        "schema": inst.schema_id,
        "substitution": inst.substitution(),
        "body": [b.id for b in inst.body],
        "claim": claim_to_dict(inst.head),
        "text": str(inst),
    }


def claim_to_dict(claim) -> dict[str, Any]:
    return {"goal": claim.goal, "pursued": claim.pursued, "text": str(claim)}


def argument_to_dict(arg: ExplanatoryArgument) -> dict[str, Any]:
    return {
        "id": arg.id,
        "schema": arg.schema_id,
        "support": [b.id for b in arg.instance.body] + [arg.instance.id],
        "claim": claim_to_dict(arg.claim),
        "text": str(arg),
    }


def selection_to_dict(selection: SelectionResult) -> dict[str, Any]:
    return {
        "pursued": sorted(selection.pursued),
        "utility": format_rational(selection.winning_utility),
        "conflict_free_count": selection.cf_count,
        "max_extensions": [sorted(s) for s in selection.all_max_extensions],
    }


def report_to_dict(report: RunReport) -> dict[str, Any]:
    """A JSON-ready view of the report.  Timing is left out on purpose, and
    goals are listed by id: identical scenarios must serialize to identical
    bytes, however their documents order them."""
    xaf_section: dict[str, Any] = {}
    for g in report.gaf_sc.goals:
        xaf = report.model.xafs[g]
        xaf_section[g] = {
            "arguments": [a.id for a in xaf.arguments],
            "defeats": [list(edge) for edge in sorted(xaf.defeats)],
            "extensions": [
                [a.id for a in ext] for ext in report.extensions[g]
            ],
        }
    return {
        "config": {
            "utility": report.config.utility.value,
            "semantics": report.config.semantics.value,
            "tie_break": report.config.tie_break,
        },
        "goals": [
            {
                "id": g.id,
                "predicate": g.predicate,
                "preference": format_rational(g.preference),
                "main": g.id in report.main_goals,
            }
            for g in sorted(report.goals, key=lambda g: g.id)
        ],
        "goal_af": {
            "raw_attacks": _attack_dicts(report.goal_af_raw),
            "successful_attacks": _attack_dicts(report.gaf_sc),
        },
        "selection": selection_to_dict(report.selection),
        "beliefs": [belief_to_dict(b) for b in report.model.beliefs],
        "rule_instances": [instance_to_dict(i) for i in report.model.instances],
        "arguments": [argument_to_dict(a) for a in report.model.arguments],
        "explanatory_frameworks": xaf_section,
    }
