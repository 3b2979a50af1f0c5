"""One benchmark operation, the cycle, plain and traced.

A cycle models an agent that decides and then has to be ready to explain:
load the scenario file and run the pipeline (the *decide* part), then
answer WHY or WHY_NOT for every goal and render each answer as sentences.

`traced_cycle` replays the same work by calling the public stage functions
in `run_pipeline`'s order, with a span around each call.  The spans come
from outside the program, so they measure each module's public entry
points; a test asserts that the replay yields the same report bytes as
`run_pipeline`, so the spans cannot silently stop covering the pipeline.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from goalarg import (
    ExplanationModel,
    RunConfig,
    RunReport,
    apply_successful_attacks,
    build_xaf,
    construct_arguments,
    derive_goal_af,
    export_dot,
    extensions_of,
    generate_beliefs,
    load_scenario,
    render_partial_explanation,
    report_to_dict,
    require_valid,
    run_pipeline,
    select,
    trigger_rules,
    why,
    why_not,
)

# Stage spans of a cycle, in pipeline order.  `run.py` reports a median
# self time and a share of the cycle for each.
STAGES = (
    "scenario.load",
    "instrumental.validate",
    "goal_graph.derive",
    "goal_graph.filter",
    "selection.select",
    "belief_gen.generate",
    "explain.trigger",
    "explain.construct",
    "explain.build_xaf",
    "explain.extensions",
    "explain.query",
    "render.sentences",
)


def answer_all(report: RunReport, names: dict) -> dict:
    """WHY for each pursued goal, WHY_NOT for the rest, each rendered."""
    answers = {}
    for goal in report.gaf_sc.goals:
        ask = why if goal in report.selection.pursued else why_not
        explanation = ask(report.model, goal, semantics=report.config.semantics)
        answers[goal] = (explanation, render_partial_explanation(explanation, names))
    return answers


def cycle(path) -> tuple[RunReport, dict, float, float]:
    """Run one untraced cycle; returns the report, the answers and the
    decide and cycle durations in seconds."""
    start = time.perf_counter()
    scenario = load_scenario(path)
    report = run_pipeline(scenario)
    decided = time.perf_counter()
    answers = answer_all(report, scenario.names())
    return report, answers, decided - start, time.perf_counter() - start


def report_bytes(report: RunReport) -> bytes:
    return json.dumps(report_to_dict(report), sort_keys=True).encode()


@dataclass
class Tracer:
    """Spans kept in memory: (op id, name, parent, start, end)."""

    spans: list = field(default_factory=list)
    op: int = 0

    def span(self, name: str, fn, *args, parent: str | None = "decide", **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.spans.append((self.op, name, parent, start, time.perf_counter()))
        return result


def traced_cycle(path, tracer: Tracer) -> tuple[RunReport, dict, dict, float]:
    """The cycle as a stage-by-stage replay of `run_pipeline` plus the
    queries; returns the report, the answers, the size counters and the
    cycle's duration in seconds."""
    span = tracer.span
    start = time.perf_counter()
    scenario = span("scenario.load", load_scenario, path)
    config = RunConfig(scenario.config.utility, scenario.config.semantics,
                       scenario.config.tie_break)
    counts = {"instrumental.plans": 0, "instrumental.plan_attacks": 0}
    if scenario.general is not None:
        general = span("instrumental.validate", require_valid, scenario.general)
        counts["instrumental.plans"] = len(general.args)
        counts["instrumental.plan_attacks"] = len(general.attacks)
        raw = span("goal_graph.derive", derive_goal_af, general)
    else:
        raw = scenario.goal_af_raw
    gaf_sc = span("goal_graph.filter", apply_successful_attacks, raw)
    selection = span("selection.select", select, gaf_sc, config.utility, scenario.main_goals)
    beliefs = span("belief_gen.generate", generate_beliefs, gaf_sc, selection)
    instances = span("explain.trigger", trigger_rules, beliefs)
    arguments = span("explain.construct", construct_arguments, beliefs, instances)
    xafs = span("explain.build_xaf",
                lambda: {g: build_xaf(g, arguments) for g in gaf_sc.goals})
    model = ExplanationModel(gaf_sc, selection, beliefs, instances, arguments, xafs)
    extensions = span("explain.extensions",
                      lambda: {g: extensions_of(xafs[g], config.semantics) for g in gaf_sc.goals})
    report = RunReport(config, scenario.goals, scenario.main_goals, raw, gaf_sc,
                       selection, model, extensions, 0.0)
    decided = time.perf_counter()
    names = scenario.names()
    answers = {}
    for goal in gaf_sc.goals:
        ask = why if goal in selection.pursued else why_not
        explanation = span("explain.query", ask, model, goal, semantics=config.semantics,
                           parent="cycle")
        answers[goal] = (explanation, span("render.sentences", render_partial_explanation,
                                           explanation, names, parent="cycle"))
    end = time.perf_counter()
    tracer.spans.append((tracer.op, "decide", "cycle", start, decided))
    tracer.spans.append((tracer.op, "cycle", None, start, end))
    for goal in gaf_sc.goals:
        span("render.dot", export_dot, xafs[goal], parent=None)

    counts.update({
        "goal_graph.raw_attacks": len(raw.attacks),
        "goal_graph.successful_attacks": len(gaf_sc.attacks),
        "selection.cf_sets": selection.cf_count,
        "selection.max_sets": len(selection.all_max_extensions),
        "af_core.goal_nodes": len(gaf_sc.goals),
        "af_core.xaf_nodes": sum(len(x.arguments) for x in xafs.values()),
        "af_core.xaf_defeats": sum(len(x.defeats) for x in xafs.values()),
        "af_core.extension_members": sum(
            len(ext) for exts in extensions.values() for ext in exts),
        "belief_gen.beliefs": len(beliefs),
        "explain.instances": len(instances),
        "explain.arguments": len(arguments),
        "render.sentences": sum(len(s) for _e, s in answers.values()),
    })
    tracer.op += 1
    return report, answers, counts, end - start
