"""Command-line front end: load a scenario, run the pipeline, print results.

One scenario file in, results on stdout; the pipeline is a deterministic
function of its input, so there is no state beyond the files.  Exit status
is 0 on success and 1 on any validation or query error, on an output
closed before it was written and on running out of memory, with a
diagnostic on stderr.  Each command imports the later stages it runs:
`validate` loads none of them, `export --dot general` only the rendering.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

from .errors import GoalArgError, InputError
from .instrumental import format_rational, require_valid, validate
from .scenario import Scenario, Semantics, UtilityVariant, load_scenario

if TYPE_CHECKING:
    from .explain import Explanation


def _goal_set(goals) -> str:
    return "{" + ", ".join(sorted(goals)) + "}"


def _dump(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _cmd_validate(scenario: Scenario, args: argparse.Namespace) -> int:
    issues = validate(scenario.general)
    for issue in issues:
        stream = sys.stderr if issue.severity == "error" else sys.stdout
        print(str(issue), file=stream)
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        print(f"invalid: {len(errors)} error(s)", file=sys.stderr)
        return 1
    print("ok")
    return 0


def _cmd_select(scenario: Scenario, args: argparse.Namespace) -> int:
    from .pipeline import run_pipeline, selection_to_dict

    report = run_pipeline(scenario, utility=_utility_flag(args))
    sel = report.selection
    if args.format == "json":
        print(_dump(selection_to_dict(sel)))
        return 0
    print(f"pursued: {_goal_set(sel.pursued)}")
    print(f"utility: {format_rational(sel.winning_utility)}")
    print(f"conflict-free sets: {sel.cf_count}")
    if len(sel.all_max_extensions) > 1:
        print(f"ties: {len(sel.all_max_extensions)} extensions reach the maximum")
    if args.all_extensions:
        print("maximal extensions:")
        for ext in sel.all_max_extensions:
            print(f"  {_goal_set(ext)}")
    return 0


def _cmd_beliefs(scenario: Scenario, args: argparse.Namespace) -> int:
    from .pipeline import belief_to_dict, run_pipeline

    report = run_pipeline(scenario)
    if args.format == "json":
        print(_dump([belief_to_dict(b) for b in report.model.beliefs]))
        return 0
    for belief in report.model.beliefs:
        print(f"{belief.id}: {belief}  [{belief.provenance}]")
    return 0


def _explanation_payload(
    explanation: Explanation, names: Mapping[str, str]
) -> dict[str, Any]:
    from .explain import ExplanationKind
    from .pipeline import argument_to_dict
    from .render import render_partial_explanation

    xaf = explanation.xaf
    payload: dict[str, Any] = {
        "goal": explanation.goal,
        "query": explanation.query.value,
        "kind": explanation.kind.value,
        "arguments": [argument_to_dict(a) for a in xaf.arguments],
        "defeats": [list(edge) for edge in sorted(xaf.defeats)],
    }
    if explanation.kind is ExplanationKind.PARTIAL:
        payload["semantics"] = explanation.semantics.value if explanation.semantics else None
        payload["extensions"] = [[a.id for a in ext] for ext in explanation.extensions]
        payload["sentences"] = [
            {"argument": s.argument_id, "scheme": s.scheme_id, "text": s.text}
            for s in render_partial_explanation(explanation, names)
        ]
    return payload


def _cmd_explain(scenario: Scenario, args: argparse.Namespace) -> int:
    from .explain import why, why_not
    from .pipeline import run_pipeline
    from .render import export_dot, render_partial_explanation

    semantics = Semantics(args.semantics) if args.semantics else None
    report = run_pipeline(scenario, semantics=semantics)
    ask = why if args.direction == "why" else why_not
    explanation = ask(report.model, args.goal, args.complete, report.config.semantics)
    names = scenario.names()
    if args.format == "dot":
        sys.stdout.write(export_dot(explanation.xaf))
        return 0
    if args.format == "structured":
        print(_dump(_explanation_payload(explanation, names)))
        return 0
    for sentence in render_partial_explanation(explanation, names):  # errors on complete
        print(sentence.text)
    return 0


def _cmd_report(scenario: Scenario, args: argparse.Namespace) -> int:
    from .pipeline import report_to_dict, run_pipeline

    report = run_pipeline(scenario, utility=_utility_flag(args))
    print(_dump(report_to_dict(report)))
    return 0


def _cmd_export(scenario: Scenario, args: argparse.Namespace) -> int:
    stage = args.dot
    if stage != "xaf" and args.goal is not None:
        raise InputError(f"--goal applies only to --dot xaf, not --dot {stage}")
    if stage == "xaf" and not args.goal:
        raise InputError("exporting an explanatory framework needs --goal")

    from .render import export_dot

    if stage == "general":
        sys.stdout.write(export_dot(require_valid(scenario.general)))
        return 0
    from .explain import complete_explanation
    from .pipeline import run_pipeline

    report = run_pipeline(scenario)
    names = scenario.names()
    if stage == "goals-raw":
        sys.stdout.write(export_dot(report.goal_af_raw, names))
        return 0
    if stage == "goals":
        sys.stdout.write(export_dot(report.gaf_sc, names))
        return 0
    sys.stdout.write(export_dot(complete_explanation(report.model, args.goal).xaf))
    return 0


def _utility_flag(args: argparse.Namespace) -> UtilityVariant | None:
    raw = getattr(args, "utility", None)
    return UtilityVariant(raw) if raw else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goalarg",
        description="Argumentation-based goal selection with WHY / WHY_NOT explanations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("select", help="compute the pursued goals")
    p.add_argument("scenario")
    p.add_argument("--utility", choices=[v.value for v in UtilityVariant])
    p.add_argument("--all-extensions", action="store_true",
                   help="also list every maximal-utility extension")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("beliefs", help="dump the generated belief set")
    p.add_argument("scenario")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_beliefs)

    p = sub.add_parser("explain", help="answer a WHY / WHY_NOT query")
    p.add_argument("direction", choices=["why", "why-not"])
    p.add_argument("goal")
    p.add_argument("scenario")
    p.add_argument("--complete", action="store_true",
                   help="return the full explanatory framework instead of an extension")
    p.add_argument("--semantics", choices=[s.value for s in Semantics])
    p.add_argument("--format", choices=["text", "structured", "dot"], default="text")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("report", help="print the full run report as JSON")
    p.add_argument("scenario")
    p.add_argument("--utility", choices=[v.value for v in UtilityVariant])
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("export", help="emit a framework as DOT text")
    p.add_argument("scenario")
    p.add_argument("--dot", required=True,
                   choices=["general", "goals-raw", "goals", "xaf"],
                   help="which pipeline stage to export")
    p.add_argument("--goal", help="goal id, required for --dot xaf")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(load_scenario(args.scenario), args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except GoalArgError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except BrokenPipeError:
        # Send what is still buffered nowhere, so the final flush cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed before it was written", file=sys.stderr)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
