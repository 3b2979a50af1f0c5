"""Argumentation-based goal selection with explanation generation.

The pipeline: an instrumental-argument framework (plans with labeled
attacks) is lifted to a goal-level conflict graph, preference filtering
breaks symmetric attacks, the maximum-utility conflict-free set of goals
is selected, and the whole decision is then replayed as explanatory
arguments that answer WHY and WHY_NOT queries, both as argumentation
frameworks and as pseudo-natural sentences.

Every public name below can be imported from the package itself; the
module defining it is imported on the name's first use, so a command
loads only the modules it runs.
"""

from importlib import import_module

# Each module with the public names it defines, one module per entry.
_EXPORTS = {
    "af_core": "AbstractAF Semantics",
    "belief_gen": "Belief BeliefKind comps eval_pref generate_beliefs",
    "errors": "GoalArgError InputError QueryDirectionError ScenarioError ValidationError",
    "explain": "Claim Explanation ExplanationKind ExplanationModel ExplanatoryAF"
               " ExplanatoryArgument QueryKind RuleInstance RuleSchema SCHEMAS"
               " build_explanation_model build_xaf complete_explanation construct_arguments"
               " extensions_of trigger_rules why why_not",
    "goal_graph": "GoalAF apply_successful_attacks derive_goal_af",
    "instrumental": "GeneralAF GoalDecl IncompatibilityKind InstrumentalArgDecl ValidationIssue"
                    " format_kinds format_rational kinds_from_letters require_valid validate",
    "pipeline": "RunReport report_to_dict run_pipeline",
    "render": "ExplanatorySentence export_dot render_argument render_partial_explanation",
    "scenario": "RunConfig Scenario load_scenario parse_scenario",
    "selection": "SelectionResult UtilityVariant select",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """Import the module defining `name` and keep the name here (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value
