"""Argumentation-based goal selection with explanation generation.

The pipeline: an instrumental-argument framework (plans with labeled
attacks) is lifted to a goal-level conflict graph, preference filtering
breaks symmetric attacks, the maximum-utility conflict-free set of goals
is selected, and the whole decision is then replayed as explanatory
arguments that answer WHY and WHY_NOT queries, both as argumentation
frameworks and as pseudo-natural sentences.
"""

from .af_core import (
    AbstractAF,
    complete_extensions,
    conflict_free_sets,
    defends,
    grounded_extension,
    preferred_extensions,
    stable_extensions,
)
from .belief_gen import Belief, BeliefKind, comps, eval_pref, generate_beliefs
from .errors import (
    GoalArgError,
    InputError,
    QueryDirectionError,
    ScenarioError,
    ValidationError,
)
from .explain import (
    Claim,
    Explanation,
    ExplanationKind,
    ExplanationModel,
    ExplanatoryAF,
    ExplanatoryArgument,
    QueryKind,
    RuleInstance,
    RuleSchema,
    SCHEMAS,
    Semantics,
    build_explanation_model,
    build_xaf,
    complete_explanation,
    construct_arguments,
    extensions_of,
    trigger_rules,
    why,
    why_not,
)
from .goal_graph import GoalAF, Stage, apply_successful_attacks, derive_goal_af
from .instrumental import (
    GeneralAF,
    GoalDecl,
    IncompatibilityKind,
    InstrumentalArgDecl,
    ValidationIssue,
    format_kinds,
    kinds_from_letters,
    require_valid,
    validate,
)
from .render import (
    ExplanatorySentence,
    export_dot,
    format_rational,
    render_argument,
    render_partial_explanation,
)
from .scenario import (
    RunConfig,
    RunReport,
    Scenario,
    load_scenario,
    parse_scenario,
    report_to_dict,
    run_pipeline,
)
from .selection import (
    SelectionResult,
    UtilityVariant,
    select,
)

__version__ = "0.1.0"
