"""The package's public names and what each entry point imports.

`import goalarg` defines its names lazily, so these checks pin down that
the lazy table exports exactly the names it always has, each the very
object its module defines, and that the command line loads only the
modules a command runs.  Import checks run in a fresh interpreter, under
the warning rules of CI.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from importlib import import_module

import pytest

import goalarg
import oracles
from conftest import CLEANER_WORLD, REPO_ROOT

EXPORTS = [
    "AbstractAF", "Belief", "BeliefKind", "Claim", "Explanation", "ExplanationKind",
    "ExplanationModel", "ExplanatoryAF", "ExplanatoryArgument", "ExplanatorySentence",
    "GeneralAF", "GoalAF", "GoalArgError", "GoalDecl", "IncompatibilityKind", "InputError",
    "InstrumentalArgDecl", "QueryDirectionError", "QueryKind", "RuleInstance", "RuleSchema",
    "RunConfig", "RunReport", "SCHEMAS", "Scenario", "ScenarioError", "SelectionResult",
    "Semantics", "UtilityVariant", "ValidationError", "ValidationIssue",
    "apply_successful_attacks", "build_explanation_model", "build_xaf",
    "complete_explanation", "comps", "construct_arguments", "derive_goal_af", "eval_pref",
    "export_dot", "extensions_of", "format_kinds", "format_rational", "generate_beliefs",
    "kinds_from_letters", "load_scenario", "parse_scenario", "render_argument",
    "render_partial_explanation", "report_to_dict", "require_valid", "run_pipeline", "select",
    "trigger_rules", "validate", "why", "why_not",
]


def test_the_package_exports_the_same_names():
    assert len(EXPORTS) == 57
    assert sorted(goalarg.__all__) == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_is_the_object_its_module_defines(name):
    value = getattr(goalarg, name)
    # Classes and functions name their module; the `SCHEMAS` dict does not.
    module = getattr(value, "__module__", None) or {"SCHEMAS": "goalarg.explain"}[name]
    assert module.startswith("goalarg.")
    assert getattr(import_module(module), name) is value
    assert vars(goalarg)[name] is value  # kept after its first use


# The generic semantics, which no library module runs, live with the oracles.
REFERENCE_ONLY = [
    "complete_extensions", "conflict_free_sets", "defends", "grounded_extension",
    "preferred_extensions", "stable_extensions",
]


@pytest.mark.parametrize("name", REFERENCE_ONLY)
def test_a_reference_semantics_is_not_library_api(name):
    assert name not in goalarg.__all__
    assert not hasattr(goalarg, name)
    assert not hasattr(import_module("goalarg.af_core"), name)
    assert callable(getattr(oracles, name))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        goalarg.no_such_name  # noqa: B018
    assert not hasattr(goalarg, "no_such_name")


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from goalarg import *", namespace)
    assert all(namespace[name] is getattr(goalarg, name) for name in EXPORTS)


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", *args],
        capture_output=True, text=True, timeout=60, env=env, cwd=REPO_ROOT,
    )


LOADED = "import sys; print(sorted(m for m in sys.modules if m.startswith('goalarg')))"


def test_importing_the_package_loads_no_submodule():
    done = fresh_python("-c", f"import goalarg; {LOADED}")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['goalarg']"


def test_the_command_line_loads_no_pipeline_explanation_or_rendering():
    done = fresh_python("-c", f"import goalarg.cli; {LOADED}")
    assert done.returncode == 0, done.stderr
    loaded = set(ast.literal_eval(done.stdout))
    assert "goalarg.cli" in loaded
    assert not loaded & {"goalarg.explain", "goalarg.render", "goalarg.belief_gen",
                         "goalarg.pipeline"}


def test_validate_runs_from_a_fresh_interpreter():
    done = fresh_python("-m", "goalarg.cli", "validate", str(CLEANER_WORLD))
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")
