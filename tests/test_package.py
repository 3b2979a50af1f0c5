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
import pkgutil
import subprocess
import sys
from importlib import import_module

import pytest

import goalarg
import oracles
from conftest import CLEANER_WORLD, REPO_ROOT

EXPORTS = [
    "Belief", "BeliefKind", "Claim", "Explanation", "ExplanationKind",
    "ExplanationModel", "ExplanatoryAF", "ExplanatoryArgument", "ExplanatorySentence",
    "GeneralAF", "GoalAF", "GoalArgError", "GoalDecl", "IncompatibilityKind", "InputError",
    "InstrumentalArgDecl", "QueryDirectionError", "QueryKind", "RuleInstance", "RuleSchema",
    "RunConfig", "RunReport", "SCHEMAS", "Scenario", "ScenarioError", "SelectionResult",
    "Semantics", "UtilityVariant", "ValidationError", "ValidationIssue",
    "apply_successful_attacks", "build_explanation_model", "build_xaf",
    "complete_explanation", "comps", "construct_arguments", "derive_goal_af",
    "export_dot", "extensions_of", "format_kinds", "format_rational", "generate_beliefs",
    "kinds_from_letters", "load_scenario", "parse_scenario", "render_argument",
    "render_partial_explanation", "report_to_dict", "require_valid", "run_pipeline", "select",
    "trigger_rules", "validate", "why", "why_not",
]


def test_the_package_exports_the_same_names():
    assert len(EXPORTS) == 55
    assert sorted(goalarg.__all__) == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_is_the_object_its_module_defines(name):
    value = getattr(goalarg, name)
    # Classes and functions name their module; the `SCHEMAS` dict does not.
    module = getattr(value, "__module__", None) or {"SCHEMAS": "goalarg.explain"}[name]
    assert module.startswith("goalarg.")
    assert getattr(import_module(module), name) is value
    assert vars(goalarg)[name] is value  # kept after its first use


# The framework class and the generic semantics, which no library module
# runs, live with the oracles.
REFERENCE_ONLY = [
    "AbstractAF", "complete_extensions", "conflict_free_sets", "defends", "grounded_extension",
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


# Each record that caches nothing and that no caller copies as a dataclass,
# with its fields in the order the dataclass it replaced declared them.
RECORD_FIELDS = {
    "GoalDecl": ("id", "predicate", "preference"),
    "InstrumentalArgDecl": ("id", "claim", "sub_args"),
    "GeneralAF": ("goals", "args", "attacks"),
    "ValidationIssue": ("severity", "location", "message"),
    "RunConfig": ("utility", "semantics", "tie_break"),
    "Scenario": ("general", "main_goals", "config"),
    "ExplanationModel": ("gaf_sc", "selection", "beliefs", "instances", "arguments", "xafs"),
}


def test_records_keep_their_fields_defaults_and_reprs():
    assert {name: getattr(goalarg, name)._fields for name in RECORD_FIELDS} == RECORD_FIELDS
    assert goalarg.RunConfig() == (goalarg.UtilityVariant.SUM_ALL, goalarg.Semantics.GROUNDED,
                                   "lexicographic")
    assert goalarg.InstrumentalArgDecl("p", "g").sub_args == ()
    scenario = goalarg.load_scenario(CLEANER_WORLD)
    assert repr(scenario.goals[0]) == (
        "GoalDecl(id='g1', predicate='clean(5,5)', preference=Fraction(4, 5))")
    # Built by position, as the benchmark's replay builds them.
    report = goalarg.run_pipeline(scenario)
    for record in (report.config, report.model):
        copy = type(record)(*record)
        assert type(copy) is type(record)
        assert all(a is b for a, b in zip(copy, record, strict=True))
    variants = [import_module(f"goalarg.{m}").UtilityVariant for m in ("selection", "scenario")]
    assert variants[0] is variants[1] is goalarg.UtilityVariant


def test_the_only_dataclasses_are_records_that_cache_or_are_copied():
    modules = [import_module(f"goalarg.{m.name}") for m in pkgutil.iter_modules(goalarg.__path__)]
    found = sorted(name for module in modules for name, value in vars(module).items()
                   if isinstance(value, type) and value.__module__ == module.__name__
                   and "__dataclass_fields__" in vars(value))
    assert found == ["Explanation", "ExplanatoryAF", "GoalAF", "RunReport", "SelectionResult"]


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


def test_the_search_loads_only_its_errors():
    done = fresh_python("-c", f"import goalarg.af_core; {LOADED}; "
                              "print('dataclasses' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "['goalarg', 'goalarg.af_core', 'goalarg.errors']", "False"]


def test_the_loader_loads_no_later_stage():
    done = fresh_python("-c", f"import goalarg.scenario; {LOADED}")
    assert done.returncode == 0, done.stderr
    assert ast.literal_eval(done.stdout) == [
        "goalarg", "goalarg.errors", "goalarg.instrumental", "goalarg.scenario"]


# The two modules a dataclass needs, which cost the most to import.
HEAVY = "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"


def test_the_command_line_loads_no_pipeline_explanation_or_rendering():
    # Every command pays for these at start-up; a command that explains or
    # renders loads the rest itself.
    done = fresh_python("-c", f"import goalarg.cli; {LOADED}; {HEAVY}")
    assert done.returncode == 0, done.stderr
    loaded, heavy = done.stdout.splitlines()
    assert ast.literal_eval(loaded) == [
        "goalarg", "goalarg.cli", "goalarg.errors", "goalarg.instrumental", "goalarg.scenario"]
    assert heavy == "[]"


@pytest.mark.parametrize("command", [["validate"], ["export", "--dot", "general"]],
                         ids=["validate", "export-general"])
def test_a_command_on_the_plan_level_loads_neither_dataclasses_nor_inspect(command):
    run = f"import sys; from goalarg.cli import main; code = main(sys.argv[1:]); {HEAVY}"
    argv = [command[0], str(CLEANER_WORLD), *command[1:]]
    done = fresh_python("-c", f"{run}; sys.exit(code)", *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_validate_runs_from_a_fresh_interpreter():
    done = fresh_python("-m", "goalarg.cli", "validate", str(CLEANER_WORLD))
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")
