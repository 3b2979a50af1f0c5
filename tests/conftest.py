from __future__ import annotations

import importlib.util
import random
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from goalarg import (
    GeneralAF,
    GoalAF,
    GoalDecl,
    InstrumentalArgDecl,
    Scenario,
    kinds_from_letters,
    load_scenario,
    parse_scenario,
    run_pipeline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CLEANER_WORLD = REPO_ROOT / "scenarios" / "cleaner_world.json"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The cleaner-world fixture, stated in code: two plans for cleaning (A via
# picking up, C via mopping), two for getting fixed (B via the workshop,
# F without sub-plans), with every plan-level attack labeled by kind.
CLEANER_GOALS = (
    GoalDecl("g1", "clean(5,5)", Fraction("0.8")),
    GoalDecl("g2", "pickup(5,5)", Fraction("0.6")),
    GoalDecl("g3", "mop(5,5)", Fraction("0.7")),
    GoalDecl("g4", "be(in_workshop)", Fraction("0.5")),
    GoalDecl("g5", "be(fixed)", Fraction("0.9")),
)
CLEANER_ARGS = (
    InstrumentalArgDecl("A", "g1", ("E",)),
    InstrumentalArgDecl("B", "g5", ("H",)),
    InstrumentalArgDecl("C", "g1", ("D",)),
    InstrumentalArgDecl("D", "g3"),
    InstrumentalArgDecl("E", "g2"),
    InstrumentalArgDecl("F", "g5"),
    InstrumentalArgDecl("H", "g4"),
)
_TR_PAIRS = [("A", "B"), ("E", "B"), ("E", "H"), ("A", "H")]
_T_PAIRS = [("C", "B"), ("D", "B"), ("D", "H"), ("C", "H")]
_S_PAIRS = [("C", "A"), ("E", "D"), ("C", "E"), ("A", "D"), ("F", "B"), ("F", "H")]


@cache
def bench_gen():
    """The benchmark's document generator, `bench/gen.py`, loaded by file
    path after the `bench/oracle.py` it imports as `oracle`."""
    for name in ("oracle", "gen"):
        spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "bench" / f"{name}.py")
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@cache
def pipeline_scenarios(family):
    """The cleaner world (family None), or every seed-1 document of a
    benchmark workload, loaded once for the tests."""
    if family is None:
        return (load_scenario(CLEANER_WORLD),)
    return tuple(parse_scenario(doc) for doc in bench_gen().family_docs(family, 1, 100))


@cache
def pipeline_models(family):
    """The models of `pipeline_scenarios(family)`, in order, built once."""
    return tuple(run_pipeline(scenario).model for scenario in pipeline_scenarios(family))


def cleaner_general_af() -> GeneralAF:
    attacks = {}
    for pairs, letters in ((_TR_PAIRS, "tr"), (_T_PAIRS, "t"), (_S_PAIRS, "s")):
        for a, b in pairs:
            attacks[(a, b)] = kinds_from_letters(letters)
            attacks[(b, a)] = kinds_from_letters(letters)
    return GeneralAF(CLEANER_GOALS, CLEANER_ARGS, attacks)


@pytest.fixture(scope="session")
def cleaner_scenario() -> Scenario:
    return load_scenario(CLEANER_WORLD)


@pytest.fixture(scope="session")
def cleaner_report(cleaner_scenario):
    return run_pipeline(cleaner_scenario)


def random_af(rng: random.Random, max_nodes: int = 12):
    """A random directed attack graph without self-attacks."""
    n = rng.randint(1, max_nodes)
    nodes = [f"n{i:02d}" for i in range(n)]
    p = rng.choice([0.0, 0.05, 0.1, 0.2, 0.35, 0.5])
    attacks = {
        (a, b)
        for a in nodes
        for b in nodes
        if a != b and rng.random() < p
    }
    return nodes, attacks


def random_goal_af(rng: random.Random, max_goals: int = 15) -> GoalAF:
    """A random unfiltered goal framework with symmetric labeled conflicts."""
    n = rng.randint(1, max_goals)
    goals = tuple(f"g{i:02d}" for i in range(n))
    pref = {
        g: Fraction(rng.randint(1, 20), 20) for g in goals
    }
    p = rng.choice([0.0, 0.1, 0.2, 0.4])
    attacks = {}
    kinds_pool = ["t", "r", "s"]
    for i, g in enumerate(goals):
        for h in goals[i + 1:]:
            if rng.random() < p:
                labels = kinds_from_letters(
                    rng.sample(kinds_pool, rng.randint(1, 3))
                )
                attacks[(g, h)] = attacks[(h, g)] = labels
    return GoalAF(pref, attacks)


def labeled_goal_af(pref, pairs, labels=kinds_from_letters("t")):
    """A goal framework over the goals of `pref` whose attacks are `pairs`,
    each labeled `labels`."""
    return GoalAF(pref, dict.fromkeys(pairs, labels))


def random_general_af(rng: random.Random, max_goals: int = 7) -> GeneralAF:
    """A random instrumental framework: up to three plans per goal (a goal
    may have none) and symmetric labeled attacks between plans of
    different goals."""
    goals = tuple(
        GoalDecl(f"g{i:02d}", f"goal{i}()", Fraction(rng.randint(1, 10), 10))
        for i in range(rng.randint(1, max_goals))
    )
    plans = tuple(
        InstrumentalArgDecl(f"{g.id}p{j}", g.id)
        for g in goals
        for j in range(rng.randint(0, 3))
    )
    p = rng.choice([0.3, 0.6, 0.9, 1.0])
    attacks = {}
    for i, a in enumerate(plans):
        for b in plans[i + 1:]:
            if a.claim != b.claim and rng.random() < p:
                labels = kinds_from_letters(rng.sample("trs", rng.randint(1, 3)))
                attacks[(a.id, b.id)] = attacks[(b.id, a.id)] = labels
    return GeneralAF(goals, plans, attacks)


def random_loose_general_af(rng: random.Random, max_goals: int = 6) -> GeneralAF:
    """A random plan level without the shape `random_general_af` keeps: an
    attack may go one way only, carry its own labels in each direction, or
    join two plans of one goal; a plan may claim an undeclared goal, and a
    goal may have no plans."""
    goals = tuple(
        GoalDecl(f"g{i}", f"goal{i}()", Fraction(rng.randint(1, 10), 10))
        for i in range(rng.randint(1, max_goals))
    )
    claims = [g.id for g in goals] + ["undeclared"]
    plans = tuple(
        InstrumentalArgDecl(f"p{j}", rng.choice(claims)) for j in range(rng.randint(0, 10))
    )
    p = rng.choice([0.3, 0.6, 0.9, 1.0])
    attacks = {
        (a.id, b.id): kinds_from_letters(rng.sample("trs", rng.randint(1, 3)))
        for a in plans
        for b in plans
        if a is not b and rng.random() < p
    }
    return GeneralAF(goals, plans, attacks)
