"""Self-tests of the benchmark: inputs, answer checks and the traced replay.

Run from the repository root:

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations
from pathlib import Path

import pytest

import gen
import oracle
import replay
import run
from goalarg import cli, load_scenario, parse_scenario, run_pipeline

FAMILIES = sorted(gen.FAMILIES)


@pytest.mark.parametrize("family", FAMILIES)
def test_same_seed_same_bytes_other_seed_other_bytes(family, tmp_path):
    def files(seed, where):
        _docs, paths = gen.write_family(family, seed, 4, tmp_path / where)
        return [p.read_bytes() for p in paths]

    assert files(7, "a") == files(7, "b")
    assert files(7, "a") != files(8, "c")


@pytest.mark.parametrize("family", FAMILIES)
def test_generated_files_pass_validate(family, tmp_path, capsys):
    _docs, paths = gen.write_family(family, 3, run.SCENARIOS, tmp_path)
    for path in paths:
        assert cli.main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == "ok\n"


def test_sparse_documents_land_in_their_strata():
    for i, doc in enumerate(gen.family_docs("select-sparse", 5, 20)):
        lo, hi = gen.sparse_band(i)
        assert lo <= oracle.expected_for(doc).cf_count < hi


def _brute(goals, conflicts, weights):
    subsets = chain.from_iterable(combinations(goals, r) for r in range(len(goals) + 1))
    free = [s for s in subsets
            if not any(frozenset(p) in conflicts for p in combinations(s, 2))]
    return len(free), max(sum((weights[g] for g in s), start=Fraction(0)) for s in free)


def test_oracle_count_and_best_match_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 9)
        goals = [f"g{i}" for i in range(n)]
        conflicts = {frozenset(p) for p in combinations(goals, 2) if rng.random() < 0.4}
        weights = {g: Fraction(rng.randint(0, 20), 20) for g in goals}
        assert oracle.count_and_best(goals, conflicts, weights) == _brute(goals, conflicts, weights)


def test_oracle_lifts_plan_conflicts_like_the_program():
    for doc in gen.family_docs("cli-mix", 2, 3):
        report = run_pipeline(parse_scenario(doc))
        assert oracle.goal_conflicts(doc) == {frozenset(p) for p in report.goal_af_raw.attacks}
        assert oracle.main_goals(doc) == set(report.main_goals) != {g["id"] for g in doc["goals"]}


@pytest.fixture(scope="module")
def sparse_cycle(tmp_path_factory):
    """A real cycle on a sum_all sparse document, and its expected answer."""
    docs, paths = gen.write_family("select-sparse", 4, 2, tmp_path_factory.mktemp("sparse"))
    assert "config" not in docs[0]
    report, answers, _d, _c = replay.cycle(paths[0])
    return oracle.expected_for(docs[0]), report, answers


def _failed(exp, report, answers) -> int:
    """Failed ops when the run's tally checks this cycle's answers."""
    tally = run.Tally()
    tally.check("planted", oracle.check_cycle, exp, report, answers)
    return tally.failed


def test_real_answers_pass(sparse_cycle):
    exp, report, answers = sparse_cycle
    assert oracle.check_cycle(exp, report, answers) == []
    assert _failed(exp, report, answers) == 0


def test_planted_non_maximal_pursued_set_fails(sparse_cycle):
    exp, report, answers = sparse_cycle
    smaller = frozenset(sorted(report.selection.pursued)[1:])
    worse = replace(report.selection, pursued=smaller,
                    winning_utility=sum((exp.weights[g] for g in smaller), start=Fraction(0)))
    assert _failed(exp, replace(report, selection=worse), answers) == 1


def test_planted_wrong_conflict_free_count_fails(sparse_cycle):
    exp, report, answers = sparse_cycle
    wrong = replace(report.selection, cf_count=report.selection.cf_count + 1)
    assert _failed(exp, replace(report, selection=wrong), answers) == 1


def test_planted_missing_decisive_argument_fails(sparse_cycle):
    exp, report, answers = sparse_cycle
    goal = sorted(answers)[0]
    explanation, sentences = answers[goal]
    trimmed = tuple(tuple(a for a in ext if not a.decisive) for ext in explanation.extensions)
    planted = {**answers, goal: (replace(explanation, extensions=trimmed),
                                 sentences[:sum(map(len, trimmed))])}
    assert _failed(exp, report, planted) == 1


def test_cli_refusals_must_be_one_error_line():
    assert oracle.check_error_exit(1, "error: g1 became pursued; ask why g1\n") == []
    assert oracle.check_error_exit(0, "") != []
    assert oracle.check_error_exit(1, "Traceback (most recent call last):\nerror: x\n") != []


@pytest.mark.parametrize("family", FAMILIES)
def test_traced_replay_gives_run_pipeline_bytes(family, tmp_path):
    """Every instance of one seed: if `run_pipeline` stops being the stages
    the replay calls, the per-layer spans would be wrong, so this fails."""
    _docs, paths = gen.write_family(family, 1, run.SCENARIOS, tmp_path)
    tracer = replay.Tracer()
    for path in paths:
        expected = replay.report_bytes(run_pipeline(load_scenario(path)))
        report, _answers, _counts, _seconds = replay.traced_cycle(path, tracer)
        assert replay.report_bytes(report) == expected


def test_cli_mix_commands_pass_on_the_program(tmp_path, capsys):
    docs, paths = gen.write_family("cli-mix", 1, run.SCENARIOS - 1, tmp_path)
    docs, paths = [json.loads(run.CLEANER.read_text())] + docs, [run.CLEANER] + paths
    for command in run.mix_commands(paths, docs, 1, run.CLI_COMMANDS["cli-mix"]):
        code = cli.main(list(command.argv))
        captured = capsys.readouterr()
        assert command.check(code, captured.out, captured.err) == [], command.argv


def test_metric_names_match_benchmark_json(monkeypatch):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SCENARIOS", 3)
    monkeypatch.setitem(run.CLI_COMMANDS, "cli-mix", 16)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload("cli-mix", 1, 0, trace)
        assert result["failed"] == 0
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not list(Path(tmp_path).glob(".bench_work"))


def test_baseline_prints_the_table_and_its_numbers(capsys):
    import baseline

    assert baseline.main(["sparse-28", "cleaner-cli"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("| sparse-28 |") and lines[3].startswith("| cleaner-cli |")
    rows = json.loads(lines[-1])
    assert rows["sparse-28"]["selection.cf_sets"] > 0 < rows["cleaner-cli"]["cli_s"]
