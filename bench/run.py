"""goalarg benchmark: seeded closed-loop workloads with checked answers.

Run from the repository root (the program is imported from `src/`):

    python3 bench/run.py --workload select-sparse --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --baseline

Each workload is one client in a closed loop over two kinds of operation,
interleaved: in-process *cycles* (decide, then answer every goal; see
replay.py), one on each of the 100 generated scenarios, and a list of
`python -m goalarg.cli` subprocesses.  A pass runs every operation once.
The number of passes follows from `--seconds` and the workload alone (at
least MIN_PASSES), so it is the same on every commit.  An operation's time
is its best over the passes: on a shared host, speed alternates between
fast and slow spells (on the 2-vCPU Xeon VM this was tuned on, spells of
seconds to minutes, about 40% apart), and a median of raw times moves with
the share of fast spells in a run far more than a median of per-operation
bests.  Every answer is checked outside the timed regions (see oracle.py).

`--trace 0` reports the end-to-end metrics; `--trace 1` replays the cycle
stage by stage and reports the per-layer metrics.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it, starting with '#', are diagnostics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from oracle import (DECISIVE_SENTENCE, check_cycle, check_error_exit, check_report_json,
                    check_select_json, check_structured, expected_for)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CLEANER = ROOT / "scenarios" / "cleaner_world.json"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".bench_work"
REFERENCE_DIGESTS = BENCH / "digests.json"

MIN_PASSES = 3        # each operation's time is its best of at least three
SETUP_REPEATS = 5     # setup_s is the median of these


# Per workload: scenario files generated per seed, each one cycle a pass
# (100, so that ten scenarios lie beyond each p90), CLI commands a pass,
# and the nominal length of a pass in seconds (measured on the tuning host),
# which sets the pass count.  The in-process workloads run few commands,
# since cli-mix covers start-up; the time goes to more passes instead.  Why
# each workload exists is recorded in BENCHMARK.json and README.md.
SCENARIOS = 100
CLI_COMMANDS = {"select-sparse": 4, "explain-dense": 4, "cli-mix": 24}
PASS_SECONDS = {"select-sparse": 3.4, "explain-dense": 3.3, "cli-mix": 3.7}
WORKLOADS = sorted(CLI_COMMANDS)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check its output must pass."""

    argv: tuple[str, ...]
    check: Callable[[int, str, str], list[str]]


def require_checkout() -> None:
    needed = [SRC / "goalarg" / "cli.py", CLEANER,
              GOLDEN / "cleaner_world_report.json", GOLDEN / "cleaner_world_sentences.txt"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"error: run from a goalarg checkout; missing {', '.join(missing)}")


def calibrate_ms() -> float:
    """Best of five timings of a fixed pure-Python loop: a host-speed
    diagnostic taken at the start and the end of each run."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best * 1000


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()}"


def pct(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile."""
    return statistics.median(values), statistics.quantiles(values, n=10)[-1]


# ---------------------------------------------------------------- CLI runs

CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p), PYTHONIOENCODING="utf-8")


def run_cli(argv: tuple[str, ...]) -> tuple[int, str, str, float]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "goalarg.cli", *argv], cwd=ROOT,
                          env=CLI_ENV, capture_output=True, encoding="utf-8", timeout=120)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def run_python(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=CLI_ENV, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def cli_in_process(argv: tuple[str, ...]) -> tuple[float, int]:
    """`cli.main(argv)` in this process, output captured: seconds, bytes."""
    from goalarg import cli

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(list(argv))
    return time.perf_counter() - start, len(out.getvalue().encode())


def expect(code: int, out: str, err: str, *, stdout: str | None = None,
           prefix: str = "", suffix: str = "") -> list[str]:
    if code != 0 or err:
        return [f"exit {code}, stderr {err[-300:]!r}"]
    if stdout is not None and out != stdout:
        return [f"stdout differs from the expected {len(stdout)} bytes"]
    if not (out.startswith(prefix) and out.endswith(suffix)):
        return [f"unexpected output {out[:80]!r}...{out[-80:]!r}"]
    return []


def ok_check(code, out, err):
    return expect(code, out, err, stdout="ok\n")


def validate_commands(paths, _docs, _seed, count) -> list[Command]:
    """The CLI operations of the in-process workloads: `validate` on the
    first `count` files, i.e. start-up plus loading (and, at the
    instrumental level, checking) documents the cycles use."""
    return [Command(("validate", str(p)), ok_check) for p in paths[:count]]


def golden_sentences() -> dict[str, str]:
    sections: dict[str, list[str]] = {}
    current = ""
    for line in (GOLDEN / "cleaner_world_sentences.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            current = line[2:]
            sections[current] = []
        elif line:
            sections[current].append(line)
    return {query: "\n".join(lines) + "\n" for query, lines in sections.items()}


def mix_commands(paths, docs, seed, count) -> list[Command]:
    """The cli-mix command list: the cleaner world against its golden files,
    then one command on each small document, going round every command
    shape, up to `count` commands.  The query direction for each goal
    comes from one untimed run."""
    from goalarg import load_scenario, run_pipeline

    expected = [expected_for(doc) for doc in docs]
    decided = [run_pipeline(load_scenario(p)).selection.pursued for p in paths]
    cw = str(paths[0])
    golden = golden_sentences()
    report = (GOLDEN / "cleaner_world_report.json").read_text(encoding="utf-8")
    exp_cw = expected[0]
    commands = [
        Command(("validate", cw), ok_check),
        Command(("select", cw, "--format", "json"),
                lambda c, o, e: expect(c, o, e) or check_select_json(exp_cw, o)),
        Command(("report", cw), lambda c, o, e: expect(c, o, e, stdout=report)),
        Command(("export", cw, "--dot", "general"),
                lambda c, o, e: expect(c, o, e, prefix="digraph {", suffix="}\n")),
    ]
    for query, text in sorted(golden.items()):
        direction, goal = query.split()
        commands.append(Command(("explain", direction, goal, cw),
                                lambda c, o, e, t=text: expect(c, o, e, stdout=t)))
        wrong = "why-not" if direction == "why" else "why"
        commands.append(Command(("explain", wrong, goal, cw),
                                lambda c, o, e: check_error_exit(c, e)))

    semantics = ("grounded", "complete", "preferred", "stable")
    for k in range(1, 1 + count - len(commands)):
        path, exp, pursued = str(paths[k]), expected[k], decided[k]
        goal = exp.goals[(seed + k) % len(exp.goals)]
        direction = "why" if goal in pursued else "why-not"
        wrong = "why-not" if goal in pursued else "why"
        decisive = DECISIVE_SENTENCE[goal in pursued].format(exp.names[goal]) + "\n"
        shapes = [
            Command(("select", path, "--format", "json"),
                    lambda c, o, e, x=exp: expect(c, o, e) or check_select_json(x, o)),
            Command(("explain", direction, goal, path),
                    lambda c, o, e, d=decisive: expect(c, o, e, suffix=d)),
            Command(("explain", direction, goal, path, "--format", "structured",
                     "--semantics", semantics[k % 4]),
                    lambda c, o, e, g=goal, p=goal in pursued:
                        expect(c, o, e) or check_structured(g, p, o)),
            Command(("explain", wrong, goal, path), lambda c, o, e: check_error_exit(c, e)),
            Command(("report", path),
                    lambda c, o, e, x=exp: expect(c, o, e) or check_report_json(x, o)),
            Command(("beliefs", path, "--format", "json"),
                    lambda c, o, e, n=len(pursued): expect(c, o, e) or (
                        [] if sum(b["kind"] == "max_util" for b in json.loads(o)) == n
                        else ["max_util beliefs do not match the pursued set"])),
            Command(("export", path, "--dot", "goals"),
                    lambda c, o, e, n=len(exp.goals): expect(c, o, e, prefix="digraph {") or (
                        [] if o.count("[label=") >= n else ["goal nodes missing from DOT"])),
            Command(("explain", direction, goal, path, "--complete", "--format", "dot"),
                    lambda c, o, e: expect(c, o, e, prefix="digraph {", suffix="}\n")),
            Command(("validate", path), ok_check),
        ]
        commands.append(shapes[(k + seed) % len(shapes)])
    return commands


# ---------------------------------------------------------------- passes

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"# FAILED {what}: {'; '.join(problems)[:500]}")

    def check(self, what: str, check: Callable[..., list[str]], *args) -> None:
        """Record the outcome of `check(*args)`; a check that raises on
        malformed output counts as a failed op."""
        try:
            problems = check(*args)
        except Exception as exc:  # malformed output is a wrong answer
            problems = [repr(exc)]
        self.record(what, problems)


def interleave(cycles: int, commands: int, n: int) -> list[tuple[str, int]]:
    """Pass `n`: every cycle and every command once, spread evenly, so host
    speed drift during a run reaches both kinds of operation alike.  The
    cycles rotate by one place a pass, so the cycle that runs right after a
    subprocess (with this process's caches cold) differs from pass to pass
    and each cycle's best comes from a warm run."""
    slots = [((i + 0.5) / cycles, "cycle", (i + n) % cycles) for i in range(cycles)]
    slots += [((j + 0.5) / commands, "cli", j) for j in range(commands)]
    return [(kind, i) for _pos, kind, i in sorted(slots)]


def measure(paths, expected, commands, passes, tally, between_passes):
    """The untraced run; `between_passes()` runs, untimed, before every pass
    but the first.  Returns, per scenario, the best decide and cycle times,
    per command the best CLI time (all in seconds), and the digests of the
    first pass's reports in pool order."""
    import replay

    inf = float("inf")
    decide, cycle, cli = [inf] * len(paths), [inf] * len(paths), [inf] * len(commands)
    digests = []
    for n in range(passes):
        if n:
            between_passes()
        for kind, i in interleave(len(paths), len(commands), n):
            if kind == "cli":
                code, out, err, t = run_cli(commands[i].argv)
                cli[i] = min(cli[i], t)
                tally.check(" ".join(commands[i].argv), commands[i].check, code, out, err)
                continue
            try:
                report, answers, d, c = replay.cycle(paths[i])
            except Exception as exc:  # a crash is a failed op; the run goes on
                tally.record(paths[i].name, [repr(exc)])
                continue
            decide[i] = min(decide[i], d)
            cycle[i] = min(cycle[i], c)
            tally.check(paths[i].name, check_cycle, expected[i], report, answers)
            if n == 0:
                digests.append(hashlib.sha256(replay.report_bytes(report)).hexdigest())
    keep = lambda times: [t for t in times if t < inf]  # noqa: E731
    return keep(decide), keep(cycle), keep(cli), digests


def measure_traced(paths, expected, commands, passes, tally):
    """The traced run, on the same schedule: each cycle slot runs the cycle
    untraced and then traced; each command slot times a bare interpreter,
    a fresh `import goalarg.cli` and the command run in-process, each
    slot's best over the passes, like `cli_ms`.  A pass costs about twice
    an untraced one, so the caller makes half as many.  Counts come from the
    first pass.  Returns the tracer and the metrics that are
    not span times."""
    import replay

    tracer = replay.Tracer()
    counts: dict[str, float] = defaultdict(float)
    plain = traced = 0.0
    inf = float("inf")
    bare, imported, command = ([inf] * len(commands) for _ in range(3))
    for n in range(passes):
        for kind, i in interleave(len(paths), len(commands), n):
            if kind == "cli":
                bare[i] = min(bare[i], run_python("pass"))
                imported[i] = min(imported[i], run_python("import goalarg.cli"))
                seconds_in_process, size = cli_in_process(commands[i].argv)
                command[i] = min(command[i], seconds_in_process)
                if n == 0:
                    counts["cli.stdout_kb"] += size / 1024
                continue
            try:
                plain += replay.cycle(paths[i])[3]
                report, answers, op_counts, t = replay.traced_cycle(paths[i], tracer)
            except Exception as exc:  # a crash is a failed op; the run goes on
                tally.record(paths[i].name, [repr(exc)])
                continue
            traced += t
            tally.check(paths[i].name, check_cycle, expected[i], report, answers)
            if n == 0:
                counts["scenario.input_kb"] += paths[i].stat().st_size / 1024
                for key, value in op_counts.items():
                    counts[key] += value
    interpreter = statistics.median(bare)
    return tracer, {
        **counts,
        "selection.useful_ratio": counts["selection.max_sets"] / counts["selection.cf_sets"],
        "cli.interpreter_ms": interpreter * 1000,
        "cli.import_ms": (statistics.median(imported) - interpreter) * 1000,
        "cli.command_ms": statistics.median(command) * 1000,
        "trace.overhead_ratio": traced / plain - 1,
    }


def layer_metrics(tracer) -> dict[str, float]:
    """Per-op self time of each stage (median) and its share of all cycle
    time.  Stage spans have no children, so their self time is their
    duration."""
    from replay import STAGES

    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for op, name, _parent, s, e in tracer.spans:
        per_op[op][name] += e - s
    ops = list(per_op.values())
    total = sum(op["cycle"] for op in ops)
    metrics = {}
    for stage in STAGES:
        values = [op[stage] for op in ops]
        metrics[f"{stage}_s"] = statistics.median(values)
        metrics[f"{stage}_share"] = sum(values) / total
    metrics["render.dot_s"] = statistics.median(op["render.dot"] for op in ops)
    return metrics


# ---------------------------------------------------------------- one run

def set_up(name: str, seed: int, out_dir: Path):
    """Generate and write the scenario files, then one untimed warm-up op
    (always on the cleaner world, so its cost does not depend on the seed).
    Returns the documents, their paths and the seconds spent generating."""
    import replay

    start = time.perf_counter()
    count = SCENARIOS - 1 if name == "cli-mix" else SCENARIOS
    docs, paths = gen.write_family(name, seed, count, out_dir)
    if name == "cli-mix":
        docs = [json.loads(CLEANER.read_text(encoding="utf-8"))] + docs
        paths = [CLEANER] + paths
    generated = time.perf_counter() - start
    replay.cycle(CLEANER)
    return docs, paths, generated


def digest_note(name: str, seed: int, digest: str) -> str:
    try:
        reference = json.loads(REFERENCE_DIGESTS.read_text())[name].get(str(seed))
    except (OSError, KeyError, ValueError):
        reference = None
    if reference is None:
        return "no reference for this seed"
    return "matches the reference" if reference == digest else "DRIFT from the reference"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    print(f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"# machine: {machine()}")
    calib_start = calibrate_ms()

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import goalarg.cli  # noqa: F401  (the import is part of set-up)
    import replay  # noqa: F401
    import_s = time.perf_counter() - start

    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        setups, generating = [], []

        def timed_set_up():
            """One more set-up, into a fresh directory, timed for setup_s."""
            start = time.perf_counter()
            made = set_up(name, seed, run_dir / f"setup{len(setups)}")
            setups.append(time.perf_counter() - start)
            generating.append(made[2])
            return made

        def more_set_ups():
            """The repeats of the set-up run between passes: back to back they
            all fell in one host spell and their median moved with it."""
            if len(setups) < SETUP_REPEATS:
                timed_set_up()

        docs, paths, _generated = timed_set_up()
        rss_after_setup = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        expected = [expected_for(doc) for doc in docs]
        build = mix_commands if name == "cli-mix" else validate_commands
        commands = build(paths, docs, seed, CLI_COMMANDS[name])
        tally = Tally()
        passes = max(MIN_PASSES, round(seconds / PASS_SECONDS[name]))
        if trace:
            tracer, metrics = measure_traced(
                paths, expected, commands, max(1, passes // 2), tally)
            metrics.update(layer_metrics(tracer))
            spans_file = WORK / f"spans-{name}-{seed}.json"
            t0 = tracer.spans[0][3]
            spans_file.write_text(json.dumps(
                [[op, n, p, s - t0, e - t0] for op, n, p, s, e in tracer.spans]))
            print(f"# spans: {len(tracer.spans)} over {tracer.op} traced cycles, "
                  f"written to {spans_file.relative_to(ROOT)}")
            out = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())}
        else:
            start = time.perf_counter()
            decide, cycle, cli, digests = measure(
                paths, expected, commands, passes, tally, more_set_ups)
            loop_s = time.perf_counter() - start
            while len(setups) < SETUP_REPEATS:
                timed_set_up()
            if len(cycle) < 2 or len(cli) < 2:
                raise SystemExit("error: too few successful operations to report latencies")
            who = resource.RUSAGE_CHILDREN if name == "cli-mix" else resource.RUSAGE_SELF
            digest = hashlib.sha256("".join(digests).encode()).hexdigest()
            d50, d90 = pct([t * 1000 for t in decide])
            c50, c90 = pct([t * 1000 for t in cycle])
            l50, l90 = pct([t * 1000 for t in cli])
            print(f"# best of {passes} passes per operation; timed loop {loop_s:.2f} s "
                  f"({loop_s / passes:.2f} s a pass, checks included)")
            print(f"# decide_ms: p50={d50:.3f} p90={d90:.3f} (n={len(decide)} scenarios)")
            print(f"# cycle_ms: p50={c50:.3f} p90={c90:.3f} (n={len(cycle)} scenarios)")
            print(f"# cli_ms: p50={l50:.3f} p90={l90:.3f} (n={len(cli)} commands)")
            warm_up = statistics.median(s - g for s, g in zip(setups, generating))
            print(f"# setup_s: runs={[round(s, 4) for s in setups]} import_s={import_s:.4f} "
                  f"generating_s={statistics.median(generating):.4f} warm_up_s={warm_up:.4f}")
            print(f"# peak_rss_mb: {rss_after_setup:.1f} after set-up, "
                  f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} at the end "
                  f"(this process)")
            print(f"# output digest: sha256={digest} over {len(digests)} reports, "
                  f"{digest_note(name, seed, digest)}")
            values = {
                "decide_ms.p50": (d50, "ms"), "decide_ms.p90": (d90, "ms"),
                "cycle_ms.p50": (c50, "ms"), "cycle_ms.p90": (c90, "ms"),
                "cycles_per_s": (len(cycle) / sum(cycle), "1/s"),
                "cli_ms.p50": (l50, "ms"),
                "setup_s": (import_s + statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
            }
            out = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    calib_end = calibrate_ms()
    print(f"# calibration_ms: start={calib_start:.3f} end={calib_end:.3f}")
    print(f"# fail_ratio: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": out}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_kb", "KB"), ("_share", "ratio"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="print the ROADMAP baseline table instead of a workload run")
    args = parser.parse_args(argv)
    require_checkout()
    if args.baseline:
        sys.path.insert(0, str(SRC))
        import baseline

        return baseline.main([*baseline.CASES, baseline.CLI_CASE])
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
