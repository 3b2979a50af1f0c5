"""One-shot baseline: the "Open items" table of ROADMAP.md, regenerated.

    python3 bench/run.py --baseline

Each case is one seeded random goal graph (preferences k/20, symmetric
conflicts with probability p) run once through the traced replay, so the
stage names are those of the per-layer metrics; the CLI case times
`python -m goalarg.cli explain why-not g4` on the cleaner world.  These
single runs sit outside the repeated workloads: they are the "before"
column for the selection and explanation items, not a regression gate.
`isolated-20` enumerates 2^20 conflict-free sets: it takes about a minute
and around a gigabyte of memory at the parent commit.
"""

from __future__ import annotations

import json
import random
import statistics
import sys

import gen
from run import CLEANER, WORK, run_cli, run_python

CASES = {
    "isolated-16": (16, 0.0),
    "isolated-20": (20, 0.0),
    "sparse-28": (28, 0.3),
    "dense-60": (60, 0.8),
}
CLI_CASE = "cleaner-cli"
CLI_ARGV = ("explain", "why-not", "g4", str(CLEANER))


def graph_case(name: str) -> dict[str, float]:
    import replay

    n, p = CASES[name]
    doc = gen.direct_doc(random.Random(f"baseline:{name}"), n, p)
    WORK.mkdir(exist_ok=True)
    path = WORK / f"baseline-{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        tracer = replay.Tracer()
        _report, _answers, counts, _seconds = replay.traced_cycle(path, tracer)
    finally:
        path.unlink()
    row: dict[str, float] = {}
    for _op, stage, _parent, start, end in tracer.spans:
        row[f"{stage}_s"] = row.get(f"{stage}_s", 0.0) + end - start
    row.update(counts)
    return row


def cli_case(repeats: int = 5) -> dict[str, float]:
    wall, bare, imported = [], [], []
    for _ in range(repeats):
        code, _out, err, seconds = run_cli(CLI_ARGV)
        if code != 0:
            raise SystemExit(f"error: cleaner-world CLI failed: {err}")
        wall.append(seconds)
        bare.append(run_python("pass"))
        imported.append(run_python("import goalarg.cli"))
    return {"cli_s": statistics.median(wall),
            "cli.interpreter_s": statistics.median(bare),
            "cli.import_s": statistics.median(imported) - statistics.median(bare)}


# "Build model" in the ROADMAP table is belief_gen.generate through
# explain.build_xaf; "grounded" is explain.extensions.
SHOWN = ("selection.cf_sets", "selection.select_s", "explain.arguments",
         "belief_gen.generate_s", "explain.trigger_s", "explain.construct_s",
         "explain.build_xaf_s", "explain.extensions_s", "cycle_s")


def main(cases: list[str]) -> int:
    rows = {}
    print("| case | " + " | ".join(SHOWN) + " |")
    print("|---" * (len(SHOWN) + 1) + "|")
    for case in cases:
        if case == CLI_CASE:
            rows[case] = cli_case()
            print(f"| {case} | cli {rows[case]['cli_s']:.3f} s, of which interpreter "
                  f"{rows[case]['cli.interpreter_s']:.3f} s and import "
                  f"{rows[case]['cli.import_s']:.3f} s |")
        else:
            rows[case] = row = graph_case(case)
            cells = [f"{row.get(k, 0):.4g}" for k in SHOWN]
            print(f"| {case} | " + " | ".join(cells) + " |")
        sys.stdout.flush()
    print(json.dumps(rows, sort_keys=True))
    return 0
