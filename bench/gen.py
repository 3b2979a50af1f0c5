"""Seeded scenario families for the benchmark.

Every family is a function of a `random.Random` and the document's index in
its pool, and returns one scenario document (a plain dict).  `write_family` turns a workload seed into a set
of files on disk; the program under test only ever sees those files.  The
same seed gives byte-identical files, so runs of one seed replay the same
inputs on any commit.

Preferences are multiples of 1/20 written as short decimals ("0.35"),
which goalarg parses into exact fractions.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

from oracle import count_and_best

SPARSE_CF_RANGE = (500, 2000)
KIND_SETS = (["t"], ["r"], ["s"], ["t", "r"], ["t", "s"], ["r", "s"], ["t", "r", "s"])


def _goals(rng: random.Random, n: int) -> list[dict]:
    return [
        {"id": f"g{i:02d}", "predicate": f"task{i}(p{rng.randrange(100)})",
         "preference": rng.randint(1, 20) / 20}
        for i in range(1, n + 1)
    ]


def _symmetric(a: str, b: str, kinds: list[str]) -> list[dict]:
    return [{"from": a, "to": b, "kinds": kinds}, {"from": b, "to": a, "kinds": kinds}]


def direct_doc(rng: random.Random, n: int, density: float) -> dict:
    """Goal-level conflicts stated directly: each goal pair conflicts with
    probability `density`, both directions carrying the same kinds."""
    goals = _goals(rng, n)
    attacks = []
    for a, b in combinations([g["id"] for g in goals], 2):
        if rng.random() < density:
            attacks += _symmetric(a, b, rng.choice(KIND_SETS))
    return {"goals": goals, "goal_attacks": attacks}


def sparse_doc(rng: random.Random, i: int) -> dict:
    """select-sparse: few conflicts, so conflict-free sets are many.

    Goal counts go round 14-17.  Conflicts are added in random order until
    the conflict-free count falls into the document's stratum: ten strata,
    log-spaced over SPARSE_CF_RANGE, taken in turn.  Stratifying keeps the spread of
    per-document cost the same for every seed, and the range bounds it so
    that a run sees enough documents.  Every other document scores main
    goals only, with a third of the goals left out of `main_goals`, which
    makes tied maxima common."""
    band = sparse_band(i)
    while True:
        goals = _goals(rng, 14 + i % 4)
        ids = [g["id"] for g in goals]
        pairs = list(combinations(ids, 2))
        rng.shuffle(pairs)
        m = _fewest_conflicts_below(ids, pairs, band[1])
        conflicts = [frozenset(p) for p in pairs[:m]]
        if count_and_best(ids, conflicts, dict.fromkeys(ids, 0))[0] >= band[0]:
            break
    attacks = []
    for a, b in sorted(pairs[:m]):
        attacks += _symmetric(a, b, rng.choice(KIND_SETS))
    doc = {"goals": goals, "goal_attacks": attacks}
    if i % 2:
        doc["main_goals"] = sorted(rng.sample(ids, len(ids) - len(ids) // 3))
        doc["config"] = {"utility": "sum_main"}
    return doc


def sparse_band(i: int) -> tuple[float, float]:
    """The conflict-free count range of the i-th select-sparse document."""
    lo, hi = SPARSE_CF_RANGE
    k = i % 10
    return lo * (hi / lo) ** (k / 10), lo * (hi / lo) ** ((k + 1) / 10)


def _fewest_conflicts_below(ids, pairs, limit) -> int:
    """Smallest m such that the first m pairs, as conflicts, leave fewer
    than `limit` conflict-free sets (the count falls as m grows)."""
    lo, hi = 0, len(pairs)
    while lo < hi:
        m = (lo + hi) // 2
        conflicts = [frozenset(p) for p in pairs[:m]]
        if count_and_best(ids, conflicts, dict.fromkeys(ids, 0))[0] < limit:
            hi = m
        else:
            lo = m + 1
    return lo


def dense_doc(rng: random.Random, i: int) -> dict:
    """explain-dense: many goals in near-total conflict, so selection is
    cheap and the belief/argument/framework stages carry the cost.  Sizes
    and densities go round a fixed grid so every seed has the same mix."""
    doc = direct_doc(rng, 13 + i % 6, 0.7 + 0.05 * (i % 5))
    doc["config"] = {"semantics": "grounded"}
    return doc


def small_doc(rng: random.Random, i: int) -> dict:
    """cli-mix: small instrumental-level documents, where start-up dominates
    a command and the front end (loading, `validate`, lifting plan attacks
    to goal conflicts) dominates a cycle.  Each goal has a few plans; a goal
    pair conflicts when every plan pair attacks, and otherwise a random
    share of its plan pairs still attacks (with one pair always left free,
    so the conflict does not lift).  Plans of the first goals take sub-plans
    from later goals, so those become sub-goals and the default
    `main_goals` is a strict subset.  Goal counts, plans per goal and attack
    shares go round a fixed grid so every seed has the same mix."""
    n = 5 + i % 5
    goals = _goals(rng, n)
    ids = [g["id"] for g in goals]
    plans = {g: [f"{g}p{k}" for k in range(3 + (i + j) % 3)] for j, g in enumerate(ids)}
    sub_goals = set(ids[-(n // 3):])
    arguments = []
    for j, g in enumerate(ids):
        later = [h for h in ids[j + 1:] if h in sub_goals]
        for plan in plans[g]:
            entry = {"id": plan, "claim": g}
            if later and rng.random() < 0.3:
                entry["sub_args"] = [rng.choice(plans[rng.choice(later)])]
            arguments.append(entry)
    attacks = []
    conflict = 0.4 + 0.05 * (i % 4)
    partial = 0.2 + 0.1 * (i % 3)
    for g, h in combinations(ids, 2):
        pairs = [(a, b) for a in plans[g] for b in plans[h]]
        if rng.random() < conflict:
            chosen = pairs
        else:
            free = rng.randrange(len(pairs))
            chosen = [p for k, p in enumerate(pairs) if k != free and rng.random() < partial]
        for a, b in chosen:
            attacks += _symmetric(a, b, rng.choice(KIND_SETS))
    return {"goals": goals, "arguments": arguments, "attacks": attacks}


FAMILIES = {
    "select-sparse": sparse_doc,
    "explain-dense": dense_doc,
    "cli-mix": small_doc,
}


def family_docs(family: str, seed: int, count: int) -> list[dict]:
    """`count` documents of one family, a function of (family, seed) only."""
    rng = random.Random(f"{family}:{seed}")
    return [FAMILIES[family](rng, i) for i in range(count)]


def write_family(family: str, seed: int, count: int, out_dir: Path) -> tuple[list, list]:
    """Generate and write one family's documents; returns (docs, paths)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    docs = family_docs(family, seed, count)
    paths = []
    for i, doc in enumerate(docs):
        path = out_dir / f"{family}-{seed}-{i:03d}.json"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        paths.append(path)
    return docs, paths
