"""Output checks. Each returns a list of problems; an empty list means correct.

Invariants hold for any seed. Where a reference recorded from the seed
commit exists for the seed, outputs must also match it: ranked movie ids
exactly, every score, MAE, coverage and best objective within `TOL`. On a
`serve` reference seed every seed title is recorded, so a request for a
title without a reference is a failure.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

TOL = 1e-9
SUM_TOL = 1e-12
BONUS_MAX = 0.2
REFERENCE_DIR = Path(__file__).with_name("reference")


def reference_path(workload: str, seed: int) -> Path:
    """One file per workload and seed, so a run parses only its own reference."""
    return REFERENCE_DIR / workload / f"{seed}.json"


def load_reference(workload: str, seed: int, shape: dict):
    """The recorded reference for this workload and seed, or None if there is none.

    A reference recorded for another catalog shape is stale (the generator or
    the workload shapes changed without re-recording) and raises.
    """
    try:
        with open(reference_path(workload, seed), encoding="utf-8") as fh:
            entry = json.load(fh)
    except FileNotFoundError:
        return None
    if entry["shape"] != shape:
        raise ValueError(
            f"reference for {workload} seed {seed} was recorded for shape {entry['shape']}, "
            f"the catalog has {shape}: re-record it with record_reference.py"
        )
    return entry["outputs"]


def serve_summary(result) -> dict:
    return {
        "pool_size": result.pool_size,
        "ids": [r.movie_id for r in result.items],
        "fused": [r.fused_score for r in result.items],
        "cosine": [r.content_cosine for r in result.items],
    }


def _close(label: str, got, want) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, reference has {len(want)}"]
    return [
        f"{label}[{i}]: {g!r} differs from reference {w!r}"
        for i, (g, w) in enumerate(zip(got, want))
        if not abs(g - w) <= TOL
    ]


def check_serve(result, title: str, n: int, ref: dict | None) -> list[str]:
    """One recommend_hybrid result for the seed `title` with output size `n`."""
    problems = []
    items = result.items
    if result.seed_title != title:
        problems.append(f"seed resolved to {result.seed_title!r}, asked for {title!r}")
    if len(items) != min(n, result.pool_size):
        problems.append(f"{len(items)} items for pool {result.pool_size} and n={n}")
    if len({r.movie_id for r in items}) != len(items):
        problems.append("duplicate movie in the ranking")
    for r in items:
        if r.movie_id == result.seed_id:
            problems.append("seed movie ranked against itself")
        if not abs(r.fused_score - (r.content_cosine + r.critic_bonus)) <= SUM_TOL:
            problems.append(f"movie {r.movie_id}: fused {r.fused_score!r} != cosine + bonus")
        if not 0.0 <= r.critic_bonus <= BONUS_MAX:
            problems.append(f"movie {r.movie_id}: bonus {r.critic_bonus!r} outside [0, {BONUS_MAX}]")
        if not -1.0 - SUM_TOL <= r.content_cosine <= 1.0 + SUM_TOL:
            problems.append(f"movie {r.movie_id}: cosine {r.content_cosine!r} outside [-1, 1]")
    for a, b in zip(items, items[1:]):
        if (-a.fused_score, a.title) > (-b.fused_score, b.title):
            problems.append(f"order: {a.title!r} ranked above {b.title!r}")
    if ref is not None:
        got = serve_summary(result)
        if got["ids"] != ref["ids"] or got["pool_size"] != ref["pool_size"]:
            problems.append(f"ranked ids {got['ids']} (pool {got['pool_size']}) differ from reference")
        else:
            problems += _close("fused", got["fused"], ref["fused"])
            problems += _close("cosine", got["cosine"], ref["cosine"])
    return problems


def evaluate_summary(reports) -> dict:
    return {r.variant: {"mae": r.mae, "coverage": r.coverage} for r in reports}


def check_evaluate(reports, variants, ref: dict | None) -> list[str]:
    problems = []
    if [r.variant for r in reports] != list(variants):
        return [f"variants {[r.variant for r in reports]}, asked for {list(variants)}"]
    for r in reports:
        if not (math.isfinite(r.mae) and 0.0 <= r.mae <= 4.5):
            problems.append(f"{r.variant}: mae {r.mae!r} outside [0, 4.5]")
        if not 0.0 <= r.coverage <= 1.0:
            problems.append(f"{r.variant}: coverage {r.coverage!r} outside [0, 1]")
    if ref is not None:
        got = evaluate_summary(reports)
        for variant in variants:
            for key in ("mae", "coverage"):
                problems += _close(f"{variant}.{key}", [got[variant][key]], [ref[variant][key]])
    return problems


def check_optimizer(label: str, o: dict) -> list[str]:
    """One ga_optimize/pso_optimize outcome against the objective values it saw.

    `o` holds best, trace, weights, w_max, the expected number of objective
    evaluations, and `values`: every objective value in call order, the
    first being the uniform warm start.
    """
    problems = []
    best, trace, values = o["best"], o["trace"], o["values"]
    if len(values) != o["expected"]:
        problems.append(f"{label}: {len(values)} objective evaluations, expected {o['expected']}")
    if any(b > a for a, b in zip(trace, trace[1:])):
        problems.append(f"{label}: best-so-far trace increases: {trace}")
    if trace and trace[-1] != best:
        problems.append(f"{label}: trace ends at {trace[-1]!r}, best is {best!r}")
    if values and best != min(values):
        problems.append(f"{label}: best {best!r} is not the lowest value evaluated {min(values)!r}")
    if values and not best <= values[0]:
        problems.append(f"{label}: best {best!r} worse than the uniform warm start {values[0]!r}")
    if any(not 0.0 <= w <= o["w_max"] for w in o["weights"]):
        problems.append(f"{label}: weight outside [0, {o['w_max']}]")
    return problems


def check_tune(outcome: dict, ref: dict | None) -> list[str]:
    """`outcome` maps "ga" and "pso" to the dicts `check_optimizer` reads."""
    problems = []
    for label, o in outcome.items():
        problems += check_optimizer(label, o)
        if ref is not None:
            problems += _close(f"{label}.best", [o["best"]], [ref[label]])
    return problems
