"""The tuning objectives at the MovieLens-100K shape, checked bit for bit.

Generates the seed-1 catalog of 943 users x 1682 movies with 100k ratings
(`bench/gen.py`, no implicit events) into a temporary directory and holds
out a fifth of it (`train_test_split`, seed 0). Builds `cf_mae_objective`
on the user and on the item axis and `fuzzy_mae_objective`, each in its own
child process so that each peak RSS is its own, evaluates each at all-ones
weights and at one seeded random weight vector, and prints each value's
`repr`, one a line. Exits 1 unless the output equals
`tests/data/golden_tune_100k.txt`, or when a child's peak RSS exceeds
PEAK_BOUND_MB. The objectives gather their cells in blocks of
`cf._BLOCK_CELLS`; every benchmark shape fits in one block, so this is the
check of the multi-block gathers' bits at scale.

    python3 tools/tune_smoke.py
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "golden_tune_100k.txt"
PEAK_BOUND_MB = 260.0
SHAPE = gen.Shape(users=943, items=1682, ratings=100_000)
OBJECTIVES = ("user", "item", "fuzzy")
HOLDOUT, SPLIT_SEED, WEIGHT_SEED = 0.2, 0, 1


def child(name: str, movies: str, ratings: str, reviews: str) -> int:
    """Build objective `name` and print its two values, then its build and
    evaluation seconds and peak RSS on stderr."""
    import numpy as np

    from cinefuse import build_fuzzy_profiles, build_rating_matrix, load_catalog, train_test_split
    from cinefuse.optimize import cf_mae_objective, fuzzy_mae_objective

    train, test = train_test_split(load_catalog(movies, ratings, reviews), HOLDOUT, SPLIT_SEED)
    matrix = build_rating_matrix(train)
    start = time.perf_counter()
    if name == "fuzzy":
        objective, d = fuzzy_mae_objective(matrix, build_fuzzy_profiles(train), test), len(train.genre_universe())
    else:
        objective = cf_mae_objective(matrix, test, axis=name)
        d = len(matrix.item_ids if name == "user" else matrix.user_ids)
    built = time.perf_counter() - start
    weights = {"ones": np.ones(d), "random": np.random.default_rng(WEIGHT_SEED).uniform(0.0, 2.0, d)}
    times = []
    for label, w in weights.items():
        start = time.perf_counter()
        value = objective(w)
        times.append(time.perf_counter() - start)
        print(f"{name} {label} {value!r}")
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{name}: build {built:.2f} s, evaluation {min(times):.2f} s, peak RSS {peak:.1f} MB", file=sys.stderr)
    return 0 if peak <= PEAK_BOUND_MB else 1


def main() -> int:
    out, failed = "", False
    with tempfile.TemporaryDirectory() as tmp:
        files = gen.generate(tmp, 1, SHAPE)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for name in OBJECTIVES:
            argv = [sys.executable, __file__, name, str(files.movies), str(files.ratings), str(files.reviews)]
            done = subprocess.run(argv, env=env, capture_output=True, text=True)
            out += done.stdout
            sys.stderr.write(done.stderr)
            failed |= done.returncode != 0
    sys.stdout.write(out)
    same = out == GOLDEN.read_text()
    print(f"tuning objectives at 943 x 1682, 100k ratings: {'matches' if same else 'differs from'} "
          f"{GOLDEN.relative_to(ROOT)}; peak bound {PEAK_BOUND_MB:.0f} MB{' exceeded' if failed else ''}",
          file=sys.stderr)
    return 0 if same and not failed else 1


if __name__ == "__main__":
    raise SystemExit(child(*sys.argv[1:]) if len(sys.argv) > 1 else main())
