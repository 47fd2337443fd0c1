"""The full similarity fills at the MovieLens-100K shape, checked bit for bit, with their peak memory bounded.

Generates the seed-1 catalog of 943 users x 1682 movies with 100k ratings
(`bench/gen.py`, no implicit events) into a temporary directory, then, in a
child process so that the peak RSS is the fills' own, loads it, builds the
rating matrix and fills `similarity_matrix` (user pearson, item pearson,
user cosine) and `fuzzy_similarity_matrix` at all-ones genre weights. It
prints, one fill a line, the SHA-256 of the fill's `values` and of its
`co_counts` bytes. Exits 1 unless the output equals
`tests/data/golden_similarity_100k.txt`, or when the child's peak RSS
exceeds PEAK_BOUND_MB. The fills compute their pairs a block of rows at a
time; every benchmark shape fits in one block, so this is the check of the
multi-block fills' bits at scale. The seconds of each fill go to stderr.

    python3 tools/similarity_smoke.py
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "golden_similarity_100k.txt"
PEAK_BOUND_MB = 190.0
SHAPE = gen.Shape(users=943, items=1682, ratings=100_000)
FILLS = (("user", "pearson"), ("item", "pearson"), ("user", "cosine"), ("user", "fuzzy"))


def child(movies: str, ratings: str, reviews: str) -> int:
    """Fill each similarity and print the digests of its values and
    co-counts, then its seconds on stderr."""
    import numpy as np

    from cinefuse import build_fuzzy_profiles, build_rating_matrix, load_catalog, similarity_matrix
    from cinefuse.optimize import fuzzy_similarity_matrix

    catalog = load_catalog(movies, ratings, reviews)
    matrix = build_rating_matrix(catalog)
    profiles = build_fuzzy_profiles(catalog)
    for axis, metric in FILLS:
        start = time.perf_counter()
        if metric == "fuzzy":
            sim = fuzzy_similarity_matrix(profiles, np.ones(len(profiles.genres)))
        else:
            sim = similarity_matrix(matrix, axis, metric)
        wall = time.perf_counter() - start
        digests = (hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in (sim.values, sim.co_counts))
        print(axis, metric, *digests)
        print(f"{axis} {metric}: {wall:.2f} s", file=sys.stderr)
        del sim
    return 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        files = gen.generate(tmp, 1, SHAPE)
        argv = [sys.executable, __file__, *map(str, (files.movies, files.ratings, files.reviews))]
        done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    # ru_maxrss is in KiB on Linux; the generator runs in this process, so
    # the children's peak is the fills' alone
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    same = done.returncode == 0 and done.stdout == GOLDEN.read_text()
    print(f"similarity fills at 943 x 1682, 100k ratings: peak RSS {peak:.1f} MB "
          f"(bound {PEAK_BOUND_MB:.0f} MB), {'matches' if same else 'differs from'} {GOLDEN.relative_to(ROOT)}",
          file=sys.stderr)
    return 0 if same and peak <= PEAK_BOUND_MB else 1


if __name__ == "__main__":
    raise SystemExit(child(*sys.argv[1:]) if len(sys.argv) > 1 else main())
