"""`evaluate_variants` at the MovieLens-100K shape, checked bit for bit, with its peak memory bounded.

Generates the seed-1 catalog of 943 users x 1682 movies with 100k ratings
and 20k implicit events (`bench/gen.py`) into a temporary directory, then,
in a child process so that the peak RSS is the evaluation's own, loads it,
runs `evaluate_variants(catalog, ("plain", "implicit_augmented"))` and
prints each variant's `repr` of mae and coverage, one variant a line.
Exits 1 unless the output equals `tests/data/golden_evaluate_100k.txt`, or
when the child's peak RSS exceeds PEAK_BOUND_MB, the bound README states.
The similarity kernel and the predictor gather their cells in blocks of
`cf._BLOCK_CELLS`, and past `cf._HELD_CELLS` rater cells the predictor
holds none; every benchmark shape fits in one block and under that count,
so this is the check of those paths' bits at scale.

    python3 tools/evaluate_smoke.py
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

import gen  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "golden_evaluate_100k.txt"
PEAK_BOUND_MB = 190.0
SHAPE = gen.Shape(users=943, items=1682, ratings=100_000, implicit_events=20_000)
VARIANTS = ("plain", "implicit_augmented")


def child(movies: str, ratings: str, reviews: str, implicit: str) -> int:
    """Load the catalog and print each variant's mae and coverage, then the
    evaluation's seconds on stderr."""
    from cinefuse import evaluate_variants, load_catalog

    catalog = load_catalog(movies, ratings, reviews, implicit)
    start = time.perf_counter()
    reports = evaluate_variants(catalog, VARIANTS)
    wall = time.perf_counter() - start
    sys.stdout.write("".join(f"{r.variant} {r.mae!r} {r.coverage!r}\n" for r in reports))
    print(f"evaluate_variants: {wall:.2f} s", file=sys.stderr)
    return 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        files = gen.generate(tmp, 1, SHAPE)
        argv = [sys.executable, __file__, *map(str, (files.movies, files.ratings, files.reviews, files.implicit))]
        done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    # ru_maxrss is in KiB on Linux; the generator runs in this process, so
    # the children's peak is the evaluation's alone
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    same = done.returncode == 0 and done.stdout == GOLDEN.read_text()
    print(f"evaluate at 943 x 1682, 100k ratings, 20k implicit events: peak RSS {peak:.1f} MB "
          f"(bound {PEAK_BOUND_MB:.0f} MB), {'matches' if same else 'differs from'} {GOLDEN.relative_to(ROOT)}",
          file=sys.stderr)
    return 0 if same and peak <= PEAK_BOUND_MB else 1


if __name__ == "__main__":
    raise SystemExit(child(*sys.argv[1:]) if len(sys.argv) > 1 else main())
