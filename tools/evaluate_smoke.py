"""`evaluate_variants` at the MovieLens-100K shape, checked bit for bit.

Generates the seed-1 catalog of 943 users x 1682 movies with 100k ratings
and 20k implicit events (`bench/gen.py`) into a temporary directory, runs
`evaluate_variants(catalog, ("plain", "implicit_augmented"))` on it and
prints each variant's `repr` of mae and coverage, one variant a line. Exits
1 unless the output equals `tests/data/golden_evaluate_100k.txt`. The
similarity kernel and the predictor gather their cells in blocks of
`cf._BLOCK_CELLS`; every benchmark shape fits in one block, so this is the
check of the multi-block gathers' bits at scale.

    python3 tools/evaluate_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402

from cinefuse import evaluate_variants, load_catalog  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "golden_evaluate_100k.txt"
SHAPE = gen.Shape(users=943, items=1682, ratings=100_000, implicit_events=20_000)
VARIANTS = ("plain", "implicit_augmented")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        files = gen.generate(tmp, 1, SHAPE)
        catalog = load_catalog(files.movies, files.ratings, files.reviews, files.implicit)
    start = time.perf_counter()
    reports = evaluate_variants(catalog, VARIANTS)
    wall = time.perf_counter() - start
    out = "".join(f"{r.variant} {r.mae!r} {r.coverage!r}\n" for r in reports)
    sys.stdout.write(out)
    same = out == GOLDEN.read_text()
    print(f"evaluate at 943 x 1682, 100k ratings, 20k implicit events: {wall:.2f} s, "
          f"{'matches' if same else 'differs from'} {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
