"""One `cinefuse recommend` run at the MovieLens-100K shape, with its peak memory bounded.

Generates the seed-1 catalog of 943 users x 1682 movies with 100k ratings
(`bench/gen.py`, no implicit events) into a temporary directory, runs
`python -m cinefuse recommend --implicit none` on its most popular title
once, in a child process, and prints the wall time and the child's peak
RSS. Exits 1 when the peak exceeds PEAK_BOUND_MB, the bound README states:
a recommend that fits the whole item-item similarity again would cross it.

    python3 tools/recommend_smoke.py
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

PEAK_BOUND_MB = 120.0
SHAPE = gen.Shape(users=943, items=1682, ratings=100_000)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        files = gen.generate(tmp, 1, SHAPE)
        argv = [
            sys.executable, "-m", "cinefuse", "recommend",
            "--movies", str(files.movies), "--ratings", str(files.ratings),
            "--reviews", str(files.reviews), "--implicit", "none",
            "--seed", files.popular_titles[0],
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        start = time.perf_counter()
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux; the generator runs in this process, so
    # the children's peak is the recommend run's alone
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"recommend at 943 x 1682, 100k ratings: exit {done.returncode}, "
          f"{len(done.stdout.splitlines())} lines, wall {wall:.2f} s, peak RSS {peak:.1f} MB "
          f"(bound {PEAK_BOUND_MB:.0f} MB)")
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        return 1
    return 0 if peak <= PEAK_BOUND_MB else 1


if __name__ == "__main__":
    raise SystemExit(main())
