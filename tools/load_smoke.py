"""`load_catalog` at the MovieLens-100K shape, both ratings parsers checked against each other, with peak memory bounded.

Generates the seed-1 catalog of 943 users x 1682 movies with 100k ratings
and 20k implicit events (`bench/gen.py`) into a temporary directory, and a
copy whose ratings fields are padded with a space, which only the row
parser accepts. It loads each in a child process: the generated file in the
strict form takes the column parse, the padded copy the row loop. Each
child prints its load's wall time and its peak RSS right after the load,
then the SHA-256 of the catalog's repr (so of every Rating record), of each
rating column and of the timestamps. Exits 1 unless the two digests are
equal and each child took the path its file calls for, or when the column
parse's peak RSS exceeds PEAK_BOUND_MB.

    python3 tools/load_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402

PEAK_BOUND_MB = 75.0
SHAPE = gen.Shape(users=943, items=1682, ratings=100_000, implicit_events=20_000)


def child(movies: str, ratings: str, reviews: str, implicit: str) -> int:
    """Load once and print one JSON line: seconds, peak RSS, the path the
    ratings took, and the digests."""
    import hashlib
    import resource
    import time

    from cinefuse import load_catalog

    start = time.perf_counter()
    catalog = load_catalog(movies, ratings, reviews, implicit_path=implicit)
    seconds = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux; read before the digests build any record
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    as_columns = catalog._ratings is None

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    digests = {name: digest(column.tobytes()) for name, column in catalog.columns._asdict().items()}
    digests["timestamps"] = digest(repr(catalog._timestamp_column().tolist()).encode())
    digests["catalog"] = digest(repr(catalog).encode())
    print(json.dumps({"seconds": seconds, "peak_mb": peak, "columns": as_columns, "digests": digests}))
    return 0


def load(files: tuple[Path, ...]) -> dict:
    argv = [sys.executable, __file__, *map(str, files)]
    # one hash seed, so that the genre sets print in one order in both children
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(1)
    return json.loads(done.stdout)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        files = gen.generate(tmp, 1, SHAPE)
        padded = Path(tmp) / "ratings_padded.csv"
        header, *rows = files.ratings.read_text(encoding="utf-8").splitlines()
        padded.write_text("\n".join([header, *(row.replace(",", " , ") for row in rows)]) + "\n", encoding="utf-8")
        fast = load((files.movies, files.ratings, files.reviews, files.implicit))
        rows = load((files.movies, padded, files.reviews, files.implicit))
    for name, run in (("column parse", fast), ("row loop", rows)):
        print(f"load at 943 x 1682, 100k ratings, 20k implicit events, {name}: "
              f"{run['seconds']:.3f} s, peak RSS {run['peak_mb']:.1f} MB")
    same = fast["digests"] == rows["digests"]
    paths = fast["columns"] and not rows["columns"]
    print(f"catalogs {'equal' if same else 'differ'}; paths {'as expected' if paths else 'wrong'}; "
          f"column parse peak bound {PEAK_BOUND_MB:.0f} MB")
    return 0 if same and paths and fast["peak_mb"] <= PEAK_BOUND_MB else 1


if __name__ == "__main__":
    raise SystemExit(child(*sys.argv[1:]) if len(sys.argv) > 1 else main())
