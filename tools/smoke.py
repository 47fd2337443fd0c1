"""The program at the MovieLens-100K shape: five checks of its bits and peak memory.

Generates the seed-1 catalog of 943 users x 1682 movies with 100k ratings
and 20k implicit events (`bench/gen.py`) once, plus copies of the ratings
and of the implicit events with space-padded fields. The movies, ratings
and reviews files are the same bytes with or without the implicit events,
so checks without them load the same catalog. Then runs each check of
CHECKS in its own child processes, one after another, and prints one line
per check: seconds, peak RSS, bound, and for the load check the strict
load's tracemalloc memory. Exits 1 if any check's output differs or any
peak exceeds its bound.

Each peak is the child's own ru_maxrss, from os.wait4. A child started by
vfork begins with its parent's RSS as its peak, so the catalog is generated
in a child as well and this process imports no numpy. Every benchmark shape
fits in one `cf._BLOCK_CELLS` block and under `cf._HELD_CELLS`, so these
are the checks of the multi-block paths' bits.

    python3 tools/smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
HOLDOUT, SPLIT_SEED, WEIGHT_SEED = 0.2, 0, 1
FILLS = (("user", "pearson"), ("item", "pearson"), ("user", "cosine"), ("user", "fuzzy"))


class Run(NamedTuple):
    code: int
    out: str
    seconds: float
    peak: float  # MB


def spawn(*argv: str, hash_seed: bool = False) -> Run:
    """Run the Python interpreter on argv with the program on its path; its
    stderr passes through."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if hash_seed:
        env["PYTHONHASHSEED"] = "0"  # so that the genre sets print in one order
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        seconds = time.perf_counter() - start
        out.seek(0)
        # ru_maxrss is in KiB on Linux
        return Run(proc.returncode, out.read().decode(), seconds, usage.ru_maxrss / 1024)


def catalog(d: str, ratings: str = "ratings.csv", implicit: str | None = None):
    from cinefuse import load_catalog

    p = Path(d)
    return load_catalog(p / "movies.csv", p / ratings, p / "reviews.csv", p / implicit if implicit else None)


# the children, each printing what its check compares


def generate(d: str) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import gen

    files = gen.generate(d, 1, gen.Shape(users=943, items=1682, ratings=100_000, implicit_events=20_000))
    for name, path in (("ratings", files.ratings), ("implicit", files.implicit)):
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        padded = "\n".join([header, *(row.replace(",", " , ") for row in rows)]) + "\n"
        (Path(d) / f"{name}_padded.csv").write_text(padded, encoding="utf-8")
    print(files.popular_titles[0])


def load(d: str, ratings: str, implicit: str) -> None:
    import hashlib
    import json
    import resource

    loaded = catalog(d, ratings, implicit)
    # read before the digests build any record or column: a catalog that
    # holds no records of a kind holds that kind as columns only
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    as_columns, implicit_as_columns = loaded._ratings is None, loaded._implicit is None
    columns = (*loaded.columns, *loaded.implicit_columns)
    digests = [hashlib.sha256(column.tobytes()).hexdigest() for column in columns]
    for text in (repr(loaded._timestamp_column().tolist()), repr(loaded)):
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    print(json.dumps({"peak_mb": peak, "columns": as_columns, "implicit_columns": implicit_as_columns,
                      "digests": digests}))


def traced_load(d: str) -> None:
    import tracemalloc

    import cinefuse  # noqa: F401  (so that only the load is traced)

    tracemalloc.start()
    loaded = catalog(d, "ratings.csv", "implicit.csv")  # noqa: F841  (held while measured)
    held, peak = tracemalloc.get_traced_memory()
    print(f"traced {held / 2**20:.1f} MB held, {peak / 2**20:.1f} MB peak")


def evaluate(d: str) -> None:
    from cinefuse import evaluate_variants

    for r in evaluate_variants(catalog(d, implicit="implicit.csv"), ("plain", "implicit_augmented")):
        print(r.variant, repr(r.mae), repr(r.coverage))


def tune(d: str, name: str) -> None:
    import numpy as np

    from cinefuse import build_fuzzy_profiles, build_rating_matrix, train_test_split
    from cinefuse.optimize import cf_mae_objective, fuzzy_mae_objective

    train, test = train_test_split(catalog(d), HOLDOUT, SPLIT_SEED)
    matrix = build_rating_matrix(train)
    if name == "fuzzy":
        objective, dim = fuzzy_mae_objective(matrix, build_fuzzy_profiles(train), test), len(train.genre_universe())
    else:
        objective = cf_mae_objective(matrix, test, axis=name)
        dim = len(matrix.item_ids if name == "user" else matrix.user_ids)
    for label, w in (("ones", np.ones(dim)), ("random", np.random.default_rng(WEIGHT_SEED).uniform(0.0, 2.0, dim))):
        print(name, label, repr(objective(w)))


def similarity(d: str) -> None:
    import hashlib

    import numpy as np

    from cinefuse import build_fuzzy_profiles, build_rating_matrix, similarity_matrix
    from cinefuse.optimize import fuzzy_similarity_matrix

    loaded = catalog(d)
    matrix, profiles = build_rating_matrix(loaded), build_fuzzy_profiles(loaded)
    for axis, metric in FILLS:
        if metric == "fuzzy":
            sim = fuzzy_similarity_matrix(profiles, np.ones(len(profiles.genres)))
        else:
            sim = similarity_matrix(matrix, axis, metric)
        print(axis, metric, *(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                              for a in (sim.values, sim.co_counts)))
        del sim


# the checks, each returning (runs, output as it must be, bounded peaks, note)


def check_recommend(d: str, title: str):
    files = (f"--{name}={Path(d) / name}.csv" for name in ("movies", "ratings", "reviews"))
    run = spawn("-m", "cinefuse", "recommend", *files, "--implicit", "none", "--seed", title)
    return [run], run.code == 0, [run.peak], ""


def check_load(d: str, title: str):
    import json

    pairs = (("ratings.csv", "implicit.csv"), ("ratings_padded.csv", "implicit_padded.csv"))
    runs = [spawn(__file__, "load", d, *files, hash_seed=True) for files in pairs]
    traced = spawn(__file__, "traced_load", d)
    if any(r.code for r in (*runs, traced)):
        return [*runs, traced], False, [], ""
    fast, rows = (json.loads(r.out) for r in runs)
    paths = fast["columns"] and fast["implicit_columns"] and not rows["columns"] and not rows["implicit_columns"]
    return [*runs, traced], fast["digests"] == rows["digests"] and paths, [fast["peak_mb"]], traced.out.strip()


def golden(file: str, *children: tuple[str, ...]):
    runs = [spawn(__file__, *child) for child in children]
    same = not any(r.code for r in runs) and "".join(r.out for r in runs) == (ROOT / "tests/data" / file).read_text()
    return runs, same, [r.peak for r in runs], ""


# name: (peak bound in MB, check). recommend: the CLI exits 0 (so ranking
# cannot drift back to fitting the whole item-item similarity); load: the
# strict ratings and implicit files take the column parse and the catalog
# holds no records, the padded copies the row loop, digests equal, peak read
# right after the load, and the strict load's tracemalloc held and peak
# memory (from a third child, so that tracing adds nothing to the bounded
# peak) noted; the rest: output equals a golden file
CHECKS = {
    "recommend": (120.0, check_recommend),
    "load": (75.0, check_load),
    "evaluate": (190.0, lambda d, _: golden("golden_evaluate_100k.txt", ("evaluate", d))),
    "tune": (260.0, lambda d, _: golden("golden_tune_100k.txt", *(("tune", d, n) for n in ("user", "item", "fuzzy")))),
    "similarity": (190.0, lambda d, _: golden("golden_similarity_100k.txt", ("similarity", d))),
}


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)  # each line before the next child's stderr
    failed = []
    with tempfile.TemporaryDirectory() as d:
        made = spawn(__file__, "generate", d)
        print(f"{'catalog':<11}{made.seconds:6.2f} s  943 x 1682, 100k ratings, 20k implicit events, seed 1")
        if made.code:
            return 1
        for name, (bound, check) in CHECKS.items():
            runs, same, peaks, note = check(d, made.out.strip())
            verdict = "output differs" if not same else "ok" if peaks and max(peaks) <= bound else "peak over bound"
            shown = "/".join(f"{p:.1f}" for p in peaks)  # tune's three children each have the bound
            line = f"{name:<11}{sum(r.seconds for r in runs):6.2f} s  peak {shown} MB, bound {bound:.0f} MB: {verdict}"
            print(f"{line} ({note})" if note else line)
            if verdict != "ok":
                failed.append(name)
    print("failed:", ", ".join(failed) or "none")
    return 1 if failed else 0


CHILDREN = {child.__name__: child for child in (generate, load, traced_load, evaluate, tune, similarity)}

if __name__ == "__main__":
    raise SystemExit(CHILDREN[sys.argv[1]](*sys.argv[2:]) if len(sys.argv) > 1 else main())
