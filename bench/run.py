"""cinefuse benchmark: the work behind `recommend`, `evaluate` and `optimize-weights`.

    python3 bench/run.py --workload serve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout. The program is imported from
`src/`; generated catalogs and span files go under `.bench_out/`. The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
from spans with `--trace 1`. The line before it records the catalog shape,
the environment and the output quality. `--workload all` runs every
workload in its own process and prints each metric with its unit.

Workloads (one process, one client, closed loop):
  serve     recommend_hybrid once per request over a Zipf-popular sequence of
            seed titles. Every request rebuilds the matrix, the item
            similarity, the TF-IDF fit and the consensus, so this is where
            item-kernel, text, critic, ranker and fit-once changes show.
  evaluate  one evaluate_variants(["plain", "implicit_augmented"]) call per
            operation: user-axis similarity, thousands of predict_rating
            calls and augment_implicit, with no text or critic work.
  tune      one round of optimize-weights work per operation: GA over
            weighted pearson and PSO over fuzzy genre profiles. Each
            objective evaluation rebuilds a similarity from new weights,
            so no fitted state can be reused.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("serve", "evaluate", "tune")
SETUP_ROUNDS = 100
# Catalogs are small so that one operation takes about 0.3 s and a run holds
# over a hundred of them: the 90th percentile then has ten samples beyond it.
SHAPES = {
    "serve": gen.Shape(users=100, items=200, ratings=1600),
    "evaluate": gen.Shape(users=80, items=150, ratings=1500, implicit_events=300),
    "tune": gen.Shape(users=40, items=80, ratings=600),
}
TINY_SHAPES = {
    "serve": gen.Shape(users=20, items=40, ratings=240),
    "evaluate": gen.Shape(users=30, items=50, ratings=400, implicit_events=60),
    "tune": gen.Shape(users=20, items=40, ratings=240),
}
EVAL_VARIANTS = ("plain", "implicit_augmented")
TUNE_HOLDOUT = 0.2
GA_BUDGET = {"population": 2, "generations": 1, "elitism": 1}
PSO_BUDGET = {"particles": 2, "iterations": 1}


def import_program():
    """Import cinefuse from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "cinefuse" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}/cinefuse")
    sys.path.insert(0, str(SRC))
    import cinefuse

    if Path(cinefuse.__file__).resolve().parent != SRC / "cinefuse":
        raise SystemExit(f"error: imported cinefuse from {cinefuse.__file__}, not {SRC}")
    return cinefuse


def _recorded(objective, values: list):
    def recorded(weights):
        value = objective(weights)
        values.append(value)
        return value

    return recorded


class Serve:
    """recommend_hybrid per request; seed titles follow rating popularity."""

    work_unit = "requests/s"

    def __init__(self, cf, files, seed):
        self.cf, self.files = cf, files
        self.rng = np.random.default_rng([seed, 1])
        self.sequence: list[str] = []
        self.n = cf.PipelineConfig().n
        self.pools: list[int] = []

    def setup(self):
        f = self.files
        return {"catalog": self.cf.load_catalog(f.movies, f.ratings, f.reviews)}

    def op(self, i):
        while len(self.sequence) <= i:
            picks = self.rng.choice(len(self.files.popular_titles), size=1024, p=self.files.popularity)
            self.sequence += [self.files.popular_titles[j] for j in picks]
        title = self.sequence[i]
        return title, self.cf.recommend_hybrid(self.catalog, title, self.cf.PipelineConfig())

    def check(self, out, ref):
        title, result = out
        self.pools.append(result.pool_size)
        if ref is not None and title not in ref:
            return 1, [f"no reference recorded for seed title {title!r}"]
        return 1, checks.check_serve(result, title, self.n, ref[title] if ref else None)

    def quality(self):
        return {"mean_pool_size": statistics.fmean(self.pools) if self.pools else 0.0}


class Evaluate:
    """One evaluate_variants call per operation; work is held-out ratings scored."""

    work_unit = "predictions/s"

    def __init__(self, cf, files, seed):
        self.cf, self.files = cf, files
        self.last = None

    def setup(self):
        f = self.files
        catalog = self.cf.load_catalog(f.movies, f.ratings, f.reviews, implicit_path=f.implicit)
        split = self.cf.SplitConfig()
        _, test = self.cf.train_test_split(catalog, split.holdout_fraction, split.seed)
        return {"catalog": catalog, "test": test}

    def op(self, i):
        return self.cf.evaluate_variants(self.catalog, EVAL_VARIANTS)

    def check(self, reports, ref):
        self.last = reports
        return len(EVAL_VARIANTS) * len(self.test), checks.check_evaluate(reports, EVAL_VARIANTS, ref)

    def quality(self):
        return checks.evaluate_summary(self.last) if self.last else {}


class Tune:
    """One GA round and one PSO round per operation; work is objective evaluations."""

    work_unit = "evaluations/s"

    def __init__(self, cf, files, seed):
        self.cf, self.files, self.seed = cf, files, seed
        self.last = None

    def setup(self):
        f = self.files
        catalog = self.cf.load_catalog(f.movies, f.ratings, f.reviews)
        train, test = self.cf.train_test_split(catalog, TUNE_HOLDOUT, self.seed)
        return {"train": train, "test": test}

    def op(self, i):
        cf = self.cf
        matrix = cf.build_rating_matrix(self.train)
        outcome = {}

        ga_cfg = cf.GAConfig(seed=self.seed, **GA_BUDGET)
        dim = len(matrix.item_ids)
        values: list[float] = []
        objective = _recorded(cf.cf_mae_objective(matrix, self.test, axis="user"), values)
        wv, best, trace = cf.ga_optimize(objective, dim, ga_cfg, initial=np.ones(dim))
        outcome["ga"] = {
            "best": best, "trace": trace, "weights": wv.values, "values": values,
            "expected": ga_cfg.population * (ga_cfg.generations + 1), "w_max": ga_cfg.w_max,
        }

        pso_cfg = cf.SwarmConfig(seed=self.seed, **PSO_BUDGET)
        profiles = cf.build_fuzzy_profiles(self.train)
        dim = len(self.train.genre_universe())
        values = []
        objective = _recorded(cf.fuzzy_mae_objective(matrix, profiles, self.test), values)
        wv, best, trace = cf.pso_optimize(objective, dim, pso_cfg, initial=np.ones(dim))
        outcome["pso"] = {
            "best": best, "trace": trace, "weights": wv.values, "values": values,
            "expected": pso_cfg.particles * (pso_cfg.iterations + 1), "w_max": pso_cfg.w_max,
        }
        return outcome

    def check(self, outcome, ref):
        self.last = outcome
        work = sum(len(o["values"]) for o in outcome.values())
        return work, checks.check_tune(outcome, ref)

    def quality(self):
        return {label: o["best"] for label, o in self.last.items()} if self.last else {}


KINDS = {"serve": Serve, "evaluate": Evaluate, "tune": Tune}

# (metric, unit, how it is derived, span name, attribute)
#   per_call: median seconds per call, set-up included
#   calls / s / self_s: calls, inclusive or self seconds per traced operation
#   sum: attribute summed per traced operation; mean / share: over calls
PER_LAYER = (
    ("catalog.load_catalog.s", "s", "per_call", "catalog.load_catalog", None),
    ("catalog.train_test_split.s", "s", "per_call", "catalog.train_test_split", None),
    ("cf.build_rating_matrix.calls", "count", "calls", "cf.build_rating_matrix", None),
    ("cf.build_rating_matrix.s", "s", "s", "cf.build_rating_matrix", None),
    ("cf.similarity_matrix.calls", "count", "calls", "cf.similarity_matrix", None),
    ("cf.similarity_matrix.s", "s", "s", "cf.similarity_matrix", None),
    ("cf.similarity_matrix.pairs", "count", "sum", "cf.similarity_matrix", "pairs"),
    ("cf.recommend_cf.s", "s", "s", "cf.recommend_cf", None),
    ("cf.predict_rating.calls", "count", "calls", "cf.predict_rating", None),
    ("cf.predict_rating.s", "s", "s", "cf.predict_rating", None),
    ("cf.predict_rating.fallback_ratio", "ratio", "share", "cf.predict_rating", "fallback"),
    ("cf.augment_implicit.s", "s", "s", "cf.augment_implicit", None),
    ("textpipe.fit_tfidf.calls", "count", "calls", "textpipe.fit_tfidf", None),
    ("textpipe.fit_tfidf.s", "s", "s", "textpipe.fit_tfidf", None),
    ("textpipe.preprocess.calls", "count", "calls", "textpipe.preprocess", None),
    ("textpipe.preprocess.s", "s", "s", "textpipe.preprocess", None),
    ("textpipe.embed.calls", "count", "calls", "textpipe.embed", None),
    ("textpipe.embed.s", "s", "s", "textpipe.embed", None),
    ("textpipe.cosine_similarity.calls", "count", "calls", "textpipe.cosine_similarity", None),
    ("textpipe.cosine_similarity.s", "s", "s", "textpipe.cosine_similarity", None),
    ("critic.consensus_map.calls", "count", "calls", "critic.consensus_map", None),
    ("critic.consensus_map.s", "s", "s", "critic.consensus_map", None),
    ("ranker.recommend_hybrid.self_s", "s", "self_s", "ranker.recommend_hybrid", None),
    ("ranker.pool_size", "count", "mean", "ranker.recommend_hybrid", "pool_size"),
    ("optimize.objective.calls", "count", "calls", "optimize.objective", None),
    ("optimize.objective.s", "s", "s", "optimize.objective", None),
    ("optimize.fuzzy_similarity_matrix.calls", "count", "calls", "optimize.fuzzy_similarity_matrix", None),
    ("optimize.fuzzy_similarity_matrix.s", "s", "s", "optimize.fuzzy_similarity_matrix", None),
    ("optimize.fuzzy_similarity_matrix.pairs", "count", "sum", "optimize.fuzzy_similarity_matrix", "pairs"),
    ("optimize.build_fuzzy_profiles.s", "s", "s", "optimize.build_fuzzy_profiles", None),
    ("optimize.ga_optimize.self_s", "s", "self_s", "optimize.ga_optimize", None),
    ("optimize.pso_optimize.self_s", "s", "self_s", "optimize.pso_optimize", None),
    ("evaluate.evaluate_variants.self_s", "s", "self_s", "evaluate.evaluate_variants", None),
)
# Operation and set-up times are reported as 90th percentiles. A shared 2-vCPU
# VM switches between a fast and a slow speed about 1.7x apart every few tenths
# of a second to a few seconds, and the share of time spent fast changes from
# run to run. Medians and low percentiles follow that share; the 90th
# percentile stays on the slow speed. In sets of five seeds the spread
# (IQR / median) of the operation p50 reached 0.42 and of its p90 0.13; of the
# set-up p50 0.50 and of its p90 0.11. Medians go on the info line.
END_TO_END_UNITS = {"setup_s": "s", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def layer_metrics(all_spans, op_rids: set, traced_s: list, untraced_s: list) -> dict:
    own = spans.self_seconds(all_spans)
    n_ops = max(1, len(op_rids))
    by_name: dict[str, list] = {}
    for s in all_spans:
        by_name.setdefault(s.name, []).append(s)
    metrics = {}
    for metric, unit, how, name, attr in PER_LAYER:
        every = by_name.get(name, [])
        in_ops = [s for s in every if s.rid in op_rids]
        if how == "per_call":
            value = statistics.median(s.seconds for s in every) if every else 0.0
        elif how == "calls":
            value = len(in_ops) / n_ops
        elif how == "s":
            value = sum(s.seconds for s in in_ops) / n_ops
        elif how == "self_s":
            value = sum(own[s.id] for s in in_ops) / n_ops
        elif how == "sum":
            value = sum(s.attrs[attr] for s in in_ops) / n_ops
        elif how == "mean":
            value = statistics.fmean(s.attrs[attr] for s in in_ops) if in_ops else 0.0
        else:  # share
            value = sum(bool(s.attrs[attr]) for s in in_ops) / len(in_ops) if in_ops else 0.0
        metrics[metric] = {"value": value, "unit": unit}
    overhead = statistics.median(traced_s) - statistics.median(untraced_s) if traced_s and untraced_s else 0.0
    metrics["trace_overhead"] = {"value": overhead, "unit": "s"}
    return metrics


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def run_workload(cf, name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    data_dir = Path(tempfile.mkdtemp(prefix=f"data-{name}-{seed}-", dir=OUT))
    try:
        files = gen.generate(data_dir, seed, (TINY_SHAPES if tiny else SHAPES)[name])
        ref = None if tiny else checks.load_reference(name, seed, files.shape)
        work = KINDS[name](cf, files, seed)
        tracer = spans.Tracer() if trace else None
        return _measure(name, seed, seconds, work, files.shape, ref, tracer)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def _measure(name, seed, seconds, work, shape, ref, tracer) -> dict:
    setup_s, op_s, traced_s, untraced_s, op_rids = [], [], [], [], set()
    attempted = failed = total_work = 0

    def traced(rid, fn):
        if tracer is None:
            return fn()
        tracer.rid = rid
        tracer.install()
        try:
            return fn()
        finally:
            tracer.remove()

    def set_up():
        t0 = time.perf_counter()
        state = traced(f"setup-{len(setup_s)}", work.setup)
        setup_s.append(time.perf_counter() - t0)
        return state

    min_ops = 1 if tracer is None else 2
    # operations keep the state of the first set-up; later rounds are only timed,
    # so state a program builds on first use is not thrown away by the benchmark
    vars(work).update(set_up())
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        i = attempted
        attempted += 1
        # with tracing, every other operation runs untraced to measure the overhead
        rid = f"op-{i}" if tracer is not None and i % 2 == 0 else None
        t0 = time.perf_counter()
        try:
            out = traced(rid, lambda: work.op(i)) if rid else work.op(i)
            dt = time.perf_counter() - t0
            units, problems = work.check(out, ref)
        except Exception:  # noqa: BLE001 - a crash counts as a failed operation
            traceback.print_exc(file=sys.stderr)
            problems = ["raised"]
        if problems:
            failed += 1
            print(f"op {i} failed: " + "; ".join(problems[:5]), file=sys.stderr)
        else:
            op_s.append(dt)
            if rid:
                op_rids.add(rid)
            (traced_s if rid else untraced_s).append(dt)
            total_work += units
        now = time.perf_counter()
        # stop rather than start an operation that would end well past the deadline,
        # once there is one operation of each kind
        done = attempted >= min_ops and now + (now - t0) / 2 > deadline
        # set-up rounds are spread over the run, so they see the machine as the operations do
        while len(setup_s) < SETUP_ROUNDS and (done or now - start >= seconds * len(setup_s) / SETUP_ROUNDS):
            set_up()
            now = time.perf_counter()
        if done:
            break

    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(tracer is not None),
        "shape": shape,
        "env": environment(),
        "operations": attempted,
        "setup_rounds": len(setup_s),
        "reference_checked": ref is not None,
        "quality": work.quality(),
    }
    ms = [1000.0 * s for s in op_s] or [0.0]
    p50, p90 = (float(v) for v in np.percentile(ms, [50, 90]))
    setup_p50, setup_p90 = (float(v) for v in np.percentile(setup_s, [50, 90]))
    info["setup_s"] = {"p50": setup_p50, "p90": setup_p90}
    info["op_ms"] = {"p50": p50, "p90": p90}
    info["throughput"] = {"value": total_work / sum(op_s) if op_s else 0.0, "unit": work.work_unit}
    if tracer:
        path = OUT / f"trace-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(path)
        info["spans"] = str(path.relative_to(ROOT))
        metrics = layer_metrics(tracer.spans, op_rids, traced_s, untraced_s)
    else:
        metrics = {
            "setup_s": setup_p90,
            "op_p90_ms": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    print(json.dumps(info))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            worst = proc.returncode
            continue
        info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        ratio = result["failed"] / result["attempted"]
        print(f"{name}: attempted={result['attempted']} failed={result['failed']} failed_ratio={ratio:g}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:42s} {m['value']:14.6g} {m['unit']}")
        if not args.trace:
            print(f"  {'op_p50_ms (info)':42s} {info['op_ms']['p50']:14.6g} ms")
            print(f"  {'throughput (info)':42s} {info['throughput']['value']:14.6g} {info['throughput']['unit']}")
            print(f"  quality {json.dumps(info['quality'])}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny catalogs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cf = import_program()
    result = run_workload(cf, args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
