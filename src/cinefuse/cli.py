"""Command-line interface.

Subcommands: load-check, stats, recommend, evaluate, optimize-weights,
cold-start. Data flags default to the bundled toy fixture so everything
runs offline out of the box.

Exit codes: 0 success, 1 data error, 2 usage error. All floating-point
output uses 7 decimal places, and no command prints wall-clock noise by
default, so identical invocations produce byte-identical output.

An optional config file (`--config path`, key=value lines, `#` comments)
can hold any flag of the subcommand being run, keys named like the flags
with dashes or underscores; flags given on the command line win.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import optimize as opt
from .catalog import Movie, load_catalog, summary_stats, train_test_split
from .cf import build_rating_matrix
from .errors import CinefuseError, text_lines
from .ranker import PipelineConfig, cold_start_item, cold_start_user, fit_hybrid, recommend_hybrid
from .textpipe import load_precomputed

FIXTURE_DIR = Path(__file__).parent / "data" / "fixtures"
SUBCOMMANDS = ("load-check", "stats", "recommend", "evaluate", "optimize-weights", "cold-start")
_BOOL_FLAGS = {"no-critic", "include-seed", "timings"}


class UsageError(Exception):
    pass


def positive_int(text: str) -> int:
    """argparse type for counts: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def fraction(text: str) -> float:
    """argparse type for a held-out share: a number strictly between 0 and 1."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


def _data_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--movies", default=str(FIXTURE_DIR / "movies.csv"))
    p.add_argument("--ratings", default=str(FIXTURE_DIR / "ratings.csv"))
    p.add_argument("--reviews", default=str(FIXTURE_DIR / "reviews.csv"))
    p.add_argument("--implicit", default=str(FIXTURE_DIR / "implicit.csv"),
                   help="implicit-events file; pass 'none' to skip")
    p.add_argument("--config", default=None, help="key=value file mirroring this subcommand's flags")
    return p


def build_parser() -> argparse.ArgumentParser:
    data = _data_parent()
    parser = argparse.ArgumentParser(prog="cinefuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load-check", parents=[data], help="load all files and report counts")
    p.set_defaults(func=cmd_load_check)

    p = sub.add_parser("stats", parents=[data], help="movies per year and the rating histogram")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("recommend", parents=[data], help="rank movies around a seed title")
    p.add_argument("--seed", action="append", required=True,
                   help="seed movie title; may be repeated with an integer run seed, "
                        "which is accepted for symmetry but has no effect (this path is deterministic)")
    p.add_argument("--n", type=positive_int, default=15)
    p.add_argument("--pool", type=positive_int, default=100)
    p.add_argument("--no-critic", action="store_true")
    p.add_argument("--include-seed", action="store_true")
    p.add_argument("--weights", default=None,
                   help="weight file with one weight per rated user, for the weighted item similarity")
    p.add_argument("--metric", choices=("pearson", "cosine", "jaccard"), default="pearson")
    p.add_argument("--min-overlap", type=int, default=2)
    p.add_argument("--provider", choices=("tfidf", "precomputed"), default="tfidf")
    p.add_argument("--embeddings", default=None, help="embedding file (provider=precomputed)")
    p.add_argument("--format", choices=("tsv", "table", "tuples"), default="tsv")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("evaluate", parents=[data], help="MAE/coverage per variant on one split")
    p.add_argument("--variants", default="plain",
                   help="comma list from: " + ", ".join(ev.VARIANTS))
    p.add_argument("--holdout", type=fraction, default=0.2)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--k", type=positive_int, default=20)
    p.add_argument("--timings", action="store_true", help="append wall-clock runtimes")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("optimize-weights", parents=[data], help="tune similarity weights, write a weight file")
    p.add_argument("--method", choices=("ga", "pso"), required=True)
    p.add_argument("--axis", choices=("user", "item"), default="user")
    p.add_argument("--holdout", type=fraction, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=positive_int, default=20)
    p.add_argument("--population", type=positive_int, default=40)
    p.add_argument("--generations", type=positive_int, default=80)
    p.add_argument("--particles", type=positive_int, default=30)
    p.add_argument("--iterations", type=positive_int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("cold-start", parents=[data], help="rating-free recommendations")
    p.add_argument("--mode", choices=("top_rated", "recent", "blend"), default="top_rated")
    p.add_argument("--n", type=positive_int, default=15)
    p.add_argument("--min-count", type=int, default=3)
    p.add_argument("--genres", default=None,
                   help="pipe-separated genres of a new movie; switches to item cold start")
    p.set_defaults(func=cmd_cold_start)
    return parser


def _read_config(path: str) -> list[tuple[str, str]]:
    try:
        lines = text_lines(path)
    except OSError as exc:
        raise CinefuseError(f"cannot read config file {path}: {exc}") from None
    pairs = []
    for i, raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CinefuseError(f"config file {path}, line {i}: expected key=value")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def _inject_config(argv: list[str]) -> list[str]:
    """Turn config pairs into flag tokens inserted after the subcommand.

    A pair is dropped when its flag already appears on the command line,
    which is what makes explicit flags win.
    """
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    given = {t.split("=", 1)[0] for t in argv if t.startswith("--")}
    tokens = []
    for key, value in _read_config(path):
        flag = "--" + key.replace("_", "-")
        if flag in given:
            continue
        if flag.lstrip("-") in _BOOL_FLAGS:
            if value.lower() in ("true", "yes", "1"):
                tokens.append(flag)
            elif value.lower() not in ("false", "no", "0"):
                raise CinefuseError(f"config key {key}: boolean expected, got {value!r}")
        else:
            tokens.extend([flag, value])
    for i, tok in enumerate(argv):
        if tok in SUBCOMMANDS:
            return argv[: i + 1] + tokens + argv[i + 1:]
    return argv


def _load(args):
    implicit = args.implicit if args.implicit not in ("", "none") else None
    return load_catalog(args.movies, args.ratings, args.reviews, implicit_path=implicit)


def _user_count(catalog) -> int:
    return np.unique(catalog.columns.user).size


def cmd_load_check(args) -> int:
    catalog = _load(args)
    print(
        f"movies={len(catalog.movies)} users={_user_count(catalog)} ratings={len(catalog.columns.user)} "
        f"reviews={len(catalog.reviews)} implicit={len(catalog.implicit)} "
        f"dropped_reviews={catalog.dropped_reviews}"
    )
    return 0


def cmd_stats(args) -> int:
    catalog = _load(args)
    stats = summary_stats(catalog)
    print(f"movies={len(catalog.movies)} users={_user_count(catalog)} ratings={len(catalog.columns.user)}")
    print("movies by year:")
    for year, count in stats.per_year.items():
        print(f"  {year}: {count}")
    if stats.unknown_year:
        print(f"  unknown: {stats.unknown_year}")
    print("months: unavailable (movie dates carry year only)")
    print("rating histogram:")
    for value, count in stats.rating_histogram.items():
        print(f"  {value}: {count}")
    return 0


def cmd_recommend(args) -> int:
    title = args.seed[0]
    for extra in args.seed[1:]:
        try:
            int(extra)
        except ValueError:
            raise UsageError(
                f"extra --seed values must be integer run seeds, got {extra!r}"
            ) from None
    if args.provider == "precomputed" and not args.embeddings:
        raise UsageError("--provider precomputed requires --embeddings")

    catalog = _load(args)
    weights = opt.load_weights(args.weights)[0] if args.weights else None
    config = PipelineConfig(
        candidate_pool=args.pool,
        n=args.n,
        critic_enabled=not args.no_critic,
        include_seed=args.include_seed,
        metric=args.metric,
        min_overlap=args.min_overlap,
    )
    provider = load_precomputed(args.embeddings) if args.provider == "precomputed" else None
    try:
        model = fit_hybrid(catalog, config, provider, weights)
    except CinefuseError as exc:
        if weights is None or len(weights.values) == _user_count(catalog):
            raise
        raise CinefuseError(f"weight file {args.weights}: {exc}; recommend needs one weight per rated user "
                            "(optimize-weights --method ga --axis item)") from None
    result = recommend_hybrid(catalog, title, config, model)
    if not result.items:
        print(f"no recommendations: {result.reason}", file=sys.stderr)
        return 0
    if args.format == "tsv":
        for r in result.items:
            print(f"{r.title}\t{r.fused_score:.7f}\t{r.content_cosine:.7f}\t{r.critic_bonus:.7f}")
    elif args.format == "table":
        width = max(len("title"), max(len(r.title) for r in result.items))
        print(f"{'title':<{width}}  {'fused':>9}  {'cosine':>9}  {'critic':>9}")
        for r in result.items:
            print(
                f"{r.title:<{width}}  {r.fused_score:9.7f}  {r.content_cosine:9.7f}  "
                f"{r.critic_bonus:9.7f}"
            )
    else:
        cells = ", ".join(f"({r.title!r}, {r.fused_score:.7f})" for r in result.items)
        print(f"[{cells}]")
    return 0


def cmd_evaluate(args) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise UsageError(f"--variants {args.variants!r} names no variant; choose from {', '.join(ev.VARIANTS)}")
    catalog = _load(args)
    split = ev.SplitConfig(holdout_fraction=args.holdout, seed=args.seed)
    reports = ev.evaluate_variants(catalog, variants, split=split, k=args.k)
    for r in reports:
        line = f"variant={r.variant} mae={r.mae:.7f} coverage={r.coverage:.7f} seed={r.seed}"
        if args.timings:
            line += f" runtime={r.runtime_seconds:.3f}s"
        print(line)
    return 0


def cmd_optimize(args) -> int:
    # the GA carries its elitism best members over, so it needs one more to breed
    least = opt.GAConfig.elitism + 1
    if args.method == "ga" and args.population < least:
        raise UsageError(f"--population must be >= {least} for ga, got {args.population}")
    catalog = _load(args)
    train_cat, test = train_test_split(catalog, args.holdout, args.seed)
    matrix = build_rating_matrix(train_cat)
    if args.method == "ga":
        dim = len(matrix.item_ids) if args.axis == "user" else len(matrix.user_ids)
        objective = opt.cf_mae_objective(matrix, test, axis=args.axis, k=args.k)
        cfg = opt.GAConfig(population=args.population, generations=args.generations, seed=args.seed)
        wv, best, _ = opt.ga_optimize(objective, dim, cfg, initial=np.ones(dim))
    else:
        if args.axis != "user":
            raise UsageError("pso tunes fuzzy genre weights, which are user-axis only")
        profiles = opt.build_fuzzy_profiles(train_cat)
        dim = len(profiles.genres)
        if not dim:
            raise CinefuseError("catalog has no genres to weight")
        objective = opt.fuzzy_mae_objective(matrix, profiles, test, k=args.k)
        cfg = opt.SwarmConfig(particles=args.particles, iterations=args.iterations, seed=args.seed)
        wv, best, _ = opt.pso_optimize(objective, dim, cfg, initial=np.ones(dim))
    opt.save_weights(wv, args.out, seed=args.seed, objective_value=best)
    print(f"method={args.method} axis={args.axis} dimension={dim} objective={best:.7f} wrote {args.out}")
    return 0


def cmd_cold_start(args) -> int:
    catalog = _load(args)
    if args.genres is not None:
        genres = frozenset(g.strip() for g in args.genres.split("|") if g.strip())
        probe = Movie(movie_id=-1, title="(new movie)", genres=genres)
        movies = cold_start_item(catalog, probe, n=args.n)
    else:
        movies = cold_start_user(catalog, n=args.n, strategy=args.mode, min_count=args.min_count)
    for m in movies:
        print(m.title)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
    except CinefuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (CinefuseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
