"""End-to-end CLI behavior through main(argv)."""

import ast
import csv
import shlex
from pathlib import Path

import numpy as np
import pytest

from cinefuse.cli import main
from cinefuse.errors import DataFormatError, text_lines
from cinefuse.optimize import WeightVector, load_weights, save_weights
from cinefuse.ranker import PipelineConfig, fit_hybrid, recommend_hybrid
from cinefuse.textpipe import load_precomputed, save_precomputed


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoadCheck:
    def test_counts_line(self, capsys):
        code, out, err = run_cli(capsys, "load-check")
        assert code == 0
        assert out == "movies=20 users=8 ratings=60 reviews=23 implicit=15 dropped_reviews=2\n"

    def test_implicit_none(self, capsys):
        code, out, _ = run_cli(capsys, "load-check", "--implicit", "none")
        assert code == 0
        assert "implicit=0" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "load-check", "--movies", "/nonexistent.csv")
        assert code == 1
        assert "error" in err


class TestNonUtf8Files:
    # each file the CLI reads names the file and line of its first byte that
    # is not UTF-8, where every reader ends lines at LF, CRLF or CR only (a
    # form feed in the config does not, a lone CR in the weights does)
    FILES = {
        "movies": (("load-check", "--movies"), b"movieId,title,genres,year,summary\n1,One,Drama,,x\n2,T\xffo,,,\n", 3),
        "config": (("recommend", "--seed", "Northern Lights", "--config"), b"n=5\x0cformat=tuples\n# \xff\n", 2),
        "weights": (("recommend", "--seed", "Northern Lights", "--weights"), b"# provenance=ga\n1.0\r1.0\n\xff\n", 4),
        "embeddings": (
            ("recommend", "--seed", "Northern Lights", "--provider", "precomputed", "--embeddings"),
            b"dim=2\n1\t0.5 0.5\n2\t0.5 0\xff\n",
            3,
        ),
    }

    @pytest.mark.parametrize("name", FILES)
    def test_error_names_file_and_line(self, capsys, tmp_path, name):
        argv, data, line = self.FILES[name]
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}, line {line}: not UTF-8: byte 0xff\n"


class TestLineRule:
    # every text file cinefuse reads ends a line at LF, CRLF or CR only; the
    # other separators of str.splitlines stay inside the line
    SEPARATORS = {"VT": "\x0b", "FF": "\x0c", "FS": "\x1c", "NEL": "\x85", "LS": "\u2028", "PS": "\u2029"}

    @pytest.mark.parametrize("sep", SEPARATORS.values(), ids=SEPARATORS)
    def test_config_line_is_one_setting(self, capsys, tmp_path, sep):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"n=5{sep}format=tuples\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "recommend", "--seed", "Northern Lights", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "argument --n:" in err

    @pytest.mark.parametrize("sep", SEPARATORS.values(), ids=SEPARATORS)
    def test_embedding_row_is_one_row(self, tmp_path, sep):
        path = tmp_path / "e.txt"
        path.write_text(f"dim=2\n1\t0.5{sep}0.5\n", encoding="utf-8")
        vectors = load_precomputed(path).vectors
        assert list(vectors) == [1]
        assert vectors[1].tolist() == [0.5, 0.5]

    def test_text_lines_number_as_not_utf8_and_the_csv_reader(self, tmp_path):
        # lines end at a lone CR, at CRLF and at LF; a form feed stays inside its line
        pieces = [(b"a", b"\r"), (b"b\x0cc", b"\r"), (b"", b"\r\n"), (b"d", b"\n"), (b"e", b"\n")]
        path = tmp_path / "t.txt"
        path.write_bytes(b"".join(text + end for text, end in pieces))
        expected = [(i, text.decode()) for i, (text, _) in enumerate(pieces, 1)]
        assert text_lines(path) == expected
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            assert [(reader.line_num, row) for row in reader] == [(i, [text] if text else []) for i, text in expected]
        for i in range(1, len(pieces) + 1):
            bad = tmp_path / f"bad{i}.txt"
            bad.write_bytes(b"".join(b"\xff" * (j == i) + text + end for j, (text, end) in enumerate(pieces, 1)))
            with pytest.raises(DataFormatError, match=rf"bad{i}\.txt, line {i}: not UTF-8: byte 0xff$"):
                text_lines(bad)


class TestStats:
    def test_sections_present(self, capsys):
        code, out, _ = run_cli(capsys, "stats")
        assert code == 0
        assert out.startswith("movies=20 users=8 ratings=60\nmovies by year:\n")
        assert "rating histogram:" in out
        assert "  unknown: 1" in out
        assert "  4.0: 12" in out

    def test_rating_just_off_the_grid_counts_on_it(self, capsys, tmp_path):
        # the loader accepts a rating within 1e-9 of the grid
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("userId,movieId,rating,timestamp\n1,1,4.0000000001,846200301\n")
        code, out, err = run_cli(capsys, "stats", "--ratings", str(ratings), "--implicit", "none")
        assert (code, err) == (0, "")
        assert "  4.0: 1\n" in out
        histogram = out.split("rating histogram:\n")[1].splitlines()
        assert sum(int(line.split(": ")[1]) for line in histogram) == 1


class TestRecommend:
    ARGS = ("recommend", "--seed", "Northern Lights", "--n", "15", "--seed", "42")

    def test_deterministic_output(self, capsys):
        code_a, out_a, _ = run_cli(capsys, *self.ARGS)
        code_b, out_b, _ = run_cli(capsys, *self.ARGS)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_matches_golden_file(self, capsys):
        golden = (Path(__file__).parent / "data" / "golden_recommend.txt").read_text()
        _, out, _ = run_cli(capsys, *self.ARGS)
        assert out == golden

    def test_tsv_shape_and_fusion(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        rows = [line.split("\t") for line in out.splitlines()]
        assert len(rows) == 15
        fused = []
        for title, f, c, b in rows:
            f, c, b = float(f), float(c), float(b)
            assert f == pytest.approx(c + b, abs=1e-6)
            fused.append(f)
        assert all(a >= b for a, b in zip(fused, fused[1:]))

    def test_seven_decimal_floats(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        first = out.splitlines()[0].split("\t")
        for cell in first[1:]:
            assert len(cell.split(".")[1]) == 7

    def test_extra_seed_must_be_int(self, capsys):
        code, _, err = run_cli(capsys, "recommend", "--seed", "Northern Lights", "--seed", "extra")
        assert code == 2
        assert "integer" in err

    def test_unknown_title_lists_closest(self, capsys):
        code, _, err = run_cli(capsys, "recommend", "--seed", "Northen Lights")
        assert code == 1
        assert "Northern Lights" in err

    def test_unrated_seed_reports_reason(self, capsys):
        code, out, err = run_cli(capsys, "recommend", "--seed", "Glass Harbor")
        assert code == 0
        assert out == ""
        assert "no recommendations" in err

    def test_tuples_format_parses(self, capsys):
        _, out, _ = run_cli(capsys, "recommend", "--seed", "Northern Lights", "--format", "tuples")
        parsed = ast.literal_eval(out.strip())
        assert isinstance(parsed, list) and len(parsed) == 15
        assert all(isinstance(t, tuple) and len(t) == 2 for t in parsed)

    def test_table_format_has_header(self, capsys):
        _, out, _ = run_cli(capsys, "recommend", "--seed", "Northern Lights", "--format", "table")
        header = out.splitlines()[0]
        assert header.split() == ["title", "fused", "cosine", "critic"]

    def test_no_critic_zeroes_bonus_column(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS, "--no-critic")
        for line in out.splitlines():
            assert line.split("\t")[3] == "0.0000000"

    def test_include_seed_brings_seed_back(self, capsys):
        _, out, _ = run_cli(capsys, "recommend", "--seed", "Northern Lights", "--include-seed", "--n", "19")
        titles = [line.split("\t")[0] for line in out.splitlines()]
        assert "Northern Lights" in titles

    def test_weights_file_accepted(self, capsys, tmp_path):
        out_path = tmp_path / "w.txt"
        code, _, _ = run_cli(
            capsys, "optimize-weights", "--method", "ga", "--axis", "item",
            "--population", "6", "--generations", "2", "--out", str(out_path),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "recommend", "--seed", "Northern Lights", "--weights", str(out_path))
        assert code == 0
        assert len(out.splitlines()) == 15

    def test_weights_of_the_wrong_axis_name_the_file(self, capsys, tmp_path):
        # the default --axis user writes one weight per movie (19 rated),
        # but the item similarity needs one per rated user (8)
        path = tmp_path / "w.txt"
        code, _, _ = run_cli(
            capsys, "optimize-weights", "--method", "ga", "--population", "4", "--generations", "1",
            "--out", str(path),
        )
        assert code == 0
        code, out, err = run_cli(capsys, "recommend", "--seed", "Northern Lights", "--weights", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"error: weight file {path}: weight vector of length 19, expected 8; recommend needs one "
            "weight per rated user (optimize-weights --method ga --axis item)\n"
        )

    def test_non_finite_weight_names_file_and_line(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# provenance=ga seed=0 objective=0.5\n" + "1.0\n" * 4 + "nan\n" + "1.0\n" * 3)
        code, out, err = run_cli(capsys, "recommend", "--seed", "Northern Lights", "--weights", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}, line 6: non-finite weight 'nan'\n"

    def test_negative_weight_names_file_and_line(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# provenance=ga seed=0 objective=0.5\n1.0\n-1.0\n" + "1.0\n" * 6)
        code, out, err = run_cli(capsys, "recommend", "--seed", "Northern Lights", "--weights", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}, line 3: negative weight '-1.0'\n"

    def test_weight_not_a_number_names_file_and_line(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# provenance=ga seed=0 objective=0.5\n1.0\n\nabc\n" + "1.0\n" * 6)
        code, out, err = run_cli(capsys, "recommend", "--seed", "Northern Lights", "--weights", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}, line 4: not a number: 'abc'\n"

    def test_weights_rank_as_a_model_fitted_with_them(self, capsys, tmp_path, fixture_catalog):
        users = sorted({r.user_id for r in fixture_catalog.ratings})
        rng = np.random.default_rng(0)
        wv = WeightVector(tuple(float(w) for w in rng.uniform(0.0, 2.0, len(users))), "ga")
        path = tmp_path / "w.txt"
        save_weights(wv, path, seed=0, objective_value=0.0)
        # a pool of 3 is cut from the weighted neighbor order, so the weights show
        argv = ("recommend", "--seed", "Northern Lights", "--pool", "3", "--n", "3")
        code, out, _ = run_cli(capsys, *argv, "--weights", str(path))
        assert code == 0
        config = PipelineConfig(candidate_pool=3, n=3)
        model = fit_hybrid(fixture_catalog, config, weights=wv)
        result = recommend_hybrid(fixture_catalog, "Northern Lights", config, model)
        assert out == "".join(
            f"{r.title}\t{r.fused_score:.7f}\t{r.content_cosine:.7f}\t{r.critic_bonus:.7f}\n"
            for r in result.items
        )
        assert out != run_cli(capsys, *argv)[1]

    @staticmethod
    def _embeddings(catalog, path, drop):
        """The default TF-IDF vectors of the movies ranked around Northern
        Lights (id 1), the seed included, minus `drop`, as an embedding file;
        returns how many catalog movies the file lacks."""
        model = fit_hybrid(catalog, PipelineConfig())
        ranked = (set(model.pool(1)) | {1}) - drop
        save_precomputed(path, {mid: model.provider.vector(catalog.movies[mid]) for mid in ranked})
        return len(catalog.movies) - len(ranked)

    def test_precomputed_file_needs_only_ranked_movies(self, capsys, tmp_path, fixture_catalog):
        path = tmp_path / "emb.txt"
        assert self._embeddings(fixture_catalog, path, drop=set()) > 0
        code, out, _ = run_cli(capsys, *self.ARGS, "--provider", "precomputed", "--embeddings", str(path))
        assert code == 0
        assert out == run_cli(capsys, *self.ARGS)[1]

    def test_precomputed_file_without_seed_vector(self, capsys, tmp_path, fixture_catalog):
        path = tmp_path / "emb.txt"
        self._embeddings(fixture_catalog, path, drop={1})
        code, out, err = run_cli(capsys, *self.ARGS, "--provider", "precomputed", "--embeddings", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "movie 1" in err

    def test_precomputed_file_with_nan_entry(self, capsys, tmp_path, fixture_catalog):
        # a NaN fused score has no sort order; the loader refuses the file
        path = tmp_path / "emb.txt"
        save_precomputed(path, {1: np.array([float("nan"), 1.0]), 2: np.array([1.0, 0.0])})
        code, out, err = run_cli(capsys, *self.ARGS, "--provider", "precomputed", "--embeddings", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and f"{path}, line 2" in err

    def test_precomputed_requires_embeddings(self, capsys):
        code, _, err = run_cli(capsys, "recommend", "--seed", "Northern Lights", "--provider", "precomputed")
        assert code == 2
        assert "embeddings" in err


class TestEvaluate:
    def test_default_plain(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate")
        assert code == 0
        line = out.strip()
        assert line.startswith("variant=plain mae=")
        assert "coverage=" in line and "seed=42" in line
        assert "runtime" not in line

    def test_timings_flag_appends_runtime(self, capsys):
        _, out, _ = run_cli(capsys, "evaluate", "--timings")
        assert "runtime=" in out

    def test_multiple_variants_in_order(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", "--variants", "plain,implicit_augmented")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("variant=plain ")
        assert lines[1].startswith("variant=implicit_augmented ")

    def test_unknown_variant(self, capsys):
        code, _, err = run_cli(capsys, "evaluate", "--variants", "magic")
        assert code == 1
        assert "variant" in err

    @pytest.mark.parametrize("variants", [",", "", " , ,"])
    def test_variant_list_naming_no_variant_is_usage_error(self, capsys, variants):
        code, out, err = run_cli(capsys, "evaluate", "--variants", variants)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: --variants") and "names no variant" in err


class TestOptimizeWeights:
    def test_ga_writes_weight_file(self, capsys, tmp_path):
        out_path = tmp_path / "ga.txt"
        code, out, _ = run_cli(
            capsys, "optimize-weights", "--method", "ga",
            "--population", "6", "--generations", "2", "--out", str(out_path),
        )
        assert code == 0
        assert "wrote" in out
        wv, seed, objective = load_weights(out_path)
        assert wv.provenance == "ga"
        assert objective >= 0.0

    def test_pso_writes_weight_file(self, capsys, tmp_path):
        out_path = tmp_path / "pso.txt"
        code, _, _ = run_cli(
            capsys, "optimize-weights", "--method", "pso",
            "--particles", "5", "--iterations", "3", "--out", str(out_path),
        )
        assert code == 0
        wv, _, _ = load_weights(out_path)
        assert wv.provenance == "pso"

    @pytest.mark.parametrize(
        "method, budget",
        [("ga", ["--population", "6", "--generations", "4"]), ("pso", ["--particles", "5", "--iterations", "4"])],
    )
    def test_matches_golden_weight_file(self, capsys, tmp_path, method, budget):
        # recorded before the objectives held their weight-independent
        # work; any change in the last bit of an objective value can change
        # which candidate wins, so the files are compared byte for byte
        out_path = tmp_path / f"{method}.txt"
        code, _, _ = run_cli(capsys, "optimize-weights", "--method", method, *budget, "--out", str(out_path))
        assert code == 0
        golden = Path(__file__).parent / "data" / f"golden_weights_{method}.txt"
        assert out_path.read_bytes() == golden.read_bytes()

    def test_pso_rejects_item_axis(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "optimize-weights", "--method", "pso", "--axis", "item",
            "--out", str(tmp_path / "x.txt"),
        )
        assert code == 2
        assert "user" in err


class TestColdStart:
    def test_top_rated_order(self, capsys):
        code, out, _ = run_cli(capsys, "cold-start", "--n", "5")
        assert code == 0
        assert out.splitlines() == [
            "The Cartographer",
            "Echo Protocol",
            "Second Orbit",
            "Meridian Gamma",
            "Paper Lanterns",
        ]

    def test_min_count_shuts_out_single_rating(self, capsys):
        _, out, _ = run_cli(capsys, "cold-start", "--n", "20")
        assert "Hollow Signal" not in out.splitlines()

    def test_genres_switch_to_item_mode(self, capsys):
        code, out, _ = run_cli(capsys, "cold-start", "--genres", "Sci-Fi|Adventure", "--n", "3")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_recent_mode(self, capsys):
        code, out, _ = run_cli(capsys, "cold-start", "--mode", "recent", "--n", "3")
        assert code == 0
        assert len(out.splitlines()) == 3


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("n=5\n# comment\n\nformat=tuples\n")
        code, out, _ = run_cli(capsys, "recommend", "--seed", "Northern Lights", "--config", str(cfg))
        assert code == 0
        parsed = ast.literal_eval(out.strip())
        assert len(parsed) == 5

    def test_cli_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("n=5\n")
        code, out, _ = run_cli(
            capsys, "recommend", "--seed", "Northern Lights", "--config", str(cfg), "--n", "3"
        )
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_boolean_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("no_critic=true\n")
        _, out, _ = run_cli(capsys, "recommend", "--seed", "Northern Lights", "--config", str(cfg))
        for line in out.splitlines():
            assert line.split("\t")[3] == "0.0000000"

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("just a line without equals\n")
        code, _, err = run_cli(capsys, "recommend", "--seed", "X", "--config", str(cfg))
        assert code == 1
        assert "key=value" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "recommend", "--seed", "X", "--config", "/nope.cfg")
        assert code == 1
        assert "config" in err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "recommend")[0] == 2

    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 2

    @pytest.mark.parametrize("argv", [
        ("load-check", "--threads", "2"),
        ("recommend", "--seed", "Northern Lights", "--k", "5"),
    ])
    def test_removed_flags_are_unknown(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 2

    @pytest.mark.parametrize("argv", [
        ("recommend", "--seed", "Northern Lights", "--n", "-1"),
        ("recommend", "--seed", "Northern Lights", "--n", "0"),
        ("recommend", "--seed", "Northern Lights", "--pool", "0"),
        ("evaluate", "--k", "-2"),
        ("optimize-weights", "--method", "ga", "--k", "0", "--out", "unused.txt"),
        ("cold-start", "--n", "-2"),
    ])
    def test_non_positive_counts_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be >= 1" in err

    @pytest.mark.parametrize("argv", [
        ("evaluate", "--holdout", "1.5"),
        ("optimize-weights", "--method", "ga", "--holdout", "0", "--out", "unused.txt"),
    ])
    def test_holdout_outside_open_unit_interval_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "argument --holdout: must be in (0, 1)" in err

    @pytest.mark.parametrize("method, flag", [
        ("ga", "--population"), ("ga", "--generations"), ("pso", "--particles"), ("pso", "--iterations"),
    ])
    def test_non_positive_optimizer_counts_are_usage_errors(self, capsys, method, flag):
        code, out, err = run_cli(capsys, "optimize-weights", "--method", method, flag, "0", "--out", "unused.txt")
        assert code == 2
        assert out == ""
        assert f"argument {flag}: must be >= 1" in err

    @pytest.mark.parametrize("population", ["1", "2"])
    def test_ga_population_below_three_is_usage_error(self, capsys, population):
        code, out, err = run_cli(
            capsys, "optimize-weights", "--method", "ga", "--population", population, "--out", "unused.txt"
        )
        assert (code, out) == (2, "")
        assert err == f"usage error: --population must be >= 3 for ga, got {population}\n"

    def test_missing_weights_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        code, _, err = run_cli(capsys, "recommend", "--seed", "Northern Lights", "--weights", str(missing))
        assert code == 1
        assert err.startswith("error: ") and str(missing) in err
        assert "Traceback" not in err

    def test_unwritable_out(self, capsys, tmp_path):
        out_path = tmp_path / "nodir" / "w.txt"
        code, _, err = run_cli(
            capsys, "optimize-weights", "--method", "pso", "--particles", "2", "--iterations", "1",
            "--out", str(out_path),
        )
        assert code == 1
        assert err.startswith("error: ") and str(out_path) in err
        assert "Traceback" not in err


def _readme_cli_examples() -> list[list[str]]:
    """The `cinefuse ...` lines of the README's CLI `sh` block, as argv lists."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("cinefuse ")
    ]


class TestReadmeExamples:
    def test_every_example_exits_zero(self, capsys, tmp_path):
        examples = _readme_cli_examples()
        assert len(examples) >= 8
        for argv in examples:
            if "--out" in argv:
                i = argv.index("--out") + 1
                argv[i] = str(tmp_path / argv[i])
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, (argv, err)


class TestReadmeQuickstart:
    def test_library_quickstart_runs(self, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library quickstart", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.startswith("Prediction(value=")
