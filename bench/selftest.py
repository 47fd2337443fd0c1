"""Tests of the benchmark itself, on tiny catalogs.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=run.ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120, check=False)


@pytest.fixture(scope="module")
def cf():
    return run.import_program()


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, section):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(info["shape"]) == {"users", "items", "ratings", "density", "vocabulary", "reviews", "implicit_events"}
    assert set(info["env"]) == {"python", "numpy", "nproc", "blas_threads"}
    assert info["op_ms"]["p50"] > 0 and info["throughput"]["value"] > 0


def test_generator_is_deterministic(tmp_path):
    shape = run.TINY_SHAPES["evaluate"]
    a = run.gen.generate(tmp_path / "a", 5, shape)
    b = run.gen.generate(tmp_path / "b", 5, shape)
    c = run.gen.generate(tmp_path / "c", 6, shape)
    for name in ("movies.csv", "ratings.csv", "reviews.csv", "implicit.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "ratings.csv").read_bytes() != (tmp_path / "c" / "ratings.csv").read_bytes()
    assert a.shape == b.shape and a.popular_titles == b.popular_titles


def test_generated_catalog_loads_with_every_user_and_item_rated(tmp_path, cf):
    shape = run.TINY_SHAPES["evaluate"]
    files = run.gen.generate(tmp_path, 2, shape)
    catalog = cf.load_catalog(files.movies, files.ratings, files.reviews, implicit_path=files.implicit)
    matrix = cf.build_rating_matrix(catalog)
    assert matrix.values.shape == (shape.users, shape.items)
    assert len(catalog.ratings) == shape.ratings
    assert len(catalog.implicit) == shape.implicit_events


def _serve_result(cf, tmp_path):
    files = run.gen.generate(tmp_path, 1, run.TINY_SHAPES["serve"])
    catalog = cf.load_catalog(files.movies, files.ratings, files.reviews)
    title = files.popular_titles[0]
    return title, cf.recommend_hybrid(catalog, title, cf.PipelineConfig())


def _shift(result, index, fused=0.0, cosine=0.0):
    items = list(result.items)
    r = items[index]
    items[index] = dataclasses.replace(r, fused_score=r.fused_score + fused, content_cosine=r.content_cosine + cosine)
    return dataclasses.replace(result, items=tuple(items))


def test_perturbed_serve_output_is_caught(cf, tmp_path):
    title, result = _serve_result(cf, tmp_path)
    n = cf.PipelineConfig().n
    ref = checks.serve_summary(result)
    assert checks.check_serve(result, title, n, ref) == []
    # fused no longer equals cosine + bonus
    assert checks.check_serve(_shift(result, 3, fused=1e-6), title, n, None)
    # consistent shift: only the recorded reference can see it
    consistent = _shift(result, 3, fused=1e-6, cosine=1e-6)
    assert checks.check_serve(consistent, title, n, None) == []
    assert checks.check_serve(consistent, title, n, ref)
    swapped = dataclasses.replace(result, items=(result.items[1], result.items[0]) + result.items[2:])
    assert checks.check_serve(swapped, title, n, None)


def test_serve_title_without_reference_fails_on_a_reference_seed(cf, tmp_path):
    title, result = _serve_result(cf, tmp_path)
    serve = run.Serve(cf, None, 1)
    assert serve.check((title, result), None)[1] == []
    assert serve.check((title, result), {title: checks.serve_summary(result)})[1] == []
    assert serve.check((title, result), {title + " Redux": checks.serve_summary(result)})[1]


def test_stale_reference_raises(monkeypatch, tmp_path):
    monkeypatch.setattr(checks, "REFERENCE_DIR", tmp_path)
    shape = {"users": 20, "items": 40}
    assert checks.load_reference("tune", 4, shape) is None
    (tmp_path / "tune").mkdir()
    checks.reference_path("tune", 4).write_text(json.dumps({"shape": shape, "outputs": {"ga": 0.5}}))
    assert checks.load_reference("tune", 4, shape) == {"ga": 0.5}
    with pytest.raises(ValueError, match="re-record"):
        checks.load_reference("tune", 4, dict(shape, items=41))


def test_perturbed_outputs_count_as_failed_operations(cf, monkeypatch):
    original = cf.recommend_hybrid

    def perturbed(*args, **kwargs):
        return _shift(original(*args, **kwargs), 0, fused=1e-6)

    monkeypatch.setattr(cf, "recommend_hybrid", perturbed)
    result = run.run_workload(cf, "serve", 1, 0.2, trace=False, tiny=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_perturbed_evaluate_and_tune_outputs_are_caught():
    report = [
        SimpleNamespace(variant="plain", mae=0.7, coverage=0.9),
        SimpleNamespace(variant="implicit_augmented", mae=0.72, coverage=0.95),
    ]
    variants = ("plain", "implicit_augmented")
    ref = checks.evaluate_summary(report)
    assert checks.check_evaluate(report, variants, ref) == []
    report[1].mae += 1e-6
    assert checks.check_evaluate(report, variants, ref)
    report[0].coverage = 1.5
    assert checks.check_evaluate(report, variants, None)

    good = {"best": 0.5, "trace": [0.6, 0.5], "weights": (1.0, 0.2), "values": [0.7, 0.6, 0.5, 0.8], "expected": 4, "w_max": 2.0}
    assert checks.check_tune({"ga": good}, {"ga": 0.5}) == []
    assert checks.check_tune({"ga": good}, {"ga": 0.5 + 1e-6})
    assert checks.check_tune({"ga": dict(good, trace=[0.5, 0.6])}, None)
    assert checks.check_tune({"ga": dict(good, values=[0.4, 0.6, 0.5, 0.8])}, None)


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10000)))
    outer = tracer.wrap("outer", lambda: [inner(), inner()])
    outer()
    by_name = {s.name: s for s in tracer.spans}
    assert [s.name for s in tracer.spans] == ["outer", "inner", "inner"]
    assert tracer.spans[1].parent == tracer.spans[2].parent == by_name["outer"].id
    own = spans.self_seconds(tracer.spans)
    children = sum(s.seconds for s in tracer.spans[1:])
    assert own[0] == pytest.approx(by_name["outer"].seconds - children)


def test_tracer_wraps_where_callers_look_up_and_restores(cf):
    import cinefuse.evaluate
    import cinefuse.ranker

    before = (cinefuse.ranker.similarity_matrix, cinefuse.evaluate.predict_rating, cf.TfidfProvider.embed)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cinefuse.ranker.similarity_matrix is not before[0]
        assert cinefuse.evaluate.predict_rating is not before[1]
        assert cf.TfidfProvider.embed is not before[2]
    finally:
        tracer.remove()
    assert (cinefuse.ranker.similarity_matrix, cinefuse.evaluate.predict_rating, cf.TfidfProvider.embed) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
