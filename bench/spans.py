"""Spans recorded from outside the program, around the calls into each layer.

A span is one call of one layer function:

    {"id": 7, "parent": 3, "rid": "op-2", "name": "cf.similarity_matrix",
     "start_ns": ..., "end_ns": ..., "attrs": {"pairs": 44850}}

`id` numbers spans in the order they started, `parent` is the id of the
span that was open when this one started (null at the top), and `rid`
names the request or set-up round the span belongs to. `start_ns` and
`end_ns` read `time.perf_counter_ns`. `attrs` carries sizes and counters
measured at the call (pairs compared, pool size, fallback). An in-program
tracer can emit the same records, so the harness reads one format.

Callers import layer functions by name (`from .cf import similarity_matrix`),
so a function is wrapped in every `cinefuse` module that holds it, not only
where it is defined.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    rid: str | None
    name: str
    start_ns: int
    end_ns: int
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _pair_attrs(args, kwargs, result):
    n = len(result.ids)
    return {"pairs": n * (n - 1) // 2}


def _predict_attrs(args, kwargs, result):
    return {"fallback": bool(result.fallback)}


def _hybrid_attrs(args, kwargs, result):
    return {"pool_size": int(result.pool_size)}


# (defining module, attribute path, span name, attrs from (args, kwargs, result))
TARGETS = (
    ("cinefuse.catalog", "load_catalog", "catalog.load_catalog", None),
    ("cinefuse.catalog", "train_test_split", "catalog.train_test_split", None),
    ("cinefuse.cf", "build_rating_matrix", "cf.build_rating_matrix", None),
    ("cinefuse.cf", "similarity_matrix", "cf.similarity_matrix", _pair_attrs),
    ("cinefuse.cf", "recommend_cf", "cf.recommend_cf", None),
    ("cinefuse.cf", "predict_rating", "cf.predict_rating", _predict_attrs),
    ("cinefuse.cf", "augment_implicit", "cf.augment_implicit", None),
    ("cinefuse.textpipe", "fit_tfidf", "textpipe.fit_tfidf", None),
    ("cinefuse.textpipe", "preprocess", "textpipe.preprocess", None),
    ("cinefuse.textpipe", "TfidfProvider.embed", "textpipe.embed", None),
    ("cinefuse.textpipe", "cosine_similarity", "textpipe.cosine_similarity", None),
    ("cinefuse.critic", "consensus_map", "critic.consensus_map", None),
    ("cinefuse.ranker", "recommend_hybrid", "ranker.recommend_hybrid", _hybrid_attrs),
    ("cinefuse.optimize", "fuzzy_similarity_matrix", "optimize.fuzzy_similarity_matrix", _pair_attrs),
    ("cinefuse.optimize", "build_fuzzy_profiles", "optimize.build_fuzzy_profiles", None),
    ("cinefuse.optimize", "ga_optimize", "optimize.ga_optimize", None),
    ("cinefuse.optimize", "pso_optimize", "optimize.pso_optimize", None),
    ("cinefuse.evaluate", "evaluate_variants", "evaluate.evaluate_variants", None),
)
# factories whose returned callable is the optimizers' objective
OBJECTIVE_FACTORIES = (
    ("cinefuse.optimize", "cf_mae_objective"),
    ("cinefuse.optimize", "fuzzy_mae_objective"),
)


class Tracer:
    """Keeps spans in memory; `install` wraps the layer functions, `remove` undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rid: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            span = Span(sid, tracer._stack[-1] if tracer._stack else None, tracer.rid, name, 0, 0)
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                tracer._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def _patch_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "cinefuse" or modname.startswith("cinefuse.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, replacement)

    def install(self) -> None:
        for modname, path, name, attrs in TARGETS:
            owner = sys.modules.get(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # the layer no longer exists; its metrics read 0
            wrapped = self.wrap(name, original, attrs)
            if outer:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                self._patch_everywhere(original, wrapped)
        for modname, attr in OBJECTIVE_FACTORIES:
            factory = getattr(sys.modules.get(modname), attr, None)
            if factory is None:
                continue

            def traced_factory(*args, _factory=factory, **kwargs):
                return self.wrap("optimize.objective", _factory(*args, **kwargs))

            self._patch_everywhere(factory, functools.wraps(factory)(traced_factory))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), separators=(",", ":")) + "\n")


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time covered by its direct children."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.seconds
    return own
