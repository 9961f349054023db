"""In-memory span tracer that wraps the public functions of every fairqr module.

`install(tracer)` replaces each public function and method of the fairqr
modules with a timing wrapper, at every module attribute that refers to it,
so a call is seen whichever module looks the name up (`fairqr.refine.retrieve`
and `fairqr.index.retrieve` are the same wrapper). Nothing in `src/` changes.

Each call becomes a frame on a stack. When a frame ends, its self time is its
duration minus the durations of its direct children, and its layer time is
its self time plus the layer time of children in the same module (so
`corpus.load_corpus` includes `ingest_corpus` and `tokenize`, and
`index.retrieve` excludes `corpus.tokenize`). Functions called thousands of
times per query (LEAF) are only aggregated; every other call is kept as a
span (name, start, end, parent, query id, phase) and written out at the end.
"""
from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from time import perf_counter

FAIRQR_MODULES = (
    "corpus", "index", "fairness", "refine", "rerank", "llm",
    "evaluation", "trec", "synthetic", "cli",
)

# Called per document or per candidate pair: aggregated, never kept as spans.
LEAF = frozenset({
    "corpus.tokenize", "corpus.group_vector", "corpus.CorpusStore.document",
    "corpus.CorpusStore.schema", "corpus.GroupSchema.index",
    "index.bm25_score", "index.make_ranked_list", "index.RankedList.doc_ids",
    "rerank.doc_similarity", "fairness.kl_divergence",
    "fairness.js_divergence", "fairness.most_underrepresented",
    "trec.Qrels.add", "evaluation.composite",
})


class Tracer:
    """Span stack plus per-(phase, name) aggregates for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.agg: dict[tuple[str, str], list[float]] = {}
        self.durations: dict[tuple[str, str], list[float]] = {}
        self.stack: list[list] = []
        self.phase = "setup"
        self.query_id = ""
        self._next_id = 1

    def enter(self, name: str, layer: str) -> list:
        frame = [name, layer, perf_counter(), 0.0, 0.0, self._next_id]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, keep: bool) -> None:
        end = perf_counter()
        name, layer, start, child, same, span_id = frame
        self.stack.pop()
        duration = end - start
        own = duration - child
        in_layer = own + same
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
            if parent[1] == layer:
                parent[4] += in_layer
        self.add(name, own, in_layer)
        if keep:
            self.durations.setdefault((self.phase, name), []).append(duration)
            self.spans.append((span_id, name, start, end,
                               parent[5] if parent else 0,
                               self.query_id, self.phase, own))

    def add(self, name: str, own: float, in_layer: float, calls: int = 1):
        bucket = self.agg.setdefault((self.phase, name), [0, 0.0, 0.0])
        bucket[0] += calls
        bucket[1] += own
        bucket[2] += in_layer

    def span(self, name: str, layer: str = "bench"):
        return _Span(self, name, layer)

    def dump(self, path, extra: dict | None = None) -> None:
        payload = dict(extra or {})
        payload.update({
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "query_id": s[5], "phase": s[6],
                 "self_s": s[7]}
                for s in self.spans
            ],
            "aggregates": [
                {"phase": p, "name": n, "calls": b[0], "self_s": b[1],
                 "layer_s": b[2]}
                for (p, n), b in sorted(self.agg.items())
            ],
        })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class _Span:
    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        self.frame = self.tracer.enter(self.name, self.layer)
        return self

    def __exit__(self, *exc):
        self.tracer.leave(self.frame, keep=True)
        return False


def _wrap(tracer: Tracer, name: str, fn):
    layer = name.split(".", 1)[0]
    keep = name not in LEAF

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leave(frame, keep)

    return traced


_installed: list[tuple[object, str, object]] = []


def install(tracer: Tracer) -> int:
    """Wrap every public fairqr function and method; returns how many.

    `uninstall()` puts the original functions back.
    """
    uninstall()
    modules = {m: sys.modules.get(f"fairqr.{m}") for m in FAIRQR_MODULES}
    modules = {m: mod for m, mod in modules.items() if mod is not None}
    replaced: dict[int, object] = {}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[id(obj)] = _wrap(tracer, f"{short}.{attr}", obj)
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if meth.startswith("_") or not inspect.isfunction(fn):
                        continue
                    _installed.append((obj, meth, fn))
                    setattr(obj, meth, _wrap(tracer, f"{short}.{attr}.{meth}", fn))
    # Rebind every module-level name that refers to a wrapped function,
    # including the copies `from .x import f` made in other modules.
    for mod in list(modules.values()) + [sys.modules.get("fairqr")]:
        if mod is None:
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                _installed.append((mod, attr, obj))
                setattr(mod, attr, replaced[id(obj)])
    return len(replaced)


def uninstall() -> None:
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)


# per-layer metric -> (span names, how): "layer" is the time spent in the
# span's own module under that call, "self" the span minus all its children,
# "calls" the number of calls.
LAYER_METRICS = {
    "corpus.load_s": (("corpus.load_corpus",), "layer"),
    "corpus.tokenize_calls": (("corpus.tokenize",), "calls"),
    "index.build_s": (("index.build_index",), "layer"),
    "index.save_s": (("index.save_index",), "layer"),
    "index.load_s": (("index.load_index",), "layer"),
    "index.retrieve_s": (("index.retrieve",), "layer"),
    "index.retrieve_calls": (("index.retrieve",), "calls"),
    "index.bm25_score_calls": (("index.bm25_score",), "calls"),
    "fairness.exposure_s": (("fairness.exposure",), "layer"),
    "fairness.exposure_calls": (("fairness.exposure",), "calls"),
    "fairness.target_s": (("fairness.target_from_qrels",), "layer"),
    "refine.fair_qr_self_s": (("refine.fair_qr",), "self"),
    "refine.refiner_s": (("refine.LexiconRefiner.refine",
                          "refine.LLMRefiner.refine"), "layer"),
    "rerank.semantic_rerank_s": (("rerank.semantic_rerank",), "layer"),
    "rerank.mmr_rerank_s": (("rerank.mmr_rerank",), "layer"),
    "rerank.doc_similarity_calls": (("rerank.doc_similarity",), "calls"),
    "llm.complete_calls": (("llm.ChatCompletionClient.complete",), "calls"),
    "llm.complete_s": (("llm.ChatCompletionClient.complete",), "layer"),
    "llm.stub_s": (("llm.stub",), "self"),
    "evaluation.evaluate_run_s": (("evaluation.evaluate_run",), "layer"),
    "trec.judgments_calls": (("trec.Qrels.judgments",), "calls"),
    "trec.judgments_s": (("trec.Qrels.judgments",), "layer"),
    "trec.parse_qrels_s": (("trec.parse_qrels",), "layer"),
    "trec.parse_run_s": (("trec.parse_run",), "layer"),
    "trec.write_run_s": (("trec.write_run",), "layer"),
    "cli.import_s": (("cli.import",), "self"),
    "cli.startup_s": (("proc.command",), "self"),
}
# Set-up tokenises every document; this count is of the timed phase only.
TIMED_ONLY = {"corpus.tokenize_calls"}
DERIVED_UNITS = {
    "index.retrieve_p50_ms": "ms", "refine.iterations_per_query": "count",
    "refine.accepted_per_query": "count", "refine.repeat_retrieves": "count",
    "bench.self_s": "s", "trace.overhead_pct": "%",
    "cli.run_fairqr_s": "s", "cli.run_bm25_s": "s", "cli.eval_s": "s",
}


def layer_unit(name: str) -> str:
    if name in DERIVED_UNITS:
        return DERIVED_UNITS[name]
    return "count" if name.endswith("_calls") else "s"


def layer_metrics(tracer, n_setups: int, n_ops: int, wall_s: float,
                  extra: dict) -> dict:
    """Per-layer values: per set-up plus per timed operation.

    `extra` supplies the derived metrics the workload computed itself.
    """
    values = {}
    for metric, (names, how) in LAYER_METRICS.items():
        column = {"calls": 0, "self": 1, "layer": 2}[how]
        total = 0.0
        for phase, per in (("setup", n_setups), ("query", n_ops)):
            if phase == "setup" and metric in TIMED_ONLY:
                continue
            s = sum(tracer.agg.get((phase, n), (0, 0.0, 0.0))[column] for n in names)
            total += s / per if per else 0.0
        values[metric] = total
    durations = tracer.durations.get(("query", "index.retrieve"), [])
    values["index.retrieve_p50_ms"] = (
        1000.0 * statistics.median(durations) if durations else 0.0)
    inside = sum(b[1] for (phase, name), b in tracer.agg.items()
                 if phase == "query" and not name.startswith("bench."))
    values["bench.self_s"] = (wall_s - inside) / n_ops if n_ops else 0.0
    for name in DERIVED_UNITS:
        values.setdefault(name, extra.get(name, 0.0))
    return values
