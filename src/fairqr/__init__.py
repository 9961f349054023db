"""Fairness-aware retrieval via recursive query refinement.

BM25 retrieval, exposure-based group-fairness metrics (KL/JS divergence,
AWRF), a divergence-controlled query-refinement loop with pluggable
refiners, relevance re-ranking, an MMR baseline, and a TREC-style
evaluation harness.
"""

from .corpus import (
    CorpusStore,
    GroupSchema,
    UNKNOWN,
    ingest_corpus,
    load_corpus,
    tokenize,
)
from .evaluation import (
    RunReport,
    compare_runs,
    composite,
    evaluate_run,
    ndcg_at_k,
)
from .fairness import (
    ExposureDistribution,
    FairnessTarget,
    awrf,
    exposure,
    js_divergence,
    kl_divergence,
    most_underrepresented,
    target_from_qrels,
)
from .index import (
    InvertedIndex,
    RankedList,
    build_index,
    load_index,
    retrieve,
    save_index,
)
from .refine import (
    LLMRefiner,
    LexiconRefiner,
    RefinementTrace,
    RefinerConfig,
    fair_qr,
    parse_refinement,
    render_prompt,
)
from .rerank import mmr_rerank, semantic_rerank
from .synthetic import SkewSpec, generate
from .trec import parse_qrels, parse_run, write_qrels, write_run

__version__ = "0.1.0"

__all__ = [
    "CorpusStore", "GroupSchema", "UNKNOWN", "ingest_corpus", "load_corpus",
    "tokenize",
    "RunReport", "compare_runs", "composite", "evaluate_run", "ndcg_at_k",
    "ExposureDistribution", "FairnessTarget", "awrf", "exposure",
    "js_divergence", "kl_divergence", "most_underrepresented",
    "target_from_qrels",
    "InvertedIndex", "RankedList", "build_index", "load_index", "retrieve",
    "save_index",
    "LLMRefiner", "LexiconRefiner", "RefinementTrace", "RefinerConfig",
    "fair_qr", "parse_refinement", "render_prompt",
    "mmr_rerank", "semantic_rerank",
    "SkewSpec", "generate",
    "parse_qrels", "parse_run", "write_qrels", "write_run",
]
