import pytest

from fairqr.corpus import GroupSchema, ingest_corpus
from fairqr.index import build_index
from fairqr.synthetic import SkewSpec, generate

GENDER = GroupSchema("gender", ("male", "female", "Unknown"))


@pytest.fixture
def gender_schema():
    return GENDER


@pytest.fixture
def tiny_store():
    records = [
        {"id": "d1", "text": "solar power systems", "groups": {"gender": ["male"]}},
        {"id": "d2", "text": "solar panels and power", "groups": {"gender": ["female"]}},
        {"id": "d3", "text": "wind turbines", "groups": {}},
    ]
    return ingest_corpus(records, [GENDER])


@pytest.fixture(scope="session")
def synth():
    """The seed-fixed synthetic collection used across the suite."""
    spec = SkewSpec(seed=42, doc_count=200, topic_count=10, skew=0.8)
    records, queries, qrels_rows, lexicon = generate(spec)
    store = ingest_corpus(records, [GroupSchema(spec.category, spec.subgroups)])
    index = build_index(store)
    qrels = {}
    for query_id, doc_id, grade in qrels_rows:
        qrels.setdefault(query_id, {})[doc_id] = grade
    return {
        "spec": spec,
        "records": records,
        "queries": queries,
        "qrels": qrels,
        "lexicon": lexicon,
        "store": store,
        "index": index,
    }
