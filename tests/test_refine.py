import dataclasses
import gc
import http.client
import io
import json
import re
import sys
import threading
import time
import tracemalloc
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.error import HTTPError, URLError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairqr.corpus import GroupSchema, ingest_corpus
from fairqr.errors import (
    IndexBuildError,
    LexiconError,
    ParseError,
    RefinerError,
    TemplateError,
    UsageError,
)
from fairqr.fairness import (
    ExposureDistribution,
    ExposureMeter,
    FairnessTarget,
    exposure,
    kl_divergence,
    target_from_qrels,
)
from fairqr.index import build_index, retrieve, retrieve_terms
from fairqr.llm import ChatCompletionClient
from fairqr.refine import (
    DEFAULT_PROMPT_TEMPLATE,
    LLMRefiner,
    LexiconRefiner,
    Refinement,
    RefinerConfig,
    fair_qr,
    parse_refinement,
    render_prompt,
)

SUBS = ("male", "female", "Unknown")
WORDS = ("solar", "power", "wind", "grid", "women", "men", "plant")


def make_target(probs, category="gender"):
    return FairnessTarget(
        "q1", category, ExposureDistribution(category, probs), "explicit"
    )


CURRENT = ExposureDistribution("gender", [0.7, 0.3, 0.0])
EXPOSURE = CURRENT.probabilities  # what the loop passes a refiner
TARGET = make_target([0.5, 0.5, 0.0])


class TestRenderPrompt:
    def test_subgroup_substituted_in_place(self):
        prompt = render_prompt(
            DEFAULT_PROMPT_TEMPLATE, "solar power", TARGET, CURRENT, 20,
            "female", SUBS,
        )
        assert "it's the subgroup: female" in prompt
        assert "{subgroup}" not in prompt
        assert "{Query}" not in prompt

    def test_distribution_formatting(self):
        prompt = render_prompt(
            DEFAULT_PROMPT_TEMPLATE, "q", TARGET, CURRENT, 20, "female", SUBS
        )
        assert "{male: 0.7000, female: 0.3000, Unknown: 0.0000}" in prompt
        assert "{male: 0.5000, female: 0.5000, Unknown: 0.0000}" in prompt

    def test_top_k_substituted(self):
        prompt = render_prompt(
            DEFAULT_PROMPT_TEMPLATE, "q", TARGET, CURRENT, 37, "female", SUBS
        )
        assert "first 37 documents" in prompt

    def test_missing_placeholder_rejected(self):
        with pytest.raises(TemplateError):
            render_prompt("no placeholders", "q", TARGET, CURRENT, 20, "f", SUBS)


class TestParseRefinement:
    def test_extracts_after_marker(self):
        response = "reasoning...\nREFINED_QUERY: solar power women engineers"
        assert parse_refinement(response, "fallback") == "solar power women engineers"

    def test_missing_marker_is_error(self):
        with pytest.raises(ParseError):
            parse_refinement("no marker here", "fallback")

    def test_nothing_after_the_marker_is_error(self):
        with pytest.raises(ParseError, match="empty refined query"):
            parse_refinement("thinking...\nREFINED_QUERY:  \n", "fallback")

    def test_last_marker_wins(self):
        response = "REFINED_QUERY: first\nmore\nREFINED_QUERY: second"
        assert parse_refinement(response, "f") == "second"


class TestLexiconRefiner:
    def test_appends_keyword(self):
        refiner = LexiconRefiner({"female": ["women"]})
        assert refiner.refine(
            "solar power", TARGET, EXPOSURE, 20, "female"
        ).query == "solar power women"

    def test_unchanged_when_all_present(self):
        refiner = LexiconRefiner({"female": ["women"]})
        assert refiner.refine(
            "women rights", TARGET, EXPOSURE, 20, "female"
        ).query == "women rights"

    def test_skips_present_keywords(self):
        refiner = LexiconRefiner({"female": ["women", "her"]})
        assert refiner.refine(
            "women x", TARGET, EXPOSURE, 20, "female"
        ).query == "women x her"

    def test_missing_subgroup_is_error(self):
        refiner = LexiconRefiner({})
        with pytest.raises(LexiconError):
            refiner.refine("q", TARGET, EXPOSURE, 20, "female")


class TestLLMRefiner:
    def _client(self, transport):
        return ChatCompletionClient("http://stub", "test-model", transport=transport)

    @staticmethod
    def _response(text):
        return {"choices": [{"message": {"content": text}}]}

    def test_stubbed_transport_roundtrip(self):
        seen = {}

        def transport(url, headers, payload):
            seen["payload"] = payload
            return self._response("ok\nREFINED_QUERY: solar power women")

        refiner = LLMRefiner(self._client(transport), SUBS, temperature=0.3)
        refined = refiner.refine("solar power", TARGET, EXPOSURE, 20, "female")
        assert refined.query == "solar power women"
        assert seen["payload"]["temperature"] == 0.3
        prompt = seen["payload"]["messages"][0]["content"]
        assert "it's the subgroup: female" in prompt
        assert ("distribution of: {male: 0.7000, female: 0.3000, "
                "Unknown: 0.0000}") in prompt
        assert refined.raw_response == "ok\nREFINED_QUERY: solar power women"

    def test_retry_bound(self):
        calls = []

        def transport(url, headers, payload):
            calls.append(1)
            raise ConnectionError("down")

        refiner = LLMRefiner(self._client(transport), SUBS)
        with pytest.raises(RefinerError):
            refiner.refine("q", TARGET, EXPOSURE, 20, "female")
        assert len(calls) == 3  # 1 attempt + 2 retries

    @pytest.mark.parametrize("error", [
        "HTTPError", "URLError", "Timeout", "ConnectionError",
        "IncompleteRead", "JSONDecodeError", "UnicodeDecodeError"])
    def test_requests_errors_are_retried(self, monkeypatch, error):
        # each failure the stdlib transport can meet, raised by urlopen or
        # met reading its body
        bodies = {"JSONDecodeError": b"<html>", "UnicodeDecodeError": b"\xff"}
        raised = {
            "HTTPError": HTTPError("http://stub", 500, "Server Error", {}, None),
            "URLError": URLError("down"),
            "Timeout": TimeoutError("timed out"),
            "ConnectionError": ConnectionResetError("reset"),
            "IncompleteRead": http.client.IncompleteRead(b"{", 10),
        }
        calls = []

        def urlopen(request, timeout):
            calls.append(1)
            if error in bodies:
                return io.BytesIO(bodies[error])
            raise raised[error]

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        refiner = LLMRefiner(ChatCompletionClient("http://stub", "m"), SUBS)
        with pytest.raises(RefinerError, match="after 3 attempts"):
            refiner.refine("q", TARGET, EXPOSURE, 20, "female")
        assert len(calls) == 3

    @pytest.mark.parametrize("code, attempts", [
        (400, 1), (404, 1), (429, 3), (500, 3)])
    def test_client_error_is_not_retried(self, code, attempts):
        calls = []

        def transport(url, headers, payload):
            calls.append(1)
            raise HTTPError(url, code, "status", {}, None)

        with pytest.raises(RefinerError, match=f"HTTP Error {code}"):
            self._client(transport).complete("q", 0.0)
        assert len(calls) == attempts

    def test_markerless_response_is_parse_error(self):
        def transport(url, headers, payload):
            return self._response("no marker at all")

        refiner = LLMRefiner(self._client(transport), SUBS)
        with pytest.raises(ParseError):
            refiner.refine("q", TARGET, EXPOSURE, 20, "female")


def small_collection():
    """6 docs, one topic; male docs dominate query matches until the
    'women' keyword is appended."""
    records = [
        {"id": "m1", "text": "solar power plant", "groups": {"gender": ["male"]}},
        {"id": "m2", "text": "solar power grid", "groups": {"gender": ["male"]}},
        {"id": "m3", "text": "solar power cell", "groups": {"gender": ["male"]}},
        {"id": "f1", "text": "solar women energy advocate coalition power",
         "groups": {"gender": ["female"]}},
        {"id": "f2", "text": "women energy network", "groups": {"gender": ["female"]}},
        {"id": "x1", "text": "wind farm", "groups": {}},
    ]
    store = ingest_corpus(records, [GroupSchema("gender", SUBS)])
    return store, build_index(store)


@contextmanager
def chat_server(status, reply, seen):
    """A one-thread HTTP server on 127.0.0.1 answering every POST with
    `status` and the JSON `reply`; records each request in `seen`."""
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            seen.append((self.path, self.headers, self.rfile.read(length)))
            data = json.dumps(reply).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestUrllibTransport:
    @pytest.fixture(autouse=True)
    def no_proxy(self, monkeypatch):
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")

    def test_loopback_round_trip(self, monkeypatch):
        monkeypatch.setenv("FAIRQR_API_KEY", "secret-key")
        seen = []
        content = "Résumé\nREFINED_QUERY: solar women"
        reply = {"choices": [{"message": {"role": "assistant",
                                          "content": content}}]}
        with chat_server(200, reply, seen) as url:
            client = ChatCompletionClient(url, "test-model")
            assert client.complete("hello", 0.25) == content
        [(path, headers, body)] = seen
        assert path == "/v1/chat/completions"
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == "Bearer secret-key"
        assert json.loads(body) == {
            "model": "test-model",
            "messages": [{"role": "user", "content": "hello"}],
            "temperature": 0.25,
        }

    def test_loopback_client_error_is_one_call(self, monkeypatch):
        monkeypatch.delenv("FAIRQR_API_KEY", raising=False)
        seen = []
        with chat_server(404, {"error": "no such model"}, seen) as url:
            with pytest.raises(RefinerError, match="after 1 attempt: HTTP"):
                ChatCompletionClient(url, "m").complete("hello", 0.0)
        assert len(seen) == 1
        assert "Authorization" not in seen[0][1]


class TestFairQRLoop:
    def test_target_met_at_iteration_zero(self):
        store, index = small_collection()
        config = RefinerConfig(category="gender", pool_size=3, k=3)
        baseline = retrieve(index, "solar power", 3, "q1")
        eps = exposure(baseline, store, "gender", 3)
        target = make_target(eps)
        ranked, trace = fair_qr(
            index, store, "solar power", target, config,
            LexiconRefiner({"female": ["women"]}), "q1",
        )
        assert trace.terminal_reason == "target-met"
        assert len(trace.records) == 1
        assert ranked == baseline

    def test_config_of_another_category_is_rejected(self):
        store, index = small_collection()
        config = RefinerConfig(category="geography", pool_size=3, k=3)
        with pytest.raises(UsageError, match="'geography' is not the target's"):
            fair_qr(index, store, "solar power", TARGET, config,
                    LexiconRefiner({"female": ["women"]}), "q1")

    def test_identity_refiner_terminates_no_decrease(self):
        store, index = small_collection()
        config = RefinerConfig(category="gender", pool_size=3, k=3)

        class Identity:
            def refine(self, query, target, current, top_k, subgroup):
                return Refinement(query)

        ranked, trace = fair_qr(
            index, store, "solar power", TARGET, config, Identity(), "q1"
        )
        assert trace.terminal_reason == "no-decrease"
        # one rejected refinement attempt recorded after iteration 0
        assert len(trace.records) == 2
        assert trace.records[1].accepted is False
        assert trace.records[1].divergence == trace.records[0].divergence

    @pytest.mark.parametrize("refined, calls", [
        ("solar power", 1),
        ("solar power solar", 1),  # a repeated term: the same distinct terms
        ("power solar", 2),  # the same terms, summed in another order
        ("solar power wind", 2),
    ], ids=["same", "repeated-term", "reordered", "new-term"])
    def test_query_of_measured_terms_is_not_measured_again(
            self, monkeypatch, refined, calls):
        store, index = small_collection()
        config = RefinerConfig(category="gender", pool_size=3, k=3)
        retrieved = []

        def counting_retrieve(index, terms, *args):
            retrieved.append(terms)
            return retrieve_terms(index, terms, *args)

        class Fixed:
            def refine(self, query, target, current, top_k, subgroup):
                return Refinement(refined)

        monkeypatch.setattr("fairqr.refine.retrieve_terms", counting_retrieve)
        ranked, trace = fair_qr(
            index, store, "solar power", TARGET, config, Fixed(), "q1"
        )
        assert len(retrieved) == calls
        assert trace.terminal_reason == "no-decrease"
        assert not trace.records[-1].accepted
        for record in trace.records:
            fresh = exposure(retrieve(index, record.query, 3, "q1"), store,
                             "gender", 3)
            assert record.exposure == tuple(fresh.tolist())
            assert record.divergence == kl_divergence(
                fresh, TARGET.target.probabilities)
        best = [r for r in trace.records if r.accepted][-1]
        assert ranked == retrieve(index, best.query, 3, "q1")

    def test_trace_dict_holds_every_record_field(self):
        store, index = small_collection()
        config = RefinerConfig(category="gender", pool_size=3, k=3)
        _, trace = fair_qr(index, store, "solar power", TARGET, config,
                           LexiconRefiner({"female": ["women"]}), "q1")
        assert trace.to_dict()["iterations"] == [
            {**dataclasses.asdict(r), "exposure": list(r.exposure)}
            for r in trace.records]

    def test_kept_result_shares_the_remeasured_exposure(self, synth):
        # A run keeps every query's result. The third iteration re-measures
        # the accepted query, so its record reuses that record's exposure
        # tuple. With a per-instance dict on the trace and a fresh tuple a
        # kept result held about 1.64 KB, now 1.41 KB. Collecting empties
        # the free lists, so only live objects are counted.
        store, index = synth["store"], synth["index"]
        target = make_target([0.2, 0.8, 0.0])
        config = RefinerConfig(category="gender", pool_size=20, k=20)
        refiner = LexiconRefiner(synth["lexicon"])

        def run():
            return fair_qr(index, store, "topic00", target, config, refiner,
                           "q00")

        run()
        kept = []
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(100):
                kept.append(run())
            gc.collect()
            per_result = (tracemalloc.get_traced_memory()[0] - before) / 100
        finally:
            tracemalloc.stop()
        _, accepted, repeat = kept[0][1].records
        assert repeat.query == accepted.query and not repeat.accepted
        assert repeat.exposure is accepted.exposure
        assert per_result < 1500

    def test_failing_refiner_degrades_to_baseline(self):
        store, index = small_collection()
        config = RefinerConfig(category="gender", pool_size=3, k=3)

        class Broken:
            def refine(self, *args):
                raise RefinerError("transport down")

        ranked, trace = fair_qr(
            index, store, "solar power", TARGET, config, Broken(), "q1"
        )
        assert trace.terminal_reason == "error"
        assert ranked == retrieve(index, "solar power", 3, "q1")

    @pytest.mark.parametrize("query, error", [
        ("!!!", "EmptyQueryError: query '!!!' tokenized to nothing"),
        ("zebra", "DegenerateExposureError: empty ranked list for query 'q1'"),
    ], ids=["empty-query", "no-match"])
    def test_failed_first_measurement_returns_an_empty_list(self, query,
                                                             error):
        store, index = small_collection()
        config = RefinerConfig(category="gender", pool_size=3, k=3)

        class Unused:
            def refine(self, *args):
                raise AssertionError("nothing was measured to refine")

        ranked, trace = fair_qr(index, store, query, TARGET, config,
                                Unused(), "q1")
        assert (trace.terminal_reason, trace.error, trace.records) == (
            "error", error, [])
        assert ranked.query_id == "q1" and len(ranked) == 0

    def test_unparsable_reply_ends_the_loop_as_error(self):
        store, index = small_collection()
        config = RefinerConfig(category="gender", pool_size=3, k=3)

        class Markerless:
            def refine(self, *args):
                raise ParseError("no marker")

        ranked, trace = fair_qr(
            index, store, "solar power", TARGET, config, Markerless(), "q1"
        )
        assert issubclass(ParseError, RefinerError)
        assert (trace.terminal_reason, trace.error) == (
            "error", "ParseError: no marker")
        assert len(trace.records) == 1 and trace.records[0].accepted
        assert ranked == retrieve(index, "solar power", 3, "q1")

    def test_lexicon_improves_skewed_collection(self):
        store, index = small_collection()
        config = RefinerConfig(category="gender", pool_size=4, k=4)
        target = make_target([0.5, 0.5, 0.0])
        refiner = LexiconRefiner({"female": ["women"], "male": ["plant"]})
        ranked, trace = fair_qr(
            index, store, "solar power", target, config, refiner, "q1"
        )
        deltas = [r.divergence for r in trace.records if r.accepted]
        assert len(deltas) >= 2  # at least one accepted refinement
        assert all(b < a for a, b in zip(deltas, deltas[1:]))
        # every recorded exposure replays exactly
        for record in trace.records:
            replayed = retrieve(index, record.query, config.pool_size, "q1")
            eps = exposure(replayed, store, "gender", config.k)
            assert tuple(eps) == record.exposure
            assert kl_divergence(
                eps, target.target.probabilities) == record.divergence

    def test_trace_bounded_by_max_iterations(self, synth):
        store, index = synth["store"], synth["index"]
        qrels, lexicon = synth["qrels"], synth["lexicon"]
        config = RefinerConfig(category="gender", pool_size=20, k=20)
        for query_id, qtext in synth["queries"]:
            target = target_from_qrels(qrels, store, query_id, "gender")
            _, trace = fair_qr(
                index, store, qtext, target, config,
                LexiconRefiner(lexicon), query_id,
            )
            assert len(trace.records) <= config.max_iterations + 1
            assert trace.terminal_reason in (
                "no-decrease", "max-iterations", "target-met"
            )

    def test_shared_llm_refiner_traces_its_own_replies(self, synth,
                                                       monkeypatch):
        # 8 threads share one LLMRefiner; retrieval is slowed so that other
        # threads' model calls land between a call and its trace record
        store, index, lexicon = synth["store"], synth["index"], synth["lexicon"]
        asked = re.compile(r"documents of query: (.*?) are from diverse.*"
                           r"it's the subgroup: (.*?)\. Show me", re.S)

        def reply(query, subgroup):
            return f"For {query!r}:\nREFINED_QUERY: {query} {lexicon[subgroup][0]}"

        def transport(url, headers, payload):
            query, subgroup = asked.search(
                payload["messages"][0]["content"]).groups()
            return {"choices": [{"message": {"content": reply(query, subgroup)}}]}

        def slow_retrieve(*args):
            time.sleep(0.002)
            return retrieve_terms(*args)

        monkeypatch.setattr("fairqr.refine.retrieve_terms", slow_retrieve)
        refiner = LLMRefiner(
            ChatCompletionClient("http://stub", "m", transport=transport), SUBS)
        config = RefinerConfig(category="gender", pool_size=20, k=20)

        def loop(item):
            query_id, qtext = item
            target = target_from_qrels(synth["qrels"], store, query_id, "gender")
            return fair_qr(index, store, qtext, target, config, refiner,
                           query_id)[1]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as executor:
                traces = list(executor.map(loop, synth["queries"] * 4,
                                           timeout=60))
        finally:
            sys.setswitchinterval(interval)
        pairs = [(prev, record) for trace in traces
                 for prev, record in zip(trace.records, trace.records[1:])]
        assert len(pairs) >= 20
        for prev, record in pairs:
            assert record.raw_response == reply(prev.query, record.subgroup)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_records_equal_the_public_measurements(self, data):
        # multi-label and unlabeled documents, every pool from 1 to the
        # corpus size, and k below and above the retrieved length
        labels = st.sampled_from([[], ["male"], ["female"], ["male", "female"],
                                  ["female", "Unknown"]])
        texts = st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join)
        docs = data.draw(st.lists(st.tuples(texts, labels), min_size=1,
                                  max_size=12))
        store = ingest_corpus(
            [{"id": f"d{i:02d}", "text": text, "groups": {"gender": subs}}
             for i, (text, subs) in enumerate(docs)],
            [GroupSchema("gender", SUBS)])
        index = build_index(store)
        pool = data.draw(st.integers(1, len(docs)))
        config = RefinerConfig(category="gender", pool_size=pool,
                               k=data.draw(st.integers(1, pool)))
        weights = data.draw(st.lists(st.integers(0, 3), min_size=3,
                                     max_size=3).filter(any))
        target = make_target([w / sum(weights) for w in weights])
        query = " ".join(data.draw(st.lists(st.sampled_from(WORDS),
                                            min_size=1, max_size=3)))
        lexicon = {"male": ["men", "plant"], "female": ["women", "grid"],
                   "Unknown": ["wind"]}
        ranked, trace = fair_qr(index, store, query, target, config,
                                LexiconRefiner(lexicon), "q1")
        for record in trace.records:
            fresh = exposure(retrieve(index, record.query, pool, "q1"), store,
                             "gender", config.k)
            assert record.exposure == tuple(fresh.tolist())
            assert record.divergence == kl_divergence(
                fresh, target.target.probabilities)
        if trace.records:
            best = [r for r in trace.records if r.accepted][-1]
            assert ranked == retrieve(index, best.query, pool, "q1")

    @pytest.mark.parametrize("edit", ["document-outside-the-store",
                                      "text-edited"])
    def test_index_of_another_corpus_is_rejected(self, edit):
        # an index position is a store row only for an index of the store's
        # own corpus; any other index is refused before a query is measured,
        # as `fairqr run` refuses it
        store, _ = small_collection()
        records = [{"id": d, "text": store.texts[row]}
                   for d, row in store.rows.items()]
        if edit == "text-edited":  # same ids, so equal index positions
            records[store.rows["m3"]]["text"] = "women power women solar"
        else:
            records.append({"id": "ghost", "text": "wind solar"})
        index = build_index(ingest_corpus(records, [GroupSchema("gender",
                                                                SUBS)]))
        assert index.digest != store.digest
        config = RefinerConfig(category="gender", pool_size=3, k=3)
        refiner = LexiconRefiner({"female": ["women"], "male": ["plant"]})
        with pytest.raises(IndexBuildError, match="rerun `fairqr index`"):
            ExposureMeter(store, index, TARGET, 3)
        with pytest.raises(IndexBuildError, match="rerun `fairqr index`"):
            fair_qr(index, store, "power", TARGET, config, refiner, "q1")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_record_order_changes_nothing(self, data):
        labels = st.sampled_from([[], ["male"], ["female"], ["male", "female"]])
        texts = st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join)
        docs = data.draw(st.lists(st.tuples(texts, labels), min_size=1,
                                  max_size=10))
        records = [{"id": f"d{i}", "text": text, "groups": {"gender": subs}}
                   for i, (text, subs) in enumerate(docs)]
        shuffled = data.draw(st.permutations(records))
        schemas = [GroupSchema("gender", SUBS)]
        store, other = (ingest_corpus(r, schemas) for r in (records, shuffled))
        assert (other.rows, other.texts, other.digest) == (
            store.rows, store.texts, store.digest)
        assert list(other.rows) == sorted(store.rows)
        assert other.groups["gender"].tobytes() == (
            store.groups["gender"].tobytes())
        index = build_index(store)
        assert build_index(other) == index
        config = RefinerConfig(category="gender", pool_size=3, k=2)
        refiner = LexiconRefiner({"female": ["women"], "male": ["plant"]})
        query = " ".join(data.draw(st.lists(st.sampled_from(WORDS),
                                            min_size=1, max_size=3)))
        ranked, trace = fair_qr(index, store, query, TARGET, config, refiner,
                                "q1")
        ranked_other, trace_other = fair_qr(build_index(other), other, query,
                                            TARGET, config, refiner, "q1")
        assert ranked_other == ranked
        assert trace_other.to_dict() == trace.to_dict()

    def test_concurrent_first_use_matches_sequential(self, synth):
        # threads race to derive each new index's per-term entries
        config = RefinerConfig(category="gender", pool_size=20, k=20)
        refiner = LexiconRefiner(synth["lexicon"])
        items = [(query_id, qtext,
                  target_from_qrels(synth["qrels"], synth["store"], query_id,
                                    "gender"))
                 for query_id, qtext in synth["queries"]]

        def loop(index, store, item):
            query_id, qtext, target = item
            ranked, trace = fair_qr(index, store, qtext, target, config,
                                    refiner, query_id)
            return ranked, trace.to_dict()

        def derived(index):
            return {term: (hit[0], hit[1].tobytes(), hit[2].tobytes(),
                           None if hit[3] is None else hit[3].tobytes())
                    for term, hit in index._entries.items()}

        sequential = build_index(synth["store"]), replace(synth["store"])
        expected = [loop(*sequential, item) for item in items]
        expected_derived = derived(sequential[0])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                index, store = build_index(synth["store"]), replace(
                    synth["store"])
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(loop, index, store, item)
                               for item in items * 2]
                    assert [f.result(timeout=60)
                            for f in futures] == expected * 2
                assert derived(index) == expected_derived
        finally:
            sys.setswitchinterval(interval)

    def test_deterministic_end_to_end(self, synth):
        store, index = synth["store"], synth["index"]
        target = target_from_qrels(synth["qrels"], store, "q00", "gender")
        config = RefinerConfig(category="gender", pool_size=20, k=20)
        refiner = LexiconRefiner(synth["lexicon"])
        first = fair_qr(index, store, "topic00", target, config, refiner, "q00")
        second = fair_qr(index, store, "topic00", target, config, refiner, "q00")
        assert first == second


class TestRefinerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RefinerConfig(category="g", max_iterations=0)
        with pytest.raises(ValueError):
            RefinerConfig(category="g", k=50, pool_size=20)
        with pytest.raises(ValueError):
            LLMRefiner(ChatCompletionClient("http://stub", "m"), SUBS,
                       temperature=3.0)
