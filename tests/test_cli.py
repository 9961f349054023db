import json
import math
import os
import re
import socket
import subprocess
import sys
import time
import zlib

import pytest

import fairqr
from fairqr.cli import CONFIG_FIELDS, main
from fairqr.corpus import load_corpus
from fairqr.index import build_index, load_index, retrieve
from fairqr.refine import DEFAULT_PROMPT_TEMPLATE
from fairqr.trec import parse_run


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen + index + all four run modes, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    runs = root / "runs"
    assert main(["gen", "--out", str(data), "--docs", "200",
                 "--topics", "10", "--skew", "0.8", "--seed", "42"]) == 0
    common = [
        "--corpus", str(data / "corpus.jsonl"),
        "--schema", str(data / "schema.json"),
        "--queries", str(data / "queries.tsv"),
        "--qrels", str(data / "qrels.txt"),
        "--lexicon", str(data / "lexicon.json"),
        "--pool-size", "20",
        "--out", str(runs),
    ]
    for mode in ("bm25", "fairqr", "fairqr-norerank", "mmr"):
        assert main(["run", mode] + common) == 0
    return {"root": root, "data": data, "runs": runs, "common": common}


class TestGen:
    def test_outputs_exist(self, workspace):
        data = workspace["data"]
        for name in ("corpus.jsonl", "schema.json", "queries.tsv",
                     "qrels.txt", "lexicon.json"):
            assert (data / name).exists()

    def test_regeneration_byte_identical(self, workspace, tmp_path):
        assert main(["gen", "--out", str(tmp_path), "--docs", "200",
                     "--topics", "10", "--skew", "0.8", "--seed", "42"]) == 0
        for name in ("corpus.jsonl", "queries.tsv", "qrels.txt"):
            assert (tmp_path / name).read_bytes() == (
                workspace["data"] / name
            ).read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--topics", "0"],
        ["--docs", "5", "--topics", "-1"],
        ["--docs", "3", "--topics", "5"],
        ["--skew", "1.0"],
    ], ids=["no topics", "negative topics", "more topics than docs",
            "skew 1"])
    def test_option_out_of_range_is_usage_error(self, tmp_path, capsys,
                                                 flags):
        assert main(["gen", "--out", str(tmp_path)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "Traceback" not in err
        assert not (tmp_path / "corpus.jsonl").exists()


class TestIndexCmd:
    def test_build_and_stats(self, workspace, tmp_path, capsys):
        data = workspace["data"]
        index_file = tmp_path / "idx.json"
        args = ["index", "--corpus", str(data / "corpus.jsonl"),
                "--schema", str(data / "schema.json"),
                "--index-file", str(index_file)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "N=200" in out
        first = index_file.read_bytes()
        assert main(args) == 0
        assert index_file.read_bytes() == first
        store = load_corpus(data / "corpus.jsonl", data / "schema.json")
        assert load_index(index_file).n_documents == store.n_documents

    def test_missing_corpus_is_data_error(self, tmp_path):
        code = main(["index", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--schema", str(tmp_path / "nope.json"),
                     "--index-file", str(tmp_path / "idx.json")])
        assert code == 2


class TestRunCmd:
    def test_bm25_rows_replay(self, workspace):
        data = workspace["data"]
        run = parse_run(workspace["runs"] / "run-bm25.txt")
        index = build_index(load_corpus(data / "corpus.jsonl",
                                        data / "schema.json"))
        for query_id, ranked in run.items():
            topic = query_id.replace("q", "topic")
            assert ranked == retrieve(index, topic, 20, query_id)

    def test_fairqr_traces_written(self, workspace):
        traces = sorted((workspace["runs"] / "traces").glob("*.json"))
        assert len(traces) == 10
        trace = json.loads(traces[0].read_text())
        assert trace["terminal_reason"] in (
            "no-decrease", "max-iterations", "target-met"
        )
        assert trace["iterations"][0]["iteration"] == 0

    def test_fairqr_accepts_iterations_on_skewed_topics(self, workspace):
        accepted = 0
        for path in (workspace["runs"] / "traces").glob("*.json"):
            trace = json.loads(path.read_text())
            accepted += sum(
                1 for it in trace["iterations"]
                if it["iteration"] > 0 and it["accepted"]
            )
        assert accepted >= 1

    def test_mmr_lambda_one_matches_bm25_topk(self, workspace, tmp_path):
        args = ["run", "mmr", "--mmr-lambda", "1.0"] + workspace["common"]
        args[args.index(str(workspace["runs"]))] = str(tmp_path)
        assert main(args) == 0
        mmr = parse_run(tmp_path / "run-mmr.txt")
        bm25 = parse_run(workspace["runs"] / "run-bm25.txt")
        for query_id in bm25:
            assert mmr[query_id].doc_ids() == bm25[query_id].doc_ids()[:20]

    def test_rerun_byte_identical(self, workspace, tmp_path):
        args = ["run", "fairqr"] + workspace["common"]
        args[args.index(str(workspace["runs"]))] = str(tmp_path)
        assert main(args) == 0
        assert (tmp_path / "run-fairqr.txt").read_bytes() == (
            workspace["runs"] / "run-fairqr.txt"
        ).read_bytes()
        for path in (tmp_path / "traces").glob("*.json"):
            assert path.read_bytes() == (
                workspace["runs"] / "traces" / path.name
            ).read_bytes()

    def test_jobs_flag_preserves_output(self, workspace, tmp_path):
        args = ["run", "fairqr", "--jobs", "4"] + workspace["common"]
        args[args.index(str(workspace["runs"]))] = str(tmp_path)
        assert main(args) == 0
        assert (tmp_path / "run-fairqr.txt").read_bytes() == (
            workspace["runs"] / "run-fairqr.txt"
        ).read_bytes()
        traces = sorted((workspace["runs"] / "traces").glob("*.json"))
        assert len(traces) == 10
        for path in traces:
            assert (tmp_path / "traces" / path.name).read_bytes() == (
                path.read_bytes()
            )

    def test_mmr_jobs_flag_preserves_output(self, workspace, tmp_path):
        # the loaded index's document-major view is derived by the first
        # MMR calls, which race for it under --jobs 4
        args = ["run", "mmr", "--jobs", "4"] + workspace["common"]
        args[args.index(str(workspace["runs"]))] = str(tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert main(args) == 0
        finally:
            sys.setswitchinterval(interval)
        assert (tmp_path / "run-mmr.txt").read_bytes() == (
            workspace["runs"] / "run-mmr.txt"
        ).read_bytes()

    def test_llm_jobs_flag_preserves_output(self, workspace, tmp_path,
                                            monkeypatch):
        # the stub model's reply depends only on the prompt; its latency
        # varies by prompt, so under --jobs 4 replies arrive out of order
        asked = re.compile(r"documents of query: (.*?) are from diverse.*"
                           r"it's the subgroup: (.*?)\. Show me", re.S)

        def transport(url, headers, payload):
            prompt = payload["messages"][0]["content"]
            query, subgroup = asked.search(prompt).groups()
            time.sleep(zlib.crc32(prompt.encode()) % 4 / 1000)
            return {"choices": [{"message": {
                "content": f"REFINED_QUERY: {query} marker{subgroup}"}}]}

        monkeypatch.setattr("fairqr.llm._urllib_transport", transport)
        written = {}
        for jobs in ("1", "4"):
            out = tmp_path / f"jobs{jobs}"
            args = (["run", "fairqr", "--refiner", "llm", "--base-url",
                     "http://llm.invalid/v1", "--model", "m", "--jobs", jobs]
                    + workspace["common"])
            args[args.index(str(workspace["runs"]))] = str(out)
            assert main(args) == 0
            written[jobs] = {path.relative_to(out): path.read_bytes()
                             for path in out.rglob("*") if path.is_file()}
        assert len(written["1"]) == 11  # the run file and ten traces
        assert sum(b"REFINED_QUERY" in data
                   for data in written["1"].values()) == 10
        assert written["4"] == written["1"]

    def test_fairqr_reranks_the_measured_top_k(self, workspace, tmp_path):
        # at the default pool size (100) the re-ranker must not reach past
        # the k documents whose exposure the loop measured
        common = list(workspace["common"])
        del common[common.index("--pool-size"):common.index("--pool-size") + 2]
        common[common.index(str(workspace["runs"]))] = str(tmp_path)
        for mode in ("fairqr", "fairqr-norerank"):
            assert main(["run", mode] + common) == 0
        fair = parse_run(tmp_path / "run-fairqr.txt")
        norerank = parse_run(tmp_path / "run-fairqr-norerank.txt")
        assert len(fair) == 10
        for query_id, ranked in fair.items():
            assert len(ranked) == 20
            assert set(ranked.doc_ids()) == set(
                norerank[query_id].doc_ids()[:20])

    def test_dead_llm_endpoint_exits_3_after_writing(self, workspace, tmp_path,
                                                     monkeypatch, capsys):
        def down(url, headers, payload):
            raise ConnectionError("endpoint down")

        def no_socket(*args, **kwargs):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr("fairqr.llm._urllib_transport", down)
        monkeypatch.setattr(socket.socket, "connect", no_socket)
        args = (["run", "fairqr", "--refiner", "llm", "--base-url",
                 "http://llm.invalid/v1", "--model", "m"] + workspace["common"])
        args[args.index(str(workspace["runs"]))] = str(tmp_path)
        assert main(args) == 3
        assert "refiner failure" in capsys.readouterr().err
        assert len(parse_run(tmp_path / "run-fairqr.txt")) == 10
        traces = sorted((tmp_path / "traces").glob("*.json"))
        assert len(traces) == 10
        for path in traces:
            trace = json.loads(path.read_text())
            assert trace["terminal_reason"] == "error"
            assert trace["error"].startswith("RefinerError: chat completion")
            assert "endpoint down" in trace["error"]

    @pytest.mark.parametrize("qrels", [True, False],
                             ids=["targets", "no-targets"])
    def test_template_missing_a_placeholder_fails_before_writing(
            self, workspace, tmp_path, monkeypatch, capsys, qrels):
        # with an empty targets file no query has a target, so none reaches
        # a prompt
        def no_call(url, headers, payload):
            raise AssertionError("the endpoint was called")

        monkeypatch.setattr("fairqr.llm._urllib_transport", no_call)
        template = tmp_path / "template.txt"
        template.write_text(DEFAULT_PROMPT_TEMPLATE.replace("{subgroup}", "x"))
        common = list(workspace["common"])
        if not qrels:
            (tmp_path / "targets.json").write_text("{}")
            common[common.index("--qrels"):common.index("--qrels") + 2] = [
                "--targets", str(tmp_path / "targets.json")]
        common[common.index(str(workspace["runs"]))] = str(tmp_path / "out")
        assert main(["run", "fairqr", "--refiner", "llm", "--base-url",
                     "http://llm.invalid/v1", "--model", "m",
                     "--template", str(template)] + common) == 2
        assert capsys.readouterr().err == (
            f"data error: {template}: template missing placeholder "
            f"{{subgroup}}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["fairqr", "fairqr-norerank"])
    def test_fair_mode_without_a_target_source_is_usage_error(
            self, workspace, tmp_path, capsys, mode):
        # without qrels or targets every query would run unrefined
        common = list(workspace["common"])
        del common[common.index("--qrels"):common.index("--qrels") + 2]
        common[common.index(str(workspace["runs"]))] = str(tmp_path / "out")
        assert main(["run", mode] + common) == 1
        assert capsys.readouterr().err == (
            f"usage error: run {mode} needs fairness targets: give --qrels "
            f"or --targets\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["bm25", "mmr", "fairqr"])
    @pytest.mark.parametrize("line", [
        "q00\t!!!", "q00 topic00", "q01\ttopic00",
        # ids that a run file line or a trace file name cannot hold
        "\ttopic00", "q 1\ttopic00", "sub/q2\ttopic00", "../x\ttopic00",
        "q\\2\ttopic00",
        # a byte-order mark at the start of a later line
        "\ufeffq02\ttopic00"])
    def test_bad_query_line_is_data_error(self, workspace, tmp_path, capsys,
                                          mode, line):
        queries = tmp_path / "queries.tsv"
        queries.write_text(f"q01\ttopic01\n{line}\n", encoding="utf-8")
        args = ["run", mode] + workspace["common"] + [
            "--queries", str(queries), "--out", str(tmp_path / "runs")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(queries) in err and "line 2" in err
        assert repr(line.partition("\t")[0]) in err
        assert not (tmp_path / "runs").exists()

    def test_query_without_target_is_traced_at_the_mode_depth(
            self, workspace, tmp_path):
        # q99 has no qrels, so no fairness target; default pool size (100)
        queries = tmp_path / "queries.tsv"
        queries.write_text("q00\ttopic00\nq99\ttopic01\n")
        common = list(workspace["common"])
        del common[common.index("--pool-size"):common.index("--pool-size") + 2]
        common += ["--queries", str(queries), "--out", str(tmp_path)]
        data = workspace["data"]
        index = build_index(load_corpus(data / "corpus.jsonl",
                                        data / "schema.json"))
        for mode, depth in (("fairqr", 20), ("fairqr-norerank", 100)):
            assert main(["run", mode] + common) == 0
            run = parse_run(tmp_path / f"run-{mode}.txt")
            assert run["q99"] == retrieve(index, "topic01", depth, "q99")
            assert (len(run["q99"]) > 20) == (mode == "fairqr-norerank")
            trace = json.loads((tmp_path / "traces" / "q99.json").read_text())
            assert trace["terminal_reason"] == "no-target"
            assert trace["iterations"] == [] and trace["error"] == ""

    def test_target_entry_without_the_category_is_no_target(
            self, workspace, tmp_path):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({
            "q00": {"gender": {"male": 0.5, "female": 0.5}},
            "q01": {"geography": {"europe": 1.0}}}))
        queries = tmp_path / "queries.tsv"
        queries.write_text("q00\ttopic00\nq01\ttopic01\n")
        out = tmp_path / "out"
        assert main(["run", "fairqr"] + workspace["common"] + [
            "--targets", str(targets), "--queries", str(queries),
            "--out", str(out)]) == 0
        reasons = {qid: json.loads((out / "traces" / f"{qid}.json")
                                   .read_text())["terminal_reason"]
                   for qid in ("q00", "q01")}
        assert reasons["q00"] != "no-target"
        assert reasons["q01"] == "no-target"

    def test_blank_query_lines_are_skipped(self, workspace, tmp_path):
        for name, text in (("plain", "q00\ttopic00\nq01\ttopic01\n"),
                           ("blank", "\nq00\ttopic00\n\n\nq01\ttopic01\n\n")):
            queries = tmp_path / f"{name}.tsv"
            queries.write_text(text)
            assert main(["run", "bm25"] + workspace["common"] + [
                "--queries", str(queries), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "blank" / "run-bm25.txt").read_bytes() == (
            tmp_path / "plain" / "run-bm25.txt").read_bytes()

    def test_query_retrieving_nothing_is_named_by_run_and_eval(
            self, workspace, tmp_path, capsys):
        # q01 has a target but retrieves nothing, so its loop measures no
        # query: the fair modes trace the error and still exit 0
        data = workspace["data"]
        queries = tmp_path / "queries.tsv"
        queries.write_text("q00\ttopic00\nq01\tzzzzqq\n")
        for mode, traces in (("bm25", 0), ("fairqr", 2),
                             ("fairqr-norerank", 2)):
            out = tmp_path / mode
            assert main(["run", mode] + workspace["common"] + [
                "--queries", str(queries), "--out", str(out)]) == 0, mode
            assert capsys.readouterr().out == (
                f"wrote {out / f'run-{mode}.txt'} (1 queries, {traces} "
                "traces); nothing retrieved for 1: q01\n")
            if traces:
                trace = json.loads((out / "traces" / "q01.json").read_text())
                assert trace["terminal_reason"] == "error"
                assert trace["error"].startswith("DegenerateExposureError")
                assert trace["iterations"] == []
            # q01 is judged, so eval lists it with the other absent queries
            assert main(["eval", str(out / f"run-{mode}.txt"),
                         "--corpus", str(data / "corpus.jsonl"),
                         "--schema", str(data / "schema.json"),
                         "--qrels", str(data / "qrels.txt"),
                         "--out", str(out)]) == 0
            missing = ["q01"] + [f"q{i:02d}" for i in range(2, 10)]
            assert capsys.readouterr().out.endswith(
                f"missing (9): {', '.join(missing)}\n")
            report = json.loads((out / f"report-run-{mode}.json").read_text())
            assert report["missing"] == missing
            assert [row["query_id"] for row in report["rows"]] == ["q00"]


class TestStaleInputs:
    def test_index_from_another_corpus_rejected(self, workspace, tmp_path,
                                                capsys):
        other = tmp_path / "other"
        assert main(["gen", "--out", str(other), "--docs", "100",
                     "--topics", "10", "--skew", "0.8", "--seed", "42"]) == 0
        index_file = tmp_path / "other-index.json"
        assert main(["index", "--corpus", str(other / "corpus.jsonl"),
                     "--schema", str(other / "schema.json"),
                     "--index-file", str(index_file)]) == 0
        capsys.readouterr()
        args = (["run", "bm25", "--index-file", str(index_file)]
                + workspace["common"])
        args[args.index(str(workspace["runs"]))] = str(tmp_path / "runs")
        assert main(args) == 2
        assert "rerun `fairqr index`" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_index_of_an_edit_keeping_ids_and_length_rejected(
            self, workspace, tmp_path, capsys):
        # two documents swap a word: every id and token count stays the same
        lines = (workspace["data"] / "corpus.jsonl").read_text().splitlines()
        first, second = json.loads(lines[0]), json.loads(lines[1])
        a, b = first["text"].split(), second["text"].split()
        assert a[0] != b[0]
        a[0], b[0] = b[0], a[0]
        first["text"], second["text"] = " ".join(a), " ".join(b)
        edited = tmp_path / "corpus.jsonl"
        edited.write_text("\n".join([json.dumps(first), json.dumps(second)]
                                    + lines[2:]) + "\n")
        index_file = tmp_path / "idx.json"
        assert main(["index", "--corpus", str(workspace["data"] / "corpus.jsonl"),
                     "--schema", str(workspace["data"] / "schema.json"),
                     "--index-file", str(index_file)]) == 0
        capsys.readouterr()
        args = (["run", "bm25", "--index-file", str(index_file)]
                + workspace["common"])
        args[args.index(str(workspace["runs"]))] = str(tmp_path / "runs")
        args[args.index(str(workspace["data"] / "corpus.jsonl"))] = str(edited)
        assert main(args) == 2
        assert "rerun `fairqr index`" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("content", [
        bytes(range(256)),
        b'{"format": "fairqr-index", "version": 1}',
    ], ids=["garbage", "version-1-json"])
    def test_malformed_index_file_is_data_error(self, workspace, tmp_path,
                                                capsys, content):
        index_file = tmp_path / "idx.json"
        index_file.write_bytes(content)
        args = (["run", "bm25", "--index-file", str(index_file)]
                + workspace["common"])
        args[args.index(str(workspace["runs"]))] = str(tmp_path / "runs")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(index_file) in err and "rerun `fairqr index`" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("labels", [5, "male", {"male": 1}],
                             ids=["int", "str", "dict"])
    def test_labels_not_a_list_of_strings_are_data_error(
            self, workspace, tmp_path, capsys, labels):
        corpus = tmp_path / "corpus.jsonl"
        records = [{"id": "d1", "text": "solar", "groups": {}},
                   {"id": "d2", "text": "wind", "groups": {"gender": labels}}]
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
        args = ["run", "bm25"] + workspace["common"]
        args[args.index(str(workspace["data"] / "corpus.jsonl"))] = str(corpus)
        args[args.index(str(workspace["runs"]))] = str(tmp_path / "runs")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {corpus} line 2:")
        assert "'gender'" in err and "'d2'" in err

    def test_label_outside_the_schema_is_named_at_its_line(
            self, workspace, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        records = [{"id": "d1", "text": "solar", "groups": {}},
                   {"id": "d2", "text": "wind",
                    "groups": {"gender": ["male", "martian"]}}]
        corpus.write_text("\n\n".join(map(json.dumps, records)))  # line 3
        args = ["index", "--corpus", str(corpus), "--schema",
                str(workspace["data"] / "schema.json"),
                "--index-file", str(tmp_path / "index.npz")]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"data error: {corpus} line 3: label 'martian' is not a subgroup "
            f"of category 'gender' (document 'd2')\n")
        assert not (tmp_path / "index.npz").exists()

    @pytest.mark.parametrize("masses", [
        {"male": 0.4, "female": 0.2},                # sums to 0.6
        {"male": 0.5, "female": 0.3, "other": 0.2},  # label outside schema
        ["male"],                                    # not subgroup masses
        {"male": math.nan, "female": 0.4},           # written as NaN
        {"male": None, "female": 1.0},               # null is no number
        {"female": {}},                              # an object
        {"male": "0.5", "female": "0.5"},            # strings, not numbers
        {"male": True, "female": 0},                 # a bool is no mass
    ])
    def test_invalid_explicit_target_is_data_error(self, workspace, tmp_path,
                                                   capsys, masses):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"q03": {"gender": masses}}))
        args = (["run", "fairqr", "--targets", str(targets)]
                + workspace["common"])
        args[args.index(str(workspace["runs"]))] = str(tmp_path / "runs")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {targets}: target for query 'q03'")

    @pytest.mark.parametrize("content, named", [
        ([{"q03": {"gender": {"male": 1.0}}}], "targets.json"),
        ({"q03": ["gender"]}, "'q03'"),
    ])
    def test_malformed_targets_file_is_data_error(self, workspace, tmp_path,
                                                  capsys, content, named):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps(content))
        args = (["run", "fairqr", "--targets", str(targets)]
                + workspace["common"])
        args[args.index(str(workspace["runs"]))] = str(tmp_path / "runs")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {targets}: ") and named in err


    def test_schema_not_lists_of_labels_is_data_error(self, workspace,
                                                      tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text('{"gender": 5}')
        args = ["run", "bm25"] + workspace["common"]
        args[args.index(str(workspace["data"] / "schema.json"))] = str(schema)
        args[args.index(str(workspace["runs"]))] = str(tmp_path / "runs")
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {schema}: schema file")

    @pytest.mark.parametrize("lexicon", [[1, 2], {"male": "markermale"}],
                             ids=["list", "string-value"])
    def test_lexicon_not_lists_of_keywords_is_data_error(
            self, workspace, tmp_path, capsys, lexicon):
        path = tmp_path / "lexicon.json"
        path.write_text(json.dumps(lexicon))
        args = ["run", "fairqr"] + workspace["common"]
        args[args.index(str(workspace["data"] / "lexicon.json"))] = str(path)
        args[args.index(str(workspace["runs"]))] = str(tmp_path / "runs")
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {path}: lexicon must map")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("name", ["config", "schema", "lexicon",
                                      "targets"])
    def test_invalid_json_input_is_named_at_its_line(
            self, workspace, tmp_path, capsys, name):
        path = tmp_path / f"{name}.json"
        path.write_text('{\n  "male": [1, 2,]\n}\n')
        args = ["run", "fairqr"] + workspace["common"] + [
            f"--{name}", str(path), "--out", str(tmp_path / "runs")]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"data error: {path} line 2: invalid JSON: Expecting value: "
            f"line 2 column 17 (char 18)\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("name, line", [
        ("corpus.jsonl", '{"id": "x", "text": "caf\xe9"}\n'),
        ("queries.tsv", "q99\tcaf\xe9\n"),
        ("qrels.txt", "q99 0 caf\xe9 1\n"),
        ("run-bm25.txt", "q99 Q0 caf\xe9 1 1.0 bm25\n"),
        ("schema.json", "\xe9\n"),
    ], ids=["corpus", "queries", "qrels", "run-file", "schema"])
    def test_non_utf8_input_is_data_error(self, workspace, tmp_path, capsys,
                                          name, line):
        data, runs = workspace["data"], workspace["runs"]
        original = (runs if name == "run-bm25.txt" else data) / name
        path = tmp_path / name  # a Latin-1 line at the end
        path.write_bytes(original.read_bytes() + line.encode("latin-1"))
        if name in ("qrels.txt", "run-bm25.txt"):  # read by eval
            args = ["eval", str(runs / "run-bm25.txt"),
                    "--corpus", str(data / "corpus.jsonl"),
                    "--schema", str(data / "schema.json"),
                    "--qrels", str(data / "qrels.txt"),
                    "--out", str(tmp_path / "out")]
        else:
            args = ["run", "bm25"] + workspace["common"]
            args[args.index(str(runs))] = str(tmp_path / "out")
        args[args.index(str(original))] = str(path)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "utf-8" in err
        line_no = original.read_bytes().count(b"\n") + 1
        assert f"{path} line {line_no}: byte 0xe9 is not utf-8" in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("name", ["queries.tsv", "qrels.txt",
                                      "run-bm25.txt"])
    def test_byte_order_mark_is_data_error(self, workspace, tmp_path, capsys,
                                           name):
        # a BOM read as text would prefix the first query id
        data, runs = workspace["data"], workspace["runs"]
        original = (runs if name == "run-bm25.txt" else data) / name
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        if name == "queries.tsv":
            args = ["run", "fairqr"] + workspace["common"]
            args[args.index(str(runs))] = str(tmp_path / "out")
        else:
            args = ["eval", str(runs / "run-bm25.txt"),
                    "--corpus", str(data / "corpus.jsonl"),
                    "--schema", str(data / "schema.json"),
                    "--qrels", str(data / "qrels.txt"),
                    "--out", str(tmp_path / "out")]
        args[args.index(str(original))] = str(path)
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"data error: {path} line 1: starts with a UTF-8 byte-order "
            f"mark; save it without one\n")
        assert not (tmp_path / "out").exists()


class TestEvalCmd:
    def test_self_comparison_p_one(self, workspace, tmp_path, capsys):
        data = workspace["data"]
        run = workspace["runs"] / "run-bm25.txt"
        assert main(["eval", str(run), "--run-b", str(run),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--schema", str(data / "schema.json"),
                     "--qrels", str(data / "qrels.txt"),
                     "--out", str(tmp_path)]) == 0
        report = json.loads(
            (tmp_path / "report-run-bm25.json").read_text()
        )
        for metric in report["significance"]["metrics"].values():
            assert metric == {"mean_diff": 0.0, "p": 1.0}

    def test_unknown_doc_ids_degrade(self, workspace, tmp_path, capsys):
        # ghost ids score as non-relevant with all exposure on Unknown
        data = workspace["data"]
        bogus = tmp_path / "bogus.txt"
        bogus.write_text(
            "q00 Q0 ghost-1 1 2.0 t\nq00 Q0 ghost-2 2 1.0 t\n"
        )
        assert main(["eval", str(bogus),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--schema", str(data / "schema.json"),
                     "--qrels", str(data / "qrels.txt"),
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "report-bogus.json").read_text())
        row = report["rows"][0]
        assert row["ndcg"] == 0.0
        assert row["awrf"]["gender"] < 0.5  # Unknown exposure vs 80/20 target

    def test_reports_match_library_metrics(self, workspace, tmp_path):
        data = workspace["data"]
        run_path = workspace["runs"] / "run-fairqr.txt"
        assert main(["eval", str(run_path),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--schema", str(data / "schema.json"),
                     "--qrels", str(data / "qrels.txt"),
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report-run-fairqr.json").read_text())
        assert len(report["rows"]) == 10
        mean = sum(r["ndcg"] for r in report["rows"]) / 10
        assert abs(report["aggregates"]["ndcg"] - mean) < 1e-9


    def test_run_listing_a_document_twice_is_data_error(self, workspace,
                                                          tmp_path, capsys):
        data = workspace["data"]
        first = (workspace["runs"] / "run-bm25.txt").read_text().splitlines()[0]
        query_id, _, doc_id, _, score, tag = first.split()
        run = tmp_path / "dup.txt"
        run.write_text(f"{first}\n{query_id} Q0 {doc_id} 2 {score} {tag}\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text(f"{query_id} 0 {doc_id} 1\n")
        assert main(["eval", str(run),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--schema", str(data / "schema.json"),
                     "--qrels", str(qrels), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert f"document {doc_id!r} listed twice for query {query_id!r}" in err
        assert not (tmp_path / "report-dup.json").exists()

    @pytest.mark.parametrize("bad, line, where", [
        ("qrels", "q1 0 d1 x", " line 2: non-integer grade 'x'"),
        ("run", "q1 Q0 d1 one 1.0 t", " line 2: bad rank/score 'one'/'1.0'"),
        ("run", "q1 Q0 d2 3 1.0 t", ": ranks for query 'q1' not contiguous"),
        # a byte-order mark at the start of a later line
        ("qrels", "\ufeffq1 0 d2 1",
         " line 2: query id '\\ufeffq1' holds U+FEFF"),
        ("run", "\ufeffq1 Q0 d2 1 1.0 t",
         " line 2: query id '\\ufeffq1' holds U+FEFF"),
    ], ids=["qrels-line", "run-line", "run-no-line", "qrels-bom", "run-bom"])
    def test_bad_qrels_or_run_is_named_at_its_file(
            self, workspace, tmp_path, capsys, bad, line, where):
        data = workspace["data"]
        files = {"qrels": tmp_path / "qrels.txt", "run": tmp_path / "run.txt"}
        files["qrels"].write_text("q1 0 d1 1\n")
        files["run"].write_text("q1 Q0 d1 1 1.0 t\n")
        files[bad].write_text(f"{files[bad].read_text()}{line}\n",
                              encoding="utf-8")
        assert main(["eval", str(files["run"]),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--schema", str(data / "schema.json"),
                     "--qrels", str(files["qrels"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {files[bad]}{where}")


def _row(query_id, ndcg, awrf, product):
    return {"awrf": {"gender": awrf}, "ndcg": ndcg,
            "product": {"gender": product}, "query_id": query_id}


class TestReportBytes:
    """The exact bytes of `eval`'s reports where the golden experiment does
    not reach: no rows, excluded queries, judged queries the run lacks, and
    a comparison run sharing too few queries for a randomization test."""

    RUNS = {
        "empty.txt": "",
        # q1 balanced and ideal; q2 all male with one relevant; q9 unjudged
        "run-a.txt": ("q1 Q0 m1 1 2.0 a\nq1 Q0 f1 2 1.0 a\n"
                      "q2 Q0 m1 1 2.0 a\nq2 Q0 m2 2 1.0 a\nq9 Q0 f1 1 1.0 a\n"),
        "run-b.txt": "q2 Q0 f1 1 2.0 b\nq2 Q0 m1 2 1.0 b\nq9 Q0 m1 1 1.0 b\n",
    }
    EXCLUDED_TEXT = (
        "query  nDCG@2  AWRF@2[gender]  nDCG*AWRF[gender]\n"
        "q1     1.0000  1.0000          1.0000\n"
        "q2     0.6131  0.6887          0.4223\n"
        "MEAN   0.8066  0.8444          0.7111\n"
        "excluded (1): q9\n")
    EXCLUDED_JSON = {
        "aggregates": {"awrf.gender": 0.8443609377704335,
                       "ndcg": 0.8065735963827292,
                       "product.gender": 0.711143942292022},
        "excluded": ["q9"], "k": 2,
        "rows": [_row("q1", 1.0, 1.0, 1.0),
                 _row("q2", 0.6131471927654584, 0.6887218755408672,
                      0.4222878845840441)],
    }
    UNPAIRED_TEXT = (
        "query  nDCG@2  AWRF@2[gender]  nDCG*AWRF[gender]\n"
        "q2     1.0000  1.0000          1.0000\n"
        "MEAN   1.0000  1.0000          1.0000\n"
        "excluded (1): q9\n"
        "missing (1): q1\n")
    UNPAIRED_JSON = {
        "aggregates": {"awrf.gender": 1.0, "ndcg": 1.0,
                       "product.gender": 1.0},
        "excluded": ["q9"], "k": 2, "missing": ["q1"],
        "rows": [_row("q2", 1.0, 1.0, 1.0)],
    }
    EMPTY_JSON = {"aggregates": {}, "excluded": [], "k": 2,
                  "missing": ["q1", "q2"], "rows": []}

    UNPAIRED_NOTE = ("note: the runs share 1 scored query; no randomization "
                     "test was run (it needs 2)\n")

    @pytest.mark.parametrize("run, flags, text, report, note", [
        ("empty.txt", ["--targets", "targets.json"],
         "query  nDCG@2\nmissing (2): q1, q2\n", EMPTY_JSON, ""),
        ("run-a.txt", [], EXCLUDED_TEXT, EXCLUDED_JSON, ""),
        ("run-b.txt", ["--run-b", "run-a.txt"], UNPAIRED_TEXT, UNPAIRED_JSON,
         UNPAIRED_NOTE),
    ], ids=["empty-run", "excluded-query", "run-b-shares-one-query"])
    def test_report_bytes(self, tmp_path, capsys, run, flags, text, report,
                          note):
        files = {
            "corpus.jsonl": "".join(
                json.dumps({"id": doc_id, "text": "x",
                            "groups": {"gender": [group]}}) + "\n"
                for doc_id, group in (("m1", "male"), ("m2", "male"),
                                      ("f1", "female"), ("f2", "female"))),
            "schema.json": '{"gender": ["male", "female", "Unknown"]}',
            "qrels.txt": "q1 0 m1 1\nq1 0 f1 1\nq2 0 m1 1\nq2 0 f1 1\n",
            "targets.json": '{"q1": {"gender": {"male": 0.5, "female": 0.5}}}',
            **self.RUNS,
        }
        for name, content in files.items():
            (tmp_path / name).write_text(content)
        out = tmp_path / "out"
        assert main(["eval", str(tmp_path / run),
                     *[str(tmp_path / f) if "." in f else f for f in flags],
                     "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--schema", str(tmp_path / "schema.json"),
                     "--qrels", str(tmp_path / "qrels.txt"),
                     "--k", "2", "--out", str(out)]) == 0
        assert capsys.readouterr() == (text, note)
        stem = run[:-len(".txt")]
        assert (out / f"report-{stem}.txt").read_bytes() == text.encode()
        assert (out / f"report-{stem}.json").read_bytes() == json.dumps(
            report, indent=2, sort_keys=True).encode()


class TestStartup:
    def test_import_loads_neither_scipy_nor_requests(self):
        src = os.path.dirname(os.path.dirname(fairqr.__file__))
        code = ("import sys, fairqr, fairqr.cli; print(sorted({m.split('.')[0]"
                " for m in sys.modules} & {'scipy', 'requests'}))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "[]"


    def test_eval_run_b_loads_neither_scipy_nor_requests(self, workspace,
                                                          tmp_path):
        src = os.path.dirname(os.path.dirname(fairqr.__file__))
        data, runs = workspace["data"], workspace["runs"]
        # run-b loses q00's top 10, so the per-query differences vary and
        # p falls strictly between 0 and 1
        rows = [line.split() for line in
                (runs / "run-bm25.txt").read_text().splitlines()]
        run_b = tmp_path / "run-b.txt"
        run_b.write_text("".join(
            " ".join(row[:3] + [str(int(row[3]) - 10)] + row[4:]) + "\n"
            if row[0] == "q00" else " ".join(row) + "\n"
            for row in rows if row[0] != "q00" or int(row[3]) > 10))
        code = ("import sys; from fairqr.cli import main; rc = main(sys.argv[1:]);"
                " print(rc, sorted({m.split('.')[0] for m in sys.modules}"
                " & {'scipy', 'requests'}))")
        args = ["eval", str(runs / "run-fairqr.txt"),
                "--run-b", str(run_b),
                "--corpus", str(data / "corpus.jsonl"),
                "--schema", str(data / "schema.json"),
                "--qrels", str(data / "qrels.txt"), "--out", str(tmp_path)]
        out = subprocess.run([sys.executable, "-c", code, *args], check=True,
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.splitlines()[-1] == "0 []"
        report = json.loads((tmp_path / "report-run-fairqr.json").read_text())
        ndcg = report["significance"]["metrics"]["ndcg@20"]
        assert math.isfinite(ndcg["mean_diff"]) and 0.0 < ndcg["p"] < 1.0


class TestUsage:
    def test_missing_required_field_is_usage_error(self, tmp_path):
        assert main(["run", "bm25", "--out", str(tmp_path)]) == 1

    def test_unknown_mode_rejected(self):
        assert main(["run", "warp"]) == 1

    @pytest.mark.parametrize("mode, flags", [
        ("fairqr", ["--refiner", "llm", "--base-url", "http://llm.invalid/v1",
                    "--model", "m", "--temperature", "3"]),
        ("fairqr", ["--k", "50", "--pool-size", "20"]),
        ("fairqr", ["--max-iterations", "0"]),
        ("fairqr", ["--refiner", "bogus"]),
        ("mmr", ["--mmr-lambda", "2"]),
        ("bm25", ["--pool-size", "0"]),
        # checked although the mode does not read it
        ("bm25", ["--max-iterations", "0"]),
        ("bm25", ["--refiner", "bogus"]),
        ("bm25", ["--mmr-lambda", "7"]),
        ("bm25", ["--temperature", "9"]),
        ("bm25", ["--jobs", "0"]),
        ("mmr", ["--refiner", "bogus"]),
        ("mmr", ["--temperature", "nan"]),
        ("fairqr", ["--mmr-lambda", "7"]),
        ("fairqr-norerank", ["--jobs", "-1"]),
        ("bm25", ["--k", "0"]),
        ("mmr", ["--k", "0"]),
        # checked before the corpus is read
        ("bm25", ["--pool-size", "0", "--corpus", "missing.jsonl"]),
        ("fairqr", ["--k", "50", "--pool-size", "20",
                    "--corpus", "missing.jsonl"]),
    ])
    def test_bad_option_value_is_usage_error(self, workspace, tmp_path,
                                             capsys, mode, flags):
        args = ["run", mode] + workspace["common"] + flags
        args[args.index(str(workspace["runs"]))] = str(tmp_path / "out")
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        ("eval", ["--weighting", "log-discount"]),
        ("index", ["--k", "5"]),
        ("gen", ["--lexicon", "x"]),
        ("bm25", ["--weighting", "bogus"]),
    ])
    def test_flag_the_command_does_not_read_is_rejected(
            self, workspace, tmp_path, capsys, command, flag):
        data, out = workspace["data"], str(tmp_path / "out")
        corpus = ["--corpus", str(data / "corpus.jsonl"),
                  "--schema", str(data / "schema.json")]
        args = {
            "eval": ["eval", str(workspace["runs"] / "run-fairqr.txt"),
                     *corpus, "--qrels", str(data / "qrels.txt"),
                     "--out", out],
            "index": ["index", *corpus, "--index-file", out],
            "gen": ["gen", "--out", out],
            "bm25": ["run", "bm25"] + workspace["common"],
        }[command]
        if command == "bm25":
            args[args.index(str(workspace["runs"]))] = out
        assert main(args + flag) == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_one_config_file_serves_every_command(self, workspace, tmp_path):
        data, out = workspace["data"], tmp_path / "out"
        template = tmp_path / "template.txt"
        template.write_text(DEFAULT_PROMPT_TEMPLATE)
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps(
            {"q00": {"gender": {"male": 0.8, "female": 0.2}}}))
        config = {
            "corpus": str(data / "corpus.jsonl"),
            "schema": str(data / "schema.json"),
            "queries": str(data / "queries.tsv"),
            "qrels": str(data / "qrels.txt"),
            "category": "gender",
            "k": 20,
            "pool_size": 20,
            "max_iterations": 5,
            "refiner": "lexicon",
            "lexicon": str(data / "lexicon.json"),
            "template": str(template),
            "base_url": "http://llm.invalid/v1",
            "model": "m",
            "temperature": 0.3,
            "targets": str(targets),
            "out": str(out),
            "index_file": str(tmp_path / "idx.npz"),
            "seed": 42,
            "jobs": 1,
            "mmr_lambda": 0.5,
        }
        assert set(config) == set(CONFIG_FIELDS)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["index", "--config", str(config_path)]) == 0
        assert main(["run", "bm25", "--config", str(config_path)]) == 0
        assert (out / "run-bm25.txt").read_bytes() == (
            workspace["runs"] / "run-bm25.txt").read_bytes()
        assert main(["eval", str(out / "run-bm25.txt"),
                     "--config", str(config_path)]) == 0
        report = json.loads((out / "report-run-bm25.json").read_text())
        assert [row["query_id"] for row in report["rows"]] == ["q00"]

    @pytest.mark.parametrize("mode, loaded, field", [
        ("mmr", {"k": "20"}, "k"),
        ("bm25", {"jobs": "2"}, "jobs"),
        ("bm25", {"pool_size": 20.0}, "pool_size"),
        ("bm25", {"pool_size": True}, "pool_size"),
        ("mmr", {"mmr_lambda": False}, "mmr_lambda"),
        ("mmr", {"mmr_lambda": "0.5"}, "mmr_lambda"),
        ("bm25", {"out": 5}, "out"),
        ("bm25", {"seed": None}, "seed"),
        ("bm25", ["k"], None),
        ("bm25", 5, None),
        ("bm25", {"kk": 3}, "kk"),                   # no such field
    ])
    def test_config_value_of_wrong_type_is_usage_error(
            self, workspace, tmp_path, capsys, mode, loaded, field):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(loaded))
        args = ["run", mode, "--config", str(config_path)] + workspace["common"]
        args[args.index(str(workspace["runs"]))] = str(tmp_path / "out")
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {config_path}: ")
        assert repr(field) in err if field else "JSON object" in err
        assert not (tmp_path / "out").exists()

    def test_config_accepts_an_int_for_a_float(self, workspace, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"mmr_lambda": 1}))
        args = ["run", "mmr", "--config", str(config_path)] + workspace["common"]
        args[args.index(str(workspace["runs"]))] = str(tmp_path)
        assert main(args) == 0
        # lambda 1 is relevance order: the bm25 run's documents
        mmr = parse_run(tmp_path / "run-mmr.txt")
        bm25 = parse_run(workspace["runs"] / "run-bm25.txt")
        assert {q: r.ids for q, r in mmr.items()} == {
            q: r.ids for q, r in bm25.items()}

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        data = workspace["data"]
        config = {
            "corpus": str(data / "corpus.jsonl"),
            "schema": str(data / "schema.json"),
            "queries": str(data / "queries.tsv"),
            "qrels": str(data / "qrels.txt"),
            "pool_size": 20,
            "out": str(tmp_path / "wrong"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        # --out overrides the config file value
        assert main(["run", "bm25", "--config", str(config_path),
                     "--out", str(tmp_path / "right")]) == 0
        assert (tmp_path / "right" / "run-bm25.txt").exists()
        assert not (tmp_path / "wrong").exists()
