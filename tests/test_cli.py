import json
import os
import socket
import subprocess
import sys

import pytest

import fairqr
from fairqr.cli import main
from fairqr.corpus import load_corpus
from fairqr.index import build_index, load_index, retrieve
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

        monkeypatch.setattr("fairqr.llm._requests_transport", down)
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
            assert trace["terminal_reason"] == "no-decrease"
            assert trace["error"].startswith("RefinerError: chat completion")
            assert "endpoint down" in trace["error"]

    @pytest.mark.parametrize("mode", ["bm25", "mmr", "fairqr"])
    @pytest.mark.parametrize("line", ["q00\t!!!", "q00 topic00",
                                      "q01\ttopic00"])
    def test_bad_query_line_is_data_error(self, workspace, tmp_path, capsys,
                                          mode, line):
        queries = tmp_path / "queries.tsv"
        queries.write_text(f"q01\ttopic01\n{line}\n")
        args = ["run", mode] + workspace["common"] + [
            "--queries", str(queries), "--out", str(tmp_path / "runs")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(queries) in err and "line 2" in err
        assert f"'{line[:3]}" in err
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

    @pytest.mark.parametrize("masses", [
        {"male": 0.4, "female": 0.2},                # sums to 0.6
        {"male": 0.5, "female": 0.3, "other": 0.2},  # label outside schema
        ["male"],                                    # not subgroup masses
    ])
    def test_invalid_explicit_target_is_data_error(self, workspace, tmp_path,
                                                   capsys, masses):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"q03": {"gender": masses}}))
        args = (["run", "fairqr", "--targets", str(targets)]
                + workspace["common"])
        args[args.index(str(workspace["runs"]))] = str(tmp_path / "runs")
        assert main(args) == 2
        assert "'q03'" in capsys.readouterr().err

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
        assert named in capsys.readouterr().err


class TestEvalCmd:
    def test_self_comparison_t_zero(self, workspace, tmp_path, capsys):
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
            assert metric["t"] == 0.0
            assert metric["p"] == 1.0

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


class TestStartup:
    def test_import_loads_neither_scipy_nor_requests(self):
        src = os.path.dirname(os.path.dirname(fairqr.__file__))
        code = ("import sys, fairqr, fairqr.cli; print(sorted({m.split('.')[0]"
                " for m in sys.modules} & {'scipy', 'requests'}))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "[]"


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
        ("fairqr", ["--weighting", "bogus"]),
        ("mmr", ["--mmr-lambda", "2"]),
        ("bm25", ["--pool-size", "0"]),
    ])
    def test_bad_option_value_is_usage_error(self, workspace, tmp_path,
                                             capsys, mode, flags):
        args = ["run", mode] + workspace["common"] + flags
        args[args.index(str(workspace["runs"]))] = str(tmp_path)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "Traceback" not in err

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
