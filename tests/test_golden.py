"""Golden outputs: the sha256 of every run file, trace and report of one
fixed experiment.

The experiment is `fairqr gen --docs 2000 --topics 20 --skew 0.6 --seed 7`;
then `run bm25`, `run mmr`, `run fairqr --pool-size 20` and
`run fairqr-norerank --pool-size 20`, each into its own `--out`; then
`eval run-fairqr.txt --run-b run-bm25.txt`. Every path is relative, since a
report names its comparison run. A change that moves an output on purpose
says why, and replaces GOLDEN with the digests this test prints on failure.
"""
import hashlib
import json

from fairqr.cli import main

GOLDEN = {
    "bm25/run-bm25.txt": "5da82de65de6fa0cc3cec88222d03da9f501f20d2826146f190bf1a8995a39f0",
    "eval/report-run-fairqr.json": "43db2a6f4489e95f75bf9527857617489ee674866f02fb8c9f623f48fb872ce3",
    "eval/report-run-fairqr.txt": "defef3adddec52dcc5888e12a801b705c380b6dd4a4ca4608cd71fc910dcc900",
    "fairqr/run-fairqr.txt": "0b8f3021f30f5b5c045b07afdb095f99370b0cda74fe709ce85e72e105a179e8",
    "fairqr/traces/q00.json": "e76f6e6578c0f80e4ed054dd3c3006996049f12299f4aa1d2f830d92829cc307",
    "fairqr/traces/q01.json": "32ff5272d36d54bb7f425745e12b5ff2a07cac240edbf111bc03c3ba98716cc9",
    "fairqr/traces/q02.json": "175672e4e235938af1b16a998fcaa28309d2d084d77e26a7c1df7436235b6f10",
    "fairqr/traces/q03.json": "e023d86aa92170c4804081ea5ed016cf91f1db7ebb01de5dbbff10aabfb55034",
    "fairqr/traces/q04.json": "0527c5261c59b04edb0232f984cb128ce17ecc83884ff095078694fd35a819b6",
    "fairqr/traces/q05.json": "84ca9455ce42301a329aa91bee65989747ca52fe03e058a580f6436a95b7db75",
    "fairqr/traces/q06.json": "7e7efe9453913a89ad8d0776594e3047ac4d53fd3232638eb8ff38dbc82e0ada",
    "fairqr/traces/q07.json": "badc9d86cb6e6efed4c0931e4f9309e53745ebd2aa515fb97126f51f2f576c54",
    "fairqr/traces/q08.json": "23b38af870a8cc17a12f9ea4b02f692807234004800517f90b23c9d35c234daf",
    "fairqr/traces/q09.json": "ce003daa3560fb65e6c312d1d48a87070f856052b105a50bde3d4ccc0276802a",
    "fairqr/traces/q10.json": "5b851ea00c3ca02d802f2f949cfcfdbaac5dd3eaa1a1f3d81bd979c801b1cef1",
    "fairqr/traces/q11.json": "9debe2d9dff5fed3af870907f82ab5dc87f839afb8bf485ae751bf4b51d75081",
    "fairqr/traces/q12.json": "f0143bb06f3b8b64ce9a01e84451dff0f5e9136a0442b149a7d62b95cafba0da",
    "fairqr/traces/q13.json": "93a6a674146f7dc017467b7ad69eb463718efc13f05775919fd85b3cf2493af9",
    "fairqr/traces/q14.json": "fa77ebd9fcf2961f4163d0df7742865b974761e141ad3c82dab99dcf96a54dd9",
    "fairqr/traces/q15.json": "2a41dc5ef44c9b45eb87d1873dd5e3bcd8a5c10762dd7bc26663e3db172761c2",
    "fairqr/traces/q16.json": "36688fa1de79f69e3d7b874986792961414237a39ab11e2105a011eaa946c03f",
    "fairqr/traces/q17.json": "c172b33a4fe5df535f46ec91a0d9808d09aa69a01027e2041d7993c309fb845f",
    "fairqr/traces/q18.json": "5019d3ce32ed53f2033d116474b7f170abbb7448c235761fbc12183ce80a0ea0",
    "fairqr/traces/q19.json": "e81eca92259bafa3520d1541b9ab90759d721308984addb82cf94fde72870dca",
    "fairqr-norerank/run-fairqr-norerank.txt": "4dd0aa00b1e68be01c26f35e2e8e75341b67a5af8eb384d099aaff68f72a2ac0",
    "fairqr-norerank/traces/q00.json": "e76f6e6578c0f80e4ed054dd3c3006996049f12299f4aa1d2f830d92829cc307",
    "fairqr-norerank/traces/q01.json": "32ff5272d36d54bb7f425745e12b5ff2a07cac240edbf111bc03c3ba98716cc9",
    "fairqr-norerank/traces/q02.json": "175672e4e235938af1b16a998fcaa28309d2d084d77e26a7c1df7436235b6f10",
    "fairqr-norerank/traces/q03.json": "e023d86aa92170c4804081ea5ed016cf91f1db7ebb01de5dbbff10aabfb55034",
    "fairqr-norerank/traces/q04.json": "0527c5261c59b04edb0232f984cb128ce17ecc83884ff095078694fd35a819b6",
    "fairqr-norerank/traces/q05.json": "84ca9455ce42301a329aa91bee65989747ca52fe03e058a580f6436a95b7db75",
    "fairqr-norerank/traces/q06.json": "7e7efe9453913a89ad8d0776594e3047ac4d53fd3232638eb8ff38dbc82e0ada",
    "fairqr-norerank/traces/q07.json": "badc9d86cb6e6efed4c0931e4f9309e53745ebd2aa515fb97126f51f2f576c54",
    "fairqr-norerank/traces/q08.json": "23b38af870a8cc17a12f9ea4b02f692807234004800517f90b23c9d35c234daf",
    "fairqr-norerank/traces/q09.json": "ce003daa3560fb65e6c312d1d48a87070f856052b105a50bde3d4ccc0276802a",
    "fairqr-norerank/traces/q10.json": "5b851ea00c3ca02d802f2f949cfcfdbaac5dd3eaa1a1f3d81bd979c801b1cef1",
    "fairqr-norerank/traces/q11.json": "9debe2d9dff5fed3af870907f82ab5dc87f839afb8bf485ae751bf4b51d75081",
    "fairqr-norerank/traces/q12.json": "f0143bb06f3b8b64ce9a01e84451dff0f5e9136a0442b149a7d62b95cafba0da",
    "fairqr-norerank/traces/q13.json": "93a6a674146f7dc017467b7ad69eb463718efc13f05775919fd85b3cf2493af9",
    "fairqr-norerank/traces/q14.json": "fa77ebd9fcf2961f4163d0df7742865b974761e141ad3c82dab99dcf96a54dd9",
    "fairqr-norerank/traces/q15.json": "2a41dc5ef44c9b45eb87d1873dd5e3bcd8a5c10762dd7bc26663e3db172761c2",
    "fairqr-norerank/traces/q16.json": "36688fa1de79f69e3d7b874986792961414237a39ab11e2105a011eaa946c03f",
    "fairqr-norerank/traces/q17.json": "c172b33a4fe5df535f46ec91a0d9808d09aa69a01027e2041d7993c309fb845f",
    "fairqr-norerank/traces/q18.json": "5019d3ce32ed53f2033d116474b7f170abbb7448c235761fbc12183ce80a0ea0",
    "fairqr-norerank/traces/q19.json": "e81eca92259bafa3520d1541b9ab90759d721308984addb82cf94fde72870dca",
    "mmr/run-mmr.txt": "9cef2535c822215a1421e719fb548130dfce4f6ae27b7d9ae16067784a760ff0",
}


def test_outputs_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--out", "data", "--docs", "2000", "--topics", "20",
                 "--skew", "0.6", "--seed", "7"]) == 0
    data = ["--corpus", "data/corpus.jsonl", "--schema", "data/schema.json"]
    common = data + ["--queries", "data/queries.tsv",
                     "--qrels", "data/qrels.txt",
                     "--lexicon", "data/lexicon.json"]
    for mode, flags in (("bm25", []), ("mmr", []),
                        ("fairqr", ["--pool-size", "20"]),
                        ("fairqr-norerank", ["--pool-size", "20"])):
        assert main(["run", mode, "--out", mode] + common + flags) == 0
    assert main(["eval", "fairqr/run-fairqr.txt",
                 "--run-b", "bm25/run-bm25.txt", "--qrels", "data/qrels.txt",
                 "--out", "eval"] + data) == 0
    capsys.readouterr()
    digests = {
        path.relative_to(tmp_path).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file() and path.parts[len(tmp_path.parts)] != "data"
    }
    assert len(digests) == 4 + 2 * 20 + 2  # runs, traces, reports
    assert digests == GOLDEN, ("new digests:\n"
                               + json.dumps(digests, indent=4))
