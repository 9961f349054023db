"""Seeded inputs for each workload, generated in a child process and cached.

Run as a script, it writes one input set:
    python3 bench/inputs.py <workload> <size> <seed> <out_dir>
The files are the ones `fairqr gen` writes (corpus.jsonl, schema.json,
queries.tsv, qrels.txt, lexicon.json), written by this file's own code from
`fairqr.synthetic.generate`; refine-lexicon also gets index.json, saved by
fairqr's `build_index` and `save_index`, so that its set-up reads an index;
mmr-large keeps only the size of that file (index_bytes.txt), since saving
the 200k-document index takes seconds and its set-up builds the index anyway.

`prepare()` caches input sets under .bench_work/inputs, keyed by workload,
size, seed and a hash of the fairqr sources and this file, because the
200k-document corpus takes about 18 s to generate.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

# Subgroup shares of every corpus: three subgroups plus Unknown.
PROPORTIONS = {"female": 0.6, "male": 0.25, "nonbinary": 0.15}
CATEGORY = "gender"

SPECS = {
    "full": {
        "refine-lexicon": dict(doc_count=20000, topic_count=200, skew=0.6),
        "mmr-large": dict(doc_count=200000, topic_count=2000, skew=0.6),
        "cli-llm-eval": dict(doc_count=10000, topic_count=100, skew=0.6),
    },
    "tiny": {
        "refine-lexicon": dict(doc_count=600, topic_count=6, skew=0.6),
        "mmr-large": dict(doc_count=1200, topic_count=12, skew=0.6),
        "cli-llm-eval": dict(doc_count=400, topic_count=4, skew=0.6),
    },
}
CACHE_KEEP = 12  # input sets kept per workload: more than one set of seeds


def spec_for(workload: str, size: str, seed: int):
    from fairqr.synthetic import SkewSpec
    return SkewSpec(seed=seed, category=CATEGORY, proportions=dict(PROPORTIONS),
                    **SPECS[size][workload])


def write_inputs(workload: str, size: str, seed: int, out: Path) -> None:
    from fairqr.synthetic import generate
    spec = spec_for(workload, size, seed)
    records, queries, qrels_rows, lexicon = generate(spec)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    with open(out / "schema.json", "w", encoding="utf-8") as fh:
        json.dump({spec.category: list(spec.subgroups)}, fh)
    with open(out / "queries.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{q}\t{text}\n" for q, text in queries)
    with open(out / "qrels.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{q} 0 {d} {g}\n" for q, d, g in sorted(qrels_rows))
    with open(out / "lexicon.json", "w", encoding="utf-8") as fh:
        json.dump(lexicon, fh, sort_keys=True)
    del records
    if workload != "cli-llm-eval":
        from fairqr.corpus import load_corpus
        from fairqr.index import build_index, save_index
        store = load_corpus(out / "corpus.jsonl", out / "schema.json")
        save_index(build_index(store), out / "index.json")
        if workload == "mmr-large":
            # mmr-large builds its index in memory; only the size is kept.
            size = (out / "index.json").stat().st_size
            (out / "index_bytes.txt").write_text(f"{size}\n")
            (out / "index.json").unlink()


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fairqr").glob("*.py")) + [Path(__file__)]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def prepare(workload: str, size: str, seed: int) -> Path:
    """Directory holding the workload's inputs for this seed, made if absent."""
    cache = WORK / "inputs"
    final = cache / f"{workload}-{size}-s{seed}-{_source_hash()}"
    if (final / "done").exists():
        os.utime(final / "done")
        return final
    tmp = cache / f".tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    subprocess.run(
        [sys.executable, str(Path(__file__)), workload, size, str(seed), str(tmp)],
        check=True, env=child_env(), cwd=ROOT, timeout=170,
    )
    (tmp / "done").write_text("")
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)
    sets = sorted(cache.glob(f"{workload}-*"),
                  key=lambda p: (p / "done").stat().st_mtime
                  if (p / "done").exists() else 0.0)
    for old in sets[:-CACHE_KEEP]:
        if old != final:
            shutil.rmtree(old, ignore_errors=True)
    return final


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    write_inputs(sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
