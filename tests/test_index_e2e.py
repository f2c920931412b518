"""End-to-end conformance: Ray-built index vs pure-Python oracle (SURVEY.md §5).

- rank-identical top-k with bit-equal float64 scores for every fixture query,
  scored in one pass and in block-max-pruned doc windows;
- full index inventory equality (terms, df, postings, doclens);
- per-row sha256 invariant through ingest (BASELINE.json input_hint);
- partitioning-independence: different shard counts ⇒ identical results;
- resume: partial outputs rebuild to identical results.
"""

import json
import os
import shutil

from unittest import mock

import numpy as np
import pyarrow.parquet as pq
import pytest

from nmr_fair_dos_ray.oracle import oracle_from_parquet
from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index
from nmr_fair_dos_ray.search import engine
from nmr_fair_dos_ray.search.engine import IndexReader, QueryScorer, Searcher

CFG = IndexConfig(
    token_cols=("path", "lang"),
    field_cols=("repo", "path", "lang"),
    stored_cols=("repo", "path", "commit", "lang"),
    num_shards=8,
)
IDX_DIR = "/tmp/nmr_fair_dos_ray/test_index_unit"


@pytest.fixture(scope="session")
def built_index(sf_unit):
    shutil.rmtree(IDX_DIR, ignore_errors=True)
    man = build_index(sf_unit["corpus"], IDX_DIR, CFG)
    return IDX_DIR, man, sf_unit


@pytest.fixture(scope="session")
def oracle(sf_unit):
    return oracle_from_parquet(
        [sf_unit["corpus"]],
        token_cols=("path", "lang"),
        field_cols=("repo", "path", "lang"),
    )


def test_stats_match_oracle(built_index, oracle):
    _, man, _ = built_index
    assert man["stats"]["n_docs"] == oracle.n_docs
    assert man["stats"]["avgdl"] == pytest.approx(oracle.avgdl, abs=0)


def test_full_inventory_matches_oracle(built_index, oracle):
    idx_dir, _, _ = built_index
    r = IndexReader(idx_dir)
    assert set(r.terms) == set(oracle.postings)
    for term, plist in oracle.postings.items():
        assert r.terms[term]["df"] == len(plist), term
        docs, tfs = r.postings(term)
        assert list(zip(docs.tolist(), tfs.tolist())) == plist, term
    # doclens
    for doc, dl in oracle.doclen.items():
        assert int(r.doclens(np.array([doc]))[0]) == dl


def test_sha256_invariant(built_index, oracle):
    idx_dir, _, fx = built_index
    import hashlib

    docs = pq.read_table(os.path.join(idx_dir, "docs"), columns=["doc_id", "sha256"])
    got = dict(zip(docs["doc_id"].to_pylist(), docs["sha256"].to_pylist()))
    corpus = pq.read_table(fx["corpus"], columns=["content"])
    for i, content in enumerate(corpus["content"].to_pylist()):
        expect = hashlib.sha256((content or "").encode("utf-8")).hexdigest()
        assert got[i] == expect
    assert got == oracle.sha256


@pytest.mark.parametrize("budget", [engine.WINDOW_POSTINGS, 16], ids=["taat", "windows"])
def test_topk_rank_identical(built_index, oracle, budget):
    """The fixture queries fit one window at the default budget; at 16
    live postings per window the larger ones split into many."""
    idx_dir, _, fx = built_index
    s = Searcher(IndexReader(idx_dir))
    queries = pq.read_table(fx["queries"]).to_pylist()
    assert queries, "query fixture empty"
    for q in queries:
        expect = oracle.search(q["query"], k=q["k"])
        with mock.patch.object(engine, "WINDOW_POSTINGS", budget):
            got = s.search(q["query"], k=q["k"])
        assert got == expect, (q, got[:3], expect[:3])


def test_rare_terms_retrievable(built_index, oracle):
    """Every single-occurrence term is retrievable at rank 1 (FIXTURES.md §1)."""
    idx_dir, _, _ = built_index
    s = Searcher(IndexReader(idx_dir))
    rare = [
        t
        for t, pl in oracle.postings.items()
        if t.startswith("uniqrare") and t.endswith("qz") and len(pl) == 1
    ]
    assert rare
    for t in rare:
        doc = oracle.postings[t][0][0]
        # retrievable = present in the result set (rank depends on doc length
        # normalization since identifier parts match sibling docs)
        hits = s.search(t, k=oracle.n_docs)
        assert doc in [d for d, _ in hits], (t, hits[:3])


def test_shard_count_independence(built_index, oracle, sf_unit):
    """Different partitioning (num_shards) ⇒ bit-identical search results."""
    idx2 = "/tmp/nmr_fair_dos_ray/test_index_unit_s3"
    shutil.rmtree(idx2, ignore_errors=True)
    cfg2 = IndexConfig(**{**CFG.to_dict(), "token_cols": CFG.token_cols,
                          "field_cols": CFG.field_cols, "stored_cols": CFG.stored_cols,
                          "num_shards": 3})
    build_index(sf_unit["corpus"], idx2, cfg2)
    s1 = Searcher(IndexReader(built_index[0]))
    s2 = Searcher(IndexReader(idx2))
    queries = pq.read_table(sf_unit["queries"]).to_pylist()
    for q in queries:
        assert s1.search(q["query"], k=q["k"]) == s2.search(q["query"], k=q["k"])


def test_resume_partial_build(built_index, sf_unit, durable_writes):
    """Kill-and-resume: a build that crashes at any of its manifest
    writes resumes to identical stats and query results, and once the
    invert log is durable the resume re-inverts nothing; a finished index
    that lost a shard file rebuilds it (SURVEY.md §5 item 4)."""
    idx_dir, man, _ = built_index
    idx3 = "/tmp/nmr_fair_dos_ray/test_index_resume"
    s1 = Searcher(IndexReader(idx_dir))
    queries = pq.read_table(sf_unit["queries"]).to_pylist()[:20]
    shutil.rmtree(idx3, ignore_errors=True)
    build_index(sf_unit["corpus"], idx3, CFG)  # counts the manifest writes
    n_writes = durable_writes.counts["manifest.json"]
    assert n_writes >= 4
    docs_dir = os.path.join(idx3, "docs")
    for n in range(1, n_writes + 1):
        shutil.rmtree(idx3)
        durable_writes.crash_at("manifest.json", n)
        with pytest.raises(durable_writes.error):
            build_index(sf_unit["corpus"], idx3, CFG)
        docs = {f: os.stat(os.path.join(docs_dir, f)).st_mtime_ns
                for f in os.listdir(docs_dir)} if os.path.isdir(docs_dir) else {}
        assert bool(docs) == (n > 1), n  # the invert log lands before write 2
        man3 = build_index(sf_unit["corpus"], idx3, CFG)
        assert man3["stats"]["n_docs"] == man["stats"]["n_docs"]
        assert man3["stats"]["avgdl"] == man["stats"]["avgdl"]
        for f, mtime in docs.items():
            assert os.stat(os.path.join(docs_dir, f)).st_mtime_ns == mtime, (n, f)
        assert not os.path.exists(os.path.join(idx3, "runs"))
        s3 = Searcher(IndexReader(idx3))
        for q in queries:
            assert s1.search(q["query"], k=q["k"]) == s3.search(q["query"], k=q["k"])
    # a finished index keeps no runs: losing one of its shard files makes
    # the next resume rebuild the index, shard included
    lost = os.path.join(idx3, "shards", "shard_00002.parquet")
    os.remove(lost)
    man3 = build_index(sf_unit["corpus"], idx3, CFG)
    assert os.path.exists(lost)
    assert man3["stats"]["n_docs"] == man["stats"]["n_docs"]
    assert man3["stats"]["avgdl"] == man["stats"]["avgdl"]
    r3 = IndexReader(idx3)
    assert set(r3.terms) == set(IndexReader(idx_dir).terms)
    s3 = Searcher(r3)
    for q in queries:
        assert s1.search(q["query"], k=q["k"]) == s3.search(q["query"], k=q["k"])


def test_config_change_invalidates_resume(sf_unit):
    """A config change must not silently reuse stale partitions."""
    idx4 = "/tmp/nmr_fair_dos_ray/test_index_cfgchange"
    shutil.rmtree(idx4, ignore_errors=True)
    build_index(sf_unit["corpus"], idx4, CFG)
    cfg_simple = IndexConfig(**{**CFG.to_dict(), "token_cols": CFG.token_cols,
                                "field_cols": CFG.field_cols, "stored_cols": CFG.stored_cols,
                                "tokenizer_mode": "simple"})
    man = build_index(sf_unit["corpus"], idx4, cfg_simple)
    assert man["config"]["tokenizer_mode"] == "simple"
    r = IndexReader(idx4)
    # simple mode never emits underscore-bearing terms from content
    assert not any("_" in t and not t.startswith(("repo:", "path:", "lang:")) for t in r.terms)


def test_query_scorer_actor_pool(built_index, oracle, sf_unit):
    import ray.data as rd

    idx_dir, _, fx = built_index
    qds = rd.read_parquet(fx["queries"])
    out = qds.map_batches(
        QueryScorer,
        fn_constructor_kwargs={"index_dir": idx_dir},
        concurrency=2,
        batch_format="pyarrow",
    ).take_all()
    by_q: dict[int, list] = {}
    for row in out:
        by_q.setdefault(row["query_id"], []).append((row["rank"], row["doc_id"], row["score"]))
    queries = pq.read_table(fx["queries"]).to_pylist()
    for q in queries:
        expect = [
            (i + 1, d, s) for i, (d, s) in enumerate(oracle.search(q["query"], k=q["k"]))
        ]
        got = sorted(by_q.get(q["query_id"], []))
        assert got == expect, q


def test_fetch_docs_statistics_pruned(built_index, sf_unit):
    """J6 fetch phase: stored columns for specific doc_ids, values equal to
    the source corpus; unknown/tombstone-style ids simply don't appear."""
    import pyarrow.parquet as pq_

    from nmr_fair_dos_ray.search.engine import fetch_docs

    idx, _, _ = built_index
    corpus = pq_.read_table(sf_unit["corpus"]).to_pandas()
    if "doc_id" not in corpus.columns:
        corpus = corpus.reset_index().rename(columns={"index": "doc_id"})
    want_ids = [3, 7, 42, 199, 10**9]  # last id is out of range
    got = fetch_docs(idx, want_ids, columns=["repo", "path"]).to_pandas()
    assert got["doc_id"].tolist() == [3, 7, 42, 199]
    for _, row in got.iterrows():
        src = corpus[corpus["doc_id"] == row["doc_id"]].iloc[0]
        assert row["repo"] == src["repo"] and row["path"] == src["path"]
    # column pruning: only requested columns + doc_id come back
    assert sorted(got.columns) == ["doc_id", "path", "repo"]


def test_fetch_docs_excludes_tombstoned(sf_unit, tmp_path):
    """ES GET-after-DELETE 404 semantics: fetch never returns deleted docs
    even before compaction physically removes them from the doc store."""
    from nmr_fair_dos_ray.pipelines.lifecycle import delete_docs
    from nmr_fair_dos_ray.search.engine import fetch_docs

    idx = str(tmp_path / "idx")
    build_index(sf_unit["corpus"], idx, CFG)
    delete_docs(idx, [3, 7])
    got = fetch_docs(idx, [3, 7, 11], columns=["repo"]).to_pandas()
    assert got["doc_id"].tolist() == [11]
    # all-deleted request: typed empty result
    got2 = fetch_docs(idx, [3, 7], columns=["repo"]).to_pandas()
    assert len(got2) == 0 and list(got2.columns) == ["doc_id", "repo"]
