"""Hot-term salted repartitioning (north_rule skew handling).

A build with salting enabled must be semantically identical to the unsalted
build: same term inventory, same df/cf, same decoded postings, bit-identical
top-k scores — the only difference is the physical grouping of the shuffle
(hot terms merged per doc-range sub-group, concatenated in the finalize
pass). Also validates every stored block max_score is a true upper bound.
"""

import shutil

from unittest import mock

import numpy as np
import pyarrow.parquet as pq
import pytest

from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index
from nmr_fair_dos_ray.search.bm25 import bm25_term_scores
from nmr_fair_dos_ray.search import engine
from nmr_fair_dos_ray.search.engine import IndexReader, Searcher

BASE = dict(
    token_cols=("path", "lang"),
    field_cols=("repo", "lang"),
    stored_cols=("repo", "path"),
    num_shards=4,
)
DIR_PLAIN = "/tmp/nmr_fair_dos_ray/test_index_plain"
DIR_SALT = "/tmp/nmr_fair_dos_ray/test_index_salted"


@pytest.fixture(scope="module")
def both_indexes(sf_unit):
    shutil.rmtree(DIR_PLAIN, ignore_errors=True)
    shutil.rmtree(DIR_SALT, ignore_errors=True)
    cfg_plain = IndexConfig(salt_hot_terms=False, **BASE)
    # tiny threshold so plenty of terms actually go through the salted path
    cfg_salt = IndexConfig(salt_hot_terms=True, hot_df_threshold=8, n_salts=3, **BASE)
    build_index(sf_unit["corpus"], DIR_PLAIN, cfg_plain)
    man = build_index(sf_unit["corpus"], DIR_SALT, cfg_salt)
    return IndexReader(DIR_PLAIN), IndexReader(DIR_SALT), man, sf_unit


def test_salting_triggered(both_indexes):
    _, _, man, _ = both_indexes
    assert man["stages"]["hot"]["n_hot"] > 0, "fixture corpus must have hot terms"
    assert man["stages"]["hotmerge"]["status"] == "done"


def test_same_term_inventory_and_postings(both_indexes):
    plain, salted, _, _ = both_indexes
    assert set(plain.terms) == set(salted.terms)
    for term, entry in plain.terms.items():
        s_entry = salted.terms[term]
        assert entry["df"] == s_entry["df"], term
        d1, t1 = plain.postings(term)
        d2, t2 = salted.postings(term)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(t1, t2)


def test_block_max_is_true_upper_bound(both_indexes):
    from nmr_fair_dos_ray.codec import decode_block

    _, salted, _, _ = both_indexes
    for term, entry in salted.terms.items():
        idf = salted.idf(term)
        for blk in entry["blocks"]:
            docs, tfs = decode_block(blk)
            scores = bm25_term_scores(
                tfs, salted.doclens(docs), idf, salted.k1, salted.b, salted.avgdl
            )
            # exact: score == idf * tf_norm bit-identically (bm25.py keeps
            # the same float64 association as the stored bound)
            assert scores.max() <= blk["max_score"], term


def test_window_bounds_are_true_upper_bounds(both_indexes, window_bounds_cover_scores):
    plain, salted, _, sf = both_indexes
    queries = [r["query"] for r in pq.read_table(sf["queries"]).to_pylist()]
    queries += ["def return self config", "user name merge get"]
    for r in (plain, salted):
        window_bounds_cover_scores(Searcher(r), queries)


def test_identical_topk(both_indexes):
    plain, salted, _, sf = both_indexes
    queries = [r["query"] for r in pq.read_table(sf["queries"]).to_pylist()]
    sp, ss = Searcher(plain), Searcher(salted)
    for q in queries:
        want = sp.search(q, k=10)
        assert ss.search(q, k=10) == want, q
        with mock.patch.object(engine, "WINDOW_POSTINGS", 16):
            assert ss.search(q, k=10) == want, q


def test_salted_resume_identical(both_indexes, sf_unit, durable_writes):
    """Crash after phase 2 (cold shards and salted hot parts durable, their
    hot merge not written); resume must finish to the same inventory
    without redoing a recorded merge (the manifest-driven skip covers the
    hot path too), and then drop the hot parts."""
    import os

    _, salted, _, _ = both_indexes
    dir_resume = "/tmp/nmr_fair_dos_ray/test_index_salted_resume"
    shutil.rmtree(dir_resume, ignore_errors=True)
    cfg = IndexConfig(salt_hot_terms=True, hot_df_threshold=8, n_salts=3, **BASE)
    durable_writes.crash_at("shard_hot.parquet", 1)
    with pytest.raises(durable_writes.error):
        build_index(sf_unit["corpus"], dir_resume, cfg)
    hot_dir = os.path.join(dir_resume, "hotparts")
    assert os.listdir(hot_dir)
    shards_dir = os.path.join(dir_resume, "shards")
    cold = {f: os.stat(os.path.join(shards_dir, f)).st_mtime_ns
            for f in os.listdir(shards_dir) if f.endswith(".parquet")}
    assert "shard_hot.parquet" not in cold and len(cold) == cfg.num_shards
    build_index(sf_unit["corpus"], dir_resume, cfg, resume=True)
    for f, mtime in cold.items():
        assert os.stat(os.path.join(shards_dir, f)).st_mtime_ns == mtime, f
    assert not os.path.exists(hot_dir)
    resumed = IndexReader(dir_resume)
    assert set(resumed.terms) == set(salted.terms)
    for term in salted.terms:
        d1, t1 = salted.postings(term)
        d2, t2 = resumed.postings(term)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(t1, t2)


def test_hot_bucket_count_follows_volume(sf_unit, tmp_path):
    """Hot run-buckets follow the estimated hot posting volume (≈250k
    postings per task), at least ``n_salts`` and at most the number of
    runs: this corpus's hot volume asks for one bucket, so n_salts=3 gives
    3 parts, the default (1) gives one and n_salts=8 is capped at the 4
    runs."""
    corpus = pq.read_table(sf_unit["corpus"])
    src = tmp_path / "src"
    src.mkdir()
    for i, rows in enumerate(np.array_split(np.arange(corpus.num_rows), 4)):
        pq.write_table(corpus.take(rows), src / f"part_{i:03d}.parquet")
    assert IndexConfig().n_salts == 1
    for n_salts, want in ((3, 3), (None, 1), (8, 4)):
        kw = {} if n_salts is None else {"n_salts": n_salts}
        cfg = IndexConfig(salt_hot_terms=True, hot_df_threshold=8, **kw, **BASE)
        man = build_index(str(src), str(tmp_path / f"idx_{n_salts}"), cfg)
        hot = man["stages"]["hot"]
        assert hot["n_hot"] > 0 and hot["est_hot_postings"] < 250_000
        assert hot["n_buckets"] == want
        hot_parts = [k for k in man["stages"]["shards"]["partitions"]
                     if int(k) >= cfg.num_shards]
        assert len(hot_parts) == want
