"""Champion-list threshold seeding (static-pruning experiment).

An index built with ``IndexConfig.champion_m > 0`` stores, per term, the
doc_ids of its top-m postings by impact. The searcher uses them to seed
the windowed scorer's top-k threshold with exactly-scored candidates before
any window is scored. The contract: results are BIT-IDENTICAL to the
unseeded engine for every query/k — champions only change how many
postings window skipping saves, never the ranking.
"""

import shutil
from unittest import mock

import numpy as np
import pyarrow.parquet as pq
import pytest

from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index
from nmr_fair_dos_ray.search.bm25 import bm25_tf_norm
from nmr_fair_dos_ray.search import engine
from nmr_fair_dos_ray.search.engine import IndexReader, Searcher

BASE = dict(
    token_cols=("path", "lang"),
    field_cols=("repo", "lang"),
    stored_cols=("repo", "path"),
    num_shards=4,
)
DIR_OFF = "/tmp/nmr_fair_dos_ray/test_index_champ_off"
DIR_ON = "/tmp/nmr_fair_dos_ray/test_index_champ_on"
DIR_ON_SALT = "/tmp/nmr_fair_dos_ray/test_index_champ_salt"
M = 8  # small m so seed-rejection and sub-k champion lists both occur


@pytest.fixture(scope="module")
def champ_indexes(sf_unit):
    for d in (DIR_OFF, DIR_ON, DIR_ON_SALT):
        shutil.rmtree(d, ignore_errors=True)
    build_index(sf_unit["corpus"], DIR_OFF, IndexConfig(**BASE))
    # df_min=1: exhaustive champion coverage so parity tests exercise every
    # term; the default (4*m) Zipf-tail cutoff is covered by its own test
    build_index(
        sf_unit["corpus"], DIR_ON,
        IndexConfig(champion_m=M, champion_df_min=1, **BASE),
    )
    # tiny hot threshold: champions must survive the salted doc-range merge
    build_index(
        sf_unit["corpus"], DIR_ON_SALT,
        IndexConfig(champion_m=M, champion_df_min=1, salt_hot_terms=True,
                    hot_df_threshold=8, n_salts=3, **BASE),
    )
    return IndexReader(DIR_OFF), IndexReader(DIR_ON), IndexReader(DIR_ON_SALT), sf_unit


def _queries(fx) -> list[str]:
    qs = [r["query"] for r in pq.read_table(fx["queries"]).to_pylist()]
    qs += [
        "def return self",
        "the the the",
        "getUserName merge",
        "repo:repo1 def",
        "lang:python def class self import return value",
        "zz_unseen_term",
    ]
    return qs


def test_champion_columns_present(champ_indexes):
    r_off, r_on, r_salt, _ = champ_indexes
    assert not r_off.has_champions
    assert r_on.has_champions and r_salt.has_champions
    # every term has 1..M champions
    lens = np.diff(r_on._c_off)
    assert lens.min() >= 1 and lens.max() <= M
    assert len(lens) == len(r_on._terms_arr)


def test_champions_are_top_m_by_impact(champ_indexes):
    """Champions must equal a direct top-m recompute from decoded postings."""
    _, r_on, _, _ = champ_indexes
    cfg = r_on.manifest["config"]
    for term in list(r_on.terms)[::37]:  # sample every 37th term
        tid = r_on._lookup(term)
        docs, tfs = r_on.postings(term)
        tfn = bm25_tf_norm(tfs, r_on.doclens(docs), cfg["k1"], cfg["b"], r_on.avgdl)
        order = np.lexsort((docs, -tfn))[:M]
        expect = docs[order]
        got = r_on.champions(tid)
        assert np.array_equal(got, expect), term


def test_bit_identical_results(champ_indexes):
    r_off, r_on, r_salt, fx = champ_indexes
    s_off, s_on, s_salt = Searcher(r_off), Searcher(r_on), Searcher(r_salt)
    for q in _queries(fx):
        for k in (1, 3, 10, 50):
            base = s_off.search(q, k=k)
            assert s_on.search(q, k=k) == base, (q, k)
            # 16 live postings per window: the hot queries split into many,
            # and the champion floor can skip windows before any is scored
            with mock.patch.object(engine, "WINDOW_POSTINGS", 16):
                scored = r_off.postings_scored
                assert s_off.search(q, k=k) == base, (q, k)
                scored_off = r_off.postings_scored - scored
                scored = r_on.postings_scored
                assert s_on.search(q, k=k) == base, (q, k)
                assert r_on.postings_scored - scored <= scored_off, (q, k)
                assert s_salt.search(q, k=k) == base, (q, k)


def test_df_min_cutoff(champ_indexes, sf_unit):
    """With the Zipf-tail cutoff, low-df terms store NO champions, high-df
    terms keep exactly top-m, and results stay bit-identical (skipping a
    term's floor contributions only lowers the floor — still a valid bound).
    """
    import shutil as _sh

    r_off, _, _, fx = champ_indexes
    d = "/tmp/nmr_fair_dos_ray/test_index_champ_dfmin"
    _sh.rmtree(d, ignore_errors=True)
    df_min = 16
    build_index(
        sf_unit["corpus"], d,
        IndexConfig(champion_m=M, champion_df_min=df_min, **BASE),
    )
    r = IndexReader(d)
    assert r.has_champions
    lens = np.diff(r._c_off)
    dfs = r._df
    assert np.all(lens[dfs < df_min] == 0)
    np.testing.assert_array_equal(
        lens[dfs >= df_min], np.minimum(dfs[dfs >= df_min], M)
    )
    assert lens.sum() < dfs.sum()  # strictly smaller than full duplication
    s, s_off = Searcher(r), Searcher(r_off)
    for q in _queries(fx):
        assert s.search(q, k=10) == s_off.search(q, k=10), q


def test_seed_survives_resume(champ_indexes, sf_unit):
    import os

    _, r_on, _, _ = champ_indexes
    s_before = Searcher(r_on)
    victim = sorted(os.listdir(f"{DIR_ON}/shards"))[1]
    # the lost shard's most frequent term: its answer must come back too
    vt = pq.read_table(f"{DIR_ON}/shards/{victim}", columns=["term", "df"])
    lost_term = vt["term"][int(np.argmax(vt["df"].to_numpy()))].as_py()
    queries = ["def return self", lost_term]
    before = [s_before.search(q, k=10) for q in queries]
    assert before[1]
    terms_before = set(r_on.terms)
    os.remove(f"{DIR_ON}/shards/{victim}")
    build_index(sf_unit["corpus"], DIR_ON, IndexConfig(champion_m=M, **BASE))
    assert os.path.exists(f"{DIR_ON}/shards/{victim}")
    r2 = IndexReader(DIR_ON)
    assert r2.has_champions
    assert set(r2.terms) == terms_before
    assert [Searcher(r2).search(q, k=10) for q in queries] == before


def test_floor_only_without_filters(sf_unit, tmp_path):
    """The champion floor lower-bounds the k-th best score over ALL live
    docs; a ``-term`` exclusion or a ``search_after`` cursor can drop the
    champions it is made of, and the filtered k-th score lies below it. So
    windowed scoring under either filter must still equal the one-pass
    ranking filtered — it would skip windows holding the filtered winners
    if the floor seeded θ there. Small blocks give the windows distinct
    bounds; a hot term plus a mid-frequency one at small k puts filtered
    winners in windows bounded below the floor."""
    idx = str(tmp_path / "idx")
    build_index(sf_unit["corpus"], idx, IndexConfig(
        champion_m=M, champion_df_min=1, block_size=16, **BASE))
    r = IndexReader(idx)
    s = Searcher(r)
    head = sorted((t for t in r.terms if ":" not in t),
                  key=lambda t: (-r.terms[t]["df"], t))
    for q in [f"{a} {b}" for a in head[:4] for b in head[20:60:5]]:
        full = s.search(q, k=r.n_docs)
        lang = next(t for t in r.terms_with_prefix("lang:")
                    if full[0][0] in set(r.postings(t)[0].tolist()))
        dead = set(r.postings(lang)[0].tolist())
        for k in (1, 2, 5):
            after = (full[k - 1][1], full[k - 1][0])
            page2 = full[k:2 * k]
            kept = [h for h in full if h[0] not in dead][:k]
            with mock.patch.object(engine, "WINDOW_POSTINGS", 16):
                assert s.search_after(q, k=k, after=after) == page2, (q, k)
                assert s.search_query(f"{q} -{lang}", k=k) == kept, (q, k)
                assert s.search(q, k=k) == full[:k], (q, k)
