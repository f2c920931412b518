"""Document lifecycle: tombstone deletes, upsert resolution, compaction.

Contract (pipelines/lifecycle.py, frozen-stats semantics): deleting docs
removes them from EVERY search path immediately while every live doc keeps a
bit-identical score — so the expected post-delete top-k is literally the
pre-delete full ranking with deleted docs filtered out. The ranked scorer
in one pass and in many doc windows, conjunctive, phrase, facet, exact and
the sharded serving pool must all agree on that.
"""

import os
import shutil
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index
from nmr_fair_dos_ray.pipelines.lifecycle import (
    clear_tombstones, delete_by_term, delete_docs, read_tombstones,
    upsert_latest,
)
from nmr_fair_dos_ray.search import engine
from nmr_fair_dos_ray.search.engine import IndexReader, Searcher

BASE = dict(
    token_cols=("path", "lang"),
    field_cols=("repo", "lang", "path"),
    stored_cols=("repo", "path"),
    num_shards=4,
    store_positions=True,
)
DIR = "/tmp/nmr_fair_dos_ray/test_lifecycle_idx"
QUERIES = ["def return self", "user name config", "get set value", "import data"]


@pytest.fixture()
def idx(sf_unit):
    shutil.rmtree(DIR, ignore_errors=True)
    build_index(sf_unit["corpus"], DIR, IndexConfig(**BASE))
    return sf_unit


def _full_ranking(searcher: Searcher, q: str):
    return searcher.search(q, k=10_000)


def _budgets(search):
    """``search()`` at the default window budget, then at 16 live postings
    per window (the QUERIES split into many windows)."""
    default = search()
    with mock.patch.object(engine, "WINDOW_POSTINGS", 16):
        return default, search()


def test_delete_filters_every_path_bit_identically(idx):
    s0 = Searcher(IndexReader(DIR))
    full = {q: _full_ranking(s0, q) for q in QUERIES}
    # delete a mix of top-ranked and mid-ranked docs of the first query
    victims = [d for d, _ in full[QUERIES[0]][:3]] + [d for d, _ in full[QUERIES[1]][5:8]]
    n = delete_docs(DIR, victims)
    assert n == len(set(victims))

    r = IndexReader(DIR)
    s = Searcher(r)
    dead = set(victims)
    for q in QUERIES:
        expect = [(d, sc) for d, sc in full[q] if d not in dead][:10]
        assert _budgets(lambda: s.search(q, k=10)) == (expect, expect), q
    # conjunctive: scores bit-equal to disjunctive for surviving docs
    for q in QUERIES:
        for d, sc in s.search_and(q, k=10):
            assert d not in dead
    # phrase: no deleted doc ever surfaces
    for d, _ in s.search_phrase("def return", k=100):
        assert d not in dead
    # facets: per-value counts drop by exactly the deleted matching docs
    r0 = s0.r
    base_facets = dict(s0.facet_counts(QUERIES[0], "lang"))
    got_facets = dict(s.facet_counts(QUERIES[0], "lang"))
    match0 = {d for d, _ in full[QUERIES[0]]}
    for val, n0 in base_facets.items():
        lang_docs = set(r0.postings(f"lang:{val}")[0].tolist())
        n_dead = len(match0 & lang_docs & dead)
        assert got_facets.get(val, 0) == n0 - n_dead, val
    # exact field path excludes deleted docs
    for t in ("repo:" + pq.read_table(idx["corpus"], columns=["repo"])["repo"][0].as_py(),):
        docs, _ = r.postings(t)
        assert not (set(docs.tolist()) & dead)


def test_delete_positions_consistent(idx):
    r0 = IndexReader(DIR)
    term = next(
        t for t in r0.terms
        if ":" not in t and r0.terms[t]["df"] >= 3 and r0.positions(t)
    )
    docs0, offs0, flat0 = r0.positions(term)
    assert docs0.size >= 2
    dead = int(docs0[0])
    delete_docs(DIR, [dead])
    r = IndexReader(DIR)
    docs, offs, flat = r.positions(term)
    assert dead not in docs
    # surviving docs keep their exact position lists
    for i, d in enumerate(docs):
        j = int(np.searchsorted(docs0, d))
        assert np.array_equal(
            flat[offs[i]:offs[i + 1]], flat0[offs0[j]:offs0[j + 1]]
        )


def test_delete_by_term_and_idempotence(idx):
    r0 = IndexReader(DIR)
    langs = [t for t in r0.terms_with_prefix("lang:")]
    victims, _ = r0.postings(langs[0])
    n1 = delete_by_term(DIR, langs[0])
    assert n1 == victims.size
    n2 = delete_by_term(DIR, langs[0])  # already gone: postings masked
    assert n2 == 0
    assert read_tombstones(DIR).size == victims.size
    r = IndexReader(DIR)
    docs, _ = r.postings(langs[0])
    assert docs.size == 0
    # frozen stats: df/idf unchanged (Lucene semantics until rebuild)
    assert r.terms[langs[0]]["df"] == r0.terms[langs[0]]["df"]
    clear_tombstones(DIR)
    assert read_tombstones(DIR).size == 0


def test_tombstone_segments_are_immutable_and_race_safe(idx, monkeypatch):
    """Segmented tombstone layout (ADVICE r3: the flat file's
    read-union-replace could drop a concurrent writer's ids):

    * each ``delete_docs`` call writes ONE new immutable segment — no call
      ever rewrites existing state, so concurrent deletes compose;
    * compaction clears exactly the segments it snapshotted — a delete
      landing mid-sweep keeps its segment and its docs stay masked;
    * range-scoped reads prune non-overlapping segments by FILENAME,
      without opening them (per-doc-range readers load only their slice).
    """
    from nmr_fair_dos_ray.pipelines import lifecycle
    from nmr_fair_dos_ray.pipelines.lifecycle import tombstone_segments

    assert delete_docs(DIR, [1, 5, 9]) == 3
    seg1 = set(tombstone_segments(DIR))
    assert len(seg1) == 1
    assert delete_docs(DIR, [2, 5]) == 4  # overlap dedups on read
    segs = tombstone_segments(DIR)
    assert len(segs) == 2 and seg1 < set(segs)  # first segment untouched
    assert np.array_equal(read_tombstones(DIR), [1, 2, 5, 9])

    # range-scoped read: correct subset, and non-overlapping segments are
    # pruned unopened (count actual file opens)
    opens = []
    real_read = lifecycle.pq.read_table

    def counting_read(path, *a, **k):
        opens.append(path)
        return real_read(path, *a, **k)

    monkeypatch.setattr(lifecycle.pq, "read_table", counting_read)
    assert np.array_equal(read_tombstones(DIR, lo=2, hi=5), [2, 5])
    assert read_tombstones(DIR, lo=1_000, hi=2_000).size == 0
    assert opens.count(segs[0]) + opens.count(segs[1]) == 2  # 2nd call: 0 opens
    monkeypatch.undo()

    # half-open ranges: either bound may be omitted
    assert np.array_equal(read_tombstones(DIR, lo=3), [5, 9])
    assert np.array_equal(read_tombstones(DIR, hi=2), [1, 2])

    # compaction race: snapshot, then a "concurrent" delete, then the
    # snapshot-scoped clear compact_index performs — the late delete survives
    snap = tombstone_segments(DIR)
    delete_docs(DIR, [7])
    clear_tombstones(DIR, paths=snap)
    assert np.array_equal(read_tombstones(DIR), [7])
    assert IndexReader(DIR).deleted_mask(np.array([7, 8], np.int64))[0]
    clear_tombstones(DIR)
    assert tombstone_segments(DIR) == []


def test_sharded_serving_honors_tombstones(idx):
    from nmr_fair_dos_ray.search.distributed import DocShardedSearcher

    s0 = Searcher(IndexReader(DIR))
    full = {q: _full_ranking(s0, q) for q in QUERIES}
    victims = [d for d, _ in full[QUERIES[2]][:4]]
    delete_docs(DIR, victims)
    local = Searcher(IndexReader(DIR))
    pool = DocShardedSearcher(DIR, pool_size=2)
    try:
        for q in QUERIES:
            assert pool.search(q, k=10) == local.search(q, k=10), q
    finally:
        pool.shutdown()


def test_compaction_is_bit_identical_and_shrinks(idx):
    import glob

    from nmr_fair_dos_ray.pipelines.lifecycle import compact_index

    s0 = Searcher(IndexReader(DIR))
    full = {q: _full_ranking(s0, q) for q in QUERIES}
    victims = sorted(
        {d for q in QUERIES for d, _ in full[q][:6]}
        | set(IndexReader(DIR).postings("lang:go")[0][:10].tolist())
    )
    delete_docs(DIR, victims)

    r_del = IndexReader(DIR)
    s_del = Searcher(r_del)
    before = {
        "bm25": {q: _budgets(lambda: s_del.search(q, k=10)) for q in QUERIES},
        "and": {q: s_del.search_and(q, k=10) for q in QUERIES},
        "phrase": s_del.search_phrase("def return", k=50),
        "facets": s_del.facet_counts(QUERIES[0], "lang"),
        "exact": s_del.search("lang:go", k=1000),
    }
    bytes_before = sum(
        os.path.getsize(p) for p in glob.glob(os.path.join(DIR, "shards", "*.parquet"))
    )
    summary = compact_index(DIR)
    assert summary["postings_removed"] > 0
    assert summary["docs_removed"] == len(victims)
    assert read_tombstones(DIR).size == 0  # cleared after full rewrite

    r_c = IndexReader(DIR)
    assert r_c._tomb is None
    s_c = Searcher(r_c)
    for q in QUERIES:
        assert _budgets(lambda: s_c.search(q, k=10)) == before["bm25"][q], q
        assert before["bm25"][q][0] == before["bm25"][q][1], q
        assert s_c.search_and(q, k=10) == before["and"][q], q
    assert s_c.search_phrase("def return", k=50) == before["phrase"]
    assert s_c.facet_counts(QUERIES[0], "lang") == before["facets"]
    assert s_c.search("lang:go", k=1000) == before["exact"]
    bytes_after = sum(
        os.path.getsize(p) for p in glob.glob(os.path.join(DIR, "shards", "*.parquet"))
    )
    assert bytes_after < bytes_before
    # compaction is idempotent: no tombstones → no-op
    assert compact_index(DIR)["files"] == 0


def test_upsert_latest_retires_old_versions(idx, tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    shutil.copy(idx["corpus"], corpus_dir / "part_000.parquet")
    base = pq.read_table(idx["corpus"])
    n0 = base.num_rows
    # new versions of 5 existing paths (same path key, fresh content) + 2 new
    reuse = base.slice(0, 5)
    newtab = pa.table({
        "repo": reuse["repo"],
        "path": reuse["path"],
        "commit": pa.array(["c-new"] * 5),
        "lang": reuse["lang"],
        "content": pa.array([f"freshly upserted contentzz {i}" for i in range(5)]),
    })
    extra = pa.table({
        "repo": pa.array(["r-new"] * 2),
        "path": pa.array(["new/a.py", "new/b.py"]),
        "commit": pa.array(["c-new"] * 2),
        "lang": pa.array(["python"] * 2),
        "content": pa.array(["brand new file alpha", "brand new file beta"]),
    })
    idx_dir = str(tmp_path / "idx")
    cfg = IndexConfig(**BASE)
    build_index(str(corpus_dir), idx_dir, cfg)
    pq.write_table(
        pa.concat_tables([newtab, extra]), corpus_dir / "part_001.parquet"
    )
    build_index(str(corpus_dir), idx_dir, cfg, resume=True)  # append
    n_retired = upsert_latest(idx_dir, "path")
    assert n_retired == 5  # exactly the re-ingested paths' old versions
    r = IndexReader(idx_dir)
    s = Searcher(r)
    # the old content of an upserted doc is gone; new content is findable
    hits = dict(s.search("freshly upserted contentzz", k=20))
    assert len(hits) == 5
    assert all(d >= n0 for d in hits)  # only appended doc_ids
    # un-upserted docs are untouched
    assert dict(s.search("brand new file alpha", k=5))
    # a path field term resolves to exactly one live doc per upserted path
    for p in reuse["path"].to_pylist():
        docs, _ = r.postings(f"path:{p}")
        if docs.size:  # path indexed as exact field? only via field_cols
            assert docs.size == 1


def test_near_and_bestfields_exclude_deleted(idx):
    """Round-4 query surfaces honor tombstones: proximity matches and
    best_fields rankings never surface a deleted doc (frozen-stats scores
    for the live ones)."""
    from nmr_fair_dos_ray.search.engine import best_fields_search

    s0 = Searcher(IndexReader(DIR))
    near0 = s0.search_near("def return", k=10_000, slop=2)
    assert near0, "fixture must match"
    victims = [d for d, _ in near0[:3]]
    delete_docs(DIR, victims)
    s = Searcher(IndexReader(DIR))
    dead = set(victims)
    got = s.search_near("def return", k=10_000, slop=2)
    assert all(d not in dead for d, _ in got)
    # live docs keep identical chain counts
    want = [(d, n) for d, n in near0 if d not in dead]
    assert got == want
    # best_fields over two searchers of the same (post-delete) index
    bf = best_fields_search([s, s], "def return self", k=20)
    assert all(d not in dead for d, _ in bf)


def test_tombstone_range_reads_random(idx):
    """Property-ish: random delete batches, then range reads must equal the
    manual union-filter for arbitrary [lo, hi] windows."""
    rng = np.random.RandomState(11)
    all_ids: set[int] = set()
    for _ in range(6):
        batch = rng.choice(200, size=rng.randint(1, 30), replace=False)
        delete_docs(DIR, batch.tolist())
        all_ids.update(int(x) for x in batch)
    for lo, hi in ((0, 199), (50, 60), (199, 199), (150, 10**9), (None, 90)):
        got = read_tombstones(DIR, lo=lo, hi=hi)
        want = sorted(
            x for x in all_ids
            if (lo is None or x >= lo) and (hi is None or x <= hi)
        )
        assert got.tolist() == want, (lo, hi)


def test_refresh_stats_equals_rebuild(sf_unit, tmp_path):
    """delete → compact → refresh_stats must produce rankings bit-equal to
    a FULL REBUILD over the surviving corpus (same postings + doclens +
    unfrozen stats ⇒ same per-doc scores; block maxes only prune), across
    one-pass and windowed scoring, phrase and facets — the opt-in alternative to frozen stats
    (VERDICT round-4 item 7)."""
    from nmr_fair_dos_ray.pipelines.lifecycle import compact_index, refresh_stats

    corpus = pq.read_table(sf_unit["corpus"])
    corpus = corpus.append_column(
        "did", pa.array(np.arange(corpus.num_rows, dtype=np.int64))
    )
    src = str(tmp_path / "corpus_ids.parquet")
    pq.write_table(corpus, src)
    cfg = IndexConfig(id_col="did", **BASE)

    idx_a = str(tmp_path / "idx_refresh")
    build_index(src, idx_a, cfg)
    pre = Searcher(IndexReader(idx_a))
    victims = sorted(
        {d for q in QUERIES[:2] for d, _ in pre.search(q, k=4)}
    )
    assert victims
    # refresh before compaction must refuse (tombstones present)
    delete_docs(idx_a, victims)
    with pytest.raises(ValueError, match="compact"):
        refresh_stats(idx_a)
    compact_index(idx_a)
    out = refresh_stats(idx_a)
    assert out["n_docs"] == corpus.num_rows - len(victims)

    # rebuild over the surviving corpus (same explicit ids)
    keep = ~np.isin(corpus["did"].to_numpy(), np.array(victims))
    src_b = str(tmp_path / "corpus_survivors.parquet")
    pq.write_table(corpus.filter(pa.array(keep)), src_b)
    idx_b = str(tmp_path / "idx_rebuild")
    build_index(src_b, idx_b, cfg)

    ra, rb = IndexReader(idx_a), IndexReader(idx_b)
    assert ra.n_docs == rb.n_docs
    assert ra.avgdl == pytest.approx(rb.avgdl, abs=0, rel=0)
    sa, sb = Searcher(ra), Searcher(rb)
    for q in QUERIES:
        got = _budgets(lambda: sa.search(q, k=20))
        assert got == _budgets(lambda: sb.search(q, k=20)), q
        assert got[0] == got[1], q
        assert sa.facet_counts(q, "lang") == sb.facet_counts(q, "lang"), q
    assert sa.search_phrase("user name", k=20) == \
        sb.search_phrase("user name", k=20)
    # idempotent: a second refresh is a no-op for rankings
    refresh_stats(idx_a)
    sa2 = Searcher(IndexReader(idx_a))
    for q in QUERIES:
        assert sa2.search(q, k=20) == sb.search(q, k=20), q


@pytest.mark.parametrize("refresh", [False, True])
def test_append_after_compaction_equals_fresh_build(sf_unit, tmp_path, refresh):
    """build → delete → compact (→ refresh_stats) → append one more file
    must equal a fresh build over the surviving docs plus the appended rows:
    the append re-derives its postings from the live shards and its stats
    from the doc store, so compacted-away docs never come back. refresh_stats
    leaves the build config alone, so the append stays an append (the kept
    doc file is not rewritten)."""
    from nmr_fair_dos_ray.pipelines.lifecycle import compact_index, refresh_stats
    from nmr_fair_dos_ray.search.engine import fetch_docs

    corpus = pq.read_table(sf_unit["corpus"])
    n = corpus.num_rows
    corpus = corpus.append_column("did", pa.array(np.arange(n, dtype=np.int64)))
    extra = corpus.slice(0, 40)
    extra = extra.set_column(extra.column_names.index("did"), "did",
                             pa.array(np.arange(n, n + 40, dtype=np.int64)))
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(corpus, src / "part_000.parquet")
    cfg = IndexConfig(id_col="did", **BASE)
    idx_a = str(tmp_path / "idx_append")
    build_index(str(src), idx_a, cfg)
    pre = Searcher(IndexReader(idx_a))
    victims = sorted({d for q in QUERIES for d, _ in pre.search(q, k=5)})
    delete_docs(idx_a, victims)
    compact_index(idx_a)
    if refresh:
        refresh_stats(idx_a)
    docs0 = os.path.join(idx_a, "docs", "docs_000000.parquet")
    mtime = os.stat(docs0).st_mtime_ns
    pq.write_table(extra, src / "part_001.parquet")
    build_index(str(src), idx_a, cfg, resume=True)
    assert os.stat(docs0).st_mtime_ns == mtime, "kept doc file rewritten"

    fresh = tmp_path / "fresh"
    fresh.mkdir()
    keep = ~np.isin(corpus["did"].to_numpy(), np.array(victims))
    pq.write_table(corpus.filter(pa.array(keep)), fresh / "part_000.parquet")
    pq.write_table(extra, fresh / "part_001.parquet")
    idx_b = str(tmp_path / "idx_fresh")
    build_index(str(fresh), idx_b, cfg)

    ra, rb = IndexReader(idx_a), IndexReader(idx_b)
    assert ra.n_docs == rb.n_docs == n - len(victims) + 40
    assert ra.avgdl == pytest.approx(rb.avgdl, abs=0, rel=0)
    sa, sb = Searcher(ra), Searcher(rb)
    dead = set(victims)
    for q in QUERIES:
        got = _budgets(lambda: sa.search(q, k=20))
        assert got == _budgets(lambda: sb.search(q, k=20)), q
        assert got[0] == got[1], q
        hits = [d for d, _ in got[0]]
        assert not dead & set(hits), q
        assert fetch_docs(idx_a, hits, ["repo"])["doc_id"].to_pylist() \
            == sorted(hits)
        assert sa.facet_counts(q, "lang") == sb.facet_counts(q, "lang"), q
    assert sa.search_phrase("user name", k=20) == \
        sb.search_phrase("user name", k=20)


def test_masked_hot_term_scores_like_the_oracle(sf_unit, tmp_path):
    """A hot term whose cached postings are MASKED (tail docs tombstoned,
    so the raw doc_last metadata runs past the live list), then fully
    masked: one-pass and windowed scoring both equal the pre-delete full
    ranking with the dead docs filtered out."""
    idx = str(tmp_path / "idx_tailtomb")
    build_index(sf_unit["corpus"], idx, IndexConfig(
        token_cols=("path", "lang"), field_cols=("repo",),
        stored_cols=("repo",), num_shards=4, block_size=16,
    ))
    r = IndexReader(idx)
    terms = [t for t in r.terms if ":" not in t]
    hot, other = sorted(terms, key=lambda t: -r.postings(t)[0].size)[:2]
    docs_hot = r.postings(hot)[0]
    assert docs_hot.size > 16, "need a multi-block term"
    queries = [hot, f"{hot} {other}"]
    full = {q: _full_ranking(Searcher(r), q) for q in queries}
    for victims in (docs_hot[-8:].tolist(), docs_hot.tolist()):
        delete_docs(idx, victims)
        r2 = IndexReader(idx)
        r2.postings(hot)  # warm the MASKED cache
        raw_last = int(r2._b_last[int(r2._boff[r2._lookup(hot) + 1]) - 1])
        masked = r2.postings(hot)[0]
        assert masked.size == 0 or masked[-1] < raw_last
        dead = set(read_tombstones(idx).tolist())
        s2 = Searcher(r2)
        for q in queries:
            want = [(d, sc) for d, sc in full[q] if d not in dead][:5]
            assert _budgets(lambda: s2.search(q, k=5)) == (want, want), q


def test_doclen_lut_regimes(idx):
    """The doclen lookup table must pick the right regime: zero-copy dense
    view on a fresh build, hole-filled copy after compaction (ids gappy but
    >= 1/4 dense), searchsorted fallback when too sparse — and every regime
    must return the same doclens as a searchsorted over the stored pairs."""
    from nmr_fair_dos_ray.pipelines.lifecycle import compact_index

    r0 = IndexReader(DIR)
    # fresh build: exactly dense -> the LUT IS doclens_sorted (no copy)
    assert r0._doclen_lut is r0._doclens_sorted
    ids0 = r0._doc_ids_sorted.copy()
    dls0 = r0._doclens_sorted.copy()

    victims = ids0[:: 7]  # ~14% of docs, including doc id 0 (shifts the base)
    delete_docs(DIR, victims.tolist())
    compact_index(DIR)

    r1 = IndexReader(DIR)
    # post-compaction: gappy -> hole-filled copy, not the sorted array itself
    assert r1._doclen_lut is not None
    assert r1._doclen_lut is not r1._doclens_sorted
    assert r1._dense_base == int(r1._doc_ids_sorted[0]) != 0
    survivors = r1._doc_ids_sorted
    expect = dls0[np.searchsorted(ids0, survivors)]
    assert np.array_equal(r1.doclens(survivors), expect)
    # unsorted / repeated lookups hit the same values (direct indexing)
    probe = survivors[[5, 2, 2, -1, 0]]
    assert np.array_equal(r1.doclens(probe), expect[[5, 2, 2, -1, 0]])

    # sparse regime: fake a state whose ids cover < 1/4 of the span -> no
    # LUT (memory guard), searchsorted fallback returns identical values
    st = dict(r1.to_state())
    st["doc_ids_sorted"] = survivors * 5
    st["doclens_sorted"] = expect
    r2 = IndexReader.from_state(st)
    assert r2._doclen_lut is None
    assert np.array_equal(r2.doclens(survivors * 5), expect)
