"""Doc-partitioned scatter-gather serving (the ES/Lucene shard model):
every query mode must be bit-identical to the local Searcher at pool sizes
{2, 4, 8}, the router merge must be O(pool × k), and the actors must hold
disjoint doc ranges (partitioned posting bytes, not replicas)."""

import shutil
from unittest import mock

import numpy as np
import pyarrow.parquet as pq
import pytest
import ray
from hypothesis import given, settings, strategies as st

from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index
from nmr_fair_dos_ray.search import engine
from nmr_fair_dos_ray.search.distributed import DocShardedSearcher
from nmr_fair_dos_ray.search.engine import IndexReader, Searcher

IDX = "/tmp/nmr_fair_dos_ray/test_index_docsharded"


@pytest.fixture(scope="module")
def doc_sharded(sf_unit):
    shutil.rmtree(IDX, ignore_errors=True)
    cfg = IndexConfig(
        token_cols=("path", "lang"), field_cols=("repo", "path", "lang"),
        stored_cols=("repo",), num_shards=8, store_positions=True,
        salt_hot_terms=True, hot_df_threshold=8, n_salts=2,
        # small blocks so a 200-doc corpus genuinely exercises block-level
        # range pruning + boundary-bleed masking (128-doc blocks would all
        # span every range and nothing would prune)
        block_size=16,
    )
    build_index(sf_unit["corpus"], IDX, cfg)
    pools = {p: DocShardedSearcher(IDX, pool_size=p) for p in (2, 4, 8)}
    yield pools, sf_unit
    for p in pools.values():
        p.shutdown()


def test_all_modes_identical_to_local(doc_sharded):
    pools, sf = doc_sharded
    local = Searcher(IndexReader(IDX))
    queries = [r["query"] for r in pq.read_table(sf["queries"]).to_pylist()]
    lang_term = local.r.terms_with_prefix("lang:")[0]
    for p, pool in pools.items():
        for q in queries:
            assert pool.search(q, k=10) == local.search(q, k=10), (p, q)
        # exact filter + misses too: code mode splits "zzqxnope9" into
        # ("zzqxnope", "9") and "9" can match, so compare against local
        for q in queries[:6] + [f"config {lang_term}", "zzqxnope", "zzqxnope9"]:
            assert pool.search_and(q, k=10) == local.search_and(q, k=10), (p, q)
            assert pool.count(q) == local.count(q), (p, q)
            assert pool.facet_counts(q, "lang") == \
                local.facet_counts(q, "lang"), (p, q)
        # exact filters (field:value atoms) and misses
        for q in (f"config {lang_term}", lang_term, "zzqxnope"):
            assert pool.search(q, k=10) == local.search(q, k=10), (p, q)
        # positional surface: phrase / near ordered+unordered
        for phrase in ("user name", "def config"):
            assert pool.search_phrase(phrase, k=10) == \
                local.search_phrase(phrase, k=10), (p, phrase)
            for slop in (0, 2):
                assert pool.search_near(phrase, k=10, slop=slop) == \
                    local.search_near(phrase, k=10, slop=slop), (p, phrase)
                assert pool.search_near(phrase, k=10, slop=slop, ordered=False) \
                    == local.search_near(phrase, k=10, slop=slop,
                                         ordered=False), (p, phrase)
        # expansions + query-string grammar
        assert pool.search_prefix("conf", k=10) == local.search_prefix("conf", k=10)
        assert pool.search_regex("get.*", k=10) == local.search_regex("get.*", k=10)
        assert pool.search_wildcard("get*", k=10) == \
            local.search_wildcard("get*", k=10)
        assert pool.search_fuzzy("retrn merge", k=10) == \
            local.search_fuzzy("retrn merge", k=10)
        q = 'merge -lang:go user* +"user name"'
        assert pool.search_query(q, k=10) == local.search_query(q, k=10), p


def test_search_after_pages_identical(doc_sharded):
    pools, sf = doc_sharded
    local = Searcher(IndexReader(IDX))
    queries = [r["query"] for r in pq.read_table(sf["queries"]).to_pylist()][:4]
    pool = pools[4]
    for q in queries:
        cursor = None
        for _ in range(4):
            want = local.search_after(q, k=7, after=cursor)
            assert pool.search_after(q, k=7, after=cursor) == want, (q, cursor)
            if not want:
                break
            cursor = (want[-1][1], want[-1][0])
    # pages partition the full ranking: page1 + page2 == top-2k, disjoint
    q = queries[0]
    p1 = pool.search_after(q, k=7)
    p2 = pool.search_after(q, k=7, after=(p1[-1][1], p1[-1][0]))
    assert p1 + p2 == local.search(q, k=14)


def test_doc_ranges_partition_the_corpus(doc_sharded):
    """Ranges are disjoint, cover every doc, and each actor's reader only
    ever RETURNS docs in its range (boundary-block bleed is masked)."""
    pools, sf = doc_sharded
    pool = pools[4]
    corpus_ids = sorted(
        pq.read_table(sf["corpus"], columns=["doc_id"])["doc_id"].to_pylist()
    ) if "doc_id" in pq.read_schema(sf["corpus"]).names else None
    lo0 = pool.ranges[0][0]
    hi_last = pool.ranges[-1][1]
    for (a_lo, a_hi), (b_lo, b_hi) in zip(pool.ranges, pool.ranges[1:]):
        assert a_hi == b_lo  # contiguous, disjoint
        assert a_lo < a_hi
    r = IndexReader(IDX)
    assert lo0 == int(r._doc_ids_sorted[0])
    assert hi_last == int(r._doc_ids_sorted[-1]) + 1
    # per-actor result containment on a match-everything-ish query
    futs = [a.run.remote("bm25", "def return config user", 10_000, {})
            for a in pool.actors]
    for (lo, hi), hits in zip(pool.ranges, ray.get(futs)):
        assert all(lo <= d < hi for d, _ in hits), (lo, hi)
    # union over actors == local full match set
    local = Searcher(r)
    got = sorted(d for hits in ray.get(futs) for d, _ in hits)
    want = sorted(d for d, _ in local.search("def return config user",
                                             k=10_000))
    assert got == want


def test_doc_range_state_is_sliced_not_replicated(doc_sharded):
    """Each actor's state holds ~1/pool of the posting bytes: block-level
    pruning genuinely slices (kept whole-blocks only bleed at range edges)."""
    from nmr_fair_dos_ray.search.engine import _binary_views

    pools, _ = doc_sharded
    pool = pools[4]
    full = IndexReader.build_state(IDX)
    full_bytes = _binary_views(full["b_docs"])[1].size
    slice_bytes = []
    for lo, hi in pool.ranges:
        st = IndexReader.build_state(IDX, doc_range=(lo, hi))
        slice_bytes.append(_binary_views(st["b_docs"])[1].size)
    # bleed is bounded by one block per term per edge; on this corpus the
    # slices must each be well under half the full index
    assert max(slice_bytes) < 0.6 * full_bytes, (slice_bytes, full_bytes)


def test_doc_sharded_with_tombstones(doc_sharded, sf_unit):
    """Deletes compose with range slicing: a fresh pool over an index with
    tombstones matches the local searcher's post-delete results."""
    from nmr_fair_dos_ray.pipelines.lifecycle import delete_docs

    idx2 = "/tmp/nmr_fair_dos_ray/test_index_docsharded_del"
    shutil.rmtree(idx2, ignore_errors=True)
    build_index(sf_unit["corpus"], idx2, IndexConfig(
        token_cols=("path", "lang"), field_cols=("repo", "lang"),
        stored_cols=("repo",), num_shards=4, store_positions=True,
    ))
    local_pre = Searcher(IndexReader(idx2))
    victims = [d for d, _ in local_pre.search("def return", k=3)]
    delete_docs(idx2, victims)
    local = Searcher(IndexReader(idx2))
    pool = DocShardedSearcher(idx2, pool_size=3)
    try:
        for q in ("def return", "config python", "user name"):
            assert pool.search(q, k=10) == local.search(q, k=10), q
        assert pool.search_phrase("user name", k=10) == \
            local.search_phrase("user name", k=10)
        assert pool.count("def return") == local.count("def return")
    finally:
        pool.shutdown()


def test_positions_unavailable_raises(sf_unit):
    idx3 = "/tmp/nmr_fair_dos_ray/test_index_docsharded_nopos"
    shutil.rmtree(idx3, ignore_errors=True)
    build_index(sf_unit["corpus"], idx3, IndexConfig(
        token_cols=("path",), field_cols=("repo",), stored_cols=("repo",),
        num_shards=4,
    ))
    pool = DocShardedSearcher(idx3, pool_size=2)
    try:
        with pytest.raises(ValueError, match="store_positions"):
            pool.search_phrase("user name", k=5)
        with pytest.raises(ValueError, match="store_positions"):
            pool.search_near("user name", k=5, slop=1)
    finally:
        pool.shutdown()


def test_windows_in_doc_range_slices_score_like_the_full_reader(doc_sharded):
    """Each pool actor's doc-range reader, its postings LRU holding MASKED
    lists (boundary-block postings outside the range), scores in windows
    — 16 live postings each — exactly the full reader's ranking restricted
    to its range, at P=2 and P=4. Found by the sharding bench at 50k docs
    as an out-of-bounds read past a masked list; also reachable with
    tombstones."""
    pools, sf = doc_sharded
    local = Searcher(IndexReader(IDX))
    queries = [row["query"] for row in pq.read_table(sf["queries"]).to_pylist()]
    full = {q: local.search(q, k=100_000) for q in queries}
    for p in (2, 4):
        for lo, hi in pools[p].ranges:
            s = Searcher(IndexReader.from_state(
                IndexReader.build_state(IDX, doc_range=(lo, hi))))
            for q in queries:
                s.search_and(q, k=10)  # warm the masked postings cache
                want = [(d, sc) for d, sc in full[q] if lo <= d < hi][:10]
                assert s.search(q, k=10) == want, (p, lo, q)
                with mock.patch.object(engine, "WINDOW_POSTINGS", 16):
                    assert s.search(q, k=10) == want, (p, lo, q)


def test_doc_sharded_best_fields_identical_to_local(sf_unit):
    """Multi-field dis-max over the range pool: each actor holds ALL field
    slices for its range, so the router merge stays O(pool*k)."""
    from nmr_fair_dos_ray.search.engine import best_fields_search

    dirs = {}
    for col in ("path", "lang"):
        d = f"/tmp/nmr_fair_dos_ray/test_bf_docsharded_{col}"
        shutil.rmtree(d, ignore_errors=True)
        build_index(sf_unit["corpus"], d, IndexConfig(
            token_cols=(col,), field_cols=("repo",), stored_cols=("repo",),
            num_shards=4, block_size=16,
        ))
        dirs[col] = d
    locals_ = [Searcher(IndexReader(dirs[c])) for c in ("path", "lang")]
    pool = DocShardedSearcher(dirs["path"], pool_size=3,
                              field_dirs=[dirs["lang"]])
    try:
        for q in ("config python merge", "def return", "zzqxnope"):
            for tb in (0.0, 0.3):
                assert pool.best_fields(q, k=20, tie_breaker=tb) == \
                    best_fields_search(locals_, q, k=20, tie_breaker=tb), (q, tb)
    finally:
        pool.shutdown()


def test_blockless_terms_in_slices_score_like_the_full_reader(doc_sharded):
    """A doc-range slice keeps every term, most of an expansion's terms with
    no block in range: the batched decode reads them as empty, and each
    slice's match map is the full reader's restricted to its range, bit
    for bit, at P=2 and P=4 — so the pool equals local serving."""
    pools, _ = doc_sharded
    full = Searcher(IndexReader(IDX))
    fr = full.r
    exps = {"prefix re": fr.expand_prefix("re"),
            "regex": fr.expand_regex("[a-z].*"),
            "fuzzy": fr.sorted_terms(np.concatenate(
                [fr.expand_fuzzy("retrn", 2), fr.expand_fuzzy("user", 1)]))}
    assert exps["prefix re"].size > 256
    for p in (2, 4):
        pool = pools[p]
        blockless = 0
        for lo, hi in pool.ranges:
            sl = Searcher(IndexReader.from_state(
                IndexReader.build_state(IDX, doc_range=(lo, hi))))
            for name, tids in exps.items():
                nb = sl.r._boff[tids + 1] - sl.r._boff[tids]
                blockless += int((nb == 0).sum())
                postings = sl.r.postings_many(tids)
                assert not postings[2][nb == 0].any(), (p, lo, name)
                d, sc = sl._score_map(tids, *postings, None)
                fd, fsc = full._score_map(tids, *fr.postings_many(tids), None)
                keep = (fd >= lo) & (fd < hi)
                assert np.array_equal(d, fd[keep]), (p, lo, name)
                assert np.array_equal(sc, fsc[keep]), (p, lo, name)
        assert blockless, p
        for pat in ("re", "s", "conf"):
            assert pool.search_prefix(pat, k=10) == full.search_prefix(pat, k=10)
        assert pool.search_regex("[a-z].*", k=10) == \
            full.search_regex("[a-z].*", k=10)
        for q in ("+re* merge", "merge -re*", "retrn~2 user~"):
            assert pool.search_query(q, k=10) == full.search_query(q, k=10), (p, q)
        for q in ("def return self config", "user name merge"):
            want = full.search(q, k=10)
            assert pool.search(q, k=10) == want, (p, q)
            with mock.patch.object(engine, "WINDOW_POSTINGS", 16):
                assert full.search(q, k=10) == want, (p, q)


@pytest.fixture(scope="module")
def lifecycle_searchers(doc_sharded, tmp_path_factory):
    """Fresh, tombstoned and compacted copies of the small-block index."""
    from nmr_fair_dos_ray.pipelines.lifecycle import compact_index, delete_docs

    fresh = Searcher(IndexReader(IDX))
    dead = [d for d, _ in fresh.search("def return self config user", k=25)]
    out = {"fresh": fresh}
    for name in ("tombstoned", "compacted"):
        d = str(tmp_path_factory.mktemp(name) / "idx")
        shutil.copytree(IDX, d)
        delete_docs(d, dead)
        if name == "compacted":
            compact_index(d)
        out[name] = Searcher(IndexReader(d))
    return out


def _scored_windows(s: Searcher, q: str, k: int) -> tuple[list, int, int]:
    """(top-k, windows scored, postings scored) of ``s.search(q, k)``."""
    calls = []
    score_map = Searcher._score_map

    def spy(self, *a, **kw):
        calls.append(1)
        return score_map(self, *a, **kw)

    before = s.r.postings_scored
    with mock.patch.object(Searcher, "_score_map", spy):
        got = s.search(q, k=k)
    return got, len(calls), s.r.postings_scored - before


def test_windows_follow_live_postings_and_skip_by_bound(lifecycle_searchers):
    """A query splits into ceil(live postings / WINDOW_POSTINGS) windows —
    live postings, so tombstoned ones do not count — and every window is
    scored when k reaches every doc. A one-doc term plus two hot ones at
    k=1 skips windows by their block-max bound: fewer postings scored than
    its terms hold, the same top-k as one pass."""
    r0 = lifecycle_searchers["fresh"].r
    vocab = [t for t in r0.terms if ":" not in t]
    head = sorted(vocab, key=lambda t: (-r0.terms[t]["df"], t))
    rare = next(t for t in vocab if r0.terms[t]["df"] == 1 and all(
        s.r.postings(t)[0].size for s in lifecycle_searchers.values()))
    for name, s in lifecycle_searchers.items():
        r = s.r
        for q in (" ".join(head[:8]), f"{rare} {head[0]} {head[1]}"):
            live = r.postings_many(r.term_ids(r.tokenizer.tokenize_query(q)[0]))[0]
            want, want_all = s.search(q, k=1), s.search(q, k=r.n_docs)
            n_win = -(-live.size // 64)
            assert n_win >= 3, (name, q)
            with mock.patch.object(engine, "WINDOW_POSTINGS", 64):
                got, windows, _ = _scored_windows(s, q, k=r.n_docs)
                assert (got, windows) == (want_all, n_win), (name, q)
                got, windows, scored = _scored_windows(s, q, k=1)
            assert got == want, (name, q)
            if q.startswith(rare):
                assert windows < n_win and scored < live.size, (name, q)


def test_wide_expansion_is_one_pass(lifecycle_searchers):
    """An expansion of more terms than the postings LRU holds (one batched
    decode) is scored in one pass whatever the window budget, so its work
    stays O(postings) however many terms it holds; an expansion of fewer
    terms splits into windows like a bm25 query. The top-k stays bit-equal
    to the default budget's."""
    score_map = Searcher._score_map
    kinds = set()
    for name, s in lifecycle_searchers.items():
        r = s.r
        cases = [(p, lambda p=p: s.search_prefix(p, k=10))
                 for p in ("se", "m", "b", "conf", "get")]
        cases += [(p, lambda p=p: s.search_regex(p, k=10))
                  for p in (".{12,}", ".*_.*")]
        for pat, call in cases:
            want = call()
            calls = []

            def spy(self, *a, **kw):
                calls.append(1)
                return score_map(self, *a, **kw)

            with mock.patch.object(engine, "WINDOW_POSTINGS", 1), \
                    mock.patch.object(Searcher, "_score_map", spy):
                assert call() == want, (name, pat)
            n_terms = (r.expand_regex(pat) if "." in pat else r.expand_prefix(pat)).size
            kinds.add(n_terms > r.LRU_TERMS)
            if n_terms > r.LRU_TERMS:
                assert len(calls) == 1, (name, pat)
            else:
                assert len(calls) >= 3, (name, pat, n_terms)
    assert kinds == {True, False}


@pytest.fixture(scope="module")
def query_vocab(lifecycle_searchers):
    r = lifecycle_searchers["fresh"].r
    vocab = sorted((t for t in r.terms if ":" not in t),
                   key=lambda t: (-r.terms[t]["df"], t))
    # the Zipf head (many windows at small budgets) and a spread of rarer
    # terms
    return vocab[:40] + vocab[40::max(1, len(vocab) // 200)], \
        r.terms_with_prefix("lang:")


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_window_budget_keeps_topk(lifecycle_searchers, query_vocab, data):
    """Every window budget gives the one-pass top-k with bit-equal scores —
    with and without a ``lang:`` filter, on fresh, tombstoned and compacted
    indexes, for search_after pages and the prefix, regex and query-string
    modes."""
    vocab, langs = query_vocab
    terms = data.draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=8))
    if data.draw(st.booleans()):
        terms.append(data.draw(st.sampled_from(langs)))
    k = data.draw(st.integers(min_value=1, max_value=30))
    # the fixture's queries hold far fewer postings than the default
    # budget, so small budgets split them into many windows
    budget = data.draw(st.sampled_from([1, 7, 16, 64, 256]))
    q = " ".join(terms)
    word = terms[0]
    for name, s in lifecycle_searchers.items():
        page1 = s.search(q, k=k)
        after = (page1[-1][1], page1[-1][0]) if page1 else None
        calls = {
            "bm25": lambda: s.search(q, k=k),
            "after": lambda: s.search_after(q, k=k, after=after),
            "prefix": lambda: s.search_prefix(word[:2], k=k),
            "regex": lambda: s.search_regex(f"{word[:1]}.*", k=k),
            "query": lambda: s.search_query(f"{q} -{word}", k=k),
            "query+": lambda: s.search_query(f"{word[:2]}* +{word}", k=k),
        }
        for mode, call in calls.items():
            want = call()
            with mock.patch.object(engine, "WINDOW_POSTINGS", budget):
                assert call() == want, (name, mode, q, k, budget)
