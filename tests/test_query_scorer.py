"""QueryScorer (the Ray Data batch-serving stage) must be bit-identical to
the single-query Searcher methods, with or without its result cache and
with the index shared through the object store."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from nmr_fair_dos_ray.search.engine import IndexReader, Searcher


@pytest.fixture(scope="module")
def scorer_index(sf_unit):
    import shutil

    from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index

    idx = "/tmp/nmr_fair_dos_ray/test_index_query_scorer"
    shutil.rmtree(idx, ignore_errors=True)
    cfg = IndexConfig(
        token_cols=("path", "lang"), field_cols=("repo", "path", "lang"),
        stored_cols=("repo",), num_shards=8,
        salt_hot_terms=True, hot_df_threshold=8, n_salts=2,
    )
    build_index(sf_unit["corpus"], idx, cfg)
    return idx, sf_unit


def test_query_scorer_shared_state_pool(scorer_index):
    """QueryScorer with index_ref (one object-store copy shared by all
    actors) must equal per-actor directory loads and the local searcher."""
    import ray.data as rd

    from nmr_fair_dos_ray.search.engine import QueryScorer

    idx, sf = scorer_index
    reader = IndexReader(idx)
    ref = ray.put(reader.to_state())
    queries = [r["query"] for r in pq.read_table(sf["queries"]).to_pylist()][:10]
    qds = rd.from_items(
        [{"query_id": i, "query": q, "k": 5} for i, q in enumerate(queries)]
    )
    out = qds.map_batches(
        QueryScorer, fn_constructor_kwargs={"index_ref": ref},
        concurrency=2, batch_size=4, batch_format="pyarrow",
    ).take_all()
    local = Searcher(reader)
    for i, q in enumerate(queries):
        got = [(r["doc_id"], r["score"]) for r in out if r["query_id"] == i]
        assert got == local.search(q, k=5), q


def test_query_scorer_result_cache_identical(scorer_index):
    """result_cache must not change any output, only skip recompute."""
    import ray.data as rd

    from nmr_fair_dos_ray.search.engine import QueryScorer

    idx, sf = scorer_index
    reader = IndexReader(idx)
    ref = ray.put(reader.to_state())
    queries = [r["query"] for r in pq.read_table(sf["queries"]).to_pylist()][:6]
    rows = [{"query_id": i, "query": q, "k": 5}
            for i, q in enumerate(queries * 3)]  # repeats exercise the cache
    qds = rd.from_items(rows)
    base = qds.map_batches(
        QueryScorer, fn_constructor_kwargs={"index_ref": ref},
        concurrency=1, batch_size=4, batch_format="pyarrow",
    ).to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    cached = qds.map_batches(
        QueryScorer, fn_constructor_kwargs={"index_ref": ref, "result_cache": 64},
        concurrency=1, batch_size=4, batch_format="pyarrow",
    ).to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert base.equals(cached)

    # LRU, not FIFO: with room for two, a hit refreshes "a", so "c" evicts
    # "b" and the third "a" is served from the cache (FIFO evicts "a" at
    # "c" and recomputes it)
    a, b, c = list(dict.fromkeys(queries))[:3]
    scorer = QueryScorer(index_dir=idx, k=5, result_cache=2)
    computed = []
    run = scorer._run
    scorer._run = lambda q, k, mode: computed.append(q) or run(q, k, mode)
    batch = pa.table({"query_id": list(range(5)), "query": [a, b, a, c, a]})
    out = scorer(batch)
    assert computed == [a, b, c]
    assert out.equals(QueryScorer(index_dir=idx, k=5)(batch))


def test_query_scorer_modes(scorer_index):
    """QueryScorer batches any query surface: per-row mode column, results
    identical to the single-query methods."""
    import ray.data as rd

    from nmr_fair_dos_ray.search.engine import QueryScorer

    import shutil

    from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index

    _, sf = scorer_index
    idx = "/tmp/nmr_fair_dos_ray/test_index_scorer_modes"
    shutil.rmtree(idx, ignore_errors=True)
    build_index(sf["corpus"], idx, IndexConfig(
        token_cols=("path", "lang"), field_cols=("repo", "lang"),
        stored_cols=("repo",), num_shards=4, store_positions=True,
    ))
    local = Searcher(IndexReader(idx))
    rows = [
        (0, "def return self", "bm25"),
        (1, "def config", "and"),
        (2, "user name", "phrase"),
        (3, "user name", "near"),
        (4, "conf", "prefix"),
        (5, "retrn", "fuzzy"),
        (6, 'def +config -merge', "query"),
    ]
    t = rd.from_items([
        {"query_id": q, "query": text, "mode": m} for q, text, m in rows
    ])
    out = t.map_batches(
        QueryScorer,
        fn_constructor_kwargs={"index_dir": idx, "k": 5, "slop": 2},
        batch_format="pyarrow", concurrency=1,
    ).to_pandas().sort_values(["query_id", "rank"])
    want = {
        0: local.search("def return self", k=5),
        1: local.search_and("def config", k=5),
        2: local.search_phrase("user name", k=5),
        3: local.search_near("user name", k=5, slop=2),
        4: local.search_prefix("conf", k=5),
        5: local.search_fuzzy("retrn", k=5),
        6: local.search_query('def +config -merge', k=5),
    }
    for qid, hits in want.items():
        sub = out[out["query_id"] == qid]
        assert sub["doc_id"].tolist() == [d for d, _ in hits], qid
        assert sub["score"].tolist() == [float(sc) for _, sc in hits], qid
    # unranked modes have no (doc, score) rows: a clear error, not a crash
    with pytest.raises(ValueError, match="ranked modes"):
        QueryScorer(index_dir=idx, k=5)(
            pa.table({"query_id": [0], "query": ["def"], "mode": ["count"]}))
