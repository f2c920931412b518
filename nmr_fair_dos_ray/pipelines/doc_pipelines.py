"""Document-table pipelines for the driver's testdata (`documents`,
`embeddings`): the fulltext-index pipelines (df, stats, BM25 top-k, exact
lookup) plus the training-data operators (dedup, quality, language-ID,
fingerprints, ANN) — each shaped so DuckDB can oracle-check it where SQL can
express the semantics.

The index pipelines use the ``simple`` tokenizer mode, whose semantics are
exactly reproducible in ANSI SQL (see Tokenizer.SIMPLE_MODE_SQL_SPLIT); the
``code`` mode is validated by the in-repo pure-Python oracle instead
(tests/test_index_e2e.py).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import replace

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ray.data import Dataset
from ray.data.aggregate import Count, Min, Sum

from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index
from nmr_fair_dos_ray.search.engine import IndexReader, Searcher
from nmr_fair_dos_ray.functions.rounding import round_half_away
from nmr_fair_dos_ray.sources import sized_read_parquet
from nmr_fair_dos_ray.tokenizer import Tokenizer

BM25_QUERY = "data pipeline query"


def _t(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _tag(sf_dir: str) -> str:
    return os.path.basename(os.path.normpath(sf_dir))


DOC_INDEX_CFG = IndexConfig(
    content_col="text",
    id_col="doc_id",
    token_cols=(),
    field_cols=("source", "lang"),
    stored_cols=("source", "lang"),
    tokenizer_mode="simple",
    num_shards=16,
)


def documents_index(sf_dir: str, positions: bool = False) -> str:
    """Build (or resume) the fulltext index over the documents table.

    ``positions=True`` builds the positional variant (phrase queries) into
    its own directory — positional streams change the shard schema, so the
    two variants never share partitions.
    """
    suffix = "-pos" if positions else ""
    idx_dir = f"/tmp/nmr_fair_dos_ray/docindex/{_tag(sf_dir)}{suffix}"
    cfg = (
        replace(DOC_INDEX_CFG, store_positions=True) if positions
        else DOC_INDEX_CFG
    )
    build_index(_t(sf_dir, "documents"), idx_dir, cfg, resume=True)
    return idx_dir


#: tokens per derived title (the second scored field for best_fields)
TITLE_TOKENS = 8


def documents_title_index(sf_dir: str) -> str:
    """Second scored field for ``best_fields``: ``title`` = the first
    ``TITLE_TOKENS`` whitespace tokens of ``text``, derived deterministically
    (one vectorized projection → parquet → index). Its own index = its own
    postings, df/idf AND length norms — the Lucene per-field model the ES
    ``multi_match`` scorer assumes (a short field is normalized by the short
    field's avgdl, not the body's)."""
    idx_dir = f"/tmp/nmr_fair_dos_ray/docindex/{_tag(sf_dir)}-title"
    tdir = f"/tmp/nmr_fair_dos_ray/doctitle/{_tag(sf_dir)}"
    if not os.path.isdir(tdir):
        # write-to-tmp then ATOMIC RENAME: tdir either doesn't exist or is
        # complete — a crashed derive leaves only a stray tmp dir, and two
        # concurrent builders can't rmtree each other's in-progress writes
        # (the rename loser just discards its copy)
        import shutil

        tmp = f"{tdir}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)

        def derive(b: pa.Table) -> pa.Table:
            toks = pc.split_pattern_regex(
                pc.utf8_trim_whitespace(b["text"]), pattern=r"\s+"
            )
            title = pc.binary_join(
                pc.list_slice(toks, 0, TITLE_TOKENS), " "
            )
            return pa.table({
                "doc_id": b["doc_id"], "title": title,
                "source": b["source"], "lang": b["lang"],
            })

        (
            sized_read_parquet(
                _t(sf_dir, "documents"),
                columns=["doc_id", "text", "source", "lang"],
            )
            .map_batches(derive, batch_format="pyarrow")
            .write_parquet(tmp)
        )
        try:
            os.rename(tmp, tdir)
        except OSError:  # concurrent builder won the rename
            shutil.rmtree(tmp, ignore_errors=True)
    build_index(tdir, idx_dir, replace(DOC_INDEX_CFG, content_col="title"),
                resume=True)
    return idx_dir


# ----------------------------------------------------------- index queries
def q_best_fields(sf_dir: str) -> pd.DataFrame:
    """True multi-field ``best_fields`` (ES ``multi_match``, reference
    elasticsearch.py:250-262): per-field BM25 over [text, title] — each
    field with its own postings and length norms — merged by per-doc max
    (dis_max, tie_breaker 0). Oracle: GREATEST over two per-field BM25
    CTEs in DuckDB."""
    from nmr_fair_dos_ray.search.engine import best_fields_search

    searchers = [
        Searcher(IndexReader(documents_index(sf_dir))),
        Searcher(IndexReader(documents_title_index(sf_dir))),
    ]
    hits = best_fields_search(searchers, BM25_QUERY, k=10)
    return pd.DataFrame(
        {
            "doc_id": [d for d, _ in hits],
            "score": [round_half_away(sc, 4) for _, sc in hits],
        }
    )


def q_best_fields_tb(sf_dir: str) -> pd.DataFrame:
    """``best_fields`` with ``tie_breaker`` 0.3 (the ES dis_max
    tie_breaker): per doc ``max_f s_f + 0.3 * (sum_f s_f - max_f s_f)`` —
    the non-best fields contribute a weighted share instead of being
    discarded. Oracle: ``GREATEST + 0.3 * (sum - GREATEST)`` over the same
    per-field BM25 CTEs."""
    from nmr_fair_dos_ray.search.engine import best_fields_search

    searchers = [
        Searcher(IndexReader(documents_index(sf_dir))),
        Searcher(IndexReader(documents_title_index(sf_dir))),
    ]
    hits = best_fields_search(searchers, BM25_QUERY, k=10, tie_breaker=0.3)
    return pd.DataFrame(
        {
            "doc_id": [d for d, _ in hits],
            "score": [round_half_away(sc, 4) for _, sc in hits],
        }
    )


def q_search_count(sf_dir: str) -> pd.DataFrame:
    """Matching-doc counts (ES ``_count``) for three queries — the match
    set |union of term postings ∩ exact filters| without scoring."""
    idx = documents_index(sf_dir)
    s = Searcher(IndexReader(idx))
    qs = [BM25_QUERY, "data source:src3", "zzqxnevermatches"]
    return pd.DataFrame({
        "query_id": list(range(len(qs))),
        "n_matches": [s.count(q) for q in qs],
    })


def q_df_top_terms(sf_dir: str) -> pd.DataFrame:
    """Document frequency per term, top 50 (df desc, term asc) — the core
    postings statistic (SURVEY.md §2.7 engine rows)."""
    docs = sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    class Tok:
        def __init__(self):
            self.tok = Tokenizer("simple")

        def __call__(self, b: pa.Table) -> pa.Table:
            rows, ids, _, terms = self.tok.batch_token_ids(b["text"], False)
            doc_ids = b["doc_id"].to_numpy(zero_copy_only=False)[rows]
            pairs = pa.table({"doc_id": pa.array(doc_ids), "term_id": pa.array(ids)})
            # distinct (doc, term) within the batch — docs never span batches
            pairs = pairs.group_by(["doc_id", "term_id"]).aggregate([])
            return pa.table({"doc_id": pairs["doc_id"],
                             "term": terms.take(pairs["term_id"])})

    agg = (
        docs.map_batches(Tok, batch_format="pyarrow", concurrency=(1, 8))
        .groupby("term")
        .aggregate(Count(alias_name="df"))
    )

    def block_topk(b: pa.Table) -> pa.Table:
        # per-block partial top-50 → driver merges ≤ 50×n_blocks rows; the
        # global Dataset.sort all-to-all was pure fixed cost for a top-k
        dfc = b["df"].to_numpy(zero_copy_only=False)
        terms = b["term"].to_numpy(zero_copy_only=False)
        order = np.lexsort((terms, -dfc))[:50]
        return b.take(pa.array(np.sort(order)))

    parts = agg.map_batches(block_topk, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values(["df", "term"], ascending=[False, True]).head(50)
    return parts.reset_index(drop=True)


def q_corpus_stats(sf_dir: str) -> pd.DataFrame:
    """n_docs / total_tokens / avgdl — the BM25 global stats pass."""
    from nmr_fair_dos_ray.pipelines.textops import token_counts_per_doc

    docs = sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    counts = token_counts_per_doc(docs)
    agg = counts.aggregate(Count(alias_name="n_docs"), Sum("n_ws_tokens", alias_name="total_tokens"))
    n_docs = int(agg["n_docs"])
    total = int(agg["total_tokens"])
    return pd.DataFrame(
        {"n_docs": [n_docs], "total_tokens": [total],
         "avgdl": [round_half_away(total / n_docs, 4)]}
    )


def q_bm25_top10(sf_dir: str) -> pd.DataFrame:
    """End-to-end: build index (resumable) → BM25 top-10 for a fixed query.

    Note whitespace tokens vs simple-mode tokens agree on this table (the
    driver's documents.text is space-separated lowercase words).
    """
    idx = documents_index(sf_dir)
    s = Searcher(IndexReader(idx))
    hits = s.search(BM25_QUERY, k=10)
    return pd.DataFrame(
        {
            "doc_id": [d for d, _ in hits],
            "score": [round_half_away(sc, 4) for _, sc in hits],
        }
    )


def q_search_page2(sf_dir: str) -> pd.DataFrame:
    """Cursor pagination (ES ``search_after`` analog): fetch page 1, use its
    last hit (score, doc_id) as the cursor, return page 2 — equivalent to
    the SQL ranking with OFFSET 10 LIMIT 10 because scores are deterministic
    float64 across the engine and the oracle."""
    idx = documents_index(sf_dir)
    s = Searcher(IndexReader(idx))
    page1 = s.search(BM25_QUERY, k=10)
    cursor = page1[-1] if page1 else None
    hits = s.search_after(BM25_QUERY, k=10,
                          after=(cursor[1], cursor[0]) if cursor else None)
    return pd.DataFrame(
        {
            "doc_id": [d for d, _ in hits],
            "score": [round_half_away(sc, 4) for _, sc in hits],
        }
    )


PREFIX_QUERY = "s"       # expands to slow/small/sort/scan/spark/stream
FUZZY_QUERY = "sow joim"  # lev-1 → {slow, row} ∪ {join}


def q_prefix_search(sf_dir: str) -> pd.DataFrame:
    """Prefix-query top-10 (ES ``prefix`` with scoring_boolean rewrite):
    dictionary expansion then ordinary disjunctive BM25 — each expanded
    term scored with its own df/idf, so the oracle is the q_bm25_top10 SQL
    with ``term LIKE 'p%'`` instead of a fixed term list."""
    idx = documents_index(sf_dir)
    s = Searcher(IndexReader(idx))
    hits = s.search_prefix(PREFIX_QUERY, k=10)
    return pd.DataFrame(
        {
            "doc_id": [d for d, _ in hits],
            "score": [round_half_away(sc, 4) for _, sc in hits],
        }
    )


REGEX_QUERY = "s.+(ow|an|rt)"  # slow/scan/sort-shaped dictionary terms


def q_regex_search(sf_dir: str) -> pd.DataFrame:
    """Regex-query top-10 (ES ``regexp`` with scoring_boolean rewrite):
    anchored-pattern dictionary expansion (one vectorized Arrow regex scan)
    then ordinary disjunctive BM25 — the oracle is the q_bm25_top10 SQL
    with ``regexp_matches(term, '^(...)$')`` instead of a term list (both
    sides are RE2)."""
    idx = documents_index(sf_dir)
    s = Searcher(IndexReader(idx))
    hits = s.search_regex(REGEX_QUERY, k=10)
    return pd.DataFrame(
        {
            "doc_id": [d for d, _ in hits],
            "score": [round_half_away(sc, 4) for _, sc in hits],
        }
    )


def q_fuzzy_search(sf_dir: str) -> pd.DataFrame:
    """Fuzzy top-10 (ES ``fuzziness`` analog): every query term expands to
    index terms within Levenshtein distance 1 (SymSpell deletion index +
    exact-distance verify — plain Levenshtein, the same metric as DuckDB's
    ``levenshtein()``), the union scored as a disjunction."""
    idx = documents_index(sf_dir)
    s = Searcher(IndexReader(idx))
    hits = s.search_fuzzy(FUZZY_QUERY, k=10, max_edits=1)
    return pd.DataFrame(
        {
            "doc_id": [d for d, _ in hits],
            "score": [round_half_away(sc, 4) for _, sc in hits],
        }
    )


SNIPPET_WINDOW = 8


def q_snippets(sf_dir: str) -> pd.DataFrame:
    """Fetch-phase highlighting (ES highlighter analog): for the BM25
    top-10 docs, the 8-token window with the most query-term occurrences
    (earliest tie). The read prunes to the 10 hit rows (filter pushdown);
    the stage is the vectorized actor-pool SnippetStage."""
    from nmr_fair_dos_ray.pipelines.textops import SnippetStage

    idx = documents_index(sf_dir)
    s = Searcher(IndexReader(idx))
    hits = [d for d, _ in s.search(BM25_QUERY, k=10)]
    terms = sorted(set(BM25_QUERY.split()))
    docs = sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    hitset = pa.array(sorted(int(d) for d in hits), pa.int64())

    def keep_hits(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b["doc_id"], value_set=hitset))

    out = (
        docs.map_batches(keep_hits, batch_format="pyarrow")
        .map_batches(
            SnippetStage,
            fn_constructor_kwargs={"query_terms": terms, "window": SNIPPET_WINDOW},
            batch_format="pyarrow",
            concurrency=(1, 4),
        )
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


QS_QUERY = 'data +query -small "slow query" val*'


def q_query_string(sf_dir: str) -> pd.DataFrame:
    """Unified query-string search (ES ``query_string`` analog) over the
    positional index: scored disjunction {data, query, slow, val*-expansion},
    candidates = docs containing ``query`` AND the exact phrase
    ``"slow query"``, minus docs containing ``small``. Every piece is
    SQL-expressible, so the oracle reproduces the whole pipeline."""
    idx = documents_index(sf_dir, positions=True)
    s = Searcher(IndexReader(idx))
    hits = s.search_query(QS_QUERY, k=10)
    return pd.DataFrame(
        {
            "doc_id": [d for d, _ in hits],
            "score": [round_half_away(sc, 4) for _, sc in hits],
        }
    )


def q_delete_search(sf_dir: str) -> pd.DataFrame:
    """Search after a tombstone delete (document lifecycle,
    pipelines/lifecycle.py): delete every doc of one source via the ES
    delete-by-query analog, then BM25 top-10 as usual.

    Frozen-stats semantics make this exactly SQL-expressible: df / avgdl /
    n_docs stay as built (computed over the FULL corpus), deleted docs are
    only excluded from the result set — so the oracle is the q_bm25_top10
    SQL with a final ``source <> 'src3'`` filter. Idempotent across runs
    (re-deleting an already-masked source is a no-op)."""
    from nmr_fair_dos_ray.pipelines.lifecycle import delete_by_term

    idx_dir = f"/tmp/nmr_fair_dos_ray/docindex/{_tag(sf_dir)}-del"
    build_index(_t(sf_dir, "documents"), idx_dir, DOC_INDEX_CFG, resume=True)
    delete_by_term(idx_dir, "source:src3")
    s = Searcher(IndexReader(idx_dir))
    hits = s.search(BM25_QUERY, k=10)
    return pd.DataFrame(
        {
            "doc_id": [d for d, _ in hits],
            "score": [round_half_away(sc, 4) for _, sc in hits],
        }
    )


def q_exact_lookup(sf_dir: str) -> pd.DataFrame:
    """Exact field-term lookup (the reference's exact-equality verification,
    src/nmr_FAIR_DOs/connectors/elasticsearch.py:295-306) served from the
    same index as ranked search."""
    idx = documents_index(sf_dir)
    r = IndexReader(idx)
    s = Searcher(r)
    hits = s.search("source:src3", k=r.n_docs)
    return pd.DataFrame({"doc_id": [d for d, _ in hits]})


PHRASE_QUERY = "slow query"
AND_QUERY = "table hash join"  # all three co-occur in the testdata corpus


def q_phrase_search(sf_dir: str) -> pd.DataFrame:
    """Exact-phrase top-10 over the positional index (ES match_phrase
    analog — the reference's ES index answers phrase queries from the same
    positional postings it builds by default,
    src/nmr_FAIR_DOs/connectors/elasticsearch.py:169-173). Ranked by
    (occurrence count desc, doc_id asc); count = adjacent-token occurrences
    of the analyzed phrase."""
    idx = documents_index(sf_dir, positions=True)
    s = Searcher(IndexReader(idx))
    hits = s.search_phrase(PHRASE_QUERY, k=10)
    return pd.DataFrame(
        {"doc_id": [d for d, _ in hits], "n_occur": [n for _, n in hits]}
    )


def q_near_search(sf_dir: str) -> pd.DataFrame:
    """Ordered proximity top-10 (ES match_phrase + slop analog with
    documented any-choice chain semantics): the phrase terms in order with
    each gap ≤ slop+1 tokens; count = distinct chain end positions. SQL
    oracle: EXISTS-joined position inequalities (__ray_entry__)."""
    idx = documents_index(sf_dir, positions=True)
    s = Searcher(IndexReader(idx))
    hits = s.search_near(PHRASE_QUERY, k=10, slop=2)
    return pd.DataFrame(
        {"doc_id": [d for d, _ in hits], "n_chains": [n for _, n in hits]}
    )


def q_near_unordered(sf_dir: str) -> pd.DataFrame:
    """Order-free proximity top-10 (the ``ordered=False`` selectable ES
    slop semantics — Lucene sloppy phrases match reversed terms too):
    every other distinct term within slop+1 tokens of an anchor (last
    query term) occurrence, either side. SQL oracle: both-order EXISTS
    join on ``abs(pa - pb) <= slop + 1`` (__ray_entry__)."""
    idx = documents_index(sf_dir, positions=True)
    s = Searcher(IndexReader(idx))
    hits = s.search_near(PHRASE_QUERY, k=10, slop=2, ordered=False)
    return pd.DataFrame(
        {"doc_id": [d for d, _ in hits], "n_anchors": [n for _, n in hits]}
    )


def q_and_search(sf_dir: str) -> pd.DataFrame:
    """Conjunctive BM25 top-10 (ES bool.must analog): docs containing ALL
    query terms, scored identically to the disjunctive engine."""
    idx = documents_index(sf_dir)
    s = Searcher(IndexReader(idx))
    hits = s.search_and(AND_QUERY, k=10)
    return pd.DataFrame(
        {
            "doc_id": [d for d, _ in hits],
            "score": [round_half_away(sc, 4) for _, sc in hits],
        }
    )


def q_search_facets(sf_dir: str) -> pd.DataFrame:
    """Per-language matching-doc counts for a ranked query (ES terms-
    aggregation analog), resolved entirely from index field terms — no
    doc-store scan."""
    idx = documents_index(sf_dir)
    s = Searcher(IndexReader(idx))
    facets = s.facet_counts(BM25_QUERY, "lang")
    return pd.DataFrame(
        {"lang": [v for v, _ in facets], "n_docs": [n for _, n in facets]}
    )


def facet_metric_stats(
    sf_dir: str, query: str, facet_col: str, metric_col: str,
) -> pd.DataFrame:
    """ES terms-aggregation WITH a metric sub-aggregation (count + sum +
    avg of a stored numeric column per facet value) over a query's match
    set — the `aggs: {terms: {...}, aggs: {stats: {...}}}` analog.

    Distributed shape: the match set resolves from the index (one sorted
    doc_id array), broadcasts once via ``ray.put``; a column-pruned read of
    the document table filters each batch by vectorized sorted membership
    and a small groupby on the facet column computes the metrics — the
    metric scan never leaves the cluster; the driver sees only per-value
    rows."""
    import ray

    from nmr_fair_dos_ray.search.engine import sorted_lookup

    s = Searcher(IndexReader(documents_index(sf_dir)))
    matches = s.match_set(query)
    if matches.size == 0:
        # Ray's groupby over an empty dataset yields a zero-column frame —
        # return the typed empty result the oracle produces instead
        return pd.DataFrame({
            facet_col: pd.Series(dtype="object"),
            "n_docs": pd.Series(dtype="int64"),
            f"sum_{metric_col}": pd.Series(dtype="int64"),
            f"avg_{metric_col}": pd.Series(dtype="float64"),
        })
    ref = ray.put(matches)

    class MatchFilter:
        def __init__(self):
            self.m = ray.get(ref)  # zero-copy, once per actor

        def __call__(self, b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            _, ok = sorted_lookup(ids, self.m)
            return b.filter(pa.array(ok))

    agg = (
        sized_read_parquet(
            _t(sf_dir, "documents"), columns=["doc_id", facet_col, metric_col]
        )
        .map_batches(MatchFilter, batch_format="pyarrow", concurrency=(1, 4))
        .groupby(facet_col)
        .aggregate(
            Count(alias_name="n_docs"),
            Sum(metric_col, alias_name=f"sum_{metric_col}"),
        )
    )
    df = agg.to_pandas().sort_values(facet_col).reset_index(drop=True)
    df["n_docs"] = df["n_docs"].astype("int64")
    df[f"sum_{metric_col}"] = df[f"sum_{metric_col}"].astype("int64")
    df[f"avg_{metric_col}"] = [
        round_half_away(sv / nv, 4)
        for sv, nv in zip(df[f"sum_{metric_col}"], df["n_docs"])
    ]
    return df


def q_facet_stats(sf_dir: str) -> pd.DataFrame:
    """Per-language count + sum + avg of n_chars over the BM25 query's
    match set (terms-agg with a stats sub-agg)."""
    return facet_metric_stats(sf_dir, BM25_QUERY, "lang", "n_chars")


# --------------------------------------------------------------- text ops
def q_token_stats_by_lang(sf_dir: str) -> pd.DataFrame:
    from nmr_fair_dos_ray.pipelines.textops import token_counts_per_doc

    docs = sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text", "lang"])

    def with_lang(b: pa.Table) -> pa.Table:
        from nmr_fair_dos_ray.pipelines.textops import token_counts_per_doc  # noqa
        import pyarrow.compute as pc
        texts = b["text"]
        split = pc.split_pattern_regex(pc.fill_null(texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts, ""), pattern=r"\s+")
        flat = pc.list_flatten(split)
        lens = pc.list_value_length(split).to_numpy(zero_copy_only=False).astype(np.int64)
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False).astype(np.int64)
        rows = np.repeat(np.arange(b.num_rows), lens)
        counts = np.zeros(b.num_rows, np.int64)
        np.add.at(counts, rows, nonempty)
        return pa.table({"lang": b["lang"], "n_tokens": pa.array(counts)})

    agg = (
        docs.map_batches(with_lang, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Count(alias_name="n_docs"), Sum("n_tokens", alias_name="total_tokens"))
    )
    return agg.to_pandas().sort_values("lang").reset_index(drop=True)


def q_quality_features(sf_dir: str) -> pd.DataFrame:
    """SQL-checkable slice of the quality features (first 100 docs)."""
    from nmr_fair_dos_ray.pipelines.quality_sql import quality_sql_features

    return quality_sql_features(sf_dir)


def q_langid(sf_dir: str) -> pd.DataFrame:
    """Heuristic language-ID rollup. SQL-oracled: the stopword-ratio argmax
    (lexicographically-largest-lang tiebreak, unknown at ratio <= 0.03) is
    reproduced exactly in DuckDB (see __ray_entry__.oracle_sql q_langid)."""
    from nmr_fair_dos_ray.pipelines.textops import quality_features

    docs = sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    feats = quality_features(docs)
    agg = feats.groupby("lang_guess").aggregate(Count(alias_name="n_docs"))
    return agg.to_pandas().sort_values("lang_guess").reset_index(drop=True)


# ------------------------------------------------------------------ dedup
def q_dedup_exact(sf_dir: str) -> pd.DataFrame:
    """Exact dedup by sha256(text): survivor id + group size for EVERY group
    (not only dups) so the oracle check exercises the hash grouping even on
    corpora without duplicates."""
    from nmr_fair_dos_ray.pipelines.dedup import exact_dedup_groups

    docs = sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def add_hash(b: pa.Table) -> pa.Table:
        hs = [hashlib.sha256((t or "").encode()).hexdigest() for t in b["text"].to_pylist()]
        return b.append_column("sha", pa.array(hs, pa.string())).drop_columns(["text"])

    groups = exact_dedup_groups(
        docs.map_batches(add_hash, batch_format="pyarrow"), hash_col="sha"
    )
    df = groups.to_pandas()[["keep_id", "n_docs"]]
    return df.sort_values("keep_id").reset_index(drop=True)


def q_minhash_neardup(sf_dir: str) -> pd.DataFrame:
    """MinHash-LSH candidate pairs with signature Jaccard ≥ 0.5 (rows-only
    oracle: LSH bucketing is not SQL-expressible)."""
    from nmr_fair_dos_ray.pipelines.dedup import minhash_candidate_pairs

    docs = sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    pairs = minhash_candidate_pairs(docs)
    df = pairs.to_pandas()
    df = df[df["sig_jaccard"] >= 0.5].copy()
    df["sig_jaccard"] = df["sig_jaccard"].round(3)
    return df.sort_values(["a", "b"]).reset_index(drop=True)


def q_minhash_components(sf_dir: str) -> pd.DataFrame:
    """Near-dup connected components over MinHash-LSH candidates via the
    Dataset-native min-label propagation (rows-only oracle). Returns one row
    per component: representative label + member count."""
    from nmr_fair_dos_ray.pipelines.dedup import (
        minhash_candidate_pairs, near_dup_components_ds,
    )

    docs = sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    pairs = minhash_candidate_pairs(docs).materialize()
    # auto path selection: the driver union-find for small candidate graphs
    # (near-dup graphs are tiny relative to the corpus), the Dataset-native
    # min-label rounds (near_dup_components_ds, join-per-round) once the
    # graph outgrows one machine — both tested equivalent in tests/
    if pairs.count() <= 100_000:
        from nmr_fair_dos_ray.pipelines.dedup import near_dup_components

        label = near_dup_components(pairs, threshold=0.5)
        df = pd.Series(label, name="label").rename_axis("node").reset_index()
    else:
        labels = near_dup_components_ds(pairs, threshold=0.5)
        df = labels.to_pandas()
    agg = df.groupby("label", as_index=False).agg(n_docs=("node", "count"))
    return agg.sort_values("label").reset_index(drop=True)


def q_simhash_sample(sf_dir: str) -> pd.DataFrame:
    """64-bit SimHash per doc (first 200 docs; rows-only oracle)."""
    from nmr_fair_dos_ray.pipelines.dedup import SimHashStage

    docs = sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    res = docs.map_batches(
        SimHashStage, batch_format="pyarrow", concurrency=(1, 8)
    ).to_pandas()
    return res.sort_values("doc_id").head(200).reset_index(drop=True)


def q_simhash_neardup(sf_dir: str) -> pd.DataFrame:
    """SimHash Hamming-bucket near-dup pairs (Hamming ≤ 3 via band-LSH
    pigeonhole; rows-only oracle — banding is not SQL-expressible)."""
    from nmr_fair_dos_ray.pipelines.dedup import simhash_candidate_pairs

    docs = sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    df = simhash_candidate_pairs(docs, max_hamming=3).to_pandas()
    return df.sort_values(["a", "b"]).reset_index(drop=True)


def q_fingerprints(sf_dir: str) -> pd.DataFrame:
    """Rolling-hash doc fingerprints (min + count). SQL-oracle-checked:
    the DuckDB oracle reproduces the FNV-1a token hash and the wrapping
    uint64 window polynomial exactly via list_reduce folds in HUGEINT
    arithmetic mod 2^64 (see __ray_entry__.oracle_sql q_fingerprints)."""
    from nmr_fair_dos_ray.pipelines.textops import doc_fingerprints

    docs = sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    fps = doc_fingerprints(docs).to_pandas()
    fps["fp_min"] = fps["fingerprint"].map(lambda l: int(min(l)) if len(l) else -1)
    fps["fp_count"] = fps["fingerprint"].map(len)
    return fps[["doc_id", "fp_min", "fp_count"]].sort_values("doc_id").reset_index(drop=True)


def q_ngram_jaccard(sf_dir: str) -> pd.DataFrame:
    """Exact n-gram Jaccard (the dedup family's verification kernel,
    `dedup.ngram_jaccard`) over adjacent doc pairs — word-trigram AND
    unigram similarity per pair (trigrams are ~0 on this synthetic corpus;
    unigrams exercise real nonzero values). Distributed shape: one
    hash-partitioned groupby on pair_id, exact kernel per group — the same
    per-pair verify shape the MinHash pipeline uses at scale.

    SQL-oracle-checked: the DuckDB oracle computes Jaccard over distinct
    n-gram STRING sets; the kernel uses FNV shingle-hash sets — equal
    unless FNV collides inside a doc pair (none in the testdata; the
    driver's value-hash check would surface one)."""
    from nmr_fair_dos_ray.pipelines.dedup import ngram_jaccard

    docs = (
        sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
        .filter(expr="doc_id < 200")
    )

    def tag(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.append_column("pair_id", pa.array(ids // 2, pa.int64()))

    def pair_kernel(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id")
        texts = df["text"].tolist()
        if len(texts) < 2:  # unpaired last doc: no pair, no row (oracle
            return pd.DataFrame({  # joins a.doc_id < b.doc_id — same gap)
                "pair_id": pd.Series(dtype="int64"),
                "jaccard3": pd.Series(dtype="float64"),
                "jaccard1": pd.Series(dtype="float64"),
            })
        a, b = texts[0], texts[1]
        return pd.DataFrame({
            "pair_id": [int(df["pair_id"].iloc[0])],
            "jaccard3": [round_half_away(ngram_jaccard(a, b, 3), 4)],
            "jaccard1": [round_half_away(ngram_jaccard(a, b, 1), 4)],
        })

    out = (
        docs.map_batches(tag, batch_format="pyarrow")
        .groupby("pair_id")
        .map_groups(pair_kernel, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("pair_id").reset_index(drop=True)


# -------------------------------------------------------------------- ANN
N_ANN_QUERIES = 8
ANN_K = 5


def _query_matrix(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    emb = pq.read_table(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    vid = emb["vec_id"].to_numpy(zero_copy_only=False)
    order = np.argsort(vid)[:N_ANN_QUERIES]
    col = emb["embedding"].combine_chunks()
    dim = len(col[0])
    flat = col.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim)
    return vid[order], flat[order].astype(np.float64)


def q_ann_top5(sf_dir: str) -> pd.DataFrame:
    """Brute-force cosine top-5 for the first 8 vectors as queries."""
    from nmr_fair_dos_ray.pipelines.ann import brute_force_topk

    qids, qm = _query_matrix(sf_dir)
    vecs = sized_read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    res = brute_force_topk(vecs, qm, k=ANN_K, round_to=4).to_pandas()
    res["query_vec_id"] = res["query_id"].map(lambda q: int(qids[q]))
    return res[["query_vec_id", "rank", "vec_id", "cosine"]].sort_values(
        ["query_vec_id", "rank"]
    ).reset_index(drop=True)


def q_ivf_persisted(sf_dir: str) -> pd.DataFrame:
    """PERSISTED IVF index (ann.build_ivf_index: k-means centroids +
    cluster-partitioned hive parquet, built once and resumed on re-run)
    queried exhaustively (nprobe = n_clusters): every vector lives in
    exactly one partition, so results are bit-equal to brute force and the
    q_ann_top5 SQL oracle applies verbatim. Selective probes (the real
    scale path — only probed partitions are READ) are recall-checked by
    q_ivf_overlap."""
    from nmr_fair_dos_ray.pipelines.ann import build_ivf_index, ivf_index_topk

    qids, qm = _query_matrix(sf_dir)
    vecs = sized_read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    idx = f"/tmp/nmr_fair_dos_ray/ivfindex/{_tag(sf_dir)}"
    build_ivf_index(vecs, idx, n_clusters=8)
    res = ivf_index_topk(idx, qm, k=ANN_K, nprobe=8, round_to=4).to_pandas()
    res["query_vec_id"] = res["query_id"].map(lambda q: int(qids[q]))
    return res[["query_vec_id", "rank", "vec_id", "cosine"]].sort_values(
        ["query_vec_id", "rank"]
    ).reset_index(drop=True)


def q_ivf_overlap(sf_dir: str) -> pd.DataFrame:
    """IVF(nprobe=4) vs brute-force overlap per query (rows-only oracle) —
    the scale path's recall check."""
    from nmr_fair_dos_ray.pipelines.ann import brute_force_topk, ivf_topk

    qids, qm = _query_matrix(sf_dir)
    vecs = sized_read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    bf = brute_force_topk(vecs, qm, k=ANN_K).to_pandas()
    ivf = ivf_topk(vecs, qm, k=ANN_K, n_clusters=16, nprobe=4).to_pandas()
    rows = []
    for q in range(len(qids)):
        b = set(bf[bf["query_id"] == q]["vec_id"])
        v = set(ivf[ivf["query_id"] == q]["vec_id"])
        rows.append({"query_vec_id": int(qids[q]), "n_overlap": len(b & v)})
    return pd.DataFrame(rows)


EMBED_NEARDUP_TAU = 0.45  # driver embeddings have no true dups (max pairwise
# cosine ≈ 0.51), so the threshold sits below that to exercise the operator


def q_embed_neardup(sf_dir: str) -> pd.DataFrame:
    """Embedding-cosine near-duplicate pairs (cosine ≥ τ, a < b).

    The embedding-space member of the dedup family (exact / MinHash-LSH /
    SimHash / n-gram Jaccard / cosine). IVF-bucketed: margin multi-probe
    centroid assignment co-locates every qualifying pair in ≥1 shared
    cluster (proof in ann.IVFMultiAssign), exact float64 kernel only inside
    buckets — no full-matrix broadcast, no driver read of the vectors, still
    bit-equal to the all-pairs SQL oracle.
    """
    from nmr_fair_dos_ray.pipelines.ann import embed_neardup_pairs

    vecs = sized_read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    pairs = embed_neardup_pairs(vecs, tau=EMBED_NEARDUP_TAU, n_clusters=8)
    df = pairs.to_pandas()
    return df.sort_values(["a", "b"]).reset_index(drop=True)


def q_pid_mint(sf_dir: str) -> pd.DataFrame:
    """PID minting as the reference does it: base64 of a cleartext identifier
    (reference: src/nmr_FAIR_DOs/utils.py:130-167 encodeInBase64, used at
    chemotion.py:317-319), with the decode round-trip asserted per row."""
    from nmr_fair_dos_ray.functions.scalar import decode_from_base64, encode_in_base64

    docs = sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "source"])

    def mint(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        srcs = b["source"].to_pylist()
        pids = [encode_in_base64(f"doc:{s}/{d}") for s, d in zip(srcs, ids)]
        ok = [decode_from_base64(p) == f"doc:{s}/{d}"
              for p, s, d in zip(pids, srcs, ids)]
        return pa.table(
            {"doc_id": b["doc_id"], "pid": pa.array(pids, pa.string()),
             "roundtrip_ok": pa.array(ok, pa.bool_())}
        )

    df = docs.map_batches(mint, batch_format="pyarrow").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


# -------------------------------------------------------------- multimodal
def q_image_pipeline(sf_dir: str) -> pd.DataFrame:
    """Multimodal pipeline: attach binary payloads (2/3 real PNG/JPEG bytes,
    1/3 deliberately opaque) → actor-pool decode — REAL pure-numpy PNG and
    baseline-JPEG codecs (stages/multimodal.py, stages/jpeg.py); opaque
    payloads exercise the dispatch seam where a native codec would plug in —
    → resize → shape stats. Rows-only oracle (binary decode isn't SQL)."""
    from nmr_fair_dos_ray.stages.multimodal import (
        ImageDecodeStage, ImageResizeStage, attach_binary_payload,
    )

    docs = sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"]).limit(64)
    with_payload = attach_binary_payload(docs)
    decoded = with_payload.map_batches(
        ImageDecodeStage, batch_size=16, batch_format="pyarrow", concurrency=(1, 2)
    )
    resized = decoded.map_batches(
        ImageResizeStage, batch_size=16, batch_format="pyarrow", concurrency=(1, 2)
    )
    df = resized.to_pandas()
    out = pd.DataFrame(
        {
            "doc_id": df["doc_id"],
            "decoded": df["decoded"],
            "n_pixels": df["pixels"].map(len),
            "n_pixels_resized": df["pixels_resized"].map(len),
        }
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def q_audio_pipeline(sf_dir: str) -> pd.DataFrame:
    """Audio frame-sampling over REAL synthesized PCM16 WAV payloads
    (rows-only oracle — binary decode isn't SQL-expressible). One payload per
    first-64 doc, deterministic; returns per-doc frame stats."""
    from nmr_fair_dos_ray.stages.multimodal import AudioFrameSampleStage, synth_wav

    docs = sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id"]).limit(64)

    def attach(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "payload": pa.array([synth_wav(int(d)) for d in ids], pa.binary())}
        )

    out = (
        docs.map_batches(attach, batch_format="pyarrow")
        .map_batches(
            AudioFrameSampleStage,
            fn_constructor_kwargs={"stride": 10, "frame_count": 16},
            batch_size=16, batch_format="pyarrow", concurrency=(1, 4),
        )
        .to_pandas()
    )
    out["n_frames"] = out["frames"].map(len)
    out["frame_sum"] = out["frames"].map(lambda f: int(np.sum(f)))
    return (
        out[["doc_id", "n_frames", "frame_sum", "real_decode"]]
        .sort_values("doc_id").reset_index(drop=True)
    )


def q_video_pipeline(sf_dir: str) -> pd.DataFrame:
    """Video frame-sampling over REAL synthesized payloads — a MIX of
    containers round-robined by doc_id: uncompressed YUV4MPEG2, compressed
    AVI-MJPEG, and bare concatenated-JFIF MJPEG (each frame decoded with
    the pure-Python baseline-JPEG codec). Rows-only oracle. Returns per-doc
    sampled-frame stats."""
    from nmr_fair_dos_ray.stages.multimodal import (
        VideoFrameSampleStage, synth_mjpeg_avi, synth_y4m,
    )

    docs = sized_read_parquet(_t(sf_dir, "documents"), columns=["doc_id"]).limit(64)

    def _payload(d: int) -> bytes:
        if d % 3 == 0:
            return synth_y4m(d)
        return synth_mjpeg_avi(d, container="avi" if d % 3 == 1 else "jfif")

    def attach(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "payload": pa.array([_payload(int(d)) for d in ids], pa.binary())}
        )

    out = (
        docs.map_batches(attach, batch_format="pyarrow")
        .map_batches(
            VideoFrameSampleStage,
            fn_constructor_kwargs={"every_nth": 2, "max_frames": 3},
            batch_size=16, batch_format="pyarrow", concurrency=(1, 4),
        )
        .to_pandas()
    )
    out["luma_sum"] = out["frames_luma"].map(lambda f: int(np.sum(f)))
    return (
        out[["doc_id", "n_frames", "luma_sum", "decoded"]]
        .sort_values("doc_id").reset_index(drop=True)
    )
