"""Driver contract for the graft builder (Ray Data target).

``entry()`` — flagship pipeline (fulltext index build + BM25 top-k) on
sf0.001. ``queries()`` — 58 callables, one per implemented operator/pipeline
from SURVEY.md §2 (incl. the M1-M11 extraction family, the round-3 document
lifecycle, the prefix/fuzzy/query-string/snippet/proximity (ordered AND
unordered slop)/best_fields (tie_breaker too) search surface and the
persisted-IVF similarity index) plus the training-data operators; each takes
``sf_dir`` and returns a DataFrame. ``oracle_sql()`` — the DuckDB-equivalent
SQL for the 50 SQL-expressible queries (same column names, same rounding),
which sit FIRST in ``queries()`` so the driver's 50-entry CORRECTNESS cap
covers exactly them; non-SQL-expressible pipelines (LSH bucketing, SimHash
banding, IVF recall, binary multimodal decode) are intentionally omitted
there → rows-only check.

Ray is initialised by the driver BEFORE this module is imported: nothing here
calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship: build the fulltext index over sf0.001 documents (SPIMI
    invert → shard shuffle-merge → compressed shards) and serve BM25 top-10
    over block-max-pruned doc windows. Returns the hits joined with corpus stats."""
    import pandas as pd

    from nmr_fair_dos_ray.pipelines.doc_pipelines import (
        BM25_QUERY, documents_index,
    )
    from nmr_fair_dos_ray.search.engine import IndexReader, Searcher

    sf_dir = "/root/testdata/sf0.001"
    idx = documents_index(sf_dir)
    reader = IndexReader(idx)
    s = Searcher(reader)
    hits = s.search(BM25_QUERY, k=10)
    return pd.DataFrame(
        {
            "query": [BM25_QUERY] * len(hits),
            "rank": range(1, len(hits) + 1),
            "doc_id": [d for d, _ in hits],
            "score": [round(sc, 4) for _, sc in hits],
            "n_docs": [reader.n_docs] * len(hits),
            "avgdl": [round(reader.avgdl, 4)] * len(hits),
        }
    )


def queries() -> dict[str, Callable[[str], Any]]:
    from nmr_fair_dos_ray.pipelines import doc_pipelines as dp
    from nmr_fair_dos_ray.pipelines import extract as ex
    from nmr_fair_dos_ray.pipelines import relational as rel

    return {
        # relational / reference operator classes (SURVEY.md §2)
        "q01_pricing_summary": rel.q01_pricing_summary,
        "q03_top_building_orders": rel.q03_top_building_orders,
        "q05_revenue_by_nation": rel.q05_revenue_by_nation,
        "q_events_window": rel.q_events_window,
        "q_session_windows": rel.q_session_windows,
        "q_date_parse": rel.q_date_parse,
        "q_record_merge": rel.q_record_merge,
        "q_json_extract": rel.q_json_extract,
        "q_license_normalize": rel.q_license_normalize,
        "q_biggest_record": rel.q_biggest_record,
        "q_most_event_types": rel.q_most_event_types,
        "q_twokey_resolve": rel.q_twokey_resolve,
        "q_bidirectional_edges": rel.q_bidirectional_edges,
        # fulltext index pipelines (the engine core)
        "q_df_top_terms": dp.q_df_top_terms,
        "q_corpus_stats": dp.q_corpus_stats,
        "q_bm25_top10": dp.q_bm25_top10,
        "q_search_count": dp.q_search_count,
        "q_exact_lookup": dp.q_exact_lookup,
        "q_phrase_search": dp.q_phrase_search,
        "q_near_search": dp.q_near_search,
        "q_near_unordered": dp.q_near_unordered,
        "q_and_search": dp.q_and_search,
        "q_delete_search": dp.q_delete_search,
        "q_prefix_search": dp.q_prefix_search,
        "q_regex_search": dp.q_regex_search,
        "q_fuzzy_search": dp.q_fuzzy_search,
        "q_query_string": dp.q_query_string,
        "q_snippets": dp.q_snippets,
        "q_search_page2": dp.q_search_page2,
        "q_search_facets": dp.q_search_facets,
        "q_facet_stats": dp.q_facet_stats,
        "q_best_fields": dp.q_best_fields,
        "q_best_fields_tb": dp.q_best_fields_tb,
        # text analysis / training-data ops (SQL-oracled)
        "q_token_stats_by_lang": dp.q_token_stats_by_lang,
        "q_quality_features": dp.q_quality_features,
        "q_langid": dp.q_langid,
        "q_dedup_exact": dp.q_dedup_exact,
        "q_fingerprints": dp.q_fingerprints,
        "q_ngram_jaccard": dp.q_ngram_jaccard,
        "q_pid_mint": dp.q_pid_mint,
        "q_embed_neardup": dp.q_embed_neardup,
        # similarity search (SQL-oracled)
        "q_ann_top5": dp.q_ann_top5,
        "q_ivf_persisted": dp.q_ivf_persisted,
        # M1-M11 extraction pipeline (JSON envelopes -> long format)
        "q_extract_entries": ex.q_extract_entries,
        "q_extract_edges": ex.q_extract_edges,
        "q_extract_errors": ex.q_extract_errors,
        "q_extract_resolved": ex.q_extract_resolved,
        "q_repo_fdo": ex.q_repo_fdo,
        "q_flatten_records": ex.q_flatten_records,
        "q_type_api_fixes": ex.q_type_api_fixes,
        # ---- rows-only queries below this line (no SQL oracle by design:
        # sketch / heuristic / recall / binary-decode semantics). They sit
        # LAST so the driver's 50-entry CORRECTNESS cap never drops an
        # oracled check in their favor.
        "q_minhash_neardup": dp.q_minhash_neardup,
        "q_minhash_components": dp.q_minhash_components,
        "q_simhash_sample": dp.q_simhash_sample,
        "q_simhash_neardup": dp.q_simhash_neardup,
        "q_ivf_overlap": dp.q_ivf_overlap,
        # multimodal pipelines (REAL pure-numpy PNG/JPEG/WAV/AVI-MJPEG
        # codecs; 1/3 of image payloads exercise the opaque-payload
        # dispatch seam for native codecs)
        "q_image_pipeline": dp.q_image_pipeline,
        "q_audio_pipeline": dp.q_audio_pipeline,
        "q_video_pipeline": dp.q_video_pipeline,
    }


_TOKENS = "list_filter(string_split_regex(lower(text), '[^a-z0-9]+'), x -> x <> '')"
# the derived 'title' field: first 8 whitespace tokens of text, then the
# same simple-mode tokenization the title index applies (mirrors
# doc_pipelines.documents_title_index exactly)
_TITLE_TOKENS = (
    "list_filter(string_split_regex(lower(array_to_string("
    "list_slice(list_filter(string_split_regex(trim(text), '\\s+'), "
    "x -> x <> ''), 1, 8), ' ')), '[^a-z0-9]+'), x -> x <> '')"
)
_WS_TOKENS = "list_filter(string_split_regex(text, '\\s+'), x -> x <> '')"

# shared CTE block for the two best_fields oracles: per-field BM25
# (text + derived title), each field with its own dl/avgdl/df
_BEST_FIELDS_CTES = f"""
            WITH toks AS (
                SELECT doc_id, unnest({_TOKENS}) AS term FROM documents
            ),
            dl AS (
                SELECT d.doc_id, coalesce(t.n, 0) AS dl
                FROM documents d LEFT JOIN (
                    SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id
                ) t ON d.doc_id = t.doc_id
            ),
            stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM dl),
            tf AS (
                SELECT doc_id, term, count(*) AS tf FROM toks
                WHERE term IN ('data', 'pipeline', 'query')
                GROUP BY doc_id, term
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            s_text AS (
                SELECT tf.doc_id,
                       sum(
                           ln(1 + (stats.n_docs - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf * (1.2 + 1)
                           / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))
                       ) AS score
                FROM tf
                JOIN df ON tf.term = df.term
                JOIN dl ON tf.doc_id = dl.doc_id
                CROSS JOIN stats
                GROUP BY tf.doc_id
            ),
            ttoks AS (
                SELECT doc_id, unnest({_TITLE_TOKENS}) AS term FROM documents
            ),
            tdl AS (
                SELECT d.doc_id, coalesce(t.n, 0) AS dl
                FROM documents d LEFT JOIN (
                    SELECT doc_id, count(*) AS n FROM ttoks GROUP BY doc_id
                ) t ON d.doc_id = t.doc_id
            ),
            tstats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM tdl),
            ttf AS (
                SELECT doc_id, term, count(*) AS tf FROM ttoks
                WHERE term IN ('data', 'pipeline', 'query')
                GROUP BY doc_id, term
            ),
            tdf AS (SELECT term, count(*) AS df FROM ttf GROUP BY term),
            s_title AS (
                SELECT ttf.doc_id,
                       sum(
                           ln(1 + (tstats.n_docs - tdf.df + 0.5) / (tdf.df + 0.5))
                           * ttf.tf * (1.2 + 1)
                           / (ttf.tf + 1.2 * (1 - 0.75 + 0.75 * tdl.dl / tstats.avgdl))
                       ) AS score
                FROM ttf
                JOIN tdf ON ttf.term = tdf.term
                JOIN tdl ON ttf.doc_id = tdl.doc_id
                CROSS JOIN tstats
                GROUP BY ttf.doc_id
            ),
"""


def oracle_sql() -> dict[str, str]:
    from nmr_fair_dos_ray import oracle_extract as ox

    return {
        "q_extract_entries": ox.ENTRIES_SQL,
        "q_extract_edges": ox.EDGES_SQL,
        "q_extract_errors": ox.ERRORS_SQL,
        "q_extract_resolved": ox.RESOLVED_SQL,
        "q_repo_fdo": ox.REPO_FDO_SQL,
        "q_flatten_records": ox.FLATTEN_SQL,
        "q_type_api_fixes": ox.TYPE_FIXES_SQL,
        "q01_pricing_summary": f"""
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   round(sum(l_extendedprice), 2) AS sum_base_price,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
                   round(sum(l_quantity) / count(*), 4) AS avg_qty,
                   count(*) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '2024-06-30'
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "q03_top_building_orders": """
            SELECT o_orderkey, o_custkey, round(o_totalprice, 2) AS o_totalprice
            FROM (
                SELECT o.* FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
                WHERE c.c_mktsegment = 'BUILDING'
                ORDER BY o.o_totalprice DESC, o.o_orderkey
                LIMIT 10
            )
        """,
        "q05_revenue_by_nation": """
            SELECT n_name, round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM lineitem
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            GROUP BY n_name ORDER BY n_name
        """,
        "q_events_window": """
            SELECT event_type, count(*) AS n_events, round(sum(value), 2) AS sum_value
            FROM events
            WHERE ts >= TIMESTAMP '2024-01-10' AND ts < TIMESTAMP '2024-01-20'
            GROUP BY event_type ORDER BY event_type
        """,
        "q_session_windows": """
            WITH o AS (
                SELECT user_id, ts, event_id, value,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS is_new
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), s AS (
                SELECT *, sum(is_new) OVER (
                    PARTITION BY user_id ORDER BY ts, event_id
                    ROWS UNBOUNDED PRECEDING
                ) - 1 AS session_idx
                FROM o
            )
            SELECT user_id, session_idx::BIGINT AS session_idx,
                   min(event_id) AS first_event_id,
                   count(*) AS n_events,
                   round(sum(value), 2) AS sum_value
            FROM s GROUP BY user_id, session_idx
            ORDER BY user_id, session_idx
        """,
        "q_date_parse": """
            SELECT event_id,
                   CASE event_id % 4
                        WHEN 0 THEN strftime(ts, '%Y-%m-%dT%H:%M:%S')
                        WHEN 1 THEN strftime(ts, '%Y-%m-%d %H:%M:%S')
                        WHEN 2 THEN strftime(ts, '%Y-%m-%d')
                        ELSE strftime(ts, '%d.%m.%Y') END AS rendered,
                   CASE event_id % 4
                        WHEN 0 THEN epoch(strptime(strftime(ts, '%Y-%m-%dT%H:%M:%S'), '%Y-%m-%dT%H:%M:%S'))
                        WHEN 1 THEN epoch(strptime(strftime(ts, '%Y-%m-%d %H:%M:%S'), '%Y-%m-%d %H:%M:%S'))
                        WHEN 2 THEN epoch(strptime(strftime(ts, '%Y-%m-%d'), '%Y-%m-%d'))
                        ELSE epoch(strptime(strftime(ts, '%d.%m.%Y'), '%d.%m.%Y'))
                   END::BIGINT AS epoch
            FROM events ORDER BY event_id
        """,
        "q_record_merge": """
            SELECT user_id, event_type, min(event_id) AS first_event_id,
                   count(*) AS n_rows
            FROM events GROUP BY user_id, event_type
            ORDER BY user_id, event_type
        """,
        "q_json_extract": """
            SELECT COALESCE(TRY_CAST(json_extract_string(props, '$.k') AS BIGINT) % 10, -1)
                       AS bucket,
                   count(*) AS n_events
            FROM events GROUP BY bucket ORDER BY bucket
        """,
        "q_license_normalize": """
            WITH r AS (
                SELECT CASE doc_id % 7
                    WHEN 0 THEN 'MIT'
                    WHEN 1 THEN 'mit license'
                    WHEN 2 THEN 'CC-BY-4.0'
                    WHEN 3 THEN 'https://creativecommons.org/licenses/by-sa/4.0/legalcode'
                    WHEN 4 THEN 'http://www.apache.org/licenses/LICENSE-2.0.html'
                    WHEN 5 THEN 'GNU General Public License v3.0 only'
                    ELSE 'not-a-license' END AS license_raw,
                CASE doc_id % 7
                    WHEN 0 THEN 'https://spdx.org/licenses/MIT.json'
                    WHEN 1 THEN 'https://spdx.org/licenses/MIT.json'
                    WHEN 2 THEN 'https://spdx.org/licenses/CC-BY-4.0.json'
                    WHEN 3 THEN 'https://spdx.org/licenses/CC-BY-SA-4.0.json'
                    WHEN 4 THEN 'https://spdx.org/licenses/Apache-2.0.json'
                    WHEN 5 THEN 'https://spdx.org/licenses/GPL-3.0-only.json'
                    ELSE NULL END AS license_url
                FROM documents
            )
            SELECT license_raw, license_url, count(*) AS n
            FROM r GROUP BY license_raw, license_url
            ORDER BY license_raw
        """,
        "q_biggest_record": """
            SELECT user_id, count(*) AS n_events FROM events
            GROUP BY user_id ORDER BY n_events DESC, user_id LIMIT 1
        """,
        "q_most_event_types": """
            SELECT user_id, count(DISTINCT event_type) AS n_types FROM events
            GROUP BY user_id ORDER BY n_types DESC, user_id LIMIT 1
        """,
        "q_twokey_resolve": """
            SELECT CASE WHEN s.s_suppkey IS NOT NULL THEN 'supplier'
                        WHEN c.c_custkey IS NOT NULL THEN 'customer'
                        ELSE 'unresolved' END AS resolved_by,
                   count(*) AS n_events
            FROM events e
            LEFT JOIN customer c ON e.user_id = c.c_custkey
            LEFT JOIN supplier s ON e.user_id = s.s_suppkey
            GROUP BY 1 ORDER BY 1
        """,
        "q_bidirectional_edges": """
            WITH edges AS (
                SELECT o_custkey AS src, o_orderkey AS dst FROM orders
                UNION
                SELECT o_orderkey AS src, o_custkey AS dst FROM orders
            )
            SELECT src, count(*) AS n_out FROM edges GROUP BY src
            ORDER BY n_out DESC, src LIMIT 20
        """,
        "q_df_top_terms": f"""
            WITH toks AS (
                SELECT DISTINCT doc_id, term FROM (
                    SELECT doc_id, unnest({_TOKENS}) AS term FROM documents
                )
            )
            SELECT term, count(*) AS df FROM toks
            GROUP BY term ORDER BY df DESC, term LIMIT 50
        """,
        "q_corpus_stats": f"""
            WITH counts AS (
                SELECT doc_id, len({_WS_TOKENS}) AS n FROM documents
            )
            SELECT count(*) AS n_docs, sum(n)::BIGINT AS total_tokens,
                   round(sum(n) * 1.0 / count(*), 4) AS avgdl
            FROM counts
        """,
        # ES _count analog: |union of term postings ∩ exact filters|, no
        # scoring. Query 1 adds an exact source filter; query 2 matches none.
        "q_search_count": f"""
            WITH toks AS (
                SELECT doc_id, unnest({_TOKENS}) AS term FROM documents
            ),
            m0 AS (
                SELECT count(DISTINCT doc_id) AS n FROM toks
                WHERE term IN ('data', 'pipeline', 'query')
            ),
            m1 AS (
                SELECT count(DISTINCT t.doc_id) AS n
                FROM toks t JOIN documents d USING (doc_id)
                WHERE t.term = 'data' AND d.source = 'src3'
            )
            SELECT * FROM (
                SELECT 0 AS query_id, n::BIGINT AS n_matches FROM m0
                UNION ALL SELECT 1, n::BIGINT FROM m1
                UNION ALL SELECT 2, 0::BIGINT
            ) ORDER BY query_id
        """,
        "q_bm25_top10": f"""
            WITH toks AS (
                SELECT doc_id, unnest({_TOKENS}) AS term FROM documents
            ),
            dl AS (
                SELECT d.doc_id, coalesce(t.n, 0) AS dl
                FROM documents d LEFT JOIN (
                    SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id
                ) t ON d.doc_id = t.doc_id
            ),
            stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM dl),
            tf AS (
                SELECT doc_id, term, count(*) AS tf FROM toks
                WHERE term IN ('data', 'pipeline', 'query')
                GROUP BY doc_id, term
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            scores AS (
                SELECT tf.doc_id,
                       sum(
                           ln(1 + (stats.n_docs - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf * (1.2 + 1)
                           / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))
                       ) AS score
                FROM tf
                JOIN df ON tf.term = df.term
                JOIN dl ON tf.doc_id = dl.doc_id
                CROSS JOIN stats
                GROUP BY tf.doc_id
            )
            SELECT doc_id, round(score, 4) AS score
            FROM (SELECT * FROM scores ORDER BY score DESC, doc_id LIMIT 10)
        """,
        "q_exact_lookup": """
            SELECT doc_id FROM documents WHERE source = 'src3' ORDER BY doc_id
        """,
        # multi_match best_fields: per-field BM25 (each field its OWN dl /
        # avgdl / df — the Lucene per-field model), merged by per-doc max
        # (dis_max, tie_breaker 0)
        "q_best_fields": _BEST_FIELDS_CTES + """
            merged AS (
                SELECT coalesce(s_text.doc_id, s_title.doc_id) AS doc_id,
                       greatest(coalesce(s_text.score, 0),
                                coalesce(s_title.score, 0)) AS score
                FROM s_text FULL OUTER JOIN s_title
                  ON s_text.doc_id = s_title.doc_id
            )
            SELECT doc_id, round(score, 4) AS score
            FROM (SELECT * FROM merged ORDER BY score DESC, doc_id LIMIT 10)
        """,
        # dis_max with tie_breaker 0.3: best + 0.3 * (sum - best) — the
        # non-best field contributes a weighted share (engine: best_fields_search)
        "q_best_fields_tb": _BEST_FIELDS_CTES + """
            merged AS (
                SELECT coalesce(s_text.doc_id, s_title.doc_id) AS doc_id,
                       greatest(coalesce(s_text.score, 0),
                                coalesce(s_title.score, 0))
                       + 0.3 * (coalesce(s_text.score, 0)
                                + coalesce(s_title.score, 0)
                                - greatest(coalesce(s_text.score, 0),
                                           coalesce(s_title.score, 0)))
                           AS score
                FROM s_text FULL OUTER JOIN s_title
                  ON s_text.doc_id = s_title.doc_id
            )
            SELECT doc_id, round(score, 4) AS score
            FROM (SELECT * FROM merged ORDER BY score DESC, doc_id LIMIT 10)
        """,
        # prefix search: dictionary expansion = LIKE 'p%', then the standard
        # per-term-df BM25 disjunction (scoring_boolean rewrite semantics)
        "q_prefix_search": f"""
            WITH toks AS (
                SELECT doc_id, unnest({_TOKENS}) AS term FROM documents
            ),
            dl AS (
                SELECT d.doc_id, coalesce(t.n, 0) AS dl
                FROM documents d LEFT JOIN (
                    SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id
                ) t ON d.doc_id = t.doc_id
            ),
            stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM dl),
            tf AS (
                SELECT doc_id, term, count(*) AS tf FROM toks
                WHERE term LIKE 's%'
                GROUP BY doc_id, term
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            scores AS (
                SELECT tf.doc_id,
                       sum(
                           ln(1 + (stats.n_docs - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf * (1.2 + 1)
                           / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))
                       ) AS score
                FROM tf
                JOIN df ON tf.term = df.term
                JOIN dl ON tf.doc_id = dl.doc_id
                CROSS JOIN stats
                GROUP BY tf.doc_id
            )
            SELECT doc_id, round(score, 4) AS score
            FROM (SELECT * FROM scores ORDER BY score DESC, doc_id LIMIT 10)
        """,
        "q_regex_search": f"""
            WITH toks AS (
                SELECT doc_id, unnest({_TOKENS}) AS term FROM documents
            ),
            dl AS (
                SELECT d.doc_id, coalesce(t.n, 0) AS dl
                FROM documents d LEFT JOIN (
                    SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id
                ) t ON d.doc_id = t.doc_id
            ),
            stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM dl),
            tf AS (
                SELECT doc_id, term, count(*) AS tf FROM toks
                WHERE regexp_matches(term, '^(?:s.+(ow|an|rt))$')
                GROUP BY doc_id, term
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            scores AS (
                SELECT tf.doc_id,
                       sum(
                           ln(1 + (stats.n_docs - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf * (1.2 + 1)
                           / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))
                       ) AS score
                FROM tf
                JOIN df ON tf.term = df.term
                JOIN dl ON tf.doc_id = dl.doc_id
                CROSS JOIN stats
                GROUP BY tf.doc_id
            )
            SELECT doc_id, round(score, 4) AS score
            FROM (SELECT * FROM scores ORDER BY score DESC, doc_id LIMIT 10)
        """,
        # fuzzy search: expansion = terms within Levenshtein distance 1 of
        # any query term (plain levenshtein, exactly the engine's verify
        # metric), scored as the same per-term-df disjunction
        "q_fuzzy_search": f"""
            WITH toks AS (
                SELECT doc_id, unnest({_TOKENS}) AS term FROM documents
            ),
            dl AS (
                SELECT d.doc_id, coalesce(t.n, 0) AS dl
                FROM documents d LEFT JOIN (
                    SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id
                ) t ON d.doc_id = t.doc_id
            ),
            stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM dl),
            tf AS (
                SELECT doc_id, term, count(*) AS tf FROM toks
                WHERE levenshtein(term, 'sow') <= 1
                   OR levenshtein(term, 'joim') <= 1
                GROUP BY doc_id, term
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            scores AS (
                SELECT tf.doc_id,
                       sum(
                           ln(1 + (stats.n_docs - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf * (1.2 + 1)
                           / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))
                       ) AS score
                FROM tf
                JOIN df ON tf.term = df.term
                JOIN dl ON tf.doc_id = dl.doc_id
                CROSS JOIN stats
                GROUP BY tf.doc_id
            )
            SELECT doc_id, round(score, 4) AS score
            FROM (SELECT * FROM scores ORDER BY score DESC, doc_id LIMIT 10)
        """,
        # cursor pagination: page 2 of the BM25 ranking — deterministic
        # float64 scores make search_after ≡ OFFSET 10
        "q_search_page2": f"""
            WITH toks AS (
                SELECT doc_id, unnest({_TOKENS}) AS term FROM documents
            ),
            dl AS (
                SELECT d.doc_id, coalesce(t.n, 0) AS dl
                FROM documents d LEFT JOIN (
                    SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id
                ) t ON d.doc_id = t.doc_id
            ),
            stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM dl),
            tf AS (
                SELECT doc_id, term, count(*) AS tf FROM toks
                WHERE term IN ('data', 'pipeline', 'query')
                GROUP BY doc_id, term
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            scores AS (
                SELECT tf.doc_id,
                       sum(
                           ln(1 + (stats.n_docs - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf * (1.2 + 1)
                           / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))
                       ) AS score
                FROM tf
                JOIN df ON tf.term = df.term
                JOIN dl ON tf.doc_id = dl.doc_id
                CROSS JOIN stats
                GROUP BY tf.doc_id
            )
            SELECT doc_id, round(score, 4) AS score
            FROM (SELECT * FROM scores
                  ORDER BY score DESC, doc_id LIMIT 10 OFFSET 10)
        """,
        # snippets: best 8-token window per BM25-top-10 doc — window starts
        # at a matched token, count desc then start asc; snippet = analyzed
        # tokens of the window joined by spaces
        "q_snippets": f"""
            WITH toks AS (
                SELECT doc_id, unnest({_TOKENS}) AS term FROM documents
            ),
            dl AS (
                SELECT d.doc_id, coalesce(t.n, 0) AS dl
                FROM documents d LEFT JOIN (
                    SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id
                ) t ON d.doc_id = t.doc_id
            ),
            stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM dl),
            tf AS (
                SELECT doc_id, term, count(*) AS tf FROM toks
                WHERE term IN ('data', 'pipeline', 'query')
                GROUP BY doc_id, term
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            scores AS (
                SELECT tf.doc_id,
                       sum(
                           ln(1 + (stats.n_docs - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf * (1.2 + 1)
                           / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))
                       ) AS score
                FROM tf
                JOIN df ON tf.term = df.term
                JOIN dl ON tf.doc_id = dl.doc_id
                CROSS JOIN stats
                GROUP BY tf.doc_id
            ),
            top10 AS (
                SELECT doc_id FROM scores ORDER BY score DESC, doc_id LIMIT 10
            ),
            lists AS (
                SELECT doc_id, {_TOKENS} AS l FROM documents
                WHERE doc_id IN (SELECT doc_id FROM top10)
            ),
            ptoks AS (
                SELECT doc_id, unnest(l) AS term,
                       unnest(range(len(l))) AS pos
                FROM lists
            ),
            matched AS (
                SELECT doc_id, pos FROM ptoks
                WHERE term IN ('data', 'pipeline', 'query')
            ),
            win AS (
                SELECT a.doc_id, a.pos AS start, count(*) AS n
                FROM matched a JOIN matched b
                  ON a.doc_id = b.doc_id
                 AND b.pos >= a.pos AND b.pos < a.pos + 8
                GROUP BY a.doc_id, a.pos
            ),
            best AS (
                SELECT doc_id, start, n FROM (
                    SELECT doc_id, start, n,
                           row_number() OVER (
                               PARTITION BY doc_id
                               ORDER BY n DESC, start ASC) AS rn
                    FROM win
                ) WHERE rn = 1
            )
            SELECT l.doc_id,
                   b.n AS n_matched,
                   array_to_string(l.l[b.start + 1 : b.start + 8], ' ') AS snippet
            FROM lists l JOIN best b ON l.doc_id = b.doc_id
            ORDER BY l.doc_id
        """,
        # query-string search: scored disjunction over {data, query, slow,
        # val*} with candidates = has 'query' AND phrase "slow query", minus
        # docs containing 'small' (mirrors QS_QUERY in doc_pipelines.py)
        "q_query_string": f"""
            WITH toks AS (
                SELECT doc_id, unnest({_TOKENS}) AS term FROM documents
            ),
            dl AS (
                SELECT d.doc_id, coalesce(t.n, 0) AS dl
                FROM documents d LEFT JOIN (
                    SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id
                ) t ON d.doc_id = t.doc_id
            ),
            stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM dl),
            tf AS (
                SELECT doc_id, term, count(*) AS tf FROM toks
                WHERE term IN ('data', 'query', 'slow') OR term LIKE 'val%'
                GROUP BY doc_id, term
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            scores AS (
                SELECT tf.doc_id,
                       sum(
                           ln(1 + (stats.n_docs - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf * (1.2 + 1)
                           / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))
                       ) AS score
                FROM tf
                JOIN df ON tf.term = df.term
                JOIN dl ON tf.doc_id = dl.doc_id
                CROSS JOIN stats
                GROUP BY tf.doc_id
            ),
            ptoks AS (
                SELECT doc_id, unnest(l) AS term,
                       unnest(range(len(l))) AS pos
                FROM (SELECT doc_id, {_TOKENS} AS l FROM documents)
            ),
            phrase AS (
                SELECT DISTINCT a.doc_id FROM ptoks a JOIN ptoks b
                  ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
                WHERE a.term = 'slow' AND b.term = 'query'
            )
            SELECT doc_id, round(score, 4) AS score
            FROM (
                SELECT s.doc_id, s.score FROM scores s
                WHERE s.doc_id IN (SELECT doc_id FROM toks WHERE term = 'query')
                  AND s.doc_id IN (SELECT doc_id FROM phrase)
                  AND s.doc_id NOT IN (
                      SELECT doc_id FROM toks WHERE term = 'small')
                ORDER BY s.score DESC, s.doc_id LIMIT 10
            )
        """,
        # tombstone-delete search: stats CTEs run over the FULL corpus
        # (frozen-stats delete semantics, pipelines/lifecycle.py) — only the
        # final candidate set drops the deleted source's docs
        "q_delete_search": f"""
            WITH toks AS (
                SELECT doc_id, unnest({_TOKENS}) AS term FROM documents
            ),
            dl AS (
                SELECT d.doc_id, coalesce(t.n, 0) AS dl
                FROM documents d LEFT JOIN (
                    SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id
                ) t ON d.doc_id = t.doc_id
            ),
            stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM dl),
            tf AS (
                SELECT doc_id, term, count(*) AS tf FROM toks
                WHERE term IN ('data', 'pipeline', 'query')
                GROUP BY doc_id, term
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            scores AS (
                SELECT tf.doc_id,
                       sum(
                           ln(1 + (stats.n_docs - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf * (1.2 + 1)
                           / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))
                       ) AS score
                FROM tf
                JOIN df ON tf.term = df.term
                JOIN dl ON tf.doc_id = dl.doc_id
                CROSS JOIN stats
                GROUP BY tf.doc_id
            )
            SELECT doc_id, round(score, 4) AS score
            FROM (
                SELECT s.doc_id, s.score FROM scores s
                JOIN documents d ON s.doc_id = d.doc_id
                WHERE d.source <> 'src3'
                ORDER BY s.score DESC, s.doc_id LIMIT 10
            )
        """,
        # phrase adjacency re-derived from first principles: the SAME
        # tokenization as the engine (simple mode == the SQL split), zipped
        # with per-row ordinals, self-joined on pos+1
        "q_phrase_search": f"""
            WITH docs AS (
                SELECT doc_id, {_TOKENS} AS l FROM documents
            ),
            toks AS (
                SELECT doc_id, unnest(l) AS term, unnest(range(len(l))) AS pos
                FROM docs
            )
            SELECT doc_id, n_occur FROM (
                SELECT a.doc_id AS doc_id, count(*) AS n_occur
                FROM toks a JOIN toks b
                  ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
                WHERE a.term = 'slow' AND b.term = 'query'
                GROUP BY a.doc_id
                ORDER BY n_occur DESC, a.doc_id LIMIT 10
            )
        """,
        # ordered proximity: 'slow' then 'query' with gap <= slop+1 = 3;
        # n_chains counts distinct end positions (any-choice chains — the
        # EXISTS-join semantics near_intersect's reachable-set DP computes)
        "q_near_search": f"""
            WITH docs AS (
                SELECT doc_id, {_TOKENS} AS l FROM documents
            ),
            toks AS (
                SELECT doc_id, unnest(l) AS term, unnest(range(len(l))) AS pos
                FROM docs
            )
            SELECT doc_id, n_chains FROM (
                SELECT b.doc_id AS doc_id, count(DISTINCT b.pos) AS n_chains
                FROM toks a JOIN toks b
                  ON a.doc_id = b.doc_id
                 AND b.pos > a.pos AND b.pos <= a.pos + 3
                WHERE a.term = 'slow' AND b.term = 'query'
                GROUP BY b.doc_id
                ORDER BY n_chains DESC, b.doc_id LIMIT 10
            )
        """,
        # unordered proximity: anchor = last query term ('query'); an anchor
        # position matches when 'slow' occurs within slop+1 = 3 tokens on
        # EITHER side — the both-order EXISTS join; n_anchors = distinct
        # qualifying anchor positions
        "q_near_unordered": f"""
            WITH docs AS (
                SELECT doc_id, {_TOKENS} AS l FROM documents
            ),
            toks AS (
                SELECT doc_id, unnest(l) AS term, unnest(range(len(l))) AS pos
                FROM docs
            )
            SELECT doc_id, n_anchors FROM (
                SELECT b.doc_id AS doc_id, count(DISTINCT b.pos) AS n_anchors
                FROM toks a JOIN toks b
                  ON a.doc_id = b.doc_id
                 AND b.pos >= a.pos - 3 AND b.pos <= a.pos + 3
                WHERE a.term = 'slow' AND b.term = 'query'
                GROUP BY b.doc_id
                ORDER BY n_anchors DESC, b.doc_id LIMIT 10
            )
        """,
        "q_and_search": f"""
            WITH toks AS (
                SELECT doc_id, unnest({_TOKENS}) AS term FROM documents
            ),
            dl AS (
                SELECT d.doc_id, coalesce(t.n, 0) AS dl
                FROM documents d LEFT JOIN (
                    SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id
                ) t ON d.doc_id = t.doc_id
            ),
            stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM dl),
            tf AS (
                SELECT doc_id, term, count(*) AS tf FROM toks
                WHERE term IN ('hash', 'join', 'table')
                GROUP BY doc_id, term
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            scores AS (
                SELECT tf.doc_id,
                       sum(
                           ln(1 + (stats.n_docs - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf * (1.2 + 1)
                           / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / stats.avgdl))
                       ) AS score
                FROM tf
                JOIN df ON tf.term = df.term
                JOIN dl ON tf.doc_id = dl.doc_id
                CROSS JOIN stats
                GROUP BY tf.doc_id
                HAVING count(DISTINCT tf.term) = 3
            )
            SELECT doc_id, round(score, 4) AS score
            FROM (SELECT * FROM scores ORDER BY score DESC, doc_id LIMIT 10)
        """,
        "q_search_facets": f"""
            WITH toks AS (
                SELECT doc_id, unnest({_TOKENS}) AS term FROM documents
            ),
            m AS (
                SELECT DISTINCT doc_id FROM toks
                WHERE term IN ('data', 'pipeline', 'query')
            )
            SELECT d.lang, count(*) AS n_docs
            FROM documents d JOIN m USING (doc_id)
            GROUP BY d.lang ORDER BY d.lang
        """,
        # terms-agg with a stats sub-agg: count + sum + avg of n_chars per
        # lang over the BM25 query's match set
        "q_facet_stats": f"""
            WITH toks AS (
                SELECT doc_id, unnest({_TOKENS}) AS term FROM documents
            ),
            m AS (
                SELECT DISTINCT doc_id FROM toks
                WHERE term IN ('data', 'pipeline', 'query')
            )
            SELECT d.lang, count(*)::BIGINT AS n_docs,
                   sum(d.n_chars)::BIGINT AS sum_n_chars,
                   round(sum(d.n_chars) * 1.0 / count(*), 4) AS avg_n_chars
            FROM documents d JOIN m USING (doc_id)
            GROUP BY d.lang ORDER BY d.lang
        """,
        "q_token_stats_by_lang": f"""
            WITH counts AS (
                SELECT lang, len({_WS_TOKENS}) AS n FROM documents
            )
            SELECT lang, count(*) AS n_docs, sum(n)::BIGINT AS total_tokens
            FROM counts GROUP BY lang ORDER BY lang
        """,
        # language-ID: lowercased whitespace tokens, per-language stopword
        # hit ratios, argmax with the engine's lexicographically-largest-lang
        # tiebreak (QualityStage scans langs in DESC order, first max wins);
        # 'unknown' when the best ratio is <= 0.03. Reproduces
        # textops.QualityStage exactly (same double division).
        "q_langid": r"""
            WITH t AS (
                SELECT doc_id,
                       list_transform(list_filter(
                           string_split_regex(text, '\s+'), x -> x <> ''),
                           x -> lower(x)) AS toks
                FROM documents
            ),
            r AS (
                SELECT doc_id,
                    len(list_filter(toks, x -> x IN ('le','la','les','et',
                        'est','des','une','pour','dans','que'))) * 1.0
                        / greatest(len(toks), 1) AS r_fr,
                    len(list_filter(toks, x -> x IN ('el','la','los','de',
                        'que','y','en','un','una','por'))) * 1.0
                        / greatest(len(toks), 1) AS r_es,
                    len(list_filter(toks, x -> x IN ('the','and','of','to',
                        'in','is','that','for','with','as','are'))) * 1.0
                        / greatest(len(toks), 1) AS r_en,
                    len(list_filter(toks, x -> x IN ('der','die','das','und',
                        'ist','nicht','mit','ein','eine','zu'))) * 1.0
                        / greatest(len(toks), 1) AS r_de
                FROM t
            ),
            g AS (
                SELECT doc_id,
                    CASE
                        WHEN greatest(r_fr, r_es, r_en, r_de) <= 0.03
                            THEN 'unknown'
                        WHEN r_fr >= r_es AND r_fr >= r_en AND r_fr >= r_de
                            THEN 'fr'
                        WHEN r_es >= r_en AND r_es >= r_de THEN 'es'
                        WHEN r_en >= r_de THEN 'en'
                        ELSE 'de' END AS lang_guess
                FROM r
            )
            SELECT lang_guess, count(*) AS n_docs FROM g
            GROUP BY lang_guess ORDER BY lang_guess
        """,
        "q_quality_features": f"""
            SELECT doc_id,
                   length(text) AS n_chars_q,
                   len({_WS_TOKENS}) AS n_tokens,
                   round(length(regexp_replace(text, '\\s', '', 'g')) * 1.0
                         / greatest(len({_WS_TOKENS}), 1), 4) AS mean_token_len
            FROM documents ORDER BY doc_id
        """,
        "q_dedup_exact": """
            SELECT min(doc_id) AS keep_id, count(*) AS n_docs
            FROM documents GROUP BY sha256(text)
            ORDER BY keep_id
        """,
        "q_pid_mint": """
            SELECT doc_id,
                   base64(encode('doc:' || source || '/' || doc_id)) AS pid,
                   TRUE AS roundtrip_ok
            FROM documents ORDER BY doc_id
        """,
        "q_embed_neardup": """
            SELECT a.vec_id AS a, b.vec_id AS b,
                   round(list_cosine_similarity(a.embedding::DOUBLE[],
                                                b.embedding::DOUBLE[]), 4) AS cosine
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding::DOUBLE[],
                                         b.embedding::DOUBLE[]) >= 0.45
            ORDER BY a, b
        """,
        "q_ann_top5": """
            WITH q AS (
                SELECT vec_id AS query_vec_id, embedding FROM embeddings
                ORDER BY vec_id LIMIT 8
            ),
            sims AS (
                SELECT q.query_vec_id, e.vec_id,
                       list_cosine_similarity(q.embedding::DOUBLE[],
                                              e.embedding::DOUBLE[]) AS cosine
                FROM q CROSS JOIN embeddings e
            ),
            ranked AS (
                SELECT query_vec_id, vec_id, cosine,
                       row_number() OVER (
                           PARTITION BY query_vec_id
                           ORDER BY cosine DESC, vec_id
                       ) AS rnk
                FROM sims
            )
            SELECT query_vec_id, rnk::INT AS rank, vec_id, round(cosine, 4) AS cosine
            FROM ranked WHERE rnk <= 5 ORDER BY query_vec_id, rnk
        """,
        # persisted IVF queried exhaustively == brute force (every vector
        # in exactly one partition), so the same oracle applies
        "q_ivf_persisted": """
            WITH q AS (
                SELECT vec_id AS query_vec_id, embedding FROM embeddings
                ORDER BY vec_id LIMIT 8
            ),
            sims AS (
                SELECT q.query_vec_id, e.vec_id,
                       list_cosine_similarity(q.embedding::DOUBLE[],
                                              e.embedding::DOUBLE[]) AS cosine
                FROM q CROSS JOIN embeddings e
            ),
            ranked AS (
                SELECT query_vec_id, vec_id, cosine,
                       row_number() OVER (
                           PARTITION BY query_vec_id
                           ORDER BY cosine DESC, vec_id
                       ) AS rnk
                FROM sims
            )
            SELECT query_vec_id, rnk::INT AS rank, vec_id, round(cosine, 4) AS cosine
            FROM ranked WHERE rnk <= 5 ORDER BY query_vec_id, rnk
        """,
        # winnowing fingerprints, reproduced EXACTLY in SQL: per-token
        # FNV-1a 64 (list_reduce fold over bytes, HUGEINT wrapping mod 2^64),
        # rolling polynomial (acc*1000003 + h mod 2^64) over
        # min(8, n)-token windows, masked to 63 bits (mod 2^63), per-doc
        # distinct-sorted; fp_min = smallest, fp_count = min(#distinct, 16)
        "q_fingerprints": f"""
            WITH toks AS (
                SELECT doc_id, {_TOKENS} AS ts FROM documents
            ),
            th AS (
                SELECT doc_id, list_transform(ts, t ->
                    list_reduce(
                        list_prepend(14695981039346656037::HUGEINT,
                            list_transform(range(1, length(t) + 1),
                                           i -> ord(substr(t, i, 1))::HUGEINT)),
                        (acc, b) -> ((xor(acc::UBIGINT, b::UBIGINT))::HUGEINT
                                     * 1099511628211)
                                    % 18446744073709551616::HUGEINT)
                ) AS hs
                FROM toks
            ),
            wins AS (
                SELECT doc_id,
                    CASE WHEN len(hs) = 0 THEN [] ELSE
                        list_transform(
                            range(1, len(hs) - least(8, len(hs)) + 2), s ->
                            (list_reduce(
                                list_prepend(0::HUGEINT,
                                    list_slice(hs, s, s + least(8, len(hs)) - 1)),
                                (acc, x) -> (acc * 1000003 + x)
                                            % 18446744073709551616::HUGEINT)
                             % 9223372036854775808))
                    END AS ws
                FROM th
            ),
            u AS (SELECT doc_id, list_sort(list_distinct(ws)) AS us FROM wins)
            SELECT doc_id,
                   CASE WHEN len(us) = 0 THEN -1 ELSE us[1]::BIGINT END AS fp_min,
                   least(len(us), 16)::BIGINT AS fp_count
            FROM u ORDER BY doc_id
        """,
        # exact n-gram Jaccard per adjacent doc pair: Jaccard over distinct
        # n-gram STRING sets (the kernel uses FNV hash sets — identical
        # unless FNV collides within a pair)
        "q_ngram_jaccard": f"""
            WITH d AS (
                SELECT doc_id, doc_id // 2 AS pair_id, {_TOKENS} AS ts
                FROM documents WHERE doc_id < 200
            ),
            g AS (
                SELECT doc_id, pair_id,
                    CASE WHEN len(ts) = 0 THEN [] ELSE
                        list_distinct(list_transform(
                            range(1, len(ts) - least(3, len(ts)) + 2),
                            s -> array_to_string(
                                list_slice(ts, s, s + least(3, len(ts)) - 1),
                                ' ')))
                    END AS sh3,
                    list_distinct(ts) AS sh1
                FROM d
            ),
            p AS (
                SELECT a.pair_id,
                       len(list_intersect(a.sh3, b.sh3)) AS i3,
                       len(a.sh3) + len(b.sh3)
                           - len(list_intersect(a.sh3, b.sh3)) AS u3,
                       len(list_intersect(a.sh1, b.sh1)) AS i1,
                       len(a.sh1) + len(b.sh1)
                           - len(list_intersect(a.sh1, b.sh1)) AS u1
                FROM g a JOIN g b
                  ON a.pair_id = b.pair_id AND a.doc_id < b.doc_id
            )
            SELECT pair_id,
                   round(CASE WHEN u3 = 0 THEN 1.0 ELSE i3 * 1.0 / u3 END, 4)
                       AS jaccard3,
                   round(CASE WHEN u1 = 0 THEN 1.0 ELSE i1 * 1.0 / u1 END, 4)
                       AS jaccard1
            FROM p ORDER BY pair_id
        """,
        # q_minhash_neardup, q_simhash_sample, q_ivf_overlap,
        # q_image_pipeline: intentionally no SQL oracle (sketch /
        # binary-decode semantics) → rows-only check.
    }
