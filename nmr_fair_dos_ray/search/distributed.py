"""Doc-partitioned distributed serving: range actors + scatter-gather router.

The serving layout of the reference's Elasticsearch backend, where every
shard is a Lucene index over a subset of the documents
(src/nmr_FAIR_DOs/connectors/elasticsearch.py:234-313). The doc_id space is
split into ``pool_size`` contiguous ranges balanced by doc COUNT; each
:class:`DocShardActor` holds ONE range — all terms, but only the posting
blocks that intersect its range (``IndexReader.build_state(doc_range=...)``)
— so posting bytes are partitioned, not replicated, across the pool.

Every query runs completely inside each actor through the engine's single
mode dispatch (:func:`engine.run_query`), so each actor returns its local
top-k and the router merges pool×k rows. Global stats (n_docs, avgdl, df)
stay corpus-wide in every slice and the ranges are disjoint, so results are
bit-equal to the local :class:`~nmr_fair_dos_ray.search.engine.Searcher`
for every query mode and parameter.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np

import ray

from nmr_fair_dos_ray.search.engine import run_query


def _sorted_doc_ids(index_dir: str) -> np.ndarray:
    """The doc store's doc_ids, sorted — all the router needs to cut ranges."""
    import pyarrow.parquet as pq

    ids = pq.read_table(
        os.path.join(index_dir, "docs"), columns=["doc_id"], memory_map=True,
    )["doc_id"].to_numpy(zero_copy_only=False)
    return np.sort(ids)


@ray.remote
class DocShardActor:
    """Owns ONE doc range [lo, hi) of the index — ALL terms, only the
    posting blocks intersecting its range, its slice of the doclen table and
    tombstones — plus the same range of any extra per-field indexes, so
    ``best_fields`` dis-maxes locally too."""

    def __init__(self, index_dir: str, lo: int, hi: int, pool_size: int = 1,
                 field_dirs: list[str] | None = None):
        from nmr_fair_dos_ray.search.engine import IndexReader, Searcher

        # bound the per-node aggregate across pool_size actors AND the
        # 1 + len(field_dirs) readers each actor holds
        budget = IndexReader.POSITIONS_CACHE_BUDGET // max(
            1, pool_size * (1 + len(field_dirs or [])))

        def _load(d: str) -> Searcher:
            st = IndexReader.build_state(d, doc_range=(lo, hi))
            return Searcher(IndexReader.from_state(
                st, cache_budget_bytes=budget
            ))

        # fields[0] is the main index; the rest share its doc_id space
        self.fields = [_load(d) for d in [index_dir, *(field_dirs or [])]]

    def run(self, mode: str, query: str, k: int, params: dict):
        return run_query(self.fields, mode, query, k, **params)


def _merge_ranked(parts, k: int):
    """Merge per-shard top-k lists by the engine's global comparator
    (value desc, doc_id asc) — O(pool × k) work and payload. Sound because
    doc ranges are disjoint (each doc is ranked by exactly one shard) and
    per-doc values are bit-equal to the local engine's (global stats)."""
    merged = [h for p in parts for h in p]
    merged.sort(key=lambda h: (-h[1], h[0]))
    return merged[:k]


class DocShardedSearcher:
    """Doc-partitioned scatter-gather serving pool.

    One :class:`DocShardActor` per doc range (quantiles of the doc store's
    sorted ids). :meth:`run` fans a request out once — one remote call per
    actor — and merges by result kind; the per-mode methods mirror the
    local :class:`Searcher` API and accept the same keyword parameters.
    ``field_dirs`` adds same-doc-space field indexes for ``best_fields``."""

    def __init__(self, index_dir: str, pool_size: int = 4,
                 field_dirs: list[str] | None = None):
        ids = _sorted_doc_ids(index_dir)
        n = ids.size
        if n == 0:
            raise ValueError(
                f"doc store of {index_dir} is empty; cannot doc-partition"
            )
        # degenerate quantile bounds (n < pool_size) would spawn empty-range
        # actors — clamp instead
        pool_size = min(pool_size, n)
        self.pool_size = pool_size
        bounds = [int(ids[(i * n) // pool_size]) for i in range(pool_size)]
        bounds.append(int(ids[-1]) + 1)
        self.ranges = [(bounds[i], bounds[i + 1]) for i in range(pool_size)]
        self.actors = [
            DocShardActor.remote(index_dir, lo, hi, pool_size,
                                 field_dirs=field_dirs)
            for lo, hi in self.ranges
        ]

    def run(self, mode: str, query: str, k: int = 10, **params):
        """Serve one request of any :func:`engine.run_query` mode."""
        parts = ray.get([a.run.remote(mode, query, k, params) for a in self.actors])
        if mode == "count":
            return int(sum(parts))
        if mode == "facet_counts":
            acc: Counter = Counter()
            for part in parts:
                for v, n in part:
                    acc[v] += n
            return sorted(acc.items())
        return _merge_ranked(parts, k)

    def search(self, query: str, k: int = 10, **params):
        return self.run("bm25", query, k, **params)

    def search_after(self, query: str, k: int = 10, **params):
        return self.run("after", query, k, **params)

    def search_and(self, query: str, k: int = 10):
        return self.run("and", query, k)

    def search_phrase(self, phrase: str, k: int = 10):
        return self.run("phrase", phrase, k)

    def search_near(self, phrase: str, k: int = 10, **params):
        return self.run("near", phrase, k, **params)

    def search_prefix(self, query: str, k: int = 10, **params):
        return self.run("prefix", query, k, **params)

    def search_regex(self, pattern: str, k: int = 10, **params):
        return self.run("regex", pattern, k, **params)

    def search_wildcard(self, pattern: str, k: int = 10, **params):
        return self.run("wildcard", pattern, k, **params)

    def search_fuzzy(self, query: str, k: int = 10, **params):
        return self.run("fuzzy", query, k, **params)

    def search_query(self, query: str, k: int = 10, **params):
        return self.run("query", query, k, **params)

    def best_fields(self, query: str, k: int = 10, **params):
        return self.run("best_fields", query, k, **params)

    def count(self, query: str) -> int:
        return self.run("count", query)

    def facet_counts(self, query: str, facet_field: str):
        return self.run("facet_counts", query, facet_field=facet_field)

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []
