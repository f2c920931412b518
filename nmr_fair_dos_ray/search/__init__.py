"""Query serving: BM25 scoring (TAAT over block-max-pruned doc windows) over index shards."""

from nmr_fair_dos_ray.search.bm25 import BM25Params, bm25_idf, bm25_term_scores  # noqa: F401
from nmr_fair_dos_ray.search.engine import IndexReader, Searcher, QueryScorer  # noqa: F401
