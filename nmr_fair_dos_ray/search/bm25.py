"""BM25 scoring primitives (shared by index build, oracle, and query engine).

The reference's ranking is Lucene BM25 behind Elasticsearch `multi_match
best_fields` (reference: src/nmr_FAIR_DOs/connectors/elasticsearch.py:250-262)
with ES defaults k1=1.2, b=0.75. We use the same parameters and Lucene's idf
formula, but WITHOUT Lucene's lossy doc-length norm quantization, so an
independent float64 oracle can match engine scores bit-for-bit
(SURVEY.md §7.0). Everything is float64 with a fixed accumulation order
(unique query terms, lexicographically sorted).

    idf(t)        = ln(1 + (N - df + 0.5) / (df + 0.5))
    score(t, d)   = idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl/avgdl))
    score(q, d)   = sum over sorted unique terms of q
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

K1_DEFAULT = 1.2
B_DEFAULT = 0.75


@dataclass(frozen=True)
class BM25Params:
    k1: float = K1_DEFAULT
    b: float = B_DEFAULT


def bm25_idf(df: int, n_docs: int) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def bm25_term_scores(
    tfs: np.ndarray,
    doclens: np.ndarray,
    idf: float,
    k1: float,
    b: float,
    avgdl: float,
) -> np.ndarray:
    """Vectorized per-posting BM25 contribution of one term (float64)."""
    tf = np.asarray(tfs, dtype=np.float64)
    dl = np.asarray(doclens, dtype=np.float64)
    denom = tf + k1 * (1.0 - b + b * dl / avgdl)
    # NOTE: parenthesized so score == idf * tf_norm BIT-exactly — the
    # reader's block-max bound is idf * max_tf_norm (codec.py), and
    # (idf*num)/denom can land 1 ulp above idf*(num/denom), so a window
    # bound could sit below a score it must cover and be skipped.
    return idf * ((tf * (k1 + 1.0)) / denom)


def bm25_tf_norm(
    tfs: np.ndarray, doclens: np.ndarray, k1: float, b: float, avgdl: float
) -> np.ndarray:
    """The idf-free factor of BM25: tf*(k1+1)/(tf + k1*(1-b+b*dl/avgdl)).

    ``bm25_term_scores == idf * bm25_tf_norm`` exactly (one float64 multiply),
    which is what lets blocks store only this factor's max and the reader
    derive their bounds from the index's current df and n_docs.
    """
    tf = np.asarray(tfs, dtype=np.float64)
    dl = np.asarray(doclens, dtype=np.float64)
    denom = tf + k1 * (1.0 - b + b * dl / avgdl)
    return (tf * (k1 + 1.0)) / denom


def bm25_one(tf: int, doclen: int, idf: float, k1: float, b: float, avgdl: float) -> float:
    """Scalar form — identical arithmetic to :func:`bm25_term_scores`."""
    denom = float(tf) + k1 * (1.0 - b + b * float(doclen) / avgdl)
    return idf * ((float(tf) * (k1 + 1.0)) / denom)
