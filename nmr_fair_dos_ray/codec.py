"""Posting-list compression: delta + varint (LEB128) with fixed-size blocks.

The reference stores postings inside Elasticsearch/Lucene (a black box behind
reference: src/nmr_FAIR_DOs/connectors/elasticsearch.py:204-229); this module
is the engine's own codec, per BASELINE.json ``north_star``: docID-sorted
lists, delta-encoded gaps, varint (LEB128) byte packing, 128-posting blocks,
per-block max-score metadata for block-max window pruning.

Both encode and decode are numpy-vectorized: they loop over *byte positions*
(≤10 passes for uint64), never over values, so a multi-million-posting shard
compresses without per-value Python overhead.

Block layout per term (Arrow struct ``BLOCK_TYPE``, stored in shard parquet
files):
    doc_base    int64    absolute first docID of the block
    doc_last    int64    absolute last docID (window and range pruning)
    n           int32    number of postings in the block
    max_tf_norm float64  idf-free block max: max over the block of
                         tf*(k1+1)/(tf + k1*(1-b+b*dl/avgdl))
    docs        binary   varint gaps for postings 1..n-1 (first is doc_base)
    tfs         binary   varint term frequencies for postings 0..n-1

The block's BM25 bound is not stored: the reader derives it at load as
``bm25_idf(df, n_docs) * max_tf_norm`` (``IndexReader.build_state``), with the
df of the shard file and the n_docs of the manifest the scorer uses. The
scorer computes every posting's score as that same idf times its tf-norm
(``bm25_term_scores``), and multiplying by a positive float64 is monotone, so
the derived bound is a true upper bound by construction, whatever stats the
index carries (float64 on purpose: a float32-rounded bound could fall below
the true score and break window pruning).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

BLOCK_SIZE = 128

BLOCK_TYPE = pa.struct(
    [
        ("doc_base", pa.int64()),
        ("doc_last", pa.int64()),
        ("n", pa.int32()),
        ("max_tf_norm", pa.float64()),
        ("docs", pa.binary()),
        ("tfs", pa.binary()),
    ]
)


# ---------------------------------------------------------------- varint ----
def varint_encode_all(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128-encode an array of non-negative ints (vectorized).

    -> (byte stream uint8 array, per-value byte length int64 array). The
    length array lets a caller slice the stream at arbitrary value boundaries
    (per-block posting runs) without re-encoding per block.
    """
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return np.empty(0, np.uint8), np.empty(0, np.int64)
    # bytes needed per value: ceil(bit_length / 7), min 1. Each pass carries
    # only the values with bits left, so skewed input (most values < 128)
    # costs one full pass plus passes over a shrinking tail.
    nb = np.ones(v.size, dtype=np.int64)
    live = np.flatnonzero(v > 0x7F)
    rest = v[live] >> np.uint64(7)
    while live.size:
        nb[live] += 1
        more = rest > 0x7F
        live, rest = live[more], rest[more] >> np.uint64(7)
    pos = np.concatenate([[0], np.cumsum(nb)[:-1]])
    out = np.empty(int(pos[-1] + nb[-1]), dtype=np.uint8)
    rest = v
    while True:
        more = rest > 0x7F
        out[pos] = (rest & np.uint64(0x7F)).astype(np.uint8) | (more.view(np.uint8) << 7)
        if not more.any():
            break
        rest, pos = rest[more] >> np.uint64(7), pos[more] + 1
    return out, nb


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode an array of non-negative ints (vectorized)."""
    out, _ = varint_encode_all(values)
    return out.tobytes()


def varint_position_lists(
    abs_pos: np.ndarray, lens: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Encode position lists: ``lens[i]`` (≥ 1) ascending absolute positions
    each, concatenated in ``abs_pos``. Each list stores its first position
    raw, then the gaps, LEB128-packed; lists are self-delimiting given their
    tf (= length). -> (byte stream, per-list byte counts)."""
    lens = np.asarray(lens, np.int64)
    if lens.size == 0:
        return np.empty(0, np.uint8), np.empty(0, np.int64)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    deltas = np.empty_like(abs_pos)
    deltas[1:] = abs_pos[1:] - abs_pos[:-1]
    deltas[starts] = abs_pos[starts]  # list firsts stay absolute
    data, nb = varint_encode_all(deltas)
    cs = np.concatenate([[0], np.cumsum(nb)])
    return data, cs[np.concatenate([starts, [abs_pos.size]])[1:]] - cs[starts]


def varint_decode(buf, n: int | None = None) -> np.ndarray:
    """Decode LEB128 bytes (``bytes`` or a uint8 array) back to uint64
    values (vectorized). ``n``, when given, must equal the value count.

    Every value is read at its end byte (high bit clear), which holds its
    top 7 bits; each further pass carries only the values with a
    continuation byte left below, shifting in 7 more bits. Skewed input
    (most values < 128) costs one pass plus passes over a shrinking tail."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        if n:
            raise ValueError(f"empty varint stream, expected {n} values")
        return np.empty(0, np.uint64)
    cont = b > 0x7F
    if cont[-1]:
        raise ValueError("truncated varint stream: last value has no end byte")
    ends = np.flatnonzero(~cont)
    if n is not None and n != ends.size:
        raise ValueError(f"varint stream has {ends.size} values, expected {n}")
    vals = b[ends].astype(np.uint64)
    if ends.size == b.size:  # every value is one byte (typical of tfs)
        return vals
    # cont[-1] is False, so index -1 (before the first byte) reads "no byte"
    live = np.flatnonzero(cont[ends - 1])
    at = ends[live] - 1
    while live.size:
        vals[live] = (vals[live] << np.uint64(7)) | (b[at] & 0x7F)
        more = cont[at - 1]
        live, at = live[more], at[more] - 1
    return vals


# ---------------------------------------------------------------- deltas ----
def delta_encode(sorted_doc_ids: np.ndarray) -> tuple[int, np.ndarray]:
    """-> (first_value, gaps[1:]) for a strictly increasing int64 array."""
    d = np.asarray(sorted_doc_ids, dtype=np.int64)
    if d.size == 0:
        raise ValueError("empty posting list")
    gaps = np.diff(d)
    if gaps.size and gaps.min() <= 0:
        raise ValueError("doc_ids must be strictly increasing")
    return int(d[0]), gaps.astype(np.uint64)


def delta_decode(first: int, gaps: np.ndarray) -> np.ndarray:
    out = np.empty(gaps.size + 1, dtype=np.int64)
    out[0] = first
    if gaps.size:
        out[1:] = first + np.cumsum(gaps.astype(np.int64))
    return out


# ---------------------------------------------------------------- blocks ----
def encode_blocks(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    doclens: np.ndarray,
    k1: float,
    b: float,
    avgdl: float,
    block_size: int = BLOCK_SIZE,
) -> list[dict]:
    """Split one term's docID-sorted postings into compressed blocks.

    ``max_tf_norm`` is the exact maximum idf-free BM25 factor within the
    block (computed from tf and the posting's true doclen); times the term's
    idf it is the block-max bound driving window pruning (SURVEY.md §2.8 O1).
    """
    from nmr_fair_dos_ray.search.bm25 import bm25_tf_norm

    blocks = []
    for s in range(0, doc_ids.size, block_size):
        e = min(s + block_size, doc_ids.size)
        d = doc_ids[s:e]
        t = tfs[s:e]
        tf_norm = bm25_tf_norm(t, doclens[s:e], k1, b, avgdl)
        max_tf_norm = float(tf_norm.max())
        first, gaps = delta_encode(d)
        blocks.append(
            {
                "doc_base": int(d[0]),
                "doc_last": int(d[-1]),
                "n": int(e - s),
                "max_tf_norm": max_tf_norm,
                "docs": varint_encode(gaps),
                "tfs": varint_encode(t.astype(np.uint64)),
            }
        )
    return blocks


def decode_block(block: dict) -> tuple[np.ndarray, np.ndarray]:
    """-> (doc_ids int64, tfs int64) of one block."""
    gaps = varint_decode(block["docs"], block["n"] - 1)
    doc_ids = delta_decode(block["doc_base"], gaps)
    tfs = varint_decode(block["tfs"], block["n"]).astype(np.int64)
    return doc_ids, tfs


def encode_group_blocks(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    doclens: np.ndarray,
    term_counts: np.ndarray,
    k1: float,
    b: float,
    avgdl: float,
    block_size: int = BLOCK_SIZE,
):
    """Encode ALL terms of a merge group in one vectorized pass.

    Inputs are the group's postings sorted by (term, doc_id): ``term_counts``
    is the per-term posting count (term order).
    Returns a ``pyarrow.ListArray`` of block structs, one list per term —
    identical content to calling :func:`encode_blocks` per term, but with no
    per-term Python: block boundaries via cumsum/flatnonzero, per-block maxes
    via ``np.maximum.reduceat``, ONE varint pass over every gap/tf in the
    group, and the per-block binary columns created zero-copy from byte
    offsets into that single stream (``BinaryArray.from_buffers``).
    """
    n = doc_ids.size
    if n == 0:
        return pa.ListArray.from_arrays(
            pa.array([0], pa.int32()), pa.array([], BLOCK_TYPE)
        ).slice(0, 0)
    term_starts = np.concatenate([[0], np.cumsum(term_counts)[:-1]])
    pos_in_term = np.arange(n, dtype=np.int64) - np.repeat(term_starts, term_counts)
    is_block_start = (pos_in_term % block_size) == 0
    bstarts = np.flatnonzero(is_block_start)
    bends = np.concatenate([bstarts[1:], [n]])
    bn = (bends - bstarts).astype(np.int32)

    # per-block scalars
    doc_base = doc_ids[bstarts]
    doc_last = doc_ids[bends - 1]
    tf_f = tfs.astype(np.float64)
    dl_f = doclens.astype(np.float64)
    tf_norm = (tf_f * (k1 + 1.0)) / (tf_f + k1 * (1.0 - b + b * dl_f / avgdl))
    max_tf_norm = np.maximum.reduceat(tf_norm, bstarts)
    blocks_per_term = -(-term_counts // block_size)  # ceil

    # gaps: value for every non-block-start posting (prev posting is in the
    # same block because block starts reset the run)
    prev = np.empty(n, np.int64)
    prev[0] = 0
    prev[1:] = doc_ids[:-1]
    nonstart = ~is_block_start
    gaps_signed = (doc_ids - prev)[nonstart]
    if gaps_signed.size and gaps_signed.min() <= 0:
        raise ValueError("doc_ids must be strictly increasing within each term")
    # positive int64 → uint64 is a bit-identical reinterpret; avoid the copy
    # (first-touch memory is the bottleneck on the bench VM)
    gap_vals = gaps_signed.view(np.uint64)
    gap_stream, gap_nb = varint_encode_all(gap_vals)
    gap_byte_off = np.concatenate([[0], np.cumsum(gap_nb)])
    # per-block byte ranges in the gap stream: block i covers gap values
    # [bstarts[i]+1, bends[i]) → value indices via prefix count of nonstart
    nonstart_prefix = np.concatenate([[0], np.cumsum(nonstart)])
    doc_offsets = np.empty(bstarts.size + 1, np.int64)
    doc_offsets[:-1] = gap_byte_off[nonstart_prefix[bstarts]]
    doc_offsets[-1] = gap_byte_off[-1]
    # (contiguity: every gap value belongs to exactly one block, in order)

    tf_u64 = tfs.view(np.uint64) if tfs.dtype == np.int64 else tfs.astype(np.uint64)
    tf_stream, tf_nb = varint_encode_all(tf_u64)
    tf_byte_off = np.concatenate([[0], np.cumsum(tf_nb)])
    tf_offsets = np.empty(bstarts.size + 1, np.int64)
    tf_offsets[:-1] = tf_byte_off[bstarts]
    tf_offsets[-1] = tf_byte_off[-1]

    n_blocks = bstarts.size
    docs_bin = pa.Array.from_buffers(
        pa.binary(), n_blocks,
        [None, pa.py_buffer(doc_offsets.astype(np.int32).tobytes()),
         pa.py_buffer(gap_stream.tobytes())],
    )
    tfs_bin = pa.Array.from_buffers(
        pa.binary(), n_blocks,
        [None, pa.py_buffer(tf_offsets.astype(np.int32).tobytes()),
         pa.py_buffer(tf_stream.tobytes())],
    )
    struct = pa.StructArray.from_arrays(
        [
            pa.array(doc_base, pa.int64()),
            pa.array(doc_last, pa.int64()),
            pa.array(bn, pa.int32()),
            pa.array(max_tf_norm, pa.float64()),
            docs_bin,
            tfs_bin,
        ],
        fields=list(BLOCK_TYPE),
    )
    list_offsets = np.concatenate([[0], np.cumsum(blocks_per_term)]).astype(np.int32)
    return pa.ListArray.from_arrays(pa.array(list_offsets, pa.int32()), struct)
