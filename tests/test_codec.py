"""Codec round-trip tests: varint, delta, blocks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmr_fair_dos_ray.codec import (
    decode_block,
    delta_decode,
    delta_encode,
    encode_blocks,
    varint_decode,
    varint_encode,
    varint_encode_all,
)


def test_varint_roundtrip_basic():
    vals = np.array([0, 1, 127, 128, 300, 2**32, 2**63 - 1], dtype=np.uint64)
    assert varint_decode(varint_encode(vals)).tolist() == vals.tolist()


def test_varint_empty():
    assert varint_encode(np.empty(0, np.uint64)) == b""
    assert varint_decode(b"").size == 0


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
@settings(max_examples=80, deadline=None)
def test_varint_roundtrip_property(vals):
    arr = np.array(vals, dtype=np.uint64)
    assert varint_decode(varint_encode(arr), len(vals)).tolist() == vals


def _leb128(v: int) -> bytes:
    out = bytearray()
    while True:
        byte, v = v & 0x7F, v >> 7
        out.append(byte | (0x80 if v else 0))
        if not v:
            return bytes(out)


_VARINT_EDGES = [0, 127, 128, 2**35, 2**63, 2**64 - 1]


@given(st.lists(st.one_of(st.sampled_from(_VARINT_EDGES),
                          st.integers(min_value=0, max_value=300),
                          st.integers(min_value=0, max_value=2**64 - 1)),
                max_size=200))
@settings(max_examples=120, deadline=None)
def test_varint_encode_all_matches_scalar_leb128(vals):
    data, nb = varint_encode_all(np.array(vals, dtype=np.uint64))
    want = [_leb128(v) for v in vals]
    assert data.dtype == np.uint8 and nb.dtype == np.int64
    assert data.tobytes() == b"".join(want)
    assert nb.tolist() == [len(w) for w in want]


def test_varint_encode_all_edges_and_empty():
    data, nb = varint_encode_all(np.array(_VARINT_EDGES, dtype=np.uint64))
    assert nb.tolist() == [1, 1, 2, 6, 10, 10]
    assert data.tobytes() == b"".join(_leb128(v) for v in _VARINT_EDGES)
    data, nb = varint_encode_all(np.empty(0, np.uint64))
    assert data.size == 0 and nb.size == 0


def _unleb128(buf: bytes) -> list[int]:
    """Scalar LEB128 decoder (test oracle)."""
    out, v, shift = [], 0, 0
    for byte in buf:
        v |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            out.append(v)
            v, shift = 0, 0
    return out


@given(st.lists(st.one_of(st.sampled_from(_VARINT_EDGES),
                          st.integers(min_value=0, max_value=300),
                          st.integers(min_value=0, max_value=2**64 - 1)),
                max_size=200))
@settings(max_examples=120, deadline=None)
def test_varint_decode_matches_scalar_leb128(vals):
    buf = b"".join(_leb128(v) for v in vals)
    want = _unleb128(buf)
    assert want == vals
    for arg in (buf, np.frombuffer(buf, np.uint8)):
        got = varint_decode(arg, len(vals)) if vals else varint_decode(arg)
        assert got.dtype == np.uint64 and got.tolist() == want


def test_varint_decode_edges_empty_and_count_mismatch():
    buf = b"".join(_leb128(v) for v in _VARINT_EDGES)
    assert varint_decode(buf, len(_VARINT_EDGES)).tolist() == _VARINT_EDGES
    assert varint_decode(b"").size == 0
    assert varint_decode(b"", 0).size == 0
    with pytest.raises(ValueError, match="expected 1"):
        varint_decode(b"", 1)
    with pytest.raises(ValueError, match="expected 7"):
        varint_decode(buf, 7)
    with pytest.raises(ValueError, match="truncated"):
        varint_decode(buf + b"\x80")


@given(
    st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=300, unique=True)
)
@settings(max_examples=60, deadline=None)
def test_delta_roundtrip_property(doc_ids):
    d = np.array(sorted(doc_ids), dtype=np.int64)
    first, gaps = delta_encode(d)
    assert delta_decode(first, gaps).tolist() == d.tolist()


def test_delta_rejects_unsorted():
    with pytest.raises(ValueError):
        delta_encode(np.array([3, 2, 1]))


def test_block_roundtrip_and_max_score():
    from nmr_fair_dos_ray.search.bm25 import bm25_idf, bm25_term_scores

    rng = np.random.RandomState(7)
    n = 1000
    doc_ids = np.sort(rng.choice(10**7, size=n, replace=False)).astype(np.int64)
    tfs = rng.randint(1, 40, size=n).astype(np.int64)
    doclens = rng.randint(10, 500, size=n).astype(np.int64)
    idf = bm25_idf(n, 100000)
    blocks = encode_blocks(doc_ids, tfs, doclens, 1.2, 0.75, 120.0, block_size=128)
    assert len(blocks) == (n + 127) // 128
    all_docs, all_tfs = [], []
    for b in blocks:
        d, f = decode_block(b)
        assert d[0] == b["doc_base"] and d[-1] == b["doc_last"] and len(d) == b["n"]
        s = bm25_term_scores(f, doclens[len(np.concatenate(all_docs)) if all_docs else 0:][: len(f)], idf, 1.2, 0.75, 120.0)
        # the reader's derived bound, exact (no tolerance): bm25 keeps the
        # score == idf * tf_norm association
        assert idf * b["max_tf_norm"] >= s.max()
        all_docs.append(d)
        all_tfs.append(f)
    assert np.concatenate(all_docs).tolist() == doc_ids.tolist()
    assert np.concatenate(all_tfs).tolist() == tfs.tolist()


def test_encode_group_blocks_matches_per_term():
    """The vectorized whole-group encoder must be bit-identical to the
    per-term reference encoder (same blocks, same bytes, same maxes)."""
    import numpy as np

    from nmr_fair_dos_ray.codec import BLOCK_TYPE, encode_blocks, encode_group_blocks

    rng = np.random.RandomState(7)
    counts = np.array([1, 3, 130, 128, 300, 2, 129])
    docs_l, tfs_l, dls_l = [], [], []
    for c in counts:
        d = np.sort(rng.choice(100000, size=c, replace=False)).astype(np.int64)
        docs_l.append(d)
        tfs_l.append(rng.randint(1, 50, c).astype(np.int64))
        dls_l.append(rng.randint(10, 500, c).astype(np.int64))
    doc_ids = np.concatenate(docs_l)
    tfs = np.concatenate(tfs_l)
    dls = np.concatenate(dls_l)
    avgdl, k1, b = 220.5, 1.2, 0.75
    got = encode_group_blocks(doc_ids, tfs, dls, counts, k1, b, avgdl).to_pylist()
    keys = [f.name for f in BLOCK_TYPE]
    assert keys == ["doc_base", "doc_last", "n", "max_tf_norm", "docs", "tfs"]
    for i, c in enumerate(counts):
        want = encode_blocks(docs_l[i], tfs_l[i], dls_l[i], k1, b, avgdl)
        assert len(got[i]) == len(want)
        for gb, wb in zip(got[i], want):
            assert sorted(gb) == sorted(wb) == sorted(keys), i
            for k in keys:
                assert gb[k] == wb[k], (i, k)
