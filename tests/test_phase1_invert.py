"""Phase 1 (the SPIMI invert) against postings built in pure Python.

``Phase1Invert`` tokenizes into one integer term dictionary per batch and
aggregates on ``row * n_terms + id`` keys; its run rows ``(term, doc_id, tf,
doclen, pos)`` must equal postings built row by row from
``Tokenizer.tokenize``, on a batch with a wide repeated row, non-ASCII text,
empty and null rows and identifier edge cases.
"""

from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nmr_fair_dos_ray.pipelines.index_build import (
    POS_STREAM_GAP, IndexConfig, Phase1Invert, radix_argsort,
)
from nmr_fair_dos_ray.sources.parquet_source import work_items
from nmr_fair_dos_ray.tokenizer import Tokenizer, term_hash_one

ROWS = [
    # wide repeated row: few distinct terms, many occurrences
    ("getUserName(self) HTMLParser utf8 __init__ x42 " * 2000 + "tail",
     "src/getUser/utf8_x.py", "org/a", "python"),
    ("naïve café 测试 😀 mixed123Case ÜBER_maß Straße", "docs/naïve.md", "org/b", None),
    ("", "", "org/c", "go"),
    (None, None, None, None),
    ("a_B_c __ _x_ 42 A ABCDef aB1c2D _ 8bit HTTPServer2XML getX", "a/B_c.go",
     "org/a", "go"),
    ("def merge(a, b):\n    return a + b  # MergeSort 2x", "lib/merge.py", "org/d",
     "python"),
    ("", None, "org/e", ""),
]

CFG = dict(token_cols=("path",), field_cols=("repo", "lang"), stored_cols=("repo",),
           num_shards=4)


def _varint_positions(buf: bytes) -> list[int]:
    """Pure-Python LEB128 decode of a position list (first value absolute,
    then gaps)."""
    vals, cur, shift = [], 0, 0
    for byte in buf:
        cur |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            vals.append(cur)
            cur, shift = 0, 0
    out, acc = [], 0
    for i, v in enumerate(vals):
        acc = v if i == 0 else acc + v
        out.append(acc)
    return out


def _reference(table: pa.Table, cfg: IndexConfig) -> tuple[list, list]:
    tok = Tokenizer(cfg.tokenizer_mode)
    postings, doclens = [], []
    for doc_id, row in enumerate(table.to_pylist()):
        streams = [tok.tokenize(row[cfg.content_col] or "")]
        streams += [tok.tokenize(row[c] or "") for c in cfg.token_cols]
        doclen = sum(len(s) for s in streams)
        doclens.append(doclen)
        positions: dict[str, list[int]] = defaultdict(list)
        base = 0
        for s in streams:
            for p, term in enumerate(s):
                positions[term].append(base + p)
            base += len(s) + POS_STREAM_GAP
        for term, ps in positions.items():
            postings.append((term, doc_id, len(ps), doclen, ps))
        for c in cfg.field_cols:
            postings.append((f"{c}:{row[c] or ''}", doc_id, 1, doclen, []))
    return sorted(postings), doclens


@pytest.fixture()
def restore_arrow_threads():
    # Phase1Invert caps pyarrow's pools for Ray workers; keep this process's
    n_cpu, n_io = pa.cpu_count(), pa.io_thread_count()
    yield
    pa.set_cpu_count(n_cpu)
    pa.set_io_thread_count(n_io)


@pytest.mark.parametrize("positions", [True, False])
def test_phase1_run_equals_python_postings(tmp_path, positions, restore_arrow_threads):
    cfg = IndexConfig(store_positions=positions, **CFG)
    table = pa.table({
        name: pa.array([r[i] for r in ROWS], pa.string())
        for i, name in enumerate(("content", "path", "repo", "lang"))
    })
    src = tmp_path / "part_000.parquet"
    pq.write_table(table, src)
    (item,) = work_items([str(src)])
    item["work_item_id"] = 0
    res = Phase1Invert(cfg, str(tmp_path / "runs"), str(tmp_path / "docs"))._one(item)
    assert res["n_docs"] == len(ROWS)

    run = pq.read_table(tmp_path / res["run_path"])
    want, want_doclens = _reference(table, cfg)
    got = sorted(
        (r["term"], r["doc_id"], r["tf"], r["doclen"],
         _varint_positions(r["pos"]) if positions else [])
        for r in run.to_pylist()
    )
    if not positions:
        want = [(t, d, tf, dl, []) for t, d, tf, dl, _ in want]
    assert got == want
    # routing: shard = FNV-1a(term) % num_shards, run sorted by shard
    shard = run["shard_id"].to_pylist()
    assert shard == sorted(shard)
    for r in run.to_pylist():
        h = term_hash_one(r["term"])
        assert r["term_hash"] == (h - (1 << 64) if h >= 1 << 63 else h)
        assert r["shard_id"] == h % cfg.num_shards
    docs = pq.read_table(tmp_path / res["docs_path"])
    assert docs["doc_id"].to_pylist() == list(range(len(ROWS)))
    assert docs["doclen"].to_pylist() == want_doclens


@pytest.mark.parametrize("bits", [1, 16, 17, 31, 32, 48, 62])
def test_radix_argsort_is_the_stable_argsort(bits):
    """1 to 4 16-bit digits, with many duplicate keys (few distinct values
    drawn, so equal keys must keep their input order)."""
    rng = np.random.default_rng(bits)
    top = (1 << bits) - 1
    distinct = np.concatenate([[0, top], rng.integers(0, top, 50, endpoint=True)])
    keys = rng.choice(distinct, 5000).astype(np.int64)
    got = radix_argsort(keys)
    np.testing.assert_array_equal(got, np.argsort(keys, kind="stable"))
    assert int(keys.max()) == top


def test_radix_argsort_empty_and_single():
    assert radix_argsort(np.empty(0, np.int64)).size == 0
    np.testing.assert_array_equal(radix_argsort(np.array([7], np.int64)), [0])
