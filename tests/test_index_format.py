"""On-disk format of the searchable index.

Shard files store only what a reader cannot recompute (term, df, the
idf-free block max and the compressed blocks); the reader derives every
block's BM25 bound at load from the manifest's n_docs. Every shard and
doc-store file is zstd parquet written through one atomic writer whose temp
name directory readers skip; that writer picks each column's encoding
(front-coded terms, plain position and doc-gap bytes, delta-packed doc-store
ids). Indexes written before that layout (with ``term_hash``, ``cf``, a
stored ``max_score`` and champion lists, Snappy-compressed, default
encodings, a manifest config with the retired champion keys) read,
compact, refresh and append to the same results.
"""

import json
import os
import shutil

from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nmr_fair_dos_ray.codec import BLOCK_TYPE
from nmr_fair_dos_ray.pipelines.index_build import (
    IndexConfig, build_index, write_index_file,
)
from nmr_fair_dos_ray.pipelines.lifecycle import (
    compact_index, decode_shard_table, delete_docs, refresh_stats,
)
from nmr_fair_dos_ray.search.bm25 import bm25_idf, bm25_term_scores
from nmr_fair_dos_ray.search import engine
from nmr_fair_dos_ray.search.engine import (
    SHARD_COLUMNS, IndexReader, Searcher, fetch_docs,
)
from nmr_fair_dos_ray.tokenizer import term_hash

CFG = IndexConfig(
    id_col="did", token_cols=("path", "lang"), field_cols=("repo", "lang"),
    stored_cols=("repo", "path"), num_shards=4, store_positions=True,
    hot_df_threshold=8, n_salts=3,
)
QUERIES = ["def return self", "user name config", "get set value",
           "import data", "getUserName merge"]


def _files(d: str, sub: str) -> list[str]:
    p = os.path.join(d, sub)
    return sorted(os.path.join(p, f) for f in os.listdir(p) if f.endswith(".parquet"))


def _corpus(sf_unit) -> pa.Table:
    t = pq.read_table(sf_unit["corpus"])
    return t.append_column("did", pa.array(np.arange(t.num_rows, dtype=np.int64)))


def _build(sf_unit, root) -> tuple[str, str]:
    """A salted build (hot parts merged) with positions, over
    a one-file corpus dir -> (corpus dir, index dir)."""
    src = root / "src"
    src.mkdir()
    pq.write_table(_corpus(sf_unit), src / "part_000.parquet")
    idx = str(root / "idx")
    man = build_index(str(src), idx, CFG)
    assert man["stages"]["hot"]["n_hot"] > 0
    return str(src), idx


@pytest.fixture(scope="module")
def built(sf_unit, tmp_path_factory):
    return _build(sf_unit, tmp_path_factory.mktemp("fmt"))[1]


def _bounds_cover_scores(r: IndexReader) -> None:
    """Every block bound in the reader's view is ≥ every posting score the
    reader's scorer gives in that block."""
    for tid in range(len(r._terms_arr)):
        j0, j1 = int(r._boff[tid]), int(r._boff[tid + 1])
        docs, tfs = r._decode_range(j0, j1)
        idf = bm25_idf(int(r._df[tid]), r.n_docs)
        s = bm25_term_scores(tfs, r.doclens(docs), idf, r.k1, r.b, r.avgdl)
        starts = np.concatenate([[0], np.cumsum(r._b_n[j0:j1])[:-1]])
        block_max = np.maximum.reduceat(s, starts)
        bad = block_max > r._b_max[j0:j1]
        assert not bad.any(), (r._terms_arr[tid].as_py(), block_max[bad],
                               r._b_max[j0:j1][bad])


# ------------------------------------------------------------ format guard
def test_index_files_are_zstd_with_reader_columns_only(built):
    idx = built
    shard_files, docs_files = _files(idx, "shards"), _files(idx, "docs")
    assert any(f.endswith("shard_hot.parquet") for f in shard_files)
    for path in shard_files + docs_files:
        md = pq.ParquetFile(path).metadata
        for i in range(md.num_row_groups):
            for j in range(md.num_columns):
                assert md.row_group(i).column(j).compression == "ZSTD", (path, j)
    for path in shard_files:
        schema = pq.read_schema(path)
        # positions are on, so every reader column is there
        assert sorted(schema.names) == sorted(SHARD_COLUMNS), path
        assert schema.field("blocks").type == pa.list_(BLOCK_TYPE), path


def test_derived_block_max_is_idf_times_max_tf_norm(built):
    idx = built
    r = IndexReader(idx)
    per_block_df = np.repeat(r._df, np.diff(r._boff))
    want = np.array([bm25_idf(int(d), r.n_docs) for d in per_block_df]) * r._b_maxtf
    assert r._b_max.dtype == np.float64
    np.testing.assert_array_equal(r._b_max, want)
    _bounds_cover_scores(r)


# ------------------------------------------------ column encodings
_DICT = {"RLE_DICTIONARY", "PLAIN_DICTIONARY"}


def _column_encodings(path: str) -> dict[str, set[str]]:
    md = pq.ParquetFile(path).metadata
    out: dict[str, set[str]] = {}
    for i in range(md.num_row_groups):
        for j in range(md.num_columns):
            c = md.row_group(i).column(j)
            out.setdefault(c.path_in_schema, set()).update(c.encodings)
    return out


def _assert_index_encodings(idx: str) -> None:
    for path in _files(idx, "shards"):
        enc = _column_encodings(path)
        assert "DELTA_BYTE_ARRAY" in enc["term"], (path, enc["term"])
        for col in ("pos_stream", "blocks.list.element.docs"):
            assert not enc[col] & _DICT, (path, col, enc[col])
        assert enc["df"] & _DICT, (path, enc["df"])
    for path in _files(idx, "docs"):
        enc = _column_encodings(path)
        assert "DELTA_BINARY_PACKED" in enc["doc_id"], (path, enc["doc_id"])
        assert enc["sha256"] & _DICT, (path, enc["sha256"])


def test_every_write_path_uses_the_index_encodings(sf_unit, tmp_path):
    """Build, delete, compact, refresh and append each rewrite shard or
    doc-store files; after every step all of them carry the writer's
    per-column encodings, so no path writes around it."""
    src, idx = _build(sf_unit, tmp_path)
    _assert_index_encodings(idx)
    r0 = IndexReader(idx)
    delete_docs(idx, r0._doc_ids_sorted[::7])
    _assert_index_encodings(idx)
    compact_index(idx)
    _assert_index_encodings(idx)
    refresh_stats(idx)
    _assert_index_encodings(idx)
    corpus = _corpus(sf_unit)
    n = corpus.num_rows
    extra = corpus.slice(0, 40)
    extra = extra.set_column(extra.column_names.index("did"), "did",
                             pa.array(np.arange(n, n + 40, dtype=np.int64)))
    pq.write_table(extra, os.path.join(src, "part_001.parquet"))
    man = build_index(src, idx, CFG, resume=True)
    assert "base" in man["stages"]  # an append, not a rebuild
    _assert_index_encodings(idx)


def _assert_same_state(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key, x in a.items():
        y = b[key]
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, key
            np.testing.assert_array_equal(x, y, err_msg=key)
        elif isinstance(x, (pa.Array, pa.ChunkedArray)):
            assert x.equals(y), key
        else:
            assert x == y, key


def test_default_encoded_index_reads_bit_equal(built, tmp_path):
    """The encodings are invisible to readers: the same tables written with
    parquet's defaults (dictionary everywhere, snappy) give the same reader
    state and the same top-k."""
    idx = str(tmp_path / "idx")
    shutil.copytree(built, idx)
    for path in _files(idx, "shards") + _files(idx, "docs"):
        pq.write_table(pq.read_table(path), path)
    assert "DELTA_BYTE_ARRAY" not in _column_encodings(_files(idx, "shards")[0])["term"]
    _assert_same_state(IndexReader.build_state(idx), IndexReader.build_state(built))
    sa, sb = Searcher(IndexReader(idx)), Searcher(IndexReader(built))
    _assert_same_topk(sa, sb)
    assert fetch_docs(idx, list(range(20)), ["repo", "path"]).equals(
        fetch_docs(built, list(range(20)), ["repo", "path"]))


# ------------------------------------------------ crash leftovers in docs/
def test_crash_leftover_in_docs_is_not_read(built, tmp_path, durable_writes):
    """A doc-store rewrite that crashes between write and rename leaves its
    temp file in docs/; readers scanning the directory must not load it."""
    idx = str(tmp_path / "idx")
    shutil.copytree(built, idx)
    n_docs = IndexReader(idx)._doc_ids_sorted.size
    docs0 = _files(idx, "docs")[0]
    durable_writes.crash_at(os.path.basename(docs0), 1)
    with pytest.raises(durable_writes.error):
        write_index_file(pq.read_table(docs0), docs0)
    assert len(os.listdir(os.path.dirname(docs0))) == len(_files(idx, "docs")) + 1

    r = IndexReader(idx)
    assert r._doc_ids_sorted.size == n_docs
    top = [d for d, _ in Searcher(r).search(QUERIES[0], k=10)]
    assert len(top) == 10
    assert fetch_docs(idx, top, ["repo"])["doc_id"].to_pylist() == sorted(top)


# ------------------------------------------------ half-refreshed index
@pytest.mark.parametrize("old_champion_m", [0, 4])
def test_bounds_valid_on_half_refreshed_index(sf_unit, tmp_path, old_champion_m,
                                              window_bounds_cover_scores):
    """A refresh cut short leaves some shard files with the new df while
    the manifest keeps the old n_docs/avgdl. ``old_champion_m`` 0 is an
    index in the current layout; 4 one in the older layout (champion lists
    of length 4), where the files the refresh rewrote also differ in
    schema from the rest.
    Deleting the longest docs shrinks avgdl (so the refresh scales
    nothing): block bounds in the reader's view must still cover every
    posting score and every window bound every doc score in it, and
    windowed scoring must equal one pass."""
    src = str(tmp_path / "corpus.parquet")
    pq.write_table(_corpus(sf_unit), src)
    cfg = IndexConfig(
        id_col="did", token_cols=("path", "lang"), field_cols=("repo", "lang"),
        stored_cols=("repo",), num_shards=4, block_size=16,
    )
    idx = str(tmp_path / "idx")
    build_index(src, idx, cfg)
    if old_champion_m:
        assert old_champion_m == M_OLD
        _to_old_format(idx)
    r0 = IndexReader(idx)
    longest = r0._doc_ids_sorted[np.argsort(-r0._doclens_sorted, kind="stable")]
    delete_docs(idx, longest[: r0.n_docs // 5])
    compact_index(idx)
    refreshed = str(tmp_path / "refreshed")
    shutil.copytree(idx, refreshed)
    out = refresh_stats(refreshed)
    assert out["bound_scale"] == 1.0 and out["n_docs"] < r0.n_docs
    shard_files = _files(refreshed, "shards")
    for path in shard_files[: len(shard_files) // 2]:
        shutil.copy(path, os.path.join(idx, "shards", os.path.basename(path)))

    r = IndexReader(idx)
    assert r.n_docs == r0.n_docs  # the manifest still holds the old stats
    _bounds_cover_scores(r)
    s = Searcher(r)
    queries = [q["query"] for q in pq.read_table(sf_unit["queries"]).to_pylist()]
    window_bounds_cover_scores(s, queries + QUERIES)
    _assert_same_topk(s, s, queries + QUERIES)


# ------------------------------------------------ older-format indexes
M_OLD = 4  # champion list length of the older layout


def _to_old_format(idx: str) -> None:
    """Rewrite an index the way older builds wrote it: shards with
    ``term_hash``, ``cf``, a stored block ``max_score`` and champion lists
    (``champ_docs``/``champ_tfn``, each term's first postings); every file
    Snappy-compressed; the manifest config with the retired
    ``champion_m``/``champion_df_min`` keys."""
    man_path = os.path.join(idx, "manifest.json")
    with open(man_path) as f:
        man = json.load(f)
    n_docs = int(man["stats"]["n_docs"])
    man["config"].update(champion_m=M_OLD, champion_df_min=None)
    with open(man_path, "w") as f:
        json.dump(man, f)
    old_block = pa.struct(
        [("doc_base", pa.int64()), ("doc_last", pa.int64()), ("n", pa.int32()),
         ("max_score", pa.float64()), ("max_tf_norm", pa.float64()),
         ("docs", pa.binary()), ("tfs", pa.binary())]
    )
    for path in _files(idx, "shards"):
        t = pq.read_table(path)
        counts, docs, tfs, _ = decode_shard_table(t)
        blocks = t["blocks"].combine_chunks()
        flat = blocks.flatten()
        df = t["df"].to_numpy(zero_copy_only=False)
        idf = np.array([bm25_idf(int(d), n_docs) for d in df], np.float64)
        tfn = flat.field("max_tf_norm").to_numpy(zero_copy_only=False)
        max_score = np.repeat(idf, np.diff(blocks.offsets.to_numpy())) * tfn
        fields = {f.name: flat.field(f.name) for f in BLOCK_TYPE}
        fields["max_score"] = pa.array(max_score)
        old_blocks = pa.ListArray.from_arrays(
            blocks.offsets,
            pa.StructArray.from_arrays([fields[f.name] for f in old_block],
                                       fields=list(old_block)),
        )
        term_row = np.repeat(np.arange(t.num_rows), counts)
        first = (np.arange(docs.size)
                 - np.repeat(np.cumsum(counts) - counts, counts)) < M_OLD
        c_off = pa.array(np.concatenate(
            [[0], np.cumsum(np.minimum(counts, M_OLD))]).astype(np.int32))
        cols = {
            "term": t["term"],
            "term_hash": pa.array(term_hash(t["term"]).view(np.int64)),
            "df": t["df"],
            "cf": pa.array(np.bincount(term_row, tfs, t.num_rows).astype(np.int64)),
            "blocks": old_blocks,
            "champ_docs": pa.ListArray.from_arrays(c_off, pa.array(docs[first])),
            "champ_tfn": pa.ListArray.from_arrays(
                c_off, pa.array(tfs[first].astype(np.float64))),
        }
        if "pos_stream" in t.column_names:
            cols["pos_stream"] = t["pos_stream"]
        pq.write_table(pa.table(cols), path, compression="snappy")
    for path in _files(idx, "docs"):
        pq.write_table(pq.read_table(path), path, compression="snappy")


def _has_champions(path: str) -> bool:
    return "champ_docs" in pq.read_schema(path).names


def _assert_same_topk(sa: Searcher, sb: Searcher, queries=QUERIES) -> None:
    """``sa`` at the default window budget and at 16 live postings per
    window (the hot queries split into many) gives ``sb``'s default top-k."""
    for q in queries:
        want = sb.search(q, k=10)
        assert sa.search(q, k=10) == want, q
        with mock.patch.object(engine, "WINDOW_POSTINGS", 16):
            assert sa.search(q, k=10) == want, q


def _assert_same_results(a: str, b: str, pool: bool = False) -> None:
    ra, rb = IndexReader(a), IndexReader(b)
    assert (ra.n_docs, ra.avgdl) == (rb.n_docs, rb.avgdl)
    assert list(ra.terms) == list(rb.terms)
    np.testing.assert_array_equal(ra._b_max, rb._b_max)
    sa, sb = Searcher(ra), Searcher(rb)
    _assert_same_topk(sa, sb)
    for phrase in ("user name", "def return"):
        assert sa.search_phrase(phrase, k=20) == sb.search_phrase(phrase, k=20)
    if pool:
        from nmr_fair_dos_ray.search.distributed import DocShardedSearcher

        pa_, pb_ = DocShardedSearcher(a, pool_size=2), DocShardedSearcher(b, pool_size=2)
        try:
            for q in QUERIES:
                want = sb.search(q, k=10)
                assert pa_.search(q, k=10) == pb_.search(q, k=10) == want, q
        finally:
            pa_.shutdown()
            pb_.shutdown()


def test_old_format_index_reads_and_evolves_like_new(sf_unit, tmp_path):
    """An index in the older layout gives bit-equal results (one pass and
    windows, phrase, the pool at P=2), and delete → compact → refresh_stats → append
    of one more file leaves it equal to the same sequence on the new
    layout."""
    src, new = _build(sf_unit, tmp_path)
    old = str(tmp_path / "old")
    shutil.copytree(new, old)
    _to_old_format(old)
    assert "max_score" in str(pq.read_schema(_files(old, "shards")[0]))
    _assert_same_results(old, new, pool=True)

    victims = sorted({d for q in QUERIES for d, _ in
                      Searcher(IndexReader(new)).search(q, k=5)})
    corpus = _corpus(sf_unit)
    n = corpus.num_rows
    extra = corpus.slice(0, 40)
    extra = extra.set_column(extra.column_names.index("did"), "did",
                             pa.array(np.arange(n, n + 40, dtype=np.int64)))
    for d in (new, old):
        delete_docs(d, victims)
        compact_index(d)
    _assert_same_results(old, new)
    for d in (new, old):
        refresh_stats(d)
    assert not any(_has_champions(p) for p in _files(old, "shards"))
    _assert_same_results(old, new)
    pq.write_table(extra, os.path.join(src, "part_001.parquet"))
    for d in (new, old):
        docs0 = os.path.join(d, "docs", "docs_000000.parquet")
        mtime = os.stat(docs0).st_mtime_ns
        man = build_index(src, d, CFG, resume=True)
        assert "base" in man["stages"]  # an append, not a rebuild
        assert os.stat(docs0).st_mtime_ns == mtime
    _assert_same_results(old, new)
    ra, rb = IndexReader(old), IndexReader(new)
    for term in rb.terms:
        for x, y in zip(ra.postings(term), rb.postings(term)):
            np.testing.assert_array_equal(x, y)


def test_old_format_append_after_compaction_equals_fresh_build(sf_unit, tmp_path):
    """An older-layout index (champion columns, manifest config with the
    retired champion keys), deleted and compacted, appends as an append:
    the kept doc file is not rewritten, every file compaction or the append
    rewrote has no champion columns, and the result equals a fresh build
    over the surviving docs plus the appended rows."""
    src, idx = _build(sf_unit, tmp_path)
    _to_old_format(idx)
    victims = sorted({d for q in QUERIES for d, _ in
                      Searcher(IndexReader(idx)).search(q, k=5)})
    delete_docs(idx, victims)
    before = {p: os.stat(p).st_mtime_ns for p in _files(idx, "shards")}
    compact_index(idx)
    rewritten = [p for p, m in before.items() if os.stat(p).st_mtime_ns != m]
    assert rewritten and not any(_has_champions(p) for p in rewritten)

    corpus = _corpus(sf_unit)
    n = corpus.num_rows
    extra = corpus.slice(0, 40)
    extra = extra.set_column(extra.column_names.index("did"), "did",
                             pa.array(np.arange(n, n + 40, dtype=np.int64)))
    pq.write_table(extra, os.path.join(src, "part_001.parquet"))
    docs0 = os.path.join(idx, "docs", "docs_000000.parquet")
    mtime = os.stat(docs0).st_mtime_ns
    man = build_index(src, idx, CFG, resume=True)
    assert "base" in man["stages"]  # an append, not a rebuild
    assert os.stat(docs0).st_mtime_ns == mtime, "kept doc file rewritten"
    assert not any(_has_champions(p) for p in _files(idx, "shards"))

    fresh = tmp_path / "fresh"
    fresh.mkdir()
    keep = ~np.isin(corpus["did"].to_numpy(), np.array(victims))
    pq.write_table(corpus.filter(pa.array(keep)), fresh / "part_000.parquet")
    pq.write_table(extra, fresh / "part_001.parquet")
    idx_b = str(tmp_path / "idx_fresh")
    build_index(str(fresh), idx_b, CFG)
    ra, rb = IndexReader(idx), IndexReader(idx_b)
    assert ra.n_docs == rb.n_docs == n - len(victims) + 40
    assert ra.avgdl == rb.avgdl
    sa, sb = Searcher(ra), Searcher(rb)
    _assert_same_topk(sa, sb)
    for phrase in ("user name", "def return"):
        assert sa.search_phrase(phrase, k=20) == sb.search_phrase(phrase, k=20)
