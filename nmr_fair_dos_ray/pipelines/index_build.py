"""SPIMI-style inverted-index build as a Ray Data pipeline.

Replaces the reference's Elasticsearch bulk-index path
(reference: src/nmr_FAIR_DOs/connectors/elasticsearch.py:204-232 `addPIDRecords`
and src/nmr_FAIR_DOs/lib.py:463-499 `add_all_existing_pidRecords_to_elasticsearch`)
with a native build, per BASELINE.json north_star:

Phase 1 (stateless tasks, one per Parquet row group — the SPIMI "invert" pass):
    read row group → assign deterministic doc_ids (prefix-sum base from the
    footer scout, see sources/parquet_source.py) → sha256(content) invariant →
    vectorized code-aware tokenization into ONE term dictionary per batch
    (content and token columns; the stream arrives in (row, position) order
    as integer term ids) → per-(doc, term) aggregation on the integer key
    ``row * n_terms + id``: one stable radix sort, tf = run length, positions
    already ascending, term strings and hashes gathered from the dictionary
    → write one *posting run* file + one *docs* file per row group (atomic
    rename, write-once ⇒ per-partition checkpoint), return a manifest row.
    Runs are build scratch: the docs files are the doc store the reader
    loads, and N / avgdl are read from its ``doclen`` column.

Phase 2 (the SPIMI merge — a storage-backed map-side shuffle):
    Phase 1 writes each posting run SORTED BY shard_id with row groups
    aligned to shard boundaries, so the "exchange" is free: the merge task
    for shard ``s`` opens every run and reads ONLY its row groups (parquet
    min/max statistics prune the rest). One task per shard: sort
    (term, doc_id), per-term df, 128-posting blocks with delta+varint
    compression and per-block exact max idf-free BM25 factor (block-max
    metadata for window pruning) → one shard file (atomic) → manifest row per shard.
    This replaces ``Dataset.groupby(shard).map_groups`` deliberately: a
    sort-based all-to-all moved 100% of the postings through the object
    store and measured ~10× slower than the row-group-pruned direct reads;
    write-once shuffle files are also what makes the merge stage itself
    resumable per shard. Hot terms (detected from per-run df sidecars) are
    excluded from the cold shards and merged by run-bucket tasks over
    contiguous doc ranges — as many as the hot posting volume asks for at
    ≈250k postings each, at least ``n_salts`` — then concatenated (phase 3).

On disk only the searchable index stays: ``shards/`` (cold shards plus
``shard_hot.parquet``), ``docs/``, ``manifest.json`` and the invert partition
log. A shard file holds only what a reader cannot recompute, one row per
term: ``term``, ``df``, ``blocks`` (``codec.BLOCK_TYPE``: doc range, count,
idf-free block max and the varint docs/tfs bytes), plus ``pos_stream``
with positions. Block BM25 bounds are derived by the reader from df and
the manifest's n_docs.
Every shard and doc-store file goes through one writer
(:func:`write_index_file`: zstd, hidden temp name, ``os.replace``), which
also picks each column's parquet encoding (:data:`INDEX_COLUMN_ENCODING`):
the sorted ``term`` column is front-coded, the position and block doc-gap
bytes are stored plain, doc-store ids delta-packed, and every other column
keeps dictionary encoding. Encodings are invisible to parquet readers, so
files written before or after read the same. The phase-1 runs keep
``term_hash``, the shuffle key they are routed and hot-filtered by.

Once the shards and the hot merge are durable the final manifest save
marks the build finished and ``runs/`` and ``hotparts/`` are deleted; a
crash before that resumes from them. A same-input ``resume=True`` call on a
finished index rewrites nothing; if one of its searchable files is gone,
there are no runs to rebuild it from, so the build restarts clean.

Append (files added after the existing ones, ``resume=True``): every live
shard file is decoded — one Ray task per file, the decode compaction uses —
into a *base run* in the run format, doclens from the doc store. Once the
base runs are written and recorded in the manifest the old shards are
cleared, only the new items are inverted, and the merge reads base + new
runs; the base runs form one hot bucket ahead of the new ones. The append
therefore sees exactly what compaction and ``refresh_stats`` left live:
deleted docs cannot come back.

Scale notes (100 TB / 10^12 rows):
  - the merge stage moves (term, doc_id, tf, doclen) rows — ~20 bytes/posting
    — never `content`;
  - shard count is the partition knob: hash(term) % num_shards balances load;
    each shard-merge task reads runs × (1/num_shards) of the posting volume;
    at extreme run counts, consolidate runs in a tree (merge B runs per
    intermediate level) to bound per-task open-file counts, and pass run
    lists by manifest path instead of task closure;
  - Zipfian hot terms (`def`, `self`, …) would otherwise serialize one
    shard's merge; terms with df ≥ hot_df_threshold are salted into
    doc-range buckets sized by volume (runs are doc-contiguous), merged
    independently, and concatenated — sub-lists stay disjoint and sorted;
  - phase-1 output is partitioned by input row group ⇒ a failed run resumes
    by skipping finished row groups; phase 2 resumes per shard/bucket;
  - an append re-reads the whole index once (O(index), not O(new docs)):
    the price of keeping no second copy of the postings on disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from nmr_fair_dos_ray.codec import (
    BLOCK_SIZE, BLOCK_TYPE, encode_group_blocks, varint_position_lists,
)
from nmr_fair_dos_ray.sources.parquet_source import corpus_paths, read_work_item, work_items
from nmr_fair_dos_ray.state.manifest import (
    Manifest, PartitionLog, fingerprint_files,
)
from nmr_fair_dos_ray.tokenizer import Tokenizer, term_hash


@dataclass(frozen=True)
class IndexConfig:
    content_col: str = "content"
    id_col: str | None = None          # use an existing unique int64 id column
    token_cols: tuple[str, ...] = ()   # extra columns tokenized into the stream (e.g. path, lang)
    field_cols: tuple[str, ...] = ()   # exact-term fields, indexed as "<col>:<value>"
    stored_cols: tuple[str, ...] = ()  # carried into the docs table
    tokenizer_mode: str = "code"
    num_shards: int = 32
    block_size: int = BLOCK_SIZE
    k1: float = 1.2
    b: float = 0.75
    # ---- hot-term skew handling (north_rule: salted repartitioning) ----
    # Zipfian heads (`def`, `self`, `the`, …) otherwise serialize the shard
    # merge: one term's postings all land in one map_groups task. With
    # salting, terms whose df ≥ hot_df_threshold are rerouted to disjoint
    # doc-range sub-groups, merged independently, and concatenated (ranges
    # are disjoint + sorted) in a cheap final pass that fixes df globally.
    # The sub-group count follows the hot posting volume (≈250k postings
    # per task); n_salts is its MINIMUM.
    salt_hot_terms: bool = True
    hot_df_threshold: int | None = None  # None → max(1024, n_docs // 8)
    n_salts: int = 1
    # Retired: champion lists are no longer built and this field has no
    # effect. It stays only so configs that still pass it construct; drop it
    # once perfbench's MAIN config stops passing ``champion_m``.
    champion_m: int = 0
    # ---- positional index (phrase queries, ES match_phrase analog;
    # reference delegates phrase semantics to Elasticsearch's default
    # analyzer/index, src/nmr_FAIR_DOs/connectors/elasticsearch.py:169-173).
    # When on, every posting additionally stores the token positions of the
    # term in the doc's token stream (the same stream Tokenizer.tokenize
    # yields), delta+varint encoded into ONE byte stream per term —
    # decodable without touching the doc-id blocks. tf == position count, so
    # the stream needs no extra length metadata. Multi-source streams
    # (content + token_cols) are separated by POS_STREAM_GAP so phrases
    # never match across field boundaries (ES position_increment_gap).
    store_positions: bool = False

    def to_dict(self) -> dict:
        return {
            "content_col": self.content_col,
            "id_col": self.id_col,
            "token_cols": list(self.token_cols),
            "field_cols": list(self.field_cols),
            "stored_cols": list(self.stored_cols),
            "tokenizer_mode": self.tokenizer_mode,
            "num_shards": self.num_shards,
            "block_size": self.block_size,
            "k1": self.k1,
            "b": self.b,
            "salt_hot_terms": self.salt_hot_terms,
            "hot_df_threshold": self.hot_df_threshold,
            "n_salts": self.n_salts,
            "store_positions": self.store_positions,
        }


#: config keys an older build wrote to its manifest; a resume ignores them
_RETIRED_CONFIG_KEYS = ("champion_m", "champion_df_min")

POSTING_SCHEMA = pa.schema(
    [
        ("shard_id", pa.int32()),
        ("term", pa.string()),
        ("term_hash", pa.int64()),  # uint64 FNV-1a reinterpreted as int64
        ("doc_id", pa.int64()),
        ("tf", pa.int32()),
        ("doclen", pa.int32()),
    ]
)
# with store_positions: one varint byte-string of position deltas per posting
POSTING_SCHEMA_POS = POSTING_SCHEMA.append(pa.field("pos", pa.binary()))

#: positions of successive token streams (content, then each token_col) are
#: offset by this gap so phrases never match across stream boundaries
#: (Elasticsearch's position_increment_gap analog)
POS_STREAM_GAP = 100


def _bin_from_lengths(byte_lens: np.ndarray, data: np.ndarray) -> pa.Array:
    """Build a BinaryArray of len(byte_lens) values slicing ``data`` (uint8)
    consecutively — zero-copy into Arrow buffers, no per-value Python."""
    offs = np.concatenate([[0], np.cumsum(byte_lens)]).astype(np.int32)
    return pa.Array.from_buffers(
        pa.binary(), len(byte_lens),
        [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(data.tobytes())],
    )


def radix_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative int64 keys, as an
    LSD radix sort: one stable argsort per 16-bit digit (numpy radix-sorts
    ``uint16``), low digit first, as many digits as the largest key needs.
    Each pass keeps the order of equal digits, so the result is the stable
    permutation; timsort on int64 keys measured twice as slow."""
    keys = np.asarray(keys, np.int64)
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    for shift in range(16, int(keys.max(initial=0)).bit_length(), 16):
        digit = ((keys[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


class Phase1Invert:
    """map_batches callable over work items (batch_size=1): the SPIMI invert.

    Stateful actor-pool stage: the tokenizer is built once
    per actor in ``__init__`` (SURVEY.md §2.5), work happens per batch.
    """

    def __init__(self, cfg: IndexConfig, runs_dir: str, docs_dir: str,
                 df_min_cnt: int = 1):
        self.cfg = cfg
        self.tok = Tokenizer(cfg.tokenizer_mode)
        self.runs_dir = runs_dir
        self.docs_dir = docs_dir
        self.df_min_cnt = max(1, int(df_min_cnt))
        _cap_arrow_threads()

    def _read_columns(self) -> list[str] | None:
        cols = {self.cfg.content_col, *self.cfg.token_cols, *self.cfg.field_cols,
                *self.cfg.stored_cols}
        if self.cfg.id_col:
            cols.add(self.cfg.id_col)
        return sorted(cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_rows = []
        for item in batch.to_pylist():
            out_rows.append(self._one(item))
        return pa.Table.from_pylist(out_rows)

    def _one(self, item: dict) -> dict:
        t0 = time.time()
        c0 = time.process_time()
        cfg = self.cfg
        t = read_work_item(item, columns=self._read_columns())
        n = t.num_rows

        if cfg.id_col:
            doc_ids = t[cfg.id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        else:
            doc_ids = np.arange(
                item["doc_id_base"], item["doc_id_base"] + n, dtype=np.int64
            )

        content = t[cfg.content_col].cast(pa.string())
        # the one per-row loop on the build hot path: hashlib has no
        # vectorized form. Measured: sha256 of the whole 150k-doc sf-bench
        # corpus is 0.28 s single-threaded vs ~42 s of invert task CPU
        # (<1% of the stage) — revisit only if invert ever dominates again
        sha = pa.array(
            [hashlib.sha256((s or "").encode("utf-8")).hexdigest()
             for s in content.to_pylist()],
            pa.string(),
        )

        # ---- tokenize content + extra token columns into ONE dictionary ----
        want_pos = cfg.store_positions
        rows_parts, ids_parts, pos_parts, dicts = [], [], [], []
        n_seen = 0
        stream_base = np.zeros(n, np.int64)  # per-row next-stream offset
        for col_arr in [content] + [t[col].cast(pa.string()) for col in cfg.token_cols]:
            r2, id2, p2, d2 = self.tok.batch_token_ids(col_arr, with_positions=want_pos)
            rows_parts.append(r2)
            ids_parts.append(id2.astype(np.int64) + n_seen)
            dicts.append(d2)
            n_seen += len(d2)
            if want_pos:
                pos_parts.append(p2 + stream_base[r2])
                stream_base += np.bincount(r2, minlength=n) + POS_STREAM_GAP
        rows = np.concatenate(rows_parts)
        ids = np.concatenate(ids_parts)
        if len(dicts) > 1:
            enc = pc.dictionary_encode(pa.concat_arrays(dicts))
            ids = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)[ids]
            terms = enc.dictionary
        else:
            terms = dicts[0]
        doclens = np.bincount(rows, minlength=n).astype(np.int32)

        # ---- per-(row, term) postings: stable sort of integer keys ----
        # the stream is in (source, row, position) order and later sources
        # sit at higher positions, so each posting's positions stay
        # ascending; tf is the run length of its key
        n_terms = max(1, len(terms))
        key = rows * n_terms + ids
        order = radix_argsort(key)
        key = key[order]
        run_start = np.flatnonzero(np.diff(key, prepend=-1))
        p_tf = np.diff(np.append(run_start, key.size)).astype(np.int32)
        p_row, p_id = np.divmod(key[run_start], n_terms)
        p_term = terms.take(pa.array(p_id))
        p_pos_bin: pa.Array | None = None
        if want_pos:
            data, byte_lens = varint_position_lists(np.concatenate(pos_parts)[order], p_tf)
            p_pos_bin = _bin_from_lengths(byte_lens, data)

        # ---- exact field terms ("<col>:<value>", tf=1) ----
        # term hashes: each distinct term hashed once, gathered per posting
        f_rows, f_terms = [p_row], [p_term]
        f_tfs, f_th = [p_tf], [term_hash(terms)[p_id]]
        for colname in cfg.field_cols:
            vals = t[colname].cast(pa.string())
            # exact term "<col>:<value>"
            ft = pc.binary_join_element_wise(
                pa.array([colname + ":"] * n), pc.fill_null(vals, ""), ""
            )
            f_rows.append(np.arange(n, dtype=np.int64))
            f_terms.append(ft.combine_chunks() if isinstance(ft, pa.ChunkedArray) else ft)
            f_tfs.append(np.ones(n, np.int32))
            f_th.append(term_hash(f_terms[-1]))
        all_rows = np.concatenate(f_rows)
        all_terms = pa.concat_arrays(f_terms)
        all_tfs = np.concatenate(f_tfs)

        th = np.concatenate(f_th)
        shard = (th % np.uint64(cfg.num_shards)).astype(np.int32)
        cols = {
            "shard_id": pa.array(shard),
            "term": all_terms,
            "term_hash": pa.array(th.view(np.int64)),
            "doc_id": pa.array(doc_ids[all_rows]),
            "tf": pa.array(all_tfs),
            "doclen": pa.array(doclens[all_rows]),
        }
        if want_pos:
            # field terms carry no positions (tf=1 synthetic exact terms,
            # outside the token stream): empty byte strings
            n_field_rows = all_rows.size - p_row.size
            cols["pos"] = pa.concat_arrays(
                [p_pos_bin, pa.array([b""] * n_field_rows, pa.binary())]
            )
        postings = pa.table(
            cols, schema=POSTING_SCHEMA_POS if want_pos else POSTING_SCHEMA
        )
        # sort by shard so the run file can be written with shard-aligned row
        # groups — the storage-backed shuffle phase 2 relies on (statistics
        # prune every row group but the target shard's)
        postings = postings.take(
            pc.sort_indices(postings, sort_keys=[("shard_id", "ascending")])
        )

        docs_cols: dict = {"doc_id": pa.array(doc_ids), "sha256": sha,
                           "doclen": pa.array(doclens)}
        for col in cfg.stored_cols:
            docs_cols[col] = t[col]
        docs = pa.table(docs_cols)

        wi = int(item["work_item_id"])
        run_name, docs_name, df_name = (
            f"{p}_{wi:06d}.parquet" for p in ("run", "docs", "df"))
        run_path = os.path.join(self.runs_dir, run_name)
        docs_path = os.path.join(self.docs_dir, docs_name)
        df_path = os.path.join(self.runs_dir, df_name)
        _atomic_write_run(postings, run_path)
        write_index_file(docs, docs_path)
        # partial document frequencies (term_hash → rows-in-run): a tiny
        # sidecar per run so hot-term detection is a merge of pre-aggregated
        # sketches instead of a full shuffle of the posting rows. Rows with
        # cnt < df_min_cnt are dropped — Zipf-tail terms can't reach the hot
        # threshold anyway (detection is a skew heuristic, not a correctness
        # boundary: salting any superset/subset of the true hot set yields an
        # identical index, only the merge balance differs).
        u_th, u_cnt = np.unique(th, return_counts=True)
        if self.df_min_cnt > 1:
            keep_hot = u_cnt >= self.df_min_cnt
            u_th, u_cnt = u_th[keep_hot], u_cnt[keep_hot]
        write_index_file(
            pa.table({"term_hash": pa.array(u_th.view(np.int64)),
                      "cnt": pa.array(u_cnt.astype(np.int64))}),
            df_path,
        )

        return {
            "work_item_id": wi,
            "path": item["path"],
            "row_group": int(item["row_group"]),
            "row_offset": int(item.get("row_offset", 0)),
            "doc_id_base": int(item["doc_id_base"]),
            "n_docs": int(n),
            # logged relative to the index dir (see _part_path)
            "run_path": os.path.join("runs", run_name),
            "docs_path": os.path.join("docs", docs_name),
            "df_path": os.path.join("runs", df_name),
            "bytes": int(os.path.getsize(run_path) + os.path.getsize(docs_path)),
            "wall_sec": time.time() - t0,
            # per-task CPU (whole worker process incl. arrow threads): the
            # wall/CPU pair per stage is what distinguishes "engine got
            # slower" from "host inflated per-task CPU" in scaling runs
            "cpu_sec": time.process_time() - c0,
        }


def _part_path(index_dir: str, col: str, logged: str) -> str:
    """Absolute path of an invert partition-log file entry. Entries are
    logged relative to the index dir; older logs hold absolute paths, which
    resolve by file name under THIS index's ``runs/``/``docs/`` — so a
    copied or moved index reads and keeps its own files, never the
    original's."""
    sub = "docs" if col == "docs_path" else "runs"
    return os.path.join(index_dir, sub, os.path.basename(logged))


def _clear_dir(d: str) -> None:
    """Remove stale stage outputs (they are all rebuilt by the next pass)."""
    import shutil

    shutil.rmtree(d, ignore_errors=True)


def _cap_arrow_threads(n: int = 2) -> None:
    """Cap pyarrow's global thread pools inside Ray worker processes.

    Each Ray task gets ONE scheduled CPU, but pyarrow defaults both its CPU
    and IO pools to the machine's core count — with 32 concurrent workers
    that is 32×32 threads and throughput *drops* as workers are added
    (measured: the 32-CPU build ran 2× slower than the 8-CPU one before this
    cap). Parallelism belongs to Ray's scheduler, not nested thread pools.
    """
    try:
        if pa.cpu_count() > n:
            pa.set_cpu_count(n)
        if pa.io_thread_count() > 2 * n:
            pa.set_io_thread_count(2 * n)
    except Exception:
        pass


#: parquet codec of every file :func:`write_index_file` writes. zstd packs
#: the varint block bytes and the doc store about a third tighter than
#: parquet's default snappy, at a read cost within noise.
INDEX_CODEC = "zstd"

#: parquet encoding per column leaf (dotted parquet path) where dictionary
#: encoding does not suit the data; every other leaf keeps dictionary
#: encoding. ``term`` is sorted and unique within a shard file, so
#: DELTA_BYTE_ARRAY front-codes it (each term stores only the suffix after
#: the prefix it shares with the one before, as Lucene's terms dictionary
#: does); positions and block doc gaps are unique byte strings a dictionary
#: never reuses; doc-store ids ascend densely. Parquet readers decode any
#: encoding, so the choice is invisible to the reader and to older files.
INDEX_COLUMN_ENCODING = {
    "term": "DELTA_BYTE_ARRAY",
    "pos_stream": "PLAIN",
    "blocks.list.element.docs": "PLAIN",
    "doc_id": "DELTA_BINARY_PACKED",
}


def _leaf_paths(name: str, typ: pa.DataType):
    """Parquet column paths of one Arrow field (lists as ``list.element``).
    Index columns are scalars, structs and lists; a stored column of another
    nested type gets no path here and is written without a dictionary."""
    if pa.types.is_struct(typ):
        for f in typ:
            yield from _leaf_paths(f"{name}.{f.name}", f.type)
    elif pa.types.is_list(typ) or pa.types.is_large_list(typ):
        yield from _leaf_paths(f"{name}.list.element", typ.value_type)
    else:
        yield name


def _tmp_path(path: str) -> str:
    """Temp name of an atomic write: beside ``path`` and dot-prefixed, so
    directory-scanning readers (pyarrow datasets skip ``.`` names) never
    load a crash's leftover as data."""
    d, name = os.path.split(path)
    return os.path.join(d, f".{name}.tmp-{os.getpid()}")


def write_index_file(table: pa.Table, path: str) -> None:
    """Atomically write one index file — every shard and doc-store file
    (build, hot merge, compaction, refresh) and the build's df sidecars:
    zstd parquet with the :data:`INDEX_COLUMN_ENCODING` encodings to a
    hidden temp name, then ``os.replace``."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = _tmp_path(path)
    leaves = [p for f in table.schema for p in _leaf_paths(f.name, f.type)]
    encoding = {p: INDEX_COLUMN_ENCODING[p] for p in leaves if p in INDEX_COLUMN_ENCODING}
    pq.write_table(table, tmp, compression=INDEX_CODEC,
                   use_dictionary=[p for p in leaves if p not in encoding],
                   column_encoding=encoding)
    os.replace(tmp, path)


def _atomic_write_run(postings: pa.Table, path: str) -> None:
    """Write a posting run (already sorted by shard_id) with one row group
    per shard, so downstream per-shard readers prune on statistics."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = _tmp_path(path)
    sh = postings["shard_id"].to_numpy(zero_copy_only=False)
    bounds = np.concatenate(
        [[0], np.flatnonzero(np.diff(sh)) + 1, [len(sh)]]
    ) if len(sh) else np.array([0, 0])
    with pq.ParquetWriter(tmp, postings.schema) as w:
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e > s:
                w.write_table(postings.slice(int(s), int(e - s)))
    os.replace(tmp, path)


_EMPTY_SHARD = pa.schema(
    [("term", pa.string()), ("df", pa.int64()), ("blocks", pa.list_(BLOCK_TYPE))]
)

def build_group_table(
    group: pa.Table, cfg: IndexConfig, avgdl: float,
) -> pa.Table:
    """Merge+compress one group of postings (columns term/doc_id/tf/doclen)
    into a shard table: sort (term, doc_id) once, slice per term via
    dictionary change points, encode every block in one vectorized pass.

    df computed here is exact iff the group holds EVERY posting of its terms
    (cold shards); for hot doc-range parts it is partial and summed by
    :func:`merge_hot_parts`. Blocks store no idf, so that merge only
    concatenates them.
    """
    if group.num_rows == 0:
        schema = _EMPTY_SHARD
        if cfg.store_positions:
            schema = schema.append(pa.field("pos_stream", pa.binary()))
        return schema.empty_table()
    idx = pc.sort_indices(
        group, sort_keys=[("term", "ascending"), ("doc_id", "ascending")]
    )
    g = group.take(idx)
    terms = g["term"].combine_chunks() if isinstance(g["term"], pa.ChunkedArray) else g["term"]
    doc_ids = g["doc_id"].to_numpy(zero_copy_only=False)
    tfs = g["tf"].to_numpy(zero_copy_only=False)
    doclens = g["doclen"].to_numpy(zero_copy_only=False)

    # term boundaries via dictionary-encoded change points
    enc = pc.dictionary_encode(terms)
    codes = (enc.combine_chunks().indices.to_numpy(zero_copy_only=False)
             if isinstance(enc, pa.ChunkedArray) else enc.indices.to_numpy(zero_copy_only=False))
    change = np.flatnonzero(np.diff(codes)) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [len(codes)]])
    counts = ends - starts

    blocks_list = encode_group_blocks(
        doc_ids, tfs, doclens, counts,
        cfg.k1, cfg.b, avgdl, block_size=cfg.block_size,
    )
    cols = {
        "term": terms.take(pa.array(starts)),
        "df": pa.array(counts, pa.int64()),
        "blocks": blocks_list,
    }
    if cfg.store_positions and "pos" in g.column_names:
        # per-term position stream: the sorted postings' varint byte strings
        # concatenate directly (each is self-delimiting; count = that
        # posting's tf, recovered from the decoded tf array at read time)
        seg_offs = pa.array(
            np.concatenate([starts, [len(codes)]]).astype(np.int32), pa.int32()
        )
        pos_col = g["pos"].combine_chunks() if isinstance(g["pos"], pa.ChunkedArray) else g["pos"]
        cols["pos_stream"] = pc.binary_join(
            pa.ListArray.from_arrays(seg_offs, pos_col), pa.scalar(b"", pa.binary())
        )
    return pa.table(cols)


def _kept_partitions(old: pa.Table | None, items: list[dict]) -> pa.Table | None:
    """Rows of the invert partition log whose identity (path, row group,
    slice, docID base, row count) is unchanged under the new work-item list
    — true for every existing partition when files are only ADDED after
    them in sort order. None when nothing matches (a file inserted
    mid-order shifts docID bases: the build degrades to a full rebuild)."""
    if old is None or not old.num_rows:
        return None
    wi = old["work_item_id"].to_numpy(zero_copy_only=False)
    m = wi < len(items)
    for log_col, key in (("path", "path"), ("row_group", "row_group"),
                         ("row_offset", "row_offset"),
                         ("doc_id_base", "doc_id_base"), ("n_docs", "num_rows")):
        want = np.array([items[w][key] if ok else None for w, ok in zip(wi, m)],
                        dtype=object)
        m = m & (old[log_col].to_numpy(zero_copy_only=False) == want)
    return old.filter(pa.array(m)) if m.any() else None


def _write_base_runs(index_dir: str, keep_tbl: pa.Table, num_shards: int,
                     df_min_cnt: int) -> dict:
    """Decode every shard file of a finished index (cold shards and
    ``shard_hot.parquet``) into a *base run*: the phase-1 run format
    (shard-sorted, shard-aligned row groups, df sidecar) holding the index's
    live postings, doclens taken from the kept partitions' doc store.
    Postings of docs outside that doc store (partitions the new input no
    longer has) are dropped. One Ray task per shard file, the compaction
    shape, so the calling process never holds postings. Returns the manifest's
    ``base`` stage record (paths relative to the index dir)."""
    import pyarrow.dataset as pads
    import ray
    import ray.data as rd

    from nmr_fair_dos_ray.pipelines.lifecycle import _member, decode_shard_table

    t0 = time.time()
    shards_dir = os.path.join(index_dir, "shards")
    runs_dir = os.path.join(index_dir, "runs")
    shard_files = sorted(
        p for p in os.listdir(shards_dir) if p.endswith(".parquet")
    ) if os.path.isdir(shards_dir) else []
    rec: dict = {"status": "done", "runs": [], "dfs": [], "n_postings": 0}
    if not shard_files:
        return rec
    docs = pads.dataset([
        _part_path(index_dir, "docs_path", p) for p in keep_tbl["docs_path"].to_pylist()
    ]).to_table(columns=["doc_id", "doclen"])
    ids = docs["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids, kind="stable")
    state_ref = ray.put(
        (ids[order], docs["doclen"].to_numpy(zero_copy_only=False)[order])
    )

    def decode_file(batch: pa.Table) -> pa.Table:
        _cap_arrow_threads()
        ids_sorted, dls_sorted = ray.get(state_ref)
        rows = []
        for it in batch.to_pylist():
            c0 = time.process_time()
            t = pq.read_table(os.path.join(shards_dir, it["file"]))
            counts, doc_ids, tfs, positions = decode_shard_table(t)
            live = _member(doc_ids, ids_sorted)
            if positions is not None:
                has_pos, abs_pos = positions
                abs_pos = abs_pos[np.repeat(live[has_pos], tfs[has_pos])]
                has_pos = has_pos[live]
            term_row = np.repeat(np.arange(t.num_rows), counts)[live]
            doc_ids, tfs = doc_ids[live], tfs[live]
            terms = t["term"].combine_chunks()
            th = term_hash(terms)[term_row]
            cols = {
                "shard_id": pa.array((th % np.uint64(num_shards)).astype(np.int32)),
                "term": terms.take(pa.array(term_row)),
                "term_hash": pa.array(th.view(np.int64)),
                "doc_id": pa.array(doc_ids, pa.int64()),
                "tf": pa.array(tfs, pa.int32()),
                "doclen": pa.array(
                    dls_sorted[np.searchsorted(ids_sorted, doc_ids)], pa.int32()),
            }
            if positions is not None:
                data, pos_b = varint_position_lists(abs_pos, tfs[has_pos])
                byte_lens = np.zeros(doc_ids.size, np.int64)
                byte_lens[has_pos] = pos_b
                cols["pos"] = _bin_from_lengths(byte_lens, data)
            postings = pa.table(
                cols, schema=POSTING_SCHEMA if positions is None else POSTING_SCHEMA_POS
            )
            postings = postings.take(
                pc.sort_indices(postings, sort_keys=[("shard_id", "ascending")])
            )
            run_name, df_name = (f"{p}_{int(it['i']):05d}.parquet"
                                 for p in ("base", "basedf"))
            _atomic_write_run(postings, os.path.join(runs_dir, run_name))
            u_th, u_cnt = np.unique(th, return_counts=True)
            keep_hot = u_cnt >= df_min_cnt
            write_index_file(
                pa.table({"term_hash": pa.array(u_th[keep_hot].view(np.int64)),
                          "cnt": pa.array(u_cnt[keep_hot].astype(np.int64))}),
                os.path.join(runs_dir, df_name),
            )
            rows.append({"run_path": os.path.join("runs", run_name),
                         "df_path": os.path.join("runs", df_name),
                         "n_postings": int(doc_ids.size),
                         "cpu_sec": time.process_time() - c0})
        return pa.Table.from_pylist(rows)

    res = sorted(
        rd.from_items([{"i": i, "file": f} for i, f in enumerate(shard_files)])
        .map_batches(decode_file, batch_size=1, batch_format="pyarrow")
        .take_all(),
        key=lambda r: r["run_path"],
    )
    rec.update(
        runs=[r["run_path"] for r in res], dfs=[r["df_path"] for r in res],
        n_postings=int(sum(r["n_postings"] for r in res)),
        wall_sec=time.time() - t0,
        task_cpu_sum=round(sum(r["cpu_sec"] for r in res), 3),
    )
    return rec


def _doc_store_stats(paths: list[str]) -> dict:
    """n_docs / sum_doclen / avgdl over the given doc-store files — after
    compaction the doc store holds only live docs, so these are the stats
    of what the index can still return."""
    import pyarrow.dataset as pads

    if not paths:
        return {"n_docs": 0, "sum_doclen": 0, "avgdl": 0.0}
    doclen = pads.dataset(paths).to_table(columns=["doclen"])["doclen"]
    n_docs = len(doclen)
    sum_doclen = int(pc.sum(doclen).as_py() or 0)
    return {
        "n_docs": n_docs,
        "sum_doclen": sum_doclen,
        "avgdl": (sum_doclen / n_docs) if n_docs else 0.0,
    }


def _lost_index_files(index_dir: str, man: Manifest, plog: PartitionLog,
                      num_shards: int) -> list[str]:
    """Searchable files a finished build recorded that are no longer on
    disk: its cold shards, its hot shard and its doc-store files. Paths
    resolve by file name under this index dir (a copied index checks its
    own files)."""
    shards_dir = os.path.join(index_dir, "shards")
    want = [os.path.join(shards_dir, os.path.basename(v["path"]))
            for k, v in man.partitions("shards").items()
            if int(k) < num_shards and v.get("path")]
    if man.stage("hotmerge").get("path"):
        want.append(os.path.join(shards_dir, "shard_hot.parquet"))
    docs = plog.read(columns=["docs_path"])
    if docs is not None:
        want += [_part_path(index_dir, "docs_path", p)
                 for p in docs["docs_path"].to_pylist()]
    return [p for p in want if not os.path.exists(p)]


def build_index(
    source: str | list[str],
    index_dir: str,
    cfg: IndexConfig = IndexConfig(),
    *,
    resume: bool = True,
    concurrency: int | None = None,
) -> dict:
    """Run the full build. Returns the manifest dict (stats + per-partition).

    ``resume=True`` skips row groups whose phase-1 outputs exist and shards
    whose phase-2 outputs exist, provided the input fingerprint and config
    match (otherwise the build restarts clean). On a finished index with the
    same input and config it rewrites nothing. When files were added after
    the existing ones, it appends: the kept partitions' postings are
    re-derived from the live shard files (see the module docstring).
    """
    import ray.data as rd

    paths = corpus_paths(source)
    items = work_items(paths)
    for i, it in enumerate(items):
        it["work_item_id"] = i
    # fingerprint covers the partition boundaries too: a slicing-config change
    # must invalidate stale per-partition manifests
    boundary_sig = hashlib.sha256(
        json.dumps(
            [(it["path"], it["row_group"], it["row_offset"], it["num_rows"]) for it in items]
        ).encode()
    ).hexdigest()
    fp = hashlib.sha256((fingerprint_files(paths) + boundary_sig).encode()).hexdigest()
    runs_dir = os.path.join(index_dir, "runs")
    docs_dir = os.path.join(index_dir, "docs")
    shards_dir = os.path.join(index_dir, "shards")
    hotparts_dir = os.path.join(index_dir, "hotparts")
    man = Manifest(index_dir)
    plog = PartitionLog(index_dir, "invert")

    # an older build's manifest also holds the retired champion-list keys,
    # which must not read as a config change: a clean rebuild would re-invert
    # the source files and bring back docs a delete + compact expunged
    old_cfg = {k: v for k, v in man.data.get("config", {}).items()
               if k not in _RETIRED_CONFIG_KEYS}
    cfg_changed = bool(old_cfg) and old_cfg != cfg.to_dict()
    fp_changed = man.data.get("input_fingerprint") not in (None, fp)
    # finished build: its final manifest save carries build_wall_sec
    finished = (resume and not cfg_changed
                and "build_wall_sec" in man.data.get("stats", {}))
    # a finished index has no runs left to rebuild a lost file from
    lost = (_lost_index_files(index_dir, man, plog, cfg.num_shards)
            if finished else [])
    # planned hot threshold (doc count known up front from the footer scout)
    # drives the sidecar pre-filter: per-run counts below thr/(4*num_items)
    # can't plausibly belong to a hot term (Zipf heads are spread ~uniformly
    # across doc-contiguous runs), so the tail never hits the sidecars
    planned_docs = sum(it["num_rows"] for it in items)
    thr_planned = cfg.hot_df_threshold or max(1024, planned_docs // 8)
    df_min_cnt = (
        max(1, thr_planned // (4 * max(1, len(items))))
        if cfg.salt_hot_terms
        else 1
    )
    if finished and not lost and not fp_changed:
        # finished index, same input: only scratch that a crash between
        # the final save and its deletion left behind remains to go
        _clear_dir(runs_dir)
        _clear_dir(hotparts_dir)
        return man.data
    keep_tbl = (_kept_partitions(plog.read(), items)
                if finished and not lost else None)
    if keep_tbl is not None:
        # Incremental append (reference analog: per-doc ES index call K1 —
        # "incremental add = append partition + delta-merge", SURVEY.md §2.2):
        # keep the invert partitions the new input still has, re-derive
        # their postings from the live shard files as base runs, invert only
        # the new items and re-run the merge stages over base + new runs.
        # Nothing the reader uses changes until the base runs are durable
        # (recorded by the manifest save below): a crash before that leaves
        # the old index searchable as it was.
        base = _write_base_runs(index_dir, keep_tbl, cfg.num_shards, df_min_cnt)
        no_run = pa.array([""] * keep_tbl.num_rows, pa.string())
        for c in ("run_path", "df_path"):  # postings now live in the base runs
            keep_tbl = keep_tbl.set_column(keep_tbl.column_names.index(c), c, no_run)
        plog.replace(keep_tbl)
        man.data = {"config": cfg.to_dict(), "stages": {"base": base}, "stats": {}}
    elif not resume or cfg_changed or fp_changed or lost:
        # clean rebuild: also when the input changed under an unfinished
        # build, whose shards are no base to append to, and when a finished
        # index lost a searchable file (an append would drop its postings)
        man.data = {"config": cfg.to_dict(), "stages": {}, "stats": {}}
        # docs/ too: IndexReader scans the docs/ DIRECTORY, so a rebuild onto
        # a smaller corpus must not leave stale docs_NNNNNN files injecting
        # phantom doc_ids/doclens into every search.
        for d in (shards_dir, hotparts_dir, runs_dir, docs_dir):
            _clear_dir(d)
        plog.clear()
    man.data["config"] = cfg.to_dict()
    man.data["input_fingerprint"] = fp
    man.save()

    # ---------------- phase 1: invert (per row group, resumable) ----------
    # Partition rows live in a parquet PartitionLog, streamed from workers —
    # the driver never materializes the result list or per-item dicts
    # (VERDICT round-1 item 9: memory honest at millions of work items).
    # A partition is done when its docs file exists and so does its run —
    # unless its postings live in the base runs (logged run_path "").
    t0 = time.time()
    done_p1: set[int] = set()
    prev = plog.read(columns=["run_path", "docs_path"])
    if prev is not None:
        for w, rp, dp in zip(
            prev["work_item_id"].to_pylist(),
            prev["run_path"].to_pylist(),
            prev["docs_path"].to_pylist(),
        ):
            if (os.path.exists(_part_path(index_dir, "docs_path", dp))
                    and (not rp or os.path.exists(_part_path(index_dir, "run_path", rp)))):
                done_p1.add(int(w))
    todo = [it for it in items if it["work_item_id"] not in done_p1]
    if todo:
        ds = rd.from_items(todo)
        stage = Phase1Invert(cfg, runs_dir, docs_dir, df_min_cnt=df_min_cnt)
        kwargs: dict = {"batch_size": 1, "batch_format": "pyarrow"}
        if concurrency:
            kwargs["concurrency"] = concurrency
        session = plog.open_session()
        try:
            for batch in ds.map_batches(stage, **kwargs).iter_batches(
                batch_format="pyarrow"
            ):
                session.write(batch)
        finally:
            session.close()

    parts_tbl = plog.read()
    if parts_tbl is None:
        parts_tbl = pa.table({
            "work_item_id": pa.array([], pa.int64()),
            "run_path": pa.array([], pa.string()),
            "docs_path": pa.array([], pa.string()),
            "df_path": pa.array([], pa.string()),
        })
    # directory-scanning readers must never see docs files of abandoned work
    # items (file removed / shrunk / reordered) or of a crashed write
    docs_files = [_part_path(index_dir, "docs_path", p)
                  for p in parts_tbl["docs_path"].to_pylist()]
    live_names = {os.path.basename(p) for p in docs_files}
    if os.path.isdir(docs_dir):
        for fn in os.listdir(docs_dir):
            if fn not in live_names:
                os.remove(os.path.join(docs_dir, fn))
    doc_stats = _doc_store_stats(docs_files)
    n_docs, avgdl = doc_stats["n_docs"], doc_stats["avgdl"]
    man.data["stats"] = {**doc_stats, "k1": cfg.k1, "b": cfg.b}
    _task_sums = {
        f"task_{name}_sum": round(
            # nansum: resumed logs may carry null metrics from older sessions
            float(np.nansum(parts_tbl[c].to_numpy(zero_copy_only=False))), 3
        )
        for name, c in (("wall", "wall_sec"), ("cpu", "cpu_sec"))
        if c in parts_tbl.column_names
    }
    man.mark_stage("invert", status="done", wall_sec=time.time() - t0, **_task_sums)
    # doc-contiguity of hot run-buckets requires WORK-ITEM order, not path
    # order: 'run_1000000' sorts lexicographically before 'run_999999', which
    # would break bucket doc-range disjointness past 10^6 work items
    _wi_order = np.argsort(parts_tbl["work_item_id"].to_numpy(zero_copy_only=False))
    _rp = parts_tbl["run_path"].to_pylist()
    run_paths = [_part_path(index_dir, "run_path", _rp[i]) for i in _wi_order if _rp[i]]
    base = man.data["stages"].get("base", {})
    base_runs = [os.path.join(index_dir, p) for p in base.get("runs", [])]

    # -------- phase 1.5: hot-term detection (salted-repartition prep) -----
    # Cheap: per-block partial df counts (one row per distinct term per run)
    # → tiny groupby-sum → filter ≥ threshold. The shuffle carries
    # (term_hash, partial_count), never postings. Hot hashes are persisted in
    # the manifest so a resumed build reroutes identically.
    hot_hashes = np.empty(0, dtype=np.int64)
    if cfg.salt_hot_terms and n_docs > 0:
        if man.stage("hot").get("status") == "done":
            hot_hashes = np.array(man.stage("hot").get("hot_hashes", []), dtype=np.int64)
        else:
            thr = cfg.hot_df_threshold or max(1024, n_docs // 8)
            t_hot = time.time()
            # merge the per-run partial-df sidecars (already aggregated in
            # phase 1): rows here = Σ distinct-terms-per-run, read threaded
            # by pyarrow and summed with one sort+reduceat — no Ray shuffle.
            # At extreme corpus scale (Σ distinct terms beyond driver memory)
            # this merge tree gains one Ray map_batches level, same math.
            import pyarrow.dataset as pads

            df_paths = sorted(
                _part_path(index_dir, "df_path", pth)
                for pth in parts_tbl["df_path"].to_pylist() if pth
            ) + [os.path.join(index_dir, p) for p in base.get("dfs", [])]
            t = pads.dataset(df_paths).to_table(columns=["term_hash", "cnt"])
            th_all = t["term_hash"].to_numpy(zero_copy_only=False)
            cnt_all = t["cnt"].to_numpy(zero_copy_only=False)
            est_hot_postings = 0
            if th_all.size:
                order = np.argsort(th_all, kind="stable")
                th_s, cnt_s = th_all[order], cnt_all[order]
                starts = np.flatnonzero(
                    np.concatenate([[True], th_s[1:] != th_s[:-1]])
                )
                sums = np.add.reduceat(cnt_s, starts)
                is_hot = sums >= thr
                hot_hashes = np.sort(th_s[starts][is_hot]).astype(np.int64)
                est_hot_postings = int(sums[is_hot].sum())
            else:
                hot_hashes = np.empty(0, np.int64)
            man.mark_stage(
                "hot", status="done", threshold=int(thr),
                n_hot=int(hot_hashes.size),
                hot_hashes=[int(h) for h in hot_hashes],
                est_hot_postings=est_hot_postings,
                wall_sec=time.time() - t_hot,
            )
    hot_sorted = np.sort(hot_hashes)
    # hot run-buckets: contiguous slices of the doc-ordered run list, so each
    # bucket covers a disjoint doc-id range and the final merge is a concat.
    # The base runs form ONE unit ahead of the new runs: their doc ranges
    # overlap each other and precede every appended doc.
    # Bucket count follows the estimated hot posting volume (target ≈250k
    # postings per task keeps per-task working sets small — which matters
    # both for worker heap reuse and for straggler-free scheduling), at
    # least cfg.n_salts, at most 128 and the unit count; it is persisted so
    # a resumed build slices identically.
    units = ([base_runs] if base_runs else []) + [[p] for p in run_paths]
    n_buckets = 0
    if hot_sorted.size:
        est = int(man.stage("hot").get("est_hot_postings", 0))
        n_buckets = int(man.stage("hot").get("n_buckets", 0))
        if not n_buckets:
            n_buckets = min(128, len(units), max(cfg.n_salts, -(-est // 250_000)))
            man.mark_stage("hot", n_buckets=int(n_buckets))
    buckets = [[p for u in c for p in units[u]]
               for c in np.array_split(np.arange(len(units)), n_buckets)
               if len(c)] if n_buckets else []
    run_paths = base_runs + run_paths

    # ------------- phase 2: per-shard merge (storage-backed shuffle) ------
    # No Dataset.groupby: phase-1 run files are sorted by shard_id with
    # shard-aligned row groups, so each merge task reads only its shard's row
    # groups (parquet statistics pruning) — the exchange happens through
    # write-once files, which is also what makes this stage resumable and
    # measured ~10× faster than the sort-based all-to-all it replaces.
    t1 = time.time()
    done_shards = man.done_partitions("shards")
    if not done_shards:
        # nothing merged yet: whatever is here is the previous index's (an
        # append's old shards, now held by the base runs) or a crashed
        # attempt's — never read again, and a stale shard_hot.parquet would
        # shadow this build's hot terms
        _clear_dir(shards_dir)
        _clear_dir(hotparts_dir)
    todo_merge: list[dict] = []
    for s in range(cfg.num_shards):
        if s not in done_shards:
            todo_merge.append({"pid": s, "kind": "cold"})
    for bkt in range(len(buckets)):
        if cfg.num_shards + bkt not in done_shards:
            todo_merge.append({"pid": cfg.num_shards + bkt, "kind": "hot"})
    if todo_merge and n_docs > 0:
        import pyarrow.dataset as pads

        hot_list = pa.array(hot_sorted, pa.int64())
        num_shards = cfg.num_shards

        def merge_task(batch: pa.Table) -> pa.Table:
            # one descriptor per batch (batch_size=1): read → build → write
            _cap_arrow_threads()
            rows = []
            for it in batch.to_pylist():
                t0m = time.time()
                c0m = time.process_time()
                pid = int(it["pid"])
                merge_cols = ["term", "doc_id", "tf", "doclen"]
                if cfg.store_positions:
                    merge_cols.append("pos")
                is_hot = pc.field("term_hash").isin(hot_list)
                if it["kind"] == "cold":
                    filt = pc.field("shard_id") == pid
                    g = pads.dataset(run_paths).to_table(
                        columns=merge_cols,
                        filter=(filt & ~is_hot) if len(hot_list) else filt,
                    )
                    path = os.path.join(shards_dir, f"shard_{pid:05d}.parquet")
                else:
                    g = pads.dataset(buckets[pid - num_shards]).to_table(
                        columns=merge_cols, filter=is_hot,
                    )
                    path = os.path.join(hotparts_dir, f"part_{pid:06d}.parquet")
                shard_table = build_group_table(g, cfg, avgdl)
                write_index_file(shard_table, path)
                rows.append(
                    {
                        "shard_id": pid,
                        "n_terms": shard_table.num_rows,
                        "n_postings": int(g.num_rows),
                        "bytes": int(os.path.getsize(path)),
                        "path": path,
                        "wall_sec": time.time() - t0m,
                        "cpu_sec": time.process_time() - c0m,
                    }
                )
            return pa.Table.from_pylist(rows)

        kwargs2: dict = {"batch_size": 1, "batch_format": "pyarrow"}
        res = rd.from_items(todo_merge).map_batches(merge_task, **kwargs2).take_all()
        for r in res:
            man.mark_partition("shards", r["shard_id"], **{
                k: r[k]
                for k in ("n_terms", "n_postings", "bytes", "path", "wall_sec",
                          "cpu_sec")
            })
        parts = man.partitions("shards").values()
        man.mark_stage(
            "shards", status="done", wall_sec=time.time() - t1,
            task_wall_sum=round(sum(p.get("wall_sec", 0.0) for p in parts), 3),
            task_cpu_sum=round(sum(p.get("cpu_sec", 0.0) for p in parts), 3),
        )
    elif not man.stage_done("shards"):
        man.mark_stage("shards", status="done", wall_sec=0.0)  # nothing to do

    # -------- phase 3: finalize hot terms (concat disjoint doc ranges) ----
    hotmerge_complete = man.stage_done("hotmerge") and (
        (p := man.stage("hotmerge").get("path")) is None or os.path.exists(p)
    )
    if hot_sorted.size and not hotmerge_complete:
        t2 = time.time()
        out_path = merge_hot_parts(hotparts_dir, shards_dir)
        man.mark_stage(
            "hotmerge", status="done", n_hot=int(hot_sorted.size),
            path=out_path, wall_sec=time.time() - t2,
        )
    # size/compression metrics: final searchable footprint vs posting volume
    def _dir_bytes(d: str) -> int:
        if not os.path.isdir(d):
            return 0
        return sum(
            os.path.getsize(os.path.join(d, p))
            for p in os.listdir(d) if p.endswith(".parquet")
        )

    shards_bytes = _dir_bytes(shards_dir)
    # every posting is merged exactly once: by its cold shard or, for a hot
    # term, by one run-bucket
    n_postings = int(sum(
        p.get("n_postings", 0) for p in man.partitions("shards").values()
    ))
    man.data["stats"]["n_postings"] = n_postings
    man.data["stats"]["shards_bytes"] = shards_bytes
    man.data["stats"]["docs_bytes"] = _dir_bytes(docs_dir)
    man.data["stats"]["bytes_per_posting"] = (
        round(shards_bytes / n_postings, 3) if n_postings else 0.0
    )
    # build_wall_sec marks the build finished: the shards and the hot merge
    # are durable, so runs and hot parts are build scratch from here on (an
    # append re-derives its postings from the shards)
    man.data["stats"]["build_wall_sec"] = time.time() - t0
    man.save()
    _clear_dir(runs_dir)
    _clear_dir(hotparts_dir)
    return man.data


def merge_hot_parts(hotparts_dir: str, shards_dir: str) -> str | None:
    """Concatenate each hot term's salted doc-range parts into one final
    posting list with its global df.

    Pure metadata work: parts are already compressed block runs over disjoint
    increasing doc ranges, and blocks carry no idf, so the merge concatenates
    block lists (ordered by doc_base) and sums df — no posting is decoded.
    Cost is O(hot terms × blocks-per-term metadata); hot terms are the Zipf
    head, a tiny fixed set, so this runs in the calling process.
    """
    if not os.path.isdir(hotparts_dir):
        return None
    part_files = sorted(
        os.path.join(hotparts_dir, p)
        for p in os.listdir(hotparts_dir)
        if p.endswith(".parquet")
    )
    if not part_files:
        return None
    # fully vectorized: sort part rows by (term, first block doc_base) —
    # after that, every term's blocks are already concatenated in doc order
    # in the flattened struct array; only the per-term list offsets need
    # rebuilding.
    t = pa.concat_tables(
        [pq.read_table(p) for p in part_files]
    ).combine_chunks()
    blocks = t["blocks"].combine_chunks()
    offs = blocks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    first_base = blocks.flatten().field("doc_base").to_numpy(zero_copy_only=False)[offs[:-1]]
    order = pc.sort_indices(
        pa.table({"term": t["term"], "first_base": first_base}),
        sort_keys=[("term", "ascending"), ("first_base", "ascending")],
    )
    t = t.take(order)
    first_base = first_base[order.to_numpy()]
    blocks = t["blocks"].combine_chunks()
    offs = blocks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = blocks.flatten()
    terms = t["term"].combine_chunks()
    term_codes = pc.dictionary_encode(terms).indices.to_numpy(zero_copy_only=False)
    same_term = term_codes[1:] == term_codes[:-1]
    dfs = t["df"].to_numpy(zero_copy_only=False)

    starts = np.flatnonzero(np.concatenate([[True], ~same_term]))
    df_tot = np.add.reduceat(dfs, starts)
    # disjointness check: within a term, each row's first base must follow
    # the previous row's last block doc_last
    row_last = flat.field("doc_last").to_numpy(zero_copy_only=False)[offs[1:] - 1]
    if np.any(same_term & (first_base[1:] <= row_last[:-1])):
        raise AssertionError("hot-term doc ranges overlap across salted parts")

    blocks_per_term = np.add.reduceat(np.diff(offs), starts)
    new_offsets = np.concatenate([[0], np.cumsum(blocks_per_term)]).astype(np.int32)
    cols = {
        "term": terms.take(pa.array(starts)),
        "df": pa.array(df_tot, pa.int64()),
        "blocks": pa.ListArray.from_arrays(pa.array(new_offsets, pa.int32()), flat),
    }
    if "pos_stream" in t.column_names:
        # parts are already in (term, doc-range) order; their per-part varint
        # streams concatenate to the term's global stream (first values are
        # absolute, so part boundaries need no fix-up)
        ps = t["pos_stream"].combine_chunks()
        seg_offs = pa.array(
            np.concatenate([starts, [t.num_rows]]).astype(np.int32), pa.int32()
        )
        cols["pos_stream"] = pc.binary_join(
            pa.ListArray.from_arrays(seg_offs, ps), pa.scalar(b"", pa.binary())
        )
    path = os.path.join(shards_dir, "shard_hot.parquet")
    write_index_file(pa.table(cols), path)
    return path
