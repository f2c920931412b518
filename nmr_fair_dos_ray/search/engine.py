"""Query serving: index reader + BM25 top-k over block-max-pruned doc windows.

Engine analog of the reference's read path
(reference: src/nmr_FAIR_DOs/connectors/elasticsearch.py:234-313
``searchForPID``: `multi_match best_fields` top-1 + exact-equality
verification). Generalized to top-k; the exact-equality check becomes exact
field terms (``repo:<v>``, ``path:<v>``, …) whose postings intersect the
candidate set — a cheap conjunctive filter served from the same index.

Serving model (SURVEY.md §2.5 "index-shard actors"): ``QueryScorer`` is a
callable class for ``ds.map_batches(QueryScorer, concurrency=N)`` — the index
(shard parquet read with ``memory_map=True``) and doclen arrays load once per
actor in ``__init__``; each batch of queries scores against actor-local
state. Interactive serving across many actors is the doc-partitioned pool
in ``search/distributed.py``; every surface routes a query mode through the
one dispatch :func:`run_query`.

The reader keeps the index Arrow/numpy-resident: term lookup is a binary
search over the sorted permutation; block metadata (doc_base/doc_last/block
max) are flat numpy arrays with per-term offsets; compressed posting bytes
stay in the Arrow buffers read (memory-mapped) from the shard files. One
routine decodes them (:func:`decode_block_spans`): any set of block spans,
gathered into one gap stream and one tf stream, one varint pass each. Block-max bounds and the per-term idf are derived at load
(``IndexReader.build_state``), so they are valid for whatever stats the
manifest holds.

Multi-term queries score through one batched path: term expansions
(prefix, regex/wildcard, fuzzy) come back as term-id arrays in term order,
``IndexReader.postings_many`` decodes all of their postings at once, and
``Searcher._score_map`` scores them in one ``bm25_term_scores`` call and
sums per doc with one ``np.bincount`` — the cost of a bm25 query with as
many postings, not a fixed cost per expanded term. ``Searcher._taat`` is the
one ranked-disjunction scorer: a query of at most ``LRU_TERMS`` terms
holding more than :data:`WINDOW_POSTINGS` live postings is scored in equal
doc-id windows, visited in descending block-max bound, and the windows
whose bound falls below the k-th best score so far are skipped unscored.

Positional queries (phrase, near and the query string's quoted atoms) have
one match routine, ``Searcher._near_match``: an exact phrase is ordered
proximity at slop 0. Its one operand is each term's cached global
``doc * POS_KEY_STRIDE + pos`` keys (the reader's one positional cache),
cut to the candidate docs when those are selective, and its one kernel is
:func:`match_keys`, which holds the one ordered chain and the one unordered
window. :func:`near_intersect` over rank keys serves only terms whose keys
are missing or overflow the stride.

Determinism: scores are float64; per-doc accumulation order is the
lexicographic order of the unique query terms whatever the window count, so
the engine and the pure-Python oracle produce bit-identical scores
(SURVEY.md §7.3 item 1). Tie-break: (score desc, doc_id asc).
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from nmr_fair_dos_ray.codec import BLOCK_TYPE, varint_decode
from nmr_fair_dos_ray.search.bm25 import bm25_idf, bm25_term_scores
from nmr_fair_dos_ray.tokenizer import Tokenizer

_MISS = object()  # sentinel distinguishing "not cached" from "cached None"


class _LRU:
    """Least-recently-used map bounded by ``budget``: an entry count, or a
    byte count when ``size`` (value -> bytes) is given. ``get`` refreshes
    recency; ``put`` evicts the oldest entries until the new one fits and
    skips a value larger than the whole budget. ``None`` is a valid value
    (``get(key, _MISS)`` tells it from a miss); ``in`` does not refresh."""

    def __init__(self, budget: int, size=None):
        self.budget = budget
        self._size = size or (lambda v: 1)
        self._d: OrderedDict = OrderedDict()
        self.used = 0

    def __contains__(self, key) -> bool:
        return key in self._d

    def __len__(self) -> int:
        return len(self._d)

    def get(self, key, default=None):
        v = self._d.get(key, _MISS)
        if v is _MISS:
            return default
        self._d.move_to_end(key)
        return v

    def put(self, key, value) -> None:
        n = self._size(value)
        if n > self.budget:
            return
        if key in self._d:
            self.used -= self._size(self._d.pop(key))
        while self._d and self.used + n > self.budget:
            self.used -= self._size(self._d.popitem(last=False)[1])
        self._d[key] = value
        self.used += n


class _TermsView:
    """Dict-like lazy view over the reader's term table (compat surface:
    ``term in r.terms``, ``set(r.terms)``, ``r.terms[t]["df"/"blocks"]``)."""

    def __init__(self, reader: "IndexReader"):
        self._r = reader

    def __contains__(self, term: str) -> bool:
        return self._r._lookup(term) is not None

    def __iter__(self):
        return iter(self._r._terms_arr.to_pylist())

    def __len__(self) -> int:
        return len(self._r._terms_arr)

    def get(self, term: str, default=None):
        return self[term] if term in self else default

    def __getitem__(self, term: str) -> dict:
        r = self._r
        tid = r._lookup(term)
        if tid is None:
            raise KeyError(term)
        j0, j1 = int(r._boff[tid]), int(r._boff[tid + 1])
        blocks = [
            {
                "doc_base": int(r._b_base[j]),
                "doc_last": int(r._b_last[j]),
                "n": int(r._b_n[j]),
                "max_score": float(r._b_max[j]),
                "max_tf_norm": float(r._b_maxtf[j]),
                "docs": r._b_docs[j].as_py(),
                "tfs": r._b_tfs[j].as_py(),
            }
            for j in range(j0, j1)
        ]
        return {"df": int(r._df[tid]), "blocks": blocks}

    def items(self):
        for term in self:
            yield term, self[term]


#: the shard-file columns a reader reads (``pos_stream`` only in indexes
#: built with positions); files of older builds also carry ``term_hash``,
#: ``cf``, a stored block ``max_score`` and champion lists (``champ_*``),
#: which are ignored
SHARD_COLUMNS = ("term", "df", "blocks", "pos_stream")


def _read_shard(path: str) -> pa.Table:
    """One shard file as the reader sees it: :data:`SHARD_COLUMNS` only,
    blocks as ``codec.BLOCK_TYPE`` (an older build's stored bound dropped)."""
    pf = pq.ParquetFile(path, memory_map=True)
    t = pf.read(columns=[c for c in pf.schema_arrow.names if c in SHARD_COLUMNS])
    i = t.schema.get_field_index("blocks")
    if t.schema.field(i).type != pa.list_(BLOCK_TYPE):
        blocks = t["blocks"].combine_chunks()
        flat = blocks.flatten()
        t = t.set_column(i, "blocks", pa.ListArray.from_arrays(
            blocks.offsets,
            pa.StructArray.from_arrays([flat.field(f.name) for f in BLOCK_TYPE],
                                       fields=list(BLOCK_TYPE)),
        ))
    return t


def _term_idf(df: np.ndarray, n_docs: int) -> np.ndarray:
    """``bm25_idf(df, n_docs)`` per term row — the scalar function, run once
    per distinct df, so every score and bound the reader forms from it is
    bit-equal to the oracle's."""
    u, inv = np.unique(df, return_inverse=True)
    return np.array([bm25_idf(int(d), n_docs) for d in u], np.float64)[inv]


class IndexReader:
    """Loads an index directory built by ``pipelines.index_build``.

    ``IndexReader(index_dir)`` loads locally; ``reader.to_state()`` returns a
    flat dict of Arrow/numpy arrays suitable for ``ray.put`` — actors on the
    same node then reconstruct readers with ``IndexReader.from_state(state)``
    as ZERO-COPY views over the shared object-store copy (one index copy per
    node, regardless of pool size). Term lookup is a binary search over the
    lexicographic permutation — no per-reader Python dict.
    """

    #: byte budget of the positional key cache (per reader). Sized so a
    #: realistic hot phrase vocabulary (~100 hot terms × a few MB of keys
    #: each) stays resident on a serving actor without competing with the
    #: shard slice itself.
    POSITIONS_CACHE_BUDGET = 256 * 1024 * 1024
    #: global composite-key stride for cached phrase keys (doc*K + pos).
    #: Bounds any doc's token-stream positions: 4M positions per doc, and
    #: 10^12 docs × 2^22 still fits int64. Terms whose streams exceed it
    #: fall back to :func:`near_intersect` over rank keys.
    POS_KEY_STRIDE = 1 << 22
    #: largest multi-term request :meth:`postings_many` serves through the
    #: per-term postings LRU (which holds 256 terms)
    LRU_TERMS = 32

    def __init__(
        self,
        index_dir: str | None = None,
        *,
        state: dict | None = None,
        cache_budget_bytes: int | None = None,
    ):
        if cache_budget_bytes is not None:
            # serving deployments with many actors per node bound the
            # per-node aggregate via budget / pool_size
            self.POSITIONS_CACHE_BUDGET = max(0, int(cache_budget_bytes))
        if state is None:
            state = self.build_state(index_dir)
        self._state = state
        self._init_from_state(state)

    @classmethod
    def from_state(
        cls, state: dict, *, cache_budget_bytes: int | None = None
    ) -> "IndexReader":
        return cls(None, state=state, cache_budget_bytes=cache_budget_bytes)

    def to_state(self) -> dict:
        return self._state

    @staticmethod
    def build_state(
        index_dir: str, *, doc_range: tuple[int, int] | None = None,
    ) -> dict:
        """Build the Arrow/numpy state dict for a local reader over every
        shard file of ``index_dir``.

        ``doc_range=(lo, hi)`` builds a DOC-PARTITIONED slice instead (the
        ES/Lucene shard model — all terms, the doc_ids in ``[lo, hi)``):
        per term, only the posting BLOCKS intersecting the range are kept
        (block doc_base/doc_last metadata prunes without decoding), the
        positional stream is byte-trimmed at the kept-block boundary, and
        the doclen table / tombstone segments load statistics-pruned to the
        kept blocks' physical span. Boundary blocks are kept WHOLE (streams
        stay aligned); their out-of-range postings are masked at query time by
        :meth:`deleted_mask` — exactly the tombstone mechanism, so every
        query path inherits the range. The term dictionary and the global
        stats (n_docs, avgdl, df) stay corpus-wide: per-doc scores and
        capped term expansions are bit-equal to the full local reader's."""
        with open(os.path.join(index_dir, "manifest.json")) as f:
            manifest = json.load(f)
        shards_dir = os.path.join(index_dir, "shards")
        tables = []
        if os.path.isdir(shards_dir):
            for p in sorted(os.listdir(shards_dir)):
                if p.endswith(".parquet"):
                    tables.append(_read_shard(os.path.join(shards_dir, p)))
        t = pa.concat_tables(tables).combine_chunks() if tables else None
        st: dict = {"manifest": manifest, "pos_stream": (
            t["pos_stream"].combine_chunks()
            if t is not None and "pos_stream" in t.column_names else None
        )}
        if t is None or t.num_rows == 0:
            st.update(
                terms=pa.array([], pa.string()),
                order=np.empty(0, np.int64),
                df=np.empty(0, np.int64),
                boff=np.zeros(1, np.int64),
                b_base=np.empty(0, np.int64), b_last=np.empty(0, np.int64),
                idf=np.empty(0, np.float64), b_n=np.empty(0, np.int32),
                b_max=np.empty(0, np.float64), b_maxtf=np.empty(0, np.float64),
                b_docs=pa.array([], pa.binary()), b_tfs=pa.array([], pa.binary()),
            )
        else:
            terms = t["term"].combine_chunks()
            blocks = t["blocks"].combine_chunks()
            flat = blocks.flatten()
            df = t["df"].to_numpy(zero_copy_only=False)
            boff = blocks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            b_maxtf = flat.field("max_tf_norm").to_numpy(zero_copy_only=False)
            # df and n_docs are corpus-wide in every doc-range slice, so the
            # pool, QueryScorer and the local Searcher share idf and bounds.
            # A block's bound is bit for bit the product the scorer forms for
            # its best posting (the same idf times its tf-norm), so it holds
            # by construction.
            idf = _term_idf(df, int(manifest["stats"]["n_docs"]))
            st.update(
                terms=terms,
                order=pc.sort_indices(terms).to_numpy(zero_copy_only=False).astype(np.int64),
                df=df,
                idf=idf,
                boff=boff,
                b_base=flat.field("doc_base").to_numpy(zero_copy_only=False),
                b_last=flat.field("doc_last").to_numpy(zero_copy_only=False),
                b_n=flat.field("n").to_numpy(zero_copy_only=False),
                b_max=np.repeat(idf, np.diff(boff)) * b_maxtf,
                b_maxtf=b_maxtf,
                b_docs=flat.field("docs"),
                b_tfs=flat.field("tfs"),
            )
        # tombstones (document deletes, pipelines/lifecycle.py): a sorted
        # doc_id set masked out of every search path. Segmented layout (one
        # immutable file per delete call, doc-id range in the filename) so
        # concurrent deletes never lose updates and range-scoped readers
        # prune segments unopened.
        from nmr_fair_dos_ray.pipelines.lifecycle import read_tombstones

        filters = None
        if doc_range is None:
            arr = read_tombstones(index_dir)
        else:
            st = _slice_state_to_doc_range(st, int(doc_range[0]), int(doc_range[1]))
            plo, phi = st["phys_range"]
            # statistics-pruned reads: only files/row groups whose doc_id
            # range intersects the slice's physical span are opened
            filters = [("doc_id", ">=", int(plo)), ("doc_id", "<=", int(phi))]
            arr = read_tombstones(index_dir, lo=int(plo), hi=int(phi))
        docs = pq.read_table(os.path.join(index_dir, "docs"),
                             columns=["doc_id", "doclen"],
                             memory_map=True, filters=filters)
        ids = docs["doc_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        st["doc_ids_sorted"] = ids[order]
        st["doclens_sorted"] = docs["doclen"].to_numpy(zero_copy_only=False)[order]
        st["tomb"] = arr if arr.size else None
        return st

    def _init_from_state(self, st: dict) -> None:
        self.manifest = st["manifest"]
        cfg = self.manifest["config"]
        self.tokenizer = Tokenizer(cfg["tokenizer_mode"])
        self.k1 = float(cfg["k1"])
        self.b = float(cfg["b"])
        stats = self.manifest["stats"]
        self.n_docs = int(stats["n_docs"])
        self.avgdl = float(stats["avgdl"])
        self._terms_arr = st["terms"]
        self._term_offs, self._term_data = _binary_views(self._terms_arr)
        self._order = st["order"]
        self._df = st["df"]
        self._idf = st["idf"]
        self._boff = st["boff"]
        self._b_base = st["b_base"]
        self._b_last = st["b_last"]
        self._b_n = st["b_n"]
        self._b_max = st["b_max"]
        self._b_maxtf = st["b_maxtf"]
        self._b_docs = st["b_docs"]
        self._b_tfs = st["b_tfs"]
        ps = st.get("pos_stream")
        self._p_offs, self._p_data = _binary_views(ps) if ps is not None else (None, None)
        # raw byte views for vectorized multi-block decode: consecutive
        # blocks' byte streams are contiguous in the (combined) value buffer,
        # so a term's whole posting list decodes in ONE varint pass
        self._blocks = {"n": self._b_n, "doc_base": self._b_base,
                        "doc_last": self._b_last,
                        "docs": _binary_views(self._b_docs),
                        "tfs": _binary_views(self._b_tfs)}
        self._postings_cache = _LRU(256)
        # cached (composite keys doc*POS_KEY_STRIDE + pos, max position) per
        # term, or None — the one positional operand: a warm phrase query is
        # one sorted merge per adjacent term, no per-query decode. BYTE-
        # budgeted (a 40-phrase working set touches ~80 terms, so an
        # entry-count LRU would thrash)
        self._p_keys_cache = _LRU(self.POSITIONS_CACHE_BUDGET,
                                  lambda v: 0 if v is None else v[0].nbytes)
        self._scan_cache = _LRU(64)
        self._is_token: np.ndarray | None = None  # see _token_terms
        self.blocks_decoded = 0  # cumulative; see _decode_blocks
        self.postings_scored = 0  # cumulative; see Searcher._score_map
        self._tid_cache = _LRU(4096)
        self._tomb = st.get("tomb")  # sorted unique np.int64 doc_ids or None
        # doc-partitioned slice bounds [lo, hi): boundary-block postings
        # outside the range are masked by deleted_mask, like tombstones
        self._doc_range = st.get("doc_range")
        # per-max_edits SymSpell deletion index: (sorted variant-hash int64,
        # term id int64) — 16 B/entry, Levenshtein-verified so hash
        # collisions are harmless (see expand_fuzzy)
        self._fuzzy_del: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.terms = _TermsView(self)
        self._doc_ids_sorted = st["doc_ids_sorted"]
        self._doclens_sorted = st["doclens_sorted"]
        n = self._doc_ids_sorted.size
        self._dense_base = int(self._doc_ids_sorted[0]) if n else 0
        # doclen lookup table: direct indexing by (doc_id - base). Exact for a
        # contiguous id range (fresh build: zero-copy view of doclens_sorted);
        # for a GAPPY range (post-compaction: ids 0..N-1 minus ~10% dead) a
        # hole-filled copy is built whenever live ids cover >= 1/4 of the
        # span — measured 1.2x qps vs the per-call searchsorted this replaces
        # (compacted sf-bench index: 52 -> 62 qps). Holes hold doclen 0; both
        # paths assume looked-up ids exist in the index, so holes are only
        # ever touched by tombstoned ids whose scores are masked out anyway.
        self._doclen_lut: np.ndarray | None = None
        if n:
            span = int(self._doc_ids_sorted[-1]) - self._dense_base + 1
            if span == n:
                self._doclen_lut = self._doclens_sorted
            elif n >= span // 4:
                lut = np.zeros(span, self._doclens_sorted.dtype)
                lut[self._doc_ids_sorted - self._dense_base] = self._doclens_sorted
                self._doclen_lut = lut

    def _lookup(self, term: str) -> int | None:
        """term -> row index, by binary search over the sorted permutation."""
        hit = self._tid_cache.get(term, _MISS)
        if hit is not _MISS:
            return hit
        lo, hi = 0, self._order.size
        arr, order = self._terms_arr, self._order
        tid: int | None = None
        while lo < hi:
            mid = (lo + hi) // 2
            v = arr[int(order[mid])].as_py()
            if v < term:
                lo = mid + 1
            elif v > term:
                hi = mid
            else:
                tid = int(order[mid])
                break
        self._tid_cache.put(term, tid)
        return tid

    # ----------------------------------------------------------------- api
    def doclens(self, doc_ids: np.ndarray) -> np.ndarray:
        if self._doclen_lut is not None:
            return self._doclen_lut[doc_ids - self._dense_base]
        pos = np.searchsorted(self._doc_ids_sorted, doc_ids)
        return self._doclens_sorted[pos]

    def _decode_blocks(
        self, j0: np.ndarray, j1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw postings of the block spans ``[j0[i], j1[i])`` through
        :func:`decode_block_spans`, counted in ``blocks_decoded`` (the
        deterministic work counter)."""
        self.blocks_decoded += int((j1 - j0).sum())
        return decode_block_spans(self._blocks, j0, j1)

    def _decode_range(self, j0: int, j1: int) -> tuple[np.ndarray, np.ndarray]:
        """Raw (doc_ids, tfs) of blocks [j0, j1) of ONE term."""
        docs, tfs, _ = self._decode_blocks(np.array([j0]), np.array([j1]))
        return docs, tfs

    def deleted_mask(self, docs: np.ndarray) -> np.ndarray | None:
        """Which of ``docs`` are tombstoned (deleted) OR outside this
        reader's doc-partition range — bool mask, or None when nothing
        masks.

        Delete semantics (Lucene-style, pipelines/lifecycle.py): tombstoned
        docs are excluded from every result set, but global stats (df, n_docs,
        avgdl) stay FROZEN until a rebuild — live docs keep bit-identical
        scores through delete and compaction. A doc-partitioned slice
        (``build_state(doc_range=...)``) masks its boundary blocks'
        out-of-range postings through the SAME seam, so every query path
        that honors deletes honors the range too."""
        if docs.size == 0:
            return None
        t = self._tomb
        hit: np.ndarray | None = None
        if t is not None:
            pos = np.searchsorted(t, docs)
            hit = pos < t.size
            hit[hit] = t[pos[hit]] == docs[hit]
        dr = self._doc_range
        if dr is not None:
            oob = (docs < dr[0]) | (docs >= dr[1])
            hit = oob if hit is None else (hit | oob)
        return hit if hit is not None and hit.any() else None

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Full decoded (doc_ids, tfs) of a term (doc_id-sorted, tombstoned
        docs removed); small LRU keeps the Zipf head decoded across queries
        of a serving actor."""
        hit = self._postings_cache.get(term)
        if hit is not None:
            return hit
        tid = self._lookup(term)
        if tid is None:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        docs, tfs, _ = self._decode_live(np.array([tid]))
        self._postings_cache.put(term, (docs, tfs))
        return docs, tfs

    def postings_many(
        self, tids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Postings of the terms ``tids`` concatenated in the given order,
        tombstoned docs removed -> ``(doc_ids, tfs, counts)`` with
        ``counts[i]`` the postings of ``tids[i]``. The multi-term scorer,
        the match and facet sets and the query-string unions all read
        postings through it.

        Up to :attr:`LRU_TERMS` terms are served through :meth:`postings`,
        so the Zipf head stays decoded across queries; a larger request
        (an expansion) is decoded in one batched pass with no per-term
        Python and bypasses the LRU instead of flushing it."""
        return _concat_postings(*self._postings_parts(tids))

    def _postings_parts(
        self, tids: np.ndarray
    ) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """:meth:`postings_many` before its concatenation: ``(parts,
        counts)``, one ``(doc_ids, tfs)`` part per term served through
        :meth:`postings` (the cached arrays themselves, no copy) or one
        part holding a batched decode, and the postings of each term."""
        tids = np.asarray(tids, np.int64)
        if tids.size > self.LRU_TERMS:
            docs, tfs, counts = self._decode_live(tids)
            return [(docs, tfs)], counts
        parts = [self.postings(t) for t in self.term_text(tids)]
        return parts, np.array([d.size for d, _ in parts], np.int64)

    def _decode_live(
        self, tids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_decode_blocks` of whole terms, tombstoned docs removed."""
        docs, tfs, counts = self._decode_blocks(self._boff[tids],
                                                self._boff[tids + 1])
        dm = self.deleted_mask(docs)
        if dm is not None:
            keep = ~dm
            live = np.concatenate([[0], np.cumsum(keep)])
            ends = np.cumsum(counts)
            counts = live[ends] - live[ends - counts]
            docs, tfs = docs[keep], tfs[keep]
        return docs, tfs, counts

    def postings_union(self, tids: np.ndarray) -> np.ndarray:
        """Sorted live doc_ids holding ANY of the terms ``tids``; empty for
        an empty expansion (as a ``must`` that correctly yields zero
        results: the required atom matched nothing)."""
        docs, _, counts = self.postings_many(tids)
        return docs if counts.size == 1 else _group_docs(docs)[0]

    def term_ids(self, terms: list[str]) -> np.ndarray:
        """Row ids of the index terms among ``terms``, in the given order
        (absent terms dropped)."""
        ids = [tid for t in terms if (tid := self._lookup(t)) is not None]
        return np.array(ids, np.int64)

    def term_text(self, tids: np.ndarray) -> list[str]:
        """The term strings of row ids ``tids`` (sliced from the dictionary's
        UTF-8 buffer: several times cheaper than Arrow ``to_pylist``)."""
        offs, data = self._term_offs, self._term_data
        return [data[offs[i]:offs[i + 1]].tobytes().decode()
                for i in np.asarray(tids).tolist()]

    def sorted_terms(self, tids: np.ndarray) -> np.ndarray:
        """Unique row ids in ascending term order — the scorer's
        accumulation order."""
        u = np.unique(np.asarray(tids, np.int64))
        if u.size < 2:
            return u
        by_term = pc.sort_indices(self._terms_arr.take(pa.array(u)))
        return u[by_term.to_numpy(zero_copy_only=False)]

    def idf(self, term: str) -> float:
        tid = self._lookup(term)
        return float(self._idf[tid]) if tid is not None else 0.0

    @property
    def has_positions(self) -> bool:
        return self._p_offs is not None

    def _token_terms(self) -> np.ndarray:
        """Per term row: not a synthetic exact-field term (``lang:…``)."""
        if self._is_token is None:
            self._is_token = ~pc.match_substring(
                self._terms_arr, ":").to_numpy(zero_copy_only=False)
        return self._is_token

    def _scan_ids(self, scan, pattern: str) -> np.ndarray:
        """Row ids, in ascending term order, of the terms the vectorized
        Arrow predicate ``scan(terms, pattern)`` selects (e.g.
        ``pc.starts_with``) — one scan of the dictionary taken through the
        sorted permutation, memoized per (scan, pattern): the dictionary of
        a reader never changes."""
        key = (scan.__name__, pattern)
        hit = self._scan_cache.get(key)
        if hit is None:
            try:
                mask = scan(self._terms_arr, pattern).to_numpy(zero_copy_only=False)
            except pa.lib.ArrowInvalid as e:
                raise ValueError(f"invalid regex pattern {pattern!r}: {e}") from e
            hit = self._order[mask[self._order]]
            self._scan_cache.put(key, hit)
        return hit

    def terms_with_prefix(self, prefix: str) -> list[str]:
        """All index terms starting with ``prefix`` (e.g. ``"lang:"`` for
        facet-value enumeration), sorted."""
        return self.term_text(self._scan_ids(pc.starts_with, prefix))

    def _top_terms(self, tids: np.ndarray, max_expansions: int | None) -> np.ndarray:
        """ES's ``top_terms_N`` rewrite: keep the ``max_expansions`` terms
        of ``tids`` (term-ordered) with the highest (df desc, term asc),
        still in term order."""
        if max_expansions is not None and tids.size > max_expansions:
            top = np.argsort(-self._df[tids], kind="stable")[:max_expansions]
            tids = tids[np.sort(top)]
        return tids

    def expand_prefix(
        self, prefix: str, max_expansions: int | None = None
    ) -> np.ndarray:
        """Row ids of the index terms starting with ``prefix``, in ascending
        term order, for prefix-query rewrite (the ES ``prefix`` /
        ``match_phrase_prefix`` rewrite step — the reference's ES backend
        answers these from the same term dictionary); :meth:`term_text`
        gives their strings.

        Synthetic exact-field terms (``lang:…``) are excluded unless the
        prefix itself is field-scoped (contains ``:``). With
        ``max_expansions`` the expansion keeps the top terms by (df desc,
        term asc) — ES's ``top_terms_N`` rewrite — still in term order, so
        scoring stays in sorted-unique-term order (bit-equal to an explicit
        multi-term query). Deterministic either way."""
        tids = self._scan_ids(pc.starts_with, prefix)
        if ":" not in prefix:
            tids = tids[self._token_terms()[tids]]
        return self._top_terms(tids, max_expansions)

    def expand_regex(
        self, pattern: str, max_expansions: int | None = None
    ) -> np.ndarray:
        """Row ids (ascending term order) of the index terms whose WHOLE
        text matches ``pattern`` (the ES ``regexp``/``wildcard`` query's
        anchored semantics), for a regex-query rewrite onto the
        scored-disjunction primitives.

        One vectorized ``pc.match_substring_regex`` scan over the Arrow
        term dictionary with an anchored pattern — no per-term Python —
        memoized per pattern like prefix scans.
        Synthetic exact-field terms are excluded; the ``max_expansions``
        cap keeps the top terms by (df desc, term asc), exactly like
        :meth:`expand_prefix`. Invalid patterns raise ``ValueError``."""
        tids = self._scan_ids(pc.match_substring_regex, f"^(?:{pattern})$")
        return self._top_terms(tids[self._token_terms()[tids]], max_expansions)

    def expand_fuzzy(self, term: str, max_edits: int = 1) -> np.ndarray:
        """Row ids (ascending term order) of the index terms within
        Levenshtein distance ``max_edits`` of ``term`` (the ES
        ``fuzziness`` expansion), via a SymSpell-style deletion index: if
        lev(a, b) ≤ e then some ≤e-deletion variant of a equals one of b,
        so candidates = dictionary terms sharing a deletion variant,
        verified with the true (plain, transposition-free) distance — the
        same metric DuckDB's ``levenshtein()`` computes, so the expansion
        is SQL-oracle-checkable.

        The deletion index builds lazily ONCE per reader (i.e. once per
        serving actor — the stateful-stage pattern) over this reader's term
        dictionary, which a doc-range slice keeps whole, so every serving
        actor expands exactly like the local reader. The build is
        vectorized over the whole dictionary (:func:`_deletion_hashes`).

        Memory bound (VERDICT round-4 item 3): variants are stored as two
        sorted numpy arrays (variant hash int64, term id int64 — 16 B per
        entry, each term's distinct variants once) instead of a Python
        dict of strings. Hash collisions can only ADD candidates, and every
        candidate is verified with the true Levenshtein distance, so
        expansions are exact."""
        if max_edits not in (1, 2):
            raise ValueError("max_edits must be 1 or 2")
        idx = self._fuzzy_del.get(max_edits)
        if idx is None:
            ids = np.flatnonzero(self._token_terms())
            hs, ts = [], []
            # chunks of terms bound the build's transient arrays
            for c in np.array_split(ids, max(1, -(-ids.size // 1024))):
                h, owner = _deletion_hashes(self._terms_arr.take(pa.array(c)), max_edits)
                hs.append(h)
                ts.append(c[owner])
            h = np.concatenate(hs)
            o = np.argsort(h)
            idx = (h[o], np.concatenate(ts)[o])
            self._fuzzy_del[max_edits] = idx
        q = term.lower()
        h_idx, t_idx = idx
        qh = np.array(sorted({_variant_hash(v) for v in _deletion_variants(q, max_edits)}),
                      np.int64)
        cand = np.unique(t_idx[_gather_ranges(
            np.searchsorted(h_idx, qh, side="left"),
            np.searchsorted(h_idx, qh, side="right"))])
        hits = sorted((t, tid) for tid, t in zip(cand.tolist(), self.term_text(cand))
                      if _levenshtein_leq(q, t, max_edits))
        return np.array([tid for _, tid in hits], np.int64)

    def positions(
        self, term: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Decoded positional postings of ``term``:
        ``(doc_ids, list_offsets, positions_flat)`` where doc ``doc_ids[i]``'s
        positions are ``positions_flat[list_offsets[i]:list_offsets[i+1]]``
        (ascending, 0-based in the doc's token stream), tombstoned docs
        masked. A plain decode, not cached: the positional match reads the
        cached keys of :meth:`position_keys_with_max`, built from this.

        Returns ``None`` when the index stores no positions, the term is
        absent, or the term is a synthetic exact-field term (those live
        outside the token stream and store an empty stream).
        """
        if self._p_offs is None:
            return None
        tid = self._lookup(term)
        if tid is None:
            return None
        # RAW decode (tombstones NOT applied): the positional stream's value
        # counts follow the stored tfs, so offset arithmetic must run over
        # the physical postings; deleted docs are masked from the triple last
        docs, tfs = self._decode_range(int(self._boff[tid]), int(self._boff[tid + 1]))
        lo, hi = int(self._p_offs[tid]), int(self._p_offs[tid + 1])
        if hi == lo:
            if docs.size:
                return None  # field term: postings but no stream
            return docs, np.zeros(1, np.int64), np.empty(0, np.int64)
        pos = decode_positions(self._p_data[lo:hi], tfs)
        offsets = np.concatenate([[0], np.cumsum(tfs)])
        dm = self.deleted_mask(docs)
        if dm is not None:
            keep = ~dm
            pos = pos[np.repeat(keep, tfs)]
            docs, tfs = docs[keep], tfs[keep]
            offsets = np.concatenate([[0], np.cumsum(tfs)])
        return docs, offsets, pos

    def position_keys_with_max(
        self, term: str
    ) -> tuple[np.ndarray, int] | None:
        """Cached ``(keys, maxpos)``: the composite keys ``doc *
        POS_KEY_STRIDE + position`` over the term's FULL (tombstone-masked)
        positional postings — strictly increasing int64, the one operand
        of the positional match (matched docs = ``keys // POS_KEY_STRIDE``;
        a selective match cuts them to its candidate docs) — and the largest
        position in any doc, which guards a slop window against cross-doc
        bleed (windows reach ``key ± (slop + 1)``; safe iff
        ``maxpos + slop + 2 <= POS_KEY_STRIDE``).

        Returns ``None`` when positions are unavailable for the term or a
        doc's positions exceed the stride (pathological token streams fall
        back to :func:`near_intersect` over the decoded triples)."""
        km = self._p_keys_cache.get(term, _MISS)
        if km is not _MISS:
            return km
        p = self.positions(term)
        if p is None:
            km = None
        else:
            docs, offs, flat = p
            maxpos = int(flat.max()) if flat.size else 0
            if maxpos >= self.POS_KEY_STRIDE - 1:
                km = None
            else:
                km = (
                    np.repeat(docs, np.diff(offs)) * self.POS_KEY_STRIDE + flat,
                    maxpos,
                )
        self._p_keys_cache.put(term, km)
        return km


def wildcard_to_regex(pattern: str) -> str:
    """ES ``wildcard`` pattern → anchored-regex body: ``*`` → ``.*``,
    ``?`` → ``.``, every other character escaped literally."""
    import re as _re

    out = []
    for ch in pattern:
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(_re.escape(ch))
    return "".join(out)


def sorted_lookup(a: np.ndarray, sorted_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each element of ``a``: its searchsorted position in sorted-unique
    ``sorted_b`` and whether it is actually present — the shared
    sorted-membership primitive behind intersection and facet counting."""
    idx = np.searchsorted(sorted_b, a)
    ok = idx < sorted_b.size
    ok[ok] = sorted_b[idx[ok]] == a[ok]
    return idx, ok


def sorted_intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two SORTED-UNIQUE int arrays via binary search of the
    smaller in the larger — O(min·log max), no concat-and-sort
    (``np.intersect1d`` re-sorts even with ``assume_unique``, which dominated
    hot-phrase latency)."""
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return a
    _, ok = sorted_lookup(a, b)
    return a[ok]


def intersect_doc_sets(postings: dict[str, np.ndarray]) -> np.ndarray:
    """Rarest-list-first intersection of per-term doc sets — the candidate
    docs of a positional match. Empty result short-circuits."""
    inter: np.ndarray | None = None
    for t in sorted(postings, key=lambda t: postings[t].size):
        inter = postings[t] if inter is None else sorted_intersect(
            inter, postings[t]
        )
        if inter.size == 0:
            return inter
    return inter


def check_k(k: int) -> None:
    """The one guard on a requested result size: a ``k`` that is not an
    integer (``bool`` included; numpy integers pass) or is below 1 is a
    caller error, raised before any work, never a silently short or empty
    page."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")


def check_slop(slop: int) -> None:
    """A negative proximity ``slop`` is a caller error, not an empty
    match set."""
    if slop < 0:
        raise ValueError("slop must be >= 0")


def topk_counts(
    docs: np.ndarray, counts: np.ndarray, k: int
) -> list[tuple[int, int]]:
    """Rank (doc, count) matches by (count desc, doc asc) and return the
    top-k as int tuples — the shared epilogue of the phrase/proximity
    query methods."""
    order = np.lexsort((docs, -counts))[:k]
    return [(int(docs[i]), int(counts[i])) for i in order]


def run_length(sorted_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values, run counts) of an already-sorted array — no
    re-sort (``np.unique`` sorts again); empty in, empty out."""
    first = np.ones(sorted_vals.size, bool)
    first[1:] = sorted_vals[1:] != sorted_vals[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.concatenate([starts, [sorted_vals.size]]))
    return sorted_vals[starts], counts


def keys_in_docs(keys: np.ndarray, docs: np.ndarray, stride: int) -> np.ndarray:
    """The composite keys ``doc * stride + pos`` (sorted) whose doc is in
    sorted ``docs`` — one ``searchsorted`` pair and one gather."""
    return keys[_gather_ranges(np.searchsorted(keys, docs * stride),
                               np.searchsorted(keys, (docs + 1) * stride))]


def match_keys(
    terms: list[str], keys: dict[str, np.ndarray], slop: int, ordered: bool,
) -> np.ndarray:
    """The positional match over per-term composite keys ``doc * K + pos``
    (strictly increasing; ``K > maxpos + slop + 2``, so no window crosses
    into another doc) → the matching keys, one per counted occurrence, in
    ascending order (``// K`` gives the matched docs).

    ``ordered``: the query terms occur IN ORDER with each consecutive gap
    ≤ ``slop + 1`` tokens. A reachable-set chain (the any-choice semantics
    SQL EXISTS joins express — greedy picks are NOT sound, because the gap
    window is bounded on both sides): R_i = positions of term i with some
    R_{i-1} position in ``[p - slop - 1, p - 1]``; counts distinct chain
    END positions. At ``slop=0`` (the exact phrase) the window is one key,
    so a step is one sorted merge of ``R + 1`` with the term's keys.

    Unordered (the analog of Lucene's sloppy-phrase order tolerance): the
    anchor is the LAST distinct query term; an anchor position ``p``
    matches when EVERY other distinct term occurs within
    ``[p - slop - 1, p + slop + 1]``; counts distinct anchor positions.
    For two terms this is exactly the both-order EXISTS join
    ``abs(pa - pb) <= slop + 1``. Duplicate query terms collapse (a
    documented simplification vs Lucene's per-occurrence edit-distance
    slop); distinct terms never share a position, so the window needs no
    self-exclusion."""
    if ordered:
        reach = keys[terms[0]]
        for t in terms[1:]:
            kt = keys[t]
            if slop == 0:
                reach = sorted_intersect(reach + 1, kt)
            else:  # strict upper edge: a predecessor lies before p
                reach = kt[np.searchsorted(reach, kt)
                           > np.searchsorted(reach, kt - (slop + 1))]
            if reach.size == 0:
                break
        return reach
    uniq = list(dict.fromkeys(terms))
    anchor = keys[uniq[-1]]
    hit = np.ones(anchor.size, bool)
    for t in uniq[:-1]:
        kt = keys[t]
        hit &= (np.searchsorted(kt, anchor + (slop + 2))
                > np.searchsorted(kt, anchor - (slop + 1)))
    return anchor[hit]


def near_intersect(
    terms: list[str],
    plists: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
    slop: int,
    ordered: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Proximity matching (:func:`match_keys` semantics; ``slop=0`` ordered
    is the exact phrase) over decoded positional postings ``plists``
    (``term -> (doc_ids, list_offsets, positions_flat)``, as
    :meth:`IndexReader.positions` returns) → ``(sorted doc_ids, counts)``.

    Keys are RANK-space, ``rank * K + pos`` over the candidate
    intersection, so doc ids (up to 10^12) never enter the key arithmetic
    whatever the positions — the fallback for terms whose positions
    overflow ``IndexReader.POS_KEY_STRIDE``."""
    uniq = list(dict.fromkeys(terms))
    inter = intersect_doc_sets({t: plists[t][0] for t in uniq})
    K = slop + 3 + max(
        int(plists[t][2].max()) if plists[t][2].size else 0 for t in uniq
    )
    ranks = np.arange(inter.size, dtype=np.int64)
    keys = {}
    for t in uniq:
        docs, offs, flat = plists[t]
        idx = np.searchsorted(docs, inter)
        lo, hi = offs[idx], offs[idx + 1]
        keys[t] = np.repeat(ranks, hi - lo) * K + flat[_gather_ranges(lo, hi)]
    ranks_m, counts = run_length(match_keys(terms, keys, slop, ordered) // K)
    return inter[ranks_m], counts


def parse_query_string(query: str) -> list[tuple[str, str, str]]:
    """Tokenize the query-string grammar → ``[(sign, kind, body)]`` where
    sign ∈ {'', '+', '-'} and kind ∈ {'phrase', 'field', 'fuzzy', 'prefix',
    'terms'} (fuzzy body is ``text\\x00edits``; a sloppy phrase
    ``"a b"~N`` encodes as ``text\\x00N`` — consumers ``partition('\\x00')``
    either way)."""
    import re

    from nmr_fair_dos_ray.tokenizer import EXACT_FIELD_PREFIXES

    out: list[tuple[str, str, str]] = []
    for sign, body in re.findall(r'([+-]?)("[^"]*"(?:~\d+)?|\S+)', query):
        if body.startswith('"'):
            m = re.fullmatch(r'"([^"]*)"(?:~(\d+))?', body)
            if m is None:  # unterminated quote: treat as a plain phrase
                out.append((sign, "phrase", body.strip('"')))
                continue
            slop = m.group(2)
            out.append((sign, "phrase",
                        m.group(1) + (f"\x00{slop}" if slop else "")))
            continue
        if body.startswith(EXACT_FIELD_PREFIXES):
            out.append((sign, "field", body))
            continue
        m = re.fullmatch(r"(.+?)~(\d?)", body)
        if m:
            out.append((sign, "fuzzy", m.group(1) + "\x00" + (m.group(2) or "")))
            continue
        if body.endswith("*") and len(body) > 1:
            out.append((sign, "prefix", body[:-1].lower()))
            continue
        out.append((sign, "terms", body))
    return out


def decode_block_spans(
    blocks: dict, j0: np.ndarray, j1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one posting decoder: blocks ``[j0[i], j1[i])`` for every i of
    the flat block columns ``blocks`` (``n``, ``doc_base``, ``doc_last``
    arrays; ``docs``, ``tfs`` as ``_binary_views`` of the varint bytes),
    raw (tombstones not applied) -> ``(doc_ids, tfs, counts)``: the spans'
    postings concatenated in the given order, ``counts`` the postings of
    each span.

    The gap and tf bytes of every block are gathered into one stream each
    and decoded in one varint pass apiece. A block's first doc is stored as
    ``doc_base``, so its delta is ``doc_base[j]`` minus the last doc of the
    block before it in the gathered order (negative across a span or term
    boundary) and one cumsum yields every doc_id."""
    nblk = j1 - j0
    n_b = int(nblk.sum())
    if n_b == 0:  # e.g. a doc-range slice keeps out-of-range terms blockless
        e = np.empty(0, np.int64)
        return e, e, np.zeros(j0.size, np.int64)
    (d_offs, d_data), (t_offs, t_data) = blocks["docs"], blocks["tfs"]
    if j0.size == 1:
        b0, b1 = int(j0[0]), int(j1[0])
        sel = slice(b0, b1)
        gap_bytes = d_data[d_offs[b0]:d_offs[b1]]
        tf_bytes = t_data[t_offs[b0]:t_offs[b1]]
    else:
        sel = _gather_ranges(j0, j1)
        gap_bytes = d_data[_gather_ranges(d_offs[j0], d_offs[j1])]
        tf_bytes = t_data[_gather_ranges(t_offs[j0], t_offs[j1])]
    ns = blocks["n"][sel].astype(np.int64)
    ends = np.cumsum(ns)
    total = int(ends[-1])
    gaps = varint_decode(gap_bytes, total - n_b).view(np.int64)
    full = np.empty(total, np.int64)
    bases = blocks["doc_base"][sel]
    if n_b == 1:
        full[0] = bases[0]
        full[1:] = gaps
    else:
        firsts = ends - ns
        mask = np.ones(total, bool)
        mask[firsts] = False
        full[mask] = gaps
        full[firsts] = bases
        full[firsts[1:]] -= blocks["doc_last"][sel][:-1]
    docs = np.cumsum(full, out=full)
    tfs = varint_decode(tf_bytes, total).view(np.int64)
    if j0.size == 1:
        return docs, tfs, ends[-1:]
    span_end = np.cumsum(nblk)
    cs = np.concatenate([[0], ends])
    return docs, tfs, cs[span_end] - cs[span_end - nblk]


def decode_positions(data: np.ndarray, tfs: np.ndarray) -> np.ndarray:
    """Absolute positions from a positional stream's varint bytes holding
    ``tfs[i]`` values per posting: each posting's first value is absolute,
    the rest are gaps — one global cumsum + per-posting correction."""
    vals = varint_decode(data.tobytes(), int(tfs.sum())).astype(np.int64)
    starts = np.cumsum(tfs) - tfs
    c = np.cumsum(vals)
    return c - np.repeat(c[starts] - vals[starts], tfs)


def _gather_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The indices ``lo[i] .. hi[i] - 1`` of every range, concatenated."""
    lens = hi - lo
    starts = np.cumsum(lens) - lens
    return np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(lo - starts, lens)


def _concat_postings(
    parts: list[tuple[np.ndarray, np.ndarray]], counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(doc_ids, tfs)`` parts joined in order (a lone part as is), with
    their per-term ``counts``."""
    if len(parts) == 1:
        return parts[0][0], parts[0][1], counts
    if not parts:
        return np.empty(0, np.int64), np.empty(0, np.int64), counts
    return (np.concatenate([d for d, _ in parts]),
            np.concatenate([f for _, f in parts]), counts)


def _top_k(
    docs: np.ndarray, scores: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` best of ``(docs, scores)`` ranked by (score desc, doc_id
    asc)."""
    kk = min(k, docs.size)
    if docs.size > 4 * kk:
        # only docs scoring at least the k-th best can rank (ties kept)
        m = scores >= np.partition(scores, docs.size - kk)[docs.size - kk]
        docs, scores = docs[m], scores[m]
    order = np.lexsort((docs, -scores))[:kk]
    return docs[order], scores[order]


def _group_docs(
    docs: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """(sorted unique doc_ids, per-doc sum of ``weights``). ``np.bincount``
    adds in array order, so postings laid out in sorted-term order sum per
    doc in sorted-term order — bit-equal to one ``acc += scores`` per term.
    A dense doc-id span is counted directly; a sparse one goes through
    ``np.unique``."""
    if docs.size == 0:
        return docs, None if weights is None else np.empty(0, np.float64)
    lo = int(docs.min())
    span = int(docs.max()) - lo + 1
    if span <= 16 * docs.size:
        rel = docs - lo
        present = np.zeros(span, bool)
        present[rel] = True
        hit = np.flatnonzero(present)
        sums = None if weights is None else np.bincount(rel, weights, span)[hit]
        return hit + lo, sums
    uniq, inv = np.unique(docs, return_inverse=True)
    return uniq, None if weights is None else np.bincount(inv, weights, uniq.size)


#: odd 64-bit multiplier of the deletion-variant hash, and its inverse mod
#: 2^64 (removing a character divides the weights before it by P)
_FZ_P = 0x100000001B3
_FZ_Q = pow(_FZ_P, -1, 1 << 64)


def _variant_hash(v: str) -> int:
    """:func:`_deletion_hashes`' hash of one string, as a signed int64 —
    scalar Python for a query term's few variants."""
    h = 0
    for ch in v:
        h = (h * _FZ_P + ord(ch) + 1) & 0xFFFFFFFFFFFFFFFF
    return h - (1 << 64) if h >> 63 else h


def _deletion_variants(term: str, max_edits: int) -> set[str]:
    """The term plus every string reachable by deleting ≤ max_edits chars."""
    out = {term}
    frontier = {term}
    for _ in range(max_edits):
        nxt = set()
        for t in frontier:
            for i in range(len(t)):
                nxt.add(t[:i] + t[i + 1:])
        out |= nxt
        frontier = nxt
    return out


def _deletion_hashes(
    terms: pa.Array, max_edits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Hashes of every string reachable from each of the string array
    ``terms`` by deleting at most ``max_edits`` characters (code points),
    distinct per term -> ``(hashes int64, term index int64)``. Vectorized
    over all terms at once, reading the array's UTF-8 buffer directly.

    The hash of ``s`` (length L) is the polynomial ``sum (s[k] + 1) *
    P^(L-1-k)`` mod 2^64. With ``S[k]`` the weight sum of ``s[k:]``,
    deleting position g gives ``(H - S[g]) * Q + S[g+1]`` (the characters
    before g shift down one power, ``Q = 1/P``), deleting g < h gives
    ``(H - S[g]) * Q^2 + (S[g+1] - S[h]) * Q + S[h+1]``. Equal strings hash
    equal wherever they come from; a collision can only add a candidate,
    which the Levenshtein check then drops."""
    lens = pc.utf8_length(terms).to_numpy(zero_copy_only=False).astype(np.int64)
    offs, data = _binary_views(terms)
    text = data[offs[0]:offs[-1]].tobytes().decode()
    cp = np.frombuffer(text.encode("utf-32-le"), np.uint32).astype(np.uint64)
    owner = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    starts = np.cumsum(lens) - lens
    pos = np.arange(cp.size, dtype=np.int64) - starts[owner]
    rev = lens[owner] - 1 - pos  # characters after this one
    with np.errstate(over="ignore"):
        powers = np.cumprod(np.full(int(lens.max(initial=0)) + 1, _FZ_P, np.uint64))
        powers = np.concatenate([np.ones(1, np.uint64), powers[:-1]])
        w = (cp + np.uint64(1)) * powers[rev]
        c = np.cumsum(w)
        incl = np.concatenate([np.zeros(1, np.uint64), c])
        full = incl[starts + lens] - incl[starts]  # H per term
        suffix = incl[(starts + lens)[owner]] - incl[:-1]  # S[g]
        after = suffix - w  # S[g+1]
        q = np.uint64(_FZ_Q)
        # a run of equal characters deletes to one string: keep its first
        first = (pos == 0) | np.concatenate([[True], cp[1:] != cp[:-1]])
        g = np.flatnonzero(first)
        hs = [full, (full[owner[g]] - suffix[g]) * q + after[g]]
        ts = [np.arange(lens.size, dtype=np.int64), owner[g]]
        if max_edits == 2:
            qq = q * q
            for d in range(1, int(lens.max(initial=0))):
                g = np.flatnonzero(rev >= d)
                h = g + d
                hs.append((full[owner[g]] - suffix[g]) * qq
                          + (after[g] - suffix[h]) * q + after[h])
                ts.append(owner[g])
    hv = np.concatenate(hs).view(np.int64)
    tv = np.concatenate(ts)
    if max_edits == 1:
        return hv, tv
    o = np.lexsort((tv, hv))  # two deletions repeat strings in many ways
    hv, tv = hv[o], tv[o]
    new = np.concatenate([[True], (hv[1:] != hv[:-1]) | (tv[1:] != tv[:-1])])
    return hv[new], tv[new]


def _levenshtein_leq(a: str, b: str, k: int) -> bool:
    """Plain Levenshtein distance ≤ k (banded DP, no transpositions — the
    same metric as DuckDB/Postgres ``levenshtein``, keeping fuzzy expansion
    SQL-oracle-checkable)."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return False
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        lo = max(1, i - k)
        hi = min(lb, i + k)
        if lo > 1:
            cur[lo - 1] = k + 1
        for j in range(lo, hi + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (a[i - 1] != b[j - 1]),
            )
        if hi < lb:
            cur[hi + 1 :] = [k + 1] * (lb - hi)
        prev = cur
        if min(prev[lo - 1 : hi + 1] or [k + 1]) > k:
            return False
    return prev[lb] <= k


def _binary_views(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(value offsets int64, data bytes uint8) views of a BinaryArray."""
    if len(arr) == 0:
        return np.zeros(1, np.int64), np.empty(0, np.uint8)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int32).astype(np.int64)
    offs = offs[arr.offset : arr.offset + len(arr) + 1]
    data = (
        np.frombuffer(bufs[2], dtype=np.uint8)
        if bufs[2] is not None
        else np.empty(0, np.uint8)
    )
    return offs, data


def _slice_state_to_doc_range(st: dict, lo: int, hi: int) -> dict:
    """Slice a full reader state to the doc partition ``[lo, hi)``: keep
    only the posting blocks intersecting the range (whole — boundary bleed
    is masked at query time by ``deleted_mask``) and byte-trim each
    positional stream at its kept-block posting boundary. Every term stays
    in the dictionary (a term with no block in range keeps zero blocks), so
    term expansions — capped ones included — see the same dictionary as a
    full reader. Pure metadata arithmetic plus varint decodes of the
    DROPPED prefix blocks' tf streams (to count positional values); kept
    blocks are never re-encoded, so decode paths, caches and the cursor
    machinery behave exactly as in a full reader. ``df`` stays the stored
    GLOBAL value — scores are bit-equal to the corpus-wide reader's."""
    boff = st["boff"]
    n_terms = boff.size - 1
    out = dict(st)
    out["doc_range"] = (int(lo), int(hi))
    if n_terms == 0:
        out["phys_range"] = (int(lo), max(int(lo), int(hi) - 1))
        return out
    b_base, b_last = st["b_base"], st["b_last"]
    keep = (b_last >= lo) & (b_base < hi)
    counts_old = np.diff(boff)
    seg = np.repeat(np.arange(n_terms, dtype=np.int64), counts_old)
    counts_new = np.zeros(n_terms, np.int64)
    np.add.at(counts_new, seg[keep], 1)
    term_keep = counts_new > 0

    pos = st["pos_stream"]
    new_pos_list = None
    if pos is not None:
        tfs_offs, tfs_data = _binary_views(st["b_tfs"])
        p_offs, p_data = _binary_views(pos)
        b_n = st["b_n"]
        new_pos_list = []
        for i in range(n_terms):
            if not term_keep[i]:
                new_pos_list.append(b"")
                continue
            j0, j1 = int(boff[i]), int(boff[i + 1])
            s0, s1 = int(p_offs[i]), int(p_offs[i + 1])
            seg_bytes = p_data[s0:s1]
            ki = keep[j0:j1]
            if s1 == s0 or ki.all():
                new_pos_list.append(seg_bytes.tobytes())
                continue
            k0 = int(np.argmax(ki))
            k1 = len(ki) - int(np.argmax(ki[::-1]))
            n_pre = int(b_n[j0:j0 + k0].sum())
            n_keep_post = int(b_n[j0 + k0:j0 + k1].sum())
            n_vals_pre = int(varint_decode(
                tfs_data[tfs_offs[j0]:tfs_offs[j0 + k0]].tobytes(), n_pre
            ).sum()) if n_pre else 0
            n_vals_keep = int(varint_decode(
                tfs_data[tfs_offs[j0 + k0]:tfs_offs[j0 + k1]].tobytes(),
                n_keep_post,
            ).sum())
            # value-end skip scan (high bit clear = last byte of a varint)
            ends = np.flatnonzero((seg_bytes & 0x80) == 0)
            b0 = 0 if n_vals_pre == 0 else int(ends[n_vals_pre - 1]) + 1
            b1 = int(ends[n_vals_pre + n_vals_keep - 1]) + 1
            new_pos_list.append(seg_bytes[b0:b1].tobytes())

    keep_pa = pa.array(keep)
    out["boff"] = np.concatenate([[0], np.cumsum(counts_new)]).astype(np.int64)
    for kk in ("b_base", "b_last", "b_n", "b_max", "b_maxtf"):
        out[kk] = st[kk][keep]
    out["b_docs"] = st["b_docs"].filter(keep_pa)
    out["b_tfs"] = st["b_tfs"].filter(keep_pa)
    if new_pos_list is not None:
        out["pos_stream"] = pa.array(new_pos_list, type=pos.type)
    kept_base, kept_last = b_base[keep], b_last[keep]
    phys_lo = int(min(lo, kept_base.min())) if kept_base.size else int(lo)
    phys_hi = (
        int(max(hi - 1, kept_last.max())) if kept_last.size
        else max(int(lo), int(hi) - 1)
    )
    out["phys_range"] = (phys_lo, phys_hi)
    return out


#: live postings per scoring window of :meth:`Searcher._taat`: a query
#: holding more splits its doc-id span into ceil(postings / WINDOW_POSTINGS)
#: equal windows (a wide expansion excepted, see there), which bounds the
#: scorer's transient memory by the window (about 60 B per posting scored at
#: once) and lets block-max bounds skip whole windows. Queries up to this
#: size — every query of the perfbench corpus — are one window, scored
#: exactly as without windows.
WINDOW_POSTINGS = 1 << 15


class Searcher:
    """Top-k BM25 search over an :class:`IndexReader`."""

    def __init__(self, reader: IndexReader):
        self.r = reader

    # ------------------------------------------------------------------ api
    def search(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        """-> [(doc_id, score)] ranked by (score desc, doc_id asc), ≤ k rows.

        ``field:value`` atoms are conjunctive exact filters; remaining terms
        are BM25-ranked by :meth:`_taat`. Exact-only queries return matches
        ordered by doc_id with score 0.0 (the reference's exact-verification
        path, elasticsearch.py:295-306, needs no relevance order).
        """
        return self.search_after(query, k)

    def _exact_candidates(self, exact_terms: list[str]) -> np.ndarray | None:
        """Intersection of exact-field posting lists (None = no filter)."""
        allowed: np.ndarray | None = None
        for t in exact_terms:
            docs, _ = self.r.postings(t)
            allowed = docs if allowed is None else sorted_intersect(allowed, docs)
        return allowed

    # ---------------------------------------------------------- pagination
    def search_after(
        self, query: str, k: int = 10,
        after: tuple[float, int] | None = None,
    ) -> list[tuple[int, float]]:
        """Cursor pagination (the ES ``search_after`` analog): return the
        next ``k`` hits strictly AFTER ``after = (score, doc_id)`` in the
        global (score desc, doc_id asc) order — stateless, so deep pages
        never recompute-and-discard like from/size offset paging, and
        concurrent index appends can't shift earlier pages.

        Scores are deterministic float64 (bit-equal to the SQL oracle), so
        the cursor — the last hit of the previous page — addresses a unique
        position. :meth:`_taat` applies the cursor as a vectorized filter in
        every window; page cost is one scoring pass (same as ES:
        search_after still scores the matches, it only skips the
        discarded-prefix materialization)."""
        check_k(k)
        terms, exact = self.r.tokenizer.tokenize_query(query)
        allowed = self._exact_candidates(exact)
        if not terms:
            if allowed is None:
                return []
            docs = np.sort(allowed)
            if after is not None:
                docs = docs[docs > after[1]]
            return [(int(d), 0.0) for d in docs[:k]]
        return self._taat(self.r.term_ids(terms), k, allowed, after=after)

    # --------------------------------------------------------- query string
    def search_query(
        self, query: str, k: int = 10, max_expansions: int | None = None,
        max_edits: int = 1,
    ) -> list[tuple[int, float]]:
        """Unified query-string search (the ES ``query_string`` analog),
        composed from the engine's primitives. Grammar, per whitespace atom:

        ====================  ================================================
        ``term``              scored (disjunctive BM25, the default OR)
        ``+term``             scored AND required (``bool.must``)
        ``-term``             excluded (``bool.must_not``)
        ``"a b"``             exact phrase required (positional index)
        ``"a b"~N``           sloppy phrase (ordered, gaps ≤ N+1 — the
                              :meth:`search_near` semantics), required
        ``-"a b"``            phrase excluded (also with ``~N``)
        ``field:v``           exact filter; ``-field:v`` excludes
        ``pref*``             prefix expansion, scored; ``+pref*`` also
                              REQUIRES a doc to match some expanded term
                              (the union of the expansion's postings joins
                              ``bool.must``); ``-pref*`` excludes that union
        ``term~`` / ``t~2``   fuzzy expansion (≤1 / ≤2 edits), scored;
                              ``+``/``-`` modifiers as for prefix
        ====================  ================================================

        Scoring: one BM25 sum over the union of scored atoms' analyzed /
        expanded terms, accumulated in sorted term order — bit-equal to
        :meth:`search` over the equivalent expanded query. Constraints only
        shape the candidate set (required/phrase/field intersect, negations
        subtract); constraint-only queries return doc_id-ordered matches
        with score 0.0 (the exact-verification convention)."""
        check_k(k)
        r = self.r
        score_set: set[str] = set()  # analyzed tokens of scored atoms
        expanded: list[np.ndarray] = []  # expansions of scored atoms
        musts: list[np.ndarray] = []
        nots: list[np.ndarray] = []
        exact: list[str] = []
        for neg, kind, body in parse_query_string(query):
            if kind == "phrase":
                text, _, slop_s = body.partition("\x00")
                docs, _ = self._near_match(text, int(slop_s or 0))
                (nots if neg == "-" else musts).append(docs)
                if neg != "-":  # phrase terms also contribute to the score
                    score_set.update(r.tokenizer.tokenize(text))
            elif kind == "field":
                if neg == "-":
                    nots.append(r.postings(body)[0])
                else:
                    exact.append(body)
            elif kind in ("fuzzy", "prefix"):
                if kind == "fuzzy":
                    text, _, edits = body.partition("\x00")
                    e = min(max(int(edits or max_edits), 1), 2)
                    exp = np.concatenate([np.empty(0, np.int64)] + [
                        r.expand_fuzzy(t, e) for t in r.tokenizer.tokenize(text)])
                else:
                    exp = r.expand_prefix(body, max_expansions)
                if neg == "-":
                    # exclude any doc matching ANY expanded term
                    nots.append(r.postings_union(exp))
                else:
                    expanded.append(exp)
                    if neg == "+":  # required: doc must match SOME expansion
                        musts.append(r.postings_union(exp))
            elif neg == "-":
                for t in r.tokenizer.tokenize(body):
                    nots.append(r.postings(t)[0])
            else:
                toks = r.tokenizer.tokenize(body)
                score_set.update(toks)
                if neg == "+":  # required AND scored
                    for t in toks:
                        musts.append(r.postings(t)[0])

        allowed = self._exact_candidates(exact)
        for docs in musts:
            allowed = docs if allowed is None else sorted_intersect(allowed, docs)
            if allowed.size == 0:
                return []
        forbidden = (
            np.unique(np.concatenate(nots)) if nots else None
        )
        if not score_set and not any(e.size for e in expanded):
            if allowed is None:
                return []
            if forbidden is not None and forbidden.size:
                allowed = np.setdiff1d(allowed, forbidden)
            return [(int(d), 0.0) for d in np.sort(allowed)[:k]]
        tids = r.sorted_terms(np.concatenate(
            [r.term_ids(sorted(score_set))] + expanded))
        return self._taat(tids, k, allowed, forbidden)

    # ------------------------------------------------------------- prefix
    def search_prefix(
        self, prefix: str, k: int = 10, max_expansions: int | None = None
    ) -> list[tuple[int, float]]:
        """Prefix-query top-k (ES ``prefix`` with ``rewrite=scoring_boolean``):
        expand ``prefix`` over the term dictionary, score the expanded terms
        as an ordinary disjunction — each with its OWN df/idf, accumulated in
        sorted term order — so results are bit-equal to :meth:`search` over
        a query that spells the expanded terms out. Scale: expansion is one
        memoized vectorized dictionary scan; scoring cost is the expanded
        lists' postings (``max_expansions`` caps it, ES ``top_terms_N``)."""
        check_k(k)
        tids = self.r.expand_prefix(prefix.strip().lower(), max_expansions)
        return self._taat(tids, k, None)

    # -------------------------------------------------------------- regex
    def search_regex(
        self, pattern: str, k: int = 10, max_expansions: int | None = None
    ) -> list[tuple[int, float]]:
        """Regex-query top-k (the ES ``regexp`` query with
        ``rewrite=scoring_boolean``): terms whose whole text matches
        ``pattern`` expand over the dictionary (one vectorized Arrow regex
        scan) and score as an ordinary disjunction in sorted term order —
        bit-equal to :meth:`search` over the expanded terms spelled out,
        and SQL-expressible as ``regexp_matches(term, '^(...)$')`` over
        tokenized docs. ``max_expansions`` caps by (df desc, term asc),
        ES ``top_terms_N``."""
        check_k(k)
        return self._taat(self.r.expand_regex(pattern, max_expansions), k, None)

    def search_wildcard(
        self, pattern: str, k: int = 10, max_expansions: int | None = None
    ) -> list[tuple[int, float]]:
        """Wildcard top-k (the ES ``wildcard`` query): ``*`` matches any
        run, ``?`` any single character, everything else literal — rewritten
        onto :meth:`search_regex` (same anchored-expansion + scored
        disjunction, bit-equal to spelling the matches out)."""
        return self.search_regex(wildcard_to_regex(pattern), k, max_expansions)

    # -------------------------------------------------------------- fuzzy
    def search_fuzzy(
        self, query: str, k: int = 10, max_edits: int = 1
    ) -> list[tuple[int, float]]:
        """Fuzzy top-k (ES ``match`` with ``fuzziness``): each analyzed
        query term expands to every index term within ``max_edits``
        Levenshtein edits (SymSpell deletion-index candidates, verified with
        the true distance), and the UNION of expansions scores as a
        disjunction in sorted term order — bit-equal to spelling the matched
        terms out, and SQL-expressible as ``levenshtein(term, q) <= e``."""
        check_k(k)
        base, exact = self.r.tokenizer.tokenize_query(query)
        allowed = self._exact_candidates(exact)
        expanded = [self.r.expand_fuzzy(t, max_edits) for t in base]
        if not any(e.size for e in expanded):
            if allowed is None:
                return []
            return [(int(d), 0.0) for d in np.sort(allowed)[:k]]
        return self._taat(self.r.sorted_terms(np.concatenate(expanded)), k, allowed)

    # ----------------------------------------------------------- conjunctive
    def search_and(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        """Conjunctive BM25 top-k (the ES ``bool.must`` analog; the reference
        delegates boolean retrieval to Elasticsearch,
        src/nmr_FAIR_DOs/connectors/elasticsearch.py:277-306): only docs
        containing EVERY ranked term (and passing ``field:value`` filters)
        are scored. Scores accumulate in sorted term order, so each returned
        score is bit-equal to :meth:`search`'s score for the same doc.
        """
        check_k(k)
        r = self.r
        terms, exact = r.tokenizer.tokenize_query(query)
        allowed = self._exact_candidates(exact)
        if not terms:
            if allowed is None:
                return []
            return [(int(d), 0.0) for d in np.sort(allowed)[:k]]
        per_term = []
        inter: np.ndarray | None = allowed
        for t in terms:
            docs, tfs = r.postings(t)
            if docs.size == 0:
                return []
            per_term.append((docs, tfs))
            inter = docs if inter is None else sorted_intersect(inter, docs)
            if inter.size == 0:
                return []
        acc = np.zeros(inter.size, np.float64)
        dl = r.doclens(inter)
        for t, (docs, tfs) in zip(terms, per_term):
            sel = tfs[np.searchsorted(docs, inter)]
            acc += bm25_term_scores(sel, dl, r.idf(t), r.k1, r.b, r.avgdl)
        order = np.lexsort((inter, -acc))[: min(k, inter.size)]
        return [(int(inter[i]), float(acc[i])) for i in order]

    # ---------------------------------------------------------------- phrase
    def search_phrase(self, phrase: str, k: int = 10) -> list[tuple[int, int]]:
        """Exact-phrase top-k (the ES ``match_phrase`` analog) over a
        positional index (``IndexConfig.store_positions``). A doc matches
        when the phrase's analyzed terms occupy CONSECUTIVE positions in its
        token stream; ranked by (occurrence count desc, doc_id asc).
        Returns ``[(doc_id, n_occurrences)]``.

        The exact phrase is ordered proximity at ``slop=0``
        (:meth:`_near_match`): work is bounded by the phrase terms' posting
        lists and fully vectorized — one sorted merge per phrase term over
        composite ``doc*K + position`` keys, no per-doc loop. Doc-partitioned
        serving runs the whole match inside each range actor, like ranked
        search.
        """
        check_k(k)
        return topk_counts(*self._near_match(phrase, 0), k)

    # ------------------------------------------------------------ proximity
    def search_near(
        self, phrase: str, k: int = 10, slop: int = 0, ordered: bool = True
    ) -> list[tuple[int, int]]:
        """Proximity top-k (the ES ``match_phrase`` + ``slop`` analog, with
        documented simplified semantics). ``ordered=True`` (default): terms
        must appear IN ORDER with each consecutive gap ≤ ``slop + 1``
        tokens; ``slop=0`` is :meth:`search_phrase`; count = distinct chain
        end positions. ``ordered=False``: Lucene-style order tolerance —
        every other distinct term within ``slop + 1`` tokens of an anchor
        (last-term) occurrence, either side; count = distinct qualifying
        anchor positions (:func:`match_keys`). Both ranked by (count desc,
        doc_id asc) and SQL-expressible as EXISTS-joined position
        inequalities (both-order joins for unordered). A negative ``slop``
        raises ``ValueError``."""
        check_k(k)
        check_slop(slop)
        return topk_counts(*self._near_match(phrase, slop, ordered), k)

    def _near_match(
        self, phrase: str, slop: int, ordered: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """All docs matching ``phrase`` within ``slop`` → (sorted doc_ids,
        counts): the one positional match behind phrase, near and the
        query-string phrase atoms.

        A match contains EVERY term, so the intersection of the terms'
        (masked) posting doc sets, rarest first, bounds the positional work.
        Every layout matches over each term's cached global keys
        (:meth:`IndexReader.position_keys_with_max`) with :func:`match_keys`:
        in full when the candidates are not selective (e.g. a Zipf-head
        bigram) — matching over the FULL lists is identical, since a match
        contains every term — and cut to the candidate docs, one
        ``searchsorted`` pair and one gather per term, when they are. A term
        whose keys are missing or overflow the stride falls back to
        :func:`near_intersect` over the decoded triples."""
        r = self.r
        if not r.has_positions:
            raise ValueError(
                "index was built without store_positions=True; phrase search "
                "needs positional postings"
            )
        empty = (np.empty(0, np.int64), np.empty(0, np.int64))
        terms = r.tokenizer.tokenize(phrase)
        if not terms:
            return empty
        uniq = sorted(set(terms))
        postings = {}
        for t in uniq:
            d = r.postings(t)[0]
            if d.size == 0:
                return empty  # absent term ⇒ no match
            postings[t] = d
        inter = intersect_doc_sets(postings)
        if inter.size == 0:
            return empty
        S = r.POS_KEY_STRIDE
        selective = inter.size * 4 < min(postings[t].size for t in uniq)
        keys = {}
        for t in uniq:
            km = r.position_keys_with_max(t)
            # the window reaches key ± (slop + 1): it must stay in-doc
            if km is None or km[1] + slop + 2 > S:
                break  # stride overflow / field term: decoded triples
            keys[t] = keys_in_docs(km[0], inter, S) if selective else km[0]
        else:
            return run_length(match_keys(terms, keys, slop, ordered) // S)
        plists = {}
        for t in uniq:
            p = r.positions(t)
            if p is None:
                return empty  # field term: postings but no token stream
            plists[t] = p
        return near_intersect(terms, plists, slop, ordered)

    # ---------------------------------------------------------------- facets
    def match_set(self, query: str) -> np.ndarray:
        """Sorted doc_ids MATCHING the analyzed query: union of the ranked
        terms' postings ∩ exact ``field:value`` filters — the candidate set
        behind facet counts and metric aggregations (the ES query context
        without scoring). Empty array when nothing matches."""
        r = self.r
        terms, exact = r.tokenizer.tokenize_query(query)
        allowed = self._exact_candidates(exact)
        matches: np.ndarray | None = None
        if terms:
            matches = r.postings_union(r.term_ids(terms))
            if matches.size == 0:
                return matches
        if allowed is not None:
            matches = allowed if matches is None else sorted_intersect(matches, allowed)
        if matches is None:
            return np.empty(0, np.int64)
        return matches

    def count(self, query: str) -> int:
        """Matching-doc count (the ES ``_count`` API): |match_set| — union
        of ranked-term postings ∩ exact filters, no scoring, no fetch."""
        return int(self.match_set(query).size)

    def facet_counts(self, query: str, facet_field: str) -> list[tuple[str, int]]:
        """Matching-doc counts per value of an exact field (the ES terms-
        aggregation analog; the reference's repository-level rollups run as
        ES aggregations it never reimplements). Match set = union of the
        ranked terms' postings ∩ exact ``field:value`` filters — resolved
        entirely from the index (facet values are the ``field:*`` terms, no
        doc-store scan). Returns ``[(value, n_docs)]`` sorted by value.
        """
        r = self.r
        matches = self.match_set(query)
        if matches.size == 0:
            return []
        prefix = facet_field + ":"
        ftids = r._scan_ids(pc.starts_with, prefix)  # term order = value order
        docs, _, counts = r.postings_many(ftids)
        _, ok = sorted_lookup(docs, matches)
        hits = np.concatenate([[0], np.cumsum(ok)])
        ends = np.cumsum(counts)
        n = hits[ends] - hits[ends - counts]
        nz = np.flatnonzero(n)
        return [(ft[len(prefix):], int(c))
                for ft, c in zip(r.term_text(ftids[nz]), n[nz])]

    # ----------------------------------------------------------------- taat
    def _score_map(
        self, tids: np.ndarray, docs: np.ndarray, tfs: np.ndarray,
        counts: np.ndarray, allowed: np.ndarray | None,
        forbidden: np.ndarray | None = None,
        after: tuple[float, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Term-at-a-time scores WITHOUT the top-k cut: ``(doc_ids,
        scores)`` over every doc of the postings ``docs``/``tfs``, laid out
        in the order of the terms ``tids`` (ascending term order, unique;
        ``counts[i]`` postings of ``tids[i]``), doc_id-sorted. ``allowed`` /
        ``forbidden`` are sorted doc_id sets; ``after`` keeps the docs
        strictly after a ``(score, doc_id)`` cursor. Scores one window of
        :meth:`_taat` and each field of the ``best_fields`` merge (which
        needs the full match map to take the per-doc max); the postings
        scored are counted in ``IndexReader.postings_scored``.

        The per-posting idf repeated from the reader's per-term idf, one
        ``bm25_term_scores`` call and one ordered per-doc sum
        (:func:`_group_docs`) — bit-equal to adding the terms' score
        vectors one after another in sorted term order."""
        r = self.r
        r.postings_scored += docs.size
        if docs.size == 0:
            return docs, np.empty(0, np.float64)
        scores = bm25_term_scores(tfs, r.doclens(docs), np.repeat(r._idf[tids], counts),
                                  r.k1, r.b, r.avgdl)
        uniq, acc = (docs, scores) if tids.size == 1 else _group_docs(docs, scores)
        if allowed is not None:
            keep = sorted_lookup(uniq, allowed)[1]
            uniq, acc = uniq[keep], acc[keep]
        if forbidden is not None and forbidden.size and uniq.size:
            keep = ~sorted_lookup(uniq, forbidden)[1]
            uniq, acc = uniq[keep], acc[keep]
        if after is not None and uniq.size:
            a_s, a_d = float(after[0]), int(after[1])
            # strictly after the cursor in (score desc, doc asc) order
            keep = (acc < a_s) | ((acc == a_s) & (uniq > a_d))
            uniq, acc = uniq[keep], acc[keep]
        return uniq, acc

    def _taat(
        self, tids: np.ndarray, k: int, allowed: np.ndarray | None,
        forbidden: np.ndarray | None = None,
        after: tuple[float, int] | None = None,
    ) -> list[tuple[int, float]]:
        """The one ranked-disjunction scorer: top-k over the terms ``tids``
        (ascending term order, e.g. :meth:`IndexReader.term_ids` of sorted
        terms or an expansion), filtered as in :meth:`_score_map`.

        Up to :data:`WINDOW_POSTINGS` live postings are scored in one
        :meth:`_score_map` pass. More, over at most ``LRU_TERMS`` terms,
        split the postings' doc-id span into ceil(postings /
        WINDOW_POSTINGS) equal windows, each scored the same way, visited
        in descending bound (:meth:`_window_bounds`) and ended at the first
        bound strictly below θ: the k-th best score so far (0.0 until k docs
        are scored). Every doc is scored whole inside its one window, so
        each score is the same term-ordered sum as the oracle's, whatever
        the window count. A wider expansion is one
        pass: its batched decode already holds every posting, and slicing
        every term per window made it slower for no smaller peak.
        """
        r = self.r
        parts, counts = r._postings_parts(tids)
        n_win = 1
        if tids.size <= r.LRU_TERMS:  # one part per term, not a batched decode
            n_win = -(-int(counts.sum()) // WINDOW_POSTINGS)
        if n_win > 1:
            lo = min(int(d[0]) for d, _ in parts if d.size)
            hi = max(int(d[-1]) for d, _ in parts if d.size) + 1
            n_win = min(n_win, hi - lo)
        if n_win <= 1:
            top = _top_k(*self._score_map(tids, *_concat_postings(parts, counts),
                                          allowed, forbidden, after), k)
            return [(int(d), float(sc)) for d, sc in zip(*top)]
        edges = lo + (hi - lo) * np.arange(n_win + 1) // n_win
        cuts = np.array([np.searchsorted(d, edges) for d, _ in parts])
        bounds = self._window_bounds(tids, edges)
        theta = 0.0
        top = (np.empty(0, np.int64), np.empty(0, np.float64))
        for w in np.argsort(-bounds, kind="stable").tolist():
            if bounds[w] < theta:
                break  # this and every later window holds no doc that can rank
            window = [(d[a:b], f[a:b]) for (d, f), a, b
                      in zip(parts, cuts[:, w].tolist(), cuts[:, w + 1].tolist())]
            uniq, acc = self._score_map(
                tids, *_concat_postings(window, cuts[:, w + 1] - cuts[:, w]),
                allowed, forbidden, after)
            top = _top_k(np.concatenate([top[0], uniq]), np.concatenate([top[1], acc]), k)
            if top[0].size == k:
                theta = max(theta, float(top[1][-1]))
        return [(int(d), float(sc)) for d, sc in zip(*top)]

    def _window_bounds(self, tids: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Per doc-id window ``[edges[w], edges[w + 1])``: the sum, in
        ascending term order, of each term's largest block max over its
        blocks meeting the window — metadata only. A block max bounds
        every posting score of its block bit for bit (``idf * max
        tf_norm``, the scorer's own product), and float addition in a fixed
        order is monotone in its addends (missing terms add nothing), so no
        live doc in a window scores above the window's bound."""
        r = self.r
        n_win = edges.size - 1
        j0, j1 = r._boff[tids], r._boff[tids + 1]
        blk = _gather_ranges(j0, j1)
        first = np.clip(np.searchsorted(edges, r._b_base[blk], "right") - 1, 0, n_win - 1)
        last = np.clip(np.searchsorted(edges, r._b_last[blk], "right") - 1, 0, n_win - 1)
        reps = last - first + 1
        rows = np.repeat(np.repeat(np.arange(tids.size), j1 - j0), reps)
        per_term = np.zeros((tids.size, n_win))
        np.maximum.at(per_term, (rows, _gather_ranges(first, last + 1)),
                      np.repeat(r._b_max[blk], reps))
        # a running sum down the rows adds in term order, like the scorer
        return np.add.accumulate(per_term, axis=0, out=per_term)[-1]


def fetch_docs(
    index_dir: str, doc_ids, columns: list[str] | None = None
) -> pa.Table:
    """ES fetch-phase analog (SURVEY J6 search-then-fetch): stored columns
    for specific ``doc_ids`` from the doc store, reading ONLY the files /
    row groups whose parquet doc_id statistics intersect the request —
    build partitions assign contiguous docIDs (prefix-sum), so ranges are
    disjoint and a k-doc fetch touches O(k) row groups, not the corpus.
    Returns a doc_id-sorted table. Tombstoned (deleted) ids never appear —
    the delete set is consulted explicitly (the doc store keeps dead rows
    until compaction), matching the ES GET-after-DELETE 404 semantics."""
    import pyarrow.parquet as pq

    from nmr_fair_dos_ray.pipelines.lifecycle import read_tombstones

    ids = sorted({int(d) for d in doc_ids})
    if ids:
        tomb = read_tombstones(index_dir, lo=ids[0], hi=ids[-1])
        if tomb.size:
            dead = set(tomb.tolist())
            ids = [d for d in ids if d not in dead]
    if not ids:
        # empty result must carry the SAME schema as the non-empty case:
        # derive column types from the doc store's parquet schema (metadata
        # only — no row groups are read)
        import pyarrow.dataset as pads

        store_schema = pads.dataset(
            os.path.join(index_dir, "docs"), format="parquet"
        ).schema
        want = ["doc_id"] + [
            c for c in (columns if columns is not None
                        else [n for n in store_schema.names if n != "doc_id"])
            if c != "doc_id"
        ]
        fields = [
            store_schema.field(c) if store_schema.get_field_index(c) >= 0
            else pa.field(c, pa.string())
            for c in want
        ]
        return pa.schema(fields).empty_table()
    cols = None
    if columns is not None:
        cols = ["doc_id"] + [c for c in columns if c != "doc_id"]
    t = pq.read_table(
        os.path.join(index_dir, "docs"), columns=cols,
        filters=[("doc_id", "in", ids)],
    )
    return t.sort_by("doc_id")


def best_fields_search(
    searchers: list["Searcher"], query: str, k: int = 10,
    tie_breaker: float = 0.0,
) -> list[tuple[int, float]]:
    """True multi-field ``best_fields`` scoring (the ES ``multi_match
    type=best_fields`` / ``dis_max`` analog — the reference scores
    max-over-fields across ``[digitalObjectLocation, pid]``,
    /root/reference/src/nmr_FAIR_DOs/connectors/elasticsearch.py:250-262).

    Each field is its own index (its own postings, df/idf AND length norms
    — the Lucene per-field model: a short ``title`` field is not penalized
    by the body's avgdl), queried by one :class:`Searcher` per field over
    the SAME doc_id space. Per doc::

        score = max_f s_f  +  tie_breaker * (sum_f s_f - max_f s_f)

    with ``tie_breaker=0.0`` (the best_fields default) this is a pure
    dis-max — deterministic float64 max of per-field TAAT scores, so the
    result is SQL-oracle-checkable (GREATEST over per-field BM25 CTEs).
    Ranked by (score desc, doc_id asc).

    Scale: cost is one TAAT accumulation per field over that field's
    postings — fields are typically short (title, location, pid), so the
    extra fields add little; the merge is one union + max over match maps.
    """
    check_k(k)
    maps = []
    for s in searchers:
        terms, exact = s.r.tokenizer.tokenize_query(query)
        allowed = s._exact_candidates(exact)
        if not terms:
            continue
        tids = s.r.term_ids(terms)
        uniq, acc = s._score_map(tids, *s.r.postings_many(tids), allowed)
        if uniq.size:
            maps.append((uniq, acc))
    if not maps:
        return []
    all_docs = np.unique(np.concatenate([u for u, _ in maps]))
    best = np.zeros(all_docs.size, np.float64)
    total = np.zeros(all_docs.size, np.float64)
    for uniq, acc in maps:
        v = np.zeros(all_docs.size, np.float64)
        v[np.searchsorted(all_docs, uniq)] = acc
        np.maximum(best, v, out=best)
        total += v
    score = best if tie_breaker == 0.0 else best + tie_breaker * (total - best)
    order = np.lexsort((all_docs, -score))[: min(k, all_docs.size)]
    return [(int(all_docs[i]), float(score[i])) for i in order]


#: ranked query mode -> the :class:`Searcher` method that serves it
RANKED_MODES = {
    "bm25": "search", "after": "search_after", "and": "search_and",
    "phrase": "search_phrase", "near": "search_near",
    "prefix": "search_prefix", "regex": "search_regex",
    "wildcard": "search_wildcard", "fuzzy": "search_fuzzy",
    "query": "search_query",
}


def run_query(searchers: list["Searcher"], mode: str, query: str,
              k: int = 10, **params):
    """The one query-mode dispatch behind the CLI, :class:`QueryScorer` and
    the serving pool. ``searchers[0]`` serves every mode; ``best_fields``
    dis-maxes over all of them (one per field index). ``params`` pass
    through unchanged to the :class:`Searcher` method (``max_expansions``,
    ``max_edits``, ``slop``/``ordered``, ``after``,
    ``tie_breaker``, ``facet_field``). Ranked modes return ``[(doc_id,
    value)]``; ``count`` an int; ``facet_counts`` ``[(value, n_docs)]``."""
    if mode == "best_fields":
        return best_fields_search(searchers, query, k=k, **params)
    if mode == "count":
        return searchers[0].count(query)
    if mode == "facet_counts":
        return searchers[0].facet_counts(query, **params)
    if mode not in RANKED_MODES:
        raise ValueError(f"unknown query mode {mode!r}")
    return getattr(searchers[0], RANKED_MODES[mode])(query, k=k, **params)


class QueryScorer:
    """Actor-pool stage: batch of queries → top-k rows.

    ``queries_ds.map_batches(QueryScorer, fn_constructor_kwargs={"index_dir": ...},
    concurrency=N, batch_format="pyarrow")`` — index loads once per actor.
    Pass ``index_ref=ray.put(IndexReader(d).to_state())`` instead of
    ``index_dir`` to share ONE object-store copy of the index across every
    actor on a node (zero-copy views; the scale path for serving pools).
    Output schema: (query_id int64, rank int32, doc_id int64, score float64).
    """

    def __init__(self, index_dir: str | None = None, k: int = 10,
                 index_ref=None, result_cache: int = 0,
                 mode: str = "bm25", slop: int = 0, ordered: bool = True):
        check_slop(slop)
        if index_ref is not None:
            import ray

            reader = IndexReader.from_state(ray.get(index_ref))
        else:
            reader = IndexReader(index_dir)
        self.searcher = Searcher(reader)
        self.k = k
        # every ranked run_query mode is batchable; per-row override via a
        # "mode" column. near uses ``slop`` and ``ordered`` (ordered vs
        # window slop).
        self.mode = mode
        self.params = {"near": {"slop": int(slop), "ordered": bool(ordered)}}
        # optional per-actor query-result LRU (the reference's Elasticsearch
        # enables its request cache by default; this is the engine analog —
        # OFF by default so benchmark headlines stay uncached/comparable)
        self.result_cache = int(result_cache)
        self._results = _LRU(self.result_cache)

    def _run(self, query: str, k: int, mode: str) -> list[tuple[int, float]]:
        if mode in ("count", "facet_counts"):  # no (doc, score) rows
            raise ValueError(f"QueryScorer serves ranked modes, not {mode!r}")
        return run_query([self.searcher], mode, query, k,
                         **self.params.get(mode, {}))

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, docs, scores = [], [], [], []
        ks = batch["k"].to_pylist() if "k" in batch.column_names else [self.k] * batch.num_rows
        modes = (
            batch["mode"].to_pylist() if "mode" in batch.column_names
            else [self.mode] * batch.num_rows
        )
        for qid, query, k, mode in zip(
            batch["query_id"].to_pylist(), batch["query"].to_pylist(), ks, modes
        ):
            kk = self.k if k is None else k
            mode = mode or self.mode
            if self.result_cache:
                key = (query, mode, kk)
                hits = self._results.get(key)
                if hits is None:
                    hits = self._run(query, kk, mode)
                    self._results.put(key, hits)
            else:
                hits = self._run(query, kk, mode)
            for rank, (doc, score) in enumerate(hits, 1):
                qids.append(qid); ranks.append(rank); docs.append(doc); scores.append(score)
        return pa.table(
            {
                "query_id": pa.array(qids, pa.int64()),
                "rank": pa.array(ranks, pa.int32()),
                "doc_id": pa.array(docs, pa.int64()),
                "score": pa.array(scores, pa.float64()),
            }
        )
