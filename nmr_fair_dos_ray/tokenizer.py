"""Code-aware tokenizer (the analyzer both the index build and queries share).

The reference delegates analysis to Elasticsearch's default analyzer
(reference: src/nmr_FAIR_DOs/connectors/elasticsearch.py:169-173 — index
created with no mapping, ES dynamic defaults). This engine defines its own
analyzer, per BASELINE.json ``north_star``: lowercase, split on
non-alphanumerics, camelCase/snake_case identifier splitting, path
segmentation, plus exact field terms (``repo:``/``path:``/``lang:``) that
reproduce the reference's exact-equality check on pid/digitalObjectLocation
(reference: src/nmr_FAIR_DOs/connectors/elasticsearch.py:295-306).

Two modes:

- ``"code"`` (default): raw tokens are ``[A-Za-z0-9_]+`` runs. Each raw token
  emits its lowercase form (compound, underscores preserved) and, when
  identifier splitting changes anything, its camelCase/snake_case/digit-boundary
  parts as additional terms. Non-ASCII characters act as separators.
- ``"simple"``: lowercase, split on ``[^a-z0-9]+`` — deliberately chosen to be
  reproducible in ANSI SQL (DuckDB ``string_split_regex``) so the driver's
  oracle can verify df / BM25 pipelines value-for-value.

Both a per-row reference implementation (:meth:`Tokenizer.tokenize`, used by
the conformance oracle) and a batch implementation
(:meth:`Tokenizer.batch_token_ids`, used in ``map_batches`` hot paths) are
provided; tests assert they yield the same (row, term, position) streams.

The batch code mode scans the column's UTF-8 bytes once through a 256-entry
class table — separator, lower, upper, digit, underscore. Every byte ≥ 0x80
is a separator: ``[A-Za-z0-9_]+`` on ``str`` matches ASCII only, and every
byte of a multi-byte UTF-8 character is ≥ 0x80. Raw tokens are runs of
non-separator bytes cut at row starts; they are dictionary-encoded, and only
the DISTINCT raw tokens are split into identifier parts (code term streams
are heavily skewed: a 2 MB file of 432k tokens holds ~150 distinct ones).

The split applies the four ``_BOUNDARY_RULES`` as local predicates on the
byte classes of (prev, cur, next), a cut sitting before ``cur``:

1. prev ∈ {lower, digit} and cur = upper;
2. prev = upper, cur = upper and next = lower (the last upper of a run of
   two or more that a lowercase letter follows);
3. prev is a letter and cur is a digit;
4. prev is a digit and cur is a letter.

The per-row reference applies the rules one after another as
non-overlapping global replaces. That equals the union of the predicates:
within one rule two matches cannot overlap (a match consumes ``cur``, and
``cur``'s class can never serve as the next match's ``prev`` — rule 2's
match ends on the lowercase letter, which starts no upper run), and the
spaces an earlier rule inserts never sit where a later rule's predicate
needs adjacency (rule 1 cuts only before the FIRST upper of a run; a
rule-1 cut between digit and upper already is rule 4's cut). Underscores
separate parts; a token emits no parts when its only part equals the
compound, that is, when it has one part and no underscore.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Camel/digit boundary rules of the per-row reference, applied SEQUENTIALLY
# (non-overlapping global replace). The batch path evaluates the same cuts as
# byte-class predicates (module docstring).
_BOUNDARY_RULES: list[tuple[str, str]] = [
    (r"([a-z0-9])([A-Z])", r"\1 \2"),      # fooBar      -> foo Bar
    (r"([A-Z]+)([A-Z][a-z])", r"\1 \2"),   # HTMLParser  -> HTML Parser
    (r"([A-Za-z])([0-9])", r"\1 \2"),      # utf8        -> utf 8
    (r"([0-9])([A-Za-z])", r"\1 \2"),      # 8bit        -> 8 bit
]
_RAW_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")
_SIMPLE_SPLIT_RE = re.compile(r"[^a-z0-9]+")
_BOUNDARY_RES = [(re.compile(p), r) for p, r in _BOUNDARY_RULES]

#: SQL fragment equivalent to simple-mode tokenization of a text column —
#: used by oracle_sql() entries. Produces one row per token when unnested.
SIMPLE_MODE_SQL_SPLIT = (
    "list_filter(string_split_regex(lower({col}), '[^a-z0-9]+'), x -> x <> '')"
)

EXACT_FIELD_PREFIXES = ("repo:", "path:", "lang:", "source:")

# byte classes of the batch code-mode scanner (module docstring)
_SEP, _LOWER, _UPPER, _DIGIT, _UNDER = 0, 1, 2, 3, 4
_BYTE_CLASS = np.zeros(256, np.uint8)
_BYTE_CLASS[ord("a"):ord("z") + 1] = _LOWER
_BYTE_CLASS[ord("A"):ord("Z") + 1] = _UPPER
_BYTE_CLASS[ord("0"):ord("9") + 1] = _DIGIT
_BYTE_CLASS[ord("_")] = _UNDER
_LOWER_BYTE = np.arange(256, dtype=np.uint8)
_LOWER_BYTE[ord("A"):ord("Z") + 1] += 32


def _split_identifier(token: str) -> list[str]:
    """camelCase/snake_case/digit-boundary parts of one raw token, lowercased."""
    s = token
    for rx, rep in _BOUNDARY_RES:
        s = rx.sub(rep, s)
    s = s.replace("_", " ")
    return s.lower().split()


def _flat_bytes(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(bytes, offsets) of a null-free string/binary array, without copying:
    ``offsets`` has ``len(arr) + 1`` int64 entries rebased to 0 (a sliced
    array shares its parent's buffers)."""
    bufs = arr.buffers()
    large = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
    o = arr.offset
    offs = np.frombuffer(bufs[1], np.int64 if large else np.int32)[o: o + len(arr) + 1]
    offs = offs.astype(np.int64)
    if bufs[2] is None or offs[-1] == offs[0]:
        return np.empty(0, np.uint8), offs - offs[0]
    data = np.frombuffer(bufs[2], np.uint8)[offs[0]: offs[-1]]
    return data, offs - offs[0]


def _str_from_bytes(data: np.ndarray, lens: np.ndarray) -> pa.Array:
    """String array of ``len(lens)`` values slicing ASCII ``data``
    consecutively."""
    offs = np.zeros(lens.size + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    typ, odt = (pa.string(), np.int32) if offs[-1] < 2**31 else (pa.large_string(), np.int64)
    return pa.Array.from_buffers(
        typ, lens.size,
        [None, pa.py_buffer(offs.astype(odt)), pa.py_buffer(np.ascontiguousarray(data))],
    )


def _excl_cumsum(x: np.ndarray) -> np.ndarray:
    out = np.zeros(x.size, np.int64)
    np.cumsum(x[:-1], out=out[1:])
    return out


def _stream_positions(rows: np.ndarray, n: int) -> np.ndarray:
    """0-based index of each occurrence within its row of a row-ordered
    stream."""
    first = _excl_cumsum(np.bincount(rows, minlength=n))
    return np.arange(rows.size, dtype=np.int64) - first[rows]


class Tokenizer:
    """Shared analyzer for documents and queries.

    ``mode`` is ``"code"`` or ``"simple"``; both index build and query paths
    MUST use the same instance/config or scores will not match.
    """

    def __init__(self, mode: str = "code"):
        if mode not in ("code", "simple"):
            raise ValueError(f"unknown tokenizer mode: {mode!r}")
        self.mode = mode

    # ------------------------------------------------------------------ rows
    def tokenize(self, text: str) -> list[str]:
        """Reference (per-row) implementation. Order = occurrence order."""
        if not text:
            return []
        if self.mode == "simple":
            return [t for t in _SIMPLE_SPLIT_RE.split(text.lower()) if t]
        out: list[str] = []
        for raw in _RAW_TOKEN_RE.findall(text):
            compound = raw.lower()
            out.append(compound)
            parts = _split_identifier(raw)
            if parts != [compound]:
                out.extend(parts)
        return out

    def term_counts(self, text: str) -> Counter:
        return Counter(self.tokenize(text))

    def tokenize_query(self, query: str) -> tuple[list[str], list[str]]:
        """-> (ranked_terms, exact_terms).

        ``field:value`` atoms (repo:/path:/lang:/source:) become exact filter
        terms — the engine analog of the reference's exact-equality
        verification on pid / digitalObjectLocation
        (reference: src/nmr_FAIR_DOs/connectors/elasticsearch.py:295-306).
        Everything else is analyzed exactly like document content. Ranked
        terms are deduplicated and sorted so score accumulation order is
        deterministic (SURVEY.md §7.3 item 1).
        """
        exact: list[str] = []
        rest: list[str] = []
        for atom in query.split():
            if atom.startswith(EXACT_FIELD_PREFIXES):
                exact.append(atom)
            else:
                rest.append(atom)
        terms = sorted(set(self.tokenize(" ".join(rest))))
        return terms, exact

    # --------------------------------------------------------------- batches
    def batch_token_ids(
        self, texts: pa.Array | pa.ChunkedArray, with_positions: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, pa.Array]:
        """Tokenize a column into a per-batch term dictionary.

        Returns ``(rows, term_ids, positions, terms)``: one element of
        ``rows`` / ``term_ids`` / ``positions`` per token occurrence, in
        (row, position) order in both modes — exactly the concatenation of
        :meth:`tokenize` over the rows, with ``terms.take(term_ids)`` the
        terms. ``terms`` holds each distinct term once (``pa.string()``);
        ``positions`` is None unless ``with_positions``. Null rows are empty.
        """
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        if not (pa.types.is_string(texts.type) or pa.types.is_large_string(texts.type)):
            texts = texts.cast(pa.string())
        if texts.null_count:
            texts = pc.fill_null(texts, "")
        n = len(texts)
        if n == 0:
            rows, ids, terms = (np.empty(0, np.int64), np.empty(0, np.int32),
                                pa.array([], pa.string()))
        elif self.mode == "simple":
            rows, ids, terms = self._simple_ids(texts, n)
        else:
            rows, ids, terms = self._code_ids(texts)
        pos = _stream_positions(rows, n) if with_positions else None
        if pa.types.is_large_string(terms.type):
            terms = terms.cast(pa.string())
        return rows, ids, pos, terms

    @staticmethod
    def _simple_ids(texts: pa.Array, n: int) -> tuple[np.ndarray, np.ndarray, pa.Array]:
        # Arrow's Unicode lowercase + RE2 split: the same calls the SQL
        # oracle's string_split_regex(lower(...)) makes
        split = pc.split_pattern_regex(pc.utf8_lower(texts), pattern="[^a-z0-9]+")
        flat = pc.list_flatten(split)
        rows = np.repeat(
            np.arange(n, dtype=np.int64),
            pc.list_value_length(split).to_numpy(zero_copy_only=False),
        )
        keep = pc.not_equal(flat, "")
        rows = rows[keep.to_numpy(zero_copy_only=False)]
        enc = pc.dictionary_encode(flat.filter(keep))
        return rows, enc.indices.to_numpy(zero_copy_only=False), enc.dictionary

    @staticmethod
    def _code_ids(texts: pa.Array) -> tuple[np.ndarray, np.ndarray, pa.Array]:
        data, offs = _flat_bytes(texts)
        word = _BYTE_CLASS[data] != _SEP
        # raw tokens: runs of word bytes, cut at row starts
        edge = np.empty(data.size + 1, bool)
        edge[0] = edge[-1] = True
        np.not_equal(word[1:], word[:-1], out=edge[1:-1])
        edge[offs] = True
        starts = np.flatnonzero(edge[:-1] & word)
        ends = np.flatnonzero(edge[1:] & word) + 1
        if not starts.size:
            return np.empty(0, np.int64), np.empty(0, np.int32), pa.array([], pa.string())
        # the row of a token: the LAST row starting at or before it (empty
        # rows share their successor's offset; side="right" skips them)
        tok_row = np.searchsorted(offs, starts, side="right") - 1
        enc = pc.dictionary_encode(_str_from_bytes(data[word], ends - starts))
        occ = enc.indices.to_numpy(zero_copy_only=False)

        # ---- identifier parts of the DISTINCT raw tokens only ----
        dd, doffs = _flat_bytes(enc.dictionary)
        n_raw = doffs.size - 1
        c = _BYTE_CLASS[dd]
        tok_of = np.repeat(np.arange(n_raw), np.diff(doffs))
        prev = np.empty_like(c)
        prev[1:] = c[:-1]
        prev[doffs[:-1]] = _SEP
        nxt = np.empty_like(c)
        nxt[:-1] = c[1:]
        nxt[doffs[1:] - 1] = _SEP
        letter_c = (c == _LOWER) | (c == _UPPER)
        letter_p = (prev == _LOWER) | (prev == _UPPER)
        boundary = (
            (((prev == _LOWER) | (prev == _DIGIT)) & (c == _UPPER))
            | ((prev == _UPPER) & (c == _UPPER) & (nxt == _LOWER))
            | (letter_p & (c == _DIGIT))
            | ((prev == _DIGIT) & letter_c)
        )
        in_part = c != _UNDER
        part_start = in_part & (boundary | (prev == _SEP) | (prev == _UNDER))
        part_id = np.cumsum(part_start) - 1
        part_tok = tok_of[part_start]
        n_parts = np.bincount(part_tok, minlength=n_raw)
        has_under = np.bincount(tok_of[~in_part], minlength=n_raw) > 0
        # a token whose only part equals its compound emits no parts
        k = np.where((n_parts == 1) & ~has_under, 0, n_parts)
        keep_part = k[part_tok] > 0
        part_lens = np.bincount(part_id[in_part], minlength=part_tok.size)[keep_part]
        part_bytes = dd[in_part][keep_part[part_id[in_part]]]

        # ---- one dictionary over compounds and parts ----
        all_terms = pa.concat_arrays([
            _str_from_bytes(_LOWER_BYTE[dd], np.diff(doffs)),
            _str_from_bytes(_LOWER_BYTE[part_bytes], part_lens),
        ])
        tenc = pc.dictionary_encode(all_terms)
        tid = tenc.indices.to_numpy(zero_copy_only=False)
        # each distinct raw token's emission: [compound, part, part, ...]
        width = 1 + k
        seq_off = _excl_cumsum(width)
        seq = np.empty(int(width.sum()), tid.dtype)
        seq[seq_off] = tid[:n_raw]
        kept_tok = part_tok[keep_part]
        rank = np.arange(kept_tok.size) - _excl_cumsum(k)[kept_tok]
        seq[seq_off[kept_tok] + 1 + rank] = tid[n_raw:]

        # ---- expand every occurrence into its emission, in stream order ----
        w_occ = width[occ]
        total = int(w_occ.sum())
        src = (np.arange(total, dtype=np.int64)
               + np.repeat(seq_off[occ] - _excl_cumsum(w_occ), w_occ))
        return np.repeat(tok_row, w_occ), seq[src], tenc.dictionary


def term_hash(terms: pa.Array | pa.ChunkedArray | list[str]) -> np.ndarray:
    """Deterministic 64-bit FNV-1a hash of terms, vectorized over bytes.

    Used as the shuffle key for posting-list construction (SURVEY.md §4.2).
    Python's ``hash`` is salted per process — never use it for shuffling.
    Each distinct term is hashed once: distinct terms are ordered longest
    first, so byte step ``j`` updates the prefix of terms longer than ``j``
    with no mask over every term. Nulls hash as ``""``.
    """
    if isinstance(terms, list):
        terms = pa.array(terms, pa.string())
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    if len(terms) == 0:
        return np.empty(0, np.uint64)
    if terms.null_count:
        terms = pc.fill_null(terms, "")
    enc = pc.dictionary_encode(terms)
    data, offs = _flat_bytes(enc.dictionary)
    lengths = np.diff(offs)
    order = np.argsort(-lengths, kind="stable")
    starts = offs[:-1][order]
    # n_longer[j] = number of distinct terms longer than j (a prefix of order)
    n_longer = lengths.size - np.cumsum(np.bincount(lengths))
    h = np.full(lengths.size, np.uint64(0xCBF29CE484222325))
    prime = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for j in range(int(lengths.max())):
            m = int(n_longer[j])
            h[:m] = (h[:m] ^ data[starts[:m] + j]) * prime
    out = np.empty_like(h)
    out[order] = h
    return out[enc.indices.to_numpy(zero_copy_only=False)]


def term_hash_one(term: str) -> int:
    """Scalar FNV-1a (must match :func:`term_hash`)."""
    h = 0xCBF29CE484222325
    for byte in term.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
