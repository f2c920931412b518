"""Seeded inputs and their expected answers, cached per seed.

The corpus follows the FIXTURES.md §1 make-up (duplicate contents, empty and
whitespace rows, unicode rows, one row of 2 MB or more, hot terms in at least
60 % of rows, single-row rare terms); which rows carry which edge case is fixed
by row number, so the shares are the same for every seed, and the text itself
is drawn from the seed. Query lists follow the FIXTURES.md §2 mix.

Expected answers are computed apart from the engine: BM25 rankings come from
``nmr_fair_dos_ray.oracle.OracleIndex``; phrase, near and count answers from
brute-force scans of ``Tokenizer.tokenize`` streams; prefix, wildcard, regex
and fuzzy expansions from startswith / fnmatch / re / Levenshtein over the
oracle's own term dictionary.

    python3 perfbench/inputs.py --seed 7 [--force]

builds (or, with ``--force``, recomputes) the cache for one seed and prints its
directory. The cache key covers the seed, this file and the sources of
``oracle.py``, ``tokenizer.py`` and ``search/bm25.py``.
"""

from __future__ import annotations

import argparse
import bisect
import fnmatch
import hashlib
import json
import math
import os
import random
import re
import shutil
import sys
from collections import Counter
from statistics import NormalDist

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from nmr_fair_dos_ray import fixtures as fx  # noqa: E402
from nmr_fair_dos_ray.oracle import OracleIndex  # noqa: E402
from nmr_fair_dos_ray.search.bm25 import bm25_idf, bm25_one  # noqa: E402
from nmr_fair_dos_ray.tokenizer import Tokenizer  # noqa: E402

#: corpus size: 10 files of 120 rows; the last file is the 10 % that the
#: ingest cycle appends
N_FILES = 10
ROWS_PER_FILE = 120
N_ROWS = N_FILES * ROWS_PER_FILE
#: the one wide row (FIXTURES.md asks for one file of 2 MB or more)
BIG_ROW = 4 * ROWS_PER_FILE + 17
BIG_BYTES = 2_000_001
BIG_BLOCK_LINES = 40
LAYOUT_SEED = 1729
DELETE_SHARE = 0.10
K = 10
#: per-mode query counts of one search round (the closed loop cycles them);
#: fuzzy takes one misspelling of each vocabulary word longer than 3 letters
ROUND = {
    "bm25": 80, "and": 8, "phrase": 32, "near": 8, "query": 8, "prefix": 8,
    "wildcard": 4, "regex": 4, "count": 8, "facets": 4,
    "best_fields": 8, "fetch": 8,
}
N_INGEST_SAMPLE = 16
N_STREAM = 4000
N_SERVE_ORACLE = 30
N_BATCH = 60

_SOURCES = ("oracle.py", "tokenizer.py", os.path.join("search", "bm25.py"))


def cache_key(seed: int) -> str:
    h = hashlib.sha256(f"seed={seed}".encode())
    with open(os.path.abspath(__file__), "rb") as f:
        h.update(f.read())
    for rel in _SOURCES:
        with open(os.path.join(ROOT, "nmr_fair_dos_ray", rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def cache_dir(work_root: str, seed: int) -> str:
    return os.path.join(work_root, "inputs", f"seed{seed}-{cache_key(seed)}")


# ------------------------------------------------------------------ corpus
def _ident(rng: random.Random) -> str:
    ws = [rng.choice(fx._WORDS) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.5:
        return ws[0] + "".join(w.capitalize() for w in ws[1:])
    return "_".join(ws)


def _code(rng: random.Random, lang: str, n_lines: int) -> str:
    kws = fx.LANG_KEYWORDS[lang]
    lines = []
    for _ in range(n_lines):
        r = rng.random()
        if r < 0.45:
            lines.append(f"{rng.choice(kws)} {_ident(rng)}({_ident(rng)}):")
        elif r < 0.7:
            lines.append(f"    {_ident(rng)} = {_ident(rng)}.{_ident(rng)}")
        elif r < 0.85:
            lines.append("# " + " ".join(rng.choice(fx._WORDS) for _ in range(4)))
        else:
            lines.append(f'    msg = "{_ident(rng)} {rng.randint(0, 999)}"')
    return "\n".join(lines)


def make_rows(seed: int) -> tuple[list[dict], tuple[str, int]]:
    """The corpus rows, and the wide row as (block, repeats)."""
    rng = random.Random(seed)
    # The layout (each row's length and language) is the same for every seed;
    # the seed draws the text. Lengths are the quantiles of one log-normal
    # (median about 1.5 KB) in a fixed shuffled order. Scoring cost depends on
    # where long and short rows sit in doc-id order, so a seeded layout would
    # make the figures differ by seed for no reason a user would see.
    layout = random.Random(LAYOUT_SEED)
    dist = NormalDist(2.9, 0.9)
    n_lines = [min(200, max(2, int(math.exp(dist.inv_cdf((j + 0.5) / N_ROWS)))))
               for j in range(N_ROWS)]
    layout.shuffle(n_lines)
    langs = layout.choices(fx.LANGS, fx.LANG_W, k=N_ROWS)
    rows: list[dict] = []
    for i in range(N_ROWS):
        lang = langs[i]
        segs = [rng.choice(fx._SEG_VOCAB) for _ in range(rng.randint(0, 5))]
        path = "/".join(segs + [f"{_ident(rng).replace('_', '')}{i}.{fx._EXT[lang]}"])
        content = _code(rng, lang, n_lines[i])
        if i % 10 < 7:  # hot terms in at least 60 % of rows, blank rows aside
            content += "\ndef config self return"
        if i % 37 == 3:  # a term that occurs in this row only
            content += f"\nuniqrare{seed}x{i}qz"
        if i % 41 == 7:
            content += "\n# naïve café 测试 données 😀"
        if i == BIG_ROW:  # a fixed-size block, so every seed's wide row is alike
            block = _code(rng, lang, BIG_BLOCK_LINES) + "\ndef config self return\n"
            big = (block, BIG_BYTES // len(block.encode()) + 1)
            content = block * big[1]
        if i % 53 == 5:
            content = ""
        elif i % 53 == 6:
            content = "   \n\t  \n"
        elif i % 29 == 1:  # exact duplicate of the previous row's content
            content, lang = rows[-1]["content"], rows[-1]["lang"]
        rows.append({
            "repo": f"org{i % 7}/repo{i % 23}",
            "path": path,
            "commit": hashlib.sha1(f"{seed}:{i}".encode()).hexdigest(),
            "lang": lang,
            "content": content,
        })
    return rows, big


def write_corpus(rows: list[dict], out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for f in range(N_FILES):
        part = rows[f * ROWS_PER_FILE:(f + 1) * ROWS_PER_FILE]
        p = os.path.join(out_dir, f"part-{f:02d}.parquet")
        pq.write_table(pa.Table.from_pylist(part), p, row_group_size=ROWS_PER_FILE)
        paths.append(p)
    return paths


# ------------------------------------------------------------------ oracle
class _MemoTokenizer(Tokenizer):
    """Same analysis, memoized per text: the wide row and the duplicate rows
    are tokenized once however many oracles see them. The wide row is a block
    ending in a newline, repeated; no token spans a newline, so its tokens are
    the block's tokens, repeated (``selftest.py`` checks this)."""

    def __init__(self, repeated: tuple[str, int]):
        super().__init__("code")
        block, n = repeated
        self._memo: dict[str, list[str]] = {block * n: super().tokenize(block) * n}

    def tokenize(self, text):
        out = self._memo.get(text)
        if out is None:
            out = self._memo[text] = super().tokenize(text)
        return out


def _oracle(tok: Tokenizer) -> OracleIndex:
    o = OracleIndex("code")
    o.tok = tok
    return o


def _add(o: OracleIndex, doc_id: int, row: dict) -> None:
    o.add_document(doc_id, row["content"], token_fields=[row["path"]],
                   exact_fields={c: row[c] for c in ("repo", "path", "lang")})


def rank(o: OracleIndex, terms, k: int, allowed=None, forbidden=()) -> list:
    """BM25 over an explicit term list, accumulated in sorted term order
    (the engine's and the oracle's order); (score desc, doc_id asc)."""
    acc: dict[int, float] = {}
    for t in sorted(set(terms)):
        plist = o.postings.get(t)
        if not plist:
            continue
        idf = bm25_idf(len(plist), o.n_docs)
        for doc, tf in plist:
            acc[doc] = acc.get(doc, 0.0) + bm25_one(
                tf, o.doclen[doc], idf, o.k1, o.b, o.avgdl)
    items = [(d, s) for d, s in acc.items()
             if (allowed is None or d in allowed) and d not in forbidden]
    items.sort(key=lambda x: (-x[1], x[0]))
    return [[d, s] for d, s in items[:k]]


def _docs(o: OracleIndex, term: str) -> set[int]:
    return {d for d, _ in o.postings.get(term, ())}


def _exact(o: OracleIndex, exact: list[str]):
    allowed = None
    for t in exact:
        allowed = _docs(o, t) if allowed is None else allowed & _docs(o, t)
    return allowed


def _lev1(a: str, b: str) -> bool:
    """Plain Levenshtein distance ≤ 1."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    if la > lb:
        a, b = b, a
    i = 0
    while i < len(a) and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def _count_runs(where: dict[str, list[int]], terms: list[str], slop: int) -> int:
    """Ordered proximity over one token stream, given as term -> positions:
    terms in order, each gap at most ``slop + 1``; the count is the number of
    distinct chain end positions (``slop=0`` is the exact phrase count)."""
    reach = where.get(terms[0], [])
    for t in terms[1:]:
        reach = [p for p in where.get(t, ())
                 if (i := bisect.bisect_left(reach, p - slop - 1)) < len(reach) and reach[i] < p]
        if not reach:
            return 0
    return len(reach)


def _positions(stream: list[str]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for p, t in enumerate(stream):
        out.setdefault(t, []).append(p)
    return out


class Answers:
    """The independent computations the engine's outputs are checked against."""

    def __init__(self, rows: list[dict], big: tuple[str, int]):
        self.rows = rows
        self.tok = _MemoTokenizer(big)
        self.full = _oracle(self.tok)
        for i, row in enumerate(rows):
            _add(self.full, i, row)
        self.full.finalize()
        self.streams = [
            (self.tok.tokenize(r["content"]), self.tok.tokenize(r["path"])) for r in rows
        ]
        self.where = [(_positions(c), _positions(p)) for c, p in self.streams]
        self.vocab = sorted(t for t in self.full.postings if ":" not in t)
        self.by_len: dict[int, list[str]] = {}
        for t in self.vocab:
            self.by_len.setdefault(len(t), []).append(t)

    def bm25(self, q: str, k: int, o: OracleIndex | None = None) -> list:
        o = o or self.full
        terms, exact = self.tok.tokenize_query(q)
        allowed = _exact(o, exact)
        if not terms:
            return [[d, 0.0] for d in sorted(allowed or ())[:k]]
        return rank(o, terms, k, allowed)

    def and_(self, q: str, k: int) -> list:
        terms, exact = self.tok.tokenize_query(q)
        allowed = _exact(self.full, exact)
        for t in terms:
            allowed = _docs(self.full, t) if allowed is None else allowed & _docs(self.full, t)
        return rank(self.full, terms, k, allowed or set())

    def near(self, text: str, k: int, slop: int) -> list:
        terms = self.tok.tokenize(text)
        need = set(terms)
        counts = []
        for d, (content, path) in enumerate(self.where):
            if need <= content.keys() or need <= path.keys():
                n = _count_runs(content, terms, slop) + _count_runs(path, terms, slop)
                if n:
                    counts.append((d, n))
        counts.sort(key=lambda x: (-x[1], x[0]))
        return [[d, n] for d, n in counts[:k]]

    def expand(self, kind: str, pattern: str) -> list[str]:
        if kind == "prefix":
            return [t for t in self.vocab if t.startswith(pattern)]
        if kind == "wildcard":
            return [t for t in self.vocab if fnmatch.fnmatchcase(t, pattern)]
        if kind == "regex":
            rx = re.compile(pattern)
            return [t for t in self.vocab if rx.fullmatch(t)]
        out: set[str] = set()
        for q in self.tok.tokenize(pattern):
            out.update(t for n in (len(q) - 1, len(q), len(q) + 1)
                       for t in self.by_len.get(n, ()) if _lev1(q, t))
        return sorted(out)

    def query_string(self, q: str, k: int) -> list:
        """The query-string subset the benchmark sends: plain, ``+`` and
        ``-`` terms, ``field:v`` / ``-field:v`` filters, ``pref*`` and
        ``"a b"`` phrases."""
        o = self.full
        score, musts, nots, exact = set(), [], [], []
        for sign, body in re.findall(r'([+-]?)("[^"]*"|\S+)', q):
            if body.startswith('"'):
                text = body.strip('"')
                docs = {d for d, _ in self.near(text, N_ROWS, 0)}
                (nots if sign == "-" else musts).append(docs)
                if sign != "-":
                    score.update(self.tok.tokenize(text))
            elif ":" in body:
                (nots.append(_docs(o, body)) if sign == "-" else exact.append(body))
            elif body.endswith("*"):
                exp = self.expand("prefix", body[:-1].lower())
                union = set().union(*(_docs(o, t) for t in exp))
                if sign == "-":
                    nots.append(union)
                else:
                    score.update(exp)
                    if sign == "+":
                        musts.append(union)
            else:
                toks = self.tok.tokenize(body)
                if sign == "-":
                    nots.extend(_docs(o, t) for t in toks)
                else:
                    score.update(toks)
                    if sign == "+":
                        musts.extend(_docs(o, t) for t in toks)
        allowed = _exact(o, exact)
        for m in musts:
            allowed = m if allowed is None else allowed & m
        forbidden = set().union(*nots) if nots else set()
        return rank(o, score, k, allowed, forbidden)

    def match_set(self, q: str) -> set[int]:
        terms, exact = self.tok.tokenize_query(q)
        want = set(terms)
        allowed = None
        for t in exact:
            f, v = t.split(":", 1)
            hit = {d for d, r in enumerate(self.rows) if r[f] == v}
            allowed = hit if allowed is None else allowed & hit
        docs = {d for d, (c, p) in enumerate(self.where) if want & c.keys() or want & p.keys()}
        return docs if allowed is None else (docs & allowed if terms else allowed)

    def facets(self, q: str) -> list:
        c = Counter(self.rows[d]["lang"] for d in self.match_set(q))
        return [[v, n] for v, n in sorted(c.items())]

    def best_fields(self, q: str, k: int, path_oracle: OracleIndex) -> list:
        terms, _ = self.tok.tokenize_query(q)
        best: dict[int, float] = {}
        for o in (self.full, path_oracle):
            for d, s in rank(o, terms, N_ROWS):
                best[d] = max(best.get(d, 0.0), s)
        items = sorted(best.items(), key=lambda x: (-x[1], x[0]))
        return [[d, s] for d, s in items[:k]]


# ------------------------------------------------------------------ queries
def bm25_mix(rng: random.Random, rows: list[dict], seed: int, n: int) -> list[list]:
    """FIXTURES.md §2, in exact shares (so every seed has the same mix):
    rare 20 %, hot 10 %, 2–5 word conjunctions 50 %, identifier compounds
    10 %, exact-field lookups 10 %; k is 10, 10, 10, 1, 100 in turn."""
    rare_rows = list(range(3, N_ROWS, 37))
    kinds = [kind for kind, share in (("rare", 2), ("hot", 1), ("conj", 5), ("compound", 1),
                                      ("exact", 1))
             for _ in range(share)]
    out = []
    for j in range(n):
        kind = kinds[j % 10] if j < n - n % 10 else rng.choice(kinds)
        if kind == "rare":
            q = f"uniqrare{seed}x{rng.choice(rare_rows)}qz"
        elif kind == "hot":
            q = rng.choice(fx.HOT_TERMS)
        elif kind == "conj":
            q = " ".join(rng.choice(fx._WORDS) for _ in range(2 + j % 4))
        elif kind == "compound":
            w1, w2 = rng.choice(fx._WORDS), rng.choice(fx._WORDS)
            q = f"{w1}{w2.capitalize()}Zx{rng.randint(0, 99)}"
        else:
            row = rows[rng.randrange(N_ROWS)]
            q = f"path:{row['path']}" if j % 20 < 10 else f"repo:{row['repo']} config"
        out.append([q, (10, 10, 10, 1, 100)[j % 5]])
    rng.shuffle(out)
    return out


def _pair(rng: random.Random, a: Answers, n: int, gap: int) -> str:
    """``n`` content tokens from one row, ``gap`` apart (so they occur)."""
    while True:
        s = a.streams[rng.randrange(N_ROWS)][0]
        if len(s) > n * (gap + 1) and len(s) < 5000:
            p = rng.randrange(len(s) - n * (gap + 1))
            return " ".join(s[p + j * (gap + 1)] for j in range(n))


def _typo(rng: random.Random, w: str) -> str:
    i = rng.randrange(len(w))
    op = rng.randrange(3)
    if op == 0:
        return w[:i] + w[i + 1:]
    c = rng.choice("abcdefghijklmnopqrstuvwxyz")
    return w[:i] + c + w[i + (op == 1):]


def make_answers(seed: int, rows: list[dict], big: tuple[str, int]) -> dict:
    rng = random.Random(seed * 7919 + 1)
    a = Answers(rows, big)
    n90 = N_ROWS - ROWS_PER_FILE
    o90 = _oracle(a.tok)
    for i in range(n90):
        _add(o90, i, rows[i])
    o90.finalize()
    opath = _oracle(a.tok)
    for i, row in enumerate(rows):
        opath.add_document(i, row["path"])
    opath.finalize()

    def words(n):
        return " ".join(rng.choice(fx._WORDS) for _ in range(n))

    # ---------------- search: one round of the per-mode lists
    bm25_q = bm25_mix(rng, rows, seed, ROUND["bm25"])
    # 3-letter prefixes at fixed quantiles of the postings their expansion
    # scores, so every seed's prefix list costs about the same
    volume: Counter = Counter()
    for t in a.vocab:
        if len(t) >= 3 and t[:3].isalpha():
            volume[t[:3]] += len(a.full.postings[t])
    ranked = sorted(volume, key=lambda p: (volume[p], p))
    n_p = ROUND["prefix"]
    prefixes = [ranked[int((j + 0.5) * len(ranked) / n_p)] for j in range(n_p)]
    rng.shuffle(prefixes)
    # phrase pairs likewise, at fixed quantiles of their terms' postings
    pairs = sorted({_pair(rng, a, 2, 0) for _ in range(20 * ROUND["phrase"])},
                   key=lambda q: (sum(a.full.df(t) for t in a.tok.tokenize(q)), q))
    n_q = ROUND["phrase"]
    phrases = [pairs[int((j + 0.5) * len(pairs) / n_q)] for j in range(n_q)]
    rng.shuffle(phrases)
    s = {
        "bm25": [[q, k, a.bm25(q, k)] for q, k in bm25_q],
        "and": [[q, K, a.and_(q, K)] for q in (words(2) for _ in range(ROUND["and"]))],
        "phrase": [[q, K, a.near(q, K, 0)] for q in phrases],
        "near": [[q, K, slop, a.near(q, K, slop)]
                 for q, slop in ((_pair(rng, a, 2, sl), sl + 1)
                                 for sl in (rng.randrange(2) for _ in range(ROUND["near"])))],
        "prefix": [[p, K, rank(a.full, a.expand("prefix", p), K)] for p in prefixes],
        "wildcard": [[p, K, rank(a.full, a.expand("wildcard", p), K)]
                     for p in rng.sample(["ge*", "*er", "s?t*", "*ache", "re*d", "b?ild*"],
                                         ROUND["wildcard"])],
        "regex": [[p, K, rank(a.full, a.expand("regex", p), K)]
                  for p in rng.sample(["get[a-z]*", "(user|name)s?", "[a-f]+", "re(ad|try)",
                                       "sha?rd", "[sm][a-z]{3}"], ROUND["regex"])],
        "fuzzy": [[q, K, rank(a.full, a.expand("fuzzy", q), K)]
                  for q in (_typo(rng, w) for w in fx._WORDS if len(w) > 3)],
        "count": [[q, len(a.match_set(q))] for q, _ in bm25_mix(rng, rows, seed, ROUND["count"])],
        "facets": [[q, a.facets(q)] for q in (words(2) for _ in range(ROUND["facets"]))],
        "best_fields": [[q, K, a.best_fields(q, K, opath)]
                        for q in (words(2) for _ in range(ROUND["best_fields"]))],
        "fetch": [[q, K, a.bm25(q, K)] for q in (words(3) for _ in range(ROUND["fetch"]))],
    }
    qs = []
    for _ in range(ROUND["query"]):
        w = [rng.choice(fx._WORDS) for _ in range(3)]
        form = rng.randrange(4)
        if form == 0:
            q = f"+{w[0]} {w[1]} -lang:{rng.choice(fx.LANGS)}"
        elif form == 1:
            q = f"{w[0]} {w[1][:3]}* -{w[2]}"
        elif form == 2:
            q = f'"{_pair(rng, a, 2, 0)}" {w[0]}'
        else:
            q = f"+{w[0]} +{w[1]} lang:{rng.choice(fx.LANGS[:4])}"
        qs.append([q, K, a.query_string(q, K)])
    s["query"] = qs

    # ---------------- ingest: query sample through build, append, delete, ...
    sample = [q for q, _ in bm25_mix(rng, rows, seed, 4 * N_INGEST_SAMPLE)
              if not q.startswith(("path:", "repo:"))][:N_INGEST_SAMPLE]
    dead = set(rng.sample(range(N_ROWS), int(N_ROWS * DELETE_SHARE)))
    for q in sample[:5]:  # make sure deletes touch answers
        dead.update(d for d, _ in a.bm25(q, 1))
    dead = sorted(dead)
    live = [d for d in range(N_ROWS) if d not in set(dead)]
    surv = _oracle(a.tok)
    for d in live:
        _add(surv, d, rows[d])
    surv.finalize()
    dead_set = set(dead)
    after_delete = []
    for q in sample:
        ranked = [h for h in a.bm25(q, N_ROWS) if h[0] not in dead_set]
        after_delete.append(ranked[:K])
    ingest = {
        "sample": sample,
        "n_docs": a.full.n_docs, "avgdl": a.full.avgdl,
        "n_docs_90": o90.n_docs, "avgdl_90": o90.avgdl,
        "build": [a.bm25(q, K) for q in sample],
        "build_90": [a.bm25(q, K, o90) for q in sample],
        "dead": dead,
        "after_delete": after_delete,
        "postings_removed": sum(
            1 for plist in a.full.postings.values() for d, _ in plist if d in dead_set),
        "n_docs_live": surv.n_docs, "avgdl_live": surv.avgdl,
        "refreshed": [a.bm25(q, K, surv) for q in sample],
    }

    # ---------------- serve: a stream sent once per query
    stream = [q for q, _ in bm25_mix(rng, rows, seed, N_STREAM)]
    serve = {
        "stream": stream,
        "oracle": [a.bm25(q, K) for q in stream[:N_SERVE_ORACLE]],
        "batch": [a.bm25(q, K) for q in stream[:N_BATCH]],
    }
    return {"seed": seed, "search": s, "ingest": ingest, "serve": serve,
            "makeup": makeup(rows, a)}


def makeup(rows: list[dict], a: Answers) -> dict:
    """Measured shares of the corpus edge cases (reported in the README)."""
    n = len(rows)
    df = {t: len(p) for t, p in a.full.postings.items() if ":" not in t}
    contents = Counter(r["content"] for r in rows)
    return {
        "rows": n,
        "bytes": sum(len(r["content"].encode()) for r in rows),
        "empty_or_blank_rows": sum(1 for r in rows if not r["content"].strip()),
        "duplicate_content_rows": sum(c - 1 for c in contents.values() if c > 1),
        "unicode_rows": sum(1 for r in rows if not r["content"].isascii()),
        "rows_2mb_or_more": sum(1 for r in rows if len(r["content"].encode()) >= 2_000_000),
        "terms": len(df),
        "single_row_terms_share": sum(1 for v in df.values() if v == 1) / len(df),
        "hot_terms_in_60pct_rows": sorted(t for t, v in df.items() if v >= 0.6 * n),
    }


def ensure(work_root: str, seed: int, force: bool = False) -> str:
    """Cache directory holding ``corpus/`` and ``answers.json`` for ``seed``."""
    d = cache_dir(work_root, seed)
    if force:
        shutil.rmtree(d, ignore_errors=True)
    if os.path.exists(os.path.join(d, "answers.json")):
        return d
    tmp = f"{d}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    rows, big = make_rows(seed)
    write_corpus(rows, os.path.join(tmp, "corpus"))
    with open(os.path.join(tmp, "answers.json"), "w") as f:
        json.dump(make_answers(seed, rows, big), f)
    shutil.rmtree(d, ignore_errors=True)
    os.replace(tmp, d)
    return d


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--force", action="store_true", help="recompute the cached answers")
    ap.add_argument("--work", default=os.path.join(ROOT, ".perfbench"))
    args = ap.parse_args()
    print(ensure(args.work, args.seed, args.force))


if __name__ == "__main__":
    main()
