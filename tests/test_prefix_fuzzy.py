"""Prefix and fuzzy search: expansion correctness + scoring bit-equality.

Contract: `search_prefix` / `search_fuzzy` are REWRITES — expansion over the
term dictionary followed by ordinary sorted-term-order disjunctive scoring —
so their results must be bit-equal to `_taat` over the explicitly spelled-out
expanded terms, the expansion itself must equal a brute-force dictionary
scan, and the sharded serving pool must agree with the local engine.
"""

import random
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index
from nmr_fair_dos_ray.search.engine import (
    IndexReader, Searcher, _levenshtein_leq, wildcard_to_regex,
)

DIR = "/tmp/nmr_fair_dos_ray/test_prefix_fuzzy_idx"
CFG = IndexConfig(
    token_cols=("path", "lang"),
    field_cols=("repo", "lang"),
    stored_cols=("repo",),
    num_shards=4,
)


@pytest.fixture(scope="module")
def idx(sf_unit):
    shutil.rmtree(DIR, ignore_errors=True)
    build_index(sf_unit["corpus"], DIR, CFG)
    return IndexReader(DIR)


def _lev_full(a: str, b: str) -> int:
    """Reference plain-Levenshtein full DP (test oracle)."""
    la, lb = len(a), len(b)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[lb]


def test_levenshtein_leq_fuzz():
    rng = random.Random(7)
    alpha = "abcde"
    for _ in range(3000):
        a = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 8)))
        b = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 8)))
        d = _lev_full(a, b)
        for k in (0, 1, 2, 3):
            assert _levenshtein_leq(a, b, k) == (d <= k), (a, b, k, d)


def test_prefix_expansion_matches_brute_force(idx):
    all_terms = list(idx.terms)
    for p in ("ge", "user", "conf", "zzz", "q"):
        got = idx.term_text(idx.expand_prefix(p))
        want = sorted(t for t in all_terms if t.startswith(p) and ":" not in t)
        assert got == want, p
    # field-scoped prefix keeps field terms
    got = idx.term_text(idx.expand_prefix("lang:"))
    assert got == sorted(t for t in all_terms if t.startswith("lang:"))


def test_prefix_cap_is_df_topN_deterministic(idx):
    full = idx.term_text(idx.expand_prefix("s"))
    if len(full) < 4:
        pytest.skip("fixture prefix too small")
    capped = idx.term_text(idx.expand_prefix("s", max_expansions=3))
    dfs = {t: idx.terms[t]["df"] for t in full}
    want = sorted(sorted(full, key=lambda t: (-dfs[t], t))[:3])
    assert capped == want
    assert idx.term_text(idx.expand_prefix("s", max_expansions=3)) == capped  # memo-stable


def test_prefix_search_equals_explicit_disjunction(idx):
    s = Searcher(idx)
    for p in ("ge", "user", "va"):
        terms = idx.term_text(idx.expand_prefix(p))
        if not terms:
            continue
        assert s.search_prefix(p, k=10) == s._taat(idx.term_ids(terms), 10, None), p
    assert s.search_prefix("zzzqqq", k=10) == []


def test_fuzzy_expansion_matches_brute_force(idx):
    all_terms = [t for t in idx.terms if ":" not in t]
    probes = ["user", "confg", "retrn", "vlue", "xx"]
    for e in (1, 2):
        for q in probes:
            got = idx.term_text(idx.expand_fuzzy(q, max_edits=e))
            want = sorted(t for t in all_terms if _lev_full(q, t) <= e)
            assert got == want, (q, e)


def test_fuzzy_search_equals_explicit_disjunction(idx):
    s = Searcher(idx)
    q = "confg retrn"
    expanded = set()
    for t in s.r.tokenizer.tokenize_query(q)[0]:
        expanded.update(idx.term_text(idx.expand_fuzzy(t, 1)))
    assert expanded, "fixture should fuzzy-match something"
    assert s.search_fuzzy(q, k=10) == s._taat(idx.term_ids(sorted(expanded)), 10, None)


def test_sharded_prefix_fuzzy_match_local(idx):
    from nmr_fair_dos_ray.search.distributed import DocShardedSearcher

    s = Searcher(idx)
    pool = DocShardedSearcher(DIR, pool_size=2)
    try:
        for p in ("ge", "user", "va"):
            assert pool.search_prefix(p, k=10) == s.search_prefix(p, k=10), p
        assert pool.search_prefix("s", k=10, max_expansions=5) == s.search_prefix(
            "s", k=10, max_expansions=5
        )
        for q in ("confg", "retrn vlue"):
            assert pool.search_fuzzy(q, k=10) == s.search_fuzzy(q, k=10), q
    finally:
        pool.shutdown()


def test_prefix_fuzzy_honor_tombstones(idx, tmp_path):
    import pyarrow.parquet as pq

    from nmr_fair_dos_ray.pipelines.lifecycle import delete_docs

    d2 = str(tmp_path / "idx")
    shutil.copytree(DIR, d2)
    s0 = Searcher(IndexReader(d2))
    base = s0.search_prefix("ge", k=5)
    if not base:
        pytest.skip("no prefix hits")
    delete_docs(d2, [base[0][0]])
    s1 = Searcher(IndexReader(d2))
    got = s1.search_prefix("ge", k=5)
    assert base[0][0] not in [d for d, _ in got]
    assert got[: len(base) - 1] == base[1:]  # frozen stats: pure shift


def test_search_after_pagination(idx):
    """Cursor paging walks the full ranking without gaps or repeats."""
    s = Searcher(idx)
    q = "def return user"
    full = s.search(q, k=10_000)
    pages, cursor = [], None
    while True:
        page = s.search_after(q, k=7, after=cursor)
        if not page:
            break
        pages.extend(page)
        cursor = (page[-1][1], page[-1][0])
    assert pages == full
    # exact-only query pages by doc_id
    lv = idx.terms_with_prefix("lang:")[0]
    all_docs = [d for d, _ in s.search(lv, k=10_000)]
    p1 = s.search_after(lv, k=5)
    p2 = s.search_after(lv, k=5, after=(0.0, p1[-1][0]))
    assert [d for d, _ in p1 + p2] == all_docs[:10]


# ------------------------------------------------------------------ regex
def test_regex_expansion_matches_brute_force(idx):
    import re

    for pat in ("conf.*", "s.+(et|elf)", "(get|set)[a-z]*", "zz.*9"):
        want = sorted(
            t for t in idx.terms if ":" not in t
            and re.fullmatch(pat, t) is not None
        )
        assert idx.term_text(idx.expand_regex(pat)) == want, pat
    with pytest.raises(ValueError, match="invalid regex"):
        idx.expand_regex("(unclosed")


def test_regex_search_equals_explicit_disjunction(idx):
    s = Searcher(idx)
    terms = idx.term_text(idx.expand_regex("conf.*"))
    assert terms
    assert s.search_regex("conf.*", k=10) == s._taat(idx.term_ids(terms), 10, None)
    # cap: top-N by (df desc, term asc), bit-equal to spelling those out
    capped = idx.term_text(idx.expand_regex("[a-z]{4,}", max_expansions=7))
    assert len(capped) == 7
    assert s.search_regex("[a-z]{4,}", k=10, max_expansions=7) == \
        s._taat(idx.term_ids(capped), 10, None)
    assert s.search_regex("zzqxneverx.*", k=10) == []


def test_sharded_regex_matches_local(idx):
    from nmr_fair_dos_ray.search.distributed import DocShardedSearcher

    s = Searcher(idx)
    pool = DocShardedSearcher(DIR, pool_size=2)
    try:
        for pat in ("conf.*", "(get|set)[a-z]*", "[a-z]{4,}", "zzqx.*"):
            for cap in (None, 5):
                assert pool.search_regex(pat, k=10, max_expansions=cap) == \
                    s.search_regex(pat, k=10, max_expansions=cap), (pat, cap)
    finally:
        pool.shutdown()


def test_wildcard_rewrites_onto_regex(idx):
    from nmr_fair_dos_ray.search.engine import wildcard_to_regex

    s = Searcher(idx)
    assert wildcard_to_regex("con*g?") == "con.*g."
    assert wildcard_to_regex("a.b*") == "a\\.b.*"  # dot escaped literally
    assert s.search_wildcard("conf*", k=10) == s.search_regex("conf.*", k=10)
    got = s.search_wildcard("?et*", k=10)
    assert got == s.search_regex(".et.*", k=10)
    assert s.search_wildcard("zzqxnope*", k=10) == []


def test_sharded_wildcard_matches_local(idx):
    from nmr_fair_dos_ray.search.distributed import DocShardedSearcher

    s = Searcher(idx)
    pool = DocShardedSearcher(DIR, pool_size=2)
    try:
        for pat in ("conf*", "?et*", "g*t", "zzqx*"):
            assert pool.search_wildcard(pat, k=10) == \
                s.search_wildcard(pat, k=10), pat
    finally:
        pool.shutdown()


def test_fuzzy_deletion_index_is_byte_bounded(idx):
    """The SymSpell index must be numpy hash arrays (16 B/entry), not a
    Python dict of variant strings — the round-3 layout grew unbounded with
    vocabulary (VERDICT round-4 item 3)."""
    import numpy as np

    idx.expand_fuzzy("user", max_edits=1)  # builds lazily
    h, t = idx._fuzzy_del[1]
    assert isinstance(h, np.ndarray) and isinstance(t, np.ndarray)
    assert h.itemsize + t.itemsize == 16
    n_entries = h.size
    # every dictionary term contributes len+1 variants at e=1 (plus itself)
    vocab = [x for x in idx.terms if ":" not in x]
    expected = sum(len(set([x] ) | {x[:i] + x[i+1:] for i in range(len(x))})
                   for x in vocab)
    assert n_entries == expected
    # 16 B per entry, and sorted for searchsorted lookups
    assert (h.nbytes + t.nbytes) == 16 * n_entries
    assert bool(np.all(np.diff(h) >= 0))


# ------------------------------------------- batched multi-term scoring
@pytest.fixture(scope="module")
def oracle(sf_unit):
    from nmr_fair_dos_ray.oracle import oracle_from_parquet

    return oracle_from_parquet([sf_unit["corpus"]], token_cols=CFG.token_cols,
                               field_cols=CFG.field_cols)


def _oracle_disjunction(oracle, terms, k, dead=()):
    """Brute-force BM25 top-k of the spelled-out ``terms``: the oracle's own
    postings and scalar scorer, accumulated in sorted term order (frozen
    stats: dead docs are only dropped)."""
    from nmr_fair_dos_ray.search.bm25 import bm25_idf, bm25_one

    acc: dict[int, float] = {}
    for t in sorted(set(terms)):
        plist = oracle.postings.get(t, ())
        idf = bm25_idf(len(plist), oracle.n_docs)
        for d, tf in plist:
            acc[d] = acc.get(d, 0.0) + bm25_one(
                tf, oracle.doclen[d], idf, oracle.k1, oracle.b, oracle.avgdl)
    items = sorted(((d, s) for d, s in acc.items() if d not in set(dead)),
                   key=lambda x: (-x[1], x[0]))
    return items[:k]


def test_large_expansions_match_oracle(idx, oracle):
    """Expansions past the old 256-entry postings-cache thrash point (and
    past the LRU cutoff, so they take the one batched decode) score
    bit-equal to the oracle over the spelled-out terms."""
    s = Searcher(idx)
    cases = [("prefix", "re"), ("prefix", "s"), ("regex", "[a-z].*"),
             ("wildcard", "*e*")]
    for kind, pat in cases:
        tids = (idx.expand_prefix(pat) if kind == "prefix" else
                idx.expand_regex(pat if kind == "regex" else
                                 wildcard_to_regex(pat)))
        assert tids.size > 256, (kind, pat, tids.size)
        terms = idx.term_text(tids)
        assert terms == sorted(terms)  # ids come back in term order
        for k in (10, 10_000):
            got = getattr(s, f"search_{kind}")(pat, k=k)
            assert got == _oracle_disjunction(oracle, terms, k), (kind, pat, k)


def test_cap_keeps_df_ties_by_term(idx):
    """``max_expansions`` keeps (df desc, term asc), also where the cut falls
    inside a run of equal df, and returns the kept ids in term order."""
    all_terms = [t for t in idx.terms if ":" not in t]
    tie_cuts = 0
    for kind, pat, match in (
        ("prefix", "s", lambda t: t.startswith("s")),
        ("prefix", "re", lambda t: t.startswith("re")),
        ("regex", "[a-z]{4,}", lambda t: re.fullmatch("[a-z]{4,}", t)),
    ):
        full = sorted(t for t in all_terms if match(t))
        ranked = sorted(full, key=lambda t: (-idx.terms[t]["df"], t))
        for cap in range(1, 40):
            if cap >= len(ranked):
                break
            tie = idx.terms[ranked[cap - 1]]["df"] == idx.terms[ranked[cap]]["df"]
            tie_cuts += tie
            got = (idx.expand_prefix(pat, max_expansions=cap) if kind == "prefix"
                   else idx.expand_regex(pat, max_expansions=cap))
            assert idx.term_text(got) == sorted(ranked[:cap]), (pat, cap)
    assert tie_cuts, "fixture must cut inside a df tie"


def test_tombstones_inside_expansions(idx, oracle, tmp_path):
    """Deleted docs inside an expansion's postings vanish from prefix,
    regex, fuzzy and query-string results on both the batched (large) and
    the LRU (small) paths; live scores stay frozen and bit-equal."""
    from nmr_fair_dos_ray.pipelines.lifecycle import delete_docs

    d2 = str(tmp_path / "idx")
    shutil.copytree(DIR, d2)
    s0 = Searcher(IndexReader(d2))
    dead = sorted({d for q in ("re", "s") for d, _ in s0.search_prefix(q, k=15)}
                  | {d for d, _ in s0.search_fuzzy("retrn", k=5)})
    delete_docs(d2, dead)
    r = IndexReader(d2)
    s = Searcher(r)
    for pat in ("re", "s", "conf"):
        terms = r.term_text(r.expand_prefix(pat))
        got = s.search_prefix(pat, k=10_000)
        assert got == _oracle_disjunction(oracle, terms, 10_000, dead), pat
        assert not {d for d, _ in got} & set(dead)
    terms = r.term_text(r.expand_regex("[a-z].*"))
    assert s.search_regex("[a-z].*", k=50) == \
        _oracle_disjunction(oracle, terms, 50, dead)
    fz = r.term_text(r.expand_fuzzy("retrn", 1))
    assert s.search_fuzzy("retrn", k=50) == _oracle_disjunction(oracle, fz, 50, dead)
    # required large expansion: match set is the union of live postings
    need = {d for t in r.term_text(r.expand_prefix("re")) for d in
            r.postings(t)[0].tolist()}
    full = _oracle_disjunction(oracle, r.term_text(r.expand_prefix("re")) + ["merge"],
                               10_000, dead)
    assert s.search_query("+re* merge", k=20) == \
        [(d, sc) for d, sc in full if d in need][:20]
    assert s.count("def return") == len(set(
        r.postings("def")[0].tolist()) | set(r.postings("return")[0].tolist()))


def test_fuzzy_two_edits_match_brute_force_and_stay_bounded(idx):
    """max_edits=2 expands exactly like the brute-force distance scan, and
    its deletion index keeps each term's distinct ≤2-deletion variants
    once (16 B per entry, hash-sorted)."""
    rng = random.Random(11)
    vocab = [t for t in idx.terms if ":" not in t]
    probes = []
    for t in rng.sample(vocab, 25):
        chars = list(t)
        for _ in range(rng.randint(0, 3)):
            op = rng.choice("ids")
            i = rng.randrange(len(chars) + 1)
            if op == "i":
                chars.insert(i, rng.choice("abcxyz"))
            elif chars and i < len(chars):
                if op == "d":
                    del chars[i]
                else:
                    chars[i] = rng.choice("abcxyz")
        probes.append("".join(chars))
    for q in probes + ["", "é", "zz"]:
        for e in (1, 2):
            got = idx.term_text(idx.expand_fuzzy(q, max_edits=e))
            # the full scan with the distance check (itself fuzzed against
            # the full DP above): the deletion index must miss no term
            want = sorted(t for t in vocab if _levenshtein_leq(q, t, e))
            assert got == want, (q, e)
    h, t = idx._fuzzy_del[2]
    assert h.itemsize + t.itemsize == 16
    assert bool(np.all(np.diff(h) >= 0))

    def variants(x):
        one = {x[:i] + x[i + 1:] for i in range(len(x))}
        return {x} | one | {y[:i] + y[i + 1:] for y in one for i in range(len(y))}

    assert h.size == sum(len(variants(x)) for x in vocab)


@given(st.lists(st.text(alphabet="aab:é€😀", max_size=9), min_size=1, max_size=6),
       st.sampled_from([1, 2]))
@settings(max_examples=80, deadline=None)
def test_vectorized_deletion_hashes_match_scalar(terms, e):
    """The dictionary-wide vectorized variant hashes equal the scalar hash
    of each term's distinct ≤e-deletion strings (code points, not bytes),
    the query side's reference; a sliced Arrow array reads the same."""
    import pyarrow as pa

    from nmr_fair_dos_ray.search.engine import (
        _deletion_hashes, _deletion_variants, _variant_hash,
    )

    h, t = _deletion_hashes(pa.array(["pad"] + terms).slice(1), e)
    want = sorted((i, _variant_hash(v)) for i, term in enumerate(terms)
                  for v in _deletion_variants(term, e))
    assert sorted(zip(t.tolist(), h.tolist())) == want
