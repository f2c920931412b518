"""Prefix and fuzzy search: expansion correctness + scoring bit-equality.

Contract: `search_prefix` / `search_fuzzy` are REWRITES — expansion over the
term dictionary followed by ordinary sorted-term-order disjunctive scoring —
so their results must be bit-equal to `_taat` over the explicitly spelled-out
expanded terms, the expansion itself must equal a brute-force dictionary
scan, and the sharded serving pool must agree with the local engine.
"""

import random
import shutil

import numpy as np
import pytest

from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index
from nmr_fair_dos_ray.search.engine import (
    IndexReader, Searcher, _levenshtein_leq,
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
        got = idx.expand_prefix(p)
        want = sorted(t for t in all_terms if t.startswith(p) and ":" not in t)
        assert got == want, p
    # field-scoped prefix keeps field terms
    got = idx.expand_prefix("lang:")
    assert got == sorted(t for t in all_terms if t.startswith("lang:"))


def test_prefix_cap_is_df_topN_deterministic(idx):
    full = idx.expand_prefix("s")
    if len(full) < 4:
        pytest.skip("fixture prefix too small")
    capped = idx.expand_prefix("s", max_expansions=3)
    dfs = {t: idx.terms[t]["df"] for t in full}
    want = sorted(sorted(full, key=lambda t: (-dfs[t], t))[:3])
    assert capped == want
    assert idx.expand_prefix("s", max_expansions=3) == capped  # memo-stable


def test_prefix_search_equals_explicit_disjunction(idx):
    s = Searcher(idx)
    for p in ("ge", "user", "va"):
        terms = idx.expand_prefix(p)
        if not terms:
            continue
        assert s.search_prefix(p, k=10) == s._taat(terms, 10, None), p
    assert s.search_prefix("zzzqqq", k=10) == []


def test_fuzzy_expansion_matches_brute_force(idx):
    all_terms = [t for t in idx.terms if ":" not in t]
    probes = ["user", "confg", "retrn", "vlue", "xx"]
    for e in (1, 2):
        for q in probes:
            got = idx.expand_fuzzy(q, max_edits=e)
            want = sorted(t for t in all_terms if _lev_full(q, t) <= e)
            assert got == want, (q, e)


def test_fuzzy_search_equals_explicit_disjunction(idx):
    s = Searcher(idx)
    q = "confg retrn"
    expanded = set()
    for t in s.r.tokenizer.tokenize_query(q)[0]:
        expanded.update(idx.expand_fuzzy(t, 1))
    assert expanded, "fixture should fuzzy-match something"
    assert s.search_fuzzy(q, k=10) == s._taat(sorted(expanded), 10, None)


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
    full = s.search(q, k=10_000, algorithm="taat")
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
        assert idx.expand_regex(pat) == want, pat
    with pytest.raises(ValueError, match="invalid regex"):
        idx.expand_regex("(unclosed")


def test_regex_search_equals_explicit_disjunction(idx):
    s = Searcher(idx)
    terms = idx.expand_regex("conf.*")
    assert terms
    assert s.search_regex("conf.*", k=10) == s._taat(terms, 10, None)
    # cap: top-N by (df desc, term asc), bit-equal to spelling those out
    capped = idx.expand_regex("[a-z]{4,}", max_expansions=7)
    assert len(capped) == 7
    assert s.search_regex("[a-z]{4,}", k=10, max_expansions=7) == \
        s._taat(capped, 10, None)
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
