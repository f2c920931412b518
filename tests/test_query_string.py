"""Query-string search (`Searcher.search_query`): the ES query_string analog.

Contract: every atom is a rewrite onto tested primitives, so each grammar
feature must be reproducible by an explicit combination of `search`,
`search_phrase`, `expand_prefix` / `expand_fuzzy` and posting-set algebra —
with bit-identical scores (frozen sorted-term accumulation order).
"""

import shutil

import numpy as np
import pytest

from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index
from nmr_fair_dos_ray.search.engine import IndexReader, Searcher

DIR = "/tmp/nmr_fair_dos_ray/test_query_string_idx"
CFG = IndexConfig(
    token_cols=("path", "lang"),
    field_cols=("repo", "lang"),
    stored_cols=("repo",),
    num_shards=4,
    store_positions=True,
)


@pytest.fixture(scope="module")
def s(sf_unit):
    shutil.rmtree(DIR, ignore_errors=True)
    build_index(sf_unit["corpus"], DIR, CFG)
    return Searcher(IndexReader(DIR))


def _full(s, q):
    return s.search(q, k=10_000)


def test_bare_terms_equal_search(s):
    for q in ("self return self", "user name", "config"):
        assert s.search_query(q, k=10) == s.search(q, k=10), q


def test_negation_excludes_and_keeps_scores(s):
    base = _full(s, "self return")
    excl = set(s.r.postings("self")[0].tolist())
    want = [(d, sc) for d, sc in base if d not in excl][:10]
    assert s.search_query("self return -self", k=10) == want


def test_required_term_intersects_and_keeps_scores(s):
    base = _full(s, "def config")
    need = set(s.r.postings("config")[0].tolist())
    want = [(d, sc) for d, sc in base if d in need][:10]
    assert s.search_query("def +config", k=10) == want


def test_field_filter_and_negated_field(s):
    langs = s.r.terms_with_prefix("lang:")
    lv = langs[0]
    assert s.search_query(f"def {lv}", k=10) == s.search(f"def {lv}", k=10)
    base = _full(s, "def")
    excl = set(s.r.postings(lv)[0].tolist())
    want = [(d, sc) for d, sc in base if d not in excl][:10]
    assert s.search_query(f"def -{lv}", k=10) == want


def test_phrase_atom_required_and_negated(s):
    ph_docs = {d for d, _ in s.search_phrase("self return", k=10_000)}
    assert ph_docs, "fixture phrase must match"
    got = s.search_query('"self return"', k=10)
    assert got and all(d in ph_docs for d, _ in got)
    # phrase terms are scored: equal to search over them, filtered to matches
    base = _full(s, "self return")
    want = [(d, sc) for d, sc in base if d in ph_docs][:10]
    assert got == want
    neg = s.search_query('def -"self return"', k=10)
    assert all(d not in ph_docs for d, _ in neg)


def test_prefix_and_fuzzy_atoms(s):
    exp = set(s.r.term_text(s.r.expand_prefix("conf")))
    exp.add("merge")
    want = s._taat(s.r.term_ids(sorted(exp)), 10, None)
    assert s.search_query("conf* merge", k=10) == want
    fz = set(s.r.term_text(s.r.expand_fuzzy("retrn", 1)))
    assert fz
    assert s.search_query("retrn~", k=10) == s._taat(s.r.term_ids(sorted(fz)), 10, None)
    fz2 = set(s.r.term_text(s.r.expand_fuzzy("retrn", 2)))
    assert s.search_query("retrn~2", k=10) == s._taat(s.r.term_ids(sorted(fz2)), 10, None)


def test_sloppy_phrase_atom(s):
    """`"a b"~N` is a required ordered-proximity constraint with the
    search_near semantics; `~0`-less quoting stays exact phrase."""
    # find a fixture phrase where slop actually widens the match set
    phrase = None
    for cand in ("self return", "def self", "def config", "user merge",
                 "get name"):
        nd = {d for d, _ in s.search_near(cand, k=10_000, slop=2)}
        pd_ = {d for d, _ in s.search_phrase(cand, k=10_000)}
        assert pd_ <= nd, cand  # slop can only widen
        if nd - pd_:
            phrase = cand
            near_docs = nd
            break
    assert phrase is not None, "no fixture phrase widens under slop=2"
    got = s.search_query(f'"{phrase}"~2', k=10_000)
    base = _full(s, phrase)
    want = [(d, sc) for d, sc in base if d in near_docs]
    assert got == want
    # negated sloppy phrase excludes the widened set
    neg = s.search_query(f'def -"{phrase}"~2', k=10_000)
    assert neg and all(d not in near_docs for d, _ in neg)


def test_signed_prefix_and_fuzzy_atoms(s):
    """`+expr*` / `+term~` require a doc to match SOME expanded term;
    `-expr*` / `-term~` exclude the expansion's whole postings union (not
    just the literal token) — the ES query_string modifier semantics."""
    exp = sorted(set(s.r.term_text(s.r.expand_prefix("conf"))))
    need = set(
        np.unique(np.concatenate([s.r.postings(t)[0] for t in exp])).tolist()
    )
    full = s._taat(s.r.term_ids(sorted(set(exp) | {"merge"})), 10_000, None)
    want = [(d, sc) for d, sc in full if d in need][:10]
    assert want
    assert s.search_query("+conf* merge", k=10) == want
    base = _full(s, "merge")
    want2 = [(d, sc) for d, sc in base if d not in need][:10]
    assert s.search_query("merge -conf*", k=10) == want2
    # negation must exclude expansion matches, not only the literal "conf"
    assert any(d in need for d, _ in base), "fixture must exercise exclusion"

    fz = sorted(set(s.r.term_text(s.r.expand_fuzzy("retrn", 1))))
    fneed = set(
        np.unique(np.concatenate([s.r.postings(t)[0] for t in fz])).tolist()
    )
    full3 = s._taat(s.r.term_ids(sorted(set(fz) | {"merge"})), 10_000, None)
    want3 = [(d, sc) for d, sc in full3 if d in fneed][:10]
    assert s.search_query("+retrn~ merge", k=10) == want3
    want4 = [(d, sc) for d, sc in base if d not in fneed][:10]
    assert s.search_query("merge -retrn~", k=10) == want4
    # a required atom that expands to nothing yields zero results
    assert s.search_query("+zzqx9* merge", k=10) == []


def test_constraint_only_and_empty(s):
    langs = s.r.terms_with_prefix("lang:")
    lv = langs[0]
    docs = np.sort(s.r.postings(lv)[0])
    assert s.search_query(lv, k=5) == [(int(d), 0.0) for d in docs[:5]]
    assert s.search_query("", k=5) == []
    assert s.search_query("-def", k=5) == []  # pure negation: no candidates


def test_sharded_phrase_and_query_string_match_local(s):
    from nmr_fair_dos_ray.search.distributed import DocShardedSearcher

    pool = DocShardedSearcher(DIR, pool_size=2)
    try:
        for ph in ("self return", "def config", "zz nope"):
            assert pool.search_phrase(ph, k=10) == s.search_phrase(ph, k=10), ph
        langs = s.r.terms_with_prefix("lang:")
        for q in (
            "def return self",
            "self return -self",
            "def +config",
            'def -"self return"',
            '"self return" conf*',
            "retrn~ merge",
            '"self return"~2',
            'def -"self return"~1',
            "+conf* merge",
            "merge -conf*",
            "+retrn~ merge",
            "merge -retrn~",
            f"def -{langs[0]}",
            f"{langs[0]}",
        ):
            assert pool.search_query(q, k=10) == s.search_query(q, k=10), q
    finally:
        pool.shutdown()


def test_combined_grammar(s):
    q = 'def +return -merge "self return" conf*'
    got = s.search_query(q, k=10)
    score_set = {"def", "return", "self"} | set(s.r.term_text(s.r.expand_prefix("conf")))
    need = set(s.r.postings("return")[0].tolist()) & {
        d for d, _ in s.search_phrase("self return", k=10_000)
    }
    excl = set(s.r.postings("merge")[0].tolist())
    full = s._taat(s.r.term_ids(sorted(score_set)), 10_000, None)
    want = [(d, sc) for d, sc in full if d in need and d not in excl][:10]
    assert want, "combined query must keep some hits"
    assert got == want


def test_search_query_total_over_weird_inputs(s):
    """search_query never raises on malformed grammar — every atom
    degrades to a phrase/terms interpretation or an empty result."""
    weird = ['"', '"a', '~', '~2', '+', '-', '*', 'a~x', ':', 'lang:',
             '+*', '-"', 'a"b', '""~3', '"a b"~', '+~2 -*', '""',
             'self "unclosed', '-"also unclosed']
    for q in weird:
        hits = s.search_query(q, k=3)
        assert isinstance(hits, list), q


def test_all_search_surfaces_total_over_random_text(s):
    """Every query entry point accepts arbitrary short text without raising
    (deterministic pseudo-random corpus of queries incl. punctuation,
    unicode, operators)."""
    import random

    rng = random.Random(7)
    alphabet = "abc XYZ_09 +-*~:\"'()[]{}|\\/.,;!?@#$%^&=<>é中"
    queries = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        for _ in range(120)
    ]
    for q in queries:
        for fn in (
            lambda q: s.search(q, k=3),
            lambda q: s.search_and(q, k=3),
            lambda q: s.search_phrase(q, k=3),
            lambda q: s.search_near(q, k=3, slop=2),
            lambda q: s.search_prefix(q, k=3),
            lambda q: s.search_fuzzy(q, k=3),
            lambda q: s.search_query(q, k=3),
            lambda q: s.search_after(q, k=3),
            lambda q: s.facet_counts(q, "lang"),
        ):
            assert isinstance(fn(q), list), q


def test_signed_large_prefix_atoms(s):
    """`+pref*` / `-pref*` over an expansion too large for the postings LRU
    (one batched decode): the required set is the union of every expanded
    term's postings, the excluded set removes all of them, and scores stay
    those of the spelled-out disjunction."""
    r = s.r
    tids = r.expand_prefix("re")
    assert tids.size > r.LRU_TERMS
    exp = r.term_text(tids)
    need = set().union(*(r.postings(t)[0].tolist() for t in exp))
    full = s._taat(r.term_ids(sorted(set(exp) | {"merge"})), 10_000, None)
    want = [(d, sc) for d, sc in full if d in need][:10]
    assert want
    assert s.search_query("+re* merge", k=10) == want
    base = _full(s, "merge")
    want2 = [(d, sc) for d, sc in base if d not in need][:10]
    assert s.search_query("merge -re*", k=10) == want2
    assert any(d in need for d, _ in base), "fixture must exercise exclusion"
    # a capped required expansion requires only the kept terms
    capped = r.term_text(r.expand_prefix("re", max_expansions=5))
    need5 = set().union(*(r.postings(t)[0].tolist() for t in capped))
    full5 = s._taat(r.term_ids(sorted(set(capped) | {"merge"})), 10_000, None)
    assert s.search_query("+re* merge", k=10, max_expansions=5) == \
        [(d, sc) for d, sc in full5 if d in need5][:10]
