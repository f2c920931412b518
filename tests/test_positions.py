"""Positional index (store_positions) + phrase / conjunctive / facet search.

The contract: positions reproduce the Tokenizer.tokenize stream exactly
(code mode: identifier parts right after their compound; multi-source
streams separated by POS_STREAM_GAP), phrase results equal a brute-force
recompute from the raw corpus, conjunctive scores are bit-equal to the
disjunctive engine's scores for the same docs, and everything survives the
salted hot-term merge and per-partition resume.
"""

import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from nmr_fair_dos_ray.pipelines.index_build import (
    POS_STREAM_GAP, IndexConfig, build_index,
)
from nmr_fair_dos_ray.search.engine import IndexReader, Searcher
from nmr_fair_dos_ray.tokenizer import Tokenizer

BASE = dict(
    token_cols=("path", "lang"),
    field_cols=("repo", "lang"),
    stored_cols=("repo", "path"),
    num_shards=4,
)
DIR_POS = "/tmp/nmr_fair_dos_ray/test_index_positions"
DIR_POS_SALT = "/tmp/nmr_fair_dos_ray/test_index_positions_salt"

PHRASES = ["user name", "get user name", "def return", "return self",
           "the the", "zz nope", ""]


@pytest.fixture(scope="module")
def pos_index(sf_unit):
    for d in (DIR_POS, DIR_POS_SALT):
        shutil.rmtree(d, ignore_errors=True)
    build_index(sf_unit["corpus"], DIR_POS,
                IndexConfig(store_positions=True, **BASE))
    # tiny hot threshold: positional streams must survive the salted merge
    build_index(
        sf_unit["corpus"], DIR_POS_SALT,
        IndexConfig(store_positions=True, salt_hot_terms=True,
                    hot_df_threshold=8, n_salts=3, **BASE),
    )
    return IndexReader(DIR_POS), IndexReader(DIR_POS_SALT), sf_unit


def _streams(fx, cfg_cols=("content", "path", "lang")):
    """Brute-force per-doc {term: [positions]} from the raw corpus."""
    corpus = pq.read_table(fx["corpus"])
    tok = Tokenizer("code")
    out = {}
    for i in range(corpus.num_rows):
        doc = corpus["doc_id"][i].as_py() if "doc_id" in corpus.column_names else i
        stream: dict = {}
        base = 0
        for c in cfg_cols:
            toks = tok.tokenize(str(corpus[c][i].as_py() or ""))
            for j, t in enumerate(toks):
                stream.setdefault(t, []).append(base + j)
            base += len(toks) + POS_STREAM_GAP
        out[doc] = stream
    return out


def test_positions_match_reference_stream(pos_index):
    r, r_salt, fx = pos_index
    assert r.has_positions and r_salt.has_positions
    streams = _streams(fx)
    for reader in (r, r_salt):
        for t in list(reader.terms)[::13]:
            p = reader.positions(t)
            if p is None:  # field term
                assert t.split(":", 1)[0] in ("repo", "lang")
                continue
            docs, offs, flat = p
            for di, d in enumerate(docs.tolist()):
                exp = streams[d].get(t, [])
                got = flat[offs[di]: offs[di + 1]].tolist()
                assert got == exp, (t, d)


def _brute_phrase(streams, words, k):
    out = []
    for d, st in streams.items():
        P = np.array(st.get(words[0], []), dtype=np.int64) if words else np.empty(0)
        for w in words[1:]:
            P = np.intersect1d(P + 1, np.array(st.get(w, []), dtype=np.int64))
            if P.size == 0:
                break
        if P.size:
            out.append((d, int(P.size)))
    out.sort(key=lambda h: (-h[1], h[0]))
    return out[:k]


def test_phrase_matches_brute_force(pos_index):
    r, r_salt, fx = pos_index
    streams = _streams(fx)
    tok = Tokenizer("code")
    extra = [q["query"] for q in pq.read_table(fx["queries"]).to_pylist()][:5]
    for phrase in PHRASES + extra:
        words = tok.tokenize(phrase)
        exp = _brute_phrase(streams, words, 20) if words else []
        assert Searcher(r).search_phrase(phrase, k=20) == exp, phrase
        assert Searcher(r_salt).search_phrase(phrase, k=20) == exp, phrase


def test_phrase_requires_positions(sf_unit):
    d = "/tmp/nmr_fair_dos_ray/test_index_nopos"
    shutil.rmtree(d, ignore_errors=True)
    build_index(sf_unit["corpus"], d, IndexConfig(**BASE))
    r = IndexReader(d)
    assert not r.has_positions
    assert r.positions("def") is None
    with pytest.raises(ValueError, match="store_positions"):
        Searcher(r).search_phrase("a b")
    # the serving pool honors the same contract — a non-positional index
    # RAISES on phrase/query-string search instead of silently returning
    # empty results (ADVICE r3: the old behavior broke the bit-equal claim)
    from nmr_fair_dos_ray.search.distributed import DocShardedSearcher

    pool = DocShardedSearcher(d, pool_size=2)
    try:
        with pytest.raises(ValueError, match="store_positions"):
            pool.search_phrase("a b")
        with pytest.raises(ValueError, match="store_positions"):
            pool.search_query('"a b"')
    finally:
        pool.shutdown()


def test_and_scores_bit_equal_to_taat(pos_index):
    r, _, fx = pos_index
    s = Searcher(r)
    queries = [q["query"] for q in pq.read_table(fx["queries"]).to_pylist()]
    queries += ["def return self", "lang:python def class", "zz nope", ""]
    for q in queries:
        hits = s.search_and(q, k=25)
        full = dict(s.search(q, k=r.n_docs))
        terms, exact = r.tokenizer.tokenize_query(q)
        for d, sc in hits:
            assert full[d] == sc, (q, d)  # bit-equal, not approx
            for t in terms:  # conjunctive: doc contains every term
                docs, _ = r.postings(t)
                assert d in docs, (q, d, t)
        # completeness: every fully-matching doc with a top-25 score is found
        if terms and len(hits) < 25:
            n_conj = sum(
                1 for d in full
                if all(d in r.postings(t)[0] for t in terms)
                and (not exact or all(d in r.postings(t2)[0] for t2 in exact))
            )
            assert len(hits) == n_conj, q


def test_facet_counts_match_pandas(pos_index):
    r, _, fx = pos_index
    s = Searcher(r)
    corpus = pq.read_table(fx["corpus"]).to_pandas()
    tok = Tokenizer("code")
    for q, field in (("def return", "lang"), ("getUserName", "repo"),
                     ("zz nope", "lang")):
        terms, _ = r.tokenizer.tokenize_query(q)
        match_ids = set()
        for t in terms:
            docs, _ = r.postings(t)
            match_ids.update(docs.tolist())
        sub = corpus[corpus["doc_id"].isin(match_ids)] if "doc_id" in corpus else corpus.iloc[sorted(match_ids)]
        exp = sorted(sub.groupby(field).size().items())
        assert s.facet_counts(q, field) == [(str(v), int(n)) for v, n in exp], q


def test_positions_survive_resume(pos_index, sf_unit):
    r, _, _ = pos_index
    victim = sorted(os.listdir(f"{DIR_POS}/shards"))[1]
    # the lost shard's most frequent token-stream term: its positions must
    # come back too (a one-term phrase reads them)
    vt = pq.read_table(f"{DIR_POS}/shards/{victim}", columns=["term", "df"])
    terms = vt["term"].to_pylist()
    lost_term = max((t for t in terms if r.tokenizer.tokenize(t) == [t]),
                    key=lambda t: vt["df"][terms.index(t)].as_py())
    phrases = ["user name", lost_term]
    before = [Searcher(r).search_phrase(p, k=10) for p in phrases]
    assert before[1]
    os.remove(f"{DIR_POS}/shards/{victim}")
    build_index(sf_unit["corpus"], DIR_POS, IndexConfig(store_positions=True, **BASE))
    assert os.path.exists(f"{DIR_POS}/shards/{victim}")
    r2 = IndexReader(DIR_POS)
    assert r2.has_positions
    assert [Searcher(r2).search_phrase(p, k=10) for p in phrases] == before


# --------------------------------------------------------------- proximity
def _brute_near(streams, words, slop, k):
    """Reachable-set DP per doc in plain Python sets; counts distinct chain
    end positions (the documented any-choice semantics)."""
    out = []
    for d, st in streams.items():
        reach = set(st.get(words[0], []))
        for w in words[1:]:
            nxt = set(st.get(w, []))
            reach = {
                p for p in nxt
                if any(p - slop - 1 <= q <= p - 1 for q in reach)
            }
            if not reach:
                break
        if reach:
            out.append((d, len(reach)))
    out.sort(key=lambda h: (-h[1], h[0]))
    return out[:k]


def test_near_slop0_is_bit_equal_to_phrase(pos_index):
    r, r_salt, fx = pos_index
    s, s_salt = Searcher(r), Searcher(r_salt)
    for phrase in PHRASES:
        assert s.search_near(phrase, k=20, slop=0) == s.search_phrase(
            phrase, k=20
        ), phrase
        assert s_salt.search_near(phrase, k=20, slop=0) == s_salt.search_phrase(
            phrase, k=20
        ), phrase


def test_near_matches_brute_force(pos_index):
    r, r_salt, fx = pos_index
    streams = _streams(fx)
    tok = Tokenizer("code")
    for phrase in PHRASES:
        words = tok.tokenize(phrase)
        for slop in (1, 2, 4):
            exp = _brute_near(streams, words, slop, 20) if words else []
            assert Searcher(r).search_near(phrase, k=20, slop=slop) == exp, (
                phrase, slop,
            )
            assert Searcher(r_salt).search_near(phrase, k=20, slop=slop) == exp


def test_near_intersect_nongreedy_counterexample():
    """The bounded gap window defeats both greedy directions: with B at
    {2, 4} and C at {3}, slop=2, the only completing chain is A0→B2→C3 —
    largest-eligible greedy would pick B4 and miss it. The reachable-set
    DP must find it."""
    from nmr_fair_dos_ray.search.engine import near_intersect

    plists = {
        "a": (np.array([0]), np.array([0, 1]), np.array([0])),
        "b": (np.array([0]), np.array([0, 2]), np.array([2, 4])),
        "c": (np.array([0]), np.array([0, 1]), np.array([3])),
    }
    docs, counts = near_intersect(["a", "b", "c"], plists, slop=2)
    assert docs.tolist() == [0] and counts.tolist() == [1]
    # slop=0 (adjacency) finds nothing: 0→1? no b at 1
    docs0, _ = near_intersect(["a", "b", "c"], plists, slop=0)
    assert docs0.size == 0


def test_sharded_near_matches_local(pos_index):
    from nmr_fair_dos_ray.search.distributed import DocShardedSearcher

    r, _, fx = pos_index
    s = Searcher(r)
    pool = DocShardedSearcher(DIR_POS, pool_size=2)
    try:
        for phrase in PHRASES:
            for slop in (0, 2):
                assert pool.search_near(phrase, k=20, slop=slop) == \
                    s.search_near(phrase, k=20, slop=slop), (phrase, slop)
    finally:
        pool.shutdown()


# ----------------------------------------------------- unordered proximity
def _brute_near_unordered(streams, words, slop, k):
    """Anchor-window semantics in plain Python: an anchor (last distinct
    term) position counts when every other distinct term occurs within
    slop+1 tokens on either side."""
    uniq = list(dict.fromkeys(words))
    anchor, others = uniq[-1], uniq[:-1]
    out = []
    for d, st in streams.items():
        anchors = [
            p for p in st.get(anchor, [])
            if all(
                any(abs(p - q) <= slop + 1 for q in st.get(w, []))
                for w in others
            )
        ]
        if anchors:
            out.append((d, len(anchors)))
    out.sort(key=lambda h: (-h[1], h[0]))
    return out[:k]


def test_near_unordered_matches_brute_force(pos_index):
    r, r_salt, fx = pos_index
    streams = _streams(fx)
    tok = Tokenizer("code")
    for phrase in PHRASES:
        words = tok.tokenize(phrase)
        for slop in (0, 1, 2, 4):
            exp = _brute_near_unordered(streams, words, slop, 20) if words else []
            got = Searcher(r).search_near(phrase, k=20, slop=slop, ordered=False)
            assert got == exp, (phrase, slop)
            got_salt = Searcher(r_salt).search_near(
                phrase, k=20, slop=slop, ordered=False
            )
            assert got_salt == exp, (phrase, slop)


def test_near_unordered_superset_of_ordered(pos_index):
    """Every ordered match doc also matches unordered at the same slop
    (the unordered window contains the ordered chain's last gap for
    two-term queries)."""
    r, _, fx = pos_index
    s = Searcher(r)
    for phrase in PHRASES:
        if len(set(Tokenizer("code").tokenize(phrase))) != 2:
            continue
        for slop in (0, 2):
            ordered_docs = {d for d, _ in s.search_near(phrase, k=100, slop=slop)}
            unordered_docs = {
                d for d, _ in s.search_near(phrase, k=100, slop=slop,
                                            ordered=False)
            }
            assert ordered_docs <= unordered_docs, (phrase, slop)


def test_near_unordered_kernel_reversed_terms():
    """A doc with the terms in REVERSE order matches only unordered: stream
    'b . . a' — ordered a→b needs b after a; unordered anchors on b with a
    within the window on the right."""
    from nmr_fair_dos_ray.search.engine import near_intersect

    plists = {
        "a": (np.array([0]), np.array([0, 1]), np.array([3])),
        "b": (np.array([0]), np.array([0, 1]), np.array([0])),
    }
    docs, _ = near_intersect(["a", "b"], plists, slop=2)
    assert docs.size == 0
    docs_u, counts_u = near_intersect(["a", "b"], plists, slop=2, ordered=False)
    assert docs_u.tolist() == [0] and counts_u.tolist() == [1]
    # outside the window (|3-0| = 3 > slop+1 = 2) neither matches
    docs_u1, _ = near_intersect(["a", "b"], plists, slop=1, ordered=False)
    assert docs_u1.size == 0


def test_sharded_near_unordered_matches_local(pos_index):
    from nmr_fair_dos_ray.search.distributed import DocShardedSearcher

    r, _, fx = pos_index
    s = Searcher(r)
    pool = DocShardedSearcher(DIR_POS, pool_size=2)
    try:
        for phrase in PHRASES:
            for slop in (0, 2):
                assert pool.search_near(phrase, k=20, slop=slop, ordered=False) \
                    == s.search_near(phrase, k=20, slop=slop, ordered=False), \
                    (phrase, slop)
    finally:
        pool.shutdown()


def test_candidate_layout_matches_cached_keys(pos_index, monkeypatch):
    """The fallback: a term whose cached keys are missing, or whose doc
    positions overflow ``POS_KEY_STRIDE``, is matched by
    :func:`near_intersect` over the decoded triples, and must return what
    the cached-key path returns."""
    r, r_salt, _ = pos_index
    cases = [(p, slop, ordered) for p in PHRASES for slop in (0, 1, 3)
             for ordered in (True, False)]
    keyed = []
    calls = IndexReader.position_keys_with_max

    def spy(self, term):
        keyed.append(term)
        return calls(self, term)

    def run(reader):
        s = Searcher(reader)
        return ([s.search_phrase(p, k=50) for p in PHRASES],
                [s.search_near(p, k=50, slop=slop, ordered=o) for p, slop, o in cases])

    for d, reader in ((DIR_POS, r), (DIR_POS_SALT, r_salt)):
        monkeypatch.setattr(IndexReader, "position_keys_with_max", spy)
        want = run(reader)
        monkeypatch.setattr(IndexReader, "position_keys_with_max",
                            lambda self, term: None)
        assert run(reader) == want
        # a real stride overflow: a fresh reader (its key cache follows the
        # stride) whose long docs hold positions past a 16-position stride
        monkeypatch.setattr(IndexReader, "position_keys_with_max", calls)
        monkeypatch.setattr(IndexReader, "POS_KEY_STRIDE", 16)
        small = IndexReader(d)
        assert any(small.position_keys_with_max(t) is None
                   for p in PHRASES for t in small.tokenizer.tokenize(p))
        assert run(small) == want
        monkeypatch.undo()
    assert keyed  # the default path did take the cached-key layout
    assert any(hits for hits in want[1])


DIR_SEL = "/tmp/nmr_fair_dos_ray/test_index_selective"
DIR_SEL_SALT = "/tmp/nmr_fair_dos_ray/test_index_selective_salt"


@pytest.fixture(scope="module")
def selective_index():
    """Two terms with df 13 that share only two docs: adjacent in one,
    reversed with a one-token gap in the other — a candidate set selective
    enough that the match cuts each term's cached keys to it."""
    import pyarrow as pa

    content = ["alpha beta gamma", "beta delta alpha epsilon beta"]
    content += [f"alpha filler{i} zeta" for i in range(11)]
    content += [f"zeta filler{i} beta" for i in range(11)]
    n = len(content)
    corpus = "/tmp/nmr_fair_dos_ray/test_selective_corpus.parquet"
    pq.write_table(pa.table({
        "repo": [f"org/r{i % 3}" for i in range(n)],
        "path": [f"f{i}.py" for i in range(n)],
        "lang": ["python"] * n,
        "content": content,
    }), corpus)
    for d in (DIR_SEL, DIR_SEL_SALT):
        shutil.rmtree(d, ignore_errors=True)
    build_index(corpus, DIR_SEL, IndexConfig(store_positions=True, **BASE))
    build_index(corpus, DIR_SEL_SALT, IndexConfig(
        store_positions=True, salt_hot_terms=True, hot_df_threshold=8,
        n_salts=3, **BASE))
    return IndexReader(DIR_SEL), IndexReader(DIR_SEL_SALT), {"corpus": corpus}


def test_selective_candidates_cut_cached_keys(selective_index):
    from nmr_fair_dos_ray.search.engine import intersect_doc_sets

    r, r_salt, fx = selective_index
    streams = _streams(fx)
    tok = Tokenizer("code")
    phrases = ["alpha beta", "beta alpha", "alpha beta gamma",
               "alpha zeta", "beta delta alpha"]
    for reader in (r, r_salt):
        postings = {t: reader.postings(t)[0] for t in ("alpha", "beta")}
        inter = intersect_doc_sets(postings)
        assert min(v.size for v in postings.values()) >= 8
        assert inter.size * 4 < min(v.size for v in postings.values())
        s = Searcher(reader)
        for phrase in phrases:
            words = tok.tokenize(phrase)
            assert s.search_phrase(phrase, k=50) == \
                _brute_phrase(streams, words, 50), phrase
            for slop in range(4):
                assert s.search_near(phrase, k=50, slop=slop) == \
                    _brute_near(streams, words, slop, 50), (phrase, slop)
                assert s.search_near(phrase, k=50, slop=slop, ordered=False) \
                    == _brute_near_unordered(streams, words, slop, 50), \
                    (phrase, slop)
    # the one adjacent occurrence, and the reversed pair within the window
    assert Searcher(r).search_phrase("alpha beta") == [(0, 1)]
    assert Searcher(r).search_near("alpha beta", slop=1, ordered=False) \
        == [(1, 2), (0, 1)]


# --------------------------------------------------------------- reader caches
def test_lru_budgets_recency_and_none_values():
    from nmr_fair_dos_ray.search.engine import _LRU, _MISS

    by_count = _LRU(2)
    by_count.put("a", 1)
    by_count.put("b", None)  # None is a value, not a miss
    assert by_count.get("b", _MISS) is None and "b" in by_count
    assert by_count.get("a") == 1  # refreshes "a": "b" is now the oldest
    by_count.put("c", 3)
    assert "a" in by_count and "b" not in by_count and len(by_count) == 2
    assert by_count.get("b", _MISS) is _MISS

    by_bytes = _LRU(100, lambda v: v.nbytes)
    by_bytes.put("x", np.zeros(5))  # 40 B
    by_bytes.put("y", np.zeros(5))
    by_bytes.put("big", np.zeros(13))  # 104 B: larger than the budget
    assert "big" not in by_bytes and by_bytes.used == 80
    by_bytes.get("x")
    by_bytes.put("z", np.zeros(4))  # 32 B: evicts the oldest, "y"
    assert sorted(by_bytes._d) == ["x", "z"] and by_bytes.used == 72
    by_bytes.put("x", np.zeros(1))  # replacing an entry re-counts its bytes
    assert by_bytes.used == 40


def test_postings_cache_keeps_a_hot_term(pos_index):
    """A term read again between 300 other terms stays cached: the postings
    cache is an LRU of 256 terms, not a FIFO that evicts the hot term
    after 256 inserts."""
    reader = IndexReader(DIR_POS)
    terms = list(reader.terms)
    hot, others = terms[0], terms[1:301]
    assert reader.postings(hot)[0].size
    for t in others:
        reader.postings(t)
        before = reader.blocks_decoded
        reader.postings(hot)
        assert reader.blocks_decoded == before, t  # a hit decodes nothing
    assert len(reader._postings_cache) == 256
