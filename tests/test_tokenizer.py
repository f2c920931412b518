"""Tokenizer unit tests: row/batch equivalence, identifier splitting, hashing."""

from collections import Counter

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from nmr_fair_dos_ray.tokenizer import Tokenizer, term_hash, term_hash_one


CASES = [
    "def getUserName(self): return self.user_name",
    "HTMLParser utf8 x42 __init__ snake_case_name ABCdef",
    "",
    "   \n\t ",
    "naïve café 测试 😀 mixed123Case",
    "a_B_c __ _x_ 42 A",
    "path/to/some_file.py",
    None,
]


@pytest.mark.parametrize("mode", ["code", "simple"])
def test_batch_matches_row_impl(mode):
    tok = Tokenizer(mode)
    rows, ids, _, terms = tok.batch_token_ids(pa.array(CASES, pa.string()), False)
    got: dict[int, Counter] = {}
    for r, t in zip(rows.tolist(), terms.take(pa.array(ids)).to_pylist()):
        got.setdefault(r, Counter())[t] += 1
    for i, text in enumerate(CASES):
        assert got.get(i, Counter()) == Counter(tok.tokenize(text or "")), (mode, text)


def test_identifier_splitting():
    tok = Tokenizer("code")
    assert tok.tokenize("getUserName") == ["getusername", "get", "user", "name"]
    assert tok.tokenize("snake_case") == ["snake_case", "snake", "case"]
    assert tok.tokenize("HTMLParser") == ["htmlparser", "html", "parser"]
    assert tok.tokenize("utf8") == ["utf8", "utf", "8"]
    assert tok.tokenize("plain") == ["plain"]  # no duplicate emission
    assert tok.tokenize("__init__") == ["__init__", "init"]


def test_simple_mode_matches_sql_semantics():
    import duckdb

    tok = Tokenizer("simple")
    for text in ["Hello, World_x 42", "a+b=c", "ÜBER maß"]:
        sql = duckdb.sql(
            "select list_filter(string_split_regex(lower(?), '[^a-z0-9]+'), x -> x <> '')",
            params=[text],
        ).fetchone()[0]
        assert tok.tokenize(text) == sql


def test_query_tokenizer_exact_fields():
    tok = Tokenizer("code")
    terms, exact = tok.tokenize_query("getUser path:src/a.py repo:org1/repo2 foo")
    assert exact == ["path:src/a.py", "repo:org1/repo2"]
    assert terms == sorted(set(terms))
    assert "foo" in terms and "getuser" in terms


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(max_size=40), max_size=8), st.sampled_from(["code", "simple"]))
def test_batch_row_equivalence_property(texts, mode):
    tok = Tokenizer(mode)
    rows, ids, _, terms = tok.batch_token_ids(pa.array(texts, pa.string()), False)
    got: dict[int, Counter] = {}
    for r, t in zip(rows.tolist(), terms.take(pa.array(ids)).to_pylist()):
        got.setdefault(r, Counter())[t] += 1
    for i, text in enumerate(texts):
        assert got.get(i, Counter()) == Counter(tok.tokenize(text))


def _layout(texts: list, layout: str, typ=pa.string()):
    """``texts`` as a plain, sliced (offset into shared buffers), chunked or
    large_string array."""
    if layout == "sliced":
        return pa.array(["pad Pad"] + texts + ["padX"], typ).slice(1, len(texts))
    if layout == "chunked":
        k = len(texts) // 2
        return pa.chunked_array([pa.array(texts[:k], typ), pa.array(texts[k:], typ)], typ)
    if layout == "large":
        return pa.array(texts, pa.large_string())
    return pa.array(texts, typ)


_LAYOUTS = ["plain", "sliced", "chunked", "large"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text(alphabet="aAbBzZ09_ é-", max_size=24), max_size=6),
    st.sampled_from(["code", "simple"]),
    st.sampled_from(_LAYOUTS),
)
def test_batch_stream_is_position_exact(texts, mode, layout):
    """The batch stream is exactly ``enumerate(tokenize(text))`` row after
    row — (row, term, position) in (row, position) order — on an
    identifier-heavy alphabet (camelCase, digit and underscore boundaries,
    non-ASCII separators), with empty and null rows between token-bearing
    ones (empty rows share one offset) and every array layout."""
    rows_in = [x for t in texts for x in (t, "", None)]
    tok = Tokenizer(mode)
    arr = _layout(rows_in, layout)
    want = [(i, term, p) for i, x in enumerate(rows_in)
            for p, term in enumerate(tok.tokenize(x or ""))]
    rows, ids, pos, terms = tok.batch_token_ids(arr)
    got = list(zip(rows.tolist(), terms.take(pa.array(ids)).to_pylist(), pos.tolist()))
    assert got == want
    assert terms.type == pa.string()
    assert len(set(terms.to_pylist())) == len(terms)  # one id per term


@given(
    st.lists(
        st.one_of(
            st.text(max_size=30),
            st.text(min_size=200, max_size=240),  # 200+ chars, 200+ bytes
            st.sampled_from(["", "déjà", "测试", "😀x", "getUserName"]),
        ),
        min_size=1, max_size=20,
    ),
    st.sampled_from(["list", "plain", "sliced", "chunked", "large"]),
)
@settings(max_examples=50, deadline=None)
def test_term_hash_vectorized_matches_scalar(terms, layout):
    terms = terms + terms[::2]  # duplicates, hashed once each
    arr = terms if layout == "list" else _layout(terms, layout)
    h = term_hash(arr)
    assert h.dtype == np.uint64
    assert h.tolist() == [term_hash_one(t) for t in terms]
