"""Multi-field best_fields scoring (ES multi_match type=best_fields).

Contract: per doc, score = max over fields of that field's BM25 (each field
its OWN postings/df/length norms), + tie_breaker * (sum - max); ranked
(score desc, doc_id asc). With one searcher it must collapse to plain bm25 search.
"""

import shutil

import numpy as np
import pytest

from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index
from nmr_fair_dos_ray.search.engine import (
    IndexReader, Searcher, best_fields_search,
)

DIR_A = "/tmp/nmr_fair_dos_ray/test_bf_path"
DIR_B = "/tmp/nmr_fair_dos_ray/test_bf_lang"


@pytest.fixture(scope="module")
def two_fields(sf_unit):
    """Two single-field indexes over the SAME doc_id space: path-only and
    lang-only (distinct token distributions + length norms)."""
    for d, col in ((DIR_A, "path"), (DIR_B, "lang")):
        shutil.rmtree(d, ignore_errors=True)
        build_index(sf_unit["corpus"], d, IndexConfig(
            token_cols=(col,), field_cols=("repo",), stored_cols=("repo",),
            num_shards=4,
        ))
    return Searcher(IndexReader(DIR_A)), Searcher(IndexReader(DIR_B))


def _full_map(s, q):
    return dict(s.search(q, k=100_000))


def test_best_fields_is_per_doc_max(two_fields):
    sa, sb = two_fields
    q = "config python merge"
    ma, mb = _full_map(sa, q), _full_map(sb, q)
    assert ma and mb, "fixture must match in both fields"
    want = {
        d: max(ma.get(d, 0.0), mb.get(d, 0.0))
        for d in set(ma) | set(mb)
    }
    got = best_fields_search([sa, sb], q, k=100_000)
    assert dict(got) == want
    # ranked (score desc, doc asc)
    keys = [(-sc, d) for d, sc in got]
    assert keys == sorted(keys)
    # some doc must genuinely be decided by each field (max is not trivial)
    assert any(d not in ma for d in mb) or any(
        mb.get(d, 0.0) > ma.get(d, 0.0) for d in ma
    )


def test_single_field_collapses_to_taat(two_fields):
    sa, _ = two_fields
    q = "config merge"
    assert best_fields_search([sa], q, k=10) == sa.search(q, k=10)


def test_tie_breaker_adds_scaled_others(two_fields):
    sa, sb = two_fields
    q = "config python"
    ma, mb = _full_map(sa, q), _full_map(sb, q)
    tb = 0.3
    got = dict(best_fields_search([sa, sb], q, k=100_000, tie_breaker=tb))
    for d, sc in got.items():
        a, b = ma.get(d, 0.0), mb.get(d, 0.0)
        want = max(a, b) + tb * (a + b - max(a, b))
        assert sc == pytest.approx(want, rel=1e-12), d


def test_no_match_and_exact_filter(two_fields):
    sa, sb = two_fields
    assert best_fields_search([sa, sb], "zzqxnope", k=10) == []
    # exact field filters apply per searcher (repo indexed in both)
    repo_term = next(t for t in sa.r.terms_with_prefix("repo:"))
    got = best_fields_search([sa, sb], f"config {repo_term}", k=1000)
    allowed = set(sa.r.postings(repo_term)[0].tolist())
    assert got and all(d in allowed for d, _ in got)


DIR_C = "/tmp/nmr_fair_dos_ray/test_bf_repo"


@pytest.fixture(scope="module")
def three_fields(two_fields, sf_unit):
    """Adds a third single-field index (repo tokens) over the same doc_id
    space — the >=3-field dis_max case where sum - max aggregates TWO
    non-best fields."""
    shutil.rmtree(DIR_C, ignore_errors=True)
    build_index(sf_unit["corpus"], DIR_C, IndexConfig(
        token_cols=("repo",), field_cols=("repo",), stored_cols=("repo",),
        num_shards=4,
    ))
    sa, sb = two_fields
    return sa, sb, Searcher(IndexReader(DIR_C))


def test_three_field_tie_breaker(three_fields):
    sa, sb, sc = three_fields
    q = "config python merge"
    tb = 0.3
    maps = [_full_map(s, q) for s in (sa, sb, sc)]
    assert sum(bool(m) for m in maps) >= 2, "need >=2 matching fields"
    want = {}
    for d in set().union(*maps):
        scores = np.array([m.get(d, 0.0) for m in maps], np.float64)
        best = float(scores.max())
        want[d] = best + tb * (float(scores.sum()) - best)
    got = best_fields_search([sa, sb, sc], q, k=100_000, tie_breaker=tb)
    assert dict(got) == pytest.approx(want)
    keys = [(-sc_, d) for d, sc_ in got]
    assert keys == sorted(keys)
    # the tie_breaker must actually move some score vs plain dis_max
    got0 = dict(best_fields_search([sa, sb, sc], q, k=100_000))
    assert any(abs(got0[d] - s) > 1e-12 for d, s in got)
