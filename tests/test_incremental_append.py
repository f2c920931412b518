"""Incremental append: adding corpus files after the existing ones (in sort
order) must reuse every existing phase-1 partition untouched, re-run only the
merge stages, and produce an index identical to a from-scratch build over the
full corpus (reference analog: ES incremental add, SURVEY.md §2.2 K1)."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nmr_fair_dos_ray.fixtures import make_corpus
from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index
from nmr_fair_dos_ray.search.engine import IndexReader, Searcher

BASE = "/tmp/nmr_fair_dos_ray/test_incr"
CFG = IndexConfig(
    token_cols=("path", "lang"), field_cols=("repo", "lang"),
    stored_cols=("repo", "path"), num_shards=4,
)


@pytest.fixture(scope="module")
def corpus_dirs():
    shutil.rmtree(BASE, ignore_errors=True)
    os.makedirs(f"{BASE}/grow", exist_ok=True)
    os.makedirs(f"{BASE}/full", exist_ok=True)
    # two initial files + one appended file (named to sort AFTER the others)
    src = make_corpus(300, f"{BASE}/src.parquet", rows_per_group=100)
    t = pq.read_table(src)
    pq.write_table(t.slice(0, 100), f"{BASE}/grow/a.parquet", row_group_size=50)
    pq.write_table(t.slice(100, 100), f"{BASE}/grow/b.parquet", row_group_size=50)
    pq.write_table(t.slice(0, 100), f"{BASE}/full/a.parquet", row_group_size=50)
    pq.write_table(t.slice(100, 100), f"{BASE}/full/b.parquet", row_group_size=50)
    pq.write_table(t.slice(200, 100), f"{BASE}/full/c.parquet", row_group_size=50)
    return t


def test_append_reuses_invert_and_matches_full_build(corpus_dirs):
    t = corpus_dirs
    idx_grow = f"{BASE}/idx_grow"
    idx_full = f"{BASE}/idx_full"
    build_index(f"{BASE}/grow", idx_grow, CFG)
    run0 = os.path.join(idx_grow, "runs", "run_000000.parquet")
    mtime_before = os.path.getmtime(run0)

    # append file c (sorts after a, b) and rebuild incrementally
    pq.write_table(t.slice(200, 100), f"{BASE}/grow/c.parquet", row_group_size=50)
    man = build_index(f"{BASE}/grow", idx_grow, CFG, resume=True)
    assert os.path.getmtime(run0) == mtime_before, "existing run was rebuilt"
    assert man["stats"]["n_docs"] == 300

    build_index(f"{BASE}/full", idx_full, CFG)
    rg, rf = IndexReader(idx_grow), IndexReader(idx_full)
    assert set(rg.terms) == set(rf.terms)
    for term in rf.terms:
        dg, tg = rg.postings(term)
        dff, tf = rf.postings(term)
        np.testing.assert_array_equal(dg, dff)
        np.testing.assert_array_equal(tg, tf)
    sg, sf_ = Searcher(rg), Searcher(rf)
    for q in ("def return config", "getUserName merge", "data_loader"):
        assert sg.search(q, k=10) == sf_.search(q, k=10)
        # post-append BMW top-k must be bit-identical to the from-scratch
        # build's (block bounds are rebuilt in the merge, not carried over)
        assert sg.search(q, k=10, algorithm="bmw") \
            == sf_.search(q, k=10, algorithm="bmw")


def test_mid_order_insert_degrades_to_full_rebuild(corpus_dirs):
    """A file inserted BETWEEN existing ones shifts docID bases — the build
    must detect it and produce correct results (full rebuild path)."""
    t = corpus_dirs
    d = f"{BASE}/mid"
    os.makedirs(d, exist_ok=True)
    pq.write_table(t.slice(0, 100), f"{d}/a.parquet", row_group_size=50)
    pq.write_table(t.slice(200, 100), f"{d}/c.parquet", row_group_size=50)
    idx = f"{BASE}/idx_mid"
    build_index(d, idx, CFG)
    pq.write_table(t.slice(100, 100), f"{d}/b.parquet", row_group_size=50)
    build_index(d, idx, CFG, resume=True)
    rf = IndexReader(f"{BASE}/idx_full")
    rm = IndexReader(idx)
    assert rm.n_docs == 300
    assert set(rm.terms) == set(rf.terms)
    for q in ("def return config", "getUserName merge"):
        assert Searcher(rm).search(q, k=10) == Searcher(rf).search(q, k=10)


def _snapshot(d):
    return {
        os.path.relpath(os.path.join(root, f), d):
            (os.path.getmtime(os.path.join(root, f)),
             os.path.getsize(os.path.join(root, f)))
        for root, _, files in os.walk(d) for f in files
    }


@pytest.mark.parametrize("legacy_log", [False, True])
def test_append_on_copied_index(corpus_dirs, legacy_log):
    """Append on a COPY of a 90 % index: the copy must resume from its own
    run/docs files and match a fresh 100 % build, and the original index
    must stay untouched — also for partition logs written with absolute
    paths by older builds (regression: the copy's prune kept the original's
    files, deleted its own, and search raised IndexError)."""
    from nmr_fair_dos_ray.state.manifest import PartitionLog

    t = corpus_dirs
    d = f"{BASE}/copy_src_{legacy_log}"
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    for i in range(9):
        pq.write_table(t.slice(30 * i, 30), f"{d}/f{i}.parquet")
    orig, copy = f"{BASE}/idx_orig_{legacy_log}", f"{BASE}/idx_copy_{legacy_log}"
    shutil.rmtree(orig, ignore_errors=True)
    shutil.rmtree(copy, ignore_errors=True)
    build_index(d, orig, CFG)
    plog = PartitionLog(orig, "invert")
    log = plog.read()
    assert not any(os.path.isabs(p) for p in log["run_path"].to_pylist())
    if legacy_log:  # the absolute layout older builds logged
        for col in ("run_path", "docs_path", "df_path"):
            i = log.column_names.index(col)
            log = log.set_column(i, col, pa.array(
                [os.path.abspath(os.path.join(orig, p))
                 for p in log[col].to_pylist()]))
        plog.replace(log)
    before = _snapshot(orig)
    shutil.copytree(orig, copy)

    pq.write_table(t.slice(270, 30), f"{d}/f9.parquet")
    build_index(d, copy, CFG, resume=True)
    assert _snapshot(orig) == before

    fresh = f"{BASE}/idx_fresh_{legacy_log}"
    shutil.rmtree(fresh, ignore_errors=True)
    build_index(d, fresh, CFG)
    sc, sf_ = Searcher(IndexReader(copy)), Searcher(IndexReader(fresh))
    assert sc.r.n_docs == sf_.r.n_docs == 300
    for q in ("def return config", "getUserName merge", "data_loader"):
        assert sc.search(q, k=10) == sf_.search(q, k=10), q
