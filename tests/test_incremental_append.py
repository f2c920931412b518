"""Incremental append: adding corpus files after the existing ones (in sort
order) must reuse every existing phase-1 partition untouched, re-run only the
merge stages, and produce an index identical to a from-scratch build over the
full corpus (reference analog: ES incremental add, SURVEY.md §2.2 K1)."""

import os
import shutil

from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nmr_fair_dos_ray.fixtures import make_corpus
from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index
from nmr_fair_dos_ray.search import engine
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
    from nmr_fair_dos_ray.state.manifest import PartitionLog

    t = corpus_dirs
    idx_grow = f"{BASE}/idx_grow"
    idx_full = f"{BASE}/idx_full"
    build_index(f"{BASE}/grow", idx_grow, CFG)
    docs0 = os.path.join(idx_grow, "docs", "docs_000000.parquet")
    mtime_before = os.stat(docs0).st_mtime_ns
    n_old = PartitionLog(idx_grow, "invert").read().num_rows

    # append file c (sorts after a, b) and rebuild incrementally
    pq.write_table(t.slice(200, 100), f"{BASE}/grow/c.parquet", row_group_size=50)
    man = build_index(f"{BASE}/grow", idx_grow, CFG, resume=True)
    assert os.stat(docs0).st_mtime_ns == mtime_before, "existing docs file was rewritten"
    # only the new items were inverted: the kept partitions' postings came
    # from the base runs (logged without a run of their own)
    log = PartitionLog(idx_grow, "invert").read()
    inverted = sorted(w for w, rp in zip(log["work_item_id"].to_pylist(),
                                          log["run_path"].to_pylist()) if rp)
    assert inverted == list(range(n_old, log.num_rows))
    assert man["stages"]["base"]["runs"]
    assert man["stats"]["n_docs"] == 300
    assert not os.path.exists(os.path.join(idx_grow, "runs"))

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
        want = sf_.search(q, k=10)
        assert sg.search(q, k=10) == want
        # post-append windowed top-k must be bit-identical to the
        # from-scratch build's (block bounds are rebuilt in the merge, not
        # carried over)
        with mock.patch.object(engine, "WINDOW_POSTINGS", 16):
            assert sg.search(q, k=10) == want


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


# ---- appends that crash at a durable step (hot terms, positions)
_SALTED = dict(
    token_cols=("path", "lang"), field_cols=("repo", "lang"),
    stored_cols=("repo", "path"), num_shards=3, store_positions=True,
    hot_df_threshold=20, n_salts=3,
)
SALTED = IndexConfig(**_SALTED)
QS = ("def return config", "getUserName merge", "data_loader", "self value")


def _searchable(d):
    """What a reader opens: shard files, doc store, manifest."""
    return {p: v for p, v in _snapshot(d).items()
            if p == "manifest.json" or p.startswith(("shards", "docs"))}


def _assert_same_index(d, ref):
    ra, rb = IndexReader(d), IndexReader(ref)
    assert (ra.n_docs, ra.avgdl) == (rb.n_docs, rb.avgdl)
    assert set(ra.terms) == set(rb.terms)
    for term in rb.terms:
        for x, y in zip(ra.postings(term), rb.postings(term)):
            np.testing.assert_array_equal(x, y)
    sa, sb = Searcher(ra), Searcher(rb)
    for q in QS:
        want = sb.search(q, k=10)
        assert sa.search(q, k=10) == want, q
        with mock.patch.object(engine, "WINDOW_POSTINGS", 16):
            assert sa.search(q, k=10) == want, q
    assert sa.search_phrase("def return", k=20) == sb.search_phrase("def return", k=20)
    for scratch in ("runs", "hotparts"):
        assert not os.path.exists(os.path.join(d, scratch))


@pytest.fixture(scope="module")
def salted_append(corpus_dirs):
    """A finished two-file index (``old``), the corpus dir grown by a third
    file, and a fresh build over all three (``ref``)."""
    t = corpus_dirs
    d = f"{BASE}/salted_src"
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    pq.write_table(t.slice(0, 100), f"{d}/a.parquet", row_group_size=50)
    pq.write_table(t.slice(100, 100), f"{d}/b.parquet", row_group_size=50)
    old, ref = f"{BASE}/salted_old", f"{BASE}/salted_ref"
    build_index(d, old, SALTED, resume=False)
    pq.write_table(t.slice(200, 100), f"{d}/c.parquet", row_group_size=50)
    build_index(d, ref, SALTED, resume=False)
    return d, old, ref


def _copy(src, name):
    dst = f"{BASE}/{name}"
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def test_finished_index_resume_is_a_noop(corpus_dirs):
    """A same-input resume of a finished index rewrites nothing, and the
    finished index keeps no build scratch (phase-1 runs, hot parts)."""
    d = f"{BASE}/noop"
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    pq.write_table(corpus_dirs.slice(0, 120), f"{d}/a.parquet", row_group_size=40)
    idx = f"{BASE}/idx_noop"
    cfg = IndexConfig(**{**_SALTED, "hot_df_threshold": 10})
    man = build_index(d, idx, cfg, resume=False)
    assert man["stages"]["hot"]["n_hot"] > 0  # the hot-part path ran
    before = _snapshot(idx)
    build_index(d, idx, cfg, resume=True)
    assert _snapshot(idx) == before
    for scratch in ("runs", "hotparts"):
        assert not os.path.exists(os.path.join(idx, scratch))


def test_append_crash_before_base_runs_leaves_old_index(salted_append, durable_writes):
    """A crash before the base runs are recorded leaves the old index as it
    was — same files, same answers — and a rerun completes the append."""
    d, old, ref = salted_append
    idx = _copy(old, "salted_crash_pre")
    before = _searchable(idx)
    want = [Searcher(IndexReader(idx)).search(q, k=10) for q in QS]
    durable_writes.crash_at("manifest.json", 1)  # the base-run record
    with pytest.raises(durable_writes.error):
        build_index(d, idx, SALTED, resume=True)
    assert _searchable(idx) == before
    assert [Searcher(IndexReader(idx)).search(q, k=10) for q in QS] == want
    build_index(d, idx, SALTED, resume=True)
    _assert_same_index(idx, ref)


@pytest.mark.parametrize("point", ["after_base", "after_shards_cleared",
                                   "before_scratch_deleted"])
def test_append_crash_resumes_to_no_crash_result(salted_append, durable_writes, point):
    """A crash after the base runs are durable — before the old shards are
    cleared, after they are cleared (cold shards merged, hot merge not
    written), or after the merge with the scratch still on disk — resumes
    to the index a clean append builds."""
    d, old, ref = salted_append
    if point == "before_scratch_deleted":
        # a clean append (hot terms go through the base-run bucket) counts
        # the manifest writes; the last one marks the build finished
        clean = _copy(old, "salted_clean")
        man = build_index(d, clean, SALTED, resume=True)
        assert man["stages"]["base"]["runs"] and man["stages"]["hot"]["n_hot"] > 0
        _assert_same_index(clean, ref)
    crash = {
        "after_base": ("manifest.json", 2),  # the invert stage mark
        "after_shards_cleared": ("shard_hot.parquet", 1),
        "before_scratch_deleted": ("manifest.json",
                                   durable_writes.counts.get("manifest.json")),
    }[point]
    idx = _copy(old, f"salted_crash_{point}")
    durable_writes.crash_at(*crash)
    with pytest.raises(durable_writes.error):
        build_index(d, idx, SALTED, resume=True)
    if point == "after_base":
        assert os.listdir(os.path.join(idx, "shards"))  # not cleared yet
    if point == "after_shards_cleared":
        assert "shard_hot.parquet" not in os.listdir(os.path.join(idx, "shards"))
    if point == "before_scratch_deleted":
        assert os.path.isdir(os.path.join(idx, "runs"))
    build_index(d, idx, SALTED, resume=True)
    _assert_same_index(idx, ref)
