"""Watermark-driven incremental harvest windows: two consecutive windows
partition the envelope set, the watermark persists and resumes, finished
windows are skipped whole, and source-side filters prune before synthesis."""

import json
import os
from datetime import datetime, timedelta

import pyarrow.parquet as pq

from nmr_fair_dos_ray.pipelines.harvest import (
    harvest_window, max_source_timestamp, read_watermark,
)

SF = "/root/testdata/sf0.001"
EPOCH = datetime(2024, 1, 1)


def _rows(part_dir: str):
    import pandas as pd

    files = [os.path.join(part_dir, p) for p in os.listdir(part_dir)
             if p.endswith(".parquet")]
    return pd.concat([pq.read_table(f).to_pandas() for f in files])


def test_two_windows_partition_and_watermark_advances(tmp_path, ray_session):
    out = str(tmp_path / "harvest")
    state = str(tmp_path / "state")
    mid = EPOCH + timedelta(minutes=7 * 250)  # docs 0..249 in window 1

    w1 = harvest_window(SF, out, state, end=mid)
    assert read_watermark(state) == mid  # persisted
    w2 = harvest_window(SF, out, state)  # start defaults to the watermark
    assert w2["start"] == mid.isoformat()
    assert read_watermark(state) == max_source_timestamp(SF)

    r1 = _rows(os.path.join(out, w1["window"]))
    r2 = _rows(os.path.join(out, w2["window"]))
    # windows partition the envelope set: pids are disjoint, union == a
    # full single-window harvest
    p1 = set(r1[r1.kind == "entry"].pid)
    p2 = set(r2[r2.kind == "entry"].pid)
    assert p1 and p2 and not (p1 & p2)
    full_state = str(tmp_path / "state_full")
    wf = harvest_window(SF, str(tmp_path / "full"), full_state)
    rf = _rows(os.path.join(str(tmp_path / "full"), wf["window"]))
    assert p1 | p2 == set(rf[rf.kind == "entry"].pid)
    assert len(r1) + len(r2) == len(rf)


def test_finished_window_is_skipped_and_rerun_identical(tmp_path, ray_session):
    out = str(tmp_path / "h2")
    state = str(tmp_path / "s2")
    mid = EPOCH + timedelta(minutes=7 * 100)
    w1 = harvest_window(SF, out, state, start=EPOCH, end=mid)
    again = harvest_window(SF, out, state, start=EPOCH, end=mid)
    assert again.get("skipped") == "window already harvested"
    assert again["n_rows"] == w1["n_rows"]
    # empty window short-circuits
    empty = harvest_window(SF, out, state, start=mid, end=mid)
    assert empty["n_rows"] == 0 and empty["skipped"] == "empty window"


def test_repo_filter_prunes_at_source(tmp_path, ray_session):
    from nmr_fair_dos_ray.sources.envelopes import synthesize_envelopes

    chem = synthesize_envelopes(SF, repo="chemotion").to_pandas()
    nmrx = synthesize_envelopes(SF, repo="nmrxiv").to_pandas()
    both = synthesize_envelopes(SF).to_pandas()
    assert set(chem.repo) == {"chemotion"} and set(nmrx.repo) == {"nmrxiv"}
    assert len(chem) + len(nmrx) == len(both)
    # watermark files are per-source
    out, state = str(tmp_path / "h3"), str(tmp_path / "s3")
    harvest_window(SF, out, state, repo="chemotion")
    assert read_watermark(state, "chemotion") is not None
    assert read_watermark(state, "all") is None
    with open(os.path.join(state, "last_run_chemotion.json")) as f:
        assert "last_run" in json.load(f)


def test_same_window_different_sources_both_harvest(tmp_path, ray_session):
    """Regression: the window tag must carry the source — two repos
    harvesting the SAME time window must not share a partition directory
    (the second was skipped as already-harvested while its watermark still
    advanced: silent permanent data loss)."""
    out, state = str(tmp_path / "h4"), str(tmp_path / "s4")
    end = EPOCH + timedelta(minutes=7 * 200)
    w_chem = harvest_window(SF, out, state, start=EPOCH, end=end,
                            repo="chemotion")
    w_nmr = harvest_window(SF, out, state, start=EPOCH, end=end,
                           repo="nmrxiv")
    assert "skipped" not in w_chem and "skipped" not in w_nmr
    assert w_chem["window"] != w_nmr["window"]
    rc = _rows(os.path.join(out, w_chem["window"]))
    rn = _rows(os.path.join(out, w_nmr["window"]))
    assert len(rc) and len(rn)
    assert set(rc[rc.kind == "entry"].repo) == {"chemotion"}
    assert set(rn[rn.kind == "entry"].repo) == {"nmrxiv"}


def test_backfill_window_keeps_watermark(tmp_path, ray_session):
    """A historical backfill harvested after a newer window must not move
    the watermark backwards (the next default window would re-harvest)."""
    out, state = str(tmp_path / "h4"), str(tmp_path / "s4")
    late = EPOCH + timedelta(minutes=7 * 200)
    harvest_window(SF, out, state, start=EPOCH + timedelta(minutes=7 * 100),
                   end=late)
    assert read_watermark(state) == late
    back = harvest_window(SF, out, state, start=EPOCH,
                          end=EPOCH + timedelta(minutes=7 * 50))
    assert back["n_rows"] > 0 and "skipped" not in back
    assert read_watermark(state) == late
