"""Session-scoped Ray for all tests (init ONCE, per driver contract)."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    # keep Ray worker heaps warm on this slow-page-fault VM (see bench.py)
    os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", "1073741824")
    os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", "-1")
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_unit():
    from nmr_fair_dos_ray.fixtures import fixture_dir

    return fixture_dir("sf-unit")


@pytest.fixture(scope="session")
def sf_test():
    from nmr_fair_dos_ray.fixtures import fixture_dir

    return fixture_dir("sf-test")


class SimulatedCrash(RuntimeError):
    """Raised in place of a durable write by the ``durable_writes`` fixture."""


class DurableWrites:
    """Counts this process's durable writes — every ``os.replace``, the
    rename that makes an atomic write land — by destination file name, and
    can make the n-th one onto a given name raise :class:`SimulatedCrash`
    instead, leaving the target as it was: a crash of the building process
    at that step. Ray workers run in other processes and are not affected."""

    error = SimulatedCrash

    def __init__(self, real):
        self.real = real
        self.counts: dict[str, int] = {}
        self.crash: tuple[str, int] | None = None

    def crash_at(self, name: str, n: int) -> None:
        self.counts, self.crash = {}, (name, n)

    def replace(self, src, dst, *args, **kwargs):
        name = os.path.basename(dst)
        self.counts[name] = self.counts.get(name, 0) + 1
        if self.crash == (name, self.counts[name]):
            self.crash = None
            raise SimulatedCrash(f"crash at write #{self.counts[name]} of {name}")
        return self.real(src, dst, *args, **kwargs)


@pytest.fixture()
def durable_writes(monkeypatch):
    dw = DurableWrites(os.replace)
    monkeypatch.setattr(os, "replace", dw.replace)
    return dw


def _window_bounds_cover_scores(searcher, queries) -> None:
    """For each query, split its live postings' doc-id span into 3 and 8
    equal windows as the windowed scorer does: every window bound is ≥ the
    exact score of each live doc inside the window."""
    import numpy as np

    r = searcher.r
    for q in queries:
        tids = r.term_ids(r.tokenizer.tokenize_query(q)[0])
        postings = r.postings_many(tids)
        docs = postings[0]
        if docs.size < 8:
            continue
        uniq, acc = searcher._score_map(tids, *postings, None)
        lo, hi = int(docs.min()), int(docs.max()) + 1
        for n_win in (3, 8):
            edges = lo + (hi - lo) * np.arange(n_win + 1) // n_win
            bounds = searcher._window_bounds(tids, edges)
            inside = bounds[np.searchsorted(edges, uniq, "right") - 1]
            assert (acc <= inside).all(), (q, n_win)


@pytest.fixture(scope="session")
def window_bounds_cover_scores():
    return _window_bounds_cover_scores
