"""Positional-index benchmark: build cost + bytes of store_positions,
phrase/conjunctive/facet/near/unordered-near query latency, and the
reader's resident positional cache bytes after those passes, over the
sf-bench fixture corpus (150k docs). Prints one JSON line; numbers
recorded in BASELINE.md.

Usage: RAY_GRAFT_CPUS=32 python tools/bench_positions.py
"""

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "1073741824", "MALLOC_TRIM_THRESHOLD_": "-1"}
if os.environ.get("MALLOC_MMAP_THRESHOLD_") != _MALLOC_ENV["MALLOC_MMAP_THRESHOLD_"]:
    os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, **_MALLOC_ENV})

NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def main() -> dict:
    import logging

    import numpy as np
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from nmr_fair_dos_ray.fixtures import fixture_dir
    from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index
    from nmr_fair_dos_ray.search.engine import IndexReader, Searcher

    fx = fixture_dir("sf-bench")
    base = dict(token_cols=("path", "lang"), field_cols=("repo", "path", "lang"),
                stored_cols=("repo", "path", "commit", "lang"), num_shards=64)
    out: dict = {"metric": "positional_index", "num_cpus": NUM_CPUS}
    readers = {}
    for name, pos in (("plain", False), ("positional", True)):
        idx = f"/tmp/nmr_fair_dos_ray/bench_pos_{name}"
        shutil.rmtree(idx, ignore_errors=True)
        t0 = time.time()
        man = build_index(fx["corpus"], idx, IndexConfig(store_positions=pos, **base))
        out[name] = {
            "build_sec": round(time.time() - t0, 3),
            "index_bytes": man["stats"]["shards_bytes"],
        }
        out["n_docs"] = man["stats"]["n_docs"]
        readers[name] = IndexReader(idx)
    out["bytes_overhead"] = round(
        out["positional"]["index_bytes"] / out["plain"]["index_bytes"] - 1, 4
    )

    s = Searcher(readers["positional"])
    # phrase workload: bigrams sampled from real fixture queries + stress
    import pyarrow.parquet as pq

    qs = [r["query"] for r in pq.read_table(fx["queries"]).to_pylist()]
    toks = [w for q in qs for w in q.split() if ":" not in w]
    phrases = [f"{a} {b}" for a, b in zip(toks, toks[1:])][:40] or ["def return"]

    def timed(fn, items, warm=0):
        """p50/p99 ms and total hits of ``fn`` over 5 passes of ``items``,
        after ``warm`` untimed passes over the first 10."""
        for _ in range(warm):
            for it in items[:10]:
                fn(it)
        lat, n_hits = [], 0
        for _ in range(5):
            for it in items:
                t0 = time.time()
                n_hits += len(fn(it))
                lat.append((time.time() - t0) * 1000)
        return {"n_queries": len(lat), "total_hits": n_hits,
                "p50_ms": round(float(np.percentile(lat, 50)), 3),
                "p99_ms": round(float(np.percentile(lat, 99)), 3)}

    out["phrase"] = timed(lambda p: s.search_phrase(p, k=10), phrases, warm=2)
    out["and"] = timed(lambda q: s.search_and(q, k=10), qs[:40])
    out["facet"] = timed(lambda q: s.facet_counts(q, "lang"), qs[:20])
    # ordered and unordered proximity over the same bigrams (slop=2): must
    # track the phrase p50 closely — same cached keys, one extra
    # searchsorted per term
    for name, ordered in (("near_slop2", True), ("near_unordered_slop2", False)):
        out[name] = timed(lambda p: s.search_near(p, k=10, slop=2, ordered=ordered),
                          phrases, warm=2)
    # resident bytes of the reader's one positional cache (the per-term
    # global keys) after the phrase, near and unordered passes
    out["positional_cache_mb"] = round(s.r._p_keys_cache.used / 2**20, 1)
    ray.shutdown()
    return out


if __name__ == "__main__":
    print(json.dumps(main()))
