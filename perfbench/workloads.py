"""The user path every run walks, and the checks on each of its answers.

A run sets up (Ray, the index builds, the reader open, one warm pass of the
search list), then walks three phases in order:

* search: a closed loop over the per-mode query list on one in-process
  ``Searcher``, with no Ray call in the timed loop;
* ingest: cycles of a warm ``build_index`` of the first 90 % of the files,
  then append the last file, delete 10 % of the docs, compact, refresh stats;
* serve: a two-actor ``DocShardedSearcher`` answering each query of a stream
  once (top-10 plus ``fetch_docs``), then a ``QueryScorer`` Ray Data job.

Every phase runs a fixed number of rounds, so every end-to-end metric has a
value on every workload; the workload named on the command line then adds
whole rounds of its own phase for ``--seconds``. The search phase runs in
three slices: before ingest, between ingest and serve, and after serve.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import procs
from spans import Tracer

from nmr_fair_dos_ray.pipelines import index_build, lifecycle
from nmr_fair_dos_ray.search import distributed, engine
from nmr_fair_dos_ray.tokenizer import Tokenizer

MAIN = index_build.IndexConfig(
    token_cols=("path",), field_cols=("repo", "path", "lang"),
    stored_cols=("repo", "path", "lang"), num_shards=4, store_positions=True,
    champion_m=8, hot_df_threshold=200,
)
PATHS = index_build.IndexConfig(content_col="path", num_shards=2)
STORED = ["repo", "path", "lang"]
POOL = 2
K = 10
#: rounds every phase runs (search: per slice) before the workload's own
#: phase adds rounds for ``--seconds``
MIN_ROUNDS = {"ingest": 2, "search": 1, "serve": 100}
#: the search phase runs in this many slices spread over the run
SEARCH_SLICES = 3
BATCH_SIZE = 10


p50 = statistics.median


def pct(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def _plain(out):
    """An engine answer as plain values, to compare with the expected one."""
    if isinstance(out, int):
        return out
    if isinstance(out, pa.Table):
        return out.to_pylist()
    return [list(h) for h in out]


def _dir_bytes(d: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f)) for r, _, fs in os.walk(d) for f in fs)


class Checker:
    """Every checked engine call is one attempted operation; a wrong answer
    is one failed operation. An exception ends the run without a result."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            if self.failed <= 5:
                print(f"check failed: {what}: got {str(got)[:300]} want {str(want)[:300]}",
                      file=sys.stderr)


class Run:
    def __init__(self, workload: str, cache: str, work: str, seconds: float,
                 tracing: bool, session):
        self.workload = workload
        self.work = work
        self.seconds = seconds
        self.session = session
        self.tracer = Tracer() if tracing else None
        with open(os.path.join(cache, "answers.json")) as f:
            self.ans = json.load(f)
        cdir = os.path.join(cache, "corpus")
        self.files = sorted(os.path.join(cdir, p) for p in os.listdir(cdir))
        table = pq.read_table(self.files)
        self.rows = table.select(STORED).to_pylist()
        self.sha = [hashlib.sha256((c or "").encode()).hexdigest()
                    for c in table["content"].to_pylist()]
        head = pq.read_table(self.files[:-1])
        self.input_bytes_90 = sum(
            int(pc.sum(pc.binary_length(head[c])).as_py() or 0) for c in head.column_names)
        self.chk = Checker()
        self.lat: dict[str, list[float]] = defaultdict(list)
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.first_span, self.counts0 = 0, None
        self.e2e: dict[str, tuple[float, str]] = {}
        self.layer: dict[str, tuple[float, str]] = {}
        self._dirs = 0

    def fresh(self, name: str) -> str:
        self._dirs += 1
        d = os.path.join(self.work, f"{name}{self._dirs}")
        shutil.rmtree(d, ignore_errors=True)
        return d

    def rounds(self, phase: str, share: float = 1.0):
        """Round numbers for a phase: a fixed count, then, for the workload's
        own phase, whole rounds until ``share`` of ``--seconds`` is spent."""
        for i in range(MIN_ROUNDS[phase]):
            yield i
        i += 1
        t0 = time.perf_counter()
        while phase == self.workload and time.perf_counter() - t0 < share * self.seconds:
            yield i
            i += 1

    # ------------------------------------------------------------ checks
    def check_index(self, what: str, d: str, want: list, n_docs: int, avgdl: float,
                    dead=()) -> None:
        s = engine.Searcher(engine.IndexReader(d))
        with open(os.path.join(d, "manifest.json")) as f:
            st = json.load(f)["stats"]
        self.chk.op(f"{what} stats", [st["n_docs"], st["avgdl"]], [n_docs, avgdl])
        got = [_plain(s.search(q, k=K)) for q in self.ans["ingest"]["sample"]]
        self.chk.op(f"{what} top-k", got, want)
        if dead:
            hit = {h[0] for hits in got for h in hits}
            self.chk.op(f"{what} dead docs", sorted(hit & set(dead)), [])

    def check_doc_store(self, d: str) -> None:
        t = pq.read_table(os.path.join(d, "docs"), columns=["doc_id", "sha256"]).sort_by("doc_id")
        self.chk.op("doc store sha256", t["sha256"].to_pylist(), self.sha[:t.num_rows])
        self.chk.op("doc store ids", t["doc_id"].to_pylist(), list(range(t.num_rows)))

    # ------------------------------------------------------------ setup
    def setup(self, t_start: float) -> None:
        ing = self.ans["ingest"]
        self.main = self.fresh("main")
        index_build.build_index(self.files, self.main, MAIN, resume=False)
        self.check_index("build", self.main, ing["build"], ing["n_docs"], ing["avgdl"])
        self.paths_index = self.fresh("paths")
        index_build.build_index(self.files, self.paths_index, PATHS, resume=False)
        opens = []
        for _ in range(3):
            t0 = time.perf_counter()
            reader = engine.IndexReader(self.main)
            opens.append(time.perf_counter() - t0)
        self.layer["reader.open_s"] = (p50(opens), "s")
        self.searcher = engine.Searcher(reader)
        self.path_searcher = engine.Searcher(engine.IndexReader(self.paths_index))
        self.fetch_ids = {}
        self.search_round(timed=False)
        self.e2e["setup_s"] = (time.perf_counter() - t_start, "s")
        print(f"setup: {self.e2e['setup_s'][0]:.1f} s", file=sys.stderr)
        self.session.snapshot()

    # ------------------------------------------------------------ ingest
    def ingest(self) -> None:
        ing = self.ans["ingest"]
        tr = self.tracer
        if tr:
            tr.wrap(index_build, "build_index", "build_index")
            for fn in ("delete_docs", "compact_index", "refresh_stats"):
                tr.wrap(lifecycle, fn, fn)
        rec = defaultdict(list)
        for _ in self.rounds("ingest"):
            if tr:
                tr.request += 1
            # the 90 % index is built in place for every cycle, not copied:
            # the partition log records absolute paths, so an append to a
            # copy prunes the copy's files
            c = self.fresh("cycle")
            t0 = time.perf_counter()
            man = index_build.build_index(self.files[:-1], c, MAIN, resume=False)
            rec["build_s"].append(time.perf_counter() - t0)
            self.check_index("90% build", c, ing["build_90"], ing["n_docs_90"],
                             ing["avgdl_90"])
            self.check_doc_store(c)
            stg, st = man["stages"], man["stats"]
            rec["build.invert_s"].append(stg["invert"]["wall_sec"])
            rec["build.shards_s"].append(stg["shards"]["wall_sec"])
            rec["build.hotmerge_s"].append(stg["hotmerge"]["wall_sec"])
            rec["build.invert_cpu_s"].append(stg["invert"]["task_cpu_sum"])
            rec["build.shards_cpu_s"].append(stg["shards"]["task_cpu_sum"])
            rec["index_bytes"].append(_dir_bytes(c))
            for key, sub in (("shards_bytes", "shards"), ("docs_bytes", "docs"),
                             ("runs_bytes", "runs"), ("hotparts_bytes", "hotparts")):
                rec[f"index.{key}"].append(_dir_bytes(os.path.join(c, sub)))
            postings, bpp = st["n_postings"], st["bytes_per_posting"]

            t0 = time.perf_counter()
            man = index_build.build_index(self.files, c, MAIN, resume=True)
            rec["append_s"].append(time.perf_counter() - t0)
            rec["append.invert_s"].append(man["stages"]["invert"]["wall_sec"])
            rec["append.shards_s"].append(man["stages"]["shards"]["wall_sec"])
            self.check_index("append", c, ing["build"], ing["n_docs"], ing["avgdl"])
            self.check_doc_store(c)
            t0 = time.perf_counter()
            lifecycle.delete_docs(c, ing["dead"])
            rec["delete_s"].append(time.perf_counter() - t0)
            self.check_index("delete", c, ing["after_delete"], ing["n_docs"], ing["avgdl"],
                             ing["dead"])
            t0 = time.perf_counter()
            res = lifecycle.compact_index(c)
            rec["compact_s"].append(time.perf_counter() - t0)
            self.check_index("compact", c, ing["after_delete"], ing["n_docs"], ing["avgdl"],
                             ing["dead"])
            self.chk.op("compact counts", [res["postings_removed"], res["docs_removed"]],
                        [ing["postings_removed"], len(ing["dead"])])
            t0 = time.perf_counter()
            lifecycle.refresh_stats(c)
            rec["refresh_stats_s"].append(time.perf_counter() - t0)
            self.check_index("refresh", c, ing["refreshed"], ing["n_docs_live"],
                             ing["avgdl_live"])
            shutil.rmtree(c)
        if tr:
            tr.unpatch()
        self.session.snapshot()
        self.e2e["build_files_per_s"] = (ing["n_docs_90"] / p50(rec["build_s"]), "1/s")
        self.e2e["index_bytes_per_input_byte"] = (p50(rec["index_bytes"]) / self.input_bytes_90,
                                                  "B/B")
        for key in ("append_s", "compact_s", "refresh_stats_s"):
            self.layer[key] = (p50(rec[key]), "s")
        for key in ("build.invert_s", "build.shards_s", "build.hotmerge_s",
                    "build.invert_cpu_s", "build.shards_cpu_s", "append.invert_s",
                    "append.shards_s", "delete_s"):
            self.layer[key] = (p50(rec[key]), "s")
        for key in ("index.shards_bytes", "index.docs_bytes", "index.runs_bytes",
                    "index.hotparts_bytes"):
            self.layer[key] = (p50(rec[key]), "B")
        self.layer["build.postings"] = (postings, "count")
        self.layer["build.bytes_per_posting"] = (bpp, "B")
        self.layer["compact.postings_removed"] = (res["postings_removed"], "count")
        self.layer["compact.docs_removed"] = (res["docs_removed"], "count")
        me = os.getpid()
        self.worker_hwm = max([procs.status_mb(p) for p in procs.ray_workers(me)] or [0.0])
        self.layer["build.worker_hwm_mb"] = (self.worker_hwm, "MB")

    # ------------------------------------------------------------ search
    def _ops(self):
        s = self.searcher
        return {
            "bm25": lambda it: s.search(it[0], k=it[1]),
            "and": lambda it: s.search_and(it[0], k=it[1]),
            "phrase": lambda it: s.search_phrase(it[0], k=it[1]),
            "near": lambda it: s.search_near(it[0], k=it[1], slop=it[2]),
            "query": lambda it: s.search_query(it[0], k=it[1]),
            "prefix": lambda it: s.search_prefix(it[0], k=it[1]),
            "wildcard": lambda it: s.search_wildcard(it[0], k=it[1]),
            "regex": lambda it: s.search_regex(it[0], k=it[1]),
            "fuzzy": lambda it: s.search_fuzzy(it[0], k=it[1]),
            "count": lambda it: s.count(it[0]),
            "facets": lambda it: s.facet_counts(it[0], "lang"),
            "best_fields": lambda it: engine.best_fields_search(
                [s, self.path_searcher], it[0], k=it[1]),
            "fetch": lambda it: engine.fetch_docs(self.main, self.fetch_ids[it[0]], STORED),
        }

    def _want(self, mode: str, it: list):
        if mode == "fetch":
            return [{"doc_id": d, **self.rows[d]} for d in sorted(self.fetch_ids[it[0]])]
        return it[-1]

    def search_round(self, timed: bool = True) -> float:
        """One pass over the per-mode lists; returns its wall time. Latencies
        of untimed passes (warm-up, traced) are not kept."""
        ops = self._ops()
        t_round = time.perf_counter()
        for mode, items in self.ans["search"].items():
            fn = ops[mode]
            for it in items:
                if mode == "fetch" and it[0] not in self.fetch_ids:
                    top = _plain(self.searcher.search(it[0], k=it[1]))
                    self.chk.op(f"fetch top-k {it[0]!r}", top, it[-1])
                    self.fetch_ids[it[0]] = [d for d, _ in top]
                if self.tracer:
                    self.tracer.request += 1
                t0 = time.perf_counter()
                got = fn(it)
                dt = time.perf_counter() - t0
                if timed:
                    self.lat[mode].append(dt)
                self.chk.op(f"{mode} {it[0]!r}", _plain(got), self._want(mode, it))
        return time.perf_counter() - t_round

    def _trace_search(self) -> None:
        tr = self.tracer
        from nmr_fair_dos_ray.search.engine import IndexReader, Searcher

        tr.wrap(Tokenizer, "tokenize_query", "analyze")

        def decoded(counts, args, out, was_cached):
            counts["postings.calls"] += 1
            if not was_cached:
                counts["postings.decoded"] += len(out[0])

        tr.wrap(IndexReader, "postings", "postings", count=decoded,
                before=lambda a: a[1] in a[0]._postings_cache)
        for fn in ("expand_prefix", "expand_regex", "expand_fuzzy"):
            tr.wrap(IndexReader, fn, "expand",
                    count=lambda c, a, out, s: c.update({"expand.terms": len(out)}))
        for fn in ("positions", "position_keys_with_max"):
            tr.wrap(IndexReader, fn, "positions",
                    count=lambda c, a, out, s: c.update({"positions.calls": 1}))
        for fn in ("search", "search_and", "search_phrase", "search_near", "search_query",
                   "search_prefix", "search_regex", "search_wildcard", "search_fuzzy",
                   "count", "facet_counts"):
            tr.wrap(Searcher, fn, "mode")
        tr.wrap(engine, "best_fields_search", "mode")
        tr.wrap(engine, "fetch_docs", "fetch")

    def search(self) -> None:
        """One slice of the search phase; rounds of a traced run alternate
        untraced and traced."""
        tr = self.tracer
        for _ in self.rounds("search", 1 / SEARCH_SLICES):
            traced = bool(tr) and len(self.walls[False]) > len(self.walls[True])
            if traced:
                if self.counts0 is None:
                    self.first_span, self.counts0 = len(tr.spans), dict(tr.counts)
                self._trace_search()
            self.walls[traced].append(self.search_round(timed=not traced))
            if traced:
                tr.unpatch()

    def search_metrics(self) -> None:
        lat_ms = {m: [x * 1e3 for x in v] for m, v in self.lat.items()}
        self.layer["bm25_p99_ms"] = (pct(lat_ms["bm25"], 0.99), "ms")
        for m in ("bm25", "fuzzy", "phrase", "prefix", "and", "query", "count", "facets",
                  "best_fields", "near", "wildcard", "regex", "fetch"):
            self.layer[f"{m}_p50_ms"] = (p50(lat_ms[m]), "ms")
        tr = self.tracer
        if tr:
            n = len(self.walls[True])
            self_t = tr.self_times(self.first_span)
            for key, name in (("analyze_s", "analyze"), ("score_self_s", "mode"),
                              ("expand_s", "expand"), ("postings_s", "postings"),
                              ("positions_s", "positions")):
                self.layer[key] = (self_t.get(name, 0.0) / n, "s")
            for key in ("expand.terms", "postings.calls", "postings.decoded",
                        "positions.calls"):
                self.layer[key] = ((tr.counts[key] - self.counts0.get(key, 0)) / n, "count")
            self.layer["trace.overhead_pct"] = (
                100.0 * (p50(self.walls[True]) / p50(self.walls[False]) - 1.0), "%")

    # ------------------------------------------------------------ serve
    def serve(self) -> None:
        import ray

        srv = self.ans["serve"]
        tr = self.tracer
        t0 = time.perf_counter()
        pool = distributed.DocShardedSearcher(self.main, POOL)
        spawn = time.perf_counter() - t0
        q0, n0 = self.ans["search"]["count"][0]
        self.chk.op("pool first count", pool.count(q0), n0)
        ready = time.perf_counter() - t0
        self.session.snapshot()
        if tr:
            probe = _RayProbe(ray, tr)
            distributed.ray = probe
            tr.wrap(distributed.DocShardedSearcher, "search", "pool.search")
        sent, hits, fetched = [], [], []
        topk, fetch, total = [], [], []
        try:
            for i in self.rounds("serve"):
                if i == len(srv["stream"]):
                    break
                q = srv["stream"][i]
                if tr:
                    tr.request += 1
                    first_span = len(tr.spans)
                t0 = time.perf_counter()
                h = pool.search(q, k=K)
                t1 = time.perf_counter()
                rows = engine.fetch_docs(self.main, [d for d, _ in h], STORED)
                t2 = time.perf_counter()
                topk.append(t1 - t0)
                fetch.append(t2 - t1)
                total.append(t2 - t0)
                sent.append(q)
                hits.append(_plain(h))
                fetched.append(rows.to_pylist())
                if tr:
                    probe.close_request(tr.spans[first_span])
        finally:
            if tr:
                distributed.ray = ray
                tr.unpatch()
        actors = procs.ray_workers(os.getpid(), "ray::DocShardActor")
        actor_hwm = max([procs.status_mb(p) for p in actors] or [0.0])
        actor_pss = max([procs.pss_mb(p) for p in actors] or [0.0])
        pool.shutdown()
        for q, h, rows in zip(sent, hits, fetched):
            self.chk.op(f"pool vs local {q!r}", h, _plain(self.searcher.search(q, k=K)))
            self.chk.op(f"fetch rows {q!r}", rows,
                        [{"doc_id": d, **self.rows[d]} for d in sorted(d for d, _ in h)])
        for q, h, want in zip(sent, hits, srv["oracle"]):
            self.chk.op(f"pool vs oracle {q!r}", h, want)
        self.batch()
        self.session.snapshot()
        ms = 1e3
        self.layer.update({
            "pool_boot_s": (ready, "s"),
            "pool_p50_ms": (p50(total) * ms, "ms"),
            "pool.spawn_s": (spawn, "s"), "pool.ready_s": (ready, "s"),
            "pool.actor_hwm_mb": (actor_hwm, "MB"), "pool.actor_pss_mb": (actor_pss, "MB"),
            "pool.topk_p50_ms": (p50(topk) * ms, "ms"),
            "pool.fetch_p50_ms": (p50(fetch) * ms, "ms"),
            "pool_p99_ms": (pct(total, 0.99) * ms, "ms"),
        })
        if tr:
            self.layer["pool.actor_service_ms"] = (p50(tr.samples["actor"]) * ms, "ms")
            self.layer["pool.router_overhead_ms"] = (p50(tr.samples["router"]) * ms, "ms")
        self.actor_hwm = actor_hwm

    def batch(self) -> None:
        import ray.data as rd

        stream = self.ans["serve"]["stream"]
        want = self.ans["serve"]["batch"]
        ds = rd.from_items([{"query_id": i, "query": q, "k": K}
                            for i, q in enumerate(stream[:len(want)])])
        t0 = time.perf_counter()
        first = None
        parts = []
        for b in ds.map_batches(
            engine.QueryScorer, fn_constructor_kwargs={"index_dir": self.main, "k": K},
            concurrency=1, batch_size=BATCH_SIZE, batch_format="pyarrow",
        ).iter_batches(batch_format="pyarrow", batch_size=None):
            if first is None:
                first = time.perf_counter() - t0
            parts.append(b)
        wall = time.perf_counter() - t0
        got = [[] for _ in want]
        for b in parts:
            for qid, rank, d, s in zip(*(b[c].to_pylist() for c in
                                         ("query_id", "rank", "doc_id", "score"))):
                got[qid].append((rank, d, s))
        for qid, hits in enumerate(got):
            self.chk.op(f"QueryScorer {stream[qid]!r}",
                        [[d, s] for _, d, s in sorted(hits)], want[qid])
        self.e2e["batch_qps"] = (len(want) / wall, "1/s")
        self.layer["batch.first_batch_s"] = (first, "s")
        self.layer["batch.score_s"] = (wall - first, "s")

    # ------------------------------------------------------------ all
    def walk(self) -> dict:
        # The search slices sit before, between and after the other phases, so
        # the per-mode medians average the machine's speed over the whole run
        # rather than over a few seconds of it; the first runs right after the
        # warm pass of set-up.
        for phase in (self.search, self.ingest, self.search, self.serve, self.search):
            t0 = time.perf_counter()
            phase()
            print(f"{phase.__name__}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        self.search_metrics()
        own = procs.status_mb(os.getpid())
        self.e2e["peak_rss_mb"] = (max(own, self.worker_hwm, self.actor_hwm), "MB")
        chosen = self.layer if self.tracer else self.e2e
        return {
            "correct": self.chk.failed == 0,
            "attempted": self.chk.attempted,
            "failed": self.chk.failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in chosen.items()},
        }


class _RayProbe:
    """Stands in for the ``ray`` module inside ``search.distributed`` during
    a traced serve loop: ``get`` of a fan-out first waits on each actor's
    reply separately, so each ``DocShardActor`` is timed on its own."""

    def __init__(self, ray, tracer: Tracer):
        self._ray = ray
        self._tr = tracer
        self._done: list[float] = []

    def __getattr__(self, name):
        return getattr(self._ray, name)

    def get(self, refs, *args, **kwargs):
        if isinstance(refs, list) and len(refs) > 1:
            pending = list(refs)
            while pending:
                ready, pending = self._ray.wait(pending, num_returns=1)
                self._done.extend(time.perf_counter() for _ in ready)
        return self._ray.get(refs, *args, **kwargs)

    def close_request(self, span: list) -> None:
        """Attribute the replies of the request whose router span is ``span``."""
        name, t0, t1, _, _ = span
        if self._done and name == "pool.search":
            self._tr.samples["actor"].extend(t - t0 for t in self._done)
            self._tr.samples["router"].append((t1 - t0) - (max(self._done) - t0))
        self._done = []
