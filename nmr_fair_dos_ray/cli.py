"""Command-line entry points, ``ray job submit``-compatible.

Engine analog of the reference's Typer CLI
(reference: src/nmr_FAIR_DOs/cli.py:48-106 — `createAllAvailable` harvests and
`buildElastic` (re)builds the external search index). Here the index build IS
the engine, so the commands are::

    python -m nmr_fair_dos_ray build  --corpus DIR_OR_GLOB --index DIR \
        [--num-shards N] [--no-resume] [--tokenizer code|simple] \
        [--field-cols repo,path,lang] [--token-cols path,lang] \
        [--stored-cols repo,path,commit,lang]
    python -m nmr_fair_dos_ray search --index DIR --query "..." [-k 10]
    python -m nmr_fair_dos_ray stats  --index DIR

On a cluster: ``ray job submit --working-dir . -- python -m nmr_fair_dos_ray
build --corpus s3://…`` — the script initialises Ray from the job's address
(`RAY_ADDRESS`), falling back to a local session. These are the only places
outside bench.py/tests that own a Ray session (guarded, per driver contract).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _ensure_ray() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(include_dashboard=False, logging_level="ERROR")


def _int_at_least(name: str, lo: int):
    """argparse type of an int option that must be >= ``lo`` (``-k`` 1,
    ``--slop`` 0, as the engine checks them); argparse exits 2 otherwise."""
    def parse(s: str) -> int:
        if int(s) < lo:
            raise argparse.ArgumentTypeError(f"{name} must be >= {lo}")
        return int(s)
    return parse


def _cols(s: str | None) -> tuple[str, ...]:
    return tuple(c for c in (s or "").split(",") if c)


def cmd_build(args: argparse.Namespace) -> int:
    from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index

    _ensure_ray()
    cfg = IndexConfig(
        content_col=args.content_col,
        id_col=args.id_col,
        token_cols=_cols(args.token_cols),
        field_cols=_cols(args.field_cols),
        stored_cols=_cols(args.stored_cols),
        tokenizer_mode=args.tokenizer,
        num_shards=args.num_shards,
        store_positions=args.positions,
    )
    t0 = time.time()
    man = build_index(args.corpus, args.index, cfg, resume=not args.no_resume)
    out = {
        "index": args.index,
        "n_docs": man["stats"]["n_docs"],
        "n_postings": man["stats"]["n_postings"],
        "avgdl": round(man["stats"]["avgdl"], 4),
        "wall_sec": round(time.time() - t0, 3),
        "stages": {
            k: round(v.get("wall_sec", 0), 3) for k, v in man["stages"].items()
        },
    }
    print(json.dumps(out))
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    from nmr_fair_dos_ray.search.engine import IndexReader, Searcher, run_query

    dirs = args.index if isinstance(args.index, list) else [args.index]
    mode = args.mode
    params = {
        "near": {"slop": args.slop, "ordered": not args.unordered},
        "fuzzy": {"max_edits": args.max_edits},
        "query": {"max_edits": args.max_edits},
        "best_fields": {"tie_breaker": args.tie_breaker},
    }.get(mode, {})
    pool_meta = {}
    if args.pool > 1:
        # doc-partitioned actor pool (O(pool×k) router merge) — results
        # bit-equal to local serving
        from nmr_fair_dos_ray.search.distributed import DocShardedSearcher

        _ensure_ray()
        pool = DocShardedSearcher(dirs[0], pool_size=args.pool,
                                  field_dirs=dirs[1:] or None)
        try:
            hits = pool.run(mode, args.query, args.k, **params)
        finally:
            pool.shutdown()
        pool_meta = {"sharding": "doc", "pool": args.pool}
    else:
        # best_fields scores one index per field; other modes read the first
        searchers = [Searcher(IndexReader(d))
                     for d in (dirs if mode == "best_fields" else dirs[:1])]
        hits = run_query(searchers, mode, args.query, args.k, **params)
    rows = [{"rank": i + 1, "doc_id": d, "score": sc}
            for i, (d, sc) in enumerate(hits)]
    if args.fetch and rows:
        # fetch phase: stored columns for the hit docs only (statistics-
        # pruned doc-store read — the ES _source fetch analog)
        from nmr_fair_dos_ray.search.engine import fetch_docs

        cols = [c for c in args.fetch.split(",") if c]
        stored = fetch_docs(dirs[0], [r["doc_id"] for r in rows], cols)
        by_id = {
            int(rec["doc_id"]): rec for rec in stored.to_pylist()
        }
        for r in rows:
            for c in cols:
                r[c] = by_id.get(r["doc_id"], {}).get(c)
    print(json.dumps(
        {"query": args.query, "mode": mode, **pool_meta, "hits": rows}
    ))
    return 0


def cmd_delete(args: argparse.Namespace) -> int:
    from nmr_fair_dos_ray.pipelines.lifecycle import (
        delete_by_term, delete_docs, read_tombstones,
    )

    if args.term:
        n = delete_by_term(args.index, args.term)
    else:
        ids = [int(x) for x in args.doc_ids.split(",") if x]
        delete_docs(args.index, ids)
        n = len(ids)
    print(json.dumps(
        {"index": args.index, "deleted": n,
         "tombstones": int(read_tombstones(args.index).size)}
    ))
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    from nmr_fair_dos_ray.pipelines.lifecycle import compact_index

    t0 = time.time()
    out = compact_index(args.index)
    out["wall_sec"] = round(time.time() - t0, 3)
    print(json.dumps(out))
    return 0


def cmd_refresh_stats(args: argparse.Namespace) -> int:
    from nmr_fair_dos_ray.pipelines.lifecycle import refresh_stats

    t0 = time.time()
    out = refresh_stats(args.index)
    out["wall_sec"] = round(time.time() - t0, 3)
    print(json.dumps(out))
    return 0


def cmd_harvest(args: argparse.Namespace) -> int:
    from datetime import datetime

    from nmr_fair_dos_ray.pipelines.harvest import harvest_window

    _ensure_ray()
    out = harvest_window(
        args.sf_dir, args.out, args.state_dir,
        start=datetime.fromisoformat(args.start) if args.start else None,
        end=datetime.fromisoformat(args.end) if args.end else None,
        repo=args.repo,
    )
    print(json.dumps(out))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from nmr_fair_dos_ray.search.engine import IndexReader

    r = IndexReader(args.index)
    print(json.dumps(
        {"n_docs": r.n_docs, "avgdl": round(r.avgdl, 4),
         "n_terms": len(r.terms), "k1": r.k1, "b": r.b}
    ))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="nmr_fair_dos_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build the inverted index from a Parquet corpus")
    b.add_argument("--corpus", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--num-shards", type=int, default=32)
    b.add_argument("--no-resume", action="store_true")
    b.add_argument("--positions", action="store_true",
                   help="store positional postings (enables phrase/near "
                        "modes and snippet highlighting)")
    b.add_argument("--tokenizer", choices=("code", "simple"), default="code")
    b.add_argument("--content-col", default="content")
    b.add_argument("--id-col", default=None)
    b.add_argument("--token-cols", default="path,lang")
    b.add_argument("--field-cols", default="repo,path,lang")
    b.add_argument("--stored-cols", default="repo,path,commit,lang")
    b.set_defaults(fn=cmd_build)

    s = sub.add_parser("search", help="BM25 top-k over a built index")
    s.add_argument("--index", required=True, action="append",
                   help="index directory; repeat for best_fields mode "
                        "(one index per scored field)")
    s.add_argument("--query", required=True)
    s.add_argument("-k", type=_int_at_least("k", 1), default=10)
    s.add_argument(
        "--mode",
        choices=("bm25", "and", "phrase", "near", "prefix", "regex",
                 "wildcard", "fuzzy", "query", "best_fields"),
        default="bm25",
        help="query type: ranked disjunction, conjunctive, exact phrase, "
             "ordered proximity (--slop), prefix expansion, anchored-regex "
             "expansion, fuzzy (Levenshtein) expansion, the full "
             "query-string grammar, or multi-field dis-max over repeated "
             "--index",
    )
    s.add_argument("--max-edits", type=int, default=1, choices=(1, 2))
    s.add_argument("--pool", type=int, default=1,
                   help="serve from a doc-partitioned actor pool of this "
                        "size instead of a local reader (results identical)")
    s.add_argument("--slop", type=_int_at_least("slop", 0), default=0,
                   help="near mode: max extra tokens per consecutive gap")
    s.add_argument("--unordered", action="store_true",
                   help="near mode: order-free matching — every other term "
                        "within slop+1 tokens of an anchor occurrence")
    s.add_argument("--tie-breaker", type=float, default=0.0,
                   help="best_fields: weight of non-best field scores")
    s.add_argument("--fetch", default="",
                   help="comma-separated stored columns to attach to hits "
                        "(statistics-pruned doc-store fetch)")
    s.set_defaults(fn=cmd_search)

    d = sub.add_parser(
        "delete",
        help="tombstone documents (by id list or by one index term, e.g. "
             "'lang:go'); search excludes them immediately, stats stay "
             "frozen until compact/rebuild",
    )
    d.add_argument("--index", required=True)
    g = d.add_mutually_exclusive_group(required=True)
    g.add_argument("--doc-ids", help="comma-separated doc ids")
    g.add_argument("--term", help="delete every doc whose postings contain this term")
    d.set_defaults(fn=cmd_delete)

    c = sub.add_parser(
        "compact",
        help="physically expunge tombstoned postings (per-shard-file "
             "rewrite; search results provably unchanged)",
    )
    c.add_argument("--index", required=True)
    c.set_defaults(fn=cmd_compact)

    rs = sub.add_parser(
        "refresh-stats",
        help="unfreeze global stats after compact: recompute n_docs/avgdl/"
             "df and rewrite block maxes metadata-only (rankings equal a "
             "full rebuild)",
    )
    rs.add_argument("--index", required=True)
    rs.set_defaults(fn=cmd_refresh_stats)

    hv = sub.add_parser(
        "harvest",
        help="incremental time-window harvest (reference pipeline "
             "--start/--end + last_run watermark): list envelopes in the "
             "window, extract, write one partition dir per window, advance "
             "the watermark",
    )
    hv.add_argument("--sf-dir", required=True)
    hv.add_argument("--out", required=True)
    hv.add_argument("--state-dir", required=True,
                    help="directory holding last_run_<source>.json")
    hv.add_argument("--start", help="ISO timestamp (default: watermark)")
    hv.add_argument("--end", help="ISO timestamp (default: newest record)")
    hv.add_argument("--repo", choices=("chemotion", "nmrxiv"),
                    help="restrict to one source (default: all)")
    hv.set_defaults(fn=cmd_harvest)

    st = sub.add_parser("stats", help="print index stats")
    st.add_argument("--index", required=True)
    st.set_defaults(fn=cmd_stats)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
