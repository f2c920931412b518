"""End-to-end CLI coverage (`python -m nmr_fair_dos_ray ...`, the
ray-job-submittable surface): build → search in every serving mode →
lifecycle (delete / compact / refresh-stats) → stats, driven in-process
through ``cli.main(argv)`` and asserted against the library API.

The CLI prints exactly one JSON line per command; these tests parse it
(reference CLI analog: src/nmr_FAIR_DOs/cli.py:48-106)."""

from __future__ import annotations

import json
import shutil

import pytest

from nmr_fair_dos_ray.cli import main

IDX = "/tmp/nmr_fair_dos_ray/test_index_cli"


def _run(capsys, *argv: str) -> dict:
    rc = main(list(argv))
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


@pytest.fixture(scope="module")
def cli_index(sf_unit):
    shutil.rmtree(IDX, ignore_errors=True)
    rc = main([
        "build", "--corpus", sf_unit["corpus"], "--index", IDX,
        "--num-shards", "4", "--positions",
    ])
    assert rc == 0
    return IDX


def test_build_prints_manifest_stats(cli_index, sf_unit, capsys):
    # re-run: resume makes it a no-op but it must still print stats
    out = _run(capsys, "build", "--corpus", sf_unit["corpus"],
               "--index", cli_index, "--num-shards", "4", "--positions")
    assert out["n_docs"] == 200
    assert out["n_postings"] > 0


def test_stats_matches_reader(cli_index, capsys):
    from nmr_fair_dos_ray.search.engine import IndexReader

    out = _run(capsys, "stats", "--index", cli_index)
    r = IndexReader(cli_index)
    assert out["n_docs"] == r.n_docs
    assert out["n_terms"] == len(r.terms)
    assert out["avgdl"] == round(r.avgdl, 4)


def test_search_modes_match_library(cli_index, capsys):
    from nmr_fair_dos_ray.search.engine import IndexReader, Searcher

    s = Searcher(IndexReader(cli_index))
    cases = [
        (["--query", "getUserName merge"], s.search("getUserName merge", k=5)),
        (["--query", "user name", "--mode", "phrase"],
         s.search_phrase("user name", k=5)),
        (["--query", "user name", "--mode", "near", "--slop", "2",
          "--unordered"],
         s.search_near("user name", k=5, slop=2, ordered=False)),
        (["--query", "conf", "--mode", "prefix"], s.search_prefix("conf", k=5)),
        (["--query", "get.*", "--mode", "regex"], s.search_regex("get.*", k=5)),
        (["--query", "get*", "--mode", "wildcard"],
         s.search_wildcard("get*", k=5)),
        (["--query", "retrn merge", "--mode", "fuzzy"],
         s.search_fuzzy("retrn merge", k=5)),
        (["--query", 'merge -lang:go user*', "--mode", "query"],
         s.search_query('merge -lang:go user*', k=5)),
    ]
    for argv, expect in cases:
        out = _run(capsys, "search", "--index", cli_index, "-k", "5", *argv)
        got = [(h["doc_id"], h["score"]) for h in out["hits"]]
        assert got == [(d, float(sc)) for d, sc in expect], argv


def test_pooled_serving_bit_equal_both_layouts(cli_index, capsys):
    """Every pool-served mode must match local serving exactly (wildcard was
    the last mode to gain pool routing); the doc-partitioned pool is the one
    layout, and pooled parameters such as --max-edits pass through."""
    for mode, q in (("bm25", "getUserName merge"), ("wildcard", "get*"),
                    ("regex", "get.*"), ("query", "merge user*")):
        local = _run(capsys, "search", "--index", cli_index,
                     "--query", q, "--mode", mode, "-k", "5")
        pooled = _run(capsys, "search", "--index", cli_index,
                      "--query", q, "--mode", mode, "-k", "5", "--pool", "2")
        assert pooled["hits"] == local["hits"], mode
        assert pooled["pool"] == 2 and pooled["sharding"] == "doc"
    local = _run(capsys, "search", "--index", cli_index, "--query",
                 "getUsrNme merge", "--mode", "fuzzy", "-k", "5",
                 "--max-edits", "2")
    pooled = _run(capsys, "search", "--index", cli_index, "--query",
                  "getUsrNme merge", "--mode", "fuzzy", "-k", "5",
                  "--max-edits", "2", "--pool", "2")
    assert pooled["hits"] == local["hits"]
    for gone in (["--sharding", "term"], ["--algorithm", "taat"]):
        with pytest.raises(SystemExit) as exc:  # argparse: unknown option
            main(["search", "--index", cli_index, "--query", "merge",
                  "--pool", "2"] + gone)
        assert exc.value.code == 2, gone


def test_fetch_attaches_stored_columns(cli_index, capsys):
    out = _run(capsys, "search", "--index", cli_index,
               "--query", "getUserName merge", "-k", "3",
               "--fetch", "repo,lang")
    assert out["hits"], "query must match"
    for h in out["hits"]:
        assert isinstance(h["repo"], str) and h["repo"]
        assert isinstance(h["lang"], str) and h["lang"]


def test_lifecycle_delete_compact_refresh(sf_unit, capsys):
    """delete --term → hits excluded; compact → unchanged; refresh-stats →
    rescored (no longer frozen). Uses its own index copy so the module
    fixture stays pristine for the other tests."""
    idx = IDX + "_lifecycle"
    shutil.rmtree(idx, ignore_errors=True)
    assert main(["build", "--corpus", sf_unit["corpus"], "--index", idx,
                 "--num-shards", "4"]) == 0
    capsys.readouterr()

    base = _run(capsys, "search", "--index", idx,
                "--query", "getUserName merge", "-k", "5")
    top = base["hits"][0]["doc_id"]

    out = _run(capsys, "delete", "--index", idx, "--doc-ids", str(top))
    assert out["deleted"] == 1 and out["tombstones"] == 1

    after = _run(capsys, "search", "--index", idx,
                 "--query", "getUserName merge", "-k", "5")
    ids = [h["doc_id"] for h in after["hits"]]
    assert top not in ids
    # frozen stats: surviving docs keep bit-identical scores
    surviving = {h["doc_id"]: h["score"] for h in base["hits"][1:]}
    for h in after["hits"]:
        if h["doc_id"] in surviving:
            assert h["score"] == surviving[h["doc_id"]]

    out = _run(capsys, "compact", "--index", idx)
    assert out["docs_removed"] >= 1
    compacted = _run(capsys, "search", "--index", idx,
                     "--query", "getUserName merge", "-k", "5")
    assert compacted["hits"] == after["hits"]

    out = _run(capsys, "refresh-stats", "--index", idx)
    assert out["n_docs"] == 199
    shutil.rmtree(idx, ignore_errors=True)


def test_delete_and_refresh_reject_bad_input(cli_index, capsys):
    # delete requires exactly one of --doc-ids/--term
    with pytest.raises(SystemExit):
        main(["delete", "--index", cli_index])
    capsys.readouterr()


def test_k_below_one_raises_on_every_surface(cli_index, capsys):
    """k < 1 is a caller error on every surface: each Searcher entry point
    and run_query raise one ValueError, QueryScorer maps only a null k to
    its default, and CLI ``-k 0`` exits 2."""
    import pyarrow as pa

    from nmr_fair_dos_ray.search.engine import (
        IndexReader, QueryScorer, RANKED_MODES, Searcher, best_fields_search,
        run_query,
    )

    s = Searcher(IndexReader(cli_index))
    queries = {"phrase": "user name", "near": "user name", "regex": "get.*",
               "wildcard": "get*", "prefix": "get", "fuzzy": "merg",
               "query": '"user name" merge'}
    for k in (0, -1):
        for mode, method in RANKED_MODES.items():
            q = queries.get(mode, "def return")
            with pytest.raises(ValueError, match="k must be >= 1"):
                getattr(s, method)(q, k=k)
            with pytest.raises(ValueError, match="k must be >= 1"):
                run_query([s], mode, q, k)
        for q in ("lang:python", "def return"):  # exact-only and scored
            with pytest.raises(ValueError, match="k must be >= 1"):
                s.search(q, k=k)
        with pytest.raises(ValueError, match="k must be >= 1"):
            best_fields_search([s], "def return", k=k)
    assert run_query([s], "count", "def", 0) == s.count("def")

    scorer = QueryScorer(index_dir=cli_index, k=3)
    out = scorer(pa.table({"query_id": [0], "query": ["def return"],
                           "k": pa.array([None], pa.int64())}))
    assert [(d, sc) for d, sc in zip(out["doc_id"].to_pylist(),
                                     out["score"].to_pylist())] \
        == s.search("def return", k=3)
    with pytest.raises(ValueError, match="k must be >= 1"):
        scorer(pa.table({"query_id": [0], "query": ["def return"], "k": [0]}))

    with pytest.raises(SystemExit) as e:
        main(["search", "--index", cli_index, "--query", "merge", "-k", "0"])
    assert e.value.code == 2
    assert "k must be >= 1" in capsys.readouterr().err


def test_non_integer_k_raises(cli_index):
    """A k that is not an integer (a float, a bool) is a caller error, not
    a numpy failure or a silent k=1; numpy integers are accepted."""
    import numpy as np
    import pyarrow as pa

    from nmr_fair_dos_ray.search.engine import (
        IndexReader, QueryScorer, Searcher, run_query,
    )

    s = Searcher(IndexReader(cli_index))
    for k in (2.5, True, 3.0, "3"):
        with pytest.raises(ValueError, match="k must be an integer"):
            s.search("def return", k=k)
        with pytest.raises(ValueError, match="k must be an integer"):
            run_query([s], "phrase", "user name", k)
    assert s.search("def return", k=np.int64(3)) == s.search("def return", k=3)
    batch = pa.table({"query_id": [0], "query": ["def return"]})
    with pytest.raises(ValueError, match="k must be an integer"):
        QueryScorer(index_dir=cli_index, k=2.5)(batch)
    out = QueryScorer(index_dir=cli_index, k=np.int64(3))(batch)
    assert out["doc_id"].to_pylist() == [d for d, _ in s.search("def return", k=3)]


def test_negative_slop_raises_on_every_surface(cli_index, capsys):
    """slop < 0 is a caller error on every surface: the local Searcher,
    run_query, the pool and QueryScorer raise one ValueError, and CLI
    ``--slop -1`` exits 2."""
    from nmr_fair_dos_ray.search.distributed import DocShardedSearcher
    from nmr_fair_dos_ray.search.engine import (
        IndexReader, QueryScorer, Searcher, run_query,
    )

    s = Searcher(IndexReader(cli_index))
    assert s.search_near("user name", k=5, slop=0)
    for ordered in (True, False):
        with pytest.raises(ValueError, match="slop must be >= 0"):
            s.search_near("user name", k=5, slop=-1, ordered=ordered)
        with pytest.raises(ValueError, match="slop must be >= 0"):
            run_query([s], "near", "user name", 5, slop=-1, ordered=ordered)
    with pytest.raises(ValueError, match="slop must be >= 0"):
        QueryScorer(index_dir=cli_index, mode="near", slop=-1)
    pool = DocShardedSearcher(cli_index, pool_size=2)
    try:
        with pytest.raises(ValueError, match="slop must be >= 0"):
            pool.search_near("user name", k=5, slop=-1)
    finally:
        pool.shutdown()

    with pytest.raises(SystemExit) as e:
        main(["search", "--index", cli_index, "--query", "user name",
              "--mode", "near", "--slop", "-1"])
    assert e.value.code == 2
    assert "slop must be >= 0" in capsys.readouterr().err
