"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Smoke: every workload, untraced and traced, for one second on one seed;
   each run must pass its checks and print exactly the metrics BENCHMARK.json
   names for its mode.
2. Negative: the search checks must fail when one returned score moves by
   one unit in the last place, and when two returned doc ids swap.
3. Stop: a run sent SIGTERM while its first Ray tasks run must exit non-zero
   and leave no process of its Ray session behind.
4. Inputs: the oracle's shortcut for the wide row (its block's tokens,
   repeated) must equal ``Tokenizer.tokenize`` of the whole row.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import procs  # noqa: E402
import run  # noqa: E402

SEED = 11


def smoke(bench: dict) -> None:
    for trace in (0, 1):
        want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
        for w in bench["workloads"]:
            out = subprocess.run(
                bench["command"] + ["--workload", w["name"], "--seed", str(SEED),
                                    "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=300)
            assert out.returncode == 0, f"{w['name']} trace={trace}: exit {out.returncode}"
            res = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, res
            assert set(res["metrics"]) == want, set(res["metrics"]) ^ want
            assert all(math.isfinite(m["value"]) for m in res["metrics"].values())
            if not trace:
                assert all(m["value"] > 0 for m in res["metrics"].values()), res
            print(f"smoke {w['name']} trace={trace}: ok, {res['attempted']} checked operations")


def negative() -> None:
    from nmr_fair_dos_ray.search import engine

    cache = run.prepare(SEED)
    work = os.path.join(run.WORK, f"selftest{os.getpid()}")
    session = run.RaySession(work)
    try:
        session.start()
        import workloads

        r = workloads.Run("search", cache, work, 1, False, session)
        r.setup(time.perf_counter())
        assert r.chk.failed == 0
        orig = engine.Searcher.search

        def one_ulp(self, *a, **kw):
            hits = orig(self, *a, **kw)
            if hits:
                d, s = hits[0]
                hits[0] = (d, math.nextafter(s, math.inf))
            return hits

        def swap_ids(self, *a, **kw):
            hits = orig(self, *a, **kw)
            if len(hits) > 1:
                (d0, s0), (d1, s1) = hits[:2]
                hits[:2] = [(d1, s0), (d0, s1)]
            return hits

        for name, fake in (("one-ulp score", one_ulp), ("swapped doc ids", swap_ids)):
            before = r.chk.failed
            engine.Searcher.search = fake
            try:
                r.search_round(timed=False)
            finally:
                engine.Searcher.search = orig
            assert r.chk.failed > before, f"{name} was not caught"
            print(f"negative {name}: caught by {r.chk.failed - before} failed checks")
    finally:
        left = session.stop()
        shutil.rmtree(work, ignore_errors=True)
        assert not left, left


def stop_on_sigterm(bench: dict) -> None:
    p = subprocess.Popen(
        bench["command"] + ["--workload", "serve", "--seed", str(SEED), "--seconds", "5",
                            "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    seen: set = set()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and not any(
            procs.cmdline(pid).startswith("ray::") for pid, _ in seen):  # a task runs
        time.sleep(0.5)
        seen |= procs.descendants(p.pid)
    time.sleep(2)
    seen |= procs.descendants(p.pid)
    p.send_signal(signal.SIGTERM)
    rc = p.wait(timeout=120)
    assert rc != 0, "a stopped run must not exit 0"
    left = [pid for pid, start in seen if procs.alive(pid, start)]
    assert not left, f"left running after SIGTERM: {left}"
    print(f"stop: exit {rc}, none of {len(seen)} session processes left")


def wide_row() -> None:
    import inputs
    from nmr_fair_dos_ray.tokenizer import Tokenizer

    _, (block, n) = inputs.make_rows(SEED)
    want = Tokenizer("code").tokenize(block * n)
    assert inputs._MemoTokenizer((block, n)).tokenize(block * n) == want
    print(f"inputs: the wide row's {len(want)} tokens match")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wide_row()
    negative()
    stop_on_sigterm(bench)
    smoke(bench)
    print("selftest ok")


if __name__ == "__main__":
    main()
