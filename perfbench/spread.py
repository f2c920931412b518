"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload search --seeds 1-10 [--seconds 8] [--trace 0]

For each metric: the median, and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
which is what ``bound`` in BENCHMARK.json is compared against. Also prints
the wall time of every run and the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    fails = []
    for seed in seeds(args.seeds):
        t0 = time.monotonic()
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        wall = time.monotonic() - t0
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode} after {wall:.1f} s")
            continue
        res = json.loads(out.stdout.strip().splitlines()[-1])
        fails.append(f"{res['failed']}/{res['attempted']}")
        print(f"seed {seed}: {wall:.1f} s, correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        b = bounds.get(name)
        flag = "" if b is None else ("  OVER a third of bound" if spread > b / 3 else "")
        print(f"{name:28s} median {med:12.5g}  iqr/median {spread:7.4f}"
              f"  bound {b}{flag}")


if __name__ == "__main__":
    sys.exit(main())
