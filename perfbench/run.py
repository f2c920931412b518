"""Benchmark of the fulltext engine: ingest, search and serve on one machine.

    python3 perfbench/run.py --workload {ingest,search,serve} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. Inputs for the seed are generated (and cached)
first, in a child process, by ``perfbench/inputs.py``. Then a second child,
the measured process, starts its own Ray session, walks the user path (see
``workloads.py``), stops Ray on every exit path, checks ``/proc`` for any
process of the session that outlived it, and prints one JSON object as the
last line of standard output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Each run appends its record (seed, CPU count, Ray version,
operations attempted and failed, metrics) to ``.perfbench/runs.jsonl``; a
traced run also writes its spans to ``.perfbench/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
#: AF_UNIX socket paths are limited to 107 bytes, and Ray puts its sockets
#: about 65 bytes below its temp dir
MAX_RAY_TEMP = 40
STOP_WAIT_S = 20.0


class Stopped(BaseException):
    """SIGTERM or SIGINT arrived. A BaseException, like KeyboardInterrupt, so
    that no ``except Exception`` on the way swallows it."""


def _on_signal(signum, frame):
    raise Stopped(signal.Signals(signum).name)


def catch_stop_signals() -> None:
    for s in (signal.SIGTERM, signal.SIGINT):
        signal.signal(s, _on_signal)


class RaySession:
    """One Ray session per run, owned from ``ray.init`` to the survivor check."""

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.seen: set[tuple[int, int]] = set()
        self.started = False

    def start(self) -> None:
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        # keep worker heaps warm, as the test suite and bench.py do: first-touch
        # page faults are slow on small VMs
        os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", "1073741824")
        os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", "-1")
        temp = os.path.join(self.run_dir, "ray")
        if len(temp) > MAX_RAY_TEMP:
            # same directory through this process's cwd, short enough for sockets
            os.chdir(ROOT)
            temp = f"/proc/{os.getpid()}/cwd/{os.path.relpath(temp, ROOT)}"
        import ray
        from ray.data import DataContext

        self.started = True
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False, _temp_dir=temp,
                 object_store_memory=512 * 1024 * 1024)
        # ray.init replaces the SIGTERM handler; take it back so a stop
        # raises Stopped like everywhere else in the run
        catch_stop_signals()
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        self.snapshot()

    def snapshot(self) -> None:
        import procs

        self.seen |= procs.descendants(os.getpid())

    def stop(self) -> list[str]:
        """Shut Ray down and return the processes of this session still
        alive afterwards (killed, so none is left behind)."""
        import procs

        if not self.started:
            return []
        self.snapshot()
        import ray

        ray.shutdown()
        deadline = time.monotonic() + STOP_WAIT_S
        left = self.seen
        while True:
            left = {(p, s) for p, s in left if procs.alive(p, s)}
            if not left or time.monotonic() > deadline:
                break
            time.sleep(0.2)
        out = [f"{p} {procs.cmdline(p)[:120]}" for p, _ in sorted(left)]
        for p, _ in left:
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while left and time.monotonic() < deadline + 5:
            left = {(p, s) for p, s in left if procs.alive(p, s)}
            time.sleep(0.1)
        return out


def prepare(seed: int) -> str:
    """Cache directory of the seed's inputs, made by a child process so that
    no measured process holds their memory."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--seed", str(seed),
         "--work", WORK],
        check=True, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    return out.stdout.strip().splitlines()[-1]


def supervise(args) -> int:
    """Prepare the inputs, run the measured process as a child, and clean up
    after it however it ends. A SIGTERM that lands while ``ray.init`` is
    starting Ray's processes can end the child without unwinding; the Ray
    processes it leaves carry the run directory in their command lines, so
    this process finds and kills them."""
    catch_stop_signals()
    run_dir = os.path.join(WORK, f"run{os.getpid()}")
    child = None
    rc = 1
    try:
        cache = prepare(args.seed)
        os.makedirs(run_dir, exist_ok=True)
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
            env={**os.environ, "PERFBENCH_CACHE": cache, "PERFBENCH_RUN_DIR": run_dir})
        rc = child.wait()
    except Stopped:
        if child is not None:
            child.send_signal(signal.SIGTERM)
            try:
                child.wait(timeout=STOP_WAIT_S + 15)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        rc = 1
    finally:
        for s in (signal.SIGTERM, signal.SIGINT):
            signal.signal(s, signal.SIG_IGN)
        import procs

        left = procs.mentioning(os.path.relpath(run_dir, ROOT) + os.sep)
        for p in left:
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        shutil.rmtree(run_dir, ignore_errors=True)
    if left:
        print(f"processes of this run outlived it (killed now): {left}", file=sys.stderr)
        return 3
    return rc


def measure(args) -> int:
    """The measured process: its own Ray session, the user path, the checks."""
    t_start = time.perf_counter()
    catch_stop_signals()
    sys.path.insert(0, ROOT)
    cache = os.environ["PERFBENCH_CACHE"]
    run_dir = os.environ["PERFBENCH_RUN_DIR"]
    session = RaySession(run_dir)
    result = None
    try:
        session.start()
        import ray

        import workloads

        run = workloads.Run(args.workload, cache, run_dir, args.seconds,
                            bool(args.trace), session)
        run.setup(t_start)
        result = run.walk()
        result["record"] = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cpus": len(os.sched_getaffinity(0)), "ray_cpus": 1,
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"), "ray": ray.__version__,
            "python": platform.python_version(),
        }
        if run.tracer:
            run.tracer.dump(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl"),
                            result["record"])
    finally:
        for s in (signal.SIGTERM, signal.SIGINT):
            signal.signal(s, signal.SIG_IGN)
        left = session.stop()
        if left:
            print("processes of this run outlived it (killed now): " + "; ".join(left),
                  file=sys.stderr)
    if left:
        return 3
    record = result.pop("record")
    with open(os.path.join(WORK, "runs.jsonl"), "a") as f:
        f.write(json.dumps({**record, **result}) + "\n")
    print("record " + " ".join(f"{k}={v}" for k, v in record.items()))
    print(json.dumps(result), flush=True)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("ingest", "search", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    return measure(args) if "PERFBENCH_RUN_DIR" in os.environ else supervise(args)


if __name__ == "__main__":
    sys.exit(main())
