"""Benchmark entry point for qskyrm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is not installed: a
worker process (``worker.py``) imports it from ``src/`` with BLAS/OpenMP
threads pinned to 1, sets the workload up and runs its jobs one at a time
for ``--seconds`` seconds, checking each job's output.  With ``--trace 0``
the last line of standard output is a JSON object holding the end-to-end
metrics (set-up time, jobs per second, median job time, peak RSS); with
``--trace 1`` it holds the per-layer metrics of a traced run of the same
jobs.  Exits non-zero, printing no result, when the checkout holds no
``src/qskyrm`` or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 4  # extra fresh workers timed only through set-up
DEADLINE_MARGIN_S = 60.0  # set-up probes and one overrunning cycle
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    for name in PINNED_THREADS:
        env[name] = "1"
    env["PYTHONPATH"] = SRC
    return env


def _kill(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        proc.kill()


def _start_worker(args, workdir: str, extra: list[str],
                  live: list[subprocess.Popen]) -> tuple[subprocess.Popen, float]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT,
                            text=True)
    live.append(proc)
    return proc, t0


def _read_line(proc: subprocess.Popen) -> str:
    line = proc.stdout.readline()
    if not line:
        proc.wait()
        raise WorkerError(f"worker exited with code {proc.returncode} before reporting")
    return line.strip()


def _timed_setup(proc: subprocess.Popen, t0: float) -> float:
    """Seconds from starting the worker to its ``ready`` line."""
    if _read_line(proc) != "ready":
        raise WorkerError("worker did not report ready")
    return time.perf_counter() - t0


def _run(args, workdir: str, live: list[subprocess.Popen]) -> dict:
    setups = []
    if not args.trace:
        for k in range(SETUP_PROBES):
            proc, t0 = _start_worker(args, os.path.join(workdir, f"probe{k}"),
                                     ["--setup-only"], live)
            try:
                setups.append(_timed_setup(proc, t0))
            finally:
                proc.stdout.close()
                proc.wait()
    proc, t0 = _start_worker(args, os.path.join(workdir, "main"), [], live)
    try:
        setups.append(_timed_setup(proc, t0))
        line = _read_line(proc)
        if not line.startswith("result "):
            raise WorkerError(f"unexpected worker output {line[:80]!r}")
        report = json.loads(line[len("result "):])
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    report["setups"] = setups
    return report


def _run_with_deadline(args, workdir: str) -> dict:
    """``_run``, with every worker killed once the run passes its deadline:
    twice ``--seconds`` (a traced run measures the same jobs twice) plus a
    margin."""
    live: list[subprocess.Popen] = []
    watchdog = threading.Timer(2.0 * args.seconds + DEADLINE_MARGIN_S, _kill, (live,))
    watchdog.start()
    try:
        return _run(args, workdir, live)
    finally:
        watchdog.cancel()
        _kill(live)


def _end_to_end(report: dict) -> dict:
    times = report["job_times"]
    return {
        "setup_s": {"value": statistics.median(report["setups"]), "unit": "s"},
        "jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "job_p50_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "qskyrm", "__init__.py")):
        print(f"no qskyrm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, str(os.getpid()))
    try:
        report = _run_with_deadline(args, workdir)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    if not report["job_times"]:
        print("no job completed", file=sys.stderr)
        return 1
    for err in report["check_errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not report["check_errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["layers"] if args.trace else _end_to_end(report),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
