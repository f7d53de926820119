"""Benchmark worker: one process, one workload, one job at a time.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1 and ``src`` on
``PYTHONPATH``.  It sets the workload up, prints ``ready``, runs whole cycles
of jobs in a closed loop for the given number of seconds, checks every job's
output and prints ``result <json>`` as its last line.  With ``--setup-only``
it exits after ``ready``; with ``--trace 1`` it runs the jobs untraced for
half the time and then the same jobs traced, and reports per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import workloads
from tracer import Tracer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_program():
    import qskyrm
    import qskyrm.cli  # noqa: F401  (the entry point the jobs go through)

    here = os.path.realpath(os.path.dirname(qskyrm.__file__))
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"qskyrm imported from {here}, not from {SRC}")


class Loop:
    """Closed loop over a workload's jobs: times, failures and check errors."""

    def __init__(self, wl):
        self.wl = wl
        self.times: list[float] = []
        self.failed = 0
        self.check_errors: list[str] = []

    def run(self, seconds: float | None = None, count: int | None = None):
        """Run jobs 0, 1, ...: stop after ``count`` jobs, or, at the end of a
        cycle, before a cycle whose median-predicted end would pass
        ``seconds``.  The first cycle always runs."""
        cycle = self.wl.cycle
        t_start = time.perf_counter()
        walls: list[float] = []  # every attempt, failed ones included
        while True:
            i = len(walls)
            if count is not None and len(walls) >= count:
                break
            if seconds is not None and walls and i % cycle == 0:
                predicted = (time.perf_counter() - t_start
                             + cycle * statistics.median(walls))
                if predicted > seconds:
                    break
            self.wl.prepare_job(i)
            t0 = time.perf_counter()
            try:
                self.wl.run_job(i)
                ok = True
            except Exception as exc:  # a failed job is counted, not fatal
                ok = False
                print(f"job {i} failed: {exc!r}", file=sys.stderr)
            walls.append(time.perf_counter() - t0)
            if not ok:
                self.failed += 1
            else:
                self.times.append(walls[-1])
                try:
                    self.wl.check_job(i)
                except workloads.CheckFailed as exc:
                    self.check_errors.append(f"job {i}: {exc}")
        return len(walls)


def _layer_metrics(tracer: Tracer, wl: workloads.Workload, jobs: int) -> dict:
    def per_job(value):
        return value / jobs

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in ("hilbert.herald_polarization", "modes.mode_stack",
                 "stokesfield.stokes_of_photon_state", "stokesfield.normalize_stokes",
                 "topology.skyrmion_density", "topology.locate_quasiparticles",
                 "tomography.reconstruct", "export.write_pgm", "export.write_json",
                 "export.write_csv"):
        st = tracer.stat(name)
        put(f"{name}.calls", per_job(st.calls), "count")
        put(f"{name}.self_s", per_job(st.self_s), "s")
    for name in ("topology.sphere_sweep", "topology.track_dynamics",
                 "tomography.simulate_counts", "tomography.forward_model",
                 "cli.resolve_config", "cli.main"):
        put(f"{name}.self_s", per_job(tracer.stat(name).self_s), "s")

    stokes = tracer.stat("stokesfield.stokes_of_photon_state")
    put("stokesfield.stokes_of_photon_state.cells", per_job(stokes.cells), "count")
    put("stokesfield.stokes_of_photon_state.density_self_s",
        per_job(stokes.density_self_s), "s")
    put("stokesfield.stokes_of_photon_state.calls_per_frame",
        stokes.calls / (jobs * wl.frames_per_job), "ratio")
    norm = tracer.stat("stokesfield.normalize_stokes")
    put("stokesfield.normalize_stokes.filled_frac",
        norm.filled_sum / norm.calls if norm.calls else 0.0, "ratio")
    sweep = tracer.stat("topology.sphere_sweep")
    put("topology.sphere_sweep.valid_frac",
        sweep.valid_sum / sweep.calls if sweep.calls else 0.0, "ratio")
    put("topology.integer_miss_max", wl.integer_miss_max, "charge")
    rec = tracer.stat("tomography.reconstruct")
    put("tomography.reconstruct.iterations", per_job(rec.iterations), "count")
    put("tomography.reconstruct.cap_hits", per_job(rec.cap_hits), "count")
    put("export.bytes_written",
        per_job(sum(tracer.stat(w).bytes for w in
                    ("export.write_pgm", "export.write_json", "export.write_csv"))), "B")
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_program()
    # a traced run fails here, before any job, when a traced function is gone
    tracer = Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {}
    if args.trace:
        # untraced reference first, then the very same jobs traced
        plain = Loop(wl)
        n = plain.run(seconds=0.5 * args.seconds)
        traced = Loop(wl)
        tracer.install()
        try:
            traced.run(count=n)
        finally:
            tracer.uninstall()
        loops = (plain, traced)
        layers = _layer_metrics(tracer, wl, n)
        layers["trace.overhead_frac"] = {
            "value": sum(traced.times) / sum(plain.times) - 1.0, "unit": "ratio"}
        result["layers"] = layers
    else:
        loop = Loop(wl)
        n = loop.run(seconds=args.seconds)
        loops = (loop,)
    result["attempted"] = n * len(loops)
    result["failed"] = sum(lp.failed for lp in loops)
    result["check_errors"] = [e for lp in loops for e in lp.check_errors]
    result["job_times"] = loops[0].times
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
