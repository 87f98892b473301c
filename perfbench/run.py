"""magtrap benchmark: one seeded workload, checked, with its metrics.

    python3 perfbench/run.py --workload {spectra,session,dynamics}
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is taken from ``src/`` next to this
directory, so a plain source checkout is all it needs. The load is a closed
loop with one client: jobs run one after another, each in a fresh
interpreter started from this process, so at most one child exists at a
time. Every job's outputs are checked; a nonzero exit, a raised error, a
missing or unreadable artifact or a failed check counts as a failed
operation.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, in seconds of a quiet reference machine (see
machine_slice); with ``--trace 1`` it holds the per-layer metrics of a
traced pass (see spans.py), whose first cycle is also replayed untraced to
measure the tracing overhead. Earlier lines carry the run metadata, each
job's raw seconds and speed, and a summary with the failed share.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"   # every file a run writes, removed at exit
RUN_LIMIT_S = 165.0   # stop launching jobs after this; the whole run has 180 s

# While a job runs, the benchmark process times a fixed slice of pure-Python
# big-integer arithmetic (the kind mpmath's Python backend does) every
# SAMPLE_EVERY_S on the other core. The cores are shared with other tenants:
# a run can be 1.5x slower in one half-minute than in the next, on both
# cores at once. A job's times are scaled by how much slower the slice ran
# during that job than on the reference machine.
SAMPLE_EVERY_S = 0.1
SLICE_STEPS = 15_000
SLICE_MODULUS = (1 << 200) + 12345
REFERENCE_SLICE_S = 0.0024  # the slice's CPU time on a quiet 2-core machine

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"),
              ("job_p90_s", "s"), ("peak_rss_mb", "MB"))


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1, the committed one)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run length; sets the number of units")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metadata() -> dict:
    """What the radial and grid numbers depend on besides the code."""
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def machine_slice() -> float:
    """CPU seconds this thread needs for a fixed slice of big-int work.

    CPU time, not wall time: waiting for a core the job holds does not
    count, while a host that runs the core slower does.
    """
    t0 = time.thread_time()
    x = 7
    for i in range(SLICE_STEPS):
        x = (x * 3 + i) % SLICE_MODULUS
    return time.thread_time() - t0


def run_child(argv, workdir: Path, env, deadline: float):
    """Run one child; (exit code or None if out of time, end, slices).

    `end` is taken the moment the child exits: a pidfd turns readable then,
    and between polls the sampler times its slices.
    """
    samples = []
    with open(workdir / "stderr.txt", "w") as err:
        proc = subprocess.Popen(argv, cwd=workdir, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [], SAMPLE_EVERY_S)[0]:
                if time.monotonic() >= deadline:
                    return None, time.monotonic(), samples
                samples.append(machine_slice())
            end = time.monotonic()
            return proc.wait(), end, samples
        finally:
            os.close(pidfd)
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def run_jobs(jobs, workdir: Path, trace: bool, deadline: float) -> list[dict]:
    """Run each job in its own interpreter, one at a time, and check it."""
    import checks

    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    records = []
    for i, job in enumerate(jobs):
        spec = workdir / f"job{i:03d}.json"
        out = workdir / f"job{i:03d}.result.json"
        spec.write_text(json.dumps(job))
        rec = {"job": job, "result": {}, "problems": []}
        records.append(rec)
        if time.monotonic() >= deadline:
            rec["problems"].append("not run: the run is out of time")
            continue
        rec["launch"] = time.monotonic()
        code, rec["end"], rec["slices"] = run_child(
            [sys.executable, str(HERE / "job.py"), str(spec), str(out),
             "1" if trace else "0"], workdir, env, deadline)
        if code is None:
            rec["problems"].append("killed: the run is out of time")
            continue
        try:
            rec["result"] = json.loads(out.read_text())
        except (OSError, ValueError):
            rec["problems"].append("the job wrote no readable result")
        if code != 0:
            detail = (rec["result"].get("error")
                      or (workdir / "stderr.txt").read_text())
            rec["problems"].append(f"exit {code}: {detail.strip()[-300:]}")
        elif job["kind"] == "cli":
            rec["problems"] += checks.check_cli_job(job, workdir)
        elif not rec["problems"]:
            rec["bad_requests"] = checks.check_session(job, rec["result"])
    return records


def tally(records) -> tuple[int, int]:
    """(attempted, failed) operations: a CLI job or one session request."""
    attempted = failed = 0
    for rec in records:
        job = rec["job"]
        n = len(job["order"]) if job["kind"] == "session" else 1
        attempted += n
        if rec["problems"]:
            failed += n
        else:
            failed += len(rec.get("bad_requests", ()))
    return attempted, failed


def _wall(rec) -> float:
    return rec["end"] - rec["launch"] if "end" in rec else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def speed(rec) -> float:
    """Reference-machine seconds per second of this job's wall time."""
    slices = rec.get("slices")
    return REFERENCE_SLICE_S / statistics.mean(slices) if slices else 1.0


def end_to_end(records) -> dict:
    """End-to-end metrics; every time is scaled by its job's speed()."""
    done = [r for r in records if "imported" in r["result"]]
    if records and records[0]["job"]["kind"] == "session":
        setup = [speed(r) * (r["result"]["setup_done"] - r["launch"])
                 for r in done if "setup_done" in r["result"]]
        latencies = [speed(r) * t for r in done
                     for t in r["result"].get("latencies", ())]
    else:
        setup = [speed(r) * (r["result"]["imported"] - r["launch"])
                 for r in done]
        # a request is one cycle: each of its subcommands once, back to back
        cycles = defaultdict(float)
        for r in records:
            cycles[r["job"]["cycle"]] += speed(r) * _wall(r)
        latencies = list(cycles.values())
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "setup_s": _median(setup),
        "wall_s": sum(speed(r) * _wall(r) for r in records),
        "job_p50_s": _median(latencies),
        "job_p90_s": _p90(latencies),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def probe_dynamics(records, workdir: Path) -> dict:
    """Per-call cost of three grid kernels on an evolve job's final state."""
    from magtrap import (GridSpec, GridState, TrapParams, rotate_frame,
                         state_observables, strang_step)
    from magtrap.io_utils import read_grid_dump

    rec = next((r for r in records if r["job"]["name"] == "evolve"
                and not r["problems"]), None)
    if rec is None:
        return {}
    p = rec["job"]["params"]
    header, amplitudes, _ = read_grid_dump(workdir / rec["job"]["outputs"][-1])
    state = GridState(spec=GridSpec(n=p["N"], half_extent=p["L"]),
                      amplitudes=amplitudes, frame="lab",
                      tau=float(header["tau"]))
    tp = TrapParams(nu=p["nu"], b=p["b"])
    dtau = float(header["dtau"])

    def ms_per_call(fn, reps=20):
        fn()  # builds the cached stepper for this grid
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return 1e3 * statistics.median(times)

    return {
        "dynamics.strang_step.ms": ms_per_call(
            lambda: strang_step(state, tp, dtau)),
        "dynamics.rotate_frame.ms": ms_per_call(
            lambda: rotate_frame(state, 0.3)),
        "dynamics.state_observables.ms": ms_per_call(
            lambda: state_observables(state, tp)),
    }


def traced_run(jobs, workload, workdir, deadline):
    """Untraced replay of the first cycle, then the traced pass.

    trace.overhead_share compares the first cycle's two passes, scaled by
    speed(). The other per-layer times are raw seconds of this run: they are
    read as shares of one another and of trace.wall_s.
    """
    import spans

    first = len(workloads.CYCLES.get(workload, ("session",)))
    reference = run_jobs(jobs[:first], workdir / "reference", False, deadline)
    traced = run_jobs(jobs, workdir / "traced", True, deadline)
    base = sum(speed(r) * _wall(r) for r in reference)
    with_trace = sum(speed(r) * _wall(r) for r in traced[:first])
    extra = {
        "trace.wall_s": sum(_wall(r) for r in traced),
        "trace.overhead_share": (with_trace - base) / base if base else 0.0,
        "cli.import_s": _median([r["result"]["import_s"] for r in traced
                                 if "import_s" in r["result"]]),
    }
    if workload == "dynamics":
        extra.update(probe_dynamics(traced, workdir / "traced"))
    processes = [r["result"]["spans"] for r in traced
                 if "spans" in r["result"]]
    return reference + traced, spans.layer_metrics(processes, extra)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "magtrap" / "__init__.py").is_file():
        sys.stderr.write(f"no magtrap sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    jobs = workloads.build(args.workload, args.seed, args.seconds)
    print(json.dumps({"meta": metadata()}))

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            records, metrics = traced_run(jobs, args.workload, workdir,
                                          deadline)
        else:
            records = run_jobs(jobs, workdir, False, deadline)
            metrics = end_to_end(records)
    finally:
        remove_workdir(workdir)

    attempted, failed = tally(records)
    for rec in records:
        label = " ".join(rec["job"].get("argv", ["session"]))
        print(f"# {_wall(rec):8.3f} s raw, speed {speed(rec):.3f}  {label}")
        for problem in rec["problems"]:
            print(f"#   FAILED: {problem}")
    print(f"# {args.workload} seed={args.seed}: {len(records)} jobs, "
          f"failed_share={failed / attempted:.4g} ({failed}/{attempted}), "
          f"{time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
