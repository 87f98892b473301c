"""Run one benchmark job in this fresh interpreter.

    python3 job.py SPEC.json RESULT.json TRACE

SPEC is a job from `workloads.py`; TRACE is 0 or 1. A CLI job calls
``magtrap.cli.main(argv)`` (``python -m magtrap.cli`` would exit 0 without
running anything: the module has no ``__main__`` guard). A session job is one
long-lived library process. RESULT receives the job's own timestamps, taken
on the monotonic clock that the parent also reads, its spans when traced,
and, for a session, what every request returned. The exit code is the CLI's,
or 1 when the job raised.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def run_cli(job, tracer, result):
    import magtrap.cli
    return magtrap.cli.main(job["argv"])


def run_session(job, tracer, result):
    import numpy as np

    from magtrap import TrapParams, observables, radial

    states = [(TrapParams(nu=nu, b=b), m, K) for nu, b, m, K in job["states"]]
    if tracer:
        tracer.job_id = "setup"
    result["ground_energies"] = [
        float(radial.solve_sector(tp, m, size=K).energies[0])
        for tp, m, K in states]
    result["setup_done"] = time.monotonic()

    latencies, outputs = [], []
    for i, s in enumerate(job["order"]):
        if tracer:
            tracer.job_id = i
        tp, m, K = states[s]
        t0 = time.perf_counter()
        sol = radial.solve_sector(tp, m, size=K)
        wf = observables.RadialWavefunction.from_solution(sol)
        rho = np.linspace(0.02, wf.rho_max, job["current_points"])
        current = observables.current_density(wf, tp, rho)
        _, _, jx, jy = observables.current_vector_field(
            wf, tp, 6.0, job["field_n"])
        velocity = observables.velocity_expectation(wf, tp)
        profile = observables.density_profile(wf)
        latencies.append(time.perf_counter() - t0)
        # exact bit patterns: a repeat must return the very same numbers
        outputs.append([s] + [float(x).hex() for x in (
            velocity, profile.mean_rho, profile.rho_peak,
            current.J.sum(), np.abs(jx).sum() + np.abs(jy).sum())])
    result["latencies"] = latencies
    result["outputs"] = outputs
    return 0


def main(argv):
    spec_path, result_path, trace = argv
    with open(spec_path) as fh:
        job = json.load(fh)
    result = {}
    t0 = time.perf_counter()
    if job["kind"] == "cli":
        import magtrap.cli  # noqa: F401
    else:
        import magtrap  # noqa: F401
    result["import_s"] = time.perf_counter() - t0
    result["imported"] = time.monotonic()

    tracer = None
    if trace == "1":
        import spans
        tracer = spans.Tracer(0)
        spans.install(tracer)
    runner = run_cli if job["kind"] == "cli" else run_session
    try:
        code = runner(job, tracer, result)
    except Exception:
        result["error"] = traceback.format_exc()
        code = 1
    if tracer:
        result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
