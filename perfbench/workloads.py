"""Seeded job lists for the three benchmark workloads.

A job is a plain dict that `job.py` runs in a fresh interpreter:

- ``{"kind": "cli", "name": <subcommand>, "argv": [...], "outputs": [...],
  "params": {...}}`` calls ``magtrap.cli.main(argv)``. ``outputs`` are the
  artifacts the job must leave in its working directory and ``params`` holds
  what the output checks need to know about the inputs.
- ``{"kind": "session", "states": [[nu, b, m, K], ...], "order": [...]}`` is
  one long-lived library process: it solves every state once (set-up) and
  then serves one request per entry of ``order``.

Only the seed and the run length pick the jobs, so the same arguments give
byte-identical argv lists. Every draw stays where the physics holds (for
example b > 0 for a 0<->1 crossing), so a failure is a real one.

Run length sets the number of *units*, each with a fixed job mix: the seed
picks the parameter values and the order of a unit's cycles, never how much
work a unit or a cycle holds. That keeps run-to-run spread down to the
machine's noise. Every CLI job carries the index of its ``cycle``; the
CLI workloads' latency quantiles are taken over whole cycles.
"""

from __future__ import annotations

import random

# Share of --seconds that buys one unit: a 30 s run holds 1 spectra, 6
# session or 2 dynamics units, 25-35 s of jobs on a 2-core machine.
UNIT_SECONDS = {"spectra": 30.0, "session": 5.0, "dynamics": 14.0}

# The CLI kinds in the order a cycle runs them; the traced run replays one
# cycle untraced to measure its own overhead.
CYCLES = {
    "spectra": ("groundstate", "spectrum", "crossings", "current",
                "velocity-sweep"),
    "dynamics": ("evolve", "imag-time", "ramp-compare"),
}

SESSION_REQUESTS = 300  # requests one session serves
SESSION_FIELD_N = 64    # current_vector_field grid is n x n
SESSION_CURRENT_POINTS = 1500

# Ground-state scans cover the narrowest window the library accepts.
M_RANGE = "-2:4"

# (kind, K) of the spectra jobs that run at b = 0
ZERO_B_SLOTS = {("groundstate", 30), ("spectrum", 20)}

# Basis size of each spectra kind but crossings in the two cycles of a unit. Each
# kind runs once at K = 20 and once at K = 30, split so that the two cycles
# cost about the same (within ~5 % on a 2-core machine): a cycle is one
# latency sample, and a seed must not make one cycle heavier than another.
SPECTRA_SIZES = ({"groundstate": 30, "spectrum": 30, "current": 20,
                  "velocity-sweep": 20},
                 {"groundstate": 20, "spectrum": 20, "current": 30,
                  "velocity-sweep": 30})

# (m, K, b = 0?) of a session's states: every m at both basis sizes
SESSION_SLOTS = ((0, 20, True), (0, 30, False), (1, 20, False),
                 (1, 30, True), (2, 20, False), (2, 30, False))


def _num(x: float) -> str:
    return f"{x:.3f}"


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    # rounded so that the argv text and the checked value are the same number
    return round(rng.uniform(lo, hi), 3)


def units_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / UNIT_SECONDS[workload]))


def _coupling(rng: random.Random, kind: str, K: int) -> float:
    # a fixed share of the spectra points, 2 of the 8 non-crossing jobs, sit
    # at b = 0; in fixed slots, because a b = 0 solve costs about half
    return 0.0 if (kind, K) in ZERO_B_SLOTS else _draw(rng, 0.5, 5.0)


def _cli(name, cycle, argv, outputs, **params):
    return {"kind": "cli", "name": name, "cycle": cycle,
            "argv": [name, *argv], "outputs": outputs, "params": params}


# spectra: what a CLI user waits for. Each job pays its import, its lazy
# set-up and a cold pencil cache; cold extended-precision radial solves
# dominate, so radial changes show here, and any per-(|m|, K) set-up is
# paid once per job, so a regression on one-shot jobs cannot hide.
def spectra_jobs(seed: int, units: int) -> list[dict]:
    rng = random.Random(f"spectra:{seed}")
    jobs = []
    for u in range(units):
        # one unit is two cycles, one of each SPECTRA_SIZES split, in seeded
        # order. Crossings stay at K = 20: their ~60 cold solves cost ~5 s
        # there and ~15 s at K = 30, more than the rest of a unit.
        splits = rng.sample(SPECTRA_SIZES, 2)
        for c, sizes in enumerate(splits):
            tag, cycle = f"u{u}c{c}", 2 * u + c
            K = sizes["groundstate"]
            nu, b = _draw(rng, 0.2, 2.5), _coupling(rng, "groundstate", K)
            out = f"groundstate_{tag}.json"
            jobs.append(_cli("groundstate", cycle,
                             ["--nu", _num(nu), "--b", _num(b),
                              "--m-range", M_RANGE, "--K", str(K),
                              "--out", out],
                             [out], nu=nu, b=b))

            K = sizes["spectrum"]
            b = _coupling(rng, "spectrum", K)
            lo, step = _draw(rng, 0.1, 1.0), _draw(rng, 0.2, 0.5)
            # hi sits half a step past the third point: exactly 3 nu values
            grid = f"{_num(lo)}:{_num(lo + 2.5 * step)}:{_num(step)}"
            out = f"spectrum_{tag}.csv"
            jobs.append(_cli("spectrum", cycle,
                             ["--b", _num(b), "--nu-grid", grid,
                              "--m", "0,1,2", "--levels", "3", "--K", str(K),
                              "--out", out],
                             [out], b=b, n_nu=3, n_m=3,
                             levels=3))

            # b in [0.5, 3] puts nu* between 0.55 and 2.07, inside every
            # drawn bracket; b = 0 has no 0<->1 crossing at all
            b = _draw(rng, 0.5, 3.0)
            lo, hi = _draw(rng, 0.03, 0.1), _draw(rng, 4.0, 6.0)
            out = f"crossings_{tag}.json"
            jobs.append(_cli("crossings", cycle,
                             ["--b", _num(b), "--m1", "0", "--m2", "1",
                              "--nu-bracket", f"{_num(lo)}:{_num(hi)}",
                              "--K", "20", "--out", out],
                             [out], b=b,
                             bracket=[lo, hi]))

            K = sizes["current"]
            nu, b, m = (_draw(rng, 0.2, 2.5), _coupling(rng, "current", K),
                        rng.choice((0, 1, 2)))
            out = f"current_{tag}.csv"
            jobs.append(_cli("current", cycle,
                             ["--nu", _num(nu), "--b", _num(b), "--m", str(m),
                              "--K", str(K), "--out", out],
                             [out], nu=nu, b=b, m=m))

            K = sizes["velocity-sweep"]
            b = _coupling(rng, "velocity-sweep", K)
            lo, step = _draw(rng, 0.1, 1.5), _draw(rng, 0.3, 0.8)
            grid = f"{_num(lo)}:{_num(lo + 1.5 * step)}:{_num(step)}"
            out = f"velocity_sweep_{tag}.csv"
            jobs.append(_cli("velocity-sweep", cycle,
                             ["--b", _num(b), "--nu-grid", grid,
                              "--m-range", M_RANGE, "--K", str(K),
                              "--out", out],
                             [out], b=b, n_nu=2))
    return jobs


# session: the notebook user. One process solves a handful of states and
# then revisits them, so almost every solve repeats a point already solved
# and observables quadrature dominates each request. Replacing the
# per-point cache shows here as per-request cost and as set-up cost.
def session_jobs(seed: int, units: int) -> list[dict]:
    rng = random.Random(f"session:{seed}")
    jobs = []
    for _ in range(units):
        states = [[_draw(rng, 0.2, 2.5),
                   0.0 if zero_b else _draw(rng, 0.5, 5.0), m, K]
                  for m, K, zero_b in rng.sample(SESSION_SLOTS, 6)]
        order = [i % len(states) for i in range(SESSION_REQUESTS)]
        rng.shuffle(order)
        jobs.append({"kind": "session", "states": states, "order": order,
                     "field_n": SESSION_FIELD_N,
                     "current_points": SESSION_CURRENT_POINTS})
    return jobs


# dynamics: split-step FFTs, the record path (observables, frame rotation,
# edge guard), ramp rebuilds, imaginary-time stages and npz/CSV writes do
# the work and the radial layer does none, so dynamics changes show here
# and radial or observables changes should not.
def dynamics_jobs(seed: int, units: int) -> list[dict]:
    rng = random.Random(f"dynamics:{seed}")
    jobs = []
    for u in range(units):
        tag = f"u{u}"
        # evolve: kicked packet at xi0 = 4 on a 256^2, L = 12 box, 800 steps
        # with a record every 10th, two snapshots and the final grid dump;
        # long enough to cost clearly more than an imag-time job, so that the
        # job median is an evolve job, not whichever of the two ran slower

        nu, b = _draw(rng, 0.5, 1.5), _draw(rng, 0.5, 1.5)
        out = f"evolve_{tag}.csv"
        stem = out[:-4]
        jobs.append(_cli("evolve", u,
                         ["--nu", _num(nu), "--b", _num(b), "--xi0", "4",
                          "--L", "12", "--N", "256", "--tau-end", "0.8",
                          "--snapshots", "0.4", "--format", "grid-dump",
                          "--out", out],
                         [out, f"{stem}_snap001.npz", f"{stem}_snap002.npz",
                          f"{stem}_final.npz"],
                         nu=nu, b=b, N=256, L=12.0))

        nu, b = _draw(rng, 0.5, 1.5), _draw(rng, 0.5, 3.0)
        out = f"imag_time_{tag}.json"
        jobs.append(_cli("imag-time", u,
                         ["--nu", _num(nu), "--b", _num(b), "--m", "0,1",
                          "--N", "128", "--out", out],
                         [out], nu=nu, b=b,
                         m=[0, 1], N=128, L=8.0))

        # 128^2 only: at 256^2 the softcore relaxation alone takes ~40 s
        nu, b = _draw(rng, 0.5, 1.5), _draw(rng, 0.5, 2.0)
        out = f"ramp_compare_{tag}.csv"
        stem = out[:-4]
        jobs.append(_cli("ramp-compare", u,
                         ["--nu", _num(nu), "--b", _num(b), "--tau-ramp", "1",
                          "--tau-end", "3", "--N", "128", "--out", out],
                         [f"{stem}_step.csv", f"{stem}_smooth.csv"],
                         nu=nu, b=b))
    return jobs


BUILDERS = {"spectra": spectra_jobs, "session": session_jobs,
            "dynamics": dynamics_jobs}


def build(workload: str, seed: int, seconds: float) -> list[dict]:
    return BUILDERS[workload](seed, units_for(workload, seconds))
