"""Output checks: each returns a list of problems, empty when the job is good.

Every artifact must read back through magtrap's own readers. Tolerances:

- b = 0 energies match the closed-form Fock-Darwin levels within 1e-10
  (the solver's measured error is ~4e-14 at K = 20 and 30);
- a crossing closes its gap below 1e-10, find_crossing's own stop rule,
  and lies inside the requested bracket;
- the evolve and ramp-compare norm columns stay within 1e-10 of 1
  (measured drift 3e-13 and below);
- imaginary-time energies differ from the variational ones by the grid's
  discretization error, second order in the spacing h: measured up to
  0.30 h^2 (m = 0, b = 1.5, nu = 2 at 128^2); the check allows 0.4 h^2.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from magtrap import QuantumNumbers, TrapParams, fock_darwin_energy
from magtrap.io_utils import read_grid_dump, read_json_record, read_table
from magtrap.radial import solve_sector

EXACT_TOL = 1e-10
GRID_ERROR_PER_H2 = 0.4


def _fock_darwin(nu, m, n=0):
    return fock_darwin_energy(TrapParams(nu=float(nu), b=0.0),
                              QuantumNumbers(m=int(m), n=int(n)))


def _table(path, problems, rows=None):
    _, columns = read_table(path)
    if not columns or not all(np.isfinite(c).all() for c in columns.values()):
        problems.append(f"{path.name}: empty or non-finite table")
    elif rows is not None and len(next(iter(columns.values()))) != rows:
        problems.append(f"{path.name}: expected {rows} rows")
    return columns


def _norm_column(path, problems):
    columns = _table(path, problems)
    norm = columns.get("norm")
    if norm is None or np.max(np.abs(norm - 1.0)) > EXACT_TOL:
        problems.append(f"{path.name}: norm drifts beyond {EXACT_TOL:g}")


def check_groundstate(p, paths, problems):
    _, result = read_json_record(paths[0])
    sectors = result["sectors"]
    best = min(sectors, key=lambda s: (s[1], abs(s[0]), s[0] < 0))
    if result["m_star"] != best[0]:
        problems.append(f"m_star {result['m_star']} is not the argmin {best[0]}")
    if p["b"] == 0.0:
        for m, energy in sectors:
            if abs(energy - _fock_darwin(p["nu"], m)) > EXACT_TOL:
                problems.append(f"b = 0 sector m={m} misses Fock-Darwin")


def check_spectrum(p, paths, problems):
    c = _table(paths[0], problems, p["n_nu"] * p["n_m"] * p["levels"])
    if p["b"] == 0.0 and c:
        for nu, m, n, energy in zip(c["nu"], c["m"], c["level"], c["energy"]):
            if abs(energy - _fock_darwin(nu, m, n)) > EXACT_TOL:
                problems.append(f"b = 0 level (nu={nu}, m={m}, n={n}) "
                                "misses Fock-Darwin")


def check_crossings(p, paths, problems):
    _, result = read_json_record(paths[0])
    lo, hi = p["bracket"]
    if not abs(result["difference"]) < EXACT_TOL:
        problems.append(f"crossing gap {result['difference']:.3e}")
    if not lo < result["nu_star"] < hi:
        problems.append(f"nu* = {result['nu_star']} outside [{lo}, {hi}]")


def check_current(p, paths, problems):
    header, _ = read_table(paths[0])
    _table(paths[0], problems, 1500)
    if not math.isfinite(float(header.get("velocity", "nan"))):
        problems.append("current: no finite velocity in the header")


def check_velocity_sweep(p, paths, problems):
    c = _table(paths[0], problems, p["n_nu"])
    if p["b"] == 0.0 and c:
        for nu, m, energy in zip(c["nu"], c["m_star"], c["energy"]):
            if abs(energy - _fock_darwin(nu, m)) > EXACT_TOL:
                problems.append(f"b = 0 ground level at nu={nu} misses "
                                "Fock-Darwin")


def check_evolve(p, paths, problems):
    _norm_column(paths[0], problems)
    h = 2.0 * p["L"] / p["N"]
    for dump in paths[1:]:
        _, amplitudes, axis = read_grid_dump(dump)
        norm = h * h * float(np.vdot(amplitudes, amplitudes).real)
        if amplitudes.shape != (p["N"], p["N"]) or len(axis) != p["N"]:
            problems.append(f"{dump.name}: wrong grid shape")
        elif abs(norm - 1.0) > EXACT_TOL:
            problems.append(f"{dump.name}: norm {norm!r}")


def check_imag_time(p, paths, problems):
    _, result = read_json_record(paths[0])
    h = 2.0 * p["L"] / p["N"]
    tp = TrapParams(nu=p["nu"], b=p["b"])
    for m, energy in result["energies"]:
        reference = solve_sector(tp, m, size=20).energies[0]
        if not abs(energy - reference) <= GRID_ERROR_PER_H2 * h * h:
            problems.append(f"imag-time m={m}: {energy} vs {reference}")


def check_ramp_compare(p, paths, problems):
    for path in paths:
        _norm_column(path, problems)


CHECKS = {
    "groundstate": check_groundstate,
    "spectrum": check_spectrum,
    "crossings": check_crossings,
    "current": check_current,
    "velocity-sweep": check_velocity_sweep,
    "evolve": check_evolve,
    "imag-time": check_imag_time,
    "ramp-compare": check_ramp_compare,
}


def check_cli_job(job: dict, workdir: Path) -> list[str]:
    """Problems with the artifacts a finished CLI job left in workdir."""
    paths = [workdir / name for name in job["outputs"]]
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        return [f"missing artifact(s) {', '.join(missing)}"]
    problems = []
    try:
        CHECKS[job["name"]](job["params"], paths, problems)
    except Exception as exc:  # any reader error means a broken artifact
        problems.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
    return problems


def check_session(job: dict, result: dict) -> list[int]:
    """Indices of requests whose answers are wrong.

    Every request for a state must return bit-identical numbers: a cache
    that hands out mutable arrays shows up as a repeat that differs. b = 0
    states must sit on their closed-form ground level.
    """
    bad = set()
    first = {}
    for i, (state, *values) in enumerate(result["outputs"]):
        finite = all(math.isfinite(float.fromhex(v)) for v in values)
        if not finite or first.setdefault(state, values) != values:
            bad.add(i)
    for s, ((nu, b, m, _), energy) in enumerate(
            zip(job["states"], result["ground_energies"])):
        if b == 0.0 and abs(energy - _fock_darwin(nu, m)) > EXACT_TOL:
            bad.update(i for i, o in enumerate(result["outputs"])
                       if o[0] == s)
    return sorted(bad)
