"""Timing wrappers around magtrap's public functions, and what they yield.

The traced run measures every layer from outside: `install` replaces each
public function below with a wrapper that records a span (name, start, end,
parent, job id, counts) in memory. A function object is replaced in every
`magtrap` module namespace that holds it, because `cli` and `observables`
import names from `radial` directly. `layer_metrics` turns the spans of all
jobs into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

TRACED = {
    "radial": ("solve_sector", "ground_state_scan", "spectrum_sweep",
               "find_crossing"),
    "observables": ("velocity_expectation", "density_profile",
                    "current_density", "current_vector_field",
                    "ground_velocity_sweep"),
    "dynamics": ("evolve", "imaginary_time_ground"),
    "io_utils": ("write_table", "write_json_record", "write_grid_dump"),
    "cli": ("main",),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []   # [name, start, end, parent, job_id, counts]
        self._stack = []

    def span(self, name, fn, counts=None, before=None):
        """Wrap fn; counts(args, kwargs, result, before) fills span counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            record = [name, time.perf_counter(), None,
                      self._stack[-1] if self._stack else -1, self.job_id, {}]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if counts:
                record[5] = counts(args, kwargs, result, pre)
            return result

        return wrapper


def _bound(sig, args, kwargs):
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _file_bytes(path) -> int:
    path = os.fspath(path)
    # np.savez_compressed appends .npz when the name lacks it
    return os.path.getsize(path if os.path.exists(path) else path + ".npz")


def _counters(mod_name, fn_name, fn):
    """(before, counts) hooks for the functions whose counts we keep."""
    sig = inspect.signature(fn)
    if (mod_name, fn_name) == ("radial", "solve_sector"):
        requested = set()

        def before(args, kwargs):
            a = _bound(sig, args, kwargs)
            key = (a["m"], a["size"], float(a["alpha"]), a["tp"].nu, a["tp"].b)
            repeat = key in requested
            requested.add(key)
            return repeat
        return before, lambda a, k, r, repeat: {"repeat": int(repeat)}
    if (mod_name, fn_name) == ("dynamics", "evolve"):
        def before(args, kwargs):
            a = _bound(sig, args, kwargs)
            return max(1, round((a["tau_end"] - a["state"].tau) / a["dtau"]))
        return before, lambda a, k, r, steps: {"steps": steps,
                                                "records": len(r.tau)}
    if fn_name in ("write_table", "write_grid_dump"):
        return None, lambda a, k, r, _: {
            "bytes": _file_bytes(_bound(sig, a, k)["path"])}
    return None, None


def install(tracer: Tracer) -> None:
    """Route every public call listed in TRACED through tracer."""
    import magtrap.cli  # noqa: F401  (loads every module below)
    from magtrap.observables import RadialWavefunction

    modules = [m for name, m in sys.modules.items()
               if name == "magtrap" or name.startswith("magtrap.")]
    for mod_name, names in TRACED.items():
        mod = sys.modules[f"magtrap.{mod_name}"]
        for fn_name in names:
            fn = getattr(mod, fn_name)
            before, counts = _counters(mod_name, fn_name, fn)
            wrapped = tracer.span(f"{mod_name}.{fn_name}", fn, counts, before)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)
    # a classmethod: wrap the underlying function, rebind on the class
    raw = RadialWavefunction.__dict__["from_solution"].__func__
    RadialWavefunction.from_solution = classmethod(
        tracer.span("observables.from_solution", raw))


# ---------------------------------------------------------------------------
# per-layer metrics from merged spans

# (metric name, unit) in the order the traced run prints them
LAYER_METRICS = (
    ("radial.solve_sector.calls", "count"),
    ("radial.solve_sector.self_s", "s"),
    ("radial.solve_sector.p50_ms", "ms"),
    ("radial.solve_sector.repeat_share", "share"),
    ("radial.ground_state_scan.s", "s"),
    ("radial.spectrum_sweep.s", "s"),
    ("radial.find_crossing.s", "s"),
    ("radial.find_crossing.solves_per_call", "count"),
    ("observables.from_solution.s", "s"),
    ("observables.from_solution.calls", "count"),
    ("observables.velocity_expectation.s", "s"),
    ("observables.velocity_expectation.calls", "count"),
    ("observables.density_profile.s", "s"),
    ("observables.density_profile.calls", "count"),
    ("observables.current_density.s", "s"),
    ("observables.current_density.calls", "count"),
    ("observables.current_vector_field.s", "s"),
    ("observables.current_vector_field.calls", "count"),
    ("observables.ground_velocity_sweep.self_s", "s"),
    ("observables.ground_velocity_sweep.calls", "count"),
    ("dynamics.evolve.s", "s"),
    ("dynamics.evolve.steps", "count"),
    ("dynamics.evolve.records", "count"),
    ("dynamics.evolve.ms_per_step", "ms"),
    ("dynamics.imaginary_time_ground.s", "s"),
    ("dynamics.imaginary_time_ground.calls", "count"),
    ("dynamics.strang_step.ms", "ms"),
    ("dynamics.rotate_frame.ms", "ms"),
    ("dynamics.state_observables.ms", "ms"),
    ("io_utils.write_table.s", "s"),
    ("io_utils.write_table.bytes", "B"),
    ("io_utils.write_json_record.s", "s"),
    ("io_utils.write_grid_dump.s", "s"),
    ("io_utils.write_grid_dump.bytes", "B"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_share", "share"),
)


def layer_metrics(processes, extra: dict) -> dict:
    """Sum spans by name into LAYER_METRICS; extra supplies the rest.

    processes holds one span list per traced process; a span's parent is an
    index into its own process's list. Self time is a span's duration minus
    that of its direct children.
    """
    total, self_s, calls, durations, counts = {}, {}, {}, {}, {}
    crossing_solves = 0
    for spans in processes:
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        for i, (name, start, end, parent, _, cnt) in enumerate(spans):
            d = end - start
            total[name] = total.get(name, 0.0) + d
            self_s[name] = self_s.get(name, 0.0) + d - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(d)
            for k, v in cnt.items():
                counts[(name, k)] = counts.get((name, k), 0) + v
            if name == "radial.solve_sector":
                p = parent
                while p >= 0 and spans[p][0] != "radial.find_crossing":
                    p = spans[p][3]
                crossing_solves += p >= 0

    out = dict(extra)
    for name, unit in LAYER_METRICS:
        if name in out:
            continue
        base, _, field = name.rpartition(".")
        n = calls.get(base, 0)
        if field == "s":
            value = total.get(base, 0.0)
        elif field == "self_s":
            value = self_s.get(base, 0.0)
        elif field == "calls":
            value = n
        elif field == "p50_ms":
            value = 1e3 * statistics.median(durations[base]) if n else 0.0
        elif field == "repeat_share":
            value = counts.get((base, "repeat"), 0) / n if n else 0.0
        elif field == "solves_per_call":
            value = crossing_solves / n if n else 0.0
        elif field == "ms_per_step":
            steps = counts.get((base, "steps"), 0)
            value = 1e3 * total.get(base, 0.0) / steps if steps else 0.0
        else:  # steps, records, bytes
            value = counts.get((base, field), 0)
        out[name] = value
    return {name: {"value": out[name], "unit": unit}
            for name, unit in LAYER_METRICS}
