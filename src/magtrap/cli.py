"""Command-line front end producing reproducible figure-data artifacts.

Each subcommand maps a library call onto flat output files: CSV tables for
curves and sweeps, JSON for scalar records, npz grid dumps stored without
deflate for snapshots.  Every artifact embeds a `# key = value` header
echoing the full run configuration, and identical configurations produce
byte-identical tables.  Float flags accept pi-expressions like `pi/12` or `2*pi`.

The annotations of the `RunConfig` fields are the only statement of how a
value is read from a flag, a config file or a header, and of how it is
written back: `float` takes a pi-expression, `X | None` spells an absent
value `none`, a variable-length tuple such as `tuple[int, ...]` is comma
separated, and a fixed-length one such as `tuple[int, int]` is colon
separated and must have that many parts.  A tuple's elements share one
type.

A subcommand's flags are its handler's parameters, named after the
RunConfig fields, plus --seed and --out.  A config-file key that the
command does not take is echoed in its headers and not used.

Each rule on an input is stated once, where the value is built, and a
library ValueError exits 2 like a ConfigError.  TrapParams refuses a
negative nu or b; RadialBasis a basis size outside 1..MAX_BASIS_K (240),
before any reduction; GridSpec a grid above MAX_GRID_N (4096) points per
axis, before any array is built; spectrum_sweep more levels than K, and
find_crossing a reversed bracket or m1 = m2.  A handler checks only what
it builds itself: the nu grid of a sweep, a positive dtau and snapshot
stride, one m for `current`, and the `--format` of `evolve`.  `evolve`
and `ramp-compare` write one record every 10 steps and one at the last,
and refuse, as a configuration error, a run that would take more than
MAX_RECORDS (100 000) records, snapshots included.  The same ceiling holds
for the rows of a sweep table, counted before the nu grid is built:
n_nu x (distinct m) x levels for `spectrum`, n_nu for `velocity-sweep`.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(conditioning, bracketing, norm drift, edge leak, sector leakage, overflow,
running out of memory), 4 I/O failure.  Failures print a single
machine-readable JSON line to stderr.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import json
import math
import operator
import re
import sys
import threading
import typing
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io_utils
from .dynamics import (
    DEFAULT_PACKET_WIDTH,
    GridSpec,
    RampProtocol,
    _step_count,
    evolve,
    gaussian_packet,
    imaginary_time_ground,
)
from .observables import (
    RadialWavefunction,
    current_density,
    ground_velocity_sweep,
    velocity_expectation,
)
from .params import TrapParams, effective_potential
from .radial import (
    DEFAULT_BASIS_SIZE,
    DEFAULT_M_RANGE,
    BracketingError,
    find_crossing,
    ground_state_scan,
    solve_sector,
    spectrum_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# evolve and ramp-compare record the observables every _RECORD_EVERY steps;
# a run that would take more than MAX_RECORDS records (snapshots included)
# is refused up front, since each record costs six one-axis transforms, two
# shear tables and the observables' sums: about 5 ms on a 256^2 grid, where
# a step costs about 2 ms
_RECORD_EVERY = 10
MAX_RECORDS = 100_000

__all__ = ["RunConfig", "ConfigError", "MAX_RECORDS", "parse_pi_expression",
           "main", "console_entry"]


class ConfigError(ValueError):
    """Invalid flags, config file, or parameter combination."""


# ---------------------------------------------------------------------------
# pi-expressions

# checked before ast.parse: keeps out 1_0, 0x1, 1j, True and every name
# but pi
_PI_CHARS = re.compile(r"[0-9.epi+\-*/() ]+")
# Python rejects 01 as an integer literal; the value is plainly 1
_LEADING_ZEROS = re.compile(r"(?<![0-9.])0+(?=[0-9])")
_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv}


def _evaluate(node) -> float:
    # a literal is read through its text, so every operation is a float
    # operation and an integer too long for a float is inf, as 1e999 is
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(repr(node.value))
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_evaluate(node.operand)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        return _BINARY_OPS[type(node.op)](_evaluate(node.left),
                                          _evaluate(node.right))
    raise ValueError(f"{type(node).__name__} is not allowed")


def parse_pi_expression(text: str) -> float:
    """Evaluate a constant arithmetic expression over numbers and pi.

    Supports + - * /, unary minus and parentheses, e.g. '2*pi', 'pi/12',
    '1e-3'.  A division by zero or a result that is not finite is an error.
    """
    s = text.strip().lower()
    if not _PI_CHARS.fullmatch(s):
        raise ConfigError(f"numeric expression {text!r} may hold only "
                          "numbers, pi, + - * / and parentheses")
    try:
        value = _evaluate(ast.parse(_LEADING_ZEROS.sub("", s),
                                    mode="eval").body)
    except (SyntaxError, ValueError, ArithmeticError, RecursionError) as exc:
        raise ConfigError(
            f"cannot evaluate numeric expression {text!r} ({exc})") from None
    if not math.isfinite(value):
        raise ConfigError(f"numeric expression {text!r} is not finite")
    return value


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class RunConfig:
    """One fully resolved run; serializes to and from artifact headers.

    Each field's annotation decides how its text is parsed and written
    (see the module docstring).
    """

    command: str
    nu: float = 0.0
    b: float = 0.0
    m: tuple[int, ...] = (0,)
    m1: int = 0
    m2: int = 1
    m_range: tuple[int, int] = DEFAULT_M_RANGE
    K: int = DEFAULT_BASIS_SIZE
    levels: int = 1
    N: int = 256
    L: float = 8.0
    dtau: float = 1e-3
    tau_end: float | None = None
    tau_ramp: float = 5.0
    ramp: str | None = None
    nu_grid: tuple[float, float, float] | None = None
    nu_bracket: tuple[float, float] = (0.0, 5.0)
    xi0: float = 4.0
    packet_width: float = DEFAULT_PACKET_WIDTH
    snapshots: float | None = None
    tol: float = 1e-9
    seed: int = 0
    format: str = ""
    out: str | None = None

    def to_header(self) -> dict:
        return {name: _format(tp, getattr(self, name))
                for name, tp in _FIELD_TYPES.items()}

    @classmethod
    def from_header(cls, header: dict) -> "RunConfig":
        return cls(**{key: _coerce(key, raw) for key, raw in header.items()
                      if key in _FIELD_TYPES})


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _separator(args) -> str:
    return "," if args[-1] is Ellipsis else ":"


def _format(tp, value) -> str:
    args = typing.get_args(tp)
    if value is not None and type(None) in args:  # X | None
        return _format(args[0], value)
    if value is not None and typing.get_origin(tp) is tuple:
        return _separator(args).join(_format(args[0], v) for v in value)
    return io_utils.format_value(value)


def _parse(tp, raw: str):
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if raw == "none" else _parse(args[0], raw)
    if typing.get_origin(tp) is tuple:
        parts = raw.split(_separator(args))
        if args[-1] is not Ellipsis and len(parts) != len(args):
            raise ValueError(f"expected {len(args)} values separated by ':'")
        return tuple(_parse(args[0], part) for part in parts)
    return parse_pi_expression(raw) if tp is float else tp(raw)


def _coerce(name: str, raw: str):
    try:
        return _parse(_FIELD_TYPES[name], raw.strip())
    except ConfigError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {name}: {raw!r} ({exc})") from None


# every command takes these besides its handler's parameters: the seed is
# only echoed, and the writer owns the output path
_COMMON_FLAGS = ("seed", "out")

_FLAG_HELP = {
    "nu": "cyclotron-to-trap frequency ratio (>= 0)",
    "b": "Coulomb coupling strength (>= 0)",
    "m": "angular momentum quantum number(s), comma separated",
    "m1": "first sector for the crossing search",
    "m2": "second sector for the crossing search",
    "m_range": "inclusive sector scan range lo:hi",
    "K": "radial basis size",
    "levels": "number of levels per sector",
    "N": "grid points per axis (power of two)",
    "L": "grid half extent",
    "dtau": "time step",
    "tau_end": "final time (pi-expressions allowed)",
    "tau_ramp": "ramp duration (pi-expressions allowed)",
    "ramp": "field switch-on profile",
    "nu_grid": "field sweep lo:hi:step",
    "nu_bracket": "crossing search bracket lo:hi",
    "xi0": "initial packet center on the xi axis",
    "packet_width": "Gaussian exponent coefficient a_pkt",
    "snapshots": "snapshot stride in tau (pi-expressions allowed)",
    "tol": "relaxation convergence: Rayleigh-quotient change per iteration",
    "seed": "seed echoed into headers for randomized studies",
    "out": "output path (default: derived from the command name)",
    "format": "grid-dump also writes the final lab-frame field",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits on its own; route everything through ConfigError instead
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="magtrap", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="key = value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler in _COMMANDS.items():
        sp = sub.add_parser(command)
        # SUPPRESS so a subcommand-position --config does not clobber one
        # given before the subcommand with its default
        sp.add_argument("--config", default=argparse.SUPPRESS,
                        help="key = value file; flags override it")
        for name in _flags(handler) + _COMMON_FLAGS:
            kwargs = {"default": None, "help": _FLAG_HELP[name]}
            if name == "ramp":
                kwargs["choices"] = ("step", "linear", "smooth")
            sp.add_argument(_flag(name), dest=name, **kwargs)
    return parser


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# one value flag per RunConfig field; the parser adds --config and --help
_VALUE_FLAGS = {_flag(name) for name in _FIELD_TYPES if name != "command"}
_PARSER_FLAGS = _VALUE_FLAGS | {"--config", "-h", "--help"}


def _merge_negative_values(argv):
    """Join `--m-range -1:3` into `--m-range=-1:3`, `--xi0 -1e-1` likewise.

    Option parsing otherwise reads a value that starts with a minus as a
    new flag.  A value flag is joined with a next token that starts with a
    minus unless that token is itself a flag of the parser, alone or with
    `=value`, so a missing argument still fails loudly.
    """
    merged = []
    for tok in argv:
        if (merged and merged[-1] in _VALUE_FLAGS and tok[:1] == "-"
                and tok.partition("=")[0] not in _PARSER_FLAGS):
            merged[-1] += "=" + tok
        else:
            merged.append(tok)
    return merged


def read_config_file(path) -> dict:
    """Flat `key = value` file with the same keys as the flags."""
    values = {}
    known = set(_FIELD_TYPES) - {"command"}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if not eq or not key:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def resolve_config(args) -> RunConfig:
    """Each field from its flag, else from the config file, else its
    default."""
    file_vals = read_config_file(args.config) if args.config else {}
    kwargs = {}
    for name in _FIELD_TYPES:
        raw = getattr(args, name, None)
        if raw is None:
            raw = file_vals.get(name)
        if raw is not None:
            kwargs[name] = _coerce(name, raw)
    return RunConfig(**kwargs)


def _nu_values(command: str, grid, rows_per_nu: int = 1) -> np.ndarray:
    """The nu values of lo:hi:step, counted against MAX_RECORDS table rows
    before the grid is built."""
    if grid is None:
        raise ConfigError(f"{command} needs --nu-grid lo:hi:step")
    lo, hi, step = grid
    if not (step > 0 and hi > lo):
        raise ConfigError(f"bad nu grid {grid}")
    # inf when the count passes float range
    span = (hi - lo) / step + 1e-9
    n_nu = math.floor(span) + 1 if math.isfinite(span) else math.inf
    rows = n_nu * rows_per_nu
    if rows > MAX_RECORDS:
        raise ConfigError(
            f"{command} over {n_nu:g} nu values would write {rows:g} rows, "
            f"above the ceiling of {MAX_RECORDS}; coarsen the nu grid")
    return lo + step * np.arange(n_nu)


def _check_dtau(dtau: float) -> None:
    # the first check of a real-time run, ahead of the grid and the field
    if dtau <= 0:
        raise ConfigError(f"dtau = {dtau:g} must be positive")


def _check_record_count(tau_end: float, dtau: float, snapshots: int = 0):
    # the step count evolve takes; OverflowError (exit 3) when tau_end / dtau
    # is not finite
    steps = _step_count(tau_end, dtau)
    # a record at step 0, every _RECORD_EVERY steps, and at the last step
    records = -(-steps // _RECORD_EVERY) + 1 + snapshots
    if records > MAX_RECORDS:
        raise ConfigError(
            f"{steps} steps of dtau = {dtau:g} to tau_end = {tau_end:g} "
            f"would take {records} records (one every {_RECORD_EVERY} steps, "
            f"plus snapshots), above the ceiling of {MAX_RECORDS}; raise "
            f"dtau or shorten the run")


class _Artifacts:
    """A command's artifact writer, and the list of paths it wrote.

    An artifact goes to `--out`, or to the command's name in the output
    directory, with its tag before the suffix; a grid dump's suffix is
    .npz.  Its header echoes the run's configuration, then its extras.
    """

    def __init__(self, cfg: RunConfig):
        self.out = cfg.out
        self.name = cfg.command.replace("-", "_")
        self.header = cfg.to_header()
        self.paths = []

    def echo_step(self, spec: GridSpec) -> None:
        """Add a real-time run's Coulomb softening and time unit to every
        later header."""
        self.header.update(epsilon=spec.coulomb_epsilon,
                           time_convention="tau = omega_t * t")

    def _write(self, write, suffix, tag, /, *data, **extras):
        path = Path(self.out) if self.out else (
            io_utils.default_output_dir() / (self.name + suffix))
        if tag:
            path = path.with_name(path.stem + tag + path.suffix)
        if suffix == ".npz":
            path = path.with_suffix(suffix)
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path, *data, {**self.header, **extras})
        self.paths.append(path)

    def table(self, columns: dict, tag: str = "", **extras) -> None:
        self._write(io_utils.write_table, ".csv", tag, columns, **extras)

    def record(self, result: dict) -> None:
        self._write(io_utils.write_json_record, ".json", "", result)

    def dump(self, tag: str, state, **extras) -> None:
        self._write(io_utils.write_grid_dump, ".npz", tag, state.amplitudes,
                    state.spec.axis(), tau=state.tau, **extras,
                    frame=state.frame, theta=state.theta)


# ---------------------------------------------------------------------------
# commands: each takes the writer, then its own flags by RunConfig field name

def _cmd_potential(out, nu, b, m):
    tp = TrapParams(nu=nu, b=b)
    rho = np.linspace(0.02, 8.0, 1600)
    out.table({"rho": rho,
               **{f"V_m{k}": effective_potential(tp, k, rho) for k in m}})


def _cmd_spectrum(out, b, nu_grid, m, levels, K):
    # levels < 1 is refused by spectrum_sweep, after the nu grid is built,
    # so such a sweep counts one row per nu value
    nus = _nu_values("spectrum", nu_grid, max(1, len(set(m)) * levels))
    rows = spectrum_sweep(b, nus, m, size=K, n_levels=levels)
    out.table(dict(zip(("nu", "m", "level", "energy"),
                       np.array(rows, dtype=float).T)))


def _cmd_crossings(out, b, m1, m2, nu_bracket, K):
    nu_star = find_crossing(TrapParams(nu=0.0, b=b), m1, m2, nu_bracket,
                            size=K)
    at = TrapParams(nu=nu_star, b=b)
    e1 = solve_sector(at, m1, size=K).energies[0]
    e2 = solve_sector(at, m2, size=K).energies[0]
    out.record({"m1": m1, "m2": m2, "nu_star": nu_star, "energy_m1": e1,
                "energy_m2": e2, "difference": e1 - e2})


def _cmd_groundstate(out, nu, b, m_range, K):
    record = ground_state_scan(TrapParams(nu=nu, b=b), m_range=m_range,
                               size=K)
    out.record({"m_star": record.m_star, "energy": record.energy,
                "sectors": record.sectors})


def _cmd_current(out, nu, b, m, K):
    if len(m) != 1:
        raise ConfigError("current takes exactly one m")
    tp = TrapParams(nu=nu, b=b)
    wf = RadialWavefunction.from_solution(solve_sector(tp, m[0], size=K))
    rho = np.linspace(0.02, wf.rho_max, 1500)
    out.table({"rho": rho, "current": current_density(wf, tp, rho).J,
               "density": wf.density(rho)},
              velocity=velocity_expectation(wf, tp))


def _cmd_velocity_sweep(out, b, nu_grid, m_range, K):
    rows = ground_velocity_sweep(b, _nu_values("velocity-sweep", nu_grid),
                                 size=K, m_range=m_range)
    out.table(dict(zip(("nu", "m_star", "energy", "velocity"),
                       np.array(rows, dtype=float).T)))


def _ramp(kind: str, nu: float, tau_ramp: float) -> RampProtocol:
    return RampProtocol(kind, nu_final=nu,
                        tau_ramp=0.0 if kind == "step" else tau_ramp)


def _cmd_evolve(out, nu, b, xi0, packet_width, N, L, dtau, tau_end,
                snapshots, ramp, tau_ramp, format):
    _check_dtau(dtau)
    if format not in ("", "grid-dump"):
        raise ConfigError(f"unknown format {format!r}")
    if snapshots is not None and snapshots <= 0:
        raise ConfigError("snapshot stride must be positive")
    spec = GridSpec(n=N, half_extent=L)
    out.echo_step(spec)
    tp = TrapParams(nu=nu, b=b)
    protocol = None if ramp is None else _ramp(ramp, nu, tau_ramp)
    tau_end = 2.0 * math.pi if tau_end is None else tau_end
    count = int(math.floor(tau_end / snapshots + 1e-9)) if snapshots else 0
    _check_record_count(tau_end, dtau, count)
    snapshot_times = [j * snapshots for j in range(1, count + 1)]
    state0 = gaussian_packet(spec, xi0, packet_width)
    result = evolve(state0, tp, dtau, tau_end, protocol,
                    record_every=_RECORD_EVERY, snapshot_times=snapshot_times)
    out.table(result.as_columns())
    for j, snap in enumerate(result.snapshots, 1):
        out.dump(f"_snap{j:03d}", snap.state,
                 requested_tau=snap.requested_tau)
    if format == "grid-dump":
        out.dump("_final", result.final_lab())


def _cmd_imag_time(out, nu, b, m, N, L, tol):
    spec = GridSpec(n=N, half_extent=L)
    tp = TrapParams(nu=nu, b=b)
    energies = [[k, imaginary_time_ground(spec, tp, k, tol=tol)[0]]
                for k in m]
    best = min(energies, key=lambda pair: pair[1])
    out.record({"energies": energies, "m_star": best[0], "energy": best[1]})


def _cmd_ramp_compare(out, nu, b, tau_ramp, tau_end, dtau, N, L):
    _check_dtau(dtau)
    spec = GridSpec(n=N, half_extent=L)
    out.echo_step(spec)
    tp = TrapParams(nu=nu, b=b)
    rest = TrapParams(nu=0.0, b=b)
    tau_end = 2.0 * tau_ramp + 10.0 if tau_end is None else tau_end
    _check_record_count(tau_end, dtau)
    ramps = {kind: _ramp(kind, nu, tau_ramp) for kind in ("step", "smooth")}
    # relax under the same softcore interaction evolve steps, else the
    # prepared state radiates from the origin cells; at the default
    # tolerance, as tol is not among this command's flags
    _, state0 = imaginary_time_ground(spec, rest, 0, coulomb="softcore")
    outcomes = {}

    def run(kind):
        try:
            outcomes[kind] = evolve(state0, tp, dtau, tau_end, ramps[kind],
                                    record_every=_RECORD_EVERY)
        except Exception as exc:  # raised below, in the serial order
            outcomes[kind] = exc

    # the runs share only read-only grid tables, so the smooth ramp runs on
    # a second thread; the CSVs are written, or the first error raised, in
    # the serial order, step first
    smooth = threading.Thread(target=run, args=("smooth",), daemon=True)
    smooth.start()
    run("step")
    smooth.join()
    for kind in ("step", "smooth"):
        result = outcomes[kind]
        if isinstance(result, Exception):
            raise result
        out.table(result.as_columns(), f"_{kind}", ramp=kind)


_COMMANDS = {
    "potential": _cmd_potential,
    "spectrum": _cmd_spectrum,
    "crossings": _cmd_crossings,
    "groundstate": _cmd_groundstate,
    "current": _cmd_current,
    "velocity-sweep": _cmd_velocity_sweep,
    "evolve": _cmd_evolve,
    "imag-time": _cmd_imag_time,
    "ramp-compare": _cmd_ramp_compare,
}


def _flags(handler) -> tuple[str, ...]:
    """A command's own flags: its handler's parameters after the writer."""
    return tuple(inspect.signature(handler).parameters)[1:]


# the library's other numerical failures are RuntimeErrors, which main
# sends to exit 3 as well; BracketingError is a ValueError
_NUMERICAL_ERRORS = (BracketingError, ArithmeticError, MemoryError)


def _fail(exc: BaseException, code: int, caught: list) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc),
               "exit_code": code}
    if caught:
        payload["warnings"] = list(dict.fromkeys(str(w.message)
                                                 for w in caught))
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # a failure carries its warnings inside its one JSON line, where they
    # cannot bury the cause; a success shows them as they would have shown
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = parser.parse_args(_merge_negative_values(list(argv)))
            cfg = resolve_config(args)
            handler = _COMMANDS[cfg.command]
            out = _Artifacts(cfg)
            handler(out, **{name: getattr(cfg, name)
                            for name in _flags(handler)})
            for path in out.paths:
                print(path)
        except _NUMERICAL_ERRORS as exc:
            return _fail(exc, EXIT_NUMERICAL, caught)
        except ValueError as exc:  # ConfigError and the library's refusals
            return _fail(exc, EXIT_CONFIG, caught)
        except RuntimeError as exc:
            return _fail(exc, EXIT_NUMERICAL, caught)
        except OSError as exc:
            return _fail(exc, EXIT_IO, caught)
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return EXIT_OK


def console_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
