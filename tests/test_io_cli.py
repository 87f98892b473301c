"""Artifact formats, configuration plumbing, and the command line."""

import json
import math
import os
import resource
import shlex
import subprocess
import sys
import threading
import time
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import magtrap
import oracles
from magtrap import cli, radial
from magtrap.cli import (
    MAX_RECORDS,
    ConfigError,
    RunConfig,
    _merge_negative_values,
    build_parser,
    main,
    parse_pi_expression,
    read_config_file,
    resolve_config,
)
from magtrap.dynamics import (
    MAX_GRID_N,
    BoundaryLeakError,
    GridSpec,
    NormDriftError,
    RampProtocol,
    evolve,
    imaginary_time_ground,
)
from magtrap.io_utils import (
    ARTIFACT_VERSION,
    read_grid_dump,
    read_json_record,
    read_table,
    write_grid_dump,
    write_json_record,
    write_table,
)
from magtrap.radial import MAX_BASIS_K


_PI_ALPHABET = "0123456789.epi+-*/() "
_SPACES = st.sampled_from(["", " ", "  "])
_NUMBERS = st.one_of(
    st.from_regex(r"[0-9]{1,25}", fullmatch=True),
    st.from_regex(r"([0-9]{1,12}\.[0-9]{0,12}|\.[0-9]{1,12})(e[+-]?[0-9]{1,3})?",
                  fullmatch=True),
    st.just("pi"),
)


def _compound(inner):
    return st.one_of(
        st.tuples(inner, _SPACES, st.sampled_from("+-*/"), _SPACES,
                  inner).map("".join),
        st.tuples(st.just("-"), _SPACES, inner).map("".join),
        st.tuples(st.just("("), _SPACES, inner, _SPACES,
                  st.just(")")).map("".join),
    )


# rendered expression trees: numbers, pi, + - * /, unary minus, parentheses
_EXPRESSIONS = st.recursive(_NUMBERS, _compound, max_leaves=10)

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_WORDS = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-./",
                 min_size=1, max_size=12).filter(lambda w: w != "none")
_RUN_CONFIGS = st.builds(
    RunConfig,
    command=_WORDS, nu=_FINITE, b=_FINITE,
    m=st.lists(st.integers(), min_size=1, max_size=5).map(tuple),
    m1=st.integers(), m2=st.integers(),
    m_range=st.tuples(st.integers(), st.integers()),
    K=st.integers(), levels=st.integers(), N=st.integers(), L=_FINITE,
    dtau=_FINITE, tau_end=st.none() | _FINITE, tau_ramp=_FINITE,
    ramp=st.none() | _WORDS,
    nu_grid=st.none() | st.tuples(_FINITE, _FINITE, _FINITE),
    nu_bracket=st.tuples(_FINITE, _FINITE), xi0=_FINITE,
    packet_width=_FINITE, snapshots=st.none() | _FINITE, tol=_FINITE,
    seed=st.integers(), format=st.just("") | _WORDS,
    out=st.none() | _WORDS,
)


class TestPiExpressions:
    @pytest.mark.parametrize("text,value", [
        ("pi/12", math.pi / 12),
        ("2*pi", 2 * math.pi),
        ("1e-3", 1e-3),
        ("(1+2)*pi", 3 * math.pi),
        ("-pi/2", -math.pi / 2),
        ("1-2-3", -4.0),
        ("3/2/2", 0.75),
        (" pi ", math.pi),
        ("0.25", 0.25),
    ])
    def test_values(self, text, value):
        assert parse_pi_expression(text) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("text", [
        "two*pi", "pi/", "(pi", "1 2", "", "1//2", "2**3", "import os",
        "1/0", "pi/(1-1)", "1e999", "1e999-1e999",
        "1_0", "0x1", "1j", "True",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            parse_pi_expression(text)

    @settings(max_examples=400, deadline=None)
    @given(text=st.one_of(_EXPRESSIONS, st.text(_PI_ALPHABET, max_size=16)))
    @example("01")
    @example("1/" + "9" * 400)
    @example("1e999/1e999")
    @example("-0")
    @example("1 - -2*pi")
    def test_matches_reference_parser(self, text):
        # both reject, or both give the same float bit for bit; the
        # reference rejects by raising or by returning inf or nan
        try:
            expected = oracles.reference_pi_expression(text)
        except (ValueError, ArithmeticError, RecursionError):
            expected = None
        if expected is not None and not math.isfinite(expected):
            expected = None
        if expected is None:
            with pytest.raises(ConfigError):
                parse_pi_expression(text)
        else:
            assert parse_pi_expression(text).hex() == expected.hex()


class TestRunConfig:
    def test_header_text_is_pinned(self):
        cfg = RunConfig(command="evolve", nu=0.25, b=1.5, m=(0, -1, 2),
                        m1=2, m2=-3, m_range=(-2, 4), K=18, levels=3, N=128,
                        L=10.0, dtau=0.002, tau_end=math.pi, tau_ramp=2.5,
                        ramp="smooth", nu_grid=(0.0, 2.0, 0.05),
                        nu_bracket=(0.05, 4.5), xi0=-1.5, packet_width=0.75,
                        snapshots=math.pi / 12, tol=1e-08, seed=7,
                        format="grid-dump", out="runs/a.csv")
        assert cfg.to_header() == {
            "command": "evolve", "nu": "0.25", "b": "1.5", "m": "0,-1,2",
            "m1": "2", "m2": "-3", "m_range": "-2:4", "K": "18",
            "levels": "3", "N": "128", "L": "10.0", "dtau": "0.002",
            "tau_end": "3.141592653589793", "tau_ramp": "2.5",
            "ramp": "smooth", "nu_grid": "0.0:2.0:0.05",
            "nu_bracket": "0.05:4.5", "xi0": "-1.5", "packet_width": "0.75",
            "snapshots": "0.2617993877991494", "tol": "1e-08", "seed": "7",
            "format": "grid-dump", "out": "runs/a.csv"}

    def test_header_text_of_absent_options(self):
        assert RunConfig(command="potential").to_header() == {
            "command": "potential", "nu": "0.0", "b": "0.0", "m": "0",
            "m1": "0", "m2": "1", "m_range": "-3:6", "K": "30",
            "levels": "1", "N": "256", "L": "8.0", "dtau": "0.001",
            "tau_end": "none", "tau_ramp": "5.0", "ramp": "none",
            "nu_grid": "none", "nu_bracket": "0.0:5.0", "xi0": "4.0",
            "packet_width": "0.5", "snapshots": "none", "tol": "1e-09",
            "seed": "0", "format": "", "out": "none"}

    @settings(max_examples=200, deadline=None)
    @given(cfg=_RUN_CONFIGS)
    def test_drawn_configs_round_trip(self, cfg):
        header = cfg.to_header()
        assert all(isinstance(v, str) for v in header.values())
        assert RunConfig.from_header(header) == cfg

    def test_header_round_trip(self):
        cfg = RunConfig(command="spectrum", nu=0.3, b=2.5, m=(0, 1, -2),
                        m_range=(-2, 4), K=18, levels=2, N=128, L=10.0,
                        dtau=2e-3, tau_end=None, ramp="smooth",
                        nu_grid=(0.0, 2.0, 0.05), nu_bracket=(0.05, 5.0),
                        snapshots=math.pi / 12, out=None)
        header = cfg.to_header()
        assert all(isinstance(v, str) for v in header.values())
        assert RunConfig.from_header(header) == cfg

    def test_float_fields_accept_pi_expressions(self):
        cfg = RunConfig.from_header({"command": "evolve", "tau_end": "2*pi",
                                     "dtau": "1e-3"})
        assert cfg.tau_end == pytest.approx(2 * math.pi)
        assert cfg.dtau == 1e-3

    def test_unknown_header_keys_are_ignored(self):
        cfg = RunConfig.from_header({"command": "potential",
                                     "version": ARTIFACT_VERSION,
                                     "velocity": "0.25"})
        assert cfg.command == "potential"

    def test_bad_header_value_reports_field(self):
        with pytest.raises(ConfigError, match="m_range"):
            RunConfig.from_header({"command": "groundstate",
                                   "m_range": "broken"})

    @pytest.mark.parametrize("key,raw", [
        ("tau_end", "1/0"), ("nu", "pi*"), ("nu_grid", "0:1e999:0.1"),
    ])
    def test_bad_pi_expression_reports_field(self, key, raw):
        with pytest.raises(ConfigError, match=f"bad value for {key}:"):
            RunConfig.from_header({"command": "evolve", key: raw})

    @pytest.mark.parametrize("key,raw", [
        ("m_range", "1:2:3"), ("nu_grid", "0:1"), ("nu_bracket", "0:1:2"),
        ("m", "0:1"), ("K", "2.5"),
    ])
    def test_rejects_values_of_the_wrong_shape(self, key, raw):
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_header({"command": "evolve", key: raw})


class TestConfigFile:
    def test_parses_keys_comments_and_dashes(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# comment line\n\nnu = 0.5\nb=1.0\nm-range = -2:4\n")
        assert read_config_file(f) == {"nu": "0.5", "b": "1.0",
                                       "m_range": "-2:4"}

    def test_unknown_key_is_an_error_with_line_number(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("nu = 0.5\nnonsense = 1\n")
        with pytest.raises(ConfigError, match=":2"):
            read_config_file(f)

    def test_line_without_assignment_is_an_error(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            read_config_file(f)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            read_config_file(tmp_path / "absent.cfg")


class TestMergeNegativeValues:
    @pytest.mark.parametrize("argv,merged", [
        (["--m-range", "-1:3"], ["--m-range=-1:3"]),
        (["--m", "-2"], ["--m=-2"]),
        (["--m", "-1,2"], ["--m=-1,2"]),
        (["--nu-bracket", "-1:2"], ["--nu-bracket=-1:2"]),
        (["--nu-grid", "-1:1:0.5"], ["--nu-grid=-1:1:0.5"]),
        (["--xi0", "-3"], ["--xi0=-3"]),
        (["--xi0", "-1e-1"], ["--xi0=-1e-1"]),
        (["--nu", "-pi/4", "--b", "1"], ["--nu=-pi/4", "--b", "1"]),
    ])
    def test_joins_leading_dash_values(self, argv, merged):
        assert _merge_negative_values(argv) == merged

    @pytest.mark.parametrize("nu", ["-1e-3", "-pi/4"])
    def test_negative_float_reaches_the_mirror_advice(self, nu, tmp_path,
                                                      capsys):
        out = tmp_path / "p.csv"
        assert main(["potential", "--nu", nu, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "pass |nu| and mirror m" in err["message"]
        assert not out.exists()

    def test_negative_exponent_runs(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["evolve", "--xi0", "-1e-1", "--N", "64", "--L", "12",
                     "--tau-end", "0.05", "--out", str(out)]) == 0
        assert read_table(out)[0]["xi0"] == "-0.1"

    @pytest.mark.parametrize("grid", [["--nu-grid", "-1:1:0.5"],
                                      ["--nu-grid=-1:1:0.5"]])
    def test_negative_nu_grid_reaches_the_mirror_advice(self, grid, tmp_path,
                                                        capsys):
        out = tmp_path / "s.csv"
        assert main(["spectrum", *grid, "--K", "4", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "pass |nu| and mirror m" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--m-range", "--out"],    # next token is a flag, not a value
        ["--nu", "--out=x.csv"],   # a flag with its value
        ["--m-range"],             # nothing follows
        ["--m", "0,1"],            # no leading dash
    ])
    def test_leaves_everything_else_alone(self, argv):
        assert _merge_negative_values(argv) == argv


def _readme_commands():
    """The `magtrap ...` lines of README's command-line example block."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("magtrap ")]


class TestReadmeCommands:
    def test_every_command_is_shown(self):
        assert ({shlex.split(line)[1] for line in _readme_commands()}
                == set(cli._COMMANDS))

    @pytest.mark.parametrize("line", _readme_commands())
    def test_parses_and_resolves(self, line):
        # a flag renamed in a handler's signature breaks the line here
        argv = shlex.split(line)[1:]
        args = build_parser().parse_args(_merge_negative_values(argv))
        assert resolve_config(args).command == argv[0]


class TestTableArtifacts:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        cols = {"x": np.linspace(0.0, 1.0, 7), "y": np.random.default_rng(3).normal(size=7)}
        write_table(path, cols, {"alpha": 0.1, "note": "check"})
        header, back = read_table(path)
        assert header["version"] == ARTIFACT_VERSION
        assert header["alpha"] == repr(0.1)
        assert header["note"] == "check"
        np.testing.assert_array_equal(back["x"], cols["x"])
        np.testing.assert_array_equal(back["y"], cols["y"])

    def test_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError, match="same length"):
            write_table(tmp_path / "t.csv", {"a": [1.0, 2.0], "b": [1.0]}, {})

    def test_identical_runs_are_byte_identical(self, tmp_path):
        cols = {"x": [0.1, 0.2, 0.30000000000000004]}
        write_table(tmp_path / "a.csv", cols, {"k": 1.5})
        write_table(tmp_path / "b.csv", cols, {"k": 1.5})
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestJsonArtifacts:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        write_json_record(path, {"nu_star": 1.25, "sectors": [[0, 1.0]]},
                          {"b": 2.0})
        config, result = read_json_record(path)
        assert config == {"b": "2.0"}
        assert result == {"nu_star": 1.25, "sectors": [[0, 1.0]]}


class TestGridDumpArtifacts:
    def test_round_trip_preserves_complex_field(self, tmp_path):
        rng = np.random.default_rng(7)
        amp = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        axis = np.linspace(-4.0, 4.0, 8)
        path = tmp_path / "g.npz"
        write_grid_dump(path, amp, axis, {"tau": 0.5, "frame": "lab"})
        header, amp_back, axis_back = read_grid_dump(path)
        assert header["version"] == ARTIFACT_VERSION
        assert header["tau"] == repr(0.5)
        assert header["frame"] == "lab"
        np.testing.assert_array_equal(amp_back, amp)
        np.testing.assert_array_equal(axis_back, axis)

    def test_members_are_stored_without_deflate(self, tmp_path):
        # a field's low bits are noise: deflate would cost twenty times the
        # write to save a tenth of the bytes
        path = tmp_path / "g.npz"
        write_grid_dump(path, np.ones((8, 8), dtype=complex),
                        np.linspace(-4.0, 4.0, 8), {"tau": 0.5})
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert {m.filename for m in members} == {
            "amplitudes.npy", "axis.npy", "header_keys.npy",
            "header_values.npy"}
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)


class TestExitCodes:
    def test_success_prints_written_paths(self, tmp_path, capsys):
        out = tmp_path / "pot.csv"
        assert main(["potential", "--nu", "1", "--b", "0.5", "--m", "0,2",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == str(out)
        assert out.exists()

    def test_success_still_shows_its_warnings(self, tmp_path):
        # only a failure folds its warnings into the JSON line
        with pytest.warns(UserWarning, match="phase wraps"):
            assert main(["evolve", "--N", "64", "--L", "12", "--xi0", "2",
                         "--dtau", "0.1", "--tau-end", "0.3",
                         "--out", str(tmp_path / "e.csv")]) == 0

    def test_parser_errors_exit_2(self, capsys):
        assert main(["no-such-command"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and err["exit_code"] == 2

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--b", "1"],                       # nu grid missing
        ["potential", "--nu", "-1"],                    # negative field ratio
        ["potential", "--nu", "1", "--format", "hdf5"],
        ["current", "--nu", "1", "--m", "0,1"],
        ["crossings", "--b", "1", "--nu-bracket", "2:1"],
        ["crossings", "--b", "1", "--m1", "1", "--m2", "1",
         "--nu-bracket", "0.3:5"],                      # a sector vs itself
        ["spectrum", "--b", "1", "--nu-grid", "0:1:0.5", "--levels", "15",
         "--K", "10"],                                  # more levels than K
        ["evolve", "--tau-end", "1/0"],                 # division by zero
        ["evolve", "--N", "64", "--dtau", "0"],         # no time step
        ["ramp-compare", "--N", "64", "--dtau", "0"],
    ])
    def test_config_validation_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["exit_code"] == 2

    def test_packet_outside_box_exits_2(self, tmp_path, capsys):
        rc = main(["evolve", "--nu", "0", "--xi0", "7", "--N", "64",
                   "--dtau", "1e-2", "--tau-end", "0.1",
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        assert "edge" in json.loads(capsys.readouterr().err)["message"]

    def test_failed_crossing_search_exits_3(self, tmp_path, capsys):
        # without interaction the m = 0 and m = 1 levels never cross
        rc = main(["crossings", "--b", "0", "--m1", "0", "--m2", "1",
                   "--nu-bracket", "0.1:0.2", "--K", "8",
                   "--out", str(tmp_path / "c.json")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BracketingError" and err["exit_code"] == 3

    @pytest.mark.parametrize("argv, error", [
        (["current", "--nu", "1", "--b", "1", "--m", "400"],
         "BasisConditioningError"),
        (["evolve", "--xi0", "0", "--packet-width", "2.2", "--L", "8",
          "--N", "64", "--dtau", "5e-3", "--tau-end", "3.14"],
         "BoundaryLeakError"),
        (["imag-time", "--nu", "1", "--b", "1", "--m", "3", "--N", "64"],
         "SectorLeakageError"),
    ])
    def test_library_runtime_errors_exit_3(self, argv, error, tmp_path,
                                           capsys):
        # main names none of these: they reach exit 3 as RuntimeErrors
        assert main([*argv, "--out", str(tmp_path / "artifact")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == error and err["exit_code"] == 3
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_step_count_exits_3(self, tmp_path, capsys):
        # every input is finite, but tau_end / dtau is not
        rc = main(["evolve", "--N", "64", "--tau-end", "1e300",
                   "--dtau", "1e-300", "--out", str(tmp_path / "e.csv")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "OverflowError" and err["exit_code"] == 3

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        rc = main(["potential", "--nu", "1",
                   "--out", str(blocker / "x.csv")])
        assert rc == 4
        assert json.loads(capsys.readouterr().err)["exit_code"] == 4


def _fresh_python(args, cwd, address_space=None, env=None):
    """Run a fresh interpreter that imports this checkout of magtrap.

    With address_space (bytes) the child runs under that RLIMIT_AS, on one
    BLAS/OpenMP thread: per-thread buffers and stacks would otherwise grow
    numpy's import footprint with the host's core count.  env holds extra
    environment variables for the child.
    """
    package_root = str(Path(magtrap.__file__).resolve().parents[1])
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    limit = None
    if address_space is not None:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS,
                               (address_space, address_space))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=limit)


# prints the scipy and mpmath modules the interpreter has loaded
_HEAVY_MODULES = ("import sys\nprint(sorted(m for m in sys.modules "
                  "if m.split('.')[0] in ('scipy', 'mpmath')))")


class TestBlasThreadCount:
    # OpenBLAS splits a dot product of more than 10^4 elements across its
    # threads, so at 128^2, not at 64^2, a BLAS sum would round differently
    COMMANDS = (
        ["evolve", "--nu", "1", "--b", "1", "--N", "128", "--L", "12",
         "--tau-end", "0.2", "--snapshots", "0.1", "--format", "grid-dump",
         "--out", "evolve.csv"],
        ["imag-time", "--nu", "1", "--b", "1", "--m", "0,1", "--N", "128",
         "--out", "imag_time.json"],
        ["ramp-compare", "--nu", "1", "--b", "1", "--N", "128",
         "--tau-ramp", "0.1", "--tau-end", "0.2", "--out", "ramp.csv"],
    )

    def test_grid_artifacts_do_not_depend_on_it(self, tmp_path):
        artifacts = {}
        for threads in ("1", "2"):
            side = tmp_path / threads
            side.mkdir()
            for argv in self.COMMANDS:
                proc = _fresh_python(["-m", "magtrap.cli", *argv], side,
                                     env={"OPENBLAS_NUM_THREADS": threads})
                assert proc.returncode == 0, proc.stderr
            artifacts[threads] = {p.name: p.read_bytes()
                                  for p in side.iterdir()}
        assert sorted(artifacts["1"]) == sorted(artifacts["2"]) == [
            "evolve.csv", "evolve_final.npz", "evolve_snap001.npz",
            "evolve_snap002.npz", "imag_time.json", "ramp_smooth.csv",
            "ramp_step.csv"]
        differ = [name for name, data in artifacts["1"].items()
                  if artifacts["2"][name] != data]
        assert differ == []


class TestModuleEntry:
    def test_python_dash_m_runs_the_command(self, tmp_path):
        out = tmp_path / "x.json"
        proc = _fresh_python(
            ["-m", "magtrap.cli", "groundstate", "--nu", "1", "--b", "5",
             "--K", "10", "--m-range", "-2:4", "--out", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(out)
        _, result = read_json_record(out)
        assert result["m_star"] == 1

    def test_import_loads_no_quadrature_or_optimizer(self, tmp_path):
        # mpmath serves only the test oracles and scipy only the tests;
        # loading either would cost every cold command
        proc = _fresh_python(["-c", "import magtrap.cli\n" + _HEAVY_MODULES],
                             tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_density_profile_loads_no_scipy_or_mpmath(self, tmp_path):
        script = ("import magtrap as mt\n"
                  "sol = mt.solve_sector(mt.TrapParams(nu=0, b=20), 0)\n"
                  "mt.density_profile(mt.RadialWavefunction.from_solution(sol))"
                  "\n" + _HEAVY_MODULES)
        proc = _fresh_python(["-c", script], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["groundstate", "--nu", "1", "--b", "5", "--K", "20"],
        ["spectrum", "--b", "1", "--nu-grid", "0:1:0.5", "--m", "0,1",
         "--levels", "2", "--K", "20"],
        ["crossings", "--b", "1", "--nu-bracket", "0.05:5", "--K", "20"],
        ["current", "--nu", "1", "--b", "1", "--m", "1", "--K", "20"],
        ["velocity-sweep", "--b", "1", "--nu-grid", "0.5:1:0.5",
         "--K", "20"],
        ["potential"],
        ["evolve", "--N", "64", "--L", "12", "--tau-end", "0.05"],
        ["imag-time", "--N", "64", "--m", "0"],
        ["ramp-compare", "--N", "64", "--tau-ramp", "0.05",
         "--tau-end", "0.1"],
    ])
    def test_commands_load_no_scipy_or_mpmath(self, argv, tmp_path):
        out = tmp_path / "artifact"
        script = ("import magtrap.cli\n"
                  f"code = magtrap.cli.main({argv + ['--out', str(out)]!r})\n"
                  "assert code == 0, code\n" + _HEAVY_MODULES)
        proc = _fresh_python(["-c", script], tmp_path)
        assert proc.returncode == 0, proc.stderr
        suffixes = (("_step", "_smooth") if argv[0] == "ramp-compare"
                    else ("",))
        assert proc.stdout.splitlines() == [
            str(out) + s for s in suffixes] + ["[]"]

    @pytest.mark.parametrize("argv", [
        ["groundstate", "--nu", "1e200"],
        ["spectrum", "--b", "1", "--nu-grid", "0:1e200:1e200"],
        ["current", "--nu", "1e200", "--m", "1"],
        ["velocity-sweep", "--b", "1", "--nu-grid", "0:1e200:1e200"],
        ["crossings", "--b", "1", "--nu-bracket", "0:1e200"],
    ])
    def test_field_ratio_whose_square_overflows_exits_3(self, argv, tmp_path):
        # (nu/2)^2 is inf in float64: no artifact of infs, no traceback and
        # no false bracketing verdict, only the one JSON line
        out = tmp_path / "artifact"
        proc = _fresh_python(["-m", "magtrap.cli", *argv, "--out", str(out)],
                             tmp_path)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert err["error"] == "OverflowError" and err["exit_code"] == 3
        assert not out.exists()

    @pytest.mark.parametrize("argv, error", [
        (["evolve", "--N", "64", "--L", "12", "--nu", "1e200",
          "--tau-end", "0.05"], "OverflowError"),
        (["ramp-compare", "--N", "64", "--nu", "1e200", "--tau-ramp", "0.01",
          "--tau-end", "0.02"], "OverflowError"),
        (["imag-time", "--N", "64", "--nu", "1e100", "--m", "0"],
         "FloatingPointError"),
    ])
    def test_grid_state_that_stops_being_finite_exits_3(self, argv, error,
                                                         tmp_path):
        # nu^2 overflows in the first two, so the kick would be NaN; in the
        # third nu^2 is finite but the kick underflows to 0. None may write
        # a table of NaNs or step a dead state to the step ceiling
        out = tmp_path / "artifact"
        start = time.monotonic()
        proc = _fresh_python(["-m", "magtrap.cli", *argv, "--out", str(out)],
                             tmp_path)
        assert time.monotonic() - start < 10.0
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert err["error"] == error and err["exit_code"] == 3
        assert list(tmp_path.iterdir()) == []

    def test_failure_carries_its_warnings_in_the_one_json_line(self,
                                                                 tmp_path):
        # max|V2| dtau = 87 lies between pi and 1e3 pi, so the phase wrap
        # only warns, and the aliased packet then reaches the edge guard:
        # the warning must not bury the cause
        out = tmp_path / "artifact"
        proc = _fresh_python(
            ["-m", "magtrap.cli", "evolve", "--N", "64", "--L", "12",
             "--nu", "50", "--tau-end", "0.05", "--out", str(out)],
            tmp_path)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert err["exit_code"] == 3
        assert any("phase wraps" in w for w in err["warnings"])

    def test_phase_wrap_beyond_1e3_pi_exits_3(self, tmp_path):
        # nu^2 is finite but max|V2| dtau is ~1e198: the step, not the box,
        # is at fault, and the error says so before the first step
        out = tmp_path / "artifact"
        proc = _fresh_python(
            ["-m", "magtrap.cli", "evolve", "--N", "64", "--L", "12",
             "--nu", "1e100", "--tau-end", "0.05", "--out", str(out)],
            tmp_path)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert err["error"] == "FloatingPointError" and err["exit_code"] == 3
        assert "dtau = 0.001" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_edge_leak_after_a_phase_wrap_names_the_wrap(self, tmp_path):
        # max|V2| dtau = 14.1 wraps; the aliased packet reaches the edge,
        # and a larger box would wrap it further, so the advice is the step
        out = tmp_path / "artifact"
        proc = _fresh_python(
            ["-m", "magtrap.cli", "evolve", "--N", "64", "--L", "12",
             "--nu", "20", "--tau-end", "0.5", "--out", str(out)], tmp_path)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert err["error"] == "BoundaryLeakError"
        assert "max|V2| dtau = 14.1 exceeds pi" in err["message"]
        assert "reduce dtau or the box" in err["message"]
        assert "enlarge the box" not in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_phase_wrap_that_stays_inside_the_box_only_warns(self, tmp_path):
        out = tmp_path / "e.csv"
        proc = _fresh_python(
            ["-m", "magtrap.cli", "evolve", "--N", "64", "--L", "12",
             "--nu", "10", "--tau-end", "0.5", "--out", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "phase wraps" in proc.stderr
        assert out.exists()

    @pytest.mark.parametrize("command", ["evolve", "imag-time",
                                         "ramp-compare"])
    def test_grid_above_the_point_ceiling_exits_2(self, command, tmp_path):
        # a 1048576^2 field is 16 TiB: the run is refused before any array
        # is built, not ended by a MemoryError traceback.  The 1 GiB limit
        # makes a grid that is built after all fail at once instead of
        # taking the machine's memory
        out = tmp_path / "artifact"
        proc = _fresh_python(["-m", "magtrap.cli", command, "--N", "1048576",
                              "--out", str(out)], tmp_path,
                             address_space=1 << 30)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert f"ceiling of {MAX_GRID_N}" in err["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["evolve", "imag-time",
                                         "ramp-compare"])
    def test_grid_beyond_memory_exits_3(self, command, tmp_path):
        # a 4096^2 grid is within the ceiling, but its fields do not fit in
        # 1 GiB of address space: the run ends in one JSON line, no traceback
        out = tmp_path / "artifact"
        proc = _fresh_python(["-m", "magtrap.cli", command, "--N",
                              str(MAX_GRID_N), "--out", str(out)], tmp_path,
                             address_space=1 << 30)
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "MemoryError"

    def test_evolve_above_the_record_ceiling_exits_2(self, tmp_path):
        # 10^10 steps: the run is refused before any record index exists
        proc = _fresh_python(
            ["-m", "magtrap.cli", "evolve", "--N", "64", "--nu", "0",
             "--tau-end", "1e10", "--dtau", "1",
             "--out", str(tmp_path / "e.csv")], tmp_path)
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "ConfigError"
        assert f"ceiling of {MAX_RECORDS}" in err["message"]
        assert not (tmp_path / "e.csv").exists()

    def test_record_ceiling_counts_the_final_record(self, tmp_path, capsys,
                                                    monkeypatch):
        # 999 995 steps record at step 0, at every 10th and at the last:
        # 100 001 records, one above the ceiling
        def run(*args, **kwargs):
            pytest.fail("evolve ran above the record ceiling")

        monkeypatch.setattr(cli, "evolve", run)
        assert main(["evolve", "--N", "64", "--tau-end", "999995",
                     "--dtau", "1", "--out", str(tmp_path / "e.csv")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "100001 records" in err["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("steps", [9, 10, 11, 15, 20])
    def test_record_ceiling_is_the_rows_evolve_writes(self, steps, tmp_path,
                                                      monkeypatch):
        # a ceiling at the rows the run writes admits it; one lower refuses
        out = tmp_path / "e.csv"
        argv = ["evolve", "--nu", "0", "--xi0", "0", "--N", "32",
                "--dtau", "1e-2", "--tau-end", str(steps / 100),
                "--out", str(out)]
        assert main(argv) == 0
        rows = len(read_table(out)[1]["tau"])
        out.unlink()
        monkeypatch.setattr(cli, "MAX_RECORDS", rows)
        assert main(argv) == 0
        out.unlink()
        monkeypatch.setattr(cli, "MAX_RECORDS", rows - 1)
        assert main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--b", "1", "--nu-grid", "0:1e12:1", "--m", "0"],
        ["velocity-sweep", "--nu-grid", "0:1e15:1e-3"],
        ["spectrum", "--b", "1", "--nu-grid", "0:1e308:1e-308", "--m", "0"],
    ])
    def test_sweep_above_the_row_ceiling_exits_2(self, argv, tmp_path):
        # the rows are counted before the nu grid is built; these grids
        # used to crash with a traceback from allocating it
        proc = _fresh_python(["-m", "magtrap.cli", *argv,
                              "--out", str(tmp_path / "s.csv")], tmp_path)
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "ConfigError"
        assert f"ceiling of {MAX_RECORDS}" in err["message"]
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("levels", ["--levels=0", "--levels=-1"])
    def test_spectrum_without_levels_still_counts_the_nu_grid(self, levels,
                                                             tmp_path):
        # a level count below one makes the row product vanish; the 1e9 nu
        # values are refused all the same, before 16 GB of grid is built
        proc = _fresh_python(["-m", "magtrap.cli", "spectrum", "--nu-grid",
                              "0:1e9:1", levels, "--out",
                              str(tmp_path / "s.csv")], tmp_path,
                             address_space=1 << 30)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert f"ceiling of {MAX_RECORDS}" in err["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["evolve", "imag-time",
                                         "ramp-compare"])
    def test_grid_point_ceiling_is_exact(self, command, tmp_path, capsys):
        # the ceiling is GridSpec's: the command meets it when it builds
        # the grid, before any array
        ok = build_parser().parse_args([command, "--N", str(MAX_GRID_N)])
        assert resolve_config(ok).N == MAX_GRID_N
        assert main([command, "--N", str(2 * MAX_GRID_N),
                     "--out", str(tmp_path / "artifact")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "points per axis" in err["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["groundstate"], ["spectrum", "--nu-grid", "0:1:0.5"], ["crossings"],
        ["current"], ["velocity-sweep", "--nu-grid", "0:1:0.5"]])
    def test_basis_size_ceiling_is_exact(self, argv, tmp_path, capsys):
        # the ceiling is RadialBasis's: a command refuses K = 241 with one
        # JSON line, before any reduction, and writes nothing
        ok = build_parser().parse_args([*argv, "--K", str(MAX_BASIS_K)])
        assert resolve_config(ok).K == MAX_BASIS_K
        misses = radial._reduce.cache_info().misses
        out = tmp_path / "artifact"
        assert main([*argv, "--K", str(MAX_BASIS_K + 1),
                     "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert f"ceiling of {MAX_BASIS_K}" in err["message"]
        assert radial._reduce.cache_info().misses == misses
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,grid,extra,refused", [
        ("velocity-sweep", "0:99999:1", [], False),
        ("velocity-sweep", "0:100000:1", [], True),
        # 25 000 nu values x 2 distinct sectors x 2 levels = 100 000 rows
        ("spectrum", "0:24999:1", ["--m", "0,1,1", "--levels", "2"], False),
        ("spectrum", "0:25000:1", ["--m", "0,1", "--levels", "2"], True),
    ])
    def test_sweep_row_ceiling_is_exact(self, command, grid, extra, refused,
                                        tmp_path, monkeypatch, capsys):
        # a stub stands in for the sweep: it reports the nu grid it is
        # handed instead of solving 100 000 points
        class Reached(Exception):
            pass

        def sweep(b, nu_values, *args, **kwargs):
            raise Reached(len(nu_values))

        monkeypatch.setattr(cli, "spectrum_sweep", sweep)
        monkeypatch.setattr(cli, "ground_velocity_sweep", sweep)
        argv = [command, "--nu-grid", grid, *extra,
                "--out", str(tmp_path / "s.csv")]
        if refused:
            assert main(argv) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ConfigError"
            assert "rows, above the ceiling" in err["message"]
        else:
            with pytest.raises(Reached) as reached:
                main(argv)
            assert reached.value.args[0] == int(grid.split(":")[1]) + 1
        assert list(tmp_path.iterdir()) == []


class TestCommandArtifacts:
    def test_potential_table_reconstructs_its_config(self, tmp_path):
        out = tmp_path / "pot.csv"
        assert main(["potential", "--nu", "1", "--b", "0.5", "--m", "0,-1",
                     "--out", str(out)]) == 0
        header, cols = read_table(out)
        assert set(cols) == {"rho", "V_m0", "V_m-1"}
        cfg = RunConfig.from_header(header)
        assert cfg.command == "potential" and cfg.nu == 1.0
        assert cfg.m == (0, -1)

    def test_groundstate_report(self, tmp_path):
        out = tmp_path / "gs.json"
        assert main(["groundstate", "--nu", "1", "--b", "5", "--K", "14",
                     "--m-range", "-2:4", "--out", str(out)]) == 0
        _, result = read_json_record(out)
        assert result["m_star"] == 1
        assert len(result["sectors"]) == 7
        sector_energies = {m: e for m, e in result["sectors"]}
        assert result["energy"] == min(sector_energies.values())

    def test_groundstate_solves_each_sector_once(self, tmp_path,
                                                 monkeypatch):
        solved = []
        solve = radial.solve_sector

        def counted(tp, m, *args, **kwargs):
            solved.append(m)
            return solve(tp, m, *args, **kwargs)

        monkeypatch.setattr(radial, "solve_sector", counted)
        monkeypatch.setattr(cli, "solve_sector", counted)
        assert main(["groundstate", "--nu", "1", "--b", "5", "--K", "14",
                     "--m-range", "-2:4",
                     "--out", str(tmp_path / "gs.json")]) == 0
        assert solved == list(range(-2, 5))

    def test_smallest_basis_runs(self, tmp_path):
        # one function per sector is a basis RadialBasis accepts
        out = tmp_path / "gs.json"
        assert main(["groundstate", "--K", "1", "--out", str(out)]) == 0
        _, result = read_json_record(out)
        # at nu = b = 0 the one-function basis is the exact ground state
        assert result["energy"] == pytest.approx(1.0, abs=1e-12)

    def test_current_table_carries_drift_velocity(self, tmp_path):
        out = tmp_path / "cur.csv"
        assert main(["current", "--nu", "1", "--b", "1", "--m", "1",
                     "--K", "14", "--out", str(out)]) == 0
        header, cols = read_table(out)
        assert set(cols) == {"rho", "current", "density"}
        assert float(header["velocity"]) != 0.0

    @pytest.mark.parametrize("size", [[], ["--K", "1"]])
    def test_current_table_reaches_the_tail(self, tmp_path, size):
        # the grid runs to rho_max, one past where chi^2 is 1e-16 of its
        # peak, so its last density is at most that share of the largest
        out = tmp_path / "cur.csv"
        assert main(["current", "--nu", "1", "--b", "1", "--m", "1", *size,
                     "--out", str(out)]) == 0
        density = read_table(out)[1]["density"]
        assert density[-1] <= 1e-16 * density.max()

    def test_spectrum_row_layout(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--b", "1", "--nu-grid", "0:1:0.5",
                     "--m", "0,1", "--levels", "2", "--K", "10",
                     "--out", str(out)]) == 0
        _, cols = read_table(out)
        assert len(cols["nu"]) == 3 * 2 * 2
        assert np.isfinite(cols["energy"]).all()
        assert np.all(np.diff(cols["nu"]) >= 0)

    def test_default_outputs_honor_outdir_env(self, tmp_path, monkeypatch):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        argv = ["spectrum", "--b", "1", "--nu-grid", "0:1:0.5",
                "--m", "0,1", "--levels", "2", "--K", "10"]
        for d in (d1, d2):
            d.mkdir()
            monkeypatch.setenv("MAGTRAP_OUTDIR", str(d))
            assert main(argv) == 0
            assert (d / "spectrum.csv").exists()
        assert (d1 / "spectrum.csv").read_bytes() == (d2 / "spectrum.csv").read_bytes()

    def test_evolve_writes_snapshots_and_final_dump(self, tmp_path, capsys):
        out = tmp_path / "ev.csv"
        rc = main(["evolve", "--nu", "1", "--b", "0", "--xi0", "2",
                   "--N", "64", "--dtau", "1e-2", "--tau-end", "pi/2",
                   "--snapshots", "pi/4", "--format", "grid-dump",
                   "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out.split()
        assert [p.rsplit("/", 1)[-1] for p in printed] == [
            "ev.csv", "ev_snap001.npz", "ev_snap002.npz", "ev_final.npz"]
        header, cols = read_table(out)
        assert header["time_convention"] == "tau = omega_t * t"
        assert np.abs(cols["norm"] - 1.0).max() < 1e-9
        snap_header, amp, axis = read_grid_dump(tmp_path / "ev_snap001.npz")
        assert float(snap_header["requested_tau"]) == pytest.approx(math.pi / 4)
        assert amp.shape == (64, 64) and len(axis) == 64
        h_fin, amp_fin, _ = read_grid_dump(tmp_path / "ev_final.npz")
        assert h_fin["frame"] == "lab"
        h = float(axis[1] - axis[0])
        assert h * h * np.sum(np.abs(amp_fin) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_imag_time_reports_sector_energies(self, tmp_path):
        out = tmp_path / "it.json"
        assert main(["imag-time", "--nu", "0", "--b", "0", "--m", "0,1",
                     "--N", "64", "--tol", "1e-8", "--out", str(out)]) == 0
        _, result = read_json_record(out)
        assert result["m_star"] == 0
        energies = dict(result["energies"])
        assert energies[0] == pytest.approx(1.0, abs=1e-5)
        assert energies[1] == pytest.approx(2.0, abs=1e-5)

    def test_ramp_compare_tables_match_serial_runs(self, tmp_path):
        # the two ramps run on two threads; each table holds what one
        # evolve call on this thread returns, to the bit
        out = tmp_path / "rr.csv"
        assert main(["ramp-compare", "--nu", "1", "--b", "1", "--N", "64",
                     "--dtau", "1e-2", "--tau-ramp", "1", "--tau-end", "2",
                     "--out", str(out)]) == 0
        spec = GridSpec(n=64, half_extent=8.0)
        tp = magtrap.TrapParams(nu=1.0, b=1.0)
        _, state0 = imaginary_time_ground(
            spec, magtrap.TrapParams(nu=0.0, b=1.0), 0, coulomb="softcore")
        for ramp in (RampProtocol("step", 1.0),
                     RampProtocol("smooth", 1.0, tau_ramp=1.0)):
            serial = evolve(state0, tp, 1e-2, 2.0, ramp, record_every=10)
            _, cols = read_table(tmp_path / f"rr_{ramp.kind}.csv")
            for name, col in serial.as_columns().items():
                np.testing.assert_array_equal(cols[name], col)

    def test_ramp_compare_writes_both_protocols(self, tmp_path):
        out = tmp_path / "rr.csv"
        assert main(["ramp-compare", "--nu", "0.5", "--b", "0", "--N", "64",
                     "--dtau", "1e-2", "--tau-ramp", "1", "--tau-end", "2",
                     "--out", str(out)]) == 0
        h_step, cols_step = read_table(tmp_path / "rr_step.csv")
        h_smooth, cols_smooth = read_table(tmp_path / "rr_smooth.csv")
        assert (h_step["ramp"], h_smooth["ramp"]) == ("step", "smooth")
        for cols in (cols_step, cols_smooth):
            assert np.isfinite(cols["energy"]).all()
            assert cols["tau"][-1] == pytest.approx(2.0)


class TestConfigPlumbing:
    @pytest.fixture()
    def config_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("nu = 0.5\nb = 1.0\nm = 0,1\n")
        return f

    def test_config_before_subcommand(self, tmp_path, config_file):
        out = tmp_path / "a.csv"
        assert main(["--config", str(config_file), "potential",
                     "--out", str(out)]) == 0
        header, cols = read_table(out)
        assert header["nu"] == "0.5" and set(cols) == {"rho", "V_m0", "V_m1"}

    def test_config_after_subcommand(self, tmp_path, config_file):
        out = tmp_path / "b.csv"
        assert main(["potential", "--config", str(config_file),
                     "--out", str(out)]) == 0
        header, _ = read_table(out)
        assert header["nu"] == "0.5"

    def test_flags_override_config_file(self, tmp_path, config_file):
        out = tmp_path / "c.csv"
        assert main(["potential", "--config", str(config_file),
                     "--nu", "2", "--out", str(out)]) == 0
        header, _ = read_table(out)
        assert header["nu"] == "2.0" and header["b"] == "1.0"

    @pytest.mark.parametrize("command, key", [
        (["potential"], "K = 1"), (["groundstate", "--K", "10"], "dtau = 0"),
        (["groundstate", "--K", "10"], "format = hdf5"),
        (["imag-time", "--N", "16", "--m", "0"], "snapshots = 0")])
    def test_keys_a_command_does_not_take_do_not_refuse_it(self, tmp_path,
                                                           command, key):
        config = tmp_path / "run.cfg"
        config.write_text(key + "\n")
        out = tmp_path / "artifact"
        assert main([*command, "--config", str(config),
                     "--out", str(out)]) == 0
        assert out.exists()

    # one small run of each command, and a valid value other than the
    # default for every key but the common ones
    RUNS = {
        "potential": ["--nu", "1", "--b", "1", "--m", "0,1"],
        "spectrum": ["--b", "1", "--nu-grid", "0:1:0.5", "--m", "0,1",
                     "--levels", "2", "--K", "10"],
        "crossings": ["--b", "1", "--nu-bracket", "0.05:5", "--K", "10"],
        "groundstate": ["--nu", "1", "--b", "1", "--K", "10"],
        "current": ["--nu", "1", "--b", "1", "--m", "1", "--K", "10"],
        "velocity-sweep": ["--b", "1", "--nu-grid", "0.5:1:0.5", "--K", "10"],
        "evolve": ["--nu", "1", "--b", "1", "--N", "32", "--xi0", "2",
                   "--dtau", "1e-2", "--tau-end", "0.2", "--snapshots", "0.1",
                   "--format", "grid-dump"],
        "imag-time": ["--nu", "1", "--b", "0", "--m", "0,1", "--N", "32"],
        "ramp-compare": ["--nu", "1", "--b", "1", "--N", "32", "--dtau",
                         "1e-2", "--tau-ramp", "0.2", "--tau-end", "0.4"],
    }
    OTHER_VALUES = {
        "nu": "0.7", "b": "0.3", "m": "2", "m1": "2", "m2": "3",
        "m_range": "-1:2", "K": "12", "levels": "2", "N": "16", "L": "6",
        "dtau": "2e-3", "tau_end": "0.3", "tau_ramp": "0.7",
        "ramp": "smooth", "nu_grid": "0:0.5:0.25", "nu_bracket": "0.1:3",
        "xi0": "2", "packet_width": "0.8", "snapshots": "0.1",
        "tol": "1e-2", "format": "grid-dump",
    }

    def test_every_command_and_key_is_covered(self):
        assert set(self.RUNS) == set(cli._COMMANDS)
        assert set(self.OTHER_VALUES) == (set(cli._FIELD_TYPES) - {"command"}
                                          - set(cli._COMMON_FLAGS))
        defaults = RunConfig(command="potential")
        for key, raw in self.OTHER_VALUES.items():
            assert cli._coerce(key, raw) != getattr(defaults, key), key

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_keys_a_command_does_not_take_change_no_data(self, tmp_path,
                                                         command):
        # such a key is only echoed in the header: the columns, the JSON
        # result and the dumped fields are the ones a plain run writes
        taken = (set(cli._flags(cli._COMMANDS[command]))
                 | set(cli._COMMON_FLAGS))
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{key} = {raw}\n" for key, raw
                                  in self.OTHER_VALUES.items()
                                  if key not in taken))
        suffix = (".json" if command in ("crossings", "groundstate",
                                         "imag-time") else ".csv")
        runs = {}
        for name, extra in (("plain", []), ("configured",
                                            ["--config", str(config)])):
            out = tmp_path / name / f"artifact{suffix}"
            assert main([command, *self.RUNS[command], *extra,
                         "--out", str(out)]) == 0
            runs[name] = sorted(out.parent.iterdir())
        plain, configured = runs["plain"], runs["configured"]
        assert [p.name for p in plain] == [p.name for p in configured]
        read = {".csv": lambda p: read_table(p)[1],
                ".json": lambda p: read_json_record(p)[1],
                ".npz": lambda p: read_grid_dump(p)[1]}
        for a, b in zip(plain, configured):
            np.testing.assert_equal(read[b.suffix](b), read[a.suffix](a),
                                    err_msg=a.name)

    def test_format_is_an_evolve_flag(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--nu-grid", "0:1:0.5", "--format",
                     "grid-dump", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "--format" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["csv", "json"])
    def test_evolve_refuses_a_format_it_does_not_write(self, tmp_path,
                                                       value):
        config = tmp_path / "run.cfg"
        config.write_text(f"format = {value}\n")
        assert main(["evolve", "--config", str(config), "--N", "16",
                     "--out", str(tmp_path / "e.csv")]) == 2
        assert list(tmp_path.iterdir()) == [config]

    def test_negative_sector_values_pass_through_argv(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["potential", "--nu", "0.5", "--b", "1",
                     "--m", "-1", "--out", str(out)]) == 0
        _, cols = read_table(out)
        assert "V_m-1" in cols


class TestRampCompareThreads:
    """ramp-compare runs the smooth ramp on a second thread; its tables, its
    errors and its warnings still come out in the serial order, step
    first."""

    ARGV = ["ramp-compare", "--nu", "0.5", "--b", "0", "--N", "32",
            "--dtau", "1e-2", "--tau-ramp", "0.2", "--tau-end", "0.4"]

    @pytest.fixture()
    def smooth_done(self):
        return threading.Event()

    def _patch(self, monkeypatch, by_kind, smooth_done):
        # by_kind maps a ramp kind to what its run does instead of evolving;
        # the step run waits until the smooth run has ended, so the smooth
        # one always finishes first
        def fake(state, tp, dtau, tau_end, ramp, **kwargs):
            if ramp.kind == "step":
                assert smooth_done.wait(60)
            try:
                return by_kind[ramp.kind](state, tp, dtau, tau_end, ramp,
                                          **kwargs)
            finally:
                if ramp.kind == "smooth":
                    smooth_done.set()

        monkeypatch.setattr(cli, "evolve", fake)

    def test_both_runs_fail_with_the_step_error(self, tmp_path, monkeypatch,
                                                capsys, smooth_done):
        def fail(error):
            def run(*args, **kwargs):
                raise error(f"{args[4].kind} failed")
            return run

        self._patch(monkeypatch, {"step": fail(NormDriftError),
                                  "smooth": fail(BoundaryLeakError)},
                    smooth_done)
        out = tmp_path / "rr.csv"
        assert main([*self.ARGV, "--out", str(out)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "NormDriftError"
        assert err["message"] == "step failed"
        assert list(tmp_path.iterdir()) == []

    def test_smooth_failure_still_writes_the_step_table(
            self, tmp_path, monkeypatch, capsys, smooth_done):
        def fail(*args, **kwargs):
            raise BoundaryLeakError("smooth failed")

        self._patch(monkeypatch, {"step": evolve, "smooth": fail},
                    smooth_done)
        out = tmp_path / "rr.csv"
        assert main([*self.ARGV, "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BoundaryLeakError"
        assert err["message"] == "smooth failed"
        assert [p.name for p in tmp_path.iterdir()] == ["rr_step.csv"]
        header, cols = read_table(tmp_path / "rr_step.csv")
        assert header["ramp"] == "step" and len(cols["tau"]) == 5

    def test_a_smooth_ramp_without_duration_is_refused_first(self, tmp_path,
                                                             capsys):
        # both ramps are built before the relaxation and either run, so the
        # refusal exits 2 with one JSON line and writes no table
        assert main([*self.ARGV, "--tau-ramp", "0",
                     "--out", str(tmp_path / "rr.csv")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["message"] == (
            "smooth ramp needs tau_ramp > 0")
        assert list(tmp_path.iterdir()) == []

    def test_warnings_of_either_thread_reach_the_json_line(
            self, tmp_path, monkeypatch, capsys, smooth_done):
        def warn_then(error):
            def run(*args, **kwargs):
                warnings.warn(f"{args[4].kind} warned")
                if error:
                    raise error(f"{args[4].kind} failed")
                return evolve(*args, **kwargs)
            return run

        self._patch(monkeypatch, {"step": warn_then(None),
                                  "smooth": warn_then(NormDriftError)},
                    smooth_done)
        assert main([*self.ARGV, "--out", str(tmp_path / "rr.csv")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["message"] == "smooth failed"
        assert sorted(err["warnings"]) == ["smooth warned", "step warned"]
