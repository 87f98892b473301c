"""Artifact serialization: headered CSV tables, JSON records, grid dumps.

Every file starts with (or embeds) the same header block, one `# key = value`
line per configuration entry plus the artifact version, so any output can be
traced back to the exact run that produced it and parsed back into an equal
configuration.  Floats are written with repr, the shortest representation
that round-trips exactly; two runs with the same configuration therefore
produce byte-identical tables.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

ARTIFACT_VERSION = "0.1.0"

__all__ = [
    "ARTIFACT_VERSION",
    "default_output_dir",
    "format_value",
    "write_table",
    "read_table",
    "write_json_record",
    "read_json_record",
    "write_grid_dump",
    "read_grid_dump",
]


def default_output_dir() -> Path:
    """MAGTRAP_OUTDIR if set, else the working directory."""
    env = os.environ.get("MAGTRAP_OUTDIR")
    return Path(env) if env else Path.cwd()


def format_value(value) -> str:
    """Lossless text form: repr for floats, 'none' for absent options."""
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _header_lines(header: dict) -> list[str]:
    lines = [f"# version = {ARTIFACT_VERSION}"]
    lines += [f"# {key} = {format_value(val)}" for key, val in header.items()]
    return lines


def write_table(path, columns: dict, header: dict) -> None:
    """CSV with a config-echo header; column order follows the dict."""
    names = list(columns)
    arrays = [np.atleast_1d(np.asarray(columns[k], dtype=float))
              for k in names]
    n_rows = len(arrays[0])
    if any(len(a) != n_rows for a in arrays):
        raise ValueError("all columns must have the same length")
    lines = _header_lines(header)
    lines.append("# columns = " + ",".join(names))
    for i in range(n_rows):
        lines.append(",".join(repr(float(a[i])) for a in arrays))
    Path(path).write_text("\n".join(lines) + "\n")


def read_table(path):
    """Inverse of write_table: (header dict, columns dict of float arrays)."""
    header: dict[str, str] = {}
    names: list[str] = []
    rows: list[list[float]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, _, val = body.partition("=")
            key, val = key.strip(), val.strip()
            if key == "columns":
                names = [c.strip() for c in val.split(",")]
            elif _:
                header[key] = val
        else:
            rows.append([float(c) for c in line.split(",")])
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(names)))
    columns = {name: data[:, j] for j, name in enumerate(names)}
    return header, columns


def write_json_record(path, result: dict, header: dict) -> None:
    """Scalar results as JSON with the same config echo (string values)."""
    obj = {
        "version": ARTIFACT_VERSION,
        "config": {k: format_value(v) for k, v in header.items()},
        "result": result,
    }
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json_record(path):
    obj = json.loads(Path(path).read_text())
    return obj.get("config", {}), obj.get("result", {})


def write_grid_dump(path, amplitudes: np.ndarray, axis: np.ndarray,
                    header: dict) -> None:
    """Binary snapshot: complex field, its axis, and the header as strings.

    Stored without deflate: a field's low bits are noise that deflate
    shrinks by a tenth at about twenty times the cost of the write.
    """
    keys = [str(k) for k in ("version", *header)]
    values = [ARTIFACT_VERSION] + [format_value(v) for v in header.values()]
    np.savez(
        path,
        amplitudes=np.asarray(amplitudes, dtype=complex),
        axis=np.asarray(axis, dtype=float),
        header_keys=np.array(keys),
        header_values=np.array(values),
    )


def read_grid_dump(path):
    """Inverse of write_grid_dump: (header dict, amplitudes, axis)."""
    with np.load(path) as data:
        header = dict(zip(data["header_keys"].tolist(),
                          data["header_values"].tolist()))
        return header, data["amplitudes"], data["axis"]
