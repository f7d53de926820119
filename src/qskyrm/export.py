"""Deterministic file output: JSON, CSV, and portable-graymap rasters.

Every writer here is reproducible byte for byte: floats are rendered with
the shortest round-trip repr, JSON keys are sorted, NaN becomes null, and no
timestamps are embedded anywhere.  Rasters are 16-bit big-endian P5 graymaps
scaled to the data range recorded in a JSON sidecar next to the file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "jsonable",
    "canonical_bytes",
    "config_hash",
    "write_json",
    "write_csv",
    "write_pgm",
    "sphere_rows",
    "trace_rows",
    "curves_rows",
    "record_rows",
]


def jsonable(obj):
    """Recursively convert to plain JSON types; non-finite floats become None."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return val if np.isfinite(val) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, complex):
        return [jsonable(obj.real), jsonable(obj.imag)]
    if isinstance(obj, np.ndarray):
        # bool, integer and finite float64/32/16 entries already come out of
        # tolist() as the plain values the per-entry path would return
        if obj.dtype.kind in "biu" or (
            obj.dtype.kind == "f" and obj.dtype.itemsize <= 8 and np.isfinite(obj).all()
        ):
            return obj.tolist()
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Mapping):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_bytes(obj) -> bytes:
    """Compact sorted-key JSON encoding, the hashing form of a document."""
    return json.dumps(
        jsonable(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def config_hash(obj) -> str:
    """SHA-256 hex digest of the canonical encoding."""
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def write_json(path, obj) -> None:
    text = json.dumps(jsonable(obj), sort_keys=True, indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def write_pgm(path, array: np.ndarray) -> None:
    """16-bit P5 graymap scaled to (min, max); the sidecar records the scale."""
    # C order: min and max then reduce in the order of the finite-entry copy
    arr = np.asarray(array, dtype=float, order="C")
    if arr.ndim != 2:
        raise ValueError("raster arrays must be 2-D")
    # min and max are finite exactly when every entry is; only then can the
    # finite mask and its copies be skipped
    lo, hi = (float(arr.min()), float(arr.max())) if arr.size else (0.0, 0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        finite = np.isfinite(arr)
        lo = float(arr[finite].min()) if finite.any() else 0.0
        hi = float(arr[finite].max()) if finite.any() else 0.0
        arr = np.where(finite, arr, lo)
    # ((arr - lo) / (hi - lo) * 65535) rounded half to even, worked in one
    # buffer: the same operations in the same order as out of place
    if hi > lo:
        scaled = np.subtract(arr, lo)
        scaled /= hi - lo
    else:
        scaled = np.zeros_like(arr)
    scaled *= 65535.0
    np.rint(scaled, out=scaled)
    pixels = scaled.astype(">u2")
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n65535\n".encode("ascii"))
        fh.write(pixels)  # C-contiguous: written through the buffer protocol
    write_json(
        os.fspath(path) + ".json",
        {
            "min": lo,
            "max": hi,
            "width": width,
            "height": height,
            "maxval": 65535,
            "byte_order": "big-endian",
        },
    )


# -- tabular views of the domain types --------------------------------------


def sphere_rows(sphere_map) -> tuple[list[str], list[list]]:
    header = ["theta", "alpha", "n", "valid", "method", "outer_radius", "core_scale"]
    rows = []
    for i, theta in enumerate(sphere_map.theta_samples):
        for j, alpha in enumerate(sphere_map.alpha_samples):
            rows.append(
                [
                    theta,
                    alpha,
                    float(sphere_map.n_values[i, j]),
                    bool(sphere_map.valid[i, j]),
                    sphere_map.method[i, j],
                    float(sphere_map.outer_radius[i, j]),
                    float(sphere_map.core_scale[i, j]),
                ]
            )
    return header, rows


def trace_rows(trace) -> tuple[list[str], list[list]]:
    header = ["sample", trace.sweep_param, "track", "radius", "orbit_angle", "spin_angle"]
    rows = []
    for i, value in enumerate(trace.param_values):
        for k in range(trace.n_tracks):
            rows.append(
                [
                    i,
                    value,
                    k,
                    float(trace.radii[i, k]),
                    float(trace.orbit_angles[i, k]),
                    float(trace.spin_angles[i, k]),
                ]
            )
    return header, rows


def curves_rows(curves) -> tuple[list[str], list[list]]:
    header = ["setting", "theta_b", "rate"]
    rows = []
    for i, label in enumerate(curves.herald_settings):
        for j, theta in enumerate(curves.analyzer_angles):
            rows.append([label, theta, float(curves.rates[i, j])])
    return header, rows


def record_rows(pset, record) -> tuple[list[str], list[list]]:
    header = ["pol_a", "pol_b", "spatial", "value"]
    rows = []
    for k, (pa, pb, sp) in enumerate(pset.labels):
        rows.append([pa, pb, sp, float(record.values[k])])
    return header, rows
