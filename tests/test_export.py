"""Deterministic serialization helpers."""

import json
import math

import numpy as np
import pytest

from qskyrm.export import (
    canonical_bytes,
    config_hash,
    jsonable,
    write_csv,
    write_json,
    write_pgm,
)


def test_jsonable_handles_numpy_and_nan():
    doc = jsonable(
        {
            "arr": np.array([1.0, np.nan, 3.0]),
            "i": np.int64(4),
            "z": 1.0 + 2.0j,
            "nested": (True, None, "x"),
        }
    )
    assert doc["arr"] == [1.0, None, 3.0]
    assert doc["i"] == 4
    assert doc["z"] == [1.0, 2.0]
    assert doc["nested"] == [True, None, "x"]
    with pytest.raises(TypeError):
        jsonable(object())


@pytest.mark.parametrize(
    "arr",
    [
        np.array([[-0.0, 1.5], [2.0**-1074, 1e308]]),
        np.array([-0.0, np.nan, 1.0]),
        np.array([np.inf, -np.inf]),
        np.array([-0.0, 3.25], dtype=np.float32),
        np.array([[1, -2], [3, 4]]),
        np.array([2**63 - 1], dtype=np.uint64),
        np.array([True, False]),
        np.array([1.0 - 0.0j, np.nan + 1.0j]),
        np.array([1.5, None, "method", -0.0], dtype=object),
        np.zeros((0, 3)),
    ],
    ids=["finite", "nan", "inf", "float32", "int", "uint64", "bool", "complex", "object", "empty"],
)
def test_jsonable_array_fast_path_matches_per_entry(arr):
    # whole-array tolist() where every entry is finite or not a float must
    # give the per-entry conversion, -0.0 and the entry types included
    per_entry = [jsonable(v) for v in arr.tolist()]
    got = jsonable(arr)
    assert json.dumps(got, allow_nan=False) == json.dumps(per_entry, allow_nan=False)
    assert got == per_entry


def test_config_hash_is_order_insensitive():
    a = config_hash({"x": 1, "y": [2.5, 3]})
    b = config_hash({"y": [2.5, 3], "x": 1})
    assert a == b
    assert a != config_hash({"x": 1, "y": [2.5, 4]})
    assert canonical_bytes({"x": 1}) == b'{"x":1}'


def test_write_json_round_trips_floats(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"v": 0.1 + 0.2, "n": float("nan")})
    doc = json.loads(path.read_text())
    assert doc["v"] == 0.1 + 0.2
    assert doc["n"] is None


def test_write_csv_formats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [[1, math.pi, True], [2, float("nan"), False]])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == f"1,{math.pi!r},true"
    assert lines[2] == "2,nan,false"


def test_write_pgm_format_and_sidecar(tmp_path):
    path = tmp_path / "img.pgm"
    data = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    write_pgm(path, data)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n4 3\n65535\n")
    pixels = np.frombuffer(blob.split(b"65535\n", 1)[1], dtype=">u2")
    assert pixels[0] == 0 and pixels[-1] == 65535
    sidecar = json.loads((tmp_path / "img.pgm.json").read_text())
    assert sidecar["min"] == 0.0 and sidecar["max"] == 1.0
    assert sidecar["width"] == 4 and sidecar["height"] == 3


def test_writers_are_byte_stable(tmp_path):
    doc = {"values": np.arange(6, dtype=float).reshape(2, 3), "flag": True}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, doc)
    write_json(p2, doc)
    assert p1.read_bytes() == p2.read_bytes()


def reference_pgm(array) -> tuple[bytes, dict]:
    """Raster and sidecar from the finite mask on every call: the scaling
    write_pgm keeps to the byte."""
    arr = np.asarray(array, dtype=float)
    finite = np.isfinite(arr)
    lo = float(arr[finite].min()) if finite.any() else 0.0
    hi = float(arr[finite].max()) if finite.any() else 0.0
    if hi > lo:
        scaled = (np.where(finite, arr, lo) - lo) / (hi - lo)
    else:
        scaled = np.zeros_like(arr)
    pixels = np.round(scaled * 65535.0).astype(">u2")
    height, width = arr.shape
    return f"P5\n{width} {height}\n65535\n".encode("ascii") + pixels.tobytes(), {
        "min": lo, "max": hi, "width": width, "height": height,
        "maxval": 65535, "byte_order": "big-endian",
    }


def rasters():
    rng = np.random.default_rng(7)
    smooth = np.sin(np.linspace(-3.0, 3.0, 35))[:, None] * np.cos(np.linspace(0, 2, 24))
    holes = smooth.copy()
    holes[3, 4], holes[10, 0], holes[-1, -1] = np.nan, np.inf, -np.inf
    signed_zeros = np.zeros((6, 5))
    signed_zeros[::2] = -0.0
    signed_zeros[1, 1] = 2.5
    return {
        "finite": rng.normal(size=(17, 23)),
        "smooth": smooth,
        "transposed": smooth.T,
        "nan_inf": holes,
        "all_nan": np.full((4, 6), np.nan),
        "only_inf": np.array([[np.inf, -np.inf], [np.inf, np.inf]]),
        "constant": np.full((5, 7), -1.25),
        "signed_zeros": signed_zeros,
        "zero_min": np.where(signed_zeros == 2.5, 2.5, -0.0),
        "integers": np.arange(20).reshape(4, 5),
    }


@pytest.mark.parametrize("name", sorted(rasters()))
def test_write_pgm_bytes_match_masked_scaling(tmp_path, name):
    array = rasters()[name]
    path = tmp_path / "r.pgm"
    write_pgm(path, array)
    blob, sidecar = reference_pgm(array)
    assert path.read_bytes() == blob
    want = tmp_path / "want.json"
    write_json(want, sidecar)
    assert (tmp_path / "r.pgm.json").read_bytes() == want.read_bytes()
