"""Byte-stable binary container for arrays plus a JSON header.

Layout: magic line, 8-byte little-endian header length, UTF-8 JSON header
(sorted keys, no whitespace), then each array's raw bytes in header order
(C-contiguous, little-endian). Identical content always produces identical
bytes, which archive formats with embedded timestamps cannot promise.
"""

from __future__ import annotations

import json
import math
import os
from typing import Mapping

import numpy as np

from .errors import DataError

MAGIC = b"MBCONT1\n"

_DTYPES = {"float64": "<f8", "int64": "<i8"}


def write_container(path: str, kind: str, meta: dict,
                    arrays: Mapping[str, np.ndarray]) -> None:
    """Write arrays (sorted by name) with a kind tag and JSON-able metadata."""
    manifest = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype == np.float64:
            tag = "float64"
        elif arr.dtype == np.int64:
            tag = "int64"
        else:
            raise DataError(f"container arrays must be float64 or int64, "
                            f"{name!r} is {arr.dtype}")
        manifest.append({"name": name, "shape": list(arr.shape),
                         "dtype": tag})
        blobs.append(arr.astype(_DTYPES[tag]).tobytes(order="C"))
    header = json.dumps({"kind": kind, "meta": meta, "arrays": manifest},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        for blob in blobs:
            f.write(blob)
    os.replace(tmp, path)


def read_container(path: str,
                   expect_kind: str = "") -> tuple[str, dict, dict]:
    """Read a container back as (kind, meta, {name: array})."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from None
    if not raw.startswith(MAGIC):
        raise DataError(f"{path} is not a recognized container file")
    off = len(MAGIC)
    hlen = int.from_bytes(raw[off:off + 8], "little")
    off += 8
    try:
        header = json.loads(raw[off:off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: corrupt container header: {e}") from None
    off += hlen
    if not isinstance(header, dict) or not isinstance(header.get("meta", {}),
                                                      dict):
        raise DataError(f"{path}: container header is not a JSON object "
                        f"with an object meta")
    kind = header.get("kind", "")
    if expect_kind and kind != expect_kind:
        raise DataError(f"{path}: container holds {kind!r}, "
                        f"expected {expect_kind!r}")
    entries = header.get("arrays")
    if not isinstance(entries, list):
        raise DataError(f"{path}: container header has no array list")
    arrays = {}
    for item in entries:
        if not (isinstance(item, dict) and isinstance(item.get("name"), str)
                and isinstance(item.get("dtype"), str)
                and item["dtype"] in _DTYPES
                and isinstance(item.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in item["shape"])):
            raise DataError(f"{path}: malformed array entry {item!r}")
        shape = tuple(item["shape"])
        dt = np.dtype(_DTYPES[item["dtype"]])
        count = math.prod(shape)   # exact, unlike int64 np.prod
        nbytes = count * dt.itemsize
        if off + nbytes > len(raw):
            raise DataError(f"{path}: truncated container "
                            f"(array {item['name']!r})")
        arr = np.frombuffer(raw[off:off + nbytes], dtype=dt).reshape(shape)
        native = np.float64 if item["dtype"] == "float64" else np.int64
        arrays[item["name"]] = arr.astype(native)
        off += nbytes
    if off != len(raw):
        raise DataError(f"{path}: {len(raw) - off} trailing bytes")
    return kind, header.get("meta", {}), arrays
