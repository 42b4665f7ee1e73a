"""The file boundary: every outside file is read, and every output
written, through this module.

Readers. ``read_file`` returns a file's bytes and ``read_text`` its text,
decoded as strict UTF-8. A file that cannot be read or decoded raises the
caller's error class (DataError unless told otherwise, ConfigError for a
config file), so it ends in that class's exit code, never in a traceback.

Writer. ``write_file`` creates the parent directory, writes its parts
(bytes as they are, text as UTF-8) to ``{path}.tmp.{pid}`` and renames
that over ``path``. A reader never sees a half-written output, and a
failed write leaves the old file and no temporary one.

Container. Arrays plus a JSON header: magic line, 8-byte little-endian
header length, UTF-8 JSON header (sorted keys, no whitespace), then each
float64 array's raw little-endian bytes in header order. Identical
content always produces identical bytes, which archive formats with
embedded timestamps cannot promise.
"""

from __future__ import annotations

import json
import math
import os
from typing import Mapping

import numpy as np

from .errors import DataError

MAGIC = b"MBCONT1\n"

_DTYPES = {"float64": "<f8"}


def read_file(path: str, error: type[Exception] = DataError) -> bytes:
    """The bytes of ``path``; a failure to read it raises ``error``."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise error(f"cannot read {path}: {e}") from None


def read_text(path: str, error: type[Exception] = DataError) -> str:
    """The text of ``path`` as strict UTF-8, less a leading byte-order
    mark; a failure raises ``error``."""
    raw = read_file(path, error)
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        raise error(f"{path} is not UTF-8 text: {e}") from None


def write_file(path: str, *parts: bytes | str) -> None:
    """Replace ``path`` atomically with the concatenated ``parts``."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            for part in parts:
                f.write(part.encode("utf-8") if isinstance(part, str)
                        else part)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_container(path: str, kind: str, meta: dict,
                    arrays: Mapping[str, np.ndarray]) -> None:
    """Write float64 arrays (sorted by name) with a kind tag and JSON-able
    metadata."""
    manifest = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype != np.float64:
            raise DataError(f"container arrays must be float64, "
                            f"{name!r} is {arr.dtype}")
        manifest.append({"name": name, "shape": list(arr.shape),
                         "dtype": "float64"})
        blobs.append(arr.astype(_DTYPES["float64"]).tobytes(order="C"))
    header = json.dumps({"kind": kind, "meta": meta, "arrays": manifest},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_file(path, MAGIC, len(header).to_bytes(8, "little"), header,
               *blobs)


def read_container(path: str,
                   expect_kind: str = "") -> tuple[str, dict, dict]:
    """Read a container back as (kind, meta, {name: array}); a header
    that lists one array name twice raises DataError."""
    raw = read_file(path)
    if not raw.startswith(MAGIC):
        raise DataError(f"{path} is not a recognized container file")
    off = len(MAGIC)
    hlen = int.from_bytes(raw[off:off + 8], "little")
    off += 8
    try:
        header = json.loads(raw[off:off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
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
        if item["name"] in arrays:
            raise DataError(f"{path}: array {item['name']!r} is listed twice")
        shape = tuple(item["shape"])
        dt = np.dtype(_DTYPES[item["dtype"]])
        count = math.prod(shape)   # exact, unlike int64 np.prod
        nbytes = count * dt.itemsize
        if off + nbytes > len(raw):
            raise DataError(f"{path}: truncated container "
                            f"(array {item['name']!r})")
        try:
            arr = np.frombuffer(raw[off:off + nbytes], dtype=dt).reshape(shape)
        except ValueError as e:  # a shape numpy cannot hold, e.g. 70 dims
            raise DataError(f"{path}: array {item['name']!r} has shape "
                            f"{list(shape)}: {e}") from None
        arrays[item["name"]] = arr.astype(np.float64)
        off += nbytes
    if off != len(raw):
        raise DataError(f"{path}: {len(raw) - off} trailing bytes")
    return kind, header.get("meta", {}), arrays
