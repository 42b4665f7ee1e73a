"""The file boundary: readers, the atomic writer and the container."""

import ast
import json
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import molbayes
from molbayes import artifacts, bayes
from molbayes.errors import ConfigError, DataError


def test_readers_raise_the_callers_error(tmp_path):
    path = tmp_path / "x.txt"
    with pytest.raises(DataError):
        artifacts.read_file(str(path))
    with pytest.raises(ConfigError):
        artifacts.read_text(str(path), ConfigError)
    path.write_bytes(b"caf\xe9")
    assert artifacts.read_file(str(path)) == b"caf\xe9"
    with pytest.raises(ConfigError):
        artifacts.read_text(str(path), ConfigError)
    path.write_bytes("café\r\n".encode("utf-8"))
    assert artifacts.read_text(str(path)) == "café\r\n"


def test_write_file_replaces_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "sub" / "out.txt"
    artifacts.write_file(str(path), b"a", "é", "\n")
    assert path.read_bytes() == b"a\xc3\xa9\n"
    artifacts.write_file(str(path), "b")
    assert path.read_bytes() == b"b"
    assert os.listdir(path.parent) == ["out.txt"]

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(artifacts.os, "replace", fail)
    with pytest.raises(OSError):
        artifacts.write_file(str(path), "c")
    assert path.read_bytes() == b"b"
    assert os.listdir(path.parent) == ["out.txt"]


def test_container_holds_float64_only(tmp_path):
    path = str(tmp_path / "c.bin")
    artifacts.write_container(path, "k", {"a": 1},
                              {"x": np.arange(3.0), "y": np.ones((2, 2))})
    kind, meta, arrays = artifacts.read_container(path, expect_kind="k")
    assert kind == "k" and meta == {"a": 1}
    assert np.array_equal(arrays["x"], np.arange(3.0))
    with pytest.raises(DataError):
        artifacts.write_container(path, "k", {},
                                  {"x": np.arange(3, dtype=np.int64)})


def test_array_listed_twice_is_a_data_error(tmp_path):
    # the header lists "point" twice, a second array after the first: the
    # reader must refuse it, not keep the second under the one name
    path = str(tmp_path / "point.post")
    bayes.save_posterior(path, bayes.PosteriorRepresentation(
        mode="point", digest="d", point=np.arange(3.0)))
    raw = artifacts.read_file(path)
    at = len(artifacts.MAGIC)
    hlen = int.from_bytes(raw[at:at + 8], "little")
    header = json.loads(raw[at + 8:at + 8 + hlen])
    header["arrays"] *= 2
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    artifacts.write_file(path, artifacts.MAGIC,
                         len(text).to_bytes(8, "little"), text,
                         raw[at + 8 + hlen:], np.full(3, 9.0).tobytes())
    for read in (artifacts.read_container, bayes.load_posterior):
        with pytest.raises(DataError, match="'point' is listed twice"):
            read(path)


def test_deeply_nested_container_header_is_a_data_error(tmp_path):
    path = tmp_path / "c.bin"
    header = b"[" * 100_000
    path.write_bytes(artifacts.MAGIC + len(header).to_bytes(8, "little")
                     + header)
    with pytest.raises(DataError):
        artifacts.read_container(str(path))


def _swag_container() -> bytes:
    """The bytes of a small swag posterior artifact."""
    rng = np.random.default_rng(0)
    post = bayes.PosteriorRepresentation(
        mode="swag", digest="d", swag_mean=rng.standard_normal(5),
        swag_sq_mean=rng.random(5) + 1.0,
        swag_dev=rng.standard_normal((5, 2)), swag_rank=2,
        meta={"trained": "swag", "n_tasks": 1})
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "swag.post")
        bayes.save_posterior(path, post)
        return artifacts.read_file(path)


SWAG_CONTAINER = _swag_container()
JSON_LIES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@st.composite
def corrupted_containers(draw) -> bytes:
    """A swag container truncated, with bytes overwritten or its header
    length changed, or with one header field replaced: an array's dtype
    or shape, or a meta field."""
    raw = SWAG_CONTAINER
    kind = draw(st.sampled_from(["truncate", "bytes", "length", "dtype",
                                 "shape", "meta", "extra"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "bytes":
        edited = bytearray(raw)
        for pos, value in draw(st.lists(st.tuples(
                st.integers(0, len(raw) - 1), st.integers(0, 255)),
                min_size=1, max_size=8)):
            edited[pos] = value
        return bytes(edited)
    at = len(artifacts.MAGIC)
    if kind == "length":
        return raw[:at] + draw(st.integers(0, 2**64 - 1)).to_bytes(
            8, "little") + raw[at + 8:]
    hlen = int.from_bytes(raw[at:at + 8], "little")
    header = json.loads(raw[at + 8:at + 8 + hlen])
    body = raw[at + 8 + hlen:]
    entry = draw(st.sampled_from(header["arrays"]))
    if kind == "dtype":
        entry["dtype"] = draw(st.sampled_from(
            ["float32", "<f8", "int64", "float64 ", ""]) | JSON_LIES)
    elif kind == "shape":
        entry["shape"] = draw(st.lists(st.integers(-3, 2**40), max_size=4)
                              | JSON_LIES)
    elif kind == "meta":
        header["meta"][draw(st.sampled_from(
            ["mode", "digest", "swag_rank", "extra", "other"]))] = draw(
            st.sampled_from(["swag", "point", "bbb", "samples"]) | JSON_LIES)
    else:
        header["meta"]["extra"]["n_tasks"] = draw(JSON_LIES)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return raw[:at] + len(text).to_bytes(8, "little") + text + body


@settings(max_examples=300, deadline=None)
@given(corrupted_containers())
def test_corrupt_posterior_is_a_data_error_or_a_posterior(raw):
    # truncation, header corruption and dtype or shape lies end in
    # DataError or in a valid result; nothing else escapes
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "swag.post")
        artifacts.write_file(path, raw)
        for read in (artifacts.read_container, bayes.load_posterior):
            try:
                read(path)
            except DataError:
                pass


def _open_calls(tree: ast.AST):
    """(enclosing function, line) of every call to open or x.open."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "open"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "open"):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_only_the_artifacts_boundary_opens_files():
    package = pathlib.Path(molbayes.__file__).parent
    calls = {}
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for where, line in _open_calls(tree):
            calls.setdefault(source.stem, set()).add(where)
    assert calls == {"artifacts": {"read_file", "write_file"}}
