"""The file boundary: readers, the atomic writer and the container."""

import ast
import os
import pathlib

import numpy as np
import pytest

import molbayes
from molbayes import artifacts
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


def test_deeply_nested_container_header_is_a_data_error(tmp_path):
    path = tmp_path / "c.bin"
    header = b"[" * 100_000
    path.write_bytes(artifacts.MAGIC + len(header).to_bytes(8, "little")
                     + header)
    with pytest.raises(DataError):
        artifacts.read_container(str(path))


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
