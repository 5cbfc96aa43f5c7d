"""Atomic writes: file mode under the umask, streamed chunks and JSON, no torn files."""

from __future__ import annotations

import json
import os
import stat

import pytest

from strap.fileio import atomic_write_json, atomic_write_text


def _mode(path) -> int:
    return stat.S_IMODE(path.stat().st_mode)


@pytest.mark.parametrize("mask", [0o022, 0o027, 0o077])
def test_files_get_the_mode_plain_open_gives(tmp_path, mask):
    old = os.umask(mask)
    try:
        (tmp_path / "plain.txt").write_text("x")
        atomic_write_text(tmp_path / "text.txt", "x")
        atomic_write_text(tmp_path / "chunks.txt", iter(["x", "y"]))
        atomic_write_json(tmp_path / "doc.json", {"a": 1})
    finally:
        os.umask(old)
    expected = 0o666 & ~mask
    assert _mode(tmp_path / "plain.txt") == expected
    for name in ("text.txt", "chunks.txt", "doc.json"):
        assert _mode(tmp_path / name) == expected, name


def test_chunks_are_written_in_order(tmp_path):
    path = tmp_path / "out.jsonl"
    atomic_write_text(path, (f"{i}\n" for i in range(5)))
    assert path.read_text() == "0\n1\n2\n3\n4\n"


def test_failed_stream_keeps_the_old_file_and_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")

    def chunks():
        yield "new"
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        atomic_write_text(path, chunks())
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_streamed_json_equals_dumps(tmp_path):
    doc = {"b": [1, 2.5, None, True], "a": {"z": "ünï ", "y": []}, "c": [[0] * 3, {}]}
    path = tmp_path / "doc.json"
    atomic_write_json(path, doc)
    assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
