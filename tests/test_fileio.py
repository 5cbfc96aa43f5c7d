"""Atomic writes: file mode under the umask, streamed chunks and JSON, no torn files.

Also the document format checker.
"""

from __future__ import annotations

import enum
import json
import os
import random
import stat
import sys

import pytest

from strap import fileio
from strap.fileio import Closed, InputError, atomic_write_json, atomic_write_text, check, read_json
from strap.recording import MessageKind


class IntFlag(enum.IntEnum):
    A = 3


class Half(float):
    pass


class Items(list):
    pass


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


def _dumps(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


_FLOATS = [0.0, -0.0, 0.1, 1e300, -2.5e-300, float("nan"), float("inf"), float("-inf")]
_STRINGS = ["", "a", "café", " 中", 'q"\\\n\t', "\x00"]


def _scalar(rng):
    return rng.choice(
        [None, True, False, rng.randint(-(2**70), 2**70), rng.choice(_FLOATS), rng.choice(_STRINGS)]
    )


def _doc(rng, depth=0):
    """A random document: every JSON shape plus tuples and non-str keys."""
    roll = rng.random() if depth < 4 else 0.0
    if roll < 0.3:
        return _scalar(rng)
    if roll < 0.45:
        # Long scalar lists span several encoder slices.
        return [_scalar(rng) for _ in range(rng.choice([0, 1, 3, 1023, 1024, 1025, 2500]))]
    if roll < 0.65:
        items = [_doc(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.25 else items
    n = rng.randint(0, 4)
    keys = rng.choice(
        [
            [rng.choice(_STRINGS) + str(i) for i in range(n)],
            list(range(n)),
            [True, False][:n],
            [None][:n],
            [0.5 * i for i in range(n)],
        ]
    )
    return {k: _doc(rng, depth + 1) for k in keys}


@pytest.mark.parametrize("seed", range(40))
def test_json_equals_dumps_on_random_documents(tmp_path, seed):
    rng = random.Random(seed)
    doc = {"root": [_doc(rng) for _ in range(3)], "top": _doc(rng)}
    path = tmp_path / "doc.json"
    atomic_write_json(path, doc)
    assert path.read_bytes() == _dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        0,
        "s",
        None,
        [],
        {},
        (),
        [[[]], {}, [{}], ()],
        {"a": {"b": {"c": []}}},
        (1, [2, (3, {"k": (4,)})]),
        {1: [1, 2], 2: {"x": (3,)}},
        {"k": {None: [0.5]}},
        {"v": list(range(5000))},
        [float("nan"), float("inf"), float("-inf")],
        [MessageKind.PLANNING, IntFlag.A, 1.5],
        {"e": MessageKind.OBSTACLE, "f": Half(0.5), "l": Items([1, 2])},
    ],
    ids=repr,
)
def test_json_equals_dumps_on_edge_documents(tmp_path, doc):
    path = tmp_path / "doc.json"
    atomic_write_json(path, doc)
    assert path.read_bytes() == _dumps(doc)


# A dict of plain scalars, its keys non-ASCII and escaped.
_SCALAR_DICT = {
    "caf\u00e9": float("nan"), 'q"\\\n\t\x00': float("inf"), "\u2028 \u4e2d": float("-inf"),
    "z": -0.0, "b": True, "f": False, "a": None, "i": -(2**70), "s": "\u00fcn\u00ef \U0001f600", "": 0.5,
}


class Fields(dict):
    pass


def _nested(o, depth):
    """o under depth levels, a list and a dict in turn."""
    for level in range(depth):
        o = [1, o] if level % 2 else {"k": o, "n": None}
    return o


def _encoded(monkeypatch):
    """The objects _indented hands to a depth's C encoder, as it hands them."""
    encoded, original = [], fileio._layout

    def layout(depth):
        inner, outer, encode = original(depth)
        return inner, outer, lambda items: encoded.append(items) or encode(items)

    monkeypatch.setattr(fileio, "_layout", layout)
    return encoded


@pytest.mark.parametrize("depth", range(4))
def test_scalar_dicts_equal_dumps_in_one_encode(tmp_path, monkeypatch, depth):
    encoded = _encoded(monkeypatch)
    few = {"x": 1}
    for doc, dicts in [(_SCALAR_DICT, [_SCALAR_DICT]), ({}, []),
                       ([_SCALAR_DICT, few, {}, few], [_SCALAR_DICT, few, few])]:
        encoded.clear()
        atomic_write_json(tmp_path / "doc.json", _nested(doc, depth))
        assert (tmp_path / "doc.json").read_bytes() == _dumps(_nested(doc, depth))
        assert [id(o) for o in encoded if type(o) is dict] == list(map(id, dicts))


@pytest.fixture
def no_c_encoder(monkeypatch):
    """json without its C encoder: each depth's encoder is JSONEncoder.encode, built anew."""
    layout = fileio._layout
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    layout.cache_clear()
    assert all(layout(d)[2].__func__ is json.JSONEncoder.encode for d in range(1, 6))
    yield
    layout.cache_clear()


@pytest.mark.parametrize("depth", range(4))
def test_scalar_dicts_without_the_c_encoder(tmp_path, monkeypatch, no_c_encoder, depth):
    test_scalar_dicts_equal_dumps_in_one_encode(tmp_path, monkeypatch, depth)


@pytest.mark.parametrize(
    "odd",
    [
        Fields(_SCALAR_DICT),
        {1: "a", 2: None, 3: 0.5},
        {True: 1, False: -0.0},
        {"a": 1, "b": Half(0.5)},
        {"a": 1, "b": IntFlag.A},
        {f"k{i}": i for i in range(fileio._SLICE + 1)},
    ],
    ids=["dict-subclass", "int-keys", "bool-keys", "float-subclass", "int-enum", "over-a-slice"],
)
def test_other_dicts_take_the_general_path(tmp_path, monkeypatch, odd):
    encoded = _encoded(monkeypatch)
    doc = {"odd": odd, "plain": _SCALAR_DICT}
    atomic_write_json(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_bytes() == _dumps(doc)
    assert all(o is not odd for o in encoded)
    assert any(o is _SCALAR_DICT for o in encoded)


def _shared_lists(rng, pool, depth=0):
    """A document whose lists of scalars are objects of pool, each at several depths."""
    roll = rng.random() if depth < 4 else 0.0
    if roll < 0.4:
        return rng.choice(pool)
    if roll < 0.7:
        return [_shared_lists(rng, pool, depth + 1) for _ in range(rng.randint(1, 4))]
    return {f"k{i}": _shared_lists(rng, pool, depth + 1) for i in range(rng.randint(1, 3))}


@pytest.mark.parametrize("seed", range(20))
def test_json_equals_dumps_with_shared_lists(tmp_path, seed):
    rng = random.Random(seed)
    # Short rows are encoded once per depth; one longer than a slice is not.
    sizes = [1, 3, fileio._SLICE, fileio._SLICE + 1]
    pool = [[_scalar(rng) for _ in range(rng.choice(sizes))] for _ in range(3)]
    doc = {"rows": [pool[0]] * 5, "deep": {"a": [pool[0], [pool[0]]]}, "doc": _shared_lists(rng, pool)}
    path = tmp_path / "doc.json"
    atomic_write_json(path, doc)
    assert path.read_bytes() == _dumps(doc)


def test_repeated_rows_are_encoded_once_per_depth(tmp_path, monkeypatch):
    encoded = _encoded(monkeypatch)
    row = [1, 2, 3]
    doc = {"vectors": [row] * 100, "nested": [[row]] * 10, "other": [list(row)]}
    atomic_write_json(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_bytes() == _dumps(doc)
    assert encoded == [row] * 3


def test_repeated_rows_without_the_c_encoder(tmp_path, monkeypatch, no_c_encoder):
    test_repeated_rows_are_encoded_once_per_depth(tmp_path, monkeypatch)


def test_scalar_list_error_leaves_no_mark(tmp_path):
    """A scalar list that fails to encode fails the same way when written again."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("ints of any length convert to str")
    row = [1, 10 ** (limit + 1)]
    doc = {"rows": [row]}
    first = _error(lambda: atomic_write_json(tmp_path / "doc.json", doc))
    assert first[0] is ValueError and "Circular" not in first[1]
    assert _error(lambda: atomic_write_json(tmp_path / "doc.json", doc)) == first


def _repeated_items():
    """Lists holding runs of one object: scalar rows, dicts, lists of runs, and odd items."""
    row, long_row = [1, 2.5, "x"], list(range(fileio._SLICE + 1))
    obj = {"b": [row] * 3, "a": None}
    nested = [[row] * 4, [row] * 4]
    return {
        "rows": [row] * 7 + [list(row)] * 2 + [row],
        "objects": [obj] * 5 + [dict(obj)] + [obj] * 2,
        "nested": [nested] * 3 + [nested[0]] * 2,
        "long": [long_row] * 3,
        "mixed": [[row], 5, 5, 5, "s", "s", (1, 2), (1, 2), [], [], {}, {}, Half(0.5), Half(0.5)],
        "one": [obj],
    }


def test_repeated_items_equal_dumps_and_are_encoded_once(tmp_path, monkeypatch):
    doc = _repeated_items()
    walked, original = [], fileio._indented

    def indented(o, *args):
        walked.append(id(o))
        return original(o, *args)

    monkeypatch.setattr(fileio, "_indented", indented)
    atomic_write_json(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_bytes() == _dumps(doc)
    # A run is walked once: obj in its two runs, and once more inside "one".
    obj = doc["one"][0]
    assert walked.count(id(obj)) == 3
    assert walked.count(id(doc["nested"][0])) == 1


def test_repeated_items_are_written_in_bounded_chunks(tmp_path, monkeypatch):
    chunks = []
    monkeypatch.setattr(fileio, "atomic_write_text", lambda path, text: chunks.extend(text))
    row = {"v": [7] * 21}
    doc = {"rows": [row] * 50_000}
    atomic_write_json(tmp_path / "doc.json", doc)
    assert "".join(chunks).encode() == _dumps(doc)
    # No chunk is longer than the whole document with a single row.
    assert max(map(len, chunks)) < len(json.dumps({"rows": [row]}, indent=2))


def _cyclic_run():
    a = [0]
    a += [a, a]
    return {"a": a}


def _cyclic_nested_run():
    outer = [0]
    inner = [[1], outer]
    outer += [inner] * 3
    return [outer, outer]


def _error(write):
    with pytest.raises(Exception) as info:
        write()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "make",
    [
        lambda: {"a": [1, object()]},
        lambda: {"a": {1: 1, "b": 2}},
        lambda: {"s": {1, 2}},
        lambda: _cyclic_list(),
        lambda: _cyclic_dict(),
        lambda: _cyclic_run(),
        lambda: _cyclic_nested_run(),
    ],
)
def test_json_errors_equal_dumps(tmp_path, make):
    path = tmp_path / "doc.json"
    assert _error(lambda: atomic_write_json(path, make())) == _error(
        lambda: json.dumps(make(), indent=2, sort_keys=True)
    )
    assert os.listdir(tmp_path) == []


def _cyclic_list():
    a = [1, []]
    a[1].append(a)
    return {"a": a}


def _cyclic_dict():
    d = {"x": [1]}
    d["y"] = {"z": (d,)}
    return d


def test_long_scalar_list_is_written_in_bounded_chunks(tmp_path, monkeypatch):
    chunks = []

    def capture(path, text):
        chunks.extend(text)

    monkeypatch.setattr(fileio, "atomic_write_text", capture)
    doc = {"t_ns": list(range(10**9, 10**9 + 50_000)), "rows": [[7] * 21] * 3}
    atomic_write_json(tmp_path / "doc.json", doc)
    assert "".join(chunks).encode() == _dumps(doc)
    # A chunk holds at most one slice: 1024 lines of ",\n", four spaces and
    # ten digits, plus the list's opening bracket.
    assert max(map(len, chunks)) <= 1024 * 16 + 1


# One format using every construct of the format language.
FORMAT = {
    "n!": int,
    "x": float,
    "tag?": str,
    "ok": bool,
    "kind": ("a", "b"),
    "items": [int],
    "table": {str: {"v!": int}},
    "scene": Closed({"k": str}),
}
VALID = {"n": 1, "x": 2, "tag": None, "ok": False, "kind": "b", "items": (1, 2),
         "table": {"p": {"v": 3}}, "scene": {}, "other": [None]}


@pytest.mark.parametrize(
    "doc,err",
    [
        ([], "expected an object, got []"),
        ({}, "n is missing"),
        ({**VALID, "n": None}, "n must be an integer, got None"),
        ({**VALID, "n": True}, "n must be an integer, got True"),
        ({**VALID, "n": 1.0}, "n must be an integer, got 1.0"),
        ({**VALID, "x": "1"}, "x must be a number, got '1'"),
        ({**VALID, "x": None}, "x must be a number, got None"),
        ({**VALID, "tag": 5}, "tag must be a string, got 5"),
        ({**VALID, "ok": 0}, "ok must be true or false, got 0"),
        ({**VALID, "kind": "c"}, "kind must be one of a, b, got 'c'"),
        ({**VALID, "items": [1, 2.5, "x"]}, "items[1] must be an integer, got 2.5"),
        ({**VALID, "table": {"p": {}}}, "table.p.v is missing"),
        ({**VALID, "table": {"p": None}}, "table.p must be an object, got None"),
        ({**VALID, "scene": {"k": "s", "q": 1}}, "scene has unknown key 'q'; expected one of k"),
        ({**VALID, "items": "x" * 100}, "items must be a list, got '" + "x" * 76 + "..."),
    ],
)
def test_check_names_the_first_departure(doc, err):
    check(VALID, FORMAT, "doc")
    check({"n": 0}, FORMAT, "doc")
    with pytest.raises(InputError) as exc:
        check(doc, FORMAT, "invalid doc")
    assert exc.value.args == (f"invalid doc: {err}",)


@pytest.mark.parametrize(
    "text,err",
    [
        ('{"segments": [1,', "Expecting value"),
        ("", "Expecting value"),
        ("{} {}", "Extra data"),
        ("[" * 200_000 + "]" * 200_000, "maximum recursion depth"),
        ("[" + "9" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1) + "]", "Exceeds the limit"),
    ],
    ids=["truncated", "empty", "extra", "deep", "long-int"],
)
def test_read_json_names_the_file(tmp_path, text, err):
    if text == "[9]":
        pytest.skip("this interpreter converts integer literals of any length")
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(InputError) as exc:
        read_json(path)
    assert str(exc.value).startswith(f"{path}: invalid JSON ({err}")
