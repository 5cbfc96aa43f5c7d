"""Atomic file-writing helpers for CLI artifacts, and JSON reading."""

from __future__ import annotations

import functools
import itertools
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator


def _umask() -> int:
    # os.umask can only be read by setting it, so put the old value back.
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file.

    ``text`` is one string or an iterable of chunks written in order, so a
    large document can be streamed without building it whole. The file gets
    the mode a plain ``open`` would give it under the process umask.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates the file 0600 whatever the umask.
            os.chmod(tmp, 0o666 & ~_umask())
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str | Path, doc: Any) -> None:
    """Write ``doc`` as indented, key-sorted JSON, streamed chunk by chunk.

    The bytes equal ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``;
    the document is never held as one string.
    """
    atomic_write_text(path, itertools.chain(_indented(doc, 0, set()), ("\n",)))


_SCALARS = frozenset({str, int, float, bool, type(None)})
# Items a scalar list hands to the C encoder at once, so no chunk grows with
# the list.
_SLICE = 1024
_encode = json.JSONEncoder().encode


@functools.lru_cache(maxsize=32)
def _layout(depth: int) -> tuple[str, str, Callable[[Any], str]]:
    """How ``indent=2`` lays out items at ``depth``: the break before each
    item, the break before the closing bracket, and an encoder that writes a
    list of scalars as ``[a,<break>b]``."""
    inner = "\n" + "  " * depth
    encode = json.JSONEncoder(separators=("," + inner, ": ")).encode
    return inner, "\n" + "  " * (depth - 1), encode


def _indented(o: Any, depth: int, markers: set[int]) -> Iterator[str]:
    """The ``indent=2, sort_keys=True`` text of ``o``, nested ``depth`` levels deep.

    Lists and ``str``-keyed dicts are walked here, and a list of plain
    scalars is encoded in C a slice at a time. Anything else (tuples, other
    keys, subclasses, unknown types) goes to ``json``'s own encoder.
    """
    kind = type(o)
    if kind in _SCALARS:
        yield _encode(o)
        return
    if kind is list or kind is dict:
        opening, closing = ("[", "]") if kind is list else ("{", "}")
        if not o:
            yield opening + closing
            return
        inner, outer, encode_items = _layout(depth + 1)
        if kind is list and set(map(type, o)) <= _SCALARS:
            sep = opening + inner
            for i in range(0, len(o), _SLICE):
                yield sep + encode_items(o[i : i + _SLICE])[1:-1]
                sep = "," + inner
            yield outer + closing
            return
        if kind is list or set(map(type, o)) == {str}:
            if id(o) in markers:
                raise ValueError("Circular reference detected")
            markers.add(id(o))
            sep = opening + inner
            if kind is list:
                for item in o:
                    yield sep
                    yield from _indented(item, depth + 1, markers)
                    sep = "," + inner
            else:
                for key in sorted(o):
                    yield sep + _encode(key) + ": "
                    yield from _indented(o[key], depth + 1, markers)
                    sep = "," + inner
            markers.discard(id(o))
            yield outer + closing
            return
    # json's encoder starts at depth 0; its only line breaks are indentation.
    pad = "\n" + "  " * depth
    for chunk in json.JSONEncoder(indent=2, sort_keys=True).iterencode(o):
        yield chunk.replace("\n", pad)


def read_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def json_int(value: Any, what: str) -> int:
    """value if it is a JSON integer; TypeError naming what for a bool, float, string or other."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value
