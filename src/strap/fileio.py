"""Atomic file-writing helpers for CLI artifacts, JSON reading and document formats."""

from __future__ import annotations

import functools
import json
import os
import sys
import tempfile
from collections.abc import Mapping
from itertools import chain, compress, islice, pairwise, repeat
from operator import is_not
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator


class InputError(ValueError):
    """Input strap cannot take: a bad flag, file or document. The CLI exits 1 on it and on
    OSError, and 2 on any other exception, as a bug in strap."""


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
        # 64 KiB writes, not 8 KiB: fewer system calls on a long aligned JSONL.
        with os.fdopen(fd, "w", encoding="utf-8", buffering=1 << 16) as fh:
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
    the document is never held as one string. A list of scalars that
    appears many times as one object (repeated rows) is encoded once per
    depth, and a run of one object repeated as consecutive list items is
    encoded once and its text written again for each repeat.
    """
    atomic_write_text(path, chain(_indented(doc, 0, set(), {}), ("\n",)))


_SCALARS = frozenset({str, int, float, bool, type(None)})
# Items a scalar list hands to the C encoder at once, so no chunk grows with
# the list.
_SLICE = 1024
_encode = json.JSONEncoder().encode


def one_encoder(**options: Any) -> Callable[[Any], str]:
    """``json.JSONEncoder(**options).encode`` through one C encoder made once, as encode makes one per
    call (Python 3.10 to 3.13); encode itself without the accelerator, with an indent or ensure_ascii off."""
    e, make = json.JSONEncoder(**options), json.encoder.c_make_encoder
    if make is None or e.indent is not None or not e.ensure_ascii:
        return e.encode
    c = make({} if e.check_circular else None, e.default, json.encoder.encode_basestring_ascii, None,
             e.key_separator, e.item_separator, e.sort_keys, e.skipkeys, e.allow_nan)
    return lambda o: "".join(c(o, 0))


@functools.lru_cache(maxsize=32)
def _layout(depth: int) -> tuple[str, str, Callable[[Any], str]]:
    """How ``indent=2`` lays out items at ``depth``: the break before each
    item, the break before the closing bracket, and an encoder that writes
    scalars as ``[a,<break>b]`` or ``{"k": a,<break>"l": b}``, keys sorted."""
    inner = "\n" + "  " * depth
    # Flat scalar containers hold no cycle, and a checking C encoder keeps one marked after an error.
    encode = one_encoder(separators=("," + inner, ": "), sort_keys=True, check_circular=False)
    return inner, "\n" + "  " * (depth - 1), encode


def _indented(
    o: Any, depth: int, markers: set[int], texts: dict[tuple[int, int], tuple[list, str]]
) -> Iterator[str]:
    """The ``indent=2, sort_keys=True`` text of ``o``, nested ``depth`` levels deep.

    Lists and ``str``-keyed dicts are walked here. Their plain scalars are
    encoded in C, a list's a slice at a time and a dict's of at most _SLICE
    at once; tuples, other keys, subclasses and unknown types go to ``json``.

    ``texts`` keeps the text of each scalar list of at most _SLICE items by
    its id and depth (its indentation depends on the depth) and holds the
    list, so its id stays its own while the memo lives.
    """
    kind = type(o)
    if kind in _SCALARS:
        yield _encode(o)
        return
    if kind is list and (hit := texts.get((id(o), depth))) is not None:
        yield hit[1]
        return
    if kind is list or kind is dict:
        opening, closing = ("[", "]") if kind is list else ("{", "}")
        if not o:
            yield opening + closing
            return
        inner, outer, encode_items = _layout(depth + 1)
        if kind is list and set(map(type, o)) <= _SCALARS:
            if len(o) <= _SLICE:
                text = opening + inner + encode_items(o)[1:-1] + outer + closing
                texts[id(o), depth] = (o, text)
                yield text
                return
            sep = opening + inner
            for i in range(0, len(o), _SLICE):
                yield sep + encode_items(o[i : i + _SLICE])[1:-1]
                sep = "," + inner
            yield outer + closing
            return
        if kind is list or set(map(type, o)) == {str}:
            if kind is dict and len(o) <= _SLICE and set(map(type, o.values())) <= _SCALARS:
                yield opening + inner + encode_items(o)[1:-1] + outer + closing
                return
            if id(o) in markers:
                raise ValueError("Circular reference detected")
            markers.add(id(o))
            sep = opening + inner
            if kind is list:
                runs = [0, *compress(range(1, len(o)), map(is_not, islice(o, 1, None), o)), len(o)]
                for a, b in pairwise(runs):
                    yield sep
                    sep = "," + inner
                    if b - a == 1:
                        yield from _indented(o[a], depth + 1, markers, texts)
                    else:
                        text = "".join(_indented(o[a], depth + 1, markers, texts))
                        yield from chain((text,), repeat(sep + text, b - a - 1))
            else:
                for key in sorted(o):
                    yield sep + _encode(key) + ": "
                    yield from _indented(o[key], depth + 1, markers, texts)
                    sep = "," + inner
            markers.discard(id(o))
            yield outer + closing
            return
    # json's encoder starts at depth 0; its only line breaks are indentation.
    pad = "\n" + "  " * depth
    for chunk in json.JSONEncoder(indent=2, sort_keys=True).iterencode(o):
        yield chunk.replace("\n", pad)


def read_json(path: str | Path) -> Any:
    try:
        # Decoded whole, so the error's offset is the file's.
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 at byte {exc.start} ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:
        # An integer literal longer than sys.get_int_max_str_digits(), or
        # nesting deeper than the decoder's recursion limit: bad input, not a bug.
        raise InputError(f"{path}: invalid JSON ({exc})") from None


# A format declares what a JSON document holds. int is a JSON integer (never
# a bool), float any JSON number a float holds (an integer no larger than
# sys.float_info.max in size), and str and bool stand for themselves. A
# tuple of strings is one of those strings, and a one-item list [F] a list of
# Fs. {str: F} is an object mapping any keys to Fs. Any other dict is an
# object with the keys it lists: a key ending in "!" must be present and not
# null, one ending in "?" may be absent or null, and any other may be absent
# but not null. Keys a format does not list are ignored, except by a Closed
# format, which rejects them.
class Closed(dict):
    """An object format that rejects the keys it does not list."""


def is_json_int(value: Any) -> bool:
    """Whether value is a JSON integer: an int, but not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


# Each scalar format's name in messages and its test.
_SCALAR_FORMATS: dict[type, tuple[str, Callable[[Any], bool]]] = {
    int: ("an integer", is_json_int),
    float: ("a number", lambda v: isinstance(v, float) or is_json_int(v) and abs(v) <= sys.float_info.max),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
}


def check(value: Any, fmt: Any, what: str) -> None:
    """Raise InputError("<what>: <where value first departs from fmt>") unless value matches fmt."""
    if err := _departure(value, fmt, ""):
        raise InputError(f"{what}: {err}")


def _departure(value: Any, fmt: Any, path: str) -> str | None:
    if isinstance(fmt, type):
        name, test = _SCALAR_FORMATS[fmt]
        if test(value):
            return None
        # An integer too large for a float is a number, out of the float range.
        return _must(path, "a number in float range" if fmt is float and is_json_int(value) else name, value)
    if isinstance(fmt, dict):
        if not isinstance(value, Mapping):
            return _must(path, "an object", value)
        if str in fmt:
            for key, item in value.items():
                if err := _departure(item, fmt[str], f"{path}.{key}" if path else key):
                    return err
            return None
        if isinstance(fmt, Closed):
            names = [key.rstrip("!?") for key in fmt]
            for key in value:
                if key not in names:
                    return (f"{path or 'top level'} has unknown key {key!r}; "
                            f"expected one of {', '.join(names)}")
        for key, sub in fmt.items():
            mark = key[-1]
            name = key[:-1] if mark in "!?" else key
            where = f"{path}.{name}" if path else name
            if name not in value:
                if mark == "!":
                    return f"{where} is missing"
            elif value[name] is not None or mark != "?":
                if err := _departure(value[name], sub, where):
                    return err
        return None
    if isinstance(fmt, list):
        if not isinstance(value, (list, tuple)):
            return _must(path, "a list", value)
        sub = fmt[0]
        # A list of scalars is tested whole first; paths are built only to
        # name a departure.
        if isinstance(sub, type) and all(map(_SCALAR_FORMATS[sub][1], value)):
            return None
        for i, item in enumerate(value):
            if err := _departure(item, sub, f"{path}[{i}]"):
                return err
        return None
    if isinstance(value, str) and value in fmt:  # a tuple of strings
        return None
    return _must(path, f"one of {', '.join(fmt)}", value)


def _must(path: str, name: str, value: Any) -> str:
    shown = repr(value)
    if len(shown) > 80:
        shown = shown[:77] + "..."
    return f"{path} must be {name}, got {shown}" if path else f"expected {name}, got {shown}"
