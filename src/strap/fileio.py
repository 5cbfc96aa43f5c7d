"""Atomic file-writing helpers for CLI artifacts."""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable


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
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
    atomic_write_text(path, itertools.chain(chunks, ("\n",)))


def read_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))
