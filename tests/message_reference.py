"""The recording model as it was while it held one Message per recorded line.

A test-local reference for the columnar loader and align: reference_load is
load_recording building one Message per line, and reference_align is
align_recording over each channel's tuple of Messages. The rows helpers put
both sides in one comparable shape. A Message is built on each read of a
columnar channel, so rows compare (channel, t_ns, kind) and payload
identity, which is what runs and memos key on, never Message identity.
"""

from __future__ import annotations

import json
import warnings
from bisect import bisect_left, bisect_right
from itertools import compress, islice, repeat
from operator import eq, gt, ne

import pytest
from conftest import messages

from strap.recording import (
    _KINDS,
    _PAYLOAD_KEY,
    _T_NS_KEY,
    AlignmentError,
    Message,
    MessageKind,
    RecordingLoadError,
    _image_payload,
    _line_head,
    _scan_once,
    align_recording,
    load_recording,
)
from strap.fileio import is_json_int


def _parse_line(line, lineno):
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordingLoadError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:
        raise RecordingLoadError(f"line {lineno}: invalid JSON ({exc})") from exc
    if not isinstance(row, dict):
        raise RecordingLoadError(f"line {lineno}: expected a JSON object")
    for key in ("channel", "t_ns", "kind", "payload"):
        if key not in row:
            raise RecordingLoadError(f"line {lineno}: missing field {key!r}")
    channel = row["channel"]
    if not isinstance(channel, str):
        raise RecordingLoadError(f"line {lineno}: channel must be a string")
    try:
        kind = _KINDS[row["kind"]]
    except (KeyError, TypeError):
        raise RecordingLoadError(f"line {lineno}: unknown message kind {row['kind']!r}") from None
    t_ns = row["t_ns"]
    if not is_json_int(t_ns):
        raise RecordingLoadError(f"line {lineno}: t_ns must be an integer")
    if t_ns < 0:
        raise RecordingLoadError(f"line {lineno}: negative timestamp {t_ns}")
    if t_ns >= 2**63:
        raise RecordingLoadError(f"line {lineno}: timestamp {t_ns} is not below 2**63")
    payload = row["payload"]
    if not isinstance(payload, dict):
        raise RecordingLoadError(f"line {lineno}: payload must be a JSON object")
    return Message(channel, t_ns, kind, payload)


# The kinds whose equal payload texts load as one object. An image shares
# only its scene, and a localization payload, new on every frame, nothing.
_SHARED_BY_TEXT = frozenset({
    MessageKind.TRAFFIC_LIGHT, MessageKind.OBSTACLE, MessageKind.PREDICTION, MessageKind.PLANNING,
})


def _shared_line(line, heads, payloads, scenes):
    start = line.find(_PAYLOAD_KEY) + len(_PAYLOAD_KEY)
    end = line.rfind(_T_NS_KEY)
    known = heads.get(line[:start])
    if known is None or end < start or line[-1:] != "}":
        return None
    channel, kind = known
    text = line[start:end]
    try:
        t_ns, stop = _scan_once(line, end + len(_T_NS_KEY))
        if kind is MessageKind.IMAGE_REF:
            payload = _image_payload(text, scenes)
        elif kind in _SHARED_BY_TEXT:
            payload = payloads.get(text)
        else:
            payload = None
        if payload is None:
            payload, size = _scan_once(text, 0)
            if size != len(text) or type(payload) is not dict:
                return None
            if kind in _SHARED_BY_TEXT:
                payloads[text] = payload
    except (StopIteration, ValueError, RecursionError):
        return None
    if stop != len(line) - 1 or type(t_ns) is not int or not 0 <= t_ns < 2**63:
        return None
    return Message(channel, t_ns, kind, payload)


def reference_load(path):
    """load_recording with one Message per line: channel name -> tuple of Messages."""
    per_channel, kinds, heads, payloads, scenes = {}, {}, {}, {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw[:-1] if raw[-1:] == "\n" else raw
            msg = _shared_line(line, heads, payloads, scenes)
            if msg is None:
                if not raw.strip(" \t\n\r"):
                    continue
                msg = _parse_line(raw, lineno)
                head = _line_head(msg.channel, msg.kind)
                if line.startswith(head):
                    heads[head] = (msg.channel, msg.kind)
                    msg = _shared_line(line, heads, payloads, scenes) or msg
            seen = kinds.get(msg.channel)
            if seen is None:
                kinds[msg.channel] = (msg.kind, lineno)
            elif seen[0] is not msg.kind:
                raise RecordingLoadError(
                    f"line {lineno}: channel {msg.channel!r} is {seen[0].value!r} "
                    f"(declared at line {seen[1]}) but carries {msg.kind.value!r}"
                )
            per_channel.setdefault(msg.channel, []).append(msg)
    if not per_channel:
        raise RecordingLoadError("empty recording")
    channels = {}
    for name, msgs in per_channel.items():
        times = [m.t_ns for m in msgs]
        if any(map(gt, times, times[1:])):
            msgs.sort(key=lambda m: m.t_ns)
            times.sort()
            warnings.warn(f"channel {name!r}: out-of-order timestamps were re-sorted", stacklevel=2)
        if any(map(eq, times, times[1:])):
            kept = list(compress(msgs, map(ne, times, [-1, *times])))
            warnings.warn(
                f"channel {name!r}: {len(msgs) - len(kept)} duplicate-timestamp message(s) "
                "dropped, keeping the first in file order",
                stacklevel=2,
            )
            msgs = kept
        channels[name] = tuple(msgs)
    return channels


def reference_align(channels):
    """align_recording over channel name -> tuple of Messages: (grid times, name -> column of Messages)."""
    for name, msgs in channels.items():
        if not msgs:
            raise AlignmentError(f"channel {name!r} has no messages")
    ref = min(channels, key=lambda name: (-len(channels[name]), name))
    ref_times = sorted({m.t_ns for m in channels[ref]})
    n = len(ref_times)
    next_times = [*ref_times[1:], ref_times[-1] + 1]
    names = sorted(channels)
    start = 0
    for name in names:
        first = bisect_right(next_times, channels[name][0].t_ns)
        if first == n:
            raise AlignmentError(f"no alignable frames: channel {name!r} never overlaps the reference")
        start = max(start, first)
    del next_times[:start]
    columns = {}
    for name in names:
        msgs = channels[name]
        later = [m.t_ns for m in islice(msgs, 1, None)]
        columns[name] = tuple(map(msgs.__getitem__, map(bisect_left, repeat(later), next_times)))
    return ref_times[start:], columns


def message_row(m):
    return m.channel, m.t_ns, m.kind, id(m.payload)


def loaded_rows(channels):
    """Per channel, its name and each message's (channel, t_ns, kind, payload
    text, sharing): payload and image scene identities numbered by first sight,
    since two loads share no object but must share alike."""
    seen = {}

    def number(o):
        return seen.setdefault(id(o), (len(seen), o))[0]

    def row(m):
        p = m.payload
        scene = number(p["scene"]) if m.kind is MessageKind.IMAGE_REF and "scene" in p else None
        return m.channel, m.t_ns, m.kind, json.dumps(p, sort_keys=True), number(p), scene

    return [(name, [row(m) for m in msgs]) for name, msgs in channels.items()]


def _outcome(load, path):
    """What a loader makes of a file: its rows, channel kinds and warnings, or its error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            channels, kinds = load(path)
        except RecordingLoadError as exc:
            return "error", str(exc)
    return loaded_rows(channels), kinds, [str(w.message) for w in caught]


def _message_load(path):
    channels = reference_load(path)
    return channels, {name: msgs[0].kind for name, msgs in channels.items()}


def _columnar_load(path):
    channels = load_recording(path).channels
    return {name: messages(ch) for name, ch in channels.items()}, {name: ch.kind for name, ch in channels.items()}


def assert_loads_as_messages(path):
    """load_recording gives the message loader's channels, kinds, sharing and warnings, or its error."""
    assert _outcome(_columnar_load, path) == _outcome(_message_load, path)


def assert_aligns_as_messages(rec):
    """align_recording gives the message align's grid and, per frame, the same recorded messages."""
    try:
        times, columns = reference_align({name: messages(ch) for name, ch in rec.channels.items()})
    except AlignmentError as exc:
        with pytest.raises(AlignmentError) as got:
            align_recording(rec)
        assert str(got.value) == str(exc)
        return
    ar = align_recording(rec)
    assert list(ar.times) == times
    assert tuple(ar.columns) == tuple(columns)
    for name, (ch, index) in ar.columns.items():
        assert [message_row(ch.message(k)) for k in index] == list(map(message_row, columns[name])), name
