"""Recording data model and cross-channel message alignment.

A recording is a set of named pub-sub channels, each carrying a time-ordered
stream of messages. Channels publish at different rates, so downstream
analysis first aligns them onto the timestamp grid of a reference channel,
producing frames in which every channel contributes exactly one message.
"""

from __future__ import annotations

import json
import warnings
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, compress, count, islice, pairwise, repeat
from operator import add, eq, ge, gt, is_, is_not, itemgetter, mul, ne, truediv
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .fileio import InputError, _departure, check, is_json_int, one_encoder

TimestampNs = int
NS_PER_SEC = 1_000_000_000
T_NS_END = 2**63  # channels and grids hold times in an array('q'), so each is below this


def _frame_t_ns(index: int, fps: int) -> int:
    return index * NS_PER_SEC // fps


def _frame_index(t_ns: int, fps: int) -> int:
    return round(t_ns * fps / NS_PER_SEC)


class MessageKind(str, Enum):
    """Payload kinds a channel may carry."""

    TRAFFIC_LIGHT = "traffic_light"
    OBSTACLE = "obstacle"
    PREDICTION = "prediction"
    PLANNING = "planning"
    LOCALIZATION = "localization"
    IMAGE_REF = "image_ref"


@dataclass(slots=True)
class Message:
    """One channel message.

    Messages are slotted and not frozen, for construction cost: replay
    builds one per frame. Nothing assigns to them.
    Payloads are immutable by convention, and the convention is load-bearing:
    the loader and the generator give equal payloads (and scenes) one shared
    object, replay hands one output object to every frame it holds on, and
    the runs and memos key on payload identity. Mutating a payload in place
    changes every message that shares it; build a new dict instead.
    """

    channel: str
    t_ns: TimestampNs
    kind: MessageKind
    payload: Mapping[str, Any]

    def __post_init__(self) -> None:
        if self.t_ns < 0:
            raise ValueError(f"negative timestamp {self.t_ns} on channel {self.channel!r}")


class Channel:
    """A named message stream of a single kind with non-decreasing timestamps, as columns.

    Message k is ``(times[k], payloads[k])``, from an array('q') and a tuple:
    no object per message but its payload. Channel(name, kind, messages)
    checks each message's kind, channel, order and time; message(k) builds
    message k's Message on each call.
    """

    __slots__ = ("name", "kind", "times", "payloads")

    def __init__(self, name: str, kind: MessageKind, messages: Iterable[Message]) -> None:
        times, payloads = array("q"), []
        for m in messages:
            if m.kind is not kind:
                raise ValueError(f"channel {name!r} declared {kind.value!r} "
                                 f"but holds a {m.kind.value!r} message")
            if m.channel != name:
                raise ValueError(f"channel {name!r} holds a message of channel {m.channel!r}")
            if type(m.t_ns) is not int or m.t_ns >= T_NS_END:
                raise ValueError(f"channel {name!r}: timestamp {m.t_ns!r} is not an integer below 2**63")
            if times and m.t_ns < times[-1]:
                raise ValueError(f"channel {name!r} timestamps decrease at t={m.t_ns}")
            times.append(m.t_ns)
            payloads.append(m.payload)
        self.name, self.kind, self.times, self.payloads = name, kind, times, tuple(payloads)

    @classmethod
    def _of(cls, name: str, kind: MessageKind, times: array[int], payloads: Sequence[Any]) -> Channel:
        """The channel of these columns, unchecked: the loader's and the generator's."""
        ch = cls.__new__(cls)
        ch.name, ch.kind, ch.times, ch.payloads = name, kind, times, payloads
        return ch

    def message(self, k: int) -> Message:
        return Message(self.name, self.times[k], self.kind, self.payloads[k])


@dataclass(frozen=True)
class Recording:
    """A bundle of channels keyed by channel name."""

    channels: Mapping[str, Channel]

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("recording has no channels")
        for name, ch in self.channels.items():
            if name != ch.name:
                raise ValueError(f"channel key {name!r} does not match channel name {ch.name!r}")
        if self.message_count() == 0:
            raise ValueError("recording has no messages")

    def message_count(self) -> int:
        return sum(len(ch.times) for ch in self.channels.values())


# What each kind's payload holds, as the encoder and the toy modules read it,
# in fileio.check's format language.
PAYLOAD_FORMATS: Mapping[MessageKind, Mapping[str, Any]] = {
    MessageKind.TRAFFIC_LIGHT: {"lights?": [{"color?": str, "shape?": str, "orientation?": str}]},
    MessageKind.OBSTACLE: {
        "obstacles?": [{
            "actor!": str, "subtype?": str, "action?": str, "on_crosswalk?": bool,
            "at_intersection?": bool, "speed_mps!": float, "lateral_mps!": float,
        }],
        "objects?": [str],
    },
    MessageKind.PREDICTION: {"tracks?": [{"actor?": str, "action?": str}]},
    MessageKind.PLANNING: {"ego_action?": str, "stop_cause?": str},
    MessageKind.LOCALIZATION: {"x?": float, "y?": float, "heading?": float},
    MessageKind.IMAGE_REF: {
        "ref?": str,
        "scene?": {
            "lights?": [{"hue_deg!": float, "brightness!": float, "circularity!": float,
                         "tilt_deg!": float}],
            "actors?": [{
                "wheels!": float, "height_m!": float, "length_m!": float, "motor_power!": float,
                "speed_mps!": float, "lateral_mps!": float, "on_crosswalk?": bool,
                "at_intersection?": bool,
            }],
            "statics?": [{"name!": str, "confidence!": float}],
        },
    },
}


def check_payloads(row: Mapping[str, Message]) -> None:
    """InputError naming the first field of a row's payloads that breaks its format.

    Encoding and replay build the row (AlignedRecording.row) and call this
    only after they fail on it, so neither the messages nor the per-field
    checks are made on their hot paths.
    """
    for msg in row.values():
        where = f"{msg.kind.value} payload on channel {msg.channel!r} at t_ns {msg.t_ns}"
        check(msg.payload, PAYLOAD_FORMATS[msg.kind], where)


# What a run of frames keys on per payload kind, in ToyModule.reads' terms.
# It is also what recurs from frame to frame, so the JSONL writers keep a
# text (_payload_texts), and load_recording shares a payload by its text,
# only for a payload of a kind mapped to None and for an image's scene; a
# localization payload or an image, new on every frame, is encoded where it
# stands and parsed on its own.
RUN_READS: Mapping[MessageKind, str | None] = {
    MessageKind.TRAFFIC_LIGHT: None, MessageKind.OBSTACLE: None, MessageKind.PREDICTION: None,
    MessageKind.PLANNING: None, MessageKind.IMAGE_REF: "scene",
}


class Column(NamedTuple):
    """A grid's channel: the recorded channel, and per frame the index of its message there."""

    channel: Channel
    index: array[int]

    def payload(self, i: int) -> Any:
        return self.channel.payloads[self.index[i]]


class AlignedRecording:
    """Each channel's recorded messages on the reference channel's timestamp grid, as columns.

    Only align_recording builds one. ``times`` is an array('q') of the frame
    times, strictly increasing and never empty, and ``columns`` maps each
    channel, in name order, to its Column, so a grid holds no object per
    frame. Frame i is row i of the columns: its readers take each channel's
    payload there (Column.payload) and build its messages (row) only to
    name a bad payload. Its time, ``times[i]``, is the only grid time;
    messages keep their recorded ones.
    """

    times: array[TimestampNs]
    columns: Mapping[str, Column]

    def __init__(self, times: array[TimestampNs], columns: Mapping[str, Column]) -> None:
        self.times, self.columns = times, columns

    def __len__(self) -> int:
        return len(self.times)

    @cached_property
    def kinds(self) -> Mapping[str, MessageKind]:
        """Each channel's kind, in name order."""
        return {name: ch.kind for name, (ch, _) in self.columns.items()}

    def row(self, i: int) -> dict[str, Message]:
        """Frame i's recorded messages by channel name, built on each call."""
        return {name: ch.message(index[i]) for name, (ch, index) in self.columns.items()}

    @cached_property
    def run_bounds(self) -> array[int]:
        """Each run's first frame, then the frame count (synth._FrameClasses states the rule)."""
        n = len(self.times)
        starts = {0}
        for ch, index in self.columns.values():
            if ch.kind in RUN_READS:
                objects = list(map(ch.payloads.__getitem__, index))
                if field := RUN_READS[ch.kind]:  # the image's scene
                    objects = [p.get(field) for p in objects]
                starts.update(compress(range(1, n), map(is_not, islice(objects, 1, None), objects)))
        return array("q", [*sorted(starts), n])

    @cached_property
    def scenes_checked(self) -> int:
        """How many distinct image scenes the grid holds, each checked once (encode_recording
        reads it) where it first shows: at a run start. InputError names the first bad one."""
        seen: set[int] = set()
        for name, (ch, index) in self.columns.items():
            if ch.kind is MessageKind.IMAGE_REF:
                for k in map(index.__getitem__, self.run_bounds[:-1]):
                    scene = ch.payloads[k].get("scene")
                    if id(scene) not in seen:
                        seen.add(id(scene))
                        if _departure({"scene": scene}, PAYLOAD_FORMATS[ch.kind], ""):
                            check_payloads({name: ch.message(k)})
        return len(seen)

    @cached_property
    def fps(self) -> int:
        """The grid's clock: ``round(1e9 * (n - 1) / (t_last - t_first))`` frames a second.

        Replay ticks count from the grid's first frame, as the generator's
        do, whatever the time origin: frame i is tick i, so the grid must put
        it at _frame_index(t_ns, fps) = frame 0's + i. InputError names
        the first frame that is not, or a grid below 1 fps; prepare_recording
        reads the rate, so a grid is checked before any replay. A one-frame
        grid is 1 fps, since its replay computes only its cold start.
        """
        times = self.times
        n = len(times)
        if n < 2:
            return 1
        span = times[-1] - times[0]
        fps = round(NS_PER_SEC * (n - 1) / span)
        if fps < 1:
            raise InputError(f"frame grid of {n} frames over {span} ns is below 1 fps")
        tick0 = _frame_index(times[0], fps)
        ticks = map(round, map(truediv, map(mul, times, repeat(fps)), repeat(NS_PER_SEC)))
        for i in compress(count(), map(ne, ticks, count(tick0))):
            raise InputError(
                f"irregular frame grid: frame {i} (t={times[i]} ns) falls on tick "
                f"{_frame_index(times[i], fps)} at {fps} fps, after tick {tick0 + i - 1}"
            )
        return fps


# One decoder for every canonical line: ``json.loads`` would wrap each of a
# long recording's lines in Python-level checks.
_scan_once = json.JSONDecoder().scan_once
_KINDS = {k.value: k for k in MessageKind}


def _parse_line(line: str, lineno: int) -> tuple[str, TimestampNs, MessageKind, dict[str, Any]]:
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:
        # An integer literal longer than sys.get_int_max_str_digits(), or
        # nesting deeper than the decoder's recursion limit.
        raise InputError(f"line {lineno}: invalid JSON ({exc})") from exc
    if not isinstance(row, dict):
        raise InputError(f"line {lineno}: expected a JSON object")
    for key in ("channel", "t_ns", "kind", "payload"):
        if key not in row:
            raise InputError(f"line {lineno}: missing field {key!r}")
    channel = row["channel"]
    if not isinstance(channel, str):
        raise InputError(f"line {lineno}: channel must be a string")
    try:
        kind = _KINDS[row["kind"]]
    except (KeyError, TypeError):
        raise InputError(f"line {lineno}: unknown message kind {row['kind']!r}") from None
    t_ns = row["t_ns"]
    if not is_json_int(t_ns):
        raise InputError(f"line {lineno}: t_ns must be an integer")
    if t_ns < 0:
        raise InputError(f"line {lineno}: negative timestamp {t_ns}")
    if t_ns >= T_NS_END:
        raise InputError(f"line {lineno}: timestamp {t_ns} is not below 2**63")
    payload = row["payload"]
    if not isinstance(payload, dict):
        raise InputError(f"line {lineno}: payload must be a JSON object")
    return channel, t_ns, kind, payload


# A canonical line is _line_head(channel, kind) + payload text + ', "t_ns": T}'.
_PAYLOAD_KEY = ', "payload": '
_T_NS_KEY = ', "t_ns": '


_REF_HEAD = '{"ref": '
_SCENE_KEY = ', "scene": '


def _image_payload(text: str, scenes: dict[str, Any]) -> dict[str, Any] | None:
    """The payload of an image text laid out ``{"ref": R, "scene": S}``, or None.

    R is scanned alone, and S is looked up by its text in ``scenes`` before
    any parse, or scanned and added there, so equal scene texts share one
    scene. Every entry's text scans as exactly one JSON value, so the text
    is exactly that two-key object. Any other layout gives None and is
    scanned whole, its scene unshared.
    """
    if not text.startswith(_REF_HEAD) or text[-1:] != "}":
        return None
    ref, stop = _scan_once(text, len(_REF_HEAD))
    if not text.startswith(_SCENE_KEY, stop):
        return None
    scene_text = text[stop + len(_SCENE_KEY) : -1]
    scene = scenes.get(scene_text)
    if scene is None:
        scene, size = _scan_once(scene_text, 0)
        if size != len(scene_text):
            return None
        scenes[scene_text] = scene
    return {"ref": ref, "scene": scene}


def load_recording(path: str | Path) -> Recording:
    """Parse a JSONL recording file.

    Messages are grouped per channel and stably sorted by timestamp; a warning
    is emitted for out-of-order channels. Exact duplicate timestamps within a
    channel keep the first message in file order and warn.

    On canonical lines (the layout dump_recording_jsonl writes), payloads
    are shared by the rule at RUN_READS: equal payload texts of a kind it
    maps to None load as one shared payload object, parsed once, and equal
    image scene texts as one shared scene, parsed once; any other kind is
    neither looked up nor kept. See Message on why payloads are never
    mutated. The sharing tables live only for the line loop. A line appends
    its time and payload to its channel's columns (a list of payloads until
    the loop ends).

    A canonical line whose head is known (one _line_head built from a parsed
    channel and kind) is not parsed whole: its payload text is looked up, or
    scanned and added, and its time scanned alone. No check is needed: every
    entry's text scans as exactly one JSON object and identical texts parse
    to identical values, so the line is the object ``{"channel", "kind",
    "payload", "t_ns"}`` with no other or repeated key, of the head's kind,
    and gives what _parse_line gives. Any other line is parsed in full and
    checked against its channel's kind, so no error message changes.
    """
    per_channel: dict[str, Channel] = {}
    declared: dict[str, int] = {}
    heads: dict[str, tuple[str | bool | None, Callable[[int], None], Callable[[Any], None]]] = {}
    payloads: dict[str, dict[str, Any]] = {}
    scenes: dict[str, Any] = {}

    def parsed(raw: str, line: str, lineno: int) -> tuple[Channel, TimestampNs, dict[str, Any]]:
        """The line parsed in full, its channel declared, and its head known if it is canonical."""
        channel, t_ns, kind, payload = _parse_line(raw, lineno)
        if channel not in per_channel:
            per_channel[channel], declared[channel] = Channel._of(channel, kind, array("q"), []), lineno
        into = per_channel[channel]
        if into.kind is not kind:
            raise InputError(
                f"line {lineno}: channel {channel!r} is {into.kind.value!r} "
                f"(declared at line {declared[channel]}) but carries {kind.value!r}"
            )
        if line.startswith(head := _line_head(channel, kind)):
            # RUN_READS' rule: None shares the payload by its text, "scene"
            # an image's scene, and a kind it does not map (False) nothing.
            heads[head] = (RUN_READS.get(kind, False), into.times.append, into.payloads.append)
        return into, t_ns, payload

    # Lines end only at \n, \r or \r\n: the file is read line by line, never
    # whole, and a raw U+2028 inside a JSON string stays in its line. It is
    # decoded a chunk at a time, so a byte that is not UTF-8 has no known line.
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw[:-1] if raw[-1:] == "\n" else raw
                # No JSON string holds an unescaped quote, so the first
                # ', "payload": ' of a canonical line ends its head.
                start = line.find(_PAYLOAD_KEY) + len(_PAYLOAD_KEY)
                known, row = heads.get(line[:start]), None
                if known is None:
                    # Only JSON whitespace makes a blank line; json.loads rejects
                    # the rest of what str.strip() drops, and so does _parse_line.
                    if not raw.strip(" \t\n\r"):
                        continue
                    row = parsed(raw, line, lineno)
                    known = heads.get(line[:start])  # a canonical line's head is line[:start]
                end = line.rfind(_T_NS_KEY)
                if known is not None and end >= start and line[-1:] == "}":
                    share, add_time, add_payload = known
                    text = line[start:end]
                    try:
                        t_ns, stop = _scan_once(line, end + len(_T_NS_KEY))
                        payload = (payloads.get(text) if share is None
                                   else _image_payload(text, scenes) if share else None)
                        if payload is None:
                            payload, size = _scan_once(text, 0)
                            if size != len(text) or type(payload) is not dict:
                                payload = None
                            elif share is None:
                                payloads[text] = payload
                    except (StopIteration, ValueError, RecursionError):
                        payload = None
                    if (payload is not None and stop == len(line) - 1
                            and type(t_ns) is int and 0 <= t_ns < T_NS_END):
                        add_time(t_ns)
                        add_payload(payload)
                        continue
                into, t_ns, payload = row or parsed(raw, line, lineno)
                into.times.append(t_ns)
                into.payloads.append(payload)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 ({exc.reason})") from None
    del heads, payloads, scenes
    if not per_channel:
        raise InputError("empty recording")

    for name, ch in per_channel.items():
        times, payloads = ch.times, ch.payloads
        strict = not any(map(ge, times, islice(times, 1, None)))
        if not strict and any(map(gt, times, islice(times, 1, None))):
            order = sorted(range(len(times)), key=times.__getitem__)
            times = array("q", map(times.__getitem__, order))
            payloads = list(map(payloads.__getitem__, order))
            warnings.warn(f"channel {name!r}: out-of-order timestamps were re-sorted", stacklevel=2)
        if not strict and any(map(eq, times, islice(times, 1, None))):
            # Keep each time's first message, the first in file order as the
            # sort is stable: its time differs from the one before (no time is -1).
            kept = list(map(ne, times, chain((-1,), times)))
            warnings.warn(
                f"channel {name!r}: {kept.count(False)} duplicate-timestamp message(s) "
                "dropped, keeping the first in file order",
                stacklevel=2,
            )
            times, payloads = array("q", compress(times, kept)), list(compress(payloads, kept))
        ch.times, ch.payloads = times, tuple(payloads)
    return Recording(per_channel)


# One key-sorted encoder for every line, in place of a new encoder per
# ``json.dumps(..., sort_keys=True)`` call. A message's line is
# ``{"channel": C, "kind": K, "payload": P, "t_ns": T}``: a head fixed by the
# channel (each holds one kind, and its messages carry its name), the
# payload's text and a tail fixed by the timestamp, an int whose text is its repr.
_encode = json.JSONEncoder(sort_keys=True).encode


def _line_head(channel: str, kind: MessageKind) -> str:
    return f'{{"channel": {_encode(channel)}, "kind": {_encode(kind.value)}{_PAYLOAD_KEY}'


_IMAGE_KEYS = frozenset({"ref", "scene"})


def _text_memo(encode: Callable[[Any], str] = _encode) -> Callable[[Any], str]:
    """A function giving an object's JSON text by ``encode``, once per distinct object.

    The memo holds each object it keys on, so an id stays its own while the
    function lives. Nothing in the memo refers back to the function, so
    reference counting frees both, with the collector paused too.
    """
    texts: dict[int, tuple[Any, str]] = {}

    def text(o: Any) -> str:
        hit = texts.get(id(o))
        if hit is None:
            hit = texts[id(o)] = (o, encode(o))
        return hit[1]

    return text


def _payload_texts() -> dict[MessageKind, Callable[[Any], str]]:
    """Per kind, the function giving a payload's JSON text, by the rule at RUN_READS.

    Every text comes from one fileio.one_encoder but an image's ref: the text of an
    image payload whose keys are exactly "ref" and "scene" is put together
    from its ref's text (_encode escapes a string in C) and its scene's kept text.
    """
    encode = one_encoder(sort_keys=True)
    kept = _text_memo(encode)

    def image(o: Any) -> str:
        if type(o) is dict and o.keys() == _IMAGE_KEYS:
            return f'{_REF_HEAD}{_encode(o["ref"])}{_SCENE_KEY}{kept(o["scene"])}}}'
        return encode(o)

    return {k: image if k is MessageKind.IMAGE_REF else kept if k in RUN_READS else encode
            for k in MessageKind}


def recording_jsonl(rec: Recording) -> Iterator[str]:
    """The lines of a recording's JSONL, globally sorted by (t_ns, channel).

    Payload texts follow the rule at RUN_READS (_payload_texts), and each
    channel has one line head.
    """
    texts = _payload_texts()
    rows: list[tuple[int, str, Callable[[Any], str], Any]] = []
    for name in sorted(rec.channels):
        ch = rec.channels[name]
        rows += zip(ch.times, repeat(_line_head(name, ch.kind)), repeat(texts[ch.kind]), ch.payloads)
    # Stable: equal times keep the channel-name order they were added in.
    rows.sort(key=itemgetter(0))
    return (f'{head}{text(p)}, "t_ns": {t}}}\n' for t, head, text, p in rows)


def dump_recording_jsonl(rec: Recording) -> str:
    """Serialize a recording as JSONL: the text of recording_jsonl's lines."""
    return "".join(recording_jsonl(rec))


def aligned_jsonl(ar: AlignedRecording) -> Iterator[str]:
    """The JSONL of the grid as a recording, one chunk per frame.

    Each frame's line for a channel is the line dump_recording_jsonl writes
    for that channel's message at the frame, stamped with the frame's time.
    Frame times strictly increase and every frame holds one message per
    channel, in name order, so frame order then column order is already the
    dump's (t_ns, channel) order: nothing is sorted and the text is never
    whole. Payload texts and line heads follow the dump's own rules, per
    column of a block of frames, and what holds over a run (ar.run_bounds)
    is put together once per run that crosses the block (_run_texts).
    """
    texts, bounds, n = _payload_texts(), ar.run_bounds, len(ar)
    writers = [(_line_head(name, ch.kind), ch.kind, texts[ch.kind], ch.payloads.__getitem__, index)
               for name, (ch, index) in ar.columns.items()]
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        cuts = [a, *bounds[bisect_right(bounds, a) : bisect_left(bounds, b)], b]
        tails = list(map(', "t_ns": {}}}\n'.format, ar.times[a:b]))
        lines = zip(*[_run_texts(*writer, cuts) for writer in writers], repeat(""))  # "": a last tail
        yield from map(str.join, tails, lines)


def _run_texts(head: str, kind: MessageKind, text: Callable[[Any], str],
               payload: Callable[[int], Any], index: array[int], cuts: list[int]) -> Iterator[str]:
    """A column's line prefixes over frames cuts[0] to cuts[-1], each span cuts[k]:cuts[k + 1] in one run.

    A payload of a kind a run keys on whole is one object over a run, so its
    text is made once per span. So is an image's scene: when every image of
    the block is exactly ``{"ref": str, "scene": S}``, each escaped ref goes
    before its span's scene text, made once; else each image goes to text.
    """
    a, spans = cuts[0], list(pairwise(cuts))
    if kind not in RUN_READS:
        return map(head.__add__, map(text, map(payload, index[a : cuts[-1]])))
    if RUN_READS[kind] is None:
        return chain.from_iterable(repeat(head + text(payload(index[s])), e - s) for s, e in spans)
    ps = list(map(payload, index[a : cuts[-1]]))
    if all(map(is_, map(type, ps), repeat(dict))) and all(map(eq, map(dict.keys, ps), repeat(_IMAGE_KEYS))):
        refs = list(map(itemgetter("ref"), ps))
        if all(map(is_, map(type, refs), repeat(str))):
            refs = list(map(json.encoder.encode_basestring_ascii, refs))  # _encode of each str
            scenes = (repeat(text(ps[s - a])[len(_REF_HEAD) + len(refs[s - a]) :], e - s) for s, e in spans)
            return map((head + _REF_HEAD).__add__, map(add, refs, chain.from_iterable(scenes)))
    return map(head.__add__, map(text, ps))


def align_recording(rec: Recording) -> AlignedRecording:
    """Align all channels onto the reference channel's timestamp grid.

    The reference channel is the one with the most messages (ties broken by
    lexicographically smallest name). For each reference timestamp t_i, a
    target channel contributes the last of its messages with timestamp in
    [t_i, t_{i+1}). Reference timestamps where a target has no such message
    receive the target's most recent earlier message. Columns index the
    recorded messages of each channel. Leading reference timestamps for
    which some channel has no message at or before the next reference tick
    are dropped; messages after the final reference timestamp are never
    aligned.
    """
    for name, ch in rec.channels.items():
        if not ch.times:
            raise ValueError(f"channel {name!r} has no messages")
    ref = min(rec.channels.values(), key=lambda c: (-len(c.times), c.name))
    t = ref.times  # time-sorted, so its distinct times are those unlike the next
    grid = array("q", compress(t, map(ne, t, chain(islice(t, 1, None), (None,)))))

    # Slot i covers [grid[i], grid[i + 1]); the last slot ends just after the
    # last grid time. A channel fills slot i with its last message before the
    # slot's end: the slot's own last message, else the one held.
    names = sorted(rec.channels)
    start = 0
    for name in names:
        first = rec.channels[name].times[0]
        if first > grid[-1]:
            raise InputError(f"no alignable frames: channel {name!r} never overlaps the reference")
        # The slots before the one holding the channel's first message lead, empty.
        start = max(start, bisect_right(grid, first, 1) - 1)
    times = grid[start:]  # sliced to size: a grown array keeps 1/16 more room
    del grid
    columns = {name: Column(ch, _slots(ch.times, times)) for name, ch in sorted(rec.channels.items())}
    return AlignedRecording(times, columns)


_BLOCK = 256


def _slots(times: array[int], grid: array[int]) -> array[int]:
    """Per slot of the grid, the index of the last of times before its end, which is after times[0].

    Each block of slot ends bisects a list of just the times it spans:
    bisecting the array would box an int at every probe.
    """
    index, lo = array("q"), 0
    for a in range(1, len(grid), _BLOCK):
        ends = grid[a : a + _BLOCK]
        hi = bisect_left(times, ends[-1], lo)
        index.extend(map(add, map(bisect_left, repeat(times[lo:hi].tolist()), ends), repeat(lo - 1)))
        lo = hi
    index.append(bisect_right(times, grid[-1]) - 1)
    return index[:]
