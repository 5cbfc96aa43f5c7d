"""Recording model, JSONL round-trips, and alignment semantics."""

from __future__ import annotations

import functools
import gc
import json
import operator
import random
import re
import sys
import tracemalloc
import warnings
from bisect import bisect_left, bisect_right
from collections import Counter, OrderedDict

import pytest
from conftest import Frame, frames_of, grid_of, messages, recording_of, tiled
from message_reference import assert_aligns_as_messages, assert_loads_as_messages

from strap.benchmarks import BUILTIN_SCRIPTS, benchmark_script
from strap.fileio import InputError, one_encoder
from strap.recording import (
    Channel,
    Message,
    MessageKind,
    Recording,
    _parse_line,
    _payload_texts,
    align_recording,
    aligned_jsonl,
    check_payloads,
    dump_recording_jsonl,
    load_recording,
)
from strap.schema import encode_recording
from strap.synth import generate_recording


def msg(channel, t, kind=MessageKind.LOCALIZATION, **payload):
    return Message(channel, t, kind, payload or {"n": t})


def chan(name, times, kind=MessageKind.LOCALIZATION):
    return Channel(name, kind, tuple(msg(name, t, kind) for t in times))


def rec(*channels):
    return Recording({c.name: c for c in channels})


# Bad recording lines and the InputError each gives.
LINE_ERRORS = [
    ("{not json", "line 1: invalid JSON"),
    # Not JSON whitespace, so not a blank line.
    ("\x0c", "line 1: invalid JSON"),
    ('["x"]', "line 1: expected a JSON object"),
    ('{"channel": "a", "t_ns": 0, "kind": "localization"}', "missing field 'payload'"),
    (
        '{"channel": "a", "t_ns": 0, "kind": "sonar", "payload": {}}',
        "unknown message kind 'sonar'",
    ),
    (
        '{"channel": "a", "t_ns": 1.5, "kind": "localization", "payload": {}}',
        "t_ns must be an integer",
    ),
    (
        '{"channel": "a", "t_ns": -3, "kind": "localization", "payload": {}}',
        "negative timestamp -3",
    ),
    (
        '{"channel": "a", "t_ns": 0, "kind": "localization", "payload": 7}',
        "payload must be a JSON object",
    ),
    (
        '{"channel": 5, "t_ns": 0, "kind": "localization", "payload": {}}',
        "line 1: channel must be a string",
    ),
    (
        '{"channel": null, "t_ns": 0, "kind": "localization", "payload": {}}',
        "line 1: channel must be a string",
    ),
]


class TestModel:
    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError, match="negative timestamp"):
            Message("a", -1, MessageKind.LOCALIZATION, {})

    def test_channel_rejects_kind_mismatch(self):
        m = msg("a", 0, MessageKind.PLANNING)
        with pytest.raises(ValueError, match="declared"):
            Channel("a", MessageKind.LOCALIZATION, (m,))

    def test_channel_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="decrease"):
            chan("a", [5, 3])

    def test_channel_rejects_a_message_of_another_channel(self):
        # A line's head names its channel, so a channel's messages carry its name.
        with pytest.raises(ValueError) as exc:
            Channel("a", MessageKind.PLANNING, (msg("a", 0, MessageKind.PLANNING), msg("b", 1, MessageKind.PLANNING)))
        assert str(exc.value) == "channel 'a' holds a message of channel 'b'"

    @pytest.mark.parametrize("t", [2**63, 2**64, 1.5])
    def test_channel_holds_64_bit_integer_times(self, t):
        with pytest.raises(ValueError) as exc:
            Channel("a", MessageKind.PLANNING, (msg("a", 0, MessageKind.PLANNING), msg("a", t, MessageKind.PLANNING)))
        assert str(exc.value) == f"channel 'a': timestamp {t!r} is not an integer below 2**63"
        ch = Channel("a", MessageKind.PLANNING, (msg("a", 2**63 - 1, MessageKind.PLANNING),))
        assert list(ch.times) == [2**63 - 1] and ch.message(0).t_ns == 2**63 - 1

    def test_channel_holds_columns_and_builds_messages_on_read(self):
        payloads = [{"n": 0}, {"n": 1}, {"n": 2}]
        ch = Channel("a", MessageKind.PLANNING, [Message("a", t, MessageKind.PLANNING, p) for t, p in zip((0, 5, 5), payloads)])
        assert list(ch.times) == [0, 5, 5] and ch.times.typecode == "q"
        assert type(ch.payloads) is tuple and all(map(operator.is_, ch.payloads, payloads))
        assert ch.message(1) == Message("a", 5, MessageKind.PLANNING, payloads[1])
        assert ch.message(1) is not ch.message(1)

    def test_recording_needs_messages(self):
        with pytest.raises(ValueError, match="no channels"):
            Recording({})
        with pytest.raises(ValueError, match="no messages"):
            Recording({"a": Channel("a", MessageKind.LOCALIZATION, ())})

    def test_recording_key_must_match_channel_name(self):
        with pytest.raises(ValueError, match="does not match"):
            Recording({"b": chan("a", [0])})

    def test_messages_are_slotted(self):
        assert not hasattr(msg("a", 0), "__dict__")
        with pytest.raises(ValueError) as exc:
            Message("a", -1, MessageKind.LOCALIZATION, {})
        assert str(exc.value) == "negative timestamp -1 on channel 'a'"

    def test_equal_messages_compare_and_print_alike(self):
        a, b = (Message("a", 5, MessageKind.PLANNING, {"x": [1]}) for _ in range(2))
        assert a == b and a is not b and a != Message("a", 6, MessageKind.PLANNING, {"x": [1]})
        assert repr(a) == repr(b) == (
            "Message(channel='a', t_ns=5, kind=<MessageKind.PLANNING: 'planning'>, payload={'x': [1]})"
        )


class TestLoadDump:
    def test_round_trip(self, tmp_path):
        r = rec(chan("cam", [0, 100], MessageKind.IMAGE_REF), chan("loc", [0, 100]))
        p = tmp_path / "r.jsonl"
        p.write_text(dump_recording_jsonl(r))
        r2 = load_recording(p)
        assert dump_recording_jsonl(r2) == dump_recording_jsonl(r)

    def test_dump_sorted_by_time_then_channel(self):
        r = rec(chan("z", [0, 50]), chan("a", [0, 70]))
        lines = dump_recording_jsonl(r).splitlines()
        keys = [(l.find('"t_ns": '), l) for l in lines]
        import json

        rows = [json.loads(l) for l in lines]
        assert [(r_["t_ns"], r_["channel"]) for r_ in rows] == [
            (0, "a"),
            (0, "z"),
            (50, "z"),
            (70, "a"),
        ]

    @pytest.mark.parametrize("line,err", LINE_ERRORS)
    def test_line_errors_carry_line_numbers(self, tmp_path, line, err):
        p = tmp_path / "bad.jsonl"
        p.write_text(line + "\n")
        with pytest.raises(InputError, match=err):
            load_recording(p)

    def test_raw_line_separators_stay_inside_their_string(self, tmp_path):
        # JSON allows U+2028, U+2029 and U+0085 raw inside a string; only \n,
        # \r and \r\n end a line.
        note = "a\u2028b\u2029c\x85d"
        line = json.dumps(
            {"channel": "a", "t_ns": 0, "kind": "planning", "payload": {"note": note}},
            ensure_ascii=False,
        )
        p = tmp_path / "sep.jsonl"
        p.write_text(line, encoding="utf-8")
        assert load_recording(p).channels["a"].payloads[0] == {"note": note}
        p.write_text(
            line + '\r\n\n{"channel": "a", "t_ns": 1, "kind": "obstacle", "payload": {}}\n',
            encoding="utf-8",
        )
        with pytest.raises(InputError, match=r"line 3.*declared at line 1"):
            load_recording(p)

    def test_oversized_integer_is_invalid_json(self, tmp_path):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integer literals of any length")
        p = tmp_path / "big.jsonl"
        p.write_text(
            '{"channel": "a", "t_ns": 0, "kind": "planning", "payload": {}}\n'
            '{"channel": "a", "t_ns": ' + "9" * (limit + 1) + ', "kind": "planning", "payload": {}}\n'
        )
        with pytest.raises(InputError, match=r"^line 2: invalid JSON \(Exceeds the limit"):
            load_recording(p)

    def test_deeply_nested_payload_is_invalid_json(self, tmp_path):
        # The second line takes the canonical-line path first, the first does not.
        deep = "[" * 200_000 + "]" * 200_000
        p = tmp_path / "deep.jsonl"
        p.write_text(
            '{"channel": "a", "kind": "planning", "payload": {}, "t_ns": 0}\n'
            '{"channel": "a", "kind": "planning", "payload": {"x": ' + deep + '}, "t_ns": 1}\n'
        )
        with pytest.raises(InputError, match=r"^line 2: invalid JSON \("):
            load_recording(p)
        p.write_text('{"channel": "a", "t_ns": 0, "kind": "planning", "payload": {"x": ' + deep + "}}\n")
        with pytest.raises(InputError, match=r"^line 1: invalid JSON \("):
            load_recording(p)

    def test_timestamp_past_64_bits_is_an_input_error(self, tmp_path):
        p = tmp_path / "big.jsonl"
        last = '{"channel": "a", "kind": "planning", "payload": {}, "t_ns": 9223372036854775807}\n'
        p.write_text('{"channel": "a", "kind": "planning", "payload": {}, "t_ns": 0}\n' + last)
        assert list(load_recording(p).channels["a"].times) == [0, 2**63 - 1]
        # The second line takes the canonical-line path, the first does not.
        for lines, lineno in (([last.replace("807", "808")], 1), ([last, last.replace("807", "808")], 2)):
            p.write_text("".join(lines))
            with pytest.raises(InputError) as exc:
                load_recording(p)
            assert str(exc.value) == f"line {lineno}: timestamp 9223372036854775808 is not below 2**63"

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("\n\n")
        with pytest.raises(InputError, match="empty recording"):
            load_recording(p)

    def test_kind_flip_names_both_lines(self, tmp_path):
        p = tmp_path / "flip.jsonl"
        p.write_text(
            '{"channel": "a", "t_ns": 0, "kind": "planning", "payload": {}}\n'
            '{"channel": "a", "t_ns": 1, "kind": "obstacle", "payload": {}}\n'
        )
        with pytest.raises(InputError, match=r"line 2.*declared at line 1"):
            load_recording(p)

    def test_out_of_order_sorted_with_warning(self, tmp_path):
        p = tmp_path / "ooo.jsonl"
        p.write_text(
            '{"channel": "a", "t_ns": 10, "kind": "localization", "payload": {"n": 10}}\n'
            '{"channel": "a", "t_ns": 5, "kind": "localization", "payload": {"n": 5}}\n'
        )
        with pytest.warns(UserWarning, match="re-sorted"):
            r = load_recording(p)
        assert list(r.channels["a"].times) == [5, 10]

    def test_duplicate_timestamps_keep_first(self, tmp_path):
        p = tmp_path / "dup.jsonl"
        p.write_text(
            '{"channel": "a", "t_ns": 5, "kind": "localization", "payload": {"n": 1}}\n'
            '{"channel": "a", "t_ns": 5, "kind": "localization", "payload": {"n": 2}}\n'
        )
        with pytest.warns(UserWarning, match="duplicate-timestamp"):
            r = load_recording(p)
        assert len(r.channels["a"].times) == 1
        assert r.channels["a"].payloads[0] == {"n": 1}

    @staticmethod
    def _write(p, rows):
        p.write_text("".join(
            json.dumps({"channel": "a", "t_ns": t, "kind": "localization", "payload": {"n": n}}) + "\n"
            for t, n in rows
        ))

    def test_in_order_duplicates_in_a_longer_channel(self, tmp_path):
        p = tmp_path / "dup.jsonl"
        self._write(p, [(0, 0), (5, 1), (5, 2), (9, 3), (12, 4), (12, 5), (12, 6), (20, 7)])
        with pytest.warns(UserWarning) as caught:
            r = load_recording(p)
        assert [str(w.message) for w in caught] == [
            "channel 'a': 3 duplicate-timestamp message(s) dropped, keeping the first in file order"
        ]
        ms = messages(r.channels["a"])
        assert [(m.t_ns, m.payload["n"]) for m in ms] == [(0, 0), (5, 1), (9, 3), (12, 4), (20, 7)]

    def test_out_of_order_duplicates_keep_the_first_in_file_order(self, tmp_path):
        p = tmp_path / "both.jsonl"
        self._write(p, [(10, 0), (5, 1), (10, 2), (0, 3), (5, 4), (5, 5), (7, 6)])
        with pytest.warns(UserWarning) as caught:
            r = load_recording(p)
        assert [str(w.message) for w in caught] == [
            "channel 'a': out-of-order timestamps were re-sorted",
            "channel 'a': 3 duplicate-timestamp message(s) dropped, keeping the first in file order",
        ]
        ms = messages(r.channels["a"])
        assert [(m.t_ns, m.payload["n"]) for m in ms] == [(0, 3), (5, 1), (7, 6), (10, 0)]

    def test_increasing_channel_loads_without_warning(self, tmp_path):
        p = tmp_path / "ok.jsonl"
        self._write(p, [(t, t) for t in (0, 1, 5, 6, 100)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = load_recording(p)
        assert list(r.channels["a"].times) == [0, 1, 5, 6, 100]


class TestLoadAgainstMessageLoader:
    """load_recording and align_recording against the message-holding loader
    and align they replace (message_reference), warnings and errors included."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCRIPTS))
    def test_builtins(self, name, seed, tmp_path):
        r = generate_recording(BUILTIN_SCRIPTS[name](), seed)
        p = tmp_path / "r.jsonl"
        p.write_text(dump_recording_jsonl(r))
        assert_loads_as_messages(p)
        assert_aligns_as_messages(r)
        assert_aligns_as_messages(load_recording(p))

    @pytest.mark.parametrize("line,err", LINE_ERRORS)
    def test_line_errors(self, tmp_path, line, err):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"channel": "a", "kind": "localization", "payload": {}, "t_ns": 0}\n' + line + "\n")
        assert_loads_as_messages(p)

    @pytest.mark.parametrize("seed", range(12))
    def test_unsorted_duplicated_and_mixed_layouts(self, tmp_path, seed):
        # Canonical and other layouts of one channel, shared and image
        # payloads, out-of-order and duplicate times, a kind flip and blank lines.
        rng = random.Random(seed)
        kinds = {"a": "planning", "img": "image_ref", "loc": "localization"}
        scenes = [{"lights": []}, {"lights": [{"hue_deg": 1.0}]}]
        lines = []
        for i in range(rng.randint(1, 40)):
            name = rng.choice(sorted(kinds))
            payload = ({"ref": f"f{i}", "scene": rng.choice(scenes)} if name == "img"
                       else {"x": rng.choice([1, 2.5, None])})
            row = {"channel": name, "kind": kinds[name], "payload": payload, "t_ns": rng.randint(0, 9)}
            canonical = rng.random() < 0.7
            lines.append(json.dumps(row, sort_keys=canonical, separators=None if canonical else (",", ":")))
            if rng.random() < 0.05:
                lines.append(" \t")
        if seed == 11:
            lines.append(json.dumps({"channel": "a", "kind": "obstacle", "payload": {}, "t_ns": 3}, sort_keys=True))
        p = tmp_path / "mixed.jsonl"
        p.write_text("\n".join(lines) + "\n")
        assert_loads_as_messages(p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                r = load_recording(p)
            except InputError:
                return
        assert_aligns_as_messages(r)


_SCENE = '{"lights": [{"hue_deg": 1.0}]}'


def _known_line(payload, tail, channel="a"):
    """A line with the head of channel "a" (planning) or "img" (image_ref), as the dump writes it."""
    kind = "image_ref" if channel == "img" else "planning"
    return f'{{"channel": "{channel}", "kind": "{kind}", "payload": {payload}, "t_ns": {tail}}}'


# Lines read after canonical lines made both heads known, and what loading
# gives: None when the file loads, else a piece of the InputError.
KNOWN_HEAD_CASES = {
    "tail-leading-zero": (_known_line('{"ego_action": "go"}', "007"), "invalid JSON"),
    "tail-minus-zero": (_known_line('{"ego_action": "go"}', "-0"), None),
    "tail-exponent": (_known_line('{"ego_action": "go"}', "1e3"), "t_ns must be an integer"),
    "tail-float": (_known_line('{"ego_action": "go"}', "1.0"), "t_ns must be an integer"),
    "tail-2**63-1": (_known_line('{"ego_action": "go"}', 2**63 - 1), None),
    "tail-2**63": (_known_line('{"ego_action": "go"}', 2**63), "timestamp 9223372036854775808 is not below"),
    "tail-20-digits": (_known_line('{"ego_action": "go"}', "1" * 20), "is not below 2**63"),
    "tail-4301-digits": (_known_line('{"ego_action": "go"}', "1" * 4301), "line 3: "),
    "spaces-after-brace": (_known_line('{"ego_action": "go"}', 5) + "  ", None),
    "cr-after-brace": (_known_line('{"ego_action": "go"}', 5) + "\r", None),
    "space-cr-after-brace": (_known_line('{"ego_action": "go"}', 5) + " \r", None),
    "key-after-payload": (_known_line('{"ego_action": "go"}, "extra": 1', 5), None),
    "t_ns-repeated": (_known_line('{"ego_action": "go"}', '5, "t_ns": 6'), None),
    "kind-repeated": (_known_line('{"ego_action": "go"}', '5, "kind": "obstacle"'), "carries 'obstacle'"),
    "no-t_ns": ('{"channel": "a", "kind": "planning", "payload": {"ego_action": "go"}}', "missing field 't_ns'"),
    "data-after-payload": (_known_line('{"ego_action": "go"} {"x": 1}', 5), "invalid JSON"),
    "payload-not-object": (_known_line('["go"]', 5), "payload must be a JSON object"),
    "image-ref-5": (_known_line(f'{{"ref": 5, "scene": {_SCENE}}}', 5, "img"), None),
    "image-key-after-scene": (_known_line(f'{{"ref": "f5", "scene": {_SCENE}, "x": 0}}', 5, "img"), None),
    "scene-extra-key": (_known_line('{"ref": "f5", "scene": {"lights": [], "x": 0}}', 5, "img"), None),
    "scene-leading-space": (_known_line(f'{{"ref": "f5", "scene":  {_SCENE}}}', 5, "img"), None),
    "scene-then-data": (_known_line(f'{{"ref": "f5", "scene": {_SCENE} 1}}', 5, "img"), "invalid JSON"),
}


class TestInlinedLineLoop:
    """load_recording's line loop against the message loader (message_reference)
    on lines whose head is known: rows, sharing, warnings and errors."""

    @staticmethod
    def _lines(case):
        return [
            _known_line('{"ego_action": "go"}', 0),
            _known_line(f'{{"ref": "f0", "scene": {_SCENE}}}', 0, "img"),
            case,
            # Known texts after the case: do they share with what it left?
            _known_line('{"ego_action": "go"}', 9),
            _known_line('{"ref": "f9", "scene": {"lights": [], "x": 0}}', 9, "img"),
            _known_line(f'{{"ref": "f10", "scene": {_SCENE}}}', 10, "img"),
        ]

    @pytest.mark.parametrize("name", sorted(KNOWN_HEAD_CASES))
    def test_known_head_cases(self, tmp_path, name):
        case, err = KNOWN_HEAD_CASES[name]
        p = tmp_path / "case.jsonl"
        p.write_bytes(("\n".join(self._lines(case)) + "\n").encode())
        assert_loads_as_messages(p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if err is None:
                load_recording(p)
            else:
                with pytest.raises(InputError, match=re.escape(err)):
                    load_recording(p)

    @pytest.mark.parametrize("name", ['q"b', "back\\slash", "caf\u00e9 \u2028", ', "payload": ', ', "t_ns": 1}'])
    def test_escaped_channel_names(self, tmp_path, name):
        # A quote in a name is escaped, so the name never ends the head early.
        shared = {"ego_action": "go"}
        r = rec(Channel(name, MessageKind.PLANNING, (Message(name, t, MessageKind.PLANNING, shared) for t in range(4))))
        p = tmp_path / "esc.jsonl"
        p.write_text(dump_recording_jsonl(r), encoding="utf-8")
        assert_loads_as_messages(p)
        loaded = load_recording(p).channels[name].payloads
        assert all(p is loaded[0] for p in loaded)

    @pytest.mark.parametrize("end", ["\r\n", "\r", "\n"])
    @pytest.mark.parametrize("last", ["", "end"], ids=["no-final-newline", "final-newline"])
    def test_line_ends(self, tmp_path, end, last):
        lines = self._lines(_known_line('{"ego_action": "stop"}', 5))
        p = tmp_path / "ends.jsonl"
        p.write_bytes((end.join(lines) + (end if last else "")).encode())
        assert_loads_as_messages(p)
        lf = tmp_path / "lf.jsonl"
        lf.write_bytes(("\n".join(lines) + "\n").encode())
        assert dump_recording_jsonl(load_recording(p)) == dump_recording_jsonl(load_recording(lf))
        img = messages(load_recording(p).channels["img"])
        assert img[0].payload["scene"] is img[2].payload["scene"]

    # A canonical line's tail rewritten: p is its text through ', "t_ns": ' and t its time.
    TAIL_EDITS = ("{p}01}}\n", "{p}1.0}}\n", "{p}-1}}\n", "{p}%d}}\n" % 2**63, "{p}1e3}}\n",
                  "{p}{t} }}\n", '{p}{t}, "x": 1}}\n', "{p}{t}}}", "{p}{t}}}\r\n", "{p}{t}]\n")

    @pytest.mark.parametrize("name,seed", [("benchmark", 0), ("noisy-prediction", 1)])
    def test_tail_edits_of_repeated_lines(self, tmp_path, name, seed):
        # Seeded fuzz: each case edits one to three lines whose text up to the
        # time two earlier lines had, so the repeated-line lookup meets each.
        lines = dump_recording_jsonl(generate_recording(BUILTIN_SCRIPTS[name](), seed)).splitlines(True)[:360]
        cuts = [line.rindex(', "t_ns": ') + len(', "t_ns": ') for line in lines]
        seen, repeated = Counter(), []
        for k, (line, cut) in enumerate(zip(lines, cuts)):
            if seen[line[:cut]] >= 2:
                repeated.append(k)
            seen[line[:cut]] += 1
        assert len(repeated) > 200
        rng, p = random.Random(seed), tmp_path / "fuzz.jsonl"
        for _ in range(250):
            edited = lines[:]
            for k in rng.sample(repeated, rng.randint(1, 3)):
                edited[k] = rng.choice(self.TAIL_EDITS).format(p=lines[k][: cuts[k]], t=lines[k][cuts[k] : -2])
            text = "".join(edited)
            p.write_bytes((text[:-1] if rng.random() < 0.25 else text).encode())  # the last line's end dropped
            assert_loads_as_messages(p)


def _reference_parse(line, lineno):
    """A plain line parser: ``json.loads`` and ``MessageKind(...)``."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    except ValueError as exc:
        raise InputError(f"line {lineno}: invalid JSON ({exc})") from exc
    if not isinstance(row, dict):
        raise InputError(f"line {lineno}: expected a JSON object")
    for key in ("channel", "t_ns", "kind", "payload"):
        if key not in row:
            raise InputError(f"line {lineno}: missing field {key!r}")
    if not isinstance(row["channel"], str):
        raise InputError(f"line {lineno}: channel must be a string")
    try:
        kind = MessageKind(row["kind"])
    except ValueError:
        raise InputError(f"line {lineno}: unknown message kind {row['kind']!r}") from None
    t_ns = row["t_ns"]
    if not isinstance(t_ns, int) or isinstance(t_ns, bool):
        raise InputError(f"line {lineno}: t_ns must be an integer")
    if t_ns < 0:
        raise InputError(f"line {lineno}: negative timestamp {t_ns}")
    if t_ns >= 2**63:
        raise InputError(f"line {lineno}: timestamp {t_ns} is not below 2**63")
    if not isinstance(row["payload"], dict):
        raise InputError(f"line {lineno}: payload must be a JSON object")
    return row["channel"], t_ns, kind, row["payload"]


def _outcome(parse, line):
    try:
        channel, t_ns, kind, payload = parse(line, 7)
    except Exception as exc:  # the error's type and text are the outcome
        return type(exc).__name__, str(exc)
    # json.dumps keeps NaN payloads comparable.
    return channel, t_ns, kind, json.dumps(payload, sort_keys=True)


_VALID = '{"channel": "loc", "t_ns": 5, "kind": "localization", "payload": {"x": 1.5, "s": "\\u00e9\u00e9"}}'


class TestParseLineDifferential:
    """``_parse_line`` against a plain ``json.loads`` and ``MessageKind(...)`` parser."""

    @pytest.mark.parametrize(
        "line",
        [
            _VALID,
            _VALID + "\n",
            " \t\r" + _VALID + " \r\n",
            "\x0c" + _VALID,
            "\u00a0" + _VALID,
            "\u2028" + _VALID,
            _VALID + "\x0c",
            _VALID + "\u00a0",
            "\ufeff" + _VALID,
            _VALID + " x",
            _VALID + _VALID,
            _VALID + " " + _VALID,
            "",
            " \t",
            "{",
            "1",
            "[]",
            "null",
            '"text"',
            '{"channel": "a", "t_ns": 0, "kind": "planning", "payload": {"v": NaN, "w": -Infinity, "z": Infinity}}',
            '{"channel": "a", "t_ns": 0, "kind": ["planning"], "payload": {}}',
            '{"channel": "a", "t_ns": 0, "kind": {"k": 1}, "payload": {}}',
            '{"channel": "a", "t_ns": 0, "kind": 3, "payload": {}}',
            '{"channel": "a", "t_ns": 0, "kind": "PLANNING", "payload": {}}',
            '{"channel": "a", "t_ns": 0, "kind": null, "payload": {}}',
            '{"channel": 5, "t_ns": 0, "kind": "planning", "payload": {}}',
            '{"channel": ["a"], "t_ns": 0, "kind": "planning", "payload": {}}',
            '{"channel": "a", "t_ns": true, "kind": "planning", "payload": {}}',
            '{"channel": "a", "t_ns": -1, "kind": "planning", "payload": {}}',
            '{"channel": "a", "t_ns": 9223372036854775807, "kind": "planning", "payload": {}}',
            '{"channel": "a", "t_ns": 9223372036854775808, "kind": "planning", "payload": {}}',
            '{"channel": "a", "t_ns": 0, "kind": "planning", "payload": []}',
            '{"channel": "a", "t_ns": 0, "kind": "planning"}',
            '{"channel": "a", "t_ns": 0, "kind": "planning", "payload": {}, "kind": "obstacle"}',
            '{"channel": "a", "t_ns": 0, "kind": "planning", "payload": {"s": "a\tb"}}',
            '{"channel": "a", "t_ns": 0, "kind": "planning", "payload": {"s": "\u2028"}}',
            '{"channel": "a", "t_ns": ' + "9" * 5000 + ', "kind": "planning", "payload": {}}',
        ],
    )
    def test_same_message_or_error(self, line):
        assert _outcome(_parse_line, line) == _outcome(_reference_parse, line)

    def test_every_line_of_a_builtin(self, benchmark_recording):
        text = dump_recording_jsonl(benchmark_recording)
        for lineno, line in enumerate(text.splitlines(), 1):
            assert _parse_line(line, lineno) == _reference_parse(line, lineno)


def _reference_jsonl(rows):
    """One ``json.dumps(..., sort_keys=True)`` per (t_ns, message): the writer the line heads replace."""
    return "".join(
        json.dumps(
            {"channel": m.channel, "t_ns": t, "kind": m.kind.value, "payload": m.payload},
            sort_keys=True,
        )
        + "\n"
        for t, m in rows
    )


def _aligned_rows(ar):
    """Each frame's messages in channel-name order, stamped with the frame time."""
    return [(f.t_ns, f.messages[n]) for f in frames_of(ar) for n in sorted(ar.columns)]


def _hand_built():
    """Shared payload objects, non-ASCII and U+2028 text, floats, and equal
    payloads with other texts."""
    shared = {"note": "caf\u00e9 \u2028 \u4e2d", "v": [0.1, -0.0, 1e300, float("nan")]}
    other = {"x": 2.5, "y": float("-inf")}
    frames = []
    for i, t in enumerate([0, 10, 20, 30, 40]):
        frames.append(
            Frame(
                t,
                {
                    "plan": Message("plan", t, MessageKind.PLANNING, shared),
                    "a": Message("a", t, MessageKind.LOCALIZATION, shared if i % 2 else other),
                    "\u00fcber": Message("\u00fcber", t, MessageKind.IMAGE_REF, {"ref": f"f{i}"}),
                    # Equal to the previous frame's payload, but not the same text.
                    "n": Message("n", t, MessageKind.PREDICTION, {"n": [1, 1.0, True, 1, 1][i]}),
                },
            )
        )
    return grid_of(frames)


class TestJsonlDifferential:
    """The line-head writers against one ``json.dumps`` per message."""

    @pytest.mark.parametrize(
        "fixture", ["benchmark_recording", "noisy_recording", "rare_recording"]
    )
    def test_builtins(self, fixture, request):
        r = request.getfixturevalue(fixture)
        rows = sorted(
            ((m.t_ns, m) for ch in r.channels.values() for m in messages(ch)),
            key=lambda row: (row[0], row[1].channel),
        )
        assert dump_recording_jsonl(r) == _reference_jsonl(rows)
        ar = align_recording(r)
        assert "".join(aligned_jsonl(ar)) == _reference_jsonl(_aligned_rows(ar))

    def test_hand_built_recording(self):
        ar = _hand_built()
        expected = _reference_jsonl(_aligned_rows(ar))
        assert "".join(aligned_jsonl(ar)) == expected
        assert '"channel": "plan", "kind": "planning"' in expected

    def test_image_payloads(self):
        """Image payloads, whose texts are put together from a ref and a shared scene."""
        scene = {"lights": [{"hue_deg": 10.0, "tilt_deg": 0.0}], "actors": []}
        unordered = dict(reversed(list({"b": 1, "a": [0.5, None]}.items())))
        payloads = [
            {"ref": "f0", "scene": scene},
            {"scene": scene, "ref": "f1"},  # the same keys in the other order
            {"ref": "f2", "scene": scene, "extra": 0},
            {"ref": "f3"},
            {"scene": scene},
            {"ref": 4, "scene": scene},
            {"ref": -1.5e300, "scene": scene},
            {"ref": None, "scene": None},
            {"ref": unordered, "scene": unordered},
            {"ref": 'café "\\  \n', "scene": scene},
            {"ref": '", "scene": {}', "scene": [scene, scene]},
            {"ref": "nested", "scene": {"ref": "inner", "scene": scene}},
            OrderedDict([("scene", scene), ("ref", "ordered")]),
        ]
        twice = {"ref": "twice", "scene": scene}
        payloads += [twice, twice]
        messages = [Message("img", t, MessageKind.IMAGE_REF, p) for t, p in enumerate(payloads)]
        r = rec(Channel("img", MessageKind.IMAGE_REF, tuple(messages)))
        assert dump_recording_jsonl(r) == _reference_jsonl((m.t_ns, m) for m in messages)
        ar = align_recording(r)
        assert "".join(aligned_jsonl(ar)) == _reference_jsonl(_aligned_rows(ar))

    @pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
    def test_payload_texts_on_odd_values(self, c_encoder, monkeypatch):
        """Each kind's text function, and both writers, against json.dumps on
        values whose texts are easy to get wrong; without the C encoder too."""
        if not c_encoder:
            monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        fallback = getattr(one_encoder(sort_keys=True), "__func__", None) is json.JSONEncoder.encode
        assert fallback is (not c_encoder or json.encoder.c_make_encoder is None)
        odd = [float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324, 10**300,
               -(2**63), 2**64, True, None, "caf\u00e9 \u4e2d \U0001f600", 'q"b\\s/\n\t\x00\x1f\u2028',
               "", [], {}]
        payloads = [{"v": v, "nested": [v, {"k": v}]} for v in odd]
        payloads.append({"\u00e9": 1, "b": {"z": 0, "a": 1}, "B": [2.5, "x"], "a": -0.0})
        payloads += [{"ref": v, "scene": p} for v, p in zip(odd, payloads)]
        texts = _payload_texts()
        for kind, text in texts.items():
            for p in payloads:
                assert text(p) == json.dumps(p, sort_keys=True), (kind, p)
        for kind in MessageKind:
            messages = [Message("c", t, kind, p) for t, p in enumerate(payloads)]
            r = rec(Channel("c", kind, tuple(messages)))
            assert dump_recording_jsonl(r) == _reference_jsonl((m.t_ns, m) for m in messages)
            assert "".join(aligned_jsonl(align_recording(r))) == dump_recording_jsonl(r)

    def test_hand_built_unaligned_recording(self):
        shared = {"s": "\u2028\u00e9", "f": 0.30000000000000004}
        r = rec(
            Channel("b", MessageKind.PLANNING, tuple(Message("b", t, MessageKind.PLANNING, shared) for t in (0, 5))),
            Channel("a", MessageKind.OBSTACLE, (Message("a", 5, MessageKind.OBSTACLE, shared),)),
        )
        rows = [r.channels["b"].message(0), r.channels["a"].message(0), r.channels["b"].message(1)]
        assert dump_recording_jsonl(r) == _reference_jsonl((m.t_ns, m) for m in rows)



class TestAlignedJsonl:
    """The streamed aligned dump against the sort-everything dump it replaces."""

    @pytest.mark.parametrize(
        "fixture", ["benchmark_recording", "noisy_recording", "rare_recording"]
    )
    def test_equals_sorted_dump_on_builtins(self, fixture, request):
        ar = align_recording(request.getfixturevalue(fixture))
        chunks = list(aligned_jsonl(ar))
        assert len(chunks) == len(ar)
        assert "".join(chunks) == dump_recording_jsonl(recording_of(frames_of(ar)))

    def test_equals_sorted_dump_for_unsorted_channel_names(self):
        r = rec(chan("z", [0, 10, 20]), chan("a", [0, 5, 15, 20]), chan("m", [3, 10]))
        ar = align_recording(r)
        expected = dump_recording_jsonl(recording_of(frames_of(ar)))
        assert "".join(aligned_jsonl(ar)) == expected
        assert [json.loads(l)["channel"] for l in expected.splitlines()[:3]] == ["a", "m", "z"]

    @staticmethod
    def _grid(columns, n=600):
        """A grid of n frames: each column a (name, kind, payload of frame i)."""
        return align_recording(Recording({
            name: Channel(name, kind, tuple(Message(name, i * 10, kind, payload(i)) for i in range(n)))
            for name, kind, payload in columns
        }))

    @staticmethod
    def _assert_dump(ar, runs):
        chunks = list(aligned_jsonl(ar))
        assert len(chunks) == len(ar)
        assert "".join(chunks) == dump_recording_jsonl(recording_of(frames_of(ar)))
        assert len(ar.run_bounds) - 1 == runs

    _SCENE = {"lights": [{"hue_deg": 10.0, "brightness": 0.5}], "statics": [{"name": "caf\u00e9"}]}
    _PLAN = {"ego_action": "cruise", "stop_cause": None}

    def test_one_run(self):
        ar = self._grid([
            ("plan", MessageKind.PLANNING, lambda i: self._PLAN),
            ("img", MessageKind.IMAGE_REF, lambda i: {"ref": f"f{i}\u00e9\"", "scene": self._SCENE}),
            ("loc", MessageKind.LOCALIZATION, lambda i: {"x": i * 0.1}),
        ])
        self._assert_dump(ar, runs=1)

    def test_every_frame_its_own_run(self):
        # Unshared copies: equal payloads, but each frame's its own object.
        ar = self._grid([
            ("plan", MessageKind.PLANNING, lambda i: dict(self._PLAN)),
            ("img", MessageKind.IMAGE_REF, lambda i: {"ref": f"f{i}", "scene": json.loads(json.dumps(self._SCENE))}),
        ])
        self._assert_dump(ar, runs=600)

    def test_two_channels_of_one_kind(self):
        other, bare = {"ego_action": "stop", "stop_cause": "light"}, {}
        ar = self._grid([
            ("plan_a", MessageKind.PLANNING, lambda i: self._PLAN if i % 200 < 150 else other),
            ("plan_b", MessageKind.PLANNING, lambda i: other if i % 70 < 35 else self._PLAN),
            ("cam_a", MessageKind.IMAGE_REF, lambda i: {"ref": f"a{i}", "scene": self._SCENE}),
            ("cam_b", MessageKind.IMAGE_REF, lambda i: {"ref": f"b{i}", "scene": self._SCENE if i < 300 else bare}),
        ])
        starts = {i for i in range(1, 600) if i == 300 or (i % 200 < 150) != ((i - 1) % 200 < 150)
                  or (i % 70 < 35) != ((i - 1) % 70 < 35)}
        self._assert_dump(ar, runs=1 + len(starts))

    @pytest.mark.parametrize(
        "odd",
        [
            {"ref": "f", "scene": _SCENE, "extra": 0},
            {"ref": 5, "scene": _SCENE},
            {"ref": None, "scene": _SCENE},
            {"scene": _SCENE},
            OrderedDict([("scene", _SCENE), ("ref", "ordered")]),
        ],
        ids=["extra-key", "int-ref", "null-ref", "no-ref", "dict-subclass"],
    )
    def test_odd_image_in_the_middle_of_a_run(self, odd):
        ar = self._grid([
            ("plan", MessageKind.PLANNING, lambda i: self._PLAN),
            ("img", MessageKind.IMAGE_REF, lambda i: odd if i in (300, 301, 599) else {"ref": f"f{i}", "scene": self._SCENE}),
        ])
        self._assert_dump(ar, runs=1)

    @pytest.mark.parametrize("shift", [0, 66_666_666, 7 * 66_666_666, 1_697_000_000_123_456_789])
    def test_time_shifted_grids(self, benchmark_recording, shift):
        shifted = Recording({
            name: Channel(name, ch.kind, tuple(Message(name, m.t_ns + shift, m.kind, m.payload) for m in messages(ch)))
            for name, ch in benchmark_recording.channels.items()
        })
        ar = align_recording(shifted)
        self._assert_dump(ar, runs=len(align_recording(benchmark_recording).run_bounds) - 1)


def _row(m):
    """A Message is built on each read, so its identity says nothing: its
    payload's identity is what runs and memos key on."""
    return m.channel, m.t_ns, m.kind, id(m.payload)


def _walked_alignment(r):
    """Reference: each channel walked message by message with a forward slot
    pointer, empty slots filled with the held message; (grid, columns) or
    the InputError text."""
    ref = min(r.channels.values(), key=lambda c: (-len(c.times), c.name))
    grid = sorted(set(ref.times))
    columns, start = {}, 0
    for name in sorted(r.channels):
        slots, held, i = [None] * len(grid), None, 0
        for m in messages(r.channels[name]):
            if m.t_ns < grid[0]:
                held = m
                continue
            if m.t_ns > grid[-1]:
                break
            while i + 1 < len(grid) and grid[i + 1] <= m.t_ns:
                i += 1
            slots[i] = m
        for i, m in enumerate(slots):
            slots[i] = held = m or held
        first = next((i for i, m in enumerate(slots) if m is not None), None)
        if first is None:
            return f"no alignable frames: channel {name!r} never overlaps the reference"
        start = max(start, first)
        columns[name] = slots
    return grid[start:], {name: slots[start:] for name, slots in columns.items()}


class TestAlignment:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_the_message_walk(self, seed):
        rng = random.Random(seed)
        channels = []
        for c in range(rng.randint(1, 4)):
            times = sorted(rng.choices(range(rng.randint(1, 60)), k=rng.randint(1, 12)))
            channels.append(Channel(f"c{c}", MessageKind.LOCALIZATION,
                                    tuple(msg(f"c{c}", t, n=i) for i, t in enumerate(times))))
        r = rec(*channels)
        expected = _walked_alignment(r)
        if isinstance(expected, str):
            with pytest.raises(InputError) as exc:
                align_recording(r)
            assert str(exc.value) == expected
            return
        ar = align_recording(r)
        grid, columns = expected
        assert list(ar.times) == grid
        assert tuple(ar.columns) == tuple(columns)
        for name, slots in columns.items():
            assert [_row(f.messages[name]) for f in frames_of(ar)] == list(map(_row, slots))

    def test_reference_is_largest_channel(self):
        ar = align_recording(rec(chan("cam", [0, 100, 200]), chan("det", [0, 100])))
        assert list(ar.times) == [0, 100, 200]

    def test_reference_tie_breaks_on_name(self):
        # "a" and "b" both have 2 messages; grid must come from "a".
        ar = align_recording(rec(chan("b", [5, 105]), chan("a", [0, 100])))
        assert list(ar.times) == [0, 100]

    def test_bucket_keeps_last_and_gaps_fill_forward(self):
        # Hand-walked: det slots for grid [0,100,200,300] are
        # [m50, m140, fill(m140), fill(m140)]; m410 is past the grid.
        r = rec(chan("cam", [0, 100, 200, 300]), chan("det", [50, 140, 410]))
        frames = frames_of(align_recording(r))
        assert [f.messages["det"].payload["n"] for f in frames] == [50, 140, 140, 140]
        # Frames hold the recorded messages, forward-filled slots included.
        m50, m140, _ = map(_row, messages(r.channels["det"]))
        assert [_row(f.messages["det"]) for f in frames] == [m50, m140, m140, m140]

    @pytest.mark.parametrize(
        "fixture", ["benchmark_recording", "noisy_recording", "rare_recording"]
    )
    def test_frames_hold_the_recorded_messages(self, fixture, request):
        # Bucket rule restated per frame: the last message before the next
        # grid time (at or before the final grid time for the last frame).
        r = request.getfixturevalue(fixture)
        frames = frames_of(align_recording(r))
        grid = [f.t_ns for f in frames]
        for name, ch in r.channels.items():
            times = list(ch.times)
            for i, f in enumerate(frames):
                j = bisect_left(times, grid[i + 1]) if i + 1 < len(grid) else bisect_right(times, grid[i])
                assert _row(f.messages[name]) == _row(ch.message(j - 1))

    def test_two_in_bucket_keeps_last(self):
        # Tie on message count, so "cam" wins the reference role by name.
        ar = align_recording(rec(chan("cam", [0, 100, 200]), chan("det", [10, 60, 110])))
        assert [f.messages["det"].payload["n"] for f in frames_of(ar)] == [60, 110, 110]

    def test_message_before_grid_seeds_fill(self):
        ar = align_recording(rec(chan("cam", [100, 200]), chan("det", [40])))
        assert [f.messages["det"].payload["n"] for f in frames_of(ar)] == [40, 40]

    def test_leading_frames_dropped_until_covered(self):
        # det first appears in the [200, 300) bucket, so frames 0 and 100 go.
        ar = align_recording(
            rec(chan("cam", [0, 100, 200, 300]), chan("det", [210]))
        )
        assert list(ar.times) == [200, 300]

    def test_never_overlapping_channel_errors(self):
        with pytest.raises(InputError, match="never overlaps"):
            align_recording(rec(chan("cam", [0, 100]), chan("det", [500, 600])))

    def test_alignment_is_idempotent(self):
        ar = align_recording(
            rec(chan("cam", [0, 100, 200, 300]), chan("det", [50, 140]), chan("loc", [0, 150, 290]))
        )
        again = align_recording(recording_of(frames_of(ar)))
        assert again.times == ar.times
        for f1, f2 in zip(frames_of(ar), frames_of(again)):
            assert {n: m.payload for n, m in f1.messages.items()} == {
                n: m.payload for n, m in f2.messages.items()
            }

    def test_aligned_grid_lists_channels_by_name(self):
        ar = align_recording(rec(chan("z", [0, 10]), chan("a", [0, 10]), chan("m", [0, 10])))
        assert tuple(ar.columns) == ("a", "m", "z")
        assert list(ar.kinds) == list(ar.row(1)) == ["a", "m", "z"]

    def test_a_row_is_its_recorded_messages(self):
        # det's message at 50 fills frame 0; at 140, frames 1 and 2.
        r = rec(chan("cam", [0, 100, 200]), chan("det", [50, 140], MessageKind.PLANNING))
        ar = align_recording(r)
        assert ar.kinds == {"cam": MessageKind.LOCALIZATION, "det": MessageKind.PLANNING}
        for i, f in enumerate(frames_of(ar)):
            assert ar.row(i) == f.messages
        assert ar.row(2)["det"] == Message("det", 140, MessageKind.PLANNING, {"n": 140})


def _ranged(ar):
    """The channels whose message index goes up by one a slot, the last slot aside:
    those align_recording indexes by a range."""
    return {name for name, (_, index) in ar.columns.items()
            if list(index[:-1]) == list(range(index[0], index[0] + len(index) - 1))}


_EVERY_100 = range(10, 800, 100)  # one message in each slot of cam's grid, 0 to 700

# Channels beside cam (messages at 0, 100, ..., 700, no fewer than any other's), and
# the channels indexed by a range.
RANGE_CASES = {
    "one-a-slot": ({"det": _EVERY_100}, {"cam", "det"}),
    "at-each-slot-start": ({"det": range(0, 800, 100)}, {"cam", "det"}),
    "past-the-grid": ({"det": range(110, 900, 100)}, {"cam", "det"}),
    "held-from-before": ({"det": [5, *_EVERY_100[1:]]}, {"cam", "det"}),
    "ends-early": ({"det": _EVERY_100[:4]}, {"cam"}),
    "starts-late": ({"det": _EVERY_100[3:]}, {"cam", "det"}),
    "two-in-one-slot": ({"det": sorted([*_EVERY_100[:-1], 150])}, {"cam"}),
    "two-at-one-time": ({"det": sorted([*_EVERY_100[:-1], 110])}, {"cam"}),
    "held-gap": ({"det": [t for t in _EVERY_100 if t != 310]}, {"cam"}),
    "two-in-three": ({"det": [t for t in _EVERY_100 if t // 100 % 3 != 2]}, {"cam"}),
    "last-slot-only-later": ({"det": [*_EVERY_100[:-1], 705]}, {"cam", "det"}),
    "both-kinds": ({"det": _EVERY_100, "gap": [t for t in _EVERY_100 if t != 310]}, {"cam", "det"}),
}


class TestRangeSlots:
    """align_recording indexes a channel with one message a slot by a range, and
    bisects any other: both against the message align (message_reference)."""

    @pytest.mark.parametrize("case", RANGE_CASES)
    def test_hand_built(self, case):
        others, ranged = RANGE_CASES[case]
        r = rec(chan("cam", range(0, 800, 100)), *(chan(name, times) for name, times in others.items()))
        assert_aligns_as_messages(r)
        ar = align_recording(r)
        assert ar.times == r.channels["cam"].times[-len(ar):]
        assert _ranged(ar) == ranged

    def test_one_frame_grid(self):
        r = rec(chan("cam", [50]), chan("det", [10]))
        assert_aligns_as_messages(r)
        assert list(align_recording(r).columns["det"].index) == [0]

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCRIPTS))
    def test_builtins(self, name, seed, tmp_path):
        # Prediction publishes on two frames in three; every other channel on each.
        r = generate_recording(BUILTIN_SCRIPTS[name](), seed)
        p = tmp_path / "r.jsonl"
        p.write_text(dump_recording_jsonl(r))
        for got in (r, load_recording(p)):
            assert_aligns_as_messages(got)
            assert _ranged(align_recording(got)) == set(got.channels) - {"prediction"}

    @pytest.mark.parametrize("shift", [66_666_666, 7 * 66_666_666, 1_697_000_000_123_456_789])
    def test_time_shifted_grids(self, benchmark_recording, shift):
        shifted = rec(*(Channel(name, ch.kind, (Message(name, t + shift, ch.kind, p) for t, p in zip(ch.times, ch.payloads)))
                        for name, ch in benchmark_recording.channels.items()))
        assert_aligns_as_messages(shifted)
        assert _ranged(align_recording(shifted)) == set(shifted.channels) - {"prediction"}


@pytest.fixture(scope="module")
def tiled_recording():
    """A function of n: the seed-0 benchmark scenes tiled n times (10: the long-suite input)."""

    @functools.cache
    def recording(tiles):
        return generate_recording(tiled(benchmark_script(), tiles), 0)

    return recording


class TestLiveMemory:
    """Load, align and the writers hold little beyond what they return."""

    def test_writers_build_no_cycles(self, benchmark_recording):
        ar = align_recording(benchmark_recording)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for _ in aligned_jsonl(ar):
                pass
            dump_recording_jsonl(benchmark_recording)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("tiles", [1, 10])
    def test_align_transient_memory_is_at_most_half_what_it_keeps(self, tiles, tiled_recording):
        recording = tiled_recording(tiles)
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            ar = align_recording(recording)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert len(ar) == 2400 * tiles
        assert peak - kept <= kept / 2

    def test_aligned_grid_keeps_no_per_frame_objects(self, tiled_recording):
        # The 10x-tiled benchmark (the long-suite input): the grid holds one
        # 8-byte time per frame and one 8-byte message index per channel, and
        # no object per frame.
        recording = tiled_recording(10)
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            ar = align_recording(recording)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert len(ar) == 24000 and len(ar.columns) == 6
        assert kept <= 8 * (len(ar.columns) + 1) * len(ar) + 16 * 1024

    def test_a_loaded_recording_keeps_two_words_a_message_beyond_its_payloads(self, benchmark_recording, tmp_path):
        # A time and a payload reference per message; one Message and one
        # int per line would take about 100 bytes.
        p = tmp_path / "r.jsonl"
        p.write_text(dump_recording_jsonl(benchmark_recording))
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            r = load_recording(p)
            with_payloads = tracemalloc.get_traced_memory()[0]
            payloads = [list(ch.payloads) for ch in r.channels.values()]
            messages = r.message_count()
            del r
            only_payloads = tracemalloc.get_traced_memory()[0] - sum(map(sys.getsizeof, payloads))
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert messages == 13600 and len(payloads) == 6
        assert with_payloads - only_payloads <= 18 * messages


class TestPayloadFormats:
    @pytest.mark.parametrize(
        "name", ["benchmark_recording", "noisy_recording", "rare_recording"]
    )
    def test_builtin_recordings_conform(self, name, request):
        # A replay or encoding failure on these frames is a strap bug, never an input error.
        ar = align_recording(request.getfixturevalue(name))
        for i in range(len(ar)):
            check_payloads(ar.row(i))

    @pytest.mark.parametrize(
        "kind,payload,err",
        [
            (MessageKind.PLANNING, [], "expected an object, got []"),
            (MessageKind.PLANNING, {"ego_action": 5}, "ego_action must be a string, got 5"),
            (MessageKind.LOCALIZATION, {"x": True}, "x must be a number, got True"),
            (MessageKind.LOCALIZATION, {"x": 10**400}, "x must be a number in float range, got 1" + "0" * 76 + "..."),
            (MessageKind.OBSTACLE, {"obstacles": [{"actor": "vehicle"}]},
             "obstacles[0].speed_mps is missing"),
            (MessageKind.OBSTACLE,
             {"obstacles": [{"actor": "vehicle", "speed_mps": 1, "lateral_mps": 0.5,
                             "on_crosswalk": "yes"}]},
             "obstacles[0].on_crosswalk must be true or false, got 'yes'"),
            (MessageKind.PREDICTION, {"tracks": {"actor": "vehicle"}}, "tracks must be a list, got {'actor': 'vehicle'}"),
        ],
    )
    def test_first_departure_is_named(self, kind, payload, err):
        with pytest.raises(InputError) as exc:
            check_payloads({"ch": Message("ch", 7, kind, payload)})
        assert str(exc.value) == f"{kind.value} payload on channel 'ch' at t_ns 7: {err}"

    def test_each_distinct_scene_is_checked_once_after_encoding(self, benchmark_recording, registry):
        ar = align_recording(benchmark_recording)
        ch, index = ar.columns["image"]
        scenes = {id(ch.payloads[k]["scene"]) for k in index}
        assert 1 < len(scenes) < len(ar) // 10
        encode_recording(ar, registry)
        assert ar.__dict__["scenes_checked"] == len(scenes)

    def test_a_bad_scene_mid_recording_names_its_image_message(self, benchmark_recording, registry):
        img = benchmark_recording.channels["image"]
        k = len(img.times) // 2
        payloads = list(img.payloads)
        payloads[k] = {**payloads[k], "scene": {"statics": [{"name": "cone"}]}}
        channels = {**benchmark_recording.channels,
                    "image": Channel._of("image", img.kind, img.times, tuple(payloads))}
        with pytest.raises(InputError) as exc:
            encode_recording(align_recording(Recording(channels)), registry)
        assert str(exc.value) == (
            f"image_ref payload on channel 'image' at t_ns {img.times[k]}: "
            "scene.statics[0].confidence is missing"
        )

    def test_absent_and_null_optional_fields_conform(self):
        check_payloads({
            "tl": Message("tl", 0, MessageKind.TRAFFIC_LIGHT, {"lights": None}),
            "pl": Message("pl", 0, MessageKind.PLANNING, {"ego_action": "stop", "stop_cause": None}),
            "pr": Message("pr", 0, MessageKind.PREDICTION, {}),
        })
