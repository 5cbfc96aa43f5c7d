"""Shared payloads and the compute-once memos against their unshared reference.

load_recording gives equal payload texts of the kinds a run keys on one
object (an image's scene likewise), and the encoder and replay memos key on payload identity. Each
test compares the shared path with what a plain parse or a deep copy,
where nothing is shared and no memo hits, gives.
"""

from __future__ import annotations

import copy
import json

import pytest
from conftest import Frame, comparable, frames_of, grid_of, messages, swapped_vectors
from message_reference import assert_loads_as_messages

from strap.benchmarks import BUILTIN_MUTANTS, BUILTIN_SCRIPTS
from strap.cli import main
from strap.recording import (
    MessageKind,
    RecordingLoadError,
    _parse_line,
    align_recording,
    dump_recording_jsonl,
    load_recording,
)
from strap.schema import MODULE_KINDS, FrameEncoder, ModuleFilter, encode_recording
from strap.synth import (
    _frame_classes,
    apply_mutant,
    generate_recording,
    make_module,
    prepare_recording,
    replay_segment,
)


def _dumped(payload):
    # Type-exact: 1, 1.0 and true, or 0 and -0.0, compare equal as values.
    return json.dumps(payload, sort_keys=True)


def _messages(rec):
    return {
        name: [(m.t_ns, m.kind, _dumped(m.payload)) for m in messages(ch)]
        for name, ch in rec.channels.items()
    }


def _parsed(path):
    """One plain json.loads per non-blank line, grouped by channel in file order."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                out.setdefault(row["channel"], []).append(
                    (row["t_ns"], MessageKind(row["kind"]), _dumped(row["payload"]))
                )
    return out


def _line(channel, kind, payload, t_ns):
    """A line as dump_recording_jsonl writes it, around a payload's text."""
    return f'{{"channel": "{channel}", "kind": "{kind}", "payload": {payload}, "t_ns": {t_ns}}}'


SCENE = '{"lights": [1]}'
REF = 'x", "scene": {"lights": [2]}'
# (line, ending) pairs; timestamps increase per channel, so loading keeps file order.
LINES = [
    (_line("tl", "traffic_light", '{"lights": []}', 0), "\n"),
    (_line("tl", "traffic_light", '{"lights": []}', 1), "\r\n"),
    (_line("tl", "traffic_light", '{"lights": []}', 2), "\n"),
    # Reordered keys.
    ('{"t_ns": 3, "payload": {"lights": []}, "kind": "traffic_light", "channel": "tl"}', "\n"),
    ('{"kind": "traffic_light", "channel": "tl", "t_ns": 4, "payload": {"lights": []}}', "\r\n"),
    # Extra or missing whitespace, inside and around the payload.
    ('{"channel":"tl","kind":"traffic_light","payload":{"lights":[]},"t_ns":5}', "\n"),
    (_line("tl", "traffic_light", '{"lights": [ ]}', 6), "\n"),
    (_line("tl", "traffic_light", ' {"lights": []} ', 7), "\n"),
    (_line("tl", "traffic_light", '{"lights": []}', 8) + "  \t", "\n"),
    ("  " + _line("tl", "traffic_light", '{"lights": []}', 9), "\r\n"),
    (_line("tl", "traffic_light", '{"lights": []}', 10).replace('"t_ns": ', '"t_ns":  '), "\n"),
    # Duplicate keys: inside the payload, and around it at the top level.
    (_line("pl", "planning", '{"ego_action": "stop"}', 0), "\n"),
    (_line("pl", "planning", '{"ego_action": "stop", "ego_action": "cruise"}', 1), "\n"),
    (_line("pl", "planning", '{"ego_action": "stop"}, "payload": {"ego_action": "go"}', 2), "\n"),
    (_line("pl", "planning", '{"ego_action": "stop"}, "channel": "pl2"', 3), "\n"),
    (_line("pl", "planning", '{"ego_action": "stop"}, "t_ns": 99', 4), "\n"),
    (_line("pl", "planning", '{"ego_action": "stop"}', 5).replace("{", '{"t_ns": 98, ', 1), "\n"),
    (_line("pl", "planning", '{"ego_action": "stop"}', 6), "\n"),
    # 1, 1.0 and true (and 0, 0.0 and -0.0) on one channel of a kind shared
    # by text, each repeated.
    *((_line("num", "planning", f'{{"x": {v}}}', t), "\n")
      for t, v in enumerate(["1", "1.0", "true", "1", "1.0", "true", "0", "0.0", "-0.0", "-0.0"])),
    # A timestamp spelt -0.
    (_line("zero", "localization", '{"x": 1}', 0).replace("0}", "-0}"), "\n"),
    # Images with and without the canonical {"ref": R, "scene": S} layout.
    (_line("img", "image_ref", f'{{"ref": "f0", "scene": {SCENE}}}', 0), "\n"),
    (_line("img", "image_ref", f'{{"ref": "f1", "scene": {SCENE}}}', 1), "\r\n"),
    (_line("img", "image_ref", f'{{"scene": {SCENE}, "ref": "f2"}}', 2), "\n"),
    (_line("img", "image_ref", f'{{"ref": "f3", "scene": {SCENE}, "extra": 0}}', 3), "\n"),
    (_line("img", "image_ref", f'{{"ref": "f4", "scene": {{}}, "scene": {SCENE}}}', 4), "\n"),
    (_line("img", "image_ref", f'{{"ref": 5, "scene": {SCENE}}}', 5), "\n"),
    (_line("img", "image_ref", f'{{"ref": "\\u0066", "scene": {SCENE}}}', 6), "\n"),
    (_line("img", "image_ref", f'{{"ref": "f7",  "scene": {SCENE}}}', 7), "\n"),
    (_line("img", "image_ref", f'{{"ref": "f8", "ref": "f9", "scene": {SCENE}}}', 8), "\n"),
    (_line("img", "image_ref", '{"ref": "f9"}', 9), "\n"),
    (_line("img", "image_ref", '{"ref": "f10", "scene": {"lights": [1.0]}}', 10), "\n"),
    (_line("img", "image_ref", '{"ref": "f11", "scene": {"lights": [true]}}', 11), "\n"),
    (_line("img", "image_ref", f'{{"ref": "f12", "scene": {SCENE}}}', 12), "\n"),
    # A known scene after a ref that does not scan alone: a space before it.
    (_line("img", "image_ref", f'{{"ref":  "f13", "scene": {SCENE}}}', 13), "\n"),
    # Numeric, null and object refs.
    (_line("img", "image_ref", f'{{"ref": -1.5e3, "scene": {SCENE}}}', 14), "\n"),
    (_line("img", "image_ref", f'{{"ref": null, "scene": {SCENE}}}', 15), "\n"),
    (_line("img", "image_ref", f'{{"ref": {{"b": 1, "a": 2}}, "scene": {SCENE}}}', 16), "\n"),
    # ', "scene": ' inside the ref string.
    (_line("img", "image_ref", f'{{"ref": {json.dumps(REF)}, "scene": {SCENE}}}', 17), "\n"),
    # A known scene text followed by more data: another key, then the scene again.
    (_line("img", "image_ref", f'{{"ref": "f18", "scene": {SCENE}, "scene": {{}}}}', 18), "\n"),
    (_line("img", "image_ref", f'{{"ref": "f19", "scene": {{}}, "ref": "f19"}}', 19), "\n"),
    (_line("img", "image_ref", f'{{"ref": "f20", "scene": {{}}, "ref": "f19"}}', 20), "\n"),
    (_line("img", "image_ref", f'{{"ref": "f21", "scene": {SCENE}, "ref": "g21"}}', 21), "\n"),
    # A known scene text under another key of the same length.
    (_line("img", "image_ref", '{"ref": "f22", "scene": {"q": 1, "scene": 2}}', 22), "\n"),
    (_line("img", "image_ref", '{"ref": "f23", "scenf": {"q": 1, "scene": 2}}', 23), "\n"),
    ("", "\n"),
    (" \t", "\r\n"),
    # The last line has no newline.
    (_line("tl", "traffic_light", '{"lights": []}', 11), ""),
]


@pytest.fixture
def shapes(tmp_path):
    path = tmp_path / "shapes.jsonl"
    path.write_bytes("".join(line + end for line, end in LINES).encode())
    return path


def test_loader_payloads_are_type_exact(shapes):
    assert _messages(load_recording(shapes)) == _parsed(shapes)


def test_loader_shares_canonical_payloads_and_scenes(shapes):
    channels = load_recording(shapes).channels
    tl = messages(channels["tl"])
    assert tl[0].payload is tl[1].payload is tl[2].payload is tl[-1].payload
    num = messages(channels["num"])
    assert num[0].payload is num[3].payload and num[1].payload is num[4].payload
    assert num[0].payload is not num[1].payload is not num[2].payload
    images = {str(m.payload.get("ref")): m.payload for m in messages(channels["img"])}
    assert images["f0"]["scene"] is images["f1"]["scene"] is images["f12"]["scene"]
    assert images["-1500.0"]["scene"] is images[REF]["scene"] is images["f0"]["scene"]
    assert images["f10"]["scene"] is not images["f0"]["scene"]
    assert images["f0"] is not images["f12"]


def test_loader_shares_texts_only_of_the_kinds_a_run_keys_on(tmp_path):
    """The rule at RUN_READS: equal planning texts load as one payload object,
    equal localization texts, new on every frame in a drive, as two."""
    path = tmp_path / "r.jsonl"
    path.write_text("".join(
        _line(name, kind, '{"x": 1.5}', t) + "\n"
        for t in (0, 1) for name, kind in (("loc", "localization"), ("pl", "planning"))
    ))
    channels = load_recording(path).channels
    assert channels["pl"].payloads[0] is channels["pl"].payloads[1]
    loc = channels["loc"].payloads
    assert loc[0] == loc[1] and loc[0] is not loc[1]
    assert_loads_as_messages(path)


@pytest.mark.parametrize(
    "payload",
    [
        '{"ref": "f\\q", "scene": %s}' % SCENE,  # an invalid escape in the ref
        '{"ref": "f, "scene": %s}' % SCENE,  # an unterminated ref
        '{"ref": "f", "scene": %s %s}' % (SCENE, SCENE),  # a known scene, then more data
        '{"ref": "f", "scene": %s, }' % SCENE,
        '{"ref": "f", "scene": }',
        '{"ref": "f", "scene": %s' % SCENE[:-1],
        '{"ref": ',
    ],
)
def test_loader_errors_on_image_lines_equal_parse_line(payload, tmp_path):
    """A bad image line after a canonical one fails as _parse_line fails on it alone."""
    good = _line("img", "image_ref", f'{{"ref": "f0", "scene": {SCENE}}}', 0)
    bad = _line("img", "image_ref", payload, 1)
    path = tmp_path / "bad.jsonl"
    path.write_text(f"{good}\n{bad}\n")
    with pytest.raises(RecordingLoadError) as loaded:
        load_recording(path)
    with pytest.raises(RecordingLoadError) as parsed:
        _parse_line(bad + "\n", 2)
    assert str(loaded.value) == str(parsed.value)


def test_loader_sorts_an_out_of_order_channel_and_warns(tmp_path):
    times = {"tl": [0, 1, 2, 3], "pl": [0, 2, 1, 3], "img": [0, 1, 2, 3]}
    lines = [
        _line(name, kind, payload, t)
        for name, kind, payload in [
            ("tl", "traffic_light", '{"lights": []}'),
            ("pl", "planning", '{"ego_action": "stop"}'),
            ("img", "image_ref", f'{{"ref": "f", "scene": {SCENE}}}'),
        ]
        for t in times[name]
    ]
    path = tmp_path / "ooo.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.warns(UserWarning, match="out-of-order") as caught:
        rec = load_recording(path)
    assert [str(w.message) for w in caught] == [
        "channel 'pl': out-of-order timestamps were re-sorted"
    ]
    assert list(rec.channels["pl"].times) == [0, 1, 2, 3]
    parsed = _parsed(path)
    assert _messages(rec) == {name: sorted(rows, key=lambda r: r[0]) for name, rows in parsed.items()}


@pytest.mark.parametrize("name", sorted(BUILTIN_SCRIPTS))
def test_loader_matches_plain_parse_on_builtins(name, tmp_path):
    path = tmp_path / f"{name}.jsonl"
    path.write_text(dump_recording_jsonl(generate_recording(BUILTIN_SCRIPTS[name](), 0)))
    assert _messages(load_recording(path)) == _parsed(path)


def test_generator_gives_equal_outputs_one_object(registry, tmp_path):
    rec = generate_recording(BUILTIN_SCRIPTS["benchmark"](), 0)
    for name in MODULE_KINDS:
        payloads = rec.channels[name].payloads
        assert len({id(p) for p in payloads}) == len({_dumped(p) for p in payloads}), name
    path = tmp_path / "benchmark.jsonl"
    path.write_text(dump_recording_jsonl(rec))
    in_memory, loaded = align_recording(rec), align_recording(load_recording(path))
    for kind in MODULE_KINDS:
        flt = ModuleFilter.for_module(kind, registry)
        tables = [
            _frame_classes(prepare_recording(ar, kind, registry=registry), make_module(kind),
                           FrameEncoder(registry, flt))
            for ar in (in_memory, loaded)
        ]
        assert tables[0] == tables[1], kind


def _unshared(frames):
    """The frames with every message deep-copied on its own: no two share an object."""
    return [
        Frame(f.t_ns, {name: copy.deepcopy(m) for name, m in f.messages.items()}) for f in frames
    ]


def _outputs(result):
    return [(m.channel, m.t_ns, m.kind, _dumped(m.payload)) for m in result.messages]


@pytest.fixture(scope="module", params=sorted(BUILTIN_SCRIPTS))
def loaded(request, tmp_path_factory):
    """A builtin recording loaded from its JSONL, aligned, and its unshared copy."""
    path = tmp_path_factory.mktemp("loaded") / "recording.jsonl"
    path.write_text(dump_recording_jsonl(generate_recording(BUILTIN_SCRIPTS[request.param](), 0)))
    ar = align_recording(load_recording(path))
    return ar, grid_of(_unshared(frames_of(ar)))


def test_encode_recording_memo_matches_unshared(loaded, registry):
    shared, unshared = loaded
    for module in (None, *MODULE_KINDS, "all"):
        flt = None if module is None else ModuleFilter.for_module(module, registry)
        assert encode_recording(shared, registry, flt) == encode_recording(unshared, registry, flt)


def test_replay_memo_matches_unshared(loaded, registry):
    shared, unshared = loaded
    mutants = [m for ms in BUILTIN_MUTANTS.values() for m in ms()]
    lo, hi = len(shared) // 3, len(shared) // 3 + 200
    for kind in MODULE_KINDS:
        flt = ModuleFilter.for_module(kind, registry)
        vectors = encode_recording(shared, registry, flt)
        # One encoder across the module's replays; run_prepared keeps one per mutant.
        encoder = FrameEncoder(registry, flt)
        module = make_module(kind)
        for mutated in [module, *(apply_mutant(module, m) for m in mutants if m.module == kind)]:
            got = replay_segment(mutated, shared, 0, len(shared))
            want = replay_segment(mutated, unshared, 0, len(unshared))
            assert _outputs(got) == _outputs(want)
            assert got.call_counts == want.call_counts
            # The memo hits on the shared frames: repeated inputs give one output object.
            outputs = {id(m.payload) for m in got.messages}
            assert len(outputs) < len({id(m.payload) for m in want.messages})
            got_vectors = swapped_vectors(shared, enumerate(comparable(got)), vectors, encoder)
            want_encoder = FrameEncoder(registry, flt)
            assert got_vectors == swapped_vectors(unshared, enumerate(comparable(want)), vectors, want_encoder)
            got = replay_segment(mutated, shared, lo, hi, 7)
            want = replay_segment(mutated, unshared, lo, hi, 7)
            assert _outputs(got) == _outputs(want)
            assert got.call_counts == want.call_counts


def test_runs_leave_loaded_payloads_as_parsed(tmp_path, monkeypatch):
    """A full run and an artifacts run mutate no shared payload."""
    path = tmp_path / "benchmark.jsonl"
    argv = ["synth-generate", "--script", "builtin:benchmark", "--seed", "0", "--out", str(path)]
    assert main(argv) == 0
    loaded = []

    def keep(p):
        loaded.append(load_recording(p))
        return loaded[-1]

    monkeypatch.setattr("strap.cli.load_recording", keep)
    common = ["run-regression", "--in", str(path), "--mutants", "builtin:benchmark", "--seed", "0"]
    assert main([*common, "--module", "all", "--out", str(tmp_path / "all.json")]) == 0
    assert main([*common, "--module", "planning", "--artifacts-dir", str(tmp_path / "art"),
                 "--out", str(tmp_path / "planning.json")]) == 0
    assert len(loaded) == 2
    parsed = _parsed(path)
    for rec in loaded:
        assert _messages(rec) == parsed
