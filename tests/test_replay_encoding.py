"""Replay encoding: FrameEncoder and recorded-vector reuse against a reference.

The reference below is the plain per-frame encoder: it rebuilds its lookup
tables on every call, walks the frame kind by kind (channels of one kind in
name order), zeroes orphan properties, then filters and zeroes again.
Everything replay produces must match it exactly.
"""

from __future__ import annotations

import random

import pytest
from conftest import Frame, comparable, frames_of, grid_of, swapped_vectors

from strap.benchmarks import BUILTIN_MUTANTS, BUILTIN_SCRIPTS
from strap.recording import Message, MessageKind, align_recording
from strap.schema import (
    MODULE_CHANNELS,
    MODULE_KINDS,
    FrameEncoder,
    ModuleFilter,
    SchemaError,
    SchemaRegistry,
    apply_filter,
    default_registry,
    encode_frame,
    encode_recording,
)
from strap.synth import (
    ReplayResult,
    apply_mutant,
    generate_recording,
    make_module,
    replay_segment,
)

ACTORS = {"vehicle": "vehicle", "pedestrian": "pedestrian", "cyclist": "cyclist", "unknown": "unknown_actor"}
STATICS = {
    "stop_sign": "stop_sign",
    "crosswalk": "crosswalk",
    "intersection": "intersection",
    "traffic_cone": "traffic_cone",
    "unknown": "unknown_static",
}


def zero_orphans(values, registry):
    index = {d.name: i for i, d in enumerate(registry.dimensions)}
    for d in registry.dimensions:
        if d.parent is not None and values[index[d.parent]] == 0:
            values[index[d.name]] = 0


def reference_filter(values, registry, flt):
    if flt is None:
        return tuple(values)
    values = [v if d.name in flt.retained_dimensions else 0 for v, d in zip(values, registry.dimensions)]
    zero_orphans(values, registry)
    return tuple(values)


def reference_encode(frame, registry, flt=None):
    index = {d.name: i for i, d in enumerate(registry.dimensions)}
    dims = {d.name: d for d in registry.dimensions}
    values = [0] * len(registry.dimensions)

    def put(name, value):
        if name in index:
            values[index[name]] = dims[name].code(value)

    def actor_dim(actor):
        if actor not in ACTORS:
            raise SchemaError(f'dimension "actor": unknown value "{actor}"')
        return ACTORS[actor]

    claimed = set()
    for kind in MessageKind:
        for name in sorted(frame.messages):
            msg = frame.messages[name]
            if msg.kind is not kind:
                continue
            p = msg.payload
            if kind is MessageKind.TRAFFIC_LIGHT:
                lights = p.get("lights") or []
                if lights and "traffic_light" not in claimed:
                    claimed.add("traffic_light")
                    put("traffic_light", "traffic_light")
                    for prop in ("color", "shape", "orientation"):
                        if lights[0].get(prop) is not None:
                            put(f"traffic_light.{prop}", lights[0][prop])
            elif kind is MessageKind.OBSTACLE:
                for obj in p.get("obstacles") or []:
                    dim = actor_dim(obj.get("actor"))
                    if dim not in claimed:
                        claimed.add(dim)
                        put(dim, dim)
                        if obj.get("subtype") is not None:
                            put(f"{dim}.subtype", obj["subtype"])
                    if obj.get("on_crosswalk"):
                        put("crosswalk", "crosswalk")
                    if obj.get("at_intersection"):
                        put("intersection", "intersection")
                for name in p.get("objects") or []:
                    if name not in STATICS:
                        raise SchemaError(f'dimension "objects": unknown value "{name}"')
                    put(STATICS[name], STATICS[name])
            elif kind is MessageKind.PREDICTION:
                for track in p.get("tracks") or []:
                    target = f"{actor_dim(track.get('actor'))}.action"
                    if target not in claimed and track.get("action") is not None:
                        claimed.add(target)
                        put(target, track["action"])
            elif kind is MessageKind.PLANNING:
                for field, dim in (("ego_action", "ego.action"), ("stop_cause", "ego.stop_cause")):
                    if p.get(field) is not None and dim not in claimed:
                        claimed.add(dim)
                        put(dim, p[field])
    zero_orphans(values, registry)
    return reference_filter(values, registry, flt)


def swap(frame, msg):
    return Frame(frame.t_ns, {**frame.messages, msg.channel: msg})


def unchanged(frame, msg):
    """The replay left the frame as recorded: same payload on the output channel."""
    return frame.messages[msg.channel].payload == msg.payload


def filters(registry):
    return [None, *(ModuleFilter.for_module(m, registry) for m in MODULE_CHANNELS)]


@pytest.fixture(scope="module", params=sorted(BUILTIN_SCRIPTS))
def replayed(request):
    """A built-in script's aligned frames and full replays of every built-in mutant.

    Each replay is paired with its module's filter. Per frame, ``distinct``
    lists every different message the replays put there, so the reference
    runs once per distinct swapped frame.
    """
    ar = align_recording(generate_recording(BUILTIN_SCRIPTS[request.param](), seed=0))
    mutants = [m for make in BUILTIN_MUTANTS.values() for m in make()]
    registry = default_registry()
    replays = []
    for kind in MODULE_KINDS:
        module = make_module(kind)
        for mutated in [module, *(apply_mutant(module, m) for m in mutants if m.module == kind)]:
            result = replay_segment(mutated, ar, 0, len(ar))
            replays.append((ModuleFilter.for_module(kind, registry), result))
    distinct = [[] for _ in range(len(ar))]
    for _, result in replays:
        for seen, msg in zip(distinct, result.messages):
            if msg not in seen:
                seen.append(msg)
    return ar, replays, distinct


def test_replays_mix_changed_and_unchanged_outputs(replayed):
    ar, replays, _ = replayed
    same = changed = 0
    frames = frames_of(ar)
    for _, result in replays:
        for frame, msg in zip(frames, result.messages):
            if unchanged(frame, msg):
                same += 1
            else:
                changed += 1
    assert same and changed


def test_encoder_matches_reference_on_swapped_frames(replayed, registry):
    # Every swapped frame is checked unfiltered and under one filter, the
    # filters taken in turn, so each filter sees swapped frames all through
    # the script; test_encode_recording_matches_reference covers every
    # recorded frame under every filter.
    ar, _, distinct = replayed
    flts = filters(registry)
    encoders = [FrameEncoder(registry, flt) for flt in flts]
    # Replays publish on recorded channels, so every swapped frame has the
    # recording's channels and one encoding order per encoder serves all.
    orders = [e.channel_order(ar.kinds) for e in encoders]
    turn = 0
    for i, (frame, msgs) in enumerate(zip(frames_of(ar), distinct)):
        for msg in msgs:
            turn += 1
            reference = reference_encode(swap(frame, msg), registry)
            raw = FrameEncoder(registry).encode(ar, i, orders[0], msg)
            assert raw == reference
            assert encoders[0].encode(ar, i, orders[0], msg) == raw
            k = turn % len(flts)
            expected = reference_filter(reference, registry, flts[k])
            got = encoders[k].encode(ar, i, orders[k], msg)
            assert got == expected
            if flts[k] is not None:
                assert apply_filter(raw, flts[k], registry) == got


def test_encode_recording_matches_reference(replayed, registry):
    ar, _, _ = replayed
    frames = frames_of(ar)
    for flt in filters(registry):
        vectors = encode_recording(ar, registry, flt)
        assert list(vectors) == [reference_encode(f, registry, flt) for f in frames]
    assert [encode_frame(ar, i, registry) for i in range(len(ar))] == [reference_encode(f, registry) for f in frames]


def test_replayed_vectors_reuse_only_unchanged_frames(replayed, registry):
    ar, replays, _ = replayed
    recorded = {}
    for flt, result in replays:
        if flt.module not in recorded:
            recorded[flt.module] = encode_recording(ar, registry, flt)
        vectors = recorded[flt.module]
        got = swapped_vectors(ar, enumerate(comparable(result)), vectors, FrameEncoder(registry, flt))
        assert len(got) == len(ar)
        for i, (frame, msg, vec) in enumerate(zip(frames_of(ar), result.messages, got)):
            if unchanged(frame, msg):
                assert vec is vectors[i]
            else:
                assert vec == reference_encode(swap(frame, msg), registry, flt)


def test_replayed_vectors_offset_by_warmup(registry):
    # Segment replays start at lo and skip their warm-up frames; the
    # vectors line up with frames lo + warmup onwards.
    ar = align_recording(generate_recording(BUILTIN_SCRIPTS["benchmark"](), seed=0))
    flt = ModuleFilter.for_module("planning", registry)
    vectors = encode_recording(ar, registry, flt)
    mutant = next(m for m in BUILTIN_MUTANTS["benchmark"]() if m.module == "planning")
    mutated = apply_mutant(make_module("planning"), mutant)
    for lo, hi, warmup in ((0, 60, 15), (285, 330, 15), (1000, 1044, 0), (2390, 2399, 5)):
        result = replay_segment(mutated, ar, lo, hi + 1, warmup)
        replayed = enumerate(comparable(result), lo + warmup)
        got = swapped_vectors(ar, replayed, vectors, FrameEncoder(registry, flt))
        frames = frames_of(ar)[lo + warmup : hi + 1]
        assert list(got) == [
            reference_encode(swap(f, m), registry, flt) for f, m in zip(frames, comparable(result))
        ]


# Randomized payloads: several channels per kind, absent output channels
# and registries that lack some dimensions.

LIGHT_VALUES = {"color": ("red", "green", "yellow", "black"), "shape": ("square", "round"),
                "orientation": ("vertical", "horizontal")}
SUBTYPES = {"vehicle": ("truck", "car", "bus", "van"), "cyclist": ("bicyclist", "motorcyclist", "tricyclist")}
ACTIONS = ("stop", "cruise", "change_lane", "overtake", "cross")


def random_payload(rng, kind):
    if kind is MessageKind.TRAFFIC_LIGHT:
        return {"lights": [
            {p: rng.choice((None, *vals)) for p, vals in LIGHT_VALUES.items()}
            for _ in range(rng.randrange(3))
        ]}
    if kind is MessageKind.OBSTACLE:
        obstacles = []
        for _ in range(rng.randrange(4)):
            actor = rng.choice(sorted(ACTORS))
            obstacles.append({
                "actor": actor,
                "subtype": rng.choice((None, *SUBTYPES.get(actor, ()))),
                "on_crosswalk": rng.random() < 0.3,
                "at_intersection": rng.random() < 0.3,
            })
        return {"obstacles": obstacles, "objects": rng.sample(sorted(STATICS), rng.randrange(3))}
    if kind is MessageKind.PREDICTION:
        return {"tracks": [
            {"actor": rng.choice(sorted(ACTORS)), "action": rng.choice((None, *ACTIONS))}
            for _ in range(rng.randrange(4))
        ]}
    if kind is MessageKind.PLANNING:
        return {"ego_action": rng.choice((None, "stop", "cruise", "change_lane", "overtake")),
                "stop_cause": rng.choice((None, "traffic_light", "stop_sign"))}
    return {}


def random_recording(rng, channels, n):
    frames = tuple(
        Frame(t, {name: Message(name, t, kind, random_payload(rng, kind)) for name, kind in channels.items()})
        for t in range(0, n * 10, 10)
    )
    return grid_of(frames)


def sparse_registry():
    full = default_registry()
    dropped = {"cyclist", "cyclist.subtype", "cyclist.action", "traffic_light.shape", "ego.stop_cause",
               "unknown_static"}
    dims = tuple(d for d in full.dimensions if d.name not in dropped)
    return SchemaRegistry(dims, full.always_keep)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("registry_kind", ["default", "sparse"])
def test_randomized_payloads(seed, registry_kind):
    rng = random.Random(seed)
    registry = default_registry() if registry_kind == "default" else sparse_registry()
    channels = {
        "image": MessageKind.IMAGE_REF,
        "obstacle": MessageKind.OBSTACLE,
        "obstacle_b": MessageKind.OBSTACLE,
        "prediction": MessageKind.PREDICTION,
        "traffic_light": MessageKind.TRAFFIC_LIGHT,
        "tl_aux": MessageKind.TRAFFIC_LIGHT,
    }
    if seed % 2:
        channels["planning"] = MessageKind.PLANNING
    ar = random_recording(rng, channels, 40)
    frames = frames_of(ar)
    # Replayed outputs go to the first output channel of their kind; with no
    # recorded planning channel the swap adds one.
    for channel, kind in (("obstacle", MessageKind.OBSTACLE), ("tl_aux", MessageKind.TRAFFIC_LIGHT),
                          ("planning", MessageKind.PLANNING), ("prediction", MessageKind.PREDICTION)):
        messages = []
        for f in frames:
            if channel in f.messages and rng.random() < 0.5:
                messages.append(f.messages[channel])
            else:
                messages.append(Message(channel, f.t_ns, kind, random_payload(rng, kind)))
        warmup = rng.randrange(5)
        result = ReplayResult(tuple(messages), warmup, {})
        for flt in filters(registry):
            vectors = encode_recording(ar, registry, flt)
            assert list(vectors) == [reference_encode(f, registry, flt) for f in frames]
            replayed = enumerate(comparable(result), warmup)
            got = swapped_vectors(ar, replayed, vectors, FrameEncoder(registry, flt))
            assert list(got) == [
                reference_encode(swap(f, m), registry, flt)
                for f, m in zip(frames[warmup:], comparable(result))
            ]


def test_unknown_values_raise(registry):
    base = random_recording(random.Random(0), {"obstacle": MessageKind.OBSTACLE,
                                               "prediction": MessageKind.PREDICTION}, 3)
    encoder = FrameEncoder(registry, ModuleFilter.for_module("prediction", registry))
    vectors = encode_recording(base, registry)
    bad = [
        Message("obstacle", 0, MessageKind.OBSTACLE, {"obstacles": [{"actor": "dragon"}]}),
        Message("prediction", 0, MessageKind.PREDICTION, {"tracks": [{"actor": "dragon"}]}),
        Message("obstacle", 0, MessageKind.OBSTACLE, {"objects": ["tree"]}),
        Message("obstacle", 0, MessageKind.OBSTACLE,
                {"obstacles": [{"actor": "vehicle", "subtype": "tank"}]}),
    ]
    for msg in bad:
        swapped = grid_of([swap(frames_of(base)[0], msg)])
        order = encoder.channel_order(base.kinds)
        for encode in (lambda: encoder.encode(base, 0, order, msg), lambda: encode_frame(swapped, 0, registry)):
            with pytest.raises(SchemaError, match="unknown value"):
                encode()
        result = ReplayResult((msg,), 0, {})
        with pytest.raises(SchemaError, match="unknown value"):
            swapped_vectors(base, enumerate(comparable(result)), vectors, encoder)
