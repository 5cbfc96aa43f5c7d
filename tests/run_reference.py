"""Per-frame references for the run walks of reduction and prioritization,
rational references for ranking and scoring plans, and the per-class
reference for the class table's vectors.

smooth, segment and rarity_weights walk a vector stream by its runs of equal
vectors. The functions here are the per-frame versions they replaced, kept
as the oracle of the differential tests: same results, same objects.

The plan strategies score in integers over one denominator, RD inlines
random.Random.shuffle, and a plan's APFD walk stops at its last new fault.
The rational_* functions are the versions they replaced: Fraction scores,
rng.shuffle, and a walk over the whole plan with a Fraction APFD.

synth.generate_recording walks frames one at a time only from a scene event
or a glitch until no module is dirty, and computes only where a module is.
per_frame_generate_recording is the version it replaced: every frame walked,
every emission computed.

synth._class_vectors computes once per compute slot on the inputs the class
table keeps, and builds a Message only for a frame it encodes.
memo_class_vectors is the version it replaced: each class computes through
a _ComputeMemo on inputs it builds itself, and builds a Message.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from fractions import Fraction

from strap.fileio import InputError
from strap.prioritization import PrioritizedPlan, rarity_weights
from strap.recording import Channel, Message, MessageKind, Recording, _frame_t_ns, _text_memo
from strap.schema import MODULE_KINDS, FrameEncoder
from strap.reduction import Segment, segment, smooth
from strap.synth import (
    CHANNEL_KINDS,
    CHANNEL_OFFSETS_NS,
    _ComputeMemo,
    _glitch_payload,
    _on_inputs,
    _scene_truth,
    make_module,
)


def frame_smooth(vectors, w):
    """smooth, a frame at a time: each window inside one run keeps its center vector."""
    if w < 1 or w % 2 == 0:
        raise ValueError(f"window width must be odd and positive, got {w}")
    n = len(vectors)
    if n == 0 or w == 1:
        return list(vectors)
    width = min(w, n)
    half = w // 2
    # run_end[i]: the index of the last frame of the run holding frame i.
    run_end = [n - 1] * n
    for i in range(n - 2, -1, -1):
        run_end[i] = i if vectors[i] != vectors[i + 1] else run_end[i + 1]
    out = []
    for i in range(n):
        lo = min(max(i - half, 0), n - width)
        if run_end[lo] >= lo + width - 1:
            out.append(vectors[i])
            continue
        top = Counter(vectors[lo : lo + width]).most_common()
        out.append(vectors[i] if len(top) > 1 and top[0][1] == top[1][1] else top[0][0])
    return out


def frame_segment(vectors):
    """segment, a frame at a time against its run's first vector."""
    if not vectors:
        return []
    segments = []
    start = 0
    for i in range(1, len(vectors)):
        if vectors[i] != vectors[start]:
            segments.append(
                Segment(len(segments), start, i - 1, vectors[start], warmup_start_idx=start)
            )
            start = i
    segments.append(
        Segment(len(segments), start, len(vectors) - 1, vectors[start], warmup_start_idx=start)
    )
    return segments


def frame_rarity_weights(frame_vectors, normalize=True):
    """rarity_weights, counting every dimension of every frame; with
    normalize=False, the raw weights N / (frames where a dimension is non-zero)."""
    if not frame_vectors:
        raise ValueError("rarity weights need at least one frame vector")
    n = len(frame_vectors)
    q = len(frame_vectors[0])
    if any(len(v) != q for v in frame_vectors):
        raise ValueError("frame vectors have inconsistent lengths")
    counts = [0] * q
    for v in frame_vectors:
        for i, x in enumerate(v):
            if x != 0:
                counts[i] += 1
    raw = [Fraction(n, c) if c else Fraction(0) for c in counts]
    if normalize:
        total = sum(raw)
        if total:
            raw = [w / total for w in raw]
    return tuple(raw)


def assert_reduce_walks_match(vectors, widths=(1, 3, 5, 7, 41)):
    """smooth, segment and rarity_weights on vectors equal their per-frame references.

    smooth must also give the very objects its reference gives, and segment
    is checked on each smoothed stream as well as on the raw one.
    """
    assert segment(vectors) == frame_segment(vectors)
    for w in widths:
        got, want = smooth(vectors, w), frame_smooth(vectors, w)
        assert got == want and list(map(id, got)) == list(map(id, want)), w
        assert segment(got) == frame_segment(want), w
    if vectors:
        assert rarity_weights(vectors) == frame_rarity_weights(vectors)


def memo_class_vectors(prepared, mutated, classes):
    """synth._class_vectors as it was, on the current class table: each class
    computes on its source frame's inputs through one _ComputeMemo, and its
    output goes into a Message that message_swapped_vectors swaps in. A
    class's source frame is its slot's, which reads the same objects."""
    ar = prepared.aligned
    kind = mutated.publish_kind
    encoder = FrameEncoder(prepared.registry, prepared.module, {**ar.kinds, classes.channel: kind})
    memo = _ComputeMemo(mutated.fresh())
    sources = [classes.inputs[slot][0] for slot in classes.slots]
    outputs = list(map(_on_inputs(ar, memo.compute), sources))
    messages = (
        (i, Message(classes.channel, ar.times[i], kind, out))
        for i, out in zip(classes.firsts, outputs)
    )
    return message_swapped_vectors(ar, messages, prepared.vectors, encoder)


def message_swapped_vectors(ar, replayed, vectors, encoder):
    """synth._swapped_vectors as it was, over (i, message) pairs."""
    out = []
    for i, msg in replayed:
        recorded = ar.columns.get(msg.channel)
        if recorded and recorded.channel.kind is msg.kind and recorded.payload(i) == msg.payload:
            out.append(vectors[i])
            continue
        out.append(encoder.encode(ar, i, msg))
    return out


def _score_exact(values, weights, mode):
    if len(values) != len(weights):
        raise InputError(f"vector length {len(values)} does not match {len(weights)} weights")
    total = Fraction(0)
    for x, wt in zip(values, weights):
        if x != 0:
            total += wt * x if mode == "literal" else wt
    return total


def _ranked_plan(strategy, segments, exact_scores):
    ranked = sorted(segments, key=lambda s: (-exact_scores[s.id], s.id))
    return PrioritizedPlan(
        strategy=strategy,
        order=tuple(s.id for s in ranked),
        scores=tuple(float(exact_scores[s.id]) for s in ranked),
    )


def rational_rsc(segments, weights, rarity_mode="indicator"):
    """prioritize_rsc on given weights, raw or normalized (the mode check is unchanged and not copied)."""
    scores = {s.id: _score_exact(s.vector, weights, rarity_mode) for s in segments}
    return _ranked_plan("RSC", segments, scores)


def rational_sc(segments):
    scores = {s.id: Fraction(sum(1 for x in s.vector if x != 0)) for s in segments}
    return _ranked_plan("SC", segments, scores)


def rational_cc(segments, call_counts):
    """prioritize_cc past its length check, which is unchanged."""
    scores = {s.id: Fraction(c) for s, c in zip(segments, call_counts)}
    return _ranked_plan("CC", segments, scores)


def rational_rd(segments, seed, repetitions=100):
    """prioritize_rd past its repetitions check, which is unchanged."""
    rng = random.Random(seed)
    base = sorted(s.id for s in segments)
    plans = []
    for _ in range(repetitions):
        order = list(base)
        rng.shuffle(order)
        plans.append(PrioritizedPlan("RD", tuple(order), tuple(0.0 for _ in order), rng_seed=seed))
    return plans


def rational_apfd(n, fault_first_indices, m):
    if n < 1:
        raise ValueError(f"plan length must be positive, got {n}")
    if m < 1:
        raise ValueError("APFD is undefined with zero faults")
    if m != len(fault_first_indices):
        raise ValueError(f"m={m} but {len(fault_first_indices)} first-detection positions given")
    for tf in fault_first_indices:
        if not (1 <= tf <= n):
            raise ValueError(f"first-detection position {tf} outside [1, {n}]")
    value = 1 - Fraction(sum(fault_first_indices), m * n) + Fraction(1, 2 * n)
    return float(value)


def rational_evaluate_plan(plan, fault_sets):
    if set(plan.order) != set(fault_sets):
        unknown = set(plan.order) - set(fault_sets)
        if unknown:
            raise InputError(f"plan orders unknown segment ids {sorted(unknown)}")
        raise InputError("fault sets cover segments missing from the plan")
    first_seen = {}
    for pos, seg_id in enumerate(plan.order, start=1):
        for fault in fault_sets[seg_id]:
            first_seen.setdefault(fault, pos)
    if not first_seen:
        return None, None
    positions = sorted(first_seen.values())
    return rational_apfd(len(plan.order), positions, len(first_seen)), positions[0]


def outcome(call):
    """What call() gives, with each float as its hex text so that -0.0 and 0.0
    differ; or the type and text of what it raises."""
    try:
        return _bits(call())
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def _bits(o):
    if isinstance(o, float):
        return o.hex()
    if isinstance(o, PrioritizedPlan):
        return o.strategy, o.order, _bits(o.scores), o.rng_seed
    if isinstance(o, (list, tuple)):
        return [_bits(x) for x in o]
    if isinstance(o, dict):
        return {k: _bits(v) for k, v in o.items()}
    return o


def per_frame_generate_recording(script, seed):
    """synth.generate_recording as it was: every frame walked, one glitch
    draw per emission as it comes, and every emission computed through the
    module's _ComputeMemo."""
    rng = random.Random(seed)
    events = sorted(script.events, key=lambda e: e.frame)
    modules = {kind: make_module(kind) for kind in MODULE_KINDS}
    memos = {kind: _ComputeMemo(module) for kind, module in modules.items()}
    held = {}
    computed = {}  # before sharing
    times = {name: array("q") for name in CHANNEL_OFFSETS_NS}
    payloads = {name: [] for name in CHANNEL_OFFSETS_NS}
    state = {}
    next_event = 0
    text = _text_memo()
    by_text = {}

    def shared(o):
        return by_text.setdefault(text(o), o)

    # The scene changes only at events, so frames in between share one truth.
    truth = shared(_scene_truth(state))
    for i in range(script.duration_frames):
        while next_event < len(events) and events[next_event].frame == i:
            ev = events[next_event]
            for key in ev.unset:
                state.pop(key, None)
            state.update(ev.set)
            next_event += 1
            truth = shared(_scene_truth(state))
        t = _frame_t_ns(i, script.fps)

        def emit(name, payload):
            times[name].append(t + CHANNEL_OFFSETS_NS[name])
            payloads[name].append(payload)
            return payload

        image = emit("image", {"ref": f"frame_{i:06d}", "scene": truth})
        emit("localization", {"x": round(i * 0.5, 3), "y": 0.0, "heading": 0.0})

        inputs = {MessageKind.IMAGE_REF: image}
        for kind in MODULE_KINDS:
            module = modules[kind]
            if module.emits_at(i):
                payload = memos[kind].compute(inputs)
                if script.glitch_rate and rng.random() < script.glitch_rate:
                    payload = _glitch_payload(module.publish_kind, payload)
                if payload is not computed.get(kind):
                    computed[kind], held[kind] = payload, shared(payload)
                emit(kind, held[kind])
            inputs[module.publish_kind] = held[kind]

    return Recording({name: Channel._of(name, CHANNEL_KINDS[name], times[name], tuple(ps))
                      for name, ps in payloads.items() if ps})
