"""In-memory span tracing around strap's layer boundaries.

A span is ``[name, start, end, parent]``: perf_counter seconds and the index
of the enclosing span (``None`` for a root). Spans are recorded by wrapping
module attributes, so a wrapper only sees calls that look the attribute up
at call time, which is how ``strap.cli`` and ``strap.synth`` call the
functions they imported. Calls a layer makes inside its own module are not
split out; they count toward that layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

Counts = Callable[[tuple, Any], Mapping[str, int]]


class Tracer:
    """Records spans and counters from wrapped functions until restored."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str, counts: Counts | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span named ``name``.

        ``counts(args, result)`` returns counter increments; it runs after the
        span closes, so its cost lands in the caller's self time.
        """
        original = getattr(owner, attr)
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counts is not None:
                counters.update(counts(args, result))
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps({"spans": self.spans, "counters": dict(self.counters)}), encoding="utf-8"
        )


def self_times(spans: Sequence[Sequence[Any]]) -> dict[str, float]:
    """Seconds per span name, each span's duration minus what its children cover.

    Children are clipped to their parent's interval and overlapping children
    are merged, so time is never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        totals[name] += (end - start) - covered
    return dict(totals)


def _frames(args: tuple, result: Any) -> Mapping[str, int]:
    return {"recording.align_calls": 1, "recording.frames_aligned": len(result)}


def _encoded(args: tuple, result: Any) -> Mapping[str, int]:
    return {"schema.encode_calls": 1, "schema.frames_encoded": len(result)}


def _reduced(args: tuple, result: Any) -> Mapping[str, int]:
    return {"reduction.reduce_calls": 1, "reduction.segments_after_dedup": len(result[0])}


def _ranked(args: tuple, result: Any) -> Mapping[str, int]:
    return {"prioritization.segments_ranked": len(args[0])}


def _replayed(args: tuple, result: Any) -> Mapping[str, int]:
    return {
        "synth.replay_calls": 1,
        "synth.replayed_frames": len(result.messages),
        "synth.warmup_frames": result.warmup_frames,
    }


def _verdict(args: tuple, result: Any) -> Mapping[str, int]:
    return {
        "evaluation.verdicts": 1,
        "evaluation.frames_compared": result.total_frames,
        "evaluation.frames_mismatched": result.mismatched_frames,
    }


def _written(args: tuple, result: Any) -> Mapping[str, int]:
    return {"fileio.files_written": 1, "fileio.bytes_written": os.path.getsize(args[0])}


# (module, attribute, span name, counters). Each module is wrapped where
# strap.cli or strap.synth call it; strap.cli.main is the root span.
STRAP_WRAPS: tuple[tuple[str, str, str, Counts | None], ...] = (
    ("strap.cli", "main", "cli", None),
    ("strap.cli", "load_recording", "recording.load",
     lambda args, rec: {"recording.messages_loaded": rec.message_count()}),
    ("strap.cli", "align_recording", "recording.align", _frames),
    ("strap.synth", "align_recording", "recording.align", _frames),
    ("strap.cli", "dump_recording_jsonl", "recording.dump", None),
    ("strap.cli", "encode_recording", "schema.encode", _encoded),
    ("strap.synth", "encode_recording", "schema.encode", _encoded),
    ("strap.synth", "encode_frame", "schema.reencode",
     lambda args, vec: {"schema.reencode_frames": 1}),
    ("strap.synth", "apply_filter", "schema.filter", None),
    ("strap.cli", "reduce_vectors", "reduction.reduce", _reduced),
    ("strap.synth", "reduce_recording", "reduction.reduce", _reduced),
    ("strap.synth", "segment_ids_before_dedup", "reduction.resegment",
     lambda args, ids: {"reduction.segments_before_dedup": len(ids)}),
    ("strap.cli", "run_benchmark", "synth.regression", None),
    ("strap.cli", "run_regression", "synth.regression", None),
    ("strap.synth", "run_regression", "synth.regression", None),
    ("strap.synth", "replay_segment", "synth.replay", _replayed),
    ("strap.synth", "compare_outputs", "evaluation.verdict", _verdict),
    ("strap.synth", "evaluate_plan", "evaluation.plan_eval",
     lambda args, scores: {"evaluation.plans_evaluated": 1}),
    *(
        (owner, f"prioritize_{s}", f"prioritization.{s}", _ranked)
        for owner in ("strap.cli", "strap.synth")
        for s in ("rsc", "sc", "ch", "rd", "cc")
    ),
    ("strap.cli", "atomic_write_text", "fileio.write", _written),
    ("strap.cli", "atomic_write_json", "fileio.write", _written),
)


def install_strap_wraps(tracer: Tracer) -> None:
    for module, attr, name, counts in STRAP_WRAPS:
        tracer.wrap(importlib.import_module(module), attr, name, counts)


def layer_metrics(spans: Sequence[Sequence[Any]], counters: Mapping[str, int]) -> dict[str, float]:
    """Per-layer self seconds, counters and ratios of one traced run."""
    own = self_times(spans)
    c = Counter(counters)
    rank_s = sum(v for k, v in own.items() if k.startswith("prioritization."))
    out: dict[str, float] = {
        "cli.self_s": own.get("cli", 0.0),
        "recording.load_s": own.get("recording.load", 0.0),
        "recording.align_s": own.get("recording.align", 0.0),
        "recording.dump_s": own.get("recording.dump", 0.0),
        "schema.encode_s": own.get("schema.encode", 0.0),
        "schema.reencode_s": own.get("schema.reencode", 0.0),
        "schema.filter_s": own.get("schema.filter", 0.0),
        "reduction.reduce_s": own.get("reduction.reduce", 0.0),
        "reduction.resegment_s": own.get("reduction.resegment", 0.0),
        "prioritization.rank_s": rank_s,
        "prioritization.rsc_s": own.get("prioritization.rsc", 0.0),
        "prioritization.rd_s": own.get("prioritization.rd", 0.0),
        "synth.regression_self_s": own.get("synth.regression", 0.0),
        "synth.replay_s": own.get("synth.replay", 0.0),
        "evaluation.verdict_s": own.get("evaluation.verdict", 0.0),
        "evaluation.plan_eval_s": own.get("evaluation.plan_eval", 0.0),
        "fileio.write_s": own.get("fileio.write", 0.0),
    }
    for key in (
        "recording.messages_loaded", "recording.align_calls", "recording.frames_aligned",
        "schema.encode_calls", "schema.frames_encoded", "schema.reencode_frames",
        "reduction.reduce_calls", "reduction.segments_before_dedup",
        "reduction.segments_after_dedup", "prioritization.segments_ranked",
        "synth.replay_calls", "synth.replayed_frames", "evaluation.verdicts",
        "evaluation.plans_evaluated", "fileio.files_written", "fileio.bytes_written",
    ):
        out[key] = c[key]
    # A workload without replays has nothing to share out; report 0, not a division error.
    out["synth.warmup_share"] = (
        c["synth.warmup_frames"] / c["synth.replayed_frames"] if c["synth.replayed_frames"] else 0.0
    )
    out["evaluation.mismatch_ratio"] = (
        c["evaluation.frames_mismatched"] / c["evaluation.frames_compared"]
        if c["evaluation.frames_compared"] else 0.0
    )
    return out
