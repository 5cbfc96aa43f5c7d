"""Recording reduction: smoothing, segmentation, clipping, deduplication.

A vectorized recording is reduced in four steps: a sliding-window majority
vote removes one-off detection glitches, run-length segmentation groups
consecutive identical vectors into scenario segments, each segment is clipped
to its first clip_n frames, and segments whose vector already occurred are
dropped. Segment ids are assigned chronologically before deduplication so
surviving ids still order segments by time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from itertools import compress, islice, pairwise
from operator import ne
from typing import Any, Iterator, Sequence

from .fileio import InputError, check
from .recording import AlignedRecording
from .schema import FrameVector, check_vectors


@dataclass(frozen=True)
class ReductionConfig:
    """Tunables for the reduction pipeline."""

    window_w: int = 5
    clip_n: int = 45
    warmup_frames: int = 15

    def __post_init__(self) -> None:
        if self.window_w < 1 or self.window_w % 2 == 0:
            raise InputError(f"window_w must be odd and positive, got {self.window_w}")
        if self.clip_n < 1:
            raise InputError(f"clip_n must be at least 1, got {self.clip_n}")
        if self.warmup_frames < 0:
            raise InputError(f"warmup_frames must be non-negative, got {self.warmup_frames}")


@dataclass(frozen=True)
class Segment:
    """A run of frames sharing one vector. Indices are inclusive."""

    id: int
    start_idx: int
    end_idx: int
    vector: FrameVector
    warmup_start_idx: int

    def __post_init__(self) -> None:
        if not (0 <= self.warmup_start_idx <= self.start_idx <= self.end_idx):
            raise InputError(
                f"segment {self.id}: bad indices "
                f"({self.warmup_start_idx}, {self.start_idx}, {self.end_idx})"
            )

    @property
    def length(self) -> int:
        return self.end_idx - self.start_idx + 1

    @property
    def length_with_warmup(self) -> int:
        return self.end_idx - self.warmup_start_idx + 1


def _run_starts(vectors: Sequence[FrameVector]) -> Iterator[int]:
    """Each frame but the first whose vector differs from the frame before: where a run starts."""
    return compress(range(1, len(vectors)), map(ne, islice(vectors, 1, None), vectors))


def smooth(vectors: Sequence[FrameVector], w: int) -> list[FrameVector]:
    """Majority-vote each frame against a w-wide window of whole vectors.

    Windows are centered and shifted inward at the edges so every window has
    exactly min(w, N) elements. The most frequent vector in the window wins;
    if the top count is tied, the original center vector is kept.

    A window inside one run of equal vectors keeps its center vector, so
    only the windows that span a run start are counted.
    """
    if w < 1 or w % 2 == 0:
        raise ValueError(f"window width must be odd and positive, got {w}")
    n = len(vectors)
    out = list(vectors)
    if n == 0 or w == 1:
        return out
    width, half = min(w, n), w // 2
    last = n - width  # frame i's window starts at min(max(i - half, 0), last)
    voted: set[int] = set()
    for b in _run_starts(vectors):  # the frames whose windows start in [lo, hi] span b
        lo, hi = max(b - width + 1, 0), min(b - 1, last)
        voted.update(range(lo + half if lo else 0, hi + half + 1 if hi < last else n))
    for i in voted:
        lo = min(max(i - half, 0), last)
        window = vectors[lo : lo + width]
        distinct = list(dict.fromkeys(window))  # each value once, as its first object here
        counts = list(map(window.count, distinct))
        if counts.count(top := max(counts)) == 1:
            out[i] = distinct[counts.index(top)]
    return out


def segment(vectors: Sequence[FrameVector]) -> list[Segment]:
    """Run-length encode the stream into maximal constant-vector segments."""
    if not vectors:
        return []
    bounds = pairwise([0, *_run_starts(vectors), len(vectors)])
    return [Segment(k, a, b - 1, vectors[a], warmup_start_idx=a) for k, (a, b) in enumerate(bounds)]


def clip(segments: Sequence[Segment], n: int) -> list[Segment]:
    """Keep only the first n frames of each segment."""
    if n < 1:
        raise ValueError(f"clip length must be at least 1, got {n}")
    return [
        s if s.length <= n else replace(s, end_idx=s.start_idx + n - 1) for s in segments
    ]


def dedup(segments: Sequence[Segment]) -> list[Segment]:
    """Drop segments whose vector already occurred, keeping first occurrences."""
    seen: set[FrameVector] = set()
    kept = []
    for s in segments:
        if s.vector in seen:
            continue
        seen.add(s.vector)
        kept.append(s)
    return kept


def reduce_vectors(
    vectors: Sequence[FrameVector], cfg: ReductionConfig
) -> tuple[list[Segment], int]:
    """Smooth, segment, clip, and dedup a vector stream.

    Returns the surviving segments (warm-up indices attached) and the number
    of segments the smoothing and segmentation pass found before dedup.
    """
    segments = segment(smooth(vectors, cfg.window_w))
    before_dedup = len(segments)
    segments = [
        replace(s, warmup_start_idx=max(0, s.start_idx - cfg.warmup_frames))
        for s in dedup(clip(segments, cfg.clip_n))
    ]
    return segments, before_dedup


def reduce_recording(
    ar: AlignedRecording, vectors: Sequence[FrameVector], cfg: ReductionConfig
) -> tuple[list[Segment], int]:
    """reduce_vectors, after checking there is one vector per aligned frame."""
    if len(vectors) != len(ar):
        raise ValueError(
            f"{len(vectors)} vectors for {len(ar)} frames; one vector per frame required"
        )
    return reduce_vectors(vectors, cfg)


def segments_to_manifest(
    segments: Sequence[Segment],
    cfg: ReductionConfig,
    frame_times_ns: Sequence[int],
    module: str,
) -> dict[str, Any]:
    """Build the segments.json document."""
    return {
        "config": {**asdict(cfg), "module": module},
        "segments": [
            {
                "id": s.id,
                "start_idx": s.start_idx,
                "end_idx": s.end_idx,
                "warmup_start_idx": s.warmup_start_idx,
                "start_t_ns": frame_times_ns[s.start_idx],
                "end_t_ns": frame_times_ns[s.end_idx],
                "vector": list(s.vector),
            }
            for s in segments
        ],
    }


# segments.json as segments_to_manifest writes it; config's module is not read.
MANIFEST_FORMAT = {
    "config!": {f"{f.name}!": int for f in fields(ReductionConfig)},
    "segments!": [{
        "id!": int, "start_idx!": int, "end_idx!": int, "warmup_start_idx!": int,
        "start_t_ns!": int, "end_t_ns!": int, "vector!": [int],
    }],
}


def segments_from_manifest(doc: Any) -> tuple[list[Segment], ReductionConfig]:
    """Parse a segments.json document back into segments and their config."""
    check(doc, MANIFEST_FORMAT, "invalid segments manifest")
    rows = doc["segments"]
    for i, r in enumerate(rows):
        if not (0 <= r["start_t_ns"] <= r["end_t_ns"]):
            wrong = f"0 <= start_t_ns <= end_t_ns, got {r['start_t_ns']} and {r['end_t_ns']}"
            raise InputError(f"invalid segments manifest: segments[{i}] must have {wrong}")
    check_vectors([r["vector"] for r in rows], "invalid segments manifest", "segments[{}].vector")
    config = doc["config"]
    cfg = ReductionConfig(**{f.name: config[f.name] for f in fields(ReductionConfig)})
    segments = [
        Segment(r["id"], r["start_idx"], r["end_idx"], tuple(r["vector"]), r["warmup_start_idx"])
        for r in rows
    ]
    return segments, cfg
