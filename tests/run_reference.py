"""Per-frame references for the run walks of reduction and prioritization.

smooth, segment and rarity_weights walk a vector stream by its runs of equal
vectors. The functions here are the per-frame versions they replaced, kept
as the oracle of the differential tests: same results, same objects.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from strap.prioritization import RarityWeights, rarity_weights
from strap.reduction import Segment, segment, smooth


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
    """rarity_weights, counting every dimension of every frame."""
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
    return RarityWeights(tuple(raw))


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
        for normalize in (True, False):
            assert rarity_weights(vectors, normalize) == frame_rarity_weights(vectors, normalize)
