"""Reduction pipeline: smoothing, segmentation, clipping, dedup, manifests."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from run_reference import assert_reduce_walks_match, frame_smooth

from strap.benchmarks import BUILTIN_SCRIPTS
from strap.fileio import InputError
from strap.recording import align_recording
from strap.reduction import (
    ReductionConfig,
    Segment,
    clip,
    dedup,
    reduce_recording,
    reduce_vectors,
    segment,
    segments_from_manifest,
    segments_to_manifest,
    smooth,
)
from strap.schema import encode_recording
from strap.synth import MODULE_KINDS, generate_recording


A, B, C = (1,), (2,), (3,)


def stream(codes):
    return list(codes)


def values(vectors):
    return list(vectors)


class TestSmooth:
    def test_single_outlier_removed(self):
        out = smooth(stream([A, A, B, A, A]), 3)
        assert values(out) == [A, A, A, A, A]

    def test_edge_outlier_removed_by_inward_shift(self):
        out = smooth(stream([B, A, A, A, A]), 5)
        assert values(out) == [A] * 5

    def test_two_frame_corruption_removed_at_width_five(self):
        out = smooth(stream([A, A, B, B, A, A, A]), 5)
        assert values(out) == [A] * 7

    def test_two_frame_corruption_survives_width_three(self):
        out = smooth(stream([A, A, B, B, A, A]), 3)
        assert B in values(out)

    def test_tie_keeps_original_center(self):
        assert values(smooth(stream([A, B]), 3)) == [A, B]
        assert values(smooth(stream([A, B, C]), 3)) == [A, B, C]

    def test_window_wider_than_stream_shrinks(self):
        # Window clamps to the 3 available frames, so the lone B still loses.
        assert values(smooth(stream([A, B, A]), 5)) == [A, A, A]

    def test_width_one_is_identity(self):
        s = stream([A, B, B, C])
        assert values(smooth(s, 1)) == values(s)

    def test_even_or_zero_width_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            smooth(stream([A]), 2)
        with pytest.raises(ValueError, match="odd"):
            smooth(stream([A]), 0)

    def test_empty_stream(self):
        assert smooth([], 3) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_a_vote_in_every_window(self, seed):
        """The run walk against the vote it skips inside runs, and against the
        per-frame walk it replaced (the same objects too). w = 41 is wider
        than most streams; A-B-A streams vote across two run starts; the
        fresh copies make every frame's vector equal to others but its own object."""
        rng = random.Random(seed)
        for w in (1, 3, 5, 7, 41):
            for n in (1, 2, 3, 4, 6, rng.randint(8, 300)):
                codes = _runs_and_glitches(rng, n)
                a, b, c = (rng.randint(1, 6) for _ in range(3))
                for vectors in (codes, [A] * a + [B] * b + [A] * c, [tuple([*v]) for v in codes]):
                    got = smooth(vectors, w)
                    assert got == _voted(vectors, w)
                    assert list(map(id, got)) == list(map(id, frame_smooth(vectors, w)))


def _runs_and_glitches(rng, n):
    """n codes: long runs, one-frame glitches and alternations that tie a vote.

    Equal codes are built afresh, so equal vectors are not one object.
    """
    codes = []
    while len(codes) < n:
        roll = rng.random()
        if roll < 0.5:
            codes += [(rng.randint(1, 3),)] * rng.randint(1, 20)
        elif roll < 0.8:
            codes.append((rng.randint(1, 3),))
        else:
            codes += [A, B] * rng.randint(1, 4)
    return codes[:n]


def _voted(vectors, w):
    """smooth with a Counter vote in every window, runs or not."""
    n = len(vectors)
    if w == 1:
        return list(vectors)
    width, half, out = min(w, n), w // 2, []
    for i in range(n):
        lo = min(max(i - half, 0), n - width)
        top = Counter(vectors[lo : lo + width]).most_common()
        tie = len(top) > 1 and top[0][1] == top[1][1]
        out.append(vectors[i] if tie else top[0][0])
    return out


class TestRunWalks:
    """smooth, segment and rarity_weights walk runs; their per-frame references
    (run_reference) give the same results on every module's view of the
    built-in recordings and on random streams."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCRIPTS))
    def test_builtin_recordings(self, name, seed, registry):
        ar = align_recording(generate_recording(BUILTIN_SCRIPTS[name](), seed))
        assert_reduce_walks_match(encode_recording(ar, registry))
        for kind in MODULE_KINDS:
            assert_reduce_walks_match(encode_recording(ar, registry, kind))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_streams(self, seed):
        rng = random.Random(seed)
        for n in (0, 1, 2, 3, 5, rng.randint(8, 300)):
            codes = _runs_and_glitches(rng, n)
            shared = {v: (v[0], v[0] % 2, 0) for v in codes}
            assert_reduce_walks_match([shared[v] for v in codes])
            assert_reduce_walks_match([(v[0], v[0] % 2, 0) for v in codes])


class TestSegment:
    def test_run_length_with_chronological_ids(self):
        segs = segment(stream([A, A, B, A]))
        assert [(s.id, s.start_idx, s.end_idx, s.vector) for s in segs] == [
            (0, 0, 1, A),
            (1, 2, 2, B),
            (2, 3, 3, A),
        ]

    def test_single_run(self):
        segs = segment(stream([A, A, A]))
        assert len(segs) == 1 and segs[0].length == 3

    def test_empty(self):
        assert segment([]) == []


class TestClipDedup:
    def test_clip_trims_only_long_segments(self):
        segs = segment(stream([A] * 5 + [B] * 2))
        out = clip(segs, 3)
        assert (out[0].start_idx, out[0].end_idx) == (0, 2)
        assert (out[1].start_idx, out[1].end_idx) == (5, 6)

    def test_clip_validates(self):
        with pytest.raises(ValueError, match="at least 1"):
            clip([], 0)

    def test_dedup_keeps_first_occurrence(self):
        segs = segment(stream([A, B, A]))
        out = dedup(segs)
        assert [s.id for s in out] == [0, 1]
        assert out[0].vector == A


class TestConfig:
    def test_defaults(self):
        cfg = ReductionConfig()
        assert (cfg.window_w, cfg.clip_n, cfg.warmup_frames) == (5, 45, 15)

    @pytest.mark.parametrize(
        "kwargs,err",
        [
            ({"window_w": 4}, "odd"),
            ({"window_w": 0}, "odd"),
            ({"clip_n": 0}, "at least 1"),
            ({"warmup_frames": -1}, "non-negative"),
        ],
    )
    def test_validation(self, kwargs, err):
        with pytest.raises(InputError, match=err):
            ReductionConfig(**kwargs)

    def test_segment_index_validation(self):
        with pytest.raises(InputError, match="bad indices"):
            Segment(0, start_idx=5, end_idx=4, vector=A, warmup_start_idx=5)
        with pytest.raises(InputError, match="bad indices"):
            Segment(0, start_idx=5, end_idx=9, vector=A, warmup_start_idx=6)


class TestReduce:
    def test_composition_hand_traced(self):
        cfg = ReductionConfig(window_w=1, clip_n=45, warmup_frames=10)
        segs, before_dedup = reduce_vectors(stream([A] * 20 + [B] * 50 + [A] * 5), cfg)
        assert [(s.id, s.start_idx, s.end_idx, s.warmup_start_idx) for s in segs] == [
            (0, 0, 19, 0),
            (1, 20, 64, 10),
        ]
        assert values([s.vector for s in segs]) == [A, B]
        # The trailing A run is segment 2 until dedup drops it.
        assert before_dedup == 3
        assert segs[1].length == 45
        assert segs[1].length_with_warmup == 55

    def test_reduce_recording_counts_segments_before_dedup(self, benchmark_aligned, registry):
        cfg = ReductionConfig()
        vectors = encode_recording(benchmark_aligned, registry)
        segs, before_dedup = reduce_recording(benchmark_aligned, vectors, cfg)
        assert (segs, before_dedup) == reduce_vectors(vectors, cfg)
        assert before_dedup == len(segment(smooth(vectors, cfg.window_w))) > len(segs)

    def test_reduce_recording_checks_vector_count(self, benchmark_aligned, registry):
        with pytest.raises(ValueError, match="one vector per frame"):
            reduce_recording(benchmark_aligned, [], ReductionConfig())

    def test_noisy_stream_reduction_is_exact(self, noisy_recording, registry):
        # 1500 aligned frames; run-length and dedup leave 945 of them.
        ar = align_recording(noisy_recording)
        assert len(ar) == 1500
        segs, _ = reduce_vectors(encode_recording(ar, registry), ReductionConfig())
        kept = sum(s.length for s in segs)
        assert Fraction(1) - Fraction(kept, len(ar)) == Fraction(37, 100)
        assert len(segs) == 181


class TestManifest:
    def test_round_trip(self):
        cfg = ReductionConfig(window_w=3, clip_n=10, warmup_frames=4)
        vectors = stream([A] * 6 + [B] * 3)
        segs, _ = reduce_vectors(vectors, cfg)
        times = [i * 10 for i in range(len(vectors))]
        doc = segments_to_manifest(segs, cfg, times, module="all")
        assert doc["config"]["module"] == "all"
        back, cfg2 = segments_from_manifest(doc)
        assert cfg2 == cfg
        assert [(s.id, s.start_idx, s.end_idx, s.warmup_start_idx, s.vector) for s in back] == [
            (s.id, s.start_idx, s.end_idx, s.warmup_start_idx, s.vector) for s in segs
        ]

    def test_bad_manifest(self):
        with pytest.raises(InputError, match="invalid segments manifest"):
            segments_from_manifest({"config": {}})
