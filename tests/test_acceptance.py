"""Acceptance checklist for the whole pipeline.

Each test prints one `[criterion N] PASS|FAIL` line (echoed again in the
terminal summary) and asserts the stated threshold. Thresholds are part of
the contract; do not loosen them to make a run green.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from conftest import frames_of, recording_of

from strap.benchmarks import (
    benchmark_mutants,
    benchmark_script,
    noisy_prediction_script,
    rare_fault_mutants,
)
from strap.evaluation import FaultVerdict, apfd, evaluate_plan, reduction_pct
from strap.prioritization import prioritize_rd, prioritize_rsc, rarity_weights
from strap.recording import Channel, Message, MessageKind, Recording, align_recording, dump_recording_jsonl
from strap.reduction import ReductionConfig, Segment, clip, dedup, reduce_vectors, segment, smooth
from strap.schema import default_registry, encode_recording
from strap.synth import Mutant, generate_recording, run_benchmark, run_regression

RESULTS: list[tuple[int, str, bool]] = []


def check(num: int, desc: str, ok: bool) -> None:
    RESULTS.append((num, desc, ok))
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _random_multirate_recording(rng: random.Random) -> Recording:
    kinds = list(MessageKind)
    channels = {}
    for ci in range(rng.randint(2, 5)):
        name = f"ch{ci}"
        kind = rng.choice(kinds)
        # A shared t=0 message guarantees every channel overlaps whichever
        # channel ends up as the reference grid.
        times = {0}
        period = rng.randint(30, 300)
        t = 0
        for _ in range(rng.randint(5, 60)):
            t += rng.randint(1, period)
            times.add(t)
        msgs = tuple(Message(name, t, kind, {"n": t}) for t in sorted(times))
        channels[name] = Channel(name, kind, msgs)
    return Recording(channels)


def test_alignment_laws():
    rng = random.Random(1311)
    start = time.perf_counter()
    for _ in range(200):
        rec = _random_multirate_recording(rng)
        ar = align_recording(rec)
        names = set(rec.channels)
        frames = frames_of(ar)
        assert all(set(f.messages) == names for f in frames)
        assert all(len(f.messages) == len(names) for f in frames)
        times = [f.t_ns for f in frames]
        assert all(a < b for a, b in zip(times, times[1:]))
        once = dump_recording_jsonl(recording_of(frames_of(ar)))
        twice = dump_recording_jsonl(recording_of(frames_of(align_recording(recording_of(frames_of(ar))))))
        assert once == twice
    elapsed = time.perf_counter() - start
    check(
        1,
        f"alignment laws hold on 200 random multi-rate recordings in {elapsed:.2f}s (< 10s)",
        elapsed < 10.0,
    )


def test_single_frame_glitch_removal():
    base = (1, 2)
    glitch = (9, 9)
    ok = True
    for pos in range(100):
        stream = [base] * 100
        stream[pos] = glitch
        out = smooth(stream, 3)
        ok = ok and all(v == base for v in out)
    check(2, "w=3 smoothing removes a 1-frame glitch at every position of a 100-frame stream", ok)


def test_segmentation_partition_laws():
    rng = random.Random(1312)
    for _ in range(500):
        n = rng.randint(1, 40)
        dims = rng.randint(1, 4)
        vectors = [
            tuple(rng.randint(0, 2) for _ in range(dims)) for _ in range(n)
        ]
        segs = segment(vectors)
        covered = [i for s in segs for i in range(s.start_idx, s.end_idx + 1)]
        assert covered == list(range(n))
        for s in segs:
            assert all(vectors[i] == s.vector for i in range(s.start_idx, s.end_idx + 1))
        for a, b in zip(segs, segs[1:]):
            assert a.vector != b.vector
        clip_n = rng.randint(1, 10)
        deduped = dedup(clip(segs, clip_n))
        remaining = [s.vector for s in deduped]
        assert len(remaining) == len(set(remaining))
        assert all(s.length <= clip_n for s in deduped)
    check(3, "segmentation partition laws hold on 500 random vector streams", True)


def test_reduction_thresholds():
    start = time.perf_counter()
    registry = default_registry()
    results = {}
    for label, script, floor in (
        ("benchmark", benchmark_script(), 0.70),
        ("noisy", noisy_prediction_script(), 0.30),
    ):
        ar = align_recording(generate_recording(script, seed=0))
        segs, _ = reduce_vectors(encode_recording(ar, registry), ReductionConfig())
        kept = sum(s.length for s in segs)
        results[label] = (reduction_pct(len(ar), kept), floor)
    elapsed = time.perf_counter() - start
    ok = all(pct >= floor for pct, floor in results.values()) and elapsed < 30.0
    check(
        4,
        "reduction {:.4f} >= 0.70 on the 2400-frame benchmark, {:.4f} >= 0.30 on the noisy "
        "stream, in {:.1f}s (< 30s)".format(results["benchmark"][0], results["noisy"][0], elapsed),
        ok,
    )


def test_fault_coverage_floor(benchmark_recording):
    start = time.perf_counter()
    report = run_benchmark(benchmark_recording, benchmark_mutants(), seed=0, repetitions=100)
    elapsed = time.perf_counter() - start
    detected = len(report["details"]["detected_full"])
    ok = report["fault_coverage"] >= 0.95 and elapsed < 120.0
    check(
        5,
        f"reduced suite covers {report['fault_coverage']:.3f} of the {detected} full-replay "
        f"detections across 20 mutants in {elapsed:.1f}s (>= 0.95, < 2min)",
        ok,
    )


def test_apfd_matches_plan_walk_oracle():
    rng = random.Random(1313)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 8)
        m = rng.randint(1, 4)
        firsts = sorted(rng.randint(1, n) for _ in range(m))
        walked = sum(
            sum(1 for tf in firsts if tf <= pos) / m for pos in range(1, n + 1)
        ) / n - 1 / (2 * n)
        worst = max(worst, abs(apfd(n, firsts, m) - walked))
    check(6, f"closed-form value matches the plan-walking oracle within 1e-12 on 1000 instances (worst {worst:.2e})", worst <= 1e-12)


def test_apfd_spot_values():
    ok = (
        apfd(1, [1], 1) == 0.5
        and apfd(5, [1, 3], 2) == 0.7
        and apfd(10, [1], 1) == 0.95
    )
    check(7, "fault-position spot values are exact: 0.5, 0.7, 0.95", ok)


def test_random_baseline_calibration(benchmark_aligned):
    vectors = encode_recording(benchmark_aligned, default_registry())
    segments, _ = reduce_vectors(vectors, ReductionConfig())
    rng = random.Random(2024)
    fault_sets: dict[int, set[str]] = {s.id: set() for s in segments}
    for k, sid in enumerate(rng.sample([s.id for s in segments], 3)):
        fault_sets[sid].add(f"fault{k}")
    plans = prioritize_rd(segments, seed=0, repetitions=100)
    scores = [evaluate_plan(p, fault_sets)[0] for p in plans]
    mean = sum(scores) / len(scores)
    check(
        8,
        f"mean shuffled-order quality over 100 seeds with 3 scattered faults is {mean:.4f} "
        "(within [0.45, 0.55])",
        0.45 <= mean <= 0.55,
    )


def test_rarity_prioritization_beats_baselines(rare_recording):
    report = run_regression(
        rare_recording, "traffic_light", rare_fault_mutants(), seed=0, repetitions=100
    )
    rsc, rd, ch = report["apfd"]["RSC"], report["apfd"]["RD"], report["apfd"]["CH"]
    rsc_k, ch_k = report["top_k"]["RSC"], report["top_k"]["CH"]
    ok = rsc > rd and rsc > ch and rsc_k <= ch_k
    check(
        9,
        f"rarity-weighted ranking wins on the rare-fault benchmark: APFD {rsc:.4f} > "
        f"random {rd:.4f} and > chronological {ch:.4f}; Top-K {rsc_k:.0f} <= {ch_k:.0f}",
        ok,
    )


def test_weight_normalization_invariance():
    rng = random.Random(1314)
    for _ in range(500):
        n, q = rng.randint(2, 30), rng.randint(1, 8)
        fv = [
            tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(q))
            for _ in range(n)
        ]
        segments = [
            Segment(i, i, i, tuple(rng.choice([0, 1, 2, 3]) for _ in range(q)), i)
            for i in range(rng.randint(1, 9))
        ]
        raw = prioritize_rsc(segments, weights=rarity_weights(fv, normalize=False))
        norm = prioritize_rsc(segments, weights=rarity_weights(fv, normalize=True))
        assert raw.order == norm.order
    check(10, "raw and normalized rarity weights rank 500 random instances identically", True)


def test_strict_mismatch_threshold():
    ok = True
    for total in (10, 20, 30, 50, 100):
        at = total // 10
        ok = ok and not FaultVerdict(0, at, total).is_fault
        ok = ok and FaultVerdict(0, at + 1, total).is_fault
    ok = ok and Fraction(1, 10) == Fraction(1, 10)
    check(11, "exactly 10% mismatches stays quiet; one more mismatch flags a fault", ok)


def test_closed_loop_zero_faults(benchmark_clean_recording, noisy_recording, rare_recording):
    noop = {
        "traffic_light": "green_min_hue",
        "obstacle": "vehicle_min_wheels",
        "prediction": "stop_max_speed",
        "planning": "passing_mode",
    }
    worst = 0
    for rec_name, rec in (
        ("benchmark", benchmark_clean_recording),
        ("noisy", noisy_recording),
        ("rare", rare_recording),
    ):
        for kind, param in noop.items():
            mutant = Mutant(f"noop-{kind}", kind, param, "change_variable", 0.0)
            report = run_regression(rec, kind, [mutant], strategies=("CH",), repetitions=1)
            d = report["details"]
            assert d["detected_full"] == [], (rec_name, kind)
            assert d["detected_reduced"] == [], (rec_name, kind)
            rows = d["mutants"][mutant.id]["segments"].values()
            worst = max([worst, *(r["mismatched_frames"] for r in rows)])
    check(
        12,
        f"unmutated modules replayed over glitch-free recordings raise no fault verdicts "
        f"(max mismatched frames: {worst})",
        worst == 0,
    )
