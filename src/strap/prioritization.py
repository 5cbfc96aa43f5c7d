"""Segment prioritization strategies.

The main strategy ranks segments by rarity-weighted semantic coverage: a
dimension that is non-zero in few frames of the recording carries more
weight, and a segment scores the sum of the weights of its non-zero
dimensions. Baselines: plain coverage counts, chronological order, seeded
random permutations, and call-count ordering.

Weight and score arithmetic uses exact rationals so that orderings are
reproducible and invariant under weight normalization; scores are converted
to floats only at the reporting boundary.
"""

from __future__ import annotations

import csv
import io
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

from .fileio import check
from .reduction import Segment
from .schema import FrameVector

STRATEGIES = ("RSC", "SC", "CH", "RD", "CC")

RARITY_MODES = ("indicator", "literal")


@dataclass(frozen=True)
class RarityWeights:
    """Per-dimension weights derived from non-zero frame counts."""

    weights: tuple[Fraction, ...]


@dataclass(frozen=True)
class PrioritizedPlan:
    """An execution order over segment ids with per-position scores."""

    strategy: str
    order: tuple[int, ...]
    scores: tuple[float, ...]
    rng_seed: int | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if len(self.order) != len(set(self.order)):
            raise ValueError("plan order repeats a segment id")
        if len(self.scores) != len(self.order):
            raise ValueError("plan scores must align with plan order")


def rarity_weights(frame_vectors: Sequence[FrameVector], normalize: bool = True) -> RarityWeights:
    """Weight each dimension by N / (frames where it is non-zero).

    Dimensions that are zero in every frame get weight 0. With normalize=True
    the weights are scaled to sum to 1; an all-zero recording keeps all
    weights at 0.
    """
    if not frame_vectors:
        raise ValueError("rarity weights need at least one frame vector")
    n = len(frame_vectors)
    q = len(frame_vectors[0])
    # Each distinct vector once, by its frame count: the frames of a run share one.
    frames = Counter(frame_vectors)
    if any(len(v) != q for v in frames):
        raise ValueError("frame vectors have inconsistent lengths")
    counts = [0] * q
    for v, k in frames.items():
        for i, x in enumerate(v):
            if x != 0:
                counts[i] += k
    raw = [Fraction(n, c) if c else Fraction(0) for c in counts]
    if normalize:
        total = sum(raw)
        if total:
            raw = [w / total for w in raw]
    return RarityWeights(tuple(raw))


def _score_exact(values: Sequence[int], w: RarityWeights, mode: str) -> Fraction:
    if len(values) != len(w.weights):
        raise ValueError(f"vector length {len(values)} does not match {len(w.weights)} weights")
    total = Fraction(0)
    for x, wt in zip(values, w.weights):
        if x != 0:
            total += wt * x if mode == "literal" else wt
    return total


def _ranked_plan(
    strategy: str, segments: Sequence[Segment], exact_scores: Mapping[int, Fraction]
) -> PrioritizedPlan:
    # Descending score; chronological segment id breaks ties.
    ranked = sorted(segments, key=lambda s: (-exact_scores[s.id], s.id))
    return PrioritizedPlan(
        strategy=strategy,
        order=tuple(s.id for s in ranked),
        scores=tuple(float(exact_scores[s.id]) for s in ranked),
    )


def prioritize_rsc(
    segments: Sequence[Segment],
    frame_vectors: Sequence[FrameVector] | None = None,
    rarity_mode: str = "indicator",
    weights: RarityWeights | None = None,
) -> PrioritizedPlan:
    """Rank segments by rarity-weighted semantic coverage.

    Weights are computed from the full recording's frame vectors unless a
    precomputed RarityWeights is supplied.
    """
    if rarity_mode not in RARITY_MODES:
        raise ValueError(f"unknown rarity mode {rarity_mode!r}")
    if weights is None:
        if frame_vectors is None:
            raise ValueError("prioritize_rsc needs frame_vectors or precomputed weights")
        weights = rarity_weights(frame_vectors)
    scores = {s.id: _score_exact(s.vector, weights, rarity_mode) for s in segments}
    return _ranked_plan("RSC", segments, scores)


def prioritize_sc(segments: Sequence[Segment]) -> PrioritizedPlan:
    """Rank segments by their count of non-zero dimensions."""
    scores = {s.id: Fraction(sum(1 for x in s.vector if x != 0)) for s in segments}
    return _ranked_plan("SC", segments, scores)


def prioritize_ch(segments: Sequence[Segment]) -> PrioritizedPlan:
    """Chronological order: ascending segment id."""
    order = tuple(sorted(s.id for s in segments))
    return PrioritizedPlan("CH", order, tuple(0.0 for _ in order))


def prioritize_rd(
    segments: Sequence[Segment], seed: int, repetitions: int = 100
) -> list[PrioritizedPlan]:
    """Seeded uniform random permutations, one plan per repetition.

    Uses CPython's Mersenne Twister via random.Random so a (seed,
    repetitions) pair replays the same plan sequence bit-exactly.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    rng = random.Random(seed)
    base = sorted(s.id for s in segments)
    plans = []
    for _ in range(repetitions):
        order = list(base)
        rng.shuffle(order)
        plans.append(
            PrioritizedPlan("RD", tuple(order), tuple(0.0 for _ in order), rng_seed=seed)
        )
    return plans


def prioritize_cc(segments: Sequence[Segment], call_counts: Sequence[int]) -> PrioritizedPlan:
    """Rank segments by call counts of the changed functions, descending."""
    if len(call_counts) != len(segments):
        raise ValueError(
            f"{len(call_counts)} call counts for {len(segments)} segments; one count per segment required"
        )
    scores = {s.id: Fraction(c) for s, c in zip(segments, call_counts)}
    return _ranked_plan("CC", segments, scores)


def parse_strategies(names: Iterable[str]) -> list[str]:
    """Upper-cased strategy names in first-seen order; ValueError on none or an unknown one."""
    out: list[str] = []
    for raw in names:
        name = raw.strip().upper()
        if name not in STRATEGIES:
            raise ValueError(f"unknown strategy {name!r}; choose from {', '.join(STRATEGIES)}")
        if name not in out:
            out.append(name)
    if not out:
        raise ValueError("no strategies given")
    return out


def build_plans(
    strategies: Sequence[str],
    segments: Sequence[Segment],
    vectors: Sequence[FrameVector] | None,
    *,
    seed: int,
    repetitions: int,
    rarity_mode: str,
    call_counts: Sequence[int] | None,
) -> dict[str, list[PrioritizedPlan]]:
    """Plans of each named strategy: RD one per repetition, the others one each."""
    plans: dict[str, list[PrioritizedPlan]] = {}
    for name in strategies:
        if name == "RSC":
            plans[name] = [prioritize_rsc(segments, vectors, rarity_mode=rarity_mode)]
        elif name == "SC":
            plans[name] = [prioritize_sc(segments)]
        elif name == "CH":
            plans[name] = [prioritize_ch(segments)]
        elif name == "RD":
            plans[name] = prioritize_rd(segments, seed, repetitions)
        elif name == "CC":
            plans[name] = [prioritize_cc(segments, call_counts)]
        else:
            raise ValueError(f"unknown strategy {name!r}")
    return plans


def plan_to_json(plan: PrioritizedPlan) -> dict[str, Any]:
    return {
        "strategy": plan.strategy,
        "seed": plan.rng_seed,
        "order": list(plan.order),
        "scores": list(plan.scores),
    }


PLAN_FORMAT = {"strategy!": str, "order!": [int], "scores!": [float], "seed?": int}


def plan_from_json(doc: Any) -> PrioritizedPlan:
    check(doc, PLAN_FORMAT, "invalid plan document")
    return PrioritizedPlan(
        strategy=doc["strategy"],
        order=tuple(doc["order"]),
        scores=tuple(float(s) for s in doc["scores"]),
        rng_seed=doc.get("seed"),
    )


def plan_to_csv(plan: PrioritizedPlan) -> str:
    """CSV form: rank,segment_id,score with rank starting at 1."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rank", "segment_id", "score"])
    for rank, (seg_id, score) in enumerate(zip(plan.order, plan.scores), start=1):
        writer.writerow([rank, seg_id, repr(score)])
    return buf.getvalue()
