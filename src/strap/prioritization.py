"""Segment prioritization strategies.

The main strategy ranks segments by rarity-weighted semantic coverage: a
dimension that is non-zero in few frames of the recording carries more
weight, and a segment scores the sum of the weights of its non-zero
dimensions. Baselines: plain coverage counts, chronological order, seeded
random permutations, and call-count ordering.

Weights are exact rationals, so orderings are reproducible and invariant
under weight normalization. Scores are integer numerators over one common
denominator D (RSC: the lcm of the weights' denominators; SC and CC: 1).
Plans sort on the numerators and report numerator / D: int true division is
correctly rounded, as float() of a Fraction is (it divides its own numerator
by its denominator), so each score is the exact rational's float, bit for bit.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice, pairwise
from operator import is_not, mul, neg
from typing import Any, Iterable, Sequence

from .fileio import InputError, check
from .reduction import Segment
from .schema import FrameVector

STRATEGIES = ("RSC", "SC", "CH", "RD", "CC")

RARITY_MODES = ("indicator", "literal")


@dataclass(frozen=True)
class PrioritizedPlan:
    """An execution order over segment ids with per-position scores."""

    strategy: str
    order: tuple[int, ...]
    scores: tuple[float, ...]
    rng_seed: int | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise InputError(f"unknown strategy {self.strategy!r}")
        if len(self.order) != len(set(self.order)):
            raise InputError("plan order repeats a segment id")
        if len(self.scores) != len(self.order):
            raise InputError("plan scores must align with plan order")


def rarity_weights(frame_vectors: Sequence[FrameVector]) -> tuple[Fraction, ...]:
    """Weight each dimension by N / (frames where it is non-zero), scaled to sum to 1.

    Dimensions that are zero in every frame get weight 0, and an all-zero
    recording keeps all weights at 0.
    """
    if not frame_vectors:
        raise ValueError("rarity weights need at least one frame vector")
    n = len(frame_vectors)
    q = len(frame_vectors[0])
    # Each run of one vector object counts once, by its length.
    starts = compress(range(1, n), map(is_not, islice(frame_vectors, 1, None), frame_vectors))
    counts = [0] * q
    for a, b in pairwise([0, *starts, n]):
        v = frame_vectors[a]
        if len(v) != q:
            raise ValueError("frame vectors have inconsistent lengths")
        for i in compress(range(q), v):
            counts[i] += b - a
    raw = [Fraction(n, c) if c else Fraction(0) for c in counts]
    total = sum(raw)
    return tuple([w / total for w in raw] if total else raw)


def _ranked_plan(
    strategy: str, segments: Sequence[Segment], numerators: Iterable[int], d: int = 1
) -> PrioritizedPlan:
    # Descending score; chronological segment id breaks ties.
    ranked = sorted(zip(map(neg, numerators), (s.id for s in segments)))
    return PrioritizedPlan(
        strategy=strategy,
        order=tuple(sid for _, sid in ranked),
        scores=tuple(-n / d for n, _ in ranked),
    )


def prioritize_rsc(
    segments: Sequence[Segment], frame_vectors: Sequence[FrameVector], rarity_mode: str = "indicator"
) -> PrioritizedPlan:
    """Rank segments by rarity-weighted semantic coverage.

    The weights come from the full recording's frame vectors (rarity_weights).
    """
    if rarity_mode not in RARITY_MODES:
        raise ValueError(f"unknown rarity mode {rarity_mode!r}")
    weights = rarity_weights(frame_vectors)
    d = math.lcm(*(w.denominator for w in weights))
    units = [w.numerator * (d // w.denominator) for w in weights]
    numerators = []
    for s in segments:
        if len(s.vector) != len(units):
            raise InputError(f"vector length {len(s.vector)} does not match {len(units)} weights")
        terms = map(mul, units, s.vector) if rarity_mode == "literal" else compress(units, s.vector)
        numerators.append(sum(terms))
    return _ranked_plan("RSC", segments, numerators, d)


def prioritize_sc(segments: Sequence[Segment]) -> PrioritizedPlan:
    """Rank segments by their count of non-zero dimensions."""
    return _ranked_plan("SC", segments, [len(s.vector) - s.vector.count(0) for s in segments])


def prioritize_ch(segments: Sequence[Segment]) -> PrioritizedPlan:
    """Chronological order: ascending segment id."""
    order = tuple(sorted(s.id for s in segments))
    return PrioritizedPlan("CH", order, (0.0,) * len(order))


def prioritize_rd(
    segments: Sequence[Segment], seed: int, repetitions: int = 100
) -> list[PrioritizedPlan]:
    """Seeded uniform random permutations, one plan per repetition.

    Uses CPython's Mersenne Twister via random.Random so a (seed,
    repetitions) pair replays the same plan sequence bit-exactly. The loop is
    random.Random.shuffle (3.10 to 3.13) with its _randbelow inlined: i swaps with
    j = getrandbits(k), k the bit length of i + 1, redrawn while j > i; the test
    test_prioritization.py::TestReference pins it to rng.shuffle. The plans
    are drawn once per distinct (ids, seed, repetitions) in a row (_rd_plans):
    the module views of one run often hold the same ids.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    return list(_rd_plans(tuple(sorted(s.id for s in segments)), seed, repetitions))


@functools.lru_cache(maxsize=1)
def _rd_plans(base: tuple[int, ...], seed: int, repetitions: int) -> tuple[PrioritizedPlan, ...]:
    # prioritize_rd's plans for the last key only; callers share the frozen plans.
    getrandbits = random.Random(seed).getrandbits
    steps = [(i, (i + 1).bit_length()) for i in range(len(base) - 1, 0, -1)]
    scores = (0.0,) * len(base)
    plans = []
    for _ in range(repetitions):
        order = list(base)
        for i, k in steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
        plans.append(PrioritizedPlan("RD", tuple(order), scores, rng_seed=seed))
    return tuple(plans)


def prioritize_cc(segments: Sequence[Segment], call_counts: Sequence[int]) -> PrioritizedPlan:
    """Rank segments by call counts of the changed functions, descending."""
    if len(call_counts) != len(segments):
        raise InputError(
            f"{len(call_counts)} call counts for {len(segments)} segments; one count per segment required"
        )
    return _ranked_plan("CC", segments, call_counts)


def parse_strategies(names: Iterable[str]) -> list[str]:
    """Upper-cased strategy names in first-seen order; InputError on none or an unknown one."""
    out: list[str] = []
    for raw in names:
        name = raw.strip().upper()
        if name not in STRATEGIES:
            raise InputError(f"unknown strategy {name!r}; choose from {', '.join(STRATEGIES)}")
        if name not in out:
            out.append(name)
    if not out:
        raise InputError("no strategies given")
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
