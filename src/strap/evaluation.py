"""Fault verdicts and suite-quality metrics.

A replayed segment is compared frame-by-frame against the original recording
on vectorized outputs. The segment flags a fault only when strictly more
than 10 percent of its comparable (non warm-up) frames mismatch, which
absorbs the systematic noise of rate conversion and one-frame glitches.
Suite quality is summarized by reduction percentage, fault coverage, APFD,
and Top-K. Each ratio is one int true division of its exact numerator by its
exact denominator: correctly rounded, as float() of a Fraction is (it divides
its own numerator by its denominator), so it is the exact value's float, bit for bit.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Sequence

from .fileio import InputError
from .prioritization import PrioritizedPlan
from .reduction import Segment
from .schema import FrameVector

# A segment is a fault signal when mismatched/total exceeds this ratio
# strictly. Kept as an exact ratio; the comparison is integer arithmetic.
FAULT_MISMATCH_RATIO = Fraction(1, 10)

WHOLE_RECORDING_SEGMENT_ID = -1


@dataclass(frozen=True)
class FaultVerdict:
    """Mismatch tally for one segment under one replay."""

    segment_id: int
    mismatched_frames: int
    total_frames: int

    def __post_init__(self) -> None:
        if self.total_frames < 0 or not (0 <= self.mismatched_frames <= max(self.total_frames, 0)):
            raise InputError(
                f"bad mismatch tally {self.mismatched_frames}/{self.total_frames} "
                f"for segment {self.segment_id}"
            )

    @property
    def is_fault(self) -> bool:
        # Exactly at the threshold is not a fault; zero comparable frames never is.
        return (
            self.mismatched_frames * FAULT_MISMATCH_RATIO.denominator
            > self.total_frames * FAULT_MISMATCH_RATIO.numerator
        )


def compare_outputs(
    original: Sequence[FrameVector], replayed: Sequence[FrameVector], segment: Segment
) -> FaultVerdict:
    """Count frame pairs with unequal vectors over the comparable range."""
    if len(original) != len(replayed):
        raise ValueError(
            f"cannot compare {len(original)} original frames with {len(replayed)} replayed frames"
        )
    if len(original) != segment.length:
        raise ValueError(
            f"segment {segment.id} spans {segment.length} comparable frames, got {len(original)}"
        )
    mismatched = sum(1 for a, b in zip(original, replayed) if a != b)
    return FaultVerdict(segment.id, mismatched, len(original))


def reduction_pct(original_frames: int, reduced_frames: int) -> float:
    """1 - reduced/original."""
    if original_frames < 1:
        raise ValueError(f"original frame count must be positive, got {original_frames}")
    if not (0 <= reduced_frames <= original_frames):
        raise ValueError(
            f"reduced frame count {reduced_frames} outside [0, {original_frames}]"
        )
    return (original_frames - reduced_frames) / original_frames


def fault_coverage(reduced_detected: Iterable[str], full_detected: Iterable[str]) -> float:
    """Share of the full suite's detected faults that the reduced suite covers."""
    full = set(full_detected)
    if not full:
        return 1.0
    covered = set(reduced_detected) & full
    return len(covered) / len(full)


def apfd(n: int, fault_first_indices: Sequence[int], m: int) -> float:
    """Average percentage of faults detected.

    n is the plan length, fault_first_indices holds the 1-based plan position
    of the first segment detecting each fault, and m is the fault count.
    """
    if n < 1:
        raise ValueError(f"plan length must be positive, got {n}")
    if m < 1:
        raise ValueError("APFD is undefined with zero faults")
    if m != len(fault_first_indices):
        raise ValueError(f"m={m} but {len(fault_first_indices)} first-detection positions given")
    for tf in fault_first_indices:
        if not (1 <= tf <= n):
            raise ValueError(f"first-detection position {tf} outside [1, {n}]")
    return (2 * m * n - 2 * sum(fault_first_indices) + m) / (2 * m * n)


def _scorer(fault_sets: Mapping[int, frozenset[str] | set[str]]) -> Callable[[PrioritizedPlan], Any]:
    """evaluate_plan on fault_sets, their ids and fault count m taken once: a walk stops at its m-th fault."""
    ids, m = set(fault_sets), len(set().union(*fault_sets.values()))

    def score(plan: PrioritizedPlan) -> tuple[float | None, int | None]:
        if (order := set(plan.order)) != ids:
            if unknown := order - ids:
                raise InputError(f"plan orders unknown segment ids {sorted(unknown)}")
            raise InputError("fault sets cover segments missing from the plan")
        seen, firsts = set(), []  # firsts: the position where each fault is first detected
        for pos, seg_id in enumerate(plan.order, start=1):
            before = len(seen)
            seen.update(fault_sets[seg_id])
            firsts += [pos] * (len(seen) - before)
            if len(firsts) == m:
                break
        return (apfd(len(plan.order), firsts, m), firsts[0]) if m else (None, None)

    return score


def evaluate_plan(
    plan: PrioritizedPlan, fault_sets: Mapping[int, frozenset[str] | set[str]]
) -> tuple[float | None, int | None]:
    """APFD and Top-K of one plan against per-segment detected-fault sets.

    Faults are whatever ids appear in the fault sets; faults detected by no
    segment cannot appear there and are accounted separately by callers.
    Returns (None, None) when no segment detects any fault.
    """
    return _scorer(fault_sets)(plan)


def mean_defined(values: Iterable[float | None]) -> float | None:
    """Mean of the values that are not None, summed in order; None if there are none.

    The values are added one by one, left to right: from Python 3.12
    ``sum()`` compensates float rounding, so a report's last digits would
    depend on the interpreter.
    """
    total, n = 0, 0
    for v in values:
        if v is not None:
            total += v
            n += 1
    return total / n if n else None


def score_plans(
    plans_by_strategy: Mapping[str, Sequence[PrioritizedPlan]],
    fault_sets: Mapping[int, frozenset[str] | set[str]],
) -> tuple[dict[str, float | None], dict[str, float | None]]:
    """Mean APFD and Top-K of each strategy's plans; None where no plan detects a fault."""
    score = _scorer(fault_sets)
    apfd_by: dict[str, float | None] = {}
    topk_by: dict[str, float | None] = {}
    for name, plans in plans_by_strategy.items():
        scores = list(map(score, plans))
        apfd_by[name] = mean_defined(a for a, _ in scores)
        topk_by[name] = mean_defined(k for _, k in scores)
    return apfd_by, topk_by


def detections(
    full: Mapping[str, bool],
    flags: Mapping[str, Mapping[int, bool]],
    segment_ids: Iterable[int],
) -> tuple[dict[int, set[str]], float, dict[str, list[str]]]:
    """Which mutants the full and the reduced suite detect.

    full maps every mutant id to whether its whole-recording replay flags a
    fault, and flags maps mutant ids to whether each segment's verdict is a
    fault. Returns the detected-fault set of every segment (segment_ids,
    which may name segments no verdict covers, and every segment in flags),
    the reduced suite's fault coverage, and the sorted detected_full,
    detected_reduced and undetected mutant ids.
    """
    fault_sets: dict[int, set[str]] = {sid: set() for sid in segment_ids}
    for mid, by_segment in flags.items():
        for sid, is_fault in by_segment.items():
            hits = fault_sets.setdefault(sid, set())
            if is_fault:
                hits.add(mid)
    detected_full = {mid for mid, hit in full.items() if hit}
    detected_reduced = set().union(*fault_sets.values())
    return fault_sets, fault_coverage(detected_reduced, detected_full), {
        "detected_full": sorted(detected_full),
        "detected_reduced": sorted(detected_reduced),
        "undetected": sorted(set(full) - detected_full - detected_reduced),
    }


def scores_to_csv(
    apfd_by: Mapping[str, float | None], topk_by: Mapping[str, float | None]
) -> str:
    """Per-strategy summary table: strategy, top_k, apfd."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["strategy", "top_k", "apfd"])
    for strategy in sorted(apfd_by):
        a = apfd_by[strategy]
        k = topk_by.get(strategy)
        writer.writerow(
            [strategy, "" if k is None else k, "" if a is None else repr(a)]
        )
    return buf.getvalue()

