"""Fault verdicts, APFD, Top-K, coverage, and report serialization."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from run_reference import outcome, rational_apfd, rational_evaluate_plan

from strap.evaluation import (
    FAULT_MISMATCH_RATIO,
    WHOLE_RECORDING_SEGMENT_ID,
    FaultVerdict,
    apfd,
    compare_outputs,
    detections,
    evaluate_plan,
    fault_coverage,
    mean_defined,
    reduction_pct,
    score_plans,
    scores_to_csv,
)
from strap.fileio import InputError
from strap.prioritization import PrioritizedPlan
from strap.reduction import Segment


def vec(code):
    return (code,)


class TestFaultVerdict:
    @pytest.mark.parametrize(
        "mismatched,total,fault",
        [
            (1, 10, False),  # exactly 10% stays quiet
            (2, 10, True),
            (3, 30, False),
            (4, 30, True),
            (0, 5, False),
            (0, 0, False),  # nothing comparable, nothing to flag
            (1, 9, True),
        ],
    )
    def test_strict_ten_percent_threshold(self, mismatched, total, fault):
        assert FaultVerdict(0, mismatched, total).is_fault is fault

    def test_ratio_constant(self):
        assert FAULT_MISMATCH_RATIO.numerator == 1
        assert FAULT_MISMATCH_RATIO.denominator == 10
        assert WHOLE_RECORDING_SEGMENT_ID == -1

    def test_tally_validation(self):
        with pytest.raises(InputError, match="bad mismatch tally"):
            FaultVerdict(0, 5, 3)
        with pytest.raises(InputError, match="bad mismatch tally"):
            FaultVerdict(0, -1, 3)

    def test_compare_outputs_counts_value_mismatches(self):
        seg = Segment(4, 10, 13, vec(1), warmup_start_idx=10)
        original = [vec(1)] * 4
        replayed = [vec(1), vec(2), vec(1), vec(3)]
        v = compare_outputs(original, replayed, seg)
        assert (v.segment_id, v.mismatched_frames, v.total_frames) == (4, 2, 4)

    def test_compare_outputs_validates_lengths(self):
        seg = Segment(0, 0, 1, vec(1), warmup_start_idx=0)
        with pytest.raises(ValueError, match="cannot compare"):
            compare_outputs([vec(1)], [vec(1), vec(1)], seg)
        with pytest.raises(ValueError, match="spans 2 comparable frames"):
            compare_outputs([vec(1)], [vec(1)], seg)


class TestMetrics:
    def test_reduction_pct(self):
        assert reduction_pct(100, 30) == pytest.approx(0.7)
        assert reduction_pct(3, 3) == 0.0
        with pytest.raises(ValueError, match="positive"):
            reduction_pct(0, 0)
        with pytest.raises(ValueError, match="outside"):
            reduction_pct(10, 11)

    def test_fault_coverage(self):
        assert fault_coverage({"a", "b"}, {"a", "b", "c", "d"}) == pytest.approx(0.5)
        assert fault_coverage(set(), set()) == 1.0
        # Faults only the reduced side claims do not inflate coverage.
        assert fault_coverage({"a", "x"}, {"a", "b"}) == pytest.approx(0.5)

    def test_apfd_spot_values(self):
        assert apfd(1, [1], 1) == pytest.approx(0.5)
        assert apfd(5, [1, 3], 2) == pytest.approx(0.7)
        assert apfd(10, [1], 1) == pytest.approx(0.95)

    def test_apfd_validation(self):
        with pytest.raises(ValueError, match="plan length"):
            apfd(0, [], 1)
        with pytest.raises(ValueError, match="zero faults"):
            apfd(5, [], 0)
        with pytest.raises(ValueError, match="first-detection positions given"):
            apfd(5, [1], 2)
        with pytest.raises(ValueError, match="outside"):
            apfd(5, [6], 1)

    def test_top_k_is_first_detecting_position(self):
        plan = PrioritizedPlan("CH", (0, 1, 2, 3), (0.0,) * 4)
        fault_sets = {0: frozenset(), 1: frozenset(), 2: frozenset({"f"}), 3: frozenset({"g"})}
        assert evaluate_plan(plan, fault_sets)[1] == 3
        quiet = {sid: frozenset() for sid in plan.order}
        assert evaluate_plan(plan, quiet) == (None, None)

    def test_evaluate_plan_hand_traced(self):
        plan = PrioritizedPlan("CH", (1, 0, 2), (0.0, 0.0, 0.0))
        fault_sets = {0: frozenset({"f"}), 1: frozenset(), 2: frozenset()}
        # Fault "f" first fires at position 2 of 3: 1 - 2/3 + 1/6 = 0.5.
        a, k = evaluate_plan(plan, fault_sets)
        assert a == pytest.approx(0.5)
        assert k == 2

    def test_evaluate_plan_multiple_faults(self):
        plan = PrioritizedPlan("CH", (0, 1, 2, 3, 4), (0.0,) * 5)
        fault_sets = {
            0: frozenset({"x"}),
            1: frozenset(),
            2: frozenset({"y", "x"}),
            3: frozenset(),
            4: frozenset(),
        }
        a, k = evaluate_plan(plan, fault_sets)
        assert a == pytest.approx(0.7)  # positions [1, 3]
        assert k == 1

    def test_evaluate_plan_no_detection(self):
        plan = PrioritizedPlan("CH", (0, 1), (0.0, 0.0))
        assert evaluate_plan(plan, {0: frozenset(), 1: frozenset()}) == (None, None)

    def test_evaluate_plan_id_mismatch(self):
        plan = PrioritizedPlan("CH", (0, 5), (0.0, 0.0))
        with pytest.raises(InputError, match="unknown segment ids \\[5\\]"):
            evaluate_plan(plan, {0: frozenset()})
        with pytest.raises(InputError, match="missing from the plan"):
            evaluate_plan(plan, {0: set(), 5: set(), 9: set()})

    def test_mean_defined_skips_none_and_sums_in_order(self):
        assert mean_defined([None, None]) is None
        assert mean_defined([]) is None
        assert mean_defined([3, None, 1]) == 2.0
        # Summed left to right: 0.1 + 0.2 + 0.3 rounds differently from 0.3 + 0.2 + 0.1.
        assert mean_defined([0.1, 0.2, None, 0.3]) == (0.1 + 0.2 + 0.3) / 3
        # Not compensated as sum() is from Python 3.12: ten 0.1s add up to
        # 0.9999999999999999 one by one, not to 1.0.
        assert mean_defined([0.1] * 10) == 0.9999999999999999 / 10

    def test_score_plans_means_over_each_strategys_plans(self):
        fault_sets = {0: frozenset({"f"}), 1: frozenset(), 2: frozenset()}
        plans = {
            # Positions 1 and 3 of 3: APFD 5/6 and 1/6, Top-K 1 and 3.
            "RD": [PrioritizedPlan("RD", o, (0.0,) * 3) for o in ((0, 1, 2), (1, 2, 0))],
            "CH": [PrioritizedPlan("CH", (0, 1, 2), (0.0,) * 3)],
        }
        apfd_by, topk_by = score_plans(plans, fault_sets)
        assert apfd_by == {"RD": (5 / 6 + 1 / 6) / 2, "CH": 5 / 6}
        assert topk_by == {"RD": 2.0, "CH": 1.0}
        assert isinstance(topk_by["CH"], float)
        none_fire = {0: frozenset(), 1: frozenset(), 2: frozenset()}
        assert score_plans(plans, none_fire) == ({"RD": None, "CH": None}, {"RD": None, "CH": None})


def _fault_sets(rng, ids, shape):
    faults = [f"m{i}" for i in range(rng.randint(1, 25))]
    if shape == "empty":
        return {i: set() for i in ids}
    if shape == "everywhere":
        return {i: frozenset(faults) for i in ids}
    if shape == "last":
        # Only the segment a plan runs last detects anything; the others run first.
        return {i: set(faults) if i == ids[-1] else set() for i in ids}
    return {i: {f for f in faults if rng.random() < 0.1} for i in ids}


class TestReference:
    """APFD from one integer division and the walk that stops at its last new
    fault, against the Fraction APFD and the walk over the whole plan."""

    def test_apfd_equals_the_rational_one(self):
        rng = random.Random(0)
        cases = [(1, [1], 1), (10**6, [10**6] * 3, 3), (10**6, [1] * 50, 50), (7, [7], 1)]
        for _ in range(3000):
            n = rng.choice([rng.randint(1, 200), rng.randint(1, 10**6)])
            m = rng.randint(1, 40)
            cases.append((n, [rng.randint(1, n) for _ in range(m)], m))
        cases += [(0, [], 1), (5, [], 0), (5, [1], 2), (5, [6], 1), (5, [0], 1), (-1, [1], 1)]
        for n, firsts, m in cases:
            assert outcome(lambda: apfd(n, firsts, m)) == outcome(lambda: rational_apfd(n, firsts, m))

    @pytest.mark.parametrize("shape", ["empty", "everywhere", "last", "random"])
    def test_plans_score_as_the_full_walk(self, shape):
        rng = random.Random(shape)
        for _ in range(200):
            ids = rng.sample(range(400), rng.randint(1, 60))
            fault_sets = _fault_sets(rng, ids, shape)
            plans = [PrioritizedPlan("RD", tuple(rng.sample(ids, len(ids))), (0.0,) * len(ids))
                     for _ in range(rng.randint(1, 4))]
            if shape == "last":
                plans.append(PrioritizedPlan("CH", tuple(ids), (0.0,) * len(ids)))
            want = [rational_evaluate_plan(p, fault_sets) for p in plans]
            assert [outcome(lambda: evaluate_plan(p, fault_sets)) for p in plans] == outcome(lambda: want)
            apfd_by, topk_by = score_plans({"RD": plans}, fault_sets)
            assert outcome(lambda: apfd_by["RD"]) == outcome(lambda: mean_defined(a for a, _ in want))
            assert outcome(lambda: topk_by["RD"]) == outcome(lambda: mean_defined(k for _, k in want))

    def test_id_errors_equal_the_full_walk(self):
        plan = PrioritizedPlan("CH", (0, 5, 3), (0.0,) * 3)
        for fault_sets in (
            {0: {"a"}, 3: set()},  # 5 unknown
            {0: {"a"}},  # 5 and 3 unknown
            {0: set(), 5: {"b"}, 3: set(), 9: {"a"}},  # 9 missing from the plan
            {0: set(), 2: set(), 3: set()},  # 5 unknown, 2 missing
            {},
        ):
            got = outcome(lambda: evaluate_plan(plan, fault_sets))
            assert got == outcome(lambda: rational_evaluate_plan(plan, fault_sets))
            assert got[0] is InputError
            assert outcome(lambda: score_plans({"CH": [plan]}, fault_sets)) == got

    def test_reduction_and_coverage_equal_the_rational_ones(self):
        for original in (1, 3, 7, 2400, 24000, 10**6 + 3):
            for reduced in {0, 1, original // 3, original - 1, original}:
                assert reduction_pct(original, reduced).hex() == float(1 - Fraction(reduced, original)).hex()
        for full in range(1, 40):
            for covered in range(full + 1):
                got = fault_coverage(range(covered), range(full))
                assert got.hex() == float(Fraction(covered, full)).hex()


class TestDetections:
    def test_fault_sets_coverage_and_lists(self):
        flags = {
            "both": {0: True, 1: False},
            "reduced-only": {0: False, 1: True},
            "full-only": {0: False, 1: False},
            "none": {0: False, 1: False},
        }
        full = {"both": True, "reduced-only": False, "full-only": True, "none": False}
        fault_sets, coverage, lists = detections(full, flags, [2, 0])
        assert fault_sets == {0: {"both"}, 1: {"reduced-only"}, 2: set()}
        assert coverage == 0.5
        assert lists == {
            "detected_full": ["both", "full-only"],
            "detected_reduced": ["both", "reduced-only"],
            "undetected": ["none"],
        }

    def test_no_mutants(self):
        assert detections({}, {}, [3]) == (
            {3: set()}, 1.0, {"detected_full": [], "detected_reduced": [], "undetected": []}
        )


class TestReportIO:
    def test_csv_shape(self):
        lines = scores_to_csv({"RSC": 0.9, "RD": None}, {"RSC": 1, "RD": None}).splitlines()
        assert lines[0] == "strategy,top_k,apfd"
        assert lines[1] == "RD,,"
        assert lines[2] == "RSC,1,0.9"
