"""Prioritization strategies and plan serialization."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import pairwise
from types import SimpleNamespace

import pytest
from run_reference import frame_rarity_weights, outcome, rational_cc, rational_rd, rational_rsc, rational_sc

from strap import prioritization
from strap.benchmarks import benchmark_mutants
from strap.fileio import InputError
from strap.prioritization import (
    PrioritizedPlan,
    _rd_plans,
    build_plans,
    parse_strategies,
    plan_from_json,
    plan_to_csv,
    plan_to_json,
    prioritize_cc,
    prioritize_ch,
    prioritize_rd,
    prioritize_rsc,
    prioritize_sc,
    rarity_weights,
)
from strap.recording import align_recording
from strap.reduction import Segment
from strap.synth import MODULE_KINDS, prepare_recording, run_benchmark


def frames(rows):
    return [tuple(r) for r in rows]


def seg(sid, values):
    return Segment(sid, sid, sid, tuple(values), warmup_start_idx=sid)


FIXTURE = frames([(1, 0, 5), (1, 2, 0), (1, 0, 0), (1, 2, 5)])


class TestWeights:
    def test_raw_weights_are_inverse_frequencies(self):
        # Dimension 0 is non-zero in 4 of 4 frames, dimensions 1 and 2 in 2.
        w = rarity_weights(FIXTURE)
        assert tuple(x / w[0] for x in w) == (Fraction(1), Fraction(2), Fraction(2))
        assert frame_rarity_weights(FIXTURE, normalize=False) == (Fraction(1), Fraction(2), Fraction(2))

    def test_normalized_weights_sum_to_one(self):
        w = rarity_weights(FIXTURE)
        assert w == (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))
        assert sum(w) == 1

    def test_unused_dimension_gets_zero(self):
        w = rarity_weights(frames([(1, 0), (1, 0)]))
        assert w == (Fraction(1), Fraction(0))

    def test_all_zero_recording_stays_zero(self):
        w = rarity_weights(frames([(0,), (0,)]))
        assert w == (Fraction(0),)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one frame"):
            rarity_weights([])
        with pytest.raises(ValueError, match="inconsistent lengths"):
            rarity_weights([(1,), (1, 2)])

    def test_scores_hand_traced(self):
        segments = [seg(0, (1, 2, 0))]
        assert prioritize_rsc(segments, FIXTURE).scores == pytest.approx((3 / 5,))
        assert prioritize_rsc(segments, FIXTURE, rarity_mode="literal").scores == pytest.approx((1.0,))
        with pytest.raises(ValueError, match="unknown rarity mode"):
            prioritize_rsc(segments, FIXTURE, rarity_mode="harmonic")
        # The mode is checked before scoring, so no segments is no escape.
        with pytest.raises(ValueError, match="unknown rarity mode"):
            prioritize_rsc([], FIXTURE, rarity_mode="harmonic")


class TestStrategies:
    def test_rsc_orders_by_score_then_id(self):
        segments = [seg(0, (1, 0, 0)), seg(1, (1, 2, 0)), seg(2, (1, 0, 5))]
        plan = prioritize_rsc(segments, FIXTURE)
        # Scores: 1/5, 3/5, 3/5. Tie between ids 1 and 2 keeps id order.
        assert plan.order == (1, 2, 0)
        assert plan.scores == pytest.approx((0.6, 0.6, 0.2))

    def test_sc_counts_nonzero_dims(self):
        plan = prioritize_sc([seg(0, (1, 0, 5)), seg(1, (0, 0, 5)), seg(2, (1, 2, 5))])
        assert plan.order == (2, 0, 1)
        assert plan.scores == (3.0, 2.0, 1.0)

    def test_ch_is_ascending_ids(self):
        plan = prioritize_ch([seg(3, (1,)), seg(0, (2,)), seg(7, (3,))])
        assert plan.order == (0, 3, 7)
        assert plan.scores == (0.0, 0.0, 0.0)

    def test_rd_is_deterministic_per_seed(self):
        segments = [seg(i, (i,)) for i in range(6)]
        a = prioritize_rd(segments, seed=42, repetitions=5)
        b = prioritize_rd(segments, seed=42, repetitions=5)
        assert [p.order for p in a] == [p.order for p in b]
        assert all(sorted(p.order) == list(range(6)) for p in a)
        assert all(p.rng_seed == 42 for p in a)

    def test_rd_draws_sequentially_from_one_stream(self):
        segments = [seg(i, (i,)) for i in range(6)]
        plans = prioritize_rd(segments, seed=42, repetitions=3)
        rng = random.Random(42)
        for p in plans:
            order = list(range(6))
            rng.shuffle(order)
            assert p.order == tuple(order)

    def test_rd_validates_repetitions(self):
        with pytest.raises(ValueError, match="positive"):
            prioritize_rd([seg(0, (1,))], seed=0, repetitions=0)

    def test_cc_orders_by_count_descending(self):
        segments = [seg(0, (1,)), seg(1, (1,)), seg(2, (1,))]
        plan = prioritize_cc(segments, [5, 9, 5])
        assert plan.order == (1, 0, 2)
        assert plan.scores == (9.0, 5.0, 5.0)

    def test_cc_validates_length(self):
        with pytest.raises(InputError, match="one count per segment"):
            prioritize_cc([seg(0, (1,))], [1, 2])


class TestDispatch:
    def test_parse_strategies_upper_cases_and_drops_repeats(self):
        assert parse_strategies([" rd", "RSC", "Rd", "cc "]) == ["RD", "RSC", "CC"]
        with pytest.raises(InputError, match="no strategies given"):
            parse_strategies([])
        with pytest.raises(InputError, match="unknown strategy 'BFS'; choose from RSC, SC"):
            parse_strategies(["CH", "bfs"])

    def test_build_plans_one_list_per_strategy(self):
        segments = [seg(0, (1, 0, 5)), seg(1, (1, 2, 0)), seg(2, (1, 0, 0))]
        plans = build_plans(
            ["CC", "RD", "RSC", "SC", "CH"],
            segments,
            FIXTURE,
            seed=4,
            repetitions=3,
            rarity_mode="indicator",
            call_counts=[1, 7, 2],
        )
        assert list(plans) == ["CC", "RD", "RSC", "SC", "CH"]
        assert plans["RD"] == prioritize_rd(segments, 4, 3)
        assert plans["RSC"] == [prioritize_rsc(segments, FIXTURE)]
        assert plans["SC"] == [prioritize_sc(segments)]
        assert plans["CH"] == [prioritize_ch(segments)]
        assert plans["CC"] == [prioritize_cc(segments, [1, 7, 2])]

    def test_build_plans_needs_only_what_a_strategy_reads(self):
        plans = build_plans(
            ["CH"], [seg(0, (1,))], None, seed=0, repetitions=1, rarity_mode="indicator", call_counts=None
        )
        assert plans == {"CH": [PrioritizedPlan("CH", (0,), (0.0,))]}
        with pytest.raises(ValueError, match="unknown strategy 'rd'"):
            build_plans(
                ["rd"], [seg(0, (1,))], None, seed=0, repetitions=1, rarity_mode="indicator", call_counts=None
            )


class TestNormalizationInvariance:
    @pytest.mark.parametrize("mode", ["indicator", "literal"])
    def test_orderings_match_raw_weights(self, mode):
        rng = random.Random(7)
        for _ in range(50):
            n, q = rng.randint(2, 30), rng.randint(1, 8)
            fv = frames([[rng.choice([0, 0, 1, 2, 3]) for _ in range(q)] for _ in range(n)])
            segments = [
                seg(i, [rng.choice([0, 1, 2, 3]) for _ in range(q)]) for i in range(rng.randint(1, 9))
            ]
            raw = rational_rsc(segments, frame_rarity_weights(fv, normalize=False), mode)
            assert prioritize_rsc(segments, fv, mode).order == raw.order


def _random_case(rng):
    """Frame vectors and segments with values 0-9, few distinct vectors (so ties), and shuffled ids."""
    q = rng.randint(0, 9)
    pool = [tuple(rng.choice([0, 0, 0, 1, 2, 9]) for _ in range(q)) for _ in range(rng.randint(1, 6))]
    fv = [rng.choice(pool) for _ in range(rng.randint(1, 40))]
    if rng.random() < 0.15:
        fv = [(0,) * q] * len(fv)  # every weight 0
    ids = rng.sample(range(500), rng.randint(0, 30))
    return fv, [seg(i, rng.choice(pool + fv)) for i in ids]


class TestReference:
    """The integer scores and the inlined shuffle against the rational and rng.shuffle versions."""

    @pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
    @pytest.mark.parametrize("mode", ["indicator", "literal"])
    def test_rsc_equals_rational_scores(self, mode, normalize):
        def check(fv, segments):
            got = outcome(lambda: prioritize_rsc(segments, fv, mode))
            want = outcome(lambda: rational_rsc(segments, frame_rarity_weights(fv, normalize), mode))
            if normalize:
                assert got == want
            else:  # raw weights scale every score alike: the same order
                assert got[1] == want[1]

        rng = random.Random(f"{mode}-{normalize}")
        for _ in range(300):
            check(*_random_case(rng))
        # Many dimensions with coprime non-zero counts: a large common denominator.
        fv = [tuple(int(j < c) for c in range(2, 40)) for j in range(41)]
        check(fv, [seg(i, tuple(rng.choice([0, 1, 7]) for _ in range(38))) for i in range(50)])

    def test_rsc_errors_equal_the_rational_ones(self):
        w = frame_rarity_weights(FIXTURE)
        for segments in ([seg(0, (1, 2, 0)), seg(1, (1, 2))], [seg(0, (1,) * 4)], [seg(0, (1, 2, 0))] * 2):
            for mode in ("indicator", "literal"):
                got = outcome(lambda: prioritize_rsc(segments, FIXTURE, mode))
                assert got == outcome(lambda: rational_rsc(segments, w, mode))
                assert got[0] is InputError

    def test_sc_and_cc_equal_the_rational_scores(self):
        rng = random.Random(5)
        for _ in range(300):
            _, segments = _random_case(rng)
            counts = [rng.choice([0, 1, 2, 10**30]) for _ in segments]
            assert outcome(lambda: prioritize_sc(segments)) == outcome(lambda: rational_sc(segments))
            assert outcome(lambda: prioritize_cc(segments, counts)) == outcome(
                lambda: rational_cc(segments, counts)
            )
        twice = [seg(0, (1,)), seg(0, (2,))]
        assert outcome(lambda: prioritize_sc(twice)) == outcome(lambda: rational_sc(twice))
        assert outcome(lambda: prioritize_cc(twice, [1, 2])) == outcome(lambda: rational_cc(twice, [1, 2]))

    @pytest.mark.parametrize("seed", range(51))
    def test_rd_equals_rng_shuffle(self, seed):
        rng = random.Random(seed)
        for n in range(301):
            segments = [seg(i, (0,)) for i in rng.sample(range(1000), n)]
            assert prioritize_rd(segments, seed, 2) == rational_rd(segments, seed, 2), n
        segments = [seg(i, (0,)) for i in range(181)]
        assert prioritize_rd(segments, seed, 100) == rational_rd(segments, seed, 100)

    @pytest.mark.parametrize("copies", ["shared", "fresh"])
    def test_rarity_weights_equal_the_per_frame_count(self, copies):
        # Runs of one vector object, or of equal vectors that are each a fresh copy.
        rng = random.Random(copies)
        for _ in range(400):
            q = rng.randint(1, 6)
            pool = [tuple(rng.choice([0, 0, 1, 3]) for _ in range(q)) for _ in range(rng.randint(1, 4))]
            fv = [v for v in rng.choices(pool, k=rng.randint(1, 12)) for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.1:
                fv.insert(rng.randrange(len(fv) + 1), (1,) * rng.choice([q - 1, q + 1]))
            if copies == "fresh":
                fv = [tuple([*v]) for v in fv]
                assert len(set(map(id, fv))) == len(fv)
            assert outcome(lambda: rarity_weights(fv)) == outcome(lambda: frame_rarity_weights(fv))
        assert outcome(lambda: rarity_weights([])) == outcome(lambda: frame_rarity_weights([]))


class TestRdDraws:
    """prioritize_rd draws its plans once per run of calls with the same
    sorted ids, seed and repetitions, and returns each caller a list of its own."""

    def test_the_last_key_is_drawn_once(self):
        _rd_plans.cache_clear()
        a = prioritize_rd([seg(i, (i,)) for i in (5, 1, 3)], seed=7, repetitions=4)
        b = prioritize_rd([seg(i, (0,)) for i in (3, 5, 1)], seed=7, repetitions=4)
        assert a == b == rational_rd([seg(i, (0,)) for i in (1, 3, 5)], 7, 4)
        # One draw: the same frozen plans, each caller in a list of its own.
        assert a is not b and list(map(id, a)) == list(map(id, b))
        a.clear()
        assert len(prioritize_rd([seg(i, (0,)) for i in (1, 3, 5)], seed=7, repetitions=4)) == 4
        assert _rd_plans.cache_info().misses == 1
        # Another seed draws again, and the memo keeps only the last key.
        prioritize_rd([seg(i, (0,)) for i in (1, 3, 5)], seed=8, repetitions=4)
        prioritize_rd([seg(i, (0,)) for i in (1, 3, 5)], seed=7, repetitions=4)
        assert _rd_plans.cache_info().misses == 3

    def test_one_benchmark_run_draws_once_per_change_of_ids(self, noisy_recording, monkeypatch):
        draws = []
        rng = random.Random
        counted = SimpleNamespace(Random=lambda seed: draws.append(seed) or rng(seed))
        monkeypatch.setattr(prioritization, "random", counted)
        _rd_plans.cache_clear()
        run_benchmark(noisy_recording, benchmark_mutants(), strategies=("RD",))
        ar = align_recording(noisy_recording)
        ids = [sorted(s.id for s in prepare_recording(ar, kind).segments) for kind in MODULE_KINDS]
        # The prediction and planning views rank the same 181 segments.
        assert ids[MODULE_KINDS.index("prediction")] == ids[MODULE_KINDS.index("planning")]
        assert len(ids[MODULE_KINDS.index("planning")]) == 181
        assert len(draws) == 1 + sum(a != b for a, b in pairwise(ids)) == len(MODULE_KINDS) - 1


class TestPlanIO:
    def test_validation(self):
        with pytest.raises(InputError, match="unknown strategy"):
            PrioritizedPlan("XX", (0,), (0.0,))
        with pytest.raises(InputError, match="repeats"):
            PrioritizedPlan("CH", (0, 0), (0.0, 0.0))
        with pytest.raises(InputError, match="align"):
            PrioritizedPlan("CH", (0, 1), (0.0,))

    def test_json_round_trip(self):
        plan = prioritize_rd([seg(i, (i,)) for i in range(4)], seed=3, repetitions=1)[0]
        again = plan_from_json(plan_to_json(plan))
        assert again == plan

    def test_bad_json(self):
        with pytest.raises(InputError, match="invalid plan document"):
            plan_from_json({"strategy": "RSC"})

    def test_csv_shape(self):
        plan = PrioritizedPlan("SC", (4, 1), (2.5, 1.0))
        lines = plan_to_csv(plan).splitlines()
        assert lines[0] == "rank,segment_id,score"
        assert lines[1] == "1,4,2.5"
        assert lines[2] == "2,1,1.0"
