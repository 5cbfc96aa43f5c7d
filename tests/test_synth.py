"""Synthetic pipeline: generation, mutants, replay, regression harness."""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import random
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import pairwise, repeat
from operator import is_not

import pytest
from conftest import (
    Frame, comparable, frames_of, grid_of, messages, recording_of, script_to_json, swapped_vectors, tiled,
)
from message_reference import assert_aligns_as_messages, assert_loads_as_messages
from run_reference import assert_reduce_walks_match, memo_class_vectors, per_frame_generate_recording

from strap.benchmarks import (
    BUILTIN_MUTANTS,
    BUILTIN_SCRIPTS,
    benchmark_mutants,
    benchmark_script,
    noisy_prediction_script,
    rare_fault_mutants,
    rare_fault_script,
)
from strap.cli import _write_regression_artifacts
from strap.evaluation import WHOLE_RECORDING_SEGMENT_ID, compare_outputs
from strap import recording
from strap.fileio import check
from strap.recording import (
    NS_PER_SEC,
    RUN_READS,
    AlignedRecording,
    AlignmentError,
    Channel,
    Message,
    MessageKind,
    Recording,
    _frame_index,
    _frame_t_ns,
    _line_head,
    _payload_texts,
    align_recording,
    aligned_jsonl,
    dump_recording_jsonl,
    load_recording,
)
from strap.reduction import ReductionConfig, Segment, reduce_recording
from strap.schema import MODULE_KINDS, FrameEncoder, ModuleFilter, encode_recording
from strap.synth import (
    CHANNEL_OFFSETS_NS,
    MUTATION_OPERATORS,
    SCRIPT_FORMAT,
    Mutant,
    ScenarioScript,
    SceneEvent,
    SynthError,
    ToyModule,
    _ComputeMemo,
    _FrameClasses,
    _class_vectors,
    _frame_classes,
    _output_channel,
    apply_mutant,
    generate_recording,
    make_module,
    mutable_targets,
    mutants_from_json,
    mutants_to_json,
    prepare_recording,
    random_mutants,
    replay_segment,
    run_benchmark,
    run_prepared,
    run_regression,
    script_from_json,
    segment_ids_before_dedup,
)

RED_LIGHT = {"lights": [{"color": "red", "shape": "round", "orientation": "vertical"}]}
CAR_STOPPED = {"obstacles": [{"actor": "vehicle", "subtype": "car", "action": "stop"}]}


def script(frames=30, glitch=0.0, events=(), fps=15):
    return ScenarioScript(frames, fps=fps, glitch_rate=glitch, events=tuple(events))


def planner_inputs(lights=(), objects=(), tracks=()):
    return {
        MessageKind.TRAFFIC_LIGHT: {"lights": list(lights)},
        MessageKind.OBSTACLE: {"objects": list(objects)},
        MessageKind.PREDICTION: {"tracks": list(tracks)},
    }


class TestScript:
    @pytest.mark.parametrize(
        "kwargs,err",
        [
            ({"duration_frames": 0}, "duration_frames"),
            ({"duration_frames": 10, "fps": 0}, "fps"),
            ({"duration_frames": 10, "glitch_rate": 1.0}, "glitch_rate"),
            (
                {"duration_frames": 10, "events": (SceneEvent(10),)},
                "event frame 10 outside",
            ),
            ({"duration_frames": 2.5}, "invalid scenario script: duration_frames must be an integer, got 2.5"),
            ({"duration_frames": 10, "fps": True}, "invalid scenario script: fps must be an integer, got True"),
            ({"duration_frames": 10, "glitch_rate": "0"}, "glitch_rate must be a number"),
            (
                {"duration_frames": 10, "events": (SceneEvent("0"),)},
                "invalid scenario script: events[0].frame must be an integer, got '0'",
            ),
            (
                {"duration_frames": 10, "events": (SceneEvent(0, {"lightz": []}),)},
                "invalid scenario script: events[0].set has unknown key 'lightz'; "
                "expected one of lights, obstacles, objects",
            ),
            (
                {"duration_frames": 10, "events": (SceneEvent(0, {}, ("lightz",)),)},
                "invalid scenario script: events[0].unset[0] must be one of lights, obstacles, objects, got 'lightz'",
            ),
            (
                {"duration_frames": 10, "events": (SceneEvent(0, {"lights": {}}),)},
                "invalid scenario script: events[0].set.lights must be a list, got {}",
            ),
            (
                {"duration_frames": 10, "events": (SceneEvent(0, {"objects": [5]}),)},
                "invalid scenario script: events[0].set.objects[0] must be a string, got 5",
            ),
            (
                {"duration_frames": 10, "events": (SceneEvent(0, {"lights": [{"shape": "hex"}]}),)},
                "script light shape 'hex' is not canonical",
            ),
            (
                {"duration_frames": 10, "events": (SceneEvent(0, {"lights": [{"orientation": 7}]}),)},
                "invalid scenario script: events[0].set.lights[0].orientation must be a string, got 7",
            ),
            (
                {"duration_frames": 10, "events": (SceneEvent(0, {"obstacles": [{"actor": []}]}),)},
                "invalid scenario script: events[0].set.obstacles[0].actor must be a string, got []",
            ),
            (
                {"duration_frames": 10, "events": (SceneEvent(0, {"obstacles": [{"actor": "dragon"}]}),)},
                "script actor 'dragon'/None is not canonical",
            ),
            (
                {
                    "duration_frames": 10,
                    "events": (SceneEvent(0, {"obstacles": [{"actor": "pedestrian", "on_crosswalk": 1}]}),),
                },
                "invalid scenario script: events[0].set.obstacles[0].on_crosswalk must be true or false, got 1",
            ),
            (
                {"duration_frames": 10, "events": (SceneEvent(0, {"lights": [{"colour": "green"}]}),)},
                "invalid scenario script: events[0].set.lights[0] has unknown key 'colour'; "
                "expected one of color, shape, orientation",
            ),
            (
                {"duration_frames": 10, "events": (SceneEvent(0, {"obstacles": [{"speed": 3}]}),)},
                "invalid scenario script: events[0].set.obstacles[0] has unknown key 'speed'; "
                "expected one of actor, subtype, action, "
                "on_crosswalk, at_intersection",
            ),
        ],
    )
    def test_validation(self, kwargs, err):
        with pytest.raises(SynthError, match=re.escape(err)):
            ScenarioScript(**kwargs)

    def test_json_round_trip(self):
        s = script(50, glitch=0.25, events=[SceneEvent(3, RED_LIGHT, ("obstacles",))])
        again = script_from_json(script_to_json(s))
        assert again == s

    @pytest.mark.parametrize("doc", [
        script_to_json(noisy_prediction_script()),
        {"duration_frames": 10, "events": [{"frame": 0, "set": {"lights": 5}}]},
        {"duration_frames": 10, "events": {}},
    ], ids=["valid", "mistyped-set", "events-object"])
    def test_document_is_checked_once(self, doc, monkeypatch):
        checked = []

        def counting(value, fmt, *args):
            checked.append(fmt)
            return check(value, fmt, *args)

        monkeypatch.setattr("strap.synth.check", counting)
        try:
            script_from_json(doc)
        except SynthError:
            pass
        assert checked.count(SCRIPT_FORMAT) == 1

    def test_bad_document(self):
        with pytest.raises(SynthError, match="invalid scenario script: duration_frames is missing"):
            script_from_json({"fps": 15})
        with pytest.raises(SynthError, match=re.escape("events[0].unset must be a list, got 'lights'")):
            script_from_json({"duration_frames": 10, "events": [{"frame": 0, "unset": "lights"}]})


class TestMutantModel:
    def test_validation(self):
        with pytest.raises(SynthError, match="unknown module"):
            Mutant("m", "radar", "x", "change_constant", 1.0)
        with pytest.raises(SynthError, match="unknown operator"):
            Mutant("m", "planning", "x", "sql_injection", 1.0)
        with pytest.raises(SynthError, match="mutant 5: id must be a string, got 5"):
            Mutant(5, "planning", "x", "flip_condition")
        with pytest.raises(SynthError, match="target must be a string, got None"):
            Mutant("m", "planning", None, "flip_condition")
        with pytest.raises(SynthError, match="mutant 'm': delta must be a number, got '1.5'"):
            Mutant("m", "planning", "x", "change_constant", "1.5")

    @pytest.mark.parametrize("delta", ["1.5", True, None, [1.0]])
    def test_delta_must_be_a_json_number(self, delta):
        row = {"id": "m", "module": "planning", "target": "passing_mode", "operator": "change_constant"}
        assert mutants_from_json([{**row, "delta": 2}])[0].delta == 2.0
        with pytest.raises(SynthError, match=re.escape(f"invalid mutants document: [0].delta must be a number, got {delta!r}")):
            mutants_from_json([{**row, "delta": delta}])

    def test_json_round_trip(self):
        ms = [
            Mutant("a", "planning", "passing_mode", "change_constant", 0.0),
            Mutant("b", "traffic_light", "vertical_check", "flip_condition"),
        ]
        assert mutants_from_json(mutants_to_json(ms)) == ms

    def test_operator_names(self):
        assert set(MUTATION_OPERATORS) == {
            "replace_arith",
            "change_constant",
            "change_variable",
            "flip_condition",
        }


# Each module's parameter and condition -> classifier table, as it stood when
# every module spelled it out by hand.
PINNED_PARAM_FUNCTIONS = {
    "traffic_light": {
        "lit_min_brightness": "classify_color", "green_min_hue": "classify_color",
        "yellow_min_hue": "classify_color", "lit_check": "classify_color",
        "green_check": "classify_color", "yellow_check": "classify_color",
        "round_min_circularity": "classify_shape", "round_check": "classify_shape",
        "vertical_min_tilt": "classify_orientation", "vertical_check": "classify_orientation",
    },
    "obstacle": {
        "vehicle_min_wheels": "classify_actor", "cyclist_min_wheels": "classify_actor",
        "tricycle_min_wheels": "classify_actor", "motor_min_power": "classify_actor",
        "pedestrian_min_height": "classify_actor", "bus_min_length": "classify_actor",
        "truck_min_length": "classify_actor", "van_min_height": "classify_actor",
        "vehicle_check": "classify_actor", "cyclist_check": "classify_actor",
        "tricycle_check": "classify_actor", "motor_check": "classify_actor",
        "pedestrian_check": "classify_actor", "bus_check": "classify_actor",
        "truck_check": "classify_actor", "van_check": "classify_actor",
        "static_min_confidence": "filter_static", "static_check": "filter_static",
        "stop_max_speed": "classify_motion", "lateral_min": "classify_motion",
        "overtake_min_speed": "classify_motion", "cross_max_speed": "classify_motion",
        "stop_check": "classify_motion", "lateral_check": "classify_motion",
        "overtake_check": "classify_motion", "cross_check": "classify_motion",
    },
    "prediction": {
        "stop_max_speed": "predict_action", "lateral_min": "predict_action",
        "overtake_min_speed": "predict_action", "cross_max_speed": "predict_action",
        "stop_check": "predict_action", "lateral_check": "predict_action",
        "overtake_check": "predict_action", "cross_check": "predict_action",
    },
    "planning": {
        "sign_stop_range_m": "plan_step", "passing_mode": "plan_step",
        "red_light_stop": "plan_step", "stop_sign_stop": "plan_step",
        "yield_crossing": "plan_step", "lead_blocked": "plan_step",
    },
}
PINNED_CONDITIONS = {
    "traffic_light": {"lit_check", "green_check", "yellow_check", "round_check", "vertical_check"},
    "obstacle": {
        "vehicle_check", "cyclist_check", "tricycle_check", "motor_check", "pedestrian_check",
        "bus_check", "truck_check", "van_check", "static_check",
        "stop_check", "lateral_check", "overtake_check", "cross_check",
    },
    "prediction": {"stop_check", "lateral_check", "overtake_check", "cross_check"},
    "planning": {"red_light_stop", "stop_sign_stop", "yield_crossing", "lead_blocked"},
}


class TestClassifierTables:
    """PARAM_FUNCTIONS and CONDITIONS derive from each module's FUNCTIONS table."""

    @pytest.mark.parametrize("kind", MODULE_KINDS)
    def test_derived_tables_are_pinned(self, kind):
        module = make_module(kind)
        assert module.PARAM_FUNCTIONS == PINNED_PARAM_FUNCTIONS[kind]
        assert module.CONDITIONS == PINNED_CONDITIONS[kind]
        assert mutable_targets(kind) == {
            "params": sorted(set(PINNED_PARAM_FUNCTIONS[kind]) - PINNED_CONDITIONS[kind]),
            "conditions": sorted(PINNED_CONDITIONS[kind]),
        }

    def test_pinned_tables_cover_fifty_names(self):
        assert sum(len(t) for t in PINNED_PARAM_FUNCTIONS.values()) == 50

    def test_classifiers_are_the_call_log_keys(self, benchmark_recording):
        ar = align_recording(benchmark_recording)
        for kind in MODULE_KINDS:
            module = make_module(kind)
            counts = replay_segment(module, ar, 0, len(ar)).call_counts
            assert set(counts) == set(module.FUNCTIONS), kind

    def test_unread_parameter_fails_at_class_definition(self):
        with pytest.raises(TypeError, match=r"no classifier reads \['spare_gain'\]"):

            class Unread(ToyModule):
                DEFAULT_PARAMS = {"gain": 1.0, "spare_gain": 2.0}
                FUNCTIONS = {"classify": ("gain", "gain_check")}

    def test_name_under_two_classifiers_fails_at_class_definition(self):
        with pytest.raises(TypeError, match="listed under two classifiers"):

            class Twice(ToyModule):
                DEFAULT_PARAMS = {"gain": 1.0}
                FUNCTIONS = {"classify": ("gain",), "filter": ("gain",)}

    def test_conditions_are_the_names_that_are_not_parameters(self):
        class Derived(ToyModule):
            DEFAULT_PARAMS = {"gain": 1.0}
            FUNCTIONS = {"classify": ("gain", "gain_check"), "filter": ("keep_check",)}

        assert Derived.CONDITIONS == {"gain_check", "keep_check"}
        assert Derived.PARAM_FUNCTIONS == {
            "gain": "classify", "gain_check": "classify", "keep_check": "filter",
        }


class TestApplyMutant:
    def test_operators_touch_exactly_one_parameter(self):
        base = make_module("planning")
        cases = {
            "change_constant": ("sign_stop_range_m", 1.0, 1.0),
            "change_variable": ("sign_stop_range_m", -5.0, 25.0),
            "replace_arith": ("sign_stop_range_m", 2.0, 60.0),
        }
        for op, (target, delta, expected) in cases.items():
            mutated = apply_mutant(base, Mutant("m", "planning", target, op, delta))
            assert mutated.params[target] == expected, op
            assert mutated.params["passing_mode"] == base.params["passing_mode"]
            assert mutated.flipped == frozenset()
        # The source module never changes.
        assert base.params["sign_stop_range_m"] == 30.0

    def test_flip_condition(self):
        base = make_module("planning")
        mutated = apply_mutant(base, Mutant("m", "planning", "red_light_stop", "flip_condition"))
        assert mutated.flipped == frozenset({"red_light_stop"})
        assert mutated.params == base.params
        assert base.flipped == frozenset()

    def test_errors(self):
        base = make_module("planning")
        with pytest.raises(SynthError, match="targets module"):
            apply_mutant(base, Mutant("m", "obstacle", "bus_min_length", "change_constant", 1.0))
        with pytest.raises(SynthError, match="unknown parameter"):
            apply_mutant(base, Mutant("m", "planning", "warp_factor", "change_constant", 1.0))
        with pytest.raises(SynthError, match="unknown condition"):
            apply_mutant(base, Mutant("m", "planning", "warp_check", "flip_condition"))

    def test_mutable_targets(self):
        t = mutable_targets("planning")
        assert t["params"] == ["passing_mode", "sign_stop_range_m"]
        assert t["conditions"] == ["lead_blocked", "red_light_stop", "stop_sign_stop", "yield_crossing"]
        with pytest.raises(SynthError, match="unknown module kind"):
            mutable_targets("radar")

    def test_random_mutants_are_pinned_per_seed(self):
        # Pinned draws: a change to the draw order or the rounding alters
        # every seeded mutant set that synth-mutate writes.
        assert random_mutants("planning", 4, 11) == [
            Mutant("pl0", "planning", "yield_crossing", "flip_condition", 0.0),
            Mutant("pl1", "planning", "red_light_stop", "flip_condition", 0.0),
            Mutant("pl2", "planning", "sign_stop_range_m", "change_constant", 37.793),
            Mutant("pl3", "planning", "passing_mode", "change_constant", 0.893),
        ]
        for kind in MODULE_KINDS:
            for m in random_mutants(kind, 6, 5):
                apply_mutant(make_module(kind), m)
        with pytest.raises(SynthError, match="unknown module kind"):
            random_mutants("radar", 1, 0)


class TestPlannerRules:
    def test_rule_order(self):
        p = make_module("planning")
        assert p.compute(planner_inputs(lights=[{"color": "red"}])) == {
            "ego_action": "stop",
            "stop_cause": "traffic_light",
        }
        assert p.compute(planner_inputs(objects=["stop_sign"])) == {
            "ego_action": "stop",
            "stop_cause": "stop_sign",
        }
        assert p.compute(planner_inputs(tracks=[{"actor": "pedestrian", "action": "cross"}])) == {
            "ego_action": "stop",
            "stop_cause": None,
        }
        assert p.compute(planner_inputs(tracks=[{"actor": "vehicle", "action": "stop"}])) == {
            "ego_action": "overtake",
            "stop_cause": None,
        }
        assert p.compute(planner_inputs()) == {"ego_action": "cruise", "stop_cause": None}

    def test_flipped_red_light_rule_inverts_both_ways(self):
        p = apply_mutant(
            make_module("planning"), Mutant("m", "planning", "red_light_stop", "flip_condition")
        )
        assert p.compute(planner_inputs(lights=[{"color": "red"}]))["ego_action"] == "cruise"
        assert p.compute(planner_inputs()) == {"ego_action": "stop", "stop_cause": "traffic_light"}

    def test_cautious_passing_mode(self):
        p = apply_mutant(
            make_module("planning"), Mutant("m", "planning", "passing_mode", "change_constant", 0.0)
        )
        out = p.compute(planner_inputs(tracks=[{"actor": "vehicle", "action": "stop"}]))
        assert out["ego_action"] == "change_lane"

    def test_short_sign_range_ignores_sign(self):
        p = apply_mutant(
            make_module("planning"),
            Mutant("m", "planning", "sign_stop_range_m", "change_constant", 1.0),
        )
        assert p.compute(planner_inputs(objects=["stop_sign"]))["ego_action"] == "cruise"


class TestGeneration:
    def test_channel_rates_and_offsets(self):
        rec = generate_recording(script(300, events=[SceneEvent(0, {**RED_LIGHT, **CAR_STOPPED})]), 0)
        lengths = {name: len(c.times) for name, c in rec.channels.items()}
        assert lengths == {
            "image": 300,
            "localization": 300,
            "traffic_light": 300,
            "obstacle": 300,
            "prediction": 200,
            "planning": 300,
        }
        for name, off in CHANNEL_OFFSETS_NS.items():
            assert rec.channels[name].times[0] == off

    def test_determinism_and_seed_sensitivity(self):
        s = script(100, glitch=0.2, events=[SceneEvent(0, RED_LIGHT)])
        a = dump_recording_jsonl(generate_recording(s, 7))
        b = dump_recording_jsonl(generate_recording(s, 7))
        c = dump_recording_jsonl(generate_recording(s, 8))
        assert a == b
        assert a != c

    def test_pipeline_outputs_reflect_the_scene(self):
        scene = {
            **RED_LIGHT,
            "obstacles": [{"actor": "vehicle", "subtype": "car", "action": "stop"}],
            "objects": ["stop_sign"],
        }
        rec = generate_recording(script(3, events=[SceneEvent(0, scene)]), 0)
        assert rec.channels["traffic_light"].payloads[0] == {
            "lights": [{"color": "red", "shape": "round", "orientation": "vertical"}]
        }
        ob = rec.channels["obstacle"].payloads[0]
        assert ob["objects"] == ["stop_sign"]
        assert ob["obstacles"][0]["actor"] == "vehicle"
        assert ob["obstacles"][0]["subtype"] == "car"
        tracks = rec.channels["prediction"].payloads[0]["tracks"]
        assert tracks == [{"actor": "vehicle", "action": "stop"}]
        assert rec.channels["planning"].payloads[0] == {
            "ego_action": "stop",
            "stop_cause": "traffic_light",
        }

    def test_scene_events_fold_in_frame_order(self):
        rec = generate_recording(
            script(
                6,
                events=[
                    SceneEvent(0, RED_LIGHT),
                    SceneEvent(3, {}, unset=("lights",)),
                ],
            ),
            0,
        )
        colors = [p["lights"] for p in rec.channels["traffic_light"].payloads]
        assert colors[2] and not colors[3]

    def test_glitch_rate_zero_never_glitches(self):
        s = script(200, events=[SceneEvent(0, RED_LIGHT)])
        a = generate_recording(s, 1)
        b = generate_recording(s, 2)
        assert dump_recording_jsonl(a) == dump_recording_jsonl(b)

    def test_glitch_count_stays_in_binomial_bounds(self):
        # 3000 draws at 1%: [13, 47] covers more than +/- 3 sigma around 30.
        base = script(3000, events=[SceneEvent(0, RED_LIGHT)])
        clean = generate_recording(base, 123)
        noisy = generate_recording(
            ScenarioScript(3000, fps=15, glitch_rate=0.01, events=base.events), 123
        )
        diffs = sum(
            1
            for a, b in zip(clean.channels["traffic_light"].payloads, noisy.channels["traffic_light"].payloads)
            if a != b
        )
        assert 13 <= diffs <= 47

    def test_glitched_colors_stay_canonical(self):
        rec = generate_recording(script(300, glitch=0.05, events=[SceneEvent(0, RED_LIGHT)]), 5)
        seen = {
            p["lights"][0]["color"] for p in rec.channels["traffic_light"].payloads
        }
        assert seen <= {"red", "green", "yellow", "black"}
        assert "green" in seen  # glitches swap red with green


def _generated(rec):
    """What a generated recording is: its dump, each channel's times, and one
    identity partition over all payloads in channel-name order (equal texts
    of different kinds may be one object)."""
    ids: dict[int, int] = {}
    partition = [
        ids.setdefault(id(p), len(ids)) for name in sorted(rec.channels) for p in rec.channels[name].payloads
    ]
    times = {name: list(ch.times) for name, ch in rec.channels.items()}
    return dump_recording_jsonl(rec), times, partition


LIGHT_AND_CAR = {**RED_LIGHT, **CAR_STOPPED}
# Hand-made scripts: (duration, events).
HAND_MADE_SCRIPTS = {
    **{f"{n}-frames": (n, [SceneEvent(0, LIGHT_AND_CAR)]) for n in (1, 2, 3, 4)},
    "1-frame-bare": (1, []),
    "event-at-0-and-last": (9, [SceneEvent(0, RED_LIGHT), SceneEvent(8, CAR_STOPPED)]),
    "two-events-one-frame": (9, [SceneEvent(4, RED_LIGHT), SceneEvent(4, {"objects": ["stop_sign"]})]),
    "set-what-is-set": (9, [SceneEvent(0, RED_LIGHT), SceneEvent(5, RED_LIGHT)]),
    "set-then-unset": (12, [SceneEvent(2, LIGHT_AND_CAR), SceneEvent(7, {}, unset=("lights", "obstacles"))]),
    "unset-then-set-back": (12, [SceneEvent(0, RED_LIGHT), SceneEvent(3, {}, unset=("lights",)),
                                 SceneEvent(6, RED_LIGHT)]),
}


class TestChangeWiseGenerator:
    """generate_recording against the per-frame generator it replaced."""

    def assert_same(self, s, seed):
        assert _generated(generate_recording(s, seed)) == _generated(per_frame_generate_recording(s, seed))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", BUILTIN_SCRIPTS)
    def test_builtins(self, name, seed):
        self.assert_same(BUILTIN_SCRIPTS[name](), seed)

    @pytest.mark.parametrize("seed", range(2))
    def test_benchmark_tiled_ten_times(self, seed):
        self.assert_same(tiled(benchmark_script(), 10), seed)

    @pytest.mark.parametrize("rate", (0.0, 0.01, 0.25, 0.99))
    @pytest.mark.parametrize("name", BUILTIN_SCRIPTS)
    def test_builtins_at_glitch_rates(self, name, rate):
        self.assert_same(dataclasses.replace(BUILTIN_SCRIPTS[name](), glitch_rate=rate), 3)

    @pytest.mark.parametrize("rate", (0.0, 0.25, 0.99))
    @pytest.mark.parametrize("case", HAND_MADE_SCRIPTS)
    def test_hand_made(self, case, rate):
        frames, events = HAND_MADE_SCRIPTS[case]
        for seed in range(4):
            self.assert_same(script(frames, glitch=rate, events=events), seed)

    def test_computes_only_where_a_module_is_dirty(self, monkeypatch):
        """The 10x-tiled benchmark has 88,000 emissions; at most 5% compute."""
        calls = Counter()
        compute = _ComputeMemo.compute

        def counted(memo, inputs):
            calls[memo.module.kind] += 1
            return compute(memo, inputs)

        monkeypatch.setattr(_ComputeMemo, "compute", counted)
        s = tiled(benchmark_script(), 10)
        rec = generate_recording(s, 0)
        emissions = sum(len(rec.channels[kind].times) for kind in MODULE_KINDS)
        assert emissions == 88_000
        assert 0 < sum(calls.values()) <= 4_400, calls


class TestReplay:
    def make_aligned(self, n=60, events=()):
        return align_recording(generate_recording(script(n, events=list(events)), 0))

    def test_warmup_arithmetic(self):
        ar = self.make_aligned(60, [SceneEvent(0, RED_LIGHT)])
        result = replay_segment(make_module("planning"), ar, 0, len(ar), warmup_frames=15)
        assert len(result.messages) == 60 and result.warmup_frames == 15

    def test_prediction_holds_between_native_ticks(self):
        ar = self.make_aligned(
            9,
            [
                SceneEvent(0, CAR_STOPPED),
                SceneEvent(1, {"obstacles": [{"actor": "pedestrian", "action": "cross"}]}),
            ],
        )
        result = replay_segment(make_module("prediction"), ar, 0, len(ar))
        # Frame 1 is not a native prediction tick, so frame 0's tracks hold.
        assert result.messages[0].payload["tracks"] == [{"actor": "vehicle", "action": "stop"}]
        assert result.messages[1].payload == result.messages[0].payload
        assert result.messages[2].payload["tracks"] == [{"actor": "pedestrian", "action": "cross"}]

    def test_clean_replay_matches_recording(self):
        ar = self.make_aligned(45, [SceneEvent(0, {**RED_LIGHT, **CAR_STOPPED})])
        for kind in ("traffic_light", "obstacle", "prediction", "planning"):
            result = replay_segment(make_module(kind), ar, 0, len(ar))
            for out, frame in zip(result.messages, frames_of(ar)):
                assert out.payload == frame.messages[kind].payload, kind

    def test_call_counts(self):
        ar = self.make_aligned(10, [SceneEvent(0, RED_LIGHT)])
        result = replay_segment(make_module("traffic_light"), ar, 0, len(ar))
        assert result.call_counts["classify_color"] == 10
        assert result.call_counts["classify_shape"] == 10
        planner = replay_segment(make_module("planning"), ar, 0, len(ar))
        assert planner.call_counts["plan_step"] == 10

    def test_module_state_is_not_shared_between_replays(self):
        ar = self.make_aligned(10, [SceneEvent(0, RED_LIGHT)])
        module = make_module("traffic_light")
        replay_segment(module, ar, 0, len(ar))
        assert sum(module.call_log.values()) == 0

    def test_errors(self):
        ar = self.make_aligned(10)
        module = make_module("planning")
        for lo, hi in ((0, 0), (10, 12), (7, 3)):
            with pytest.raises(SynthError, match="at least one frame"):
                replay_segment(module, ar, lo, hi)
        with pytest.raises(SynthError, match="warmup_frames 10 outside"):
            replay_segment(module, ar, 0, len(ar), warmup_frames=10)
        with pytest.raises(SynthError, match="warmup_frames 3 outside"):
            replay_segment(module, ar, 7, 20, warmup_frames=3)
        lone = Frame(0, {"image": Message("image", 0, MessageKind.IMAGE_REF, {})})
        with pytest.raises(SynthError, match="needs channel kind"):
            replay_segment(module, grid_of([lone]), 0, 1)
        doubled = Frame(
            0,
            {
                "traffic_light": Message("traffic_light", 0, MessageKind.TRAFFIC_LIGHT, {}),
                "obstacle": Message("obstacle", 0, MessageKind.OBSTACLE, {}),
                "prediction": Message("prediction", 0, MessageKind.PREDICTION, {}),
                "plan_a": Message("plan_a", 0, MessageKind.PLANNING, {}),
                "plan_b": Message("plan_b", 0, MessageKind.PLANNING, {}),
            },
        )
        with pytest.raises(SynthError, match="2 channels of kind 'planning'"):
            replay_segment(module, grid_of([doubled]), 0, 1)


@pytest.fixture(scope="module")
def small_recording():
    events = [
        SceneEvent(0, {}),
        SceneEvent(40, {**RED_LIGHT, **CAR_STOPPED}),
        SceneEvent(80, {"lights": [{"color": "green"}]}, unset=("obstacles",)),
    ]
    return generate_recording(script(120, events=events), 0)


class TestRegression:
    def test_foreign_mutants_are_clean_without_replay(self, small_recording):
        mutants = [
            Mutant("own", "traffic_light", "green_min_hue", "change_constant", 0.0),
            Mutant("other", "planning", "red_light_stop", "flip_condition"),
        ]
        report = run_regression(small_recording, "traffic_light", mutants, repetitions=5)
        d = report["details"]
        assert d["mutants"]["own"]["detected_full"] is True
        assert d["mutants"]["other"]["detected_full"] is False
        assert d["mutants"]["other"]["detected_reduced"] is False
        assert "other" in d["undetected"]
        assert all(
            row["mismatched_frames"] == 0 for row in d["mutants"]["other"]["segments"].values()
        )

    def test_detection_bookkeeping(self, small_recording):
        mutants = [
            Mutant("loud", "planning", "red_light_stop", "flip_condition"),
            Mutant("quiet", "planning", "passing_mode", "change_variable", 0.0),
        ]
        report = run_regression(small_recording, "planning", mutants, repetitions=5)
        d = report["details"]
        assert d["detected_full"] == ["loud"]
        assert "quiet" in d["undetected"]
        assert report["fault_coverage"] == 1.0
        assert d["segment_ids"] == sorted(d["segment_ids"])
        assert len(d["call_counts"]) == len(d["segment_ids"])
        assert report["totals"]["reduced_frames"] <= report["totals"]["original_frames"]

    def test_strategies_subset_and_seeded_rd(self, small_recording):
        mutants = [Mutant("loud", "planning", "red_light_stop", "flip_condition")]
        a = run_regression(
            small_recording, "planning", mutants, strategies=("RSC", "RD"), seed=9, repetitions=7
        )
        b = run_regression(
            small_recording, "planning", mutants, strategies=("RSC", "RD"), seed=9, repetitions=7
        )
        assert set(a["apfd"]) == {"RSC", "RD"}
        assert a["apfd"] == b["apfd"] and a["top_k"] == b["top_k"]
        assert a["details"]["strategies"]["RD"]["plans"] == 7

    def test_unknown_module_or_strategy(self, small_recording):
        with pytest.raises(SynthError, match="unknown module kind"):
            run_regression(small_recording, "radar", [])
        with pytest.raises(SynthError, match="unknown strategy"):
            run_regression(small_recording, "planning", [], strategies=("BFS",))

    @pytest.mark.parametrize("entry", ["run_regression", "run_benchmark"])
    def test_unknown_strategy_rejected_before_any_replay(self, small_recording, monkeypatch, entry):
        calls = []
        real = replay_segment
        monkeypatch.setattr("strap.synth.replay_segment", lambda *a: calls.append(a) or real(*a))
        mutants = [Mutant("loud", "planning", "red_light_stop", "flip_condition")]
        with pytest.raises(SynthError, match="unknown strategy 'BFS'"):
            if entry == "run_regression":
                run_regression(small_recording, "planning", mutants, strategies=("RSC", "BFS"))
            else:
                run_benchmark(small_recording, mutants, strategies=("ch", "bfs"))
        assert calls == []

    @pytest.mark.parametrize("entry", ["run_prepared", "run_benchmark"])
    def test_duplicate_mutant_id_rejected_before_any_replay(self, small_recording, monkeypatch, entry):
        calls = []
        real = replay_segment
        monkeypatch.setattr("strap.synth.replay_segment", lambda *a, **k: calls.append(a) or real(*a, **k))
        # Alone, the first "x" is detected; a second "x" would replace its verdicts.
        mutants = [
            Mutant("x", "planning", "red_light_stop", "flip_condition"),
            Mutant("y", "traffic_light", "green_min_hue", "change_constant", 0.0),
            Mutant("x", "planning", "passing_mode", "change_variable", 0.0),
        ]
        with pytest.raises(SynthError, match="duplicate mutant id 'x'"):
            if entry == "run_prepared":
                run_prepared(prepare_recording(align_recording(small_recording), "planning"), mutants)
            else:
                run_benchmark(small_recording, mutants)
        assert calls == []

    def test_strategy_names_are_normalized(self, small_recording):
        prepared = prepare_recording(align_recording(small_recording), "planning")
        report, plans = run_prepared(prepared, [], strategies=("ch", "RD", "Ch"), repetitions=2)
        assert list(plans) == ["CH", "RD"]
        assert list(report["apfd"]) == ["CH", "RD"]


class TestWarmupReduction:
    """reduction_pct_with_warmup is one int division, the float of the rational
    1 - reduced_wu / n, also where overlapping warm-ups make reduced_wu exceed n."""

    def test_int_division_equals_the_rational(self):
        rng = random.Random(0)
        cases = [(1, 0), (1, 1), (1, 7), (3, 1), (2400, 2356), (10**6, 10**6 + 1), (10**6, 3 * 10**6)]
        for _ in range(20000):
            n = rng.choice([rng.randint(1, 300), rng.randint(1, 10**6)])
            cases.append((n, rng.randint(0, 3 * n)))
        for n, reduced_wu in cases:
            assert ((n - reduced_wu) / n).hex() == float(1 - Fraction(reduced_wu, n)).hex(), (n, reduced_wu)

    @pytest.mark.parametrize("warmup", [0, 15, 1000])
    def test_report_figure(self, benchmark_aligned, registry, warmup):
        prepared = prepare_recording(benchmark_aligned, "planning", ReductionConfig(warmup_frames=warmup), registry)
        report, _ = run_prepared(prepared, [], ("CH",), repetitions=1)
        n, reduced_wu = report["totals"]["original_frames"], report["totals"]["reduced_frames_with_warmup"]
        assert (reduced_wu > n) is (warmup == 1000)
        assert report["reduction_pct_with_warmup"].hex() == float(1 - Fraction(reduced_wu, n)).hex()

class TestRowReads:
    """A run reads payloads from the grid's columns: it builds no recorded
    Message (Channel.message) unless it names a bad payload."""

    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        message = Channel.message
        monkeypatch.setattr(Channel, "message", lambda ch, k: calls.append(k) or message(ch, k))
        return calls

    @pytest.mark.parametrize("name", ["noisy_recording", "benchmark_recording"])
    def test_run_benchmark_builds_no_message(self, name, request, reads):
        report = run_benchmark(request.getfixturevalue(name), benchmark_mutants(), repetitions=2)
        assert report["fault_coverage"] > 0
        assert reads == []

    def test_planning_run_and_artifacts_build_no_message(self, benchmark_recording, reads, tmp_path):
        prepared = prepare_recording(align_recording(benchmark_recording), "planning")
        report, plans = run_prepared(prepared, benchmark_mutants(), repetitions=2)
        _write_regression_artifacts(tmp_path, prepared, report, plans)
        assert (tmp_path / "aligned.jsonl").stat().st_size > 0
        assert reads == []


DERIVED_CONFIGS = {
    "default": ReductionConfig(),
    "no-warmup": ReductionConfig(warmup_frames=0),
    "clip-1": ReductionConfig(clip_n=1),
    "no-warmup-clip-1": ReductionConfig(warmup_frames=0, clip_n=1),
}


def segment_replay_vectors(prepared, mutated, s, encoder):
    """Reference: replay segment s alone, with its warm-up, and encode its comparable frames."""
    ar, vectors = prepared.aligned, prepared.vectors
    result = replay_segment(mutated, ar, s.warmup_start_idx, s.end_idx + 1, s.start_idx - s.warmup_start_idx)
    replayed = enumerate(comparable(result), s.warmup_start_idx + result.warmup_frames)
    return swapped_vectors(ar, replayed, vectors, encoder)


def segment_replay_mismatches(prepared, mutated, s, encoder):
    """Reference: replay segment s alone, with its warm-up, and compare."""
    replayed = segment_replay_vectors(prepared, mutated, s, encoder)
    return compare_outputs(prepared.vectors[s.start_idx : s.end_idx + 1], replayed, s).mismatched_frames


def kind_mutants(kind):
    """The built-in mutants of one module and eight random ones."""
    builtin = [m for make in BUILTIN_MUTANTS.values() for m in make() if m.module == kind]
    # Random ids ("pl1") can repeat built-in ones; the report keys by id.
    randoms = [dataclasses.replace(m, id=f"r-{m.id}") for m in random_mutants(kind, 8, seed=5)]
    return builtin + randoms


def whole_segment(prepared):
    return Segment(WHOLE_RECORDING_SEGMENT_ID, 0, len(prepared.vectors) - 1, prepared.vectors[0], 0)


def class_replay(prepared, mutated, encoder, classes):
    """Per segment id, the whole recording's among them: its comparable frames' class vectors."""
    by_class = _class_vectors(prepared, mutated, encoder, classes)
    return {s.id: [by_class[c] for c in row] for s, row in classes.segments}


def values(vectors):
    return list(vectors)


@pytest.fixture(scope="module", params=["benchmark_recording", "noisy_recording", "rare_recording"])
def builtin_aligned(request):
    return align_recording(request.getfixturevalue(request.param))


@pytest.fixture(scope="module")
def references(builtin_aligned):
    """Reference whole replays of one built-in recording, by module and mutant id.

    The whole replay reads no reduction setting, so one reference serves
    every config.
    """
    return {}


class TestDerivedVerdicts:
    """On the built-in recordings, the whole recording's class vectors equal a
    replay of every frame, and each segment's verdict equals its own replay's."""

    @pytest.mark.parametrize("cfg_name", sorted(DERIVED_CONFIGS))
    def test_matches_per_segment_replays(self, builtin_aligned, registry, cfg_name, references):
        for kind in MODULE_KINDS:
            prepared = prepare_recording(builtin_aligned, kind, DERIVED_CONFIGS[cfg_name], registry)
            mutants = kind_mutants(kind)
            report, _ = run_prepared(prepared, mutants, ("CH",), repetitions=1)
            flt = ModuleFilter.for_module(kind, registry)
            encoder = FrameEncoder(registry, flt)
            module = make_module(kind)
            classes = _frame_classes(prepared, module, FrameEncoder(registry, flt))
            whole = whole_segment(prepared)
            for m in mutants:
                mutated = apply_mutant(module, m)
                # The whole recording's class vectors against every frame replayed.
                got = class_replay(prepared, mutated, FrameEncoder(registry, flt), classes)
                key = (kind, m.id)
                if key not in references:
                    references[key] = segment_replay_vectors(
                        prepared, mutated, whole, FrameEncoder(registry, flt)
                    )
                assert values(got[whole.id]) == values(references[key]), (kind, m.id)
                verdict = compare_outputs(prepared.vectors, references[key], whole)
                assert report["details"]["mutants"][m.id]["detected_full"] is verdict.is_fault
                rows = report["details"]["mutants"][m.id]["segments"]
                assert len(rows) == len(prepared.segments)
                for s in prepared.segments:
                    expected = segment_replay_mismatches(prepared, mutated, s, encoder)
                    assert rows[str(s.id)]["mismatched_frames"] == expected, (kind, m.id, s.id)

    def test_cold_start_correction_is_live(self, registry):
        # A pedestrian appears on frame 10, which is not a prediction tick:
        # the recording and the whole replay still hold frame 9's tracks
        # there. With no warm-up, the one-frame segment starting on frame 10
        # compares its own cold-start output, which sees the pedestrian.
        events = [
            SceneEvent(0, CAR_STOPPED),
            SceneEvent(10, {"obstacles": [{"actor": "pedestrian", "action": "cross"}]}),
        ]
        ar = align_recording(generate_recording(script(30, events=events), 0))
        cfg = ReductionConfig(warmup_frames=0)
        prepared = prepare_recording(ar, "prediction", cfg, registry)
        (s,) = [s for s in prepared.segments if s.start_idx == 10]
        module = make_module("prediction")
        assert not module.emits_at(10)
        encoder = FrameEncoder(registry, ModuleFilter.for_module("prediction", registry))
        mutant = Mutant("slow", "prediction", "stop_max_speed", "change_constant", 0.0)
        classes = _frame_classes(prepared, module, encoder)
        rows = {seg.id: row for seg, row in classes.segments}
        # The segment's frame 10 holds its own cold start, not frame 9's output.
        assert rows[s.id][0] != rows[WHOLE_RECORDING_SEGMENT_ID][10]
        recorded = prepared.vectors[s.start_idx : s.end_idx + 1]
        report, _ = run_prepared(prepared, [mutant], ("CH",), repetitions=1)
        row = report["details"]["mutants"]["slow"]["segments"][str(s.id)]
        for mutated in (module, apply_mutant(module, mutant)):
            got = class_replay(prepared, mutated, encoder, classes)
            count = compare_outputs(recorded, got[s.id], s).mismatched_frames
            assert count == segment_replay_mismatches(prepared, mutated, s, encoder)
            whole = got[WHOLE_RECORDING_SEGMENT_ID][s.start_idx : s.end_idx + 1]
            assert count != compare_outputs(recorded, whole, s).mismatched_frames
        # The run's verdict is the mutant's, the last count.
        assert row["mismatched_frames"] == count


def _mutants_of(kind):
    """The unmutated module, then each of kind_mutants applied."""
    module = make_module(kind)
    return [module, *(apply_mutant(module, m) for m in kind_mutants(kind))]


def _rebuilt(base, messages, n=None):
    """An aligned recording on base's grid whose frame i holds messages(i, frame)."""
    return grid_of(tuple(Frame(f.t_ns, messages(i, f)) for i, f in enumerate(frames_of(base)[:n])))


def _second_read_channel(base, kind, first):
    """Each frame plus a second channel of every kind the module reads but does not publish.

    The added channel carries the mirrored frame's payload, so the two
    channels differ. Its name sorts before every recorded channel's when
    first is set, after them otherwise, so the replay and the encoder read
    other channels in each case (the rule at synth._on_inputs).
    """
    module = make_module(kind)
    kinds = module.reads.keys() - {module.publish_kind}
    prefix = "00_" if first else "zz_"
    frames = frames_of(base)

    def messages(i, frame):
        mirror = frames[len(frames) - 1 - i].messages
        extra = {
            f"{prefix}{name}": Message(f"{prefix}{name}", m.t_ns, m.kind, m.payload)
            for name, m in mirror.items() if m.kind in kinds
        }
        return {**frame.messages, **extra}

    ar = _rebuilt(base, messages)
    added = tuple(ar.columns)[: len(kinds)] if first else tuple(ar.columns)[-len(kinds) :]
    assert all(name.startswith(prefix) for name in added), tuple(ar.columns)
    return ar


def _without_output(base, kind):
    publish = make_module(kind).publish_kind
    return _rebuilt(
        base, lambda i, f: {name: m for name, m in f.messages.items() if m.kind is not publish}
    )


def _unread_shuffled(base, kind):
    """Each channel the module neither reads nor publishes carries another frame's payload.

    Those channels then change on frames where the module's inputs do not,
    and each on frames of its own (a stride per channel).
    """
    module = make_module(kind)
    mine = {*module.reads, module.publish_kind}
    frames = frames_of(base)
    n = len(frames)
    return _rebuilt(base, lambda i, f: {
        name: m if m.kind in mine else frames[(2 * j + 7) * i % n].messages[name]
        for j, (name, m) in enumerate(f.messages.items())
    })


def _distinct_payloads(base, kind):
    # Each payload equal in value to the recorded one and shared by no other frame.
    return _rebuilt(base, lambda i, f: {
        name: Message(name, m.t_ns, m.kind, copy.deepcopy(m.payload))
        for name, m in f.messages.items()
    })


HAND_MADE = {
    "second-read-channel-first": lambda base, kind: _second_read_channel(base, kind, True),
    "second-read-channel-last": lambda base, kind: _second_read_channel(base, kind, False),
    "output-channel-absent": _without_output,
    "equal-but-distinct-payloads": _distinct_payloads,
    "unread-channels-shuffled": _unread_shuffled,
    "one-frame": lambda base, kind: _rebuilt(base, lambda i, f: f.messages, 1),
}


@pytest.fixture(scope="module")
def varied_aligned():
    """45 glitchy frames whose scene changes on and off the predictor's ticks."""
    events = [
        SceneEvent(0, {**RED_LIGHT, **CAR_STOPPED}),
        SceneEvent(10, {"obstacles": [{"actor": "pedestrian", "action": "cross"}]}),
        SceneEvent(20, {"lights": [{"color": "green"}], "objects": ["stop_sign"]}),
        SceneEvent(31, {}, unset=("obstacles",)),
    ]
    return align_recording(generate_recording(script(45, glitch=0.2, events=events), 1))


class TestClassReplay:
    """Every segment's class vectors, the whole recording's among them, equal
    that segment's own replay, and the class table shared by a module's
    mutants reads nothing a mutant changes."""

    @pytest.mark.parametrize("kind", MODULE_KINDS)
    @pytest.mark.parametrize("case", sorted(HAND_MADE))
    def test_matches_every_frame_replayed(self, varied_aligned, registry, kind, case):
        prepared = prepare_recording(HAND_MADE[case](varied_aligned, kind), kind, registry=registry)
        flt = ModuleFilter.for_module(kind, registry)
        classes = _frame_classes(prepared, make_module(kind), FrameEncoder(registry, flt))
        segments = [whole_segment(prepared), *prepared.segments]
        assert [s for s, _ in classes.segments] == segments
        for mutated in _mutants_of(kind):
            got = class_replay(prepared, mutated, FrameEncoder(registry, flt), classes)
            for s in segments:
                want = segment_replay_vectors(prepared, mutated, s, FrameEncoder(registry, flt))
                assert values(got[s.id]) == values(want), (mutated.params, mutated.flipped, s.id)

    @pytest.mark.parametrize("kind", MODULE_KINDS)
    @pytest.mark.parametrize("case", sorted(HAND_MADE))
    @pytest.mark.parametrize("cfg_name", sorted(DERIVED_CONFIGS))
    def test_segment_verdicts_match_segment_replays(self, varied_aligned, registry, kind, case, cfg_name):
        # The scene changes on frames that are not prediction ticks, so
        # without a warm-up some prediction segments start cold between two
        # ticks and hold that output on comparable frames.
        aligned = HAND_MADE[case](varied_aligned, kind)
        prepared = prepare_recording(aligned, kind, DERIVED_CONFIGS[cfg_name], registry)
        mutants = kind_mutants(kind)
        report, _ = run_prepared(prepared, mutants, ("CH",), repetitions=1)
        encoder = FrameEncoder(registry, ModuleFilter.for_module(kind, registry))
        module = make_module(kind)
        for m in mutants:
            rows = report["details"]["mutants"][m.id]["segments"]
            assert len(rows) == len(prepared.segments)
            mutated = apply_mutant(module, m)
            for s in prepared.segments:
                expected = segment_replay_mismatches(prepared, mutated, s, encoder)
                assert rows[str(s.id)]["mismatched_frames"] == expected, (m.id, s.id)

    @pytest.mark.parametrize("kind", MODULE_KINDS)
    def test_mutants_keep_reads_publish_kind_and_ticks(self, kind):
        module = make_module(kind)
        targets = mutable_targets(kind)
        mutants = [Mutant(c, kind, c, "flip_condition") for c in targets["conditions"]]
        for p in targets["params"]:
            for op, delta in (("change_constant", 0.0), ("change_variable", 1.5), ("replace_arith", 5.0)):
                mutants.append(Mutant(f"{p}-{op}", kind, p, op, delta))
        mutated = [apply_mutant(module, m) for m in mutants] + _mutants_of(kind)
        ticks = [module.emits_at(t) for t in range(300)]
        for m in mutated:
            assert m.reads == module.reads and m.publish_kind is module.publish_kind
            assert [m.emits_at(t) for t in range(300)] == ticks

    @pytest.mark.parametrize("kind", MODULE_KINDS)
    def test_computes_once_per_read_key_and_encodes_once_per_class(
        self, benchmark_aligned, registry, kind, monkeypatch
    ):
        prepared = prepare_recording(benchmark_aligned, kind, registry=registry)
        module = make_module(kind)
        flt = ModuleFilter.for_module(kind, registry)
        outputs = []
        compute = type(module).compute

        def counted(self, inputs):
            outputs.append(compute(self, inputs))
            return outputs[-1]

        monkeypatch.setattr(type(module), "compute", counted)
        classes = _frame_classes(prepared, module, FrameEncoder(registry, flt))
        assert outputs == []
        # The benchmark holds 40 to 46 classes per module in its 2400 frames.
        assert len(classes.firsts) < len(benchmark_aligned) / 20
        # One slot per distinct read key, each the slot of some class, in first-class order.
        read = _ComputeMemo(module).read
        keys = [tuple(map(id, read(inputs))) for _, inputs in classes.inputs]
        assert len(set(keys)) == len(keys) < len(classes.firsts)
        assert list(dict.fromkeys(classes.slots)) == list(range(len(keys)))
        recorded = benchmark_aligned.columns[classes.channel]
        for mutated in _mutants_of(kind):
            encoder = FrameEncoder(registry, flt)
            encodes = []
            encode = encoder.encode
            monkeypatch.setattr(encoder, "encode", lambda *a: encodes.append(1) or encode(*a))
            outputs.clear()
            _class_vectors(prepared, mutated, encoder, classes)
            assert len(outputs) == len(classes.inputs)
            # Only a class whose output differs from the recorded payload encodes.
            changed = [recorded.payload(i) != outputs[slot] for i, slot in zip(classes.firsts, classes.slots)]
            assert len(encodes) == sum(changed)


class TestAlignedJsonlHandMade:
    """test_recording.TestAlignedJsonl on the hand-made recordings: the streamed
    aligned dump equals the dump of the frames as a plain recording."""

    @pytest.mark.parametrize("case", sorted(HAND_MADE))
    def test_equals_sorted_dump(self, varied_aligned, case):
        for kind in MODULE_KINDS:
            ar = HAND_MADE[case](varied_aligned, kind)
            assert "".join(aligned_jsonl(ar)) == dump_recording_jsonl(recording_of(frames_of(ar)))


def per_frame_encode_recording(ar, registry, flt=None):
    """Reference: encode_recording with one encode per frame."""
    encoder = FrameEncoder(registry, flt)
    order = encoder.channel_order(ar.kinds)
    return [encoder.encode(ar, i, order) for i in range(len(ar))]


def per_frame_classes(prepared, module, encoder):
    """Reference: _frame_classes with one key per frame and a slot lookup on
    every tick, reading each frame's messages (of two channels of one kind,
    the last by name)."""
    frames, vectors = frames_of(prepared.aligned), prepared.vectors
    channel = _output_channel(module, prepared.aligned)
    names = [name for name, _ in encoder.channel_order(prepared.aligned.kinds)]
    read = _ComputeMemo(module).read
    index, slots, firsts = {}, [], []
    slot_of, inputs = {}, []

    def slot_at(source):
        given = {m.kind: m.payload for m in frames[source].messages.values()}
        key = tuple(map(id, read(given)))
        if key not in slot_of:
            slot_of[key] = len(inputs)
            inputs.append((source, given))
        return slot_of[key]

    def class_of(slot, i):
        messages = frames[i].messages
        key = (slot, *[id(messages[name].payload) for name in names])
        if key not in index:
            index[key] = len(firsts)
            slots.append(slot)
            firsts.append(i)
        return index[key]

    # Per frame, the last frame at or before it that the whole replay computes on.
    last_tick, of_frame = [], []
    for i, frame in enumerate(frames):
        if i == 0 or module.emits_at(i):
            source, slot = i, slot_at(i)
        last_tick.append(source)
        of_frame.append(class_of(slot, i))
    whole = Segment(WHOLE_RECORDING_SEGMENT_ID, 0, len(frames) - 1, vectors[0], 0)
    segments = []
    for s in (whole, *prepared.segments):
        lo, end = s.warmup_start_idx, s.end_idx + 1
        cold = range(s.start_idx, bisect_left(last_tick, lo, s.start_idx, end))
        row = (*[class_of(slot_at(lo), i) for i in cold], *of_frame[cold.stop : end])
        segments.append((s, row))
    return _FrameClasses(channel, tuple(slots), tuple(firsts), tuple(inputs), tuple(segments))


def assert_run_walks_match(ar, registry, cfgs, kinds=MODULE_KINDS):
    """encode_recording and _frame_classes equal their per-frame references on ar,
    and so do smooth, segment and rarity_weights on the vectors."""
    for kind in kinds:
        flt = ModuleFilter.for_module(kind, registry)
        vectors = encode_recording(ar, registry, flt)
        assert vectors == per_frame_encode_recording(ar, registry, flt)
        assert_reduce_walks_match(vectors)
        module = make_module(kind)
        for cfg in cfgs:
            prepared = prepare_recording(ar, kind, cfg, registry)
            got = _frame_classes(prepared, module, FrameEncoder(registry, flt))
            assert got == per_frame_classes(prepared, module, FrameEncoder(registry, flt)), (kind, cfg)


def _loaded(rec, tmp_path):
    path = tmp_path / "recording.jsonl"
    path.write_text(dump_recording_jsonl(rec))
    return load_recording(path)


@pytest.fixture(scope="module")
def seed_0_recordings(tmp_path_factory):
    """A function of a built-in's name, or "long-suite": the seed-0 recording
    as generated in memory and as loaded from its JSONL, built once."""

    @functools.cache
    def recordings(name):
        script = tiled(benchmark_script(), 10) if name == "long-suite" else BUILTIN_SCRIPTS[name]()
        rec = generate_recording(script, 0)
        return rec, _loaded(rec, tmp_path_factory.mktemp(name))

    return recordings


@pytest.fixture(scope="module")
def seed_0_grids(seed_0_recordings):
    """seed_0_recordings aligned, built once."""

    @functools.cache
    def grids(name):
        return tuple(map(align_recording, seed_0_recordings(name)))

    return grids


@pytest.fixture(scope="module")
def between_ticks_aligned():
    """Glitchy frames whose scene changes only on frames that are not prediction ticks."""
    events = [
        SceneEvent(0, {**RED_LIGHT, **CAR_STOPPED}),
        SceneEvent(4, {"obstacles": [{"actor": "pedestrian", "action": "cross"}]}),
        SceneEvent(13, {"lights": [{"color": "green"}], "objects": ["stop_sign"]}),
        SceneEvent(22, {}, unset=("obstacles",)),
        SceneEvent(34, {**CAR_STOPPED}),
    ]
    return align_recording(generate_recording(script(60, glitch=0.15, events=events), 3))


class TestRunWalks:
    """encode_recording and _frame_classes walk runs of frames (AlignedRecording.run_bounds),
    and smooth, segment and rarity_weights runs of vectors; each equals a walk
    of every frame."""

    @pytest.mark.parametrize("case", sorted(HAND_MADE))
    def test_hand_made(self, varied_aligned, registry, case):
        for kind in MODULE_KINDS:
            ar = HAND_MADE[case](varied_aligned, kind)
            assert_run_walks_match(ar, registry, DERIVED_CONFIGS.values(), (kind,))

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCRIPTS))
    def test_builtins_in_memory_and_loaded(self, name, registry, seed_0_grids):
        cfgs = [ReductionConfig(), ReductionConfig(warmup_frames=0)]
        for ar in seed_0_grids(name):
            assert_run_walks_match(ar, registry, cfgs)

    def test_runs_that_start_between_prediction_ticks(self, between_ticks_aligned, registry):
        ar = between_ticks_aligned
        predictor = make_module("prediction")
        runs = list(pairwise(ar.run_bounds))
        ticks = [[i for i in range(a, b) if predictor.emits_at(i)] for a, b in runs]
        # Some run holds no tick, and some starts off a tick and holds one later.
        assert any(not t for t in ticks)
        assert any(t and t[0] > a for (a, _), t in zip(runs, ticks))
        assert_run_walks_match(ar, registry, DERIVED_CONFIGS.values())

    def test_run_key_covers_what_the_vector_and_the_modules_read(self):
        # A module or a vector reading outside the key would silently merge classes.
        for kind in MODULE_KINDS:
            for payload_kind, field in make_module(kind).reads.items():
                assert payload_kind in RUN_READS, (kind, payload_kind)
                assert RUN_READS[payload_kind] in (None, field), (kind, payload_kind)
        for payload_kind in FrameEncoder._CONTRIBUTIONS:
            assert payload_kind in RUN_READS and RUN_READS[payload_kind] is None, payload_kind

    def test_a_run_starts_where_a_keyed_object_changes(self):
        scene, plan = {"lights": []}, {"ego_action": "cruise"}

        def frame(t, scene, plan):
            return Frame(t, {
                "image": Message("image", t, MessageKind.IMAGE_REF, {"ref": f"f{t}", "scene": scene}),
                "loc": Message("loc", t, MessageKind.LOCALIZATION, {"x": float(t)}),
                "plan": Message("plan", t, MessageKind.PLANNING, plan),
            })

        # Image refs and localization change on every frame; an equal copy
        # of the plan (frame 3) and a new scene (frame 5) start runs.
        frames = [frame(0, scene, plan), frame(1, scene, plan), frame(2, scene, plan),
                  frame(3, scene, dict(plan)), frame(4, scene, plan), frame(5, {"lights": []}, plan)]
        ar = grid_of(frames)
        assert list(ar.run_bounds) == [0, 3, 4, 5, 6]
        assert ar.run_bounds is ar.run_bounds

    def test_run_benchmark_finds_the_runs_once(self, small_recording, monkeypatch):
        calls = []
        bounds = AlignedRecording.__dict__["run_bounds"]
        counted = functools.cached_property(lambda ar: calls.append(1) or bounds.func(ar))
        counted.__set_name__(AlignedRecording, "run_bounds")
        monkeypatch.setattr(AlignedRecording, "run_bounds", counted)
        mutants = [m for kind in MODULE_KINDS for m in kind_mutants(kind)[:1]]
        assert {m.module for m in mutants} == set(MODULE_KINDS)
        run_benchmark(small_recording, mutants, strategies=("CH",), repetitions=1)
        assert calls == [1]

    @pytest.mark.parametrize("name,runs", [
        ("benchmark", 197), ("noisy-prediction", 181), ("long-suite", 1805),
    ])
    def test_run_counts_of_the_seed_0_recordings(self, name, runs, seed_0_grids):
        in_memory, loaded = seed_0_grids(name)
        assert len(loaded.run_bounds) == runs + 1
        # Equal outputs are one object in memory too, so the runs are the same.
        assert len(in_memory.run_bounds) == runs + 1


# 1,697,000,000.123456789 s: a wall-clock stamp like those of a recorded drive.
EPOCH_NS = 1_697_000_000_123_456_789


def _shifted(rec, shift):
    """The recording with every timestamp shifted by shift nanoseconds."""
    return Recording({
        name: Channel(name, ch.kind, tuple(Message(name, m.t_ns + shift, m.kind, m.payload) for m in messages(ch)))
        for name, ch in rec.channels.items()
    })


def assert_slot_vectors_match_memo_path(ar, registry, cfgs=(ReductionConfig(),), kinds=MODULE_KINDS):
    """_class_vectors equals memo_class_vectors on ar, for every kind_mutants mutant of each kind."""
    for kind in kinds:
        flt = ModuleFilter.for_module(kind, registry)
        module = make_module(kind)
        for cfg in cfgs:
            prepared = prepare_recording(ar, kind, cfg, registry)
            classes = _frame_classes(prepared, module, FrameEncoder(registry, flt))
            for m in kind_mutants(kind):
                mutated = apply_mutant(module, m)
                got = _class_vectors(prepared, mutated, FrameEncoder(registry, flt), classes)
                want = memo_class_vectors(prepared, mutated, FrameEncoder(registry, flt), classes)
                assert got == want, (kind, cfg, m.id)


class TestSlotVectors:
    """_class_vectors, one compute per slot and a Message only for a frame it
    encodes, equals the memo path it replaced (run_reference.memo_class_vectors)."""

    @pytest.mark.parametrize("case", sorted(HAND_MADE))
    def test_hand_made(self, varied_aligned, registry, case):
        for kind in MODULE_KINDS:
            ar = HAND_MADE[case](varied_aligned, kind)
            assert_slot_vectors_match_memo_path(ar, registry, DERIVED_CONFIGS.values(), (kind,))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCRIPTS))
    def test_builtins_in_memory_and_loaded(self, name, seed, registry, tmp_path):
        rec = generate_recording(BUILTIN_SCRIPTS[name](), seed)
        cfgs = [ReductionConfig(), ReductionConfig(warmup_frames=0)]
        for r in (rec, _loaded(rec, tmp_path)):
            assert_slot_vectors_match_memo_path(align_recording(r), registry, cfgs)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCRIPTS))
    def test_time_shifted(self, name, seed, registry):
        rec = generate_recording(BUILTIN_SCRIPTS[name](), seed)
        period = NS_PER_SEC // BUILTIN_SCRIPTS[name]().fps
        # The shifts of test_time_origin.py: whole frame periods, and a wall-clock epoch.
        for shift in (*(p * period for p in range(1, 7)), EPOCH_NS):
            assert_slot_vectors_match_memo_path(align_recording(_shifted(rec, shift)), registry)


class TestPreparedRecording:
    @pytest.mark.parametrize("kind", MODULE_KINDS)
    def test_one_reduce_pass_counts_segments_before_dedup(self, benchmark_aligned, registry, kind):
        cfg = ReductionConfig()
        prepared = prepare_recording(benchmark_aligned, kind, cfg, registry)
        assert prepared.aligned.fps == 15
        assert prepared.vectors == encode_recording(
            benchmark_aligned, registry, ModuleFilter.for_module(kind, registry)
        )
        assert prepared.segments_before_dedup == len(
            segment_ids_before_dedup(prepared.vectors, cfg)
        )

    def test_run_regression_is_run_prepared_on_one_alignment(self, small_recording):
        mutants = [Mutant("loud", "planning", "red_light_stop", "flip_condition")]
        prepared = prepare_recording(align_recording(small_recording), "planning")
        report, plans = run_prepared(prepared, mutants, repetitions=4)
        assert report == run_regression(small_recording, "planning", mutants, repetitions=4)
        assert {name: len(runs) for name, runs in plans.items()} == {
            "RSC": 1, "SC": 1, "CH": 1, "RD": 4, "CC": 1,
        }
        assert list(plans["CH"][0].order) == report["details"]["strategies"]["CH"]["order"]

    def test_run_benchmark_aligns_once(self, small_recording, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "strap.synth.align_recording", lambda rec: calls.append(rec) or align_recording(rec)
        )
        report = run_benchmark(small_recording, [], strategies=("CH",), repetitions=1)
        assert len(calls) == 1
        assert set(report["details"]["modules"]) == set(MODULE_KINDS)


@pytest.fixture(scope="module")
def ten_fps_recording():
    """The benchmark scenes at 10 fps, glitch-free so clean replays match exactly."""
    base = benchmark_script()
    return generate_recording(ScenarioScript(base.duration_frames, 10, 0.0, base.events), 0)


def reference_grid_fps(frames):
    """The frames' rate as strap worked it out per prepared module, before
    the grid owned its clock: the reference for AlignedRecording.fps."""
    times = [f.t_ns for f in frames]
    n = len(times)
    if n < 2:
        return 1
    span = times[-1] - times[0]
    fps = round(NS_PER_SEC * (n - 1) / span)
    if fps < 1:
        raise SynthError(f"frame grid of {n} frames over {span} ns is below 1 fps")
    tick0 = _frame_index(times[0], fps)
    for i in range(1, n):
        tick = _frame_index(times[i], fps)
        if tick != tick0 + i:
            raise SynthError(
                f"irregular frame grid: frame {i} (t={times[i]} ns) falls on tick "
                f"{tick} at {fps} fps, after tick {tick0 + i - 1}"
            )
    return fps


def assert_fps_matches_reference(ar):
    try:
        want = reference_grid_fps(frames_of(ar))
    except SynthError as exc:
        with pytest.raises(AlignmentError) as got:
            ar.fps
        assert str(got.value) == str(exc)
    else:
        assert ar.fps == want


def image_grid(times):
    image = MessageKind.IMAGE_REF
    return grid_of([Frame(t, {"image": Message("image", t, image, {})}) for t in times])


SPARSE_GRID = (0, 3 * NS_PER_SEC)
# 6,000,000 fps averaged over the span puts frames 1 and 2 on tick 1.
IRREGULAR_GRID = (0, 100, 200, 500)


def jittered_grid(fps, jitter_ns, seed):
    """40 frames at fps, each moved by up to jitter_ns, one dropped on odd seeds."""
    rng = random.Random(seed)
    ticks = [i for i in range(41) if seed % 2 == 0 or i != 20]
    times = sorted({max(0, _frame_t_ns(i, fps) + rng.randint(-jitter_ns, jitter_ns)) for i in ticks})
    return image_grid(times)


class TestFrameRate:
    def test_grid_fps_comes_from_timestamps(self, ten_fps_recording):
        assert align_recording(ten_fps_recording).fps == 10
        assert align_recording(generate_recording(script(30, fps=15), 0)).fps == 15
        assert image_grid((0,)).fps == 1
        with pytest.raises(AlignmentError, match="below 1 fps"):
            image_grid(SPARSE_GRID).fps

    def test_irregular_grid_rejected(self):
        with pytest.raises(AlignmentError, match=r"frame 2 \(t=200 ns\) falls on tick 1 at 6000000 fps, after tick 1"):
            image_grid(IRREGULAR_GRID).fps
        # A replay takes frame i as tick i, so it checks the grid first.
        with pytest.raises(AlignmentError, match="irregular frame grid"):
            replay_segment(make_module("traffic_light"), image_grid(IRREGULAR_GRID), 0, 4)

    @pytest.mark.parametrize("bad", [1, 20, 39])
    def test_first_irregular_frame_is_named(self, bad):
        # 40 frames at 15 fps; frame `bad` and, for the second grid, the
        # frames after it are 0.6 of a period late, so each falls a tick late.
        late = 6 * NS_PER_SEC // 150
        times = [_frame_t_ns(i, 15) for i in range(40)]
        for shifted in (times[:bad] + [times[bad] + late] + times[bad + 1 :],
                        times[:bad] + [t + late for t in times[bad:]]):
            grid = image_grid(shifted)
            assert_fps_matches_reference(grid)
            with pytest.raises(AlignmentError, match=rf"^irregular frame grid: frame {bad} \(t="):
                grid.fps

    @pytest.mark.parametrize("kind", MODULE_KINDS)
    @pytest.mark.parametrize("case", sorted(HAND_MADE))
    def test_matches_reference_on_hand_made_grids(self, varied_aligned, kind, case):
        assert_fps_matches_reference(HAND_MADE[case](varied_aligned, kind))

    @pytest.mark.parametrize("name", [*sorted(BUILTIN_SCRIPTS), "long-suite"])
    def test_matches_reference_on_seed_0_recordings(self, name, seed_0_grids):
        for ar in seed_0_grids(name):
            assert_fps_matches_reference(ar)

    def test_matches_reference_on_odd_grids(self, ten_fps_recording):
        grids = [
            align_recording(ten_fps_recording),
            image_grid((0,)),
            image_grid(SPARSE_GRID),
            image_grid(IRREGULAR_GRID),
            *[
                jittered_grid(fps, NS_PER_SEC // (fps * div), seed)
                for fps in (1, 10, 15, 30) for div in (1, 3, 100) for seed in range(4)
            ],
        ]
        for grid in grids:
            assert_fps_matches_reference(grid)

    def test_walks_each_grid_once(self, small_recording, monkeypatch):
        calls = []
        fps = AlignedRecording.__dict__["fps"]
        counted = functools.cached_property(lambda ar: calls.append(1) or fps.func(ar))
        counted.__set_name__(AlignedRecording, "fps")
        monkeypatch.setattr(AlignedRecording, "fps", counted)
        mutants = [m for kind in MODULE_KINDS for m in kind_mutants(kind)[:1]]
        assert {m.module for m in mutants} == set(MODULE_KINDS)
        run_benchmark(small_recording, mutants, strategies=("CH",), repetitions=1)
        assert calls == [1]

    def test_ten_fps_predictor_call_counts(self, ten_fps_recording, registry):
        ar = align_recording(ten_fps_recording)
        predictor = make_module("prediction")
        # Emitting on two of every three frames, the predictor classifies
        # each tick's obstacles: 2000 calls on the grid's own 10 fps clock
        # (ticks taken at 15 fps made 2250).
        assert replay_segment(predictor, ar, 0, len(ar)).call_counts["predict_action"] == 2000
        mutant = Mutant("m", "prediction", "stop_max_speed", "change_constant", 0.5)
        report = run_regression(ten_fps_recording, "prediction", [mutant], repetitions=2)
        flt = ModuleFilter.for_module("prediction", registry)
        segments, _ = reduce_recording(ar, encode_recording(ar, registry, flt), ReductionConfig())
        assert report["details"]["call_counts"] == [
            replay_segment(predictor, ar, s.start_idx, s.end_idx + 1).call_counts.get("predict_action", 0)
            for s in segments
        ]

    def test_ten_fps_clean_replay_has_no_faults(self, ten_fps_recording):
        for kind in MODULE_KINDS:
            module = make_module(kind)
            # Setting a parameter to its own default leaves the module unmutated.
            name, value = next(iter(module.params.items()))
            mutant = Mutant("clean", kind, name, "change_constant", value)
            d = run_regression(ten_fps_recording, kind, [mutant], repetitions=2)["details"]
            assert d["detected_full"] == [] and d["detected_reduced"] == [], kind
            rows = d["mutants"]["clean"]["segments"].values()
            assert all(row["mismatched_frames"] == 0 for row in rows), kind


class TestBuiltins:
    def test_script_shapes(self):
        b = benchmark_script()
        assert (b.duration_frames, b.fps, b.glitch_rate) == (2400, 15, 0.01)
        n = noisy_prediction_script()
        assert (n.duration_frames, n.glitch_rate) == (1500, 0.0)
        r = rare_fault_script()
        assert (r.duration_frames, r.glitch_rate) == (1800, 0.0)
        assert set(BUILTIN_SCRIPTS) == {"benchmark", "noisy-prediction", "rare-fault"}
        assert set(BUILTIN_MUTANTS) == {"benchmark", "rare-fault"}

    def test_noisy_combo_events_are_distinct(self):
        events = noisy_prediction_script().events
        assert len(events) == 181
        combos = {json.dumps(e.set, sort_keys=True) for e in events[1:]}
        assert len(combos) == 180

    def test_benchmark_mutants_cover_all_modules_and_operators(self):
        ms = benchmark_mutants()
        assert len(ms) == 20
        assert len({m.id for m in ms}) == 20
        per_module = {}
        for m in ms:
            per_module.setdefault(m.module, []).append(m)
        assert {k: len(v) for k, v in per_module.items()} == {
            "traffic_light": 5,
            "obstacle": 5,
            "prediction": 5,
            "planning": 5,
        }
        assert {m.operator for m in ms} == set(MUTATION_OPERATORS)

    def test_rare_fault_mutants(self):
        ms = rare_fault_mutants()
        assert [m.module for m in ms] == ["traffic_light", "traffic_light"]


class FrameGrid:
    """Reference: the grid as one Frame per slot, each checked as it is stored,
    with the walks of every frame that AlignedRecording made before it held
    columns."""

    def __init__(self, frames, channel_names):
        expected = set(channel_names)
        kinds = None
        prev = -1
        for f in frames:
            if f.t_ns <= prev:
                raise ValueError(f"frame timestamps not strictly increasing at t={f.t_ns}")
            prev = f.t_ns
            messages = f.messages
            if messages.keys() != expected:
                raise ValueError(f"frame at t={f.t_ns} does not cover all channels")
            if kinds is None:
                kinds = [(name, m.kind) for name, m in messages.items()]
            for name, kind in kinds:
                if messages[name].kind is not kind:
                    raise ValueError(
                        f"channel {name!r} is {kind.value!r} in the first frame "
                        f"but carries {messages[name].kind.value!r} at t={f.t_ns}"
                    )
        self.frames, self.channel_names = tuple(frames), channel_names

    def run_bounds(self):
        first = self.frames[0].messages if self.frames else {}
        keyed = [(name, RUN_READS[m.kind]) for name, m in first.items() if m.kind in RUN_READS]
        bounds, last = [], None
        for i, frame in enumerate(self.frames):
            ms = frame.messages
            objects = [ms[n].payload if f is None else ms[n].payload.get(f) for n, f in keyed]
            if last is None or any(map(is_not, objects, last)):
                bounds.append(i)
            last = objects
        return [*bounds, len(self.frames)]

    def aligned_jsonl(self):
        names = sorted(self.channel_names)
        texts = _payload_texts()
        first = self.frames[0].messages if self.frames else {}
        columns = [texts[first[name].kind] for name in names] if first else []
        for frame in self.frames:
            tail = f', "t_ns": {frame.t_ns}}}\n'
            ms = zip(map(frame.messages.__getitem__, names), columns)
            prefixes = [_line_head(m.channel, m.kind) + text(m.payload) for m, text in ms]
            yield tail.join(prefixes) + tail


def frame_align_recording(rec):
    """Reference: align_recording building one Frame and one dict per slot."""
    for name, ch in rec.channels.items():
        if not ch.times:
            raise AlignmentError(f"channel {name!r} has no messages")
    ref = min(rec.channels.values(), key=lambda c: (-len(c.times), c.name))
    ref_times = sorted(set(ref.times))
    n = len(ref_times)
    next_times = [*ref_times[1:], ref_times[-1] + 1]
    names = tuple(sorted(rec.channels))
    columns = []
    start = 0
    for name in names:
        msgs = messages(rec.channels[name])
        first = bisect_right(next_times, msgs[0].t_ns)
        if first == n:
            raise AlignmentError(f"no alignable frames: channel {name!r} never overlaps the reference")
        start = max(start, first)
        columns.append((msgs, [m.t_ns for m in msgs[1:]]))
    ends = next_times[start:]
    rows = zip(*[map(msgs.__getitem__, map(bisect_left, repeat(later), ends)) for msgs, later in columns])
    frames = tuple(Frame(t, dict(zip(names, row))) for t, row in zip(ref_times[start:], rows))
    return FrameGrid(frames, names)


def message_row(m):
    """A message as runs and memos see it: a Message is built on each read,
    so its identity says nothing, and its payload's identity is what they key on."""
    return m.channel, m.t_ns, m.kind, id(m.payload)


def frame_rows(frames):
    """Each frame's time and its (channel, message_row) pairs, in key order."""
    return [(f.t_ns, [(name, message_row(m)) for name, m in f.messages.items()]) for f in frames]


def assert_grid_matches_frames(ar, ref):
    """The columnar grid reads as the reference's frames and walks to the same results."""
    want = frame_rows(ref.frames)
    assert len(ar) == len(want)
    assert tuple(ar.columns) == ref.channel_names
    assert ar.kinds == {name: m.kind for name, m in ref.frames[0].messages.items()}
    assert frame_rows(frames_of(ar)) == want
    assert frame_rows(Frame(t, ar.row(i)) for i, t in enumerate(ar.times)) == want
    assert list(ar.run_bounds) == ref.run_bounds()
    try:
        fps = reference_grid_fps(ref.frames)
    except SynthError as exc:
        with pytest.raises(AlignmentError) as got:
            ar.fps
        assert str(got.value) == str(exc)
    else:
        assert ar.fps == fps
    assert "".join(aligned_jsonl(ar)) == "".join(ref.aligned_jsonl())


def assert_aligns_as_frames(rec):
    assert_aligns_as_messages(rec)
    try:
        ref = frame_align_recording(rec)
    except AlignmentError as exc:
        with pytest.raises(AlignmentError) as got:
            align_recording(rec)
        assert str(got.value) == str(exc)
        return
    assert_grid_matches_frames(align_recording(rec), ref)


def random_recording(seed):
    """test_recording.TestAlignment's random recordings: 1-4 channels of up to 12 times."""
    rng = random.Random(seed)
    channels = {}
    for c in range(rng.randint(1, 4)):
        times = sorted(rng.choices(range(rng.randint(1, 60)), k=rng.randint(1, 12)))
        messages = [Message(f"c{c}", t, MessageKind.LOCALIZATION, {"n": i}) for i, t in enumerate(times)]
        channels[f"c{c}"] = Channel(f"c{c}", MessageKind.LOCALIZATION, tuple(messages))
    return Recording(channels)


class TestColumnarGrid:
    """The columnar grid against align_recording as it built one Frame per
    slot, each checked as it was stored (frame_align_recording, FrameGrid)."""

    @pytest.mark.parametrize("case", sorted(HAND_MADE))
    def test_hand_made(self, varied_aligned, case, monkeypatch):
        built = []

        def capture(frames):
            built.append(recording_of(frames))
            return align_recording(built[-1])

        monkeypatch.setitem(globals(), "grid_of", capture)
        for kind in MODULE_KINDS:
            ar = HAND_MADE[case](varied_aligned, kind)
            assert_grid_matches_frames(ar, frame_align_recording(built[-1]))
            assert_aligns_as_messages(built[-1])

    @pytest.mark.parametrize("name", [*sorted(BUILTIN_SCRIPTS), "long-suite"])
    def test_builtins_in_memory_and_loaded(self, name, seed_0_recordings):
        for rec in seed_0_recordings(name):
            assert_aligns_as_frames(rec)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_recordings(self, seed, monkeypatch):
        assert_aligns_as_frames(random_recording(seed))
        # Blocks of one and of two slot ends, as a long recording's blocks meet.
        for block in (1, 2):
            monkeypatch.setattr(recording, "_BLOCK", block)
            assert_aligns_as_messages(random_recording(seed))

    def test_long_suite_loads_as_messages_and_builds_none(self, seed_0_recordings, tmp_path, monkeypatch):
        # The long-suite input, loaded as the message loader loads it; load
        # and align build no Message (a row read builds its own).
        path = tmp_path / "long.jsonl"
        path.write_text(dump_recording_jsonl(seed_0_recordings("long-suite")[0]))
        assert_loads_as_messages(path)
        built = []
        check = Message.__post_init__
        monkeypatch.setattr(Message, "__post_init__", lambda m: built.append(1) or check(m))
        ar = align_recording(load_recording(path))
        assert len(ar) == 24000 and built == []
        ar.row(0)
        assert len(built) == 6


def assert_round_trips(ar):
    """align_recording(recording_of(frames_of(ar))) is ar again, payload objects included."""
    again = align_recording(recording_of(frames_of(ar)))
    assert again.times == ar.times
    assert tuple(again.columns) == tuple(ar.columns)
    for name in ar.columns:
        want, got = ar.columns[name], again.columns[name]
        assert got.channel.kind is want.channel.kind and got.channel.name == want.channel.name == name
        assert list(map(id, map(got.payload, range(len(ar))))) == list(map(id, map(want.payload, range(len(ar))))), name


class TestRoundTrip:
    """Every grid is the alignment of its own frames as a plain recording."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCRIPTS))
    def test_builtins(self, name, seed):
        assert_round_trips(align_recording(generate_recording(BUILTIN_SCRIPTS[name](), seed)))

    def test_tiled_benchmark(self, seed_0_grids):
        for ar in seed_0_grids("long-suite"):
            assert_round_trips(ar)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_recordings(self, seed):
        try:
            ar = align_recording(random_recording(seed))
        except AlignmentError:
            return
        assert_round_trips(ar)

    @pytest.mark.parametrize("case", sorted(HAND_MADE))
    def test_hand_made(self, varied_aligned, case):
        for kind in MODULE_KINDS:
            assert_round_trips(HAND_MADE[case](varied_aligned, kind))
