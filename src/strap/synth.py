"""Synthetic recording generator, toy pipeline modules, and mutation harness.

The harness builds recordings by running a deterministic four-module toy
pipeline (traffic light detection, obstacle detection, prediction, planning)
over scripted scenes. Sensor input is an image-reference channel whose
payload carries numeric stand-ins for pixels: hue and brightness for lights,
body geometry and motion for actors, confidence for static objects. Each
module classifies those numerics with named threshold parameters; a mutant
changes exactly one parameter or flips exactly one named condition, so
injected faults are single localized changes.

Because every module output is a pure function of its recorded inputs and
parameters, replaying an unmutated module over its own glitch-free recording
reproduces the recorded channel exactly. The regression runner relies on
that purity to replay once per class of frames. _FrameClasses states the
hold rule (why replays carry a warm-up prefix), the run rule and the class
rule.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain, compress, pairwise, repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

# evaluate_plan, the prioritize_* functions, encode_frame and apply_filter are
# not called here; bench/tracer.py looks them up on this module.
from .evaluation import (  # noqa: F401
    FaultVerdict,
    WHOLE_RECORDING_SEGMENT_ID,
    compare_outputs,
    detections,
    evaluate_plan,
    fault_coverage,
    mean_defined,
    reduction_pct,
    score_plans,
)
from .fileio import Closed, InputError, check, read_json
from .prioritization import (  # noqa: F401
    STRATEGIES,
    PrioritizedPlan,
    build_plans,
    parse_strategies,
    prioritize_cc,
    prioritize_ch,
    prioritize_rd,
    prioritize_rsc,
    prioritize_sc,
)
from .recording import (
    AlignedRecording,
    Channel,
    Message,
    MessageKind,
    Recording,
    _frame_t_ns,
    _text_memo,
    align_recording,
    check_payloads,
)
from .reduction import ReductionConfig, Segment, reduce_recording, segment, smooth
from .schema import (  # noqa: F401
    FrameEncoder,
    FrameVector,
    MODULE_KINDS,
    SchemaRegistry,
    apply_filter,
    channel_order,
    default_registry,
    encode_frame,
    encode_recording,
)

# Per-channel publish offsets within a frame period; module outputs land
# shortly after the sensor tick that produced them.
CHANNEL_OFFSETS_NS: Mapping[str, int] = {
    "image": 0,
    "localization": 0,
    "traffic_light": 1_000_000,
    "obstacle": 2_000_000,
    "prediction": 3_000_000,
    "planning": 4_000_000,
}

CHANNEL_KINDS: Mapping[str, MessageKind] = {
    "image": MessageKind.IMAGE_REF,
    "localization": MessageKind.LOCALIZATION,
    "traffic_light": MessageKind.TRAFFIC_LIGHT,
    "obstacle": MessageKind.OBSTACLE,
    "prediction": MessageKind.PREDICTION,
    "planning": MessageKind.PLANNING,
}

MUTATION_OPERATORS = ("replace_arith", "change_constant", "change_variable", "flip_condition")

# Numeric stand-ins the generator embeds in image payloads and the toy
# modules classify back into symbols. Classification of every canonical
# value must round-trip exactly under default parameters.
LIGHT_HUE = {"red": 10.0, "yellow": 55.0, "green": 120.0, "black": 10.0}
LIGHT_CIRCULARITY = {"round": 0.9, "square": 0.3}
LIGHT_TILT = {"vertical": 90.0, "horizontal": 0.0}
ACTION_MOTION = {
    "stop": (0.0, 0.0),
    "cruise": (8.0, 0.0),
    "change_lane": (8.0, 1.5),
    "overtake": (14.0, 1.5),
    "cross": (1.5, 1.2),
}
# (wheels, height_m, length_m, motor_power)
ACTOR_BODY = {
    ("vehicle", "car"): (4.0, 1.6, 4.5, 1.0),
    ("vehicle", "truck"): (6.0, 1.8, 7.0, 1.0),
    ("vehicle", "bus"): (6.0, 2.8, 10.0, 1.0),
    ("vehicle", "van"): (4.0, 2.0, 5.0, 1.0),
    ("cyclist", "bicyclist"): (2.0, 1.6, 1.8, 0.0),
    ("cyclist", "motorcyclist"): (2.0, 1.4, 2.0, 1.0),
    ("cyclist", "tricyclist"): (3.0, 1.5, 2.2, 0.0),
    ("pedestrian", None): (0.0, 1.7, 0.5, 0.0),
    ("unknown", None): (0.0, 0.8, 1.0, 0.0),
}
_DEFAULT_SUBTYPE = {"vehicle": "car", "cyclist": "bicyclist"}
STATIC_CONFIDENCE = 0.9
STATIC_NOMINAL_DISTANCE_M = 15.0

_GLITCH_COLOR = {"red": "green", "green": "red", "yellow": "black", "black": "yellow"}
_GLITCH_ACTION = {
    "stop": "cruise",
    "cruise": "stop",
    "change_lane": "overtake",
    "overtake": "change_lane",
    "cross": "stop",
}


# The scene state an event may set or unset, and the fields of its light and
# obstacle objects; unknown keys are errors, not defaults.
_SCENE_FORMAT = Closed({
    "lights": [Closed({"color": str, "shape": str, "orientation": str})],
    "obstacles": [Closed({
        "actor!": str, "subtype?": str, "action": str, "on_crosswalk": bool, "at_intersection": bool,
    })],
    "objects": [str],
})
SCRIPT_FORMAT = {
    "duration_frames!": int,
    "fps": int,
    "glitch_rate": float,
    "events": [{"frame!": int, "set": _SCENE_FORMAT, "unset": [tuple(_SCENE_FORMAT)]}],
}
MUTANT_FORMAT = {"id!": str, "module!": str, "target!": str, "operator!": str, "delta": float}


@dataclass(frozen=True)
class SceneEvent:
    """State delta applied from a given frame onward."""

    frame: int
    set: Mapping[str, Any] = field(default_factory=dict)
    unset: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScenarioScript:
    """Scripted scene timeline driving the generator."""

    duration_frames: int
    fps: int = 15
    glitch_rate: float = 0.0
    events: tuple[SceneEvent, ...] = ()

    def __post_init__(self) -> None:
        # The fields as given (asdict would copy them): the document this
        # script would be, checked by the table its parser uses.
        doc = {**vars(self), "events": [vars(e) for e in self.events]}
        check(doc, SCRIPT_FORMAT, "invalid scenario script")
        if self.duration_frames < 1:
            raise InputError(
                f"duration_frames must be a positive integer, got {self.duration_frames!r}"
            )
        if self.fps < 1:
            raise InputError(f"fps must be a positive integer, got {self.fps!r}")
        if not (0.0 <= self.glitch_rate < 1.0):
            raise InputError(f"glitch_rate must be a number in [0, 1), got {self.glitch_rate!r}")
        for e in self.events:
            if not (0 <= e.frame < self.duration_frames):
                raise InputError(f"event frame {e.frame} outside [0, {self.duration_frames})")
            _scene_truth(e.set)  # raises on a name outside the canonical tables


def script_from_json(doc: Any) -> ScenarioScript:
    """The script a document describes, checked once: by ScenarioScript.

    The script takes the document's values as they are (only an unset list
    becomes a tuple), so its check against SCRIPT_FORMAT names the field a
    check of the document would. A document without the shape the script
    is built from is checked here instead, and fails that check.
    """
    events = doc.get("events", []) if isinstance(doc, dict) else None
    if not (
        isinstance(events, list)
        and "duration_frames" in doc
        and all(isinstance(e, dict) and "frame" in e for e in events)
    ):
        check(doc, SCRIPT_FORMAT, "invalid scenario script")
    scene_events = []
    for e in events:
        unset = e.get("unset", ())
        if isinstance(unset, list):
            unset = tuple(unset)
        scene_events.append(SceneEvent(e["frame"], e.get("set", {}), unset))
    return ScenarioScript(
        duration_frames=doc["duration_frames"],
        fps=doc.get("fps", 15),
        glitch_rate=doc.get("glitch_rate", 0.0),
        events=tuple(scene_events),
    )


def load_script(path: str | Path) -> ScenarioScript:
    return script_from_json(read_json(path))


@dataclass(frozen=True)
class Mutant:
    """One parameter or condition change applied to one module."""

    id: str
    module: str
    target: str
    operator: str
    delta: float = 0.0

    def __post_init__(self) -> None:
        check(vars(self), MUTANT_FORMAT, f"mutant {self.id!r}")
        if self.module not in MODULE_KINDS:
            raise InputError(f"mutant {self.id!r}: unknown module {self.module!r}")
        if self.operator not in MUTATION_OPERATORS:
            raise InputError(f"mutant {self.id!r}: unknown operator {self.operator!r}")


def mutants_to_json(mutants: Sequence[Mutant]) -> list[dict[str, Any]]:
    return [
        {"id": m.id, "module": m.module, "target": m.target, "operator": m.operator, "delta": m.delta}
        for m in mutants
    ]


def mutants_from_json(doc: Any) -> list[Mutant]:
    check(doc, [MUTANT_FORMAT], "invalid mutants document")
    return [
        Mutant(row["id"], row["module"], row["target"], row["operator"], float(row.get("delta", 0.0)))
        for row in doc
    ]


def load_mutants(path: str | Path) -> list[Mutant]:
    return mutants_from_json(read_json(path))


class ToyModule:
    """Base class for the deterministic pipeline stand-ins.

    Subclasses classify numeric inputs with self.params thresholds and route
    every branch decision through self._cond so flip_condition mutants can
    invert exactly one named comparison. call_log counts classifier calls
    per replay; replays always work on a fresh copy so counters are never
    shared.

    compute must be pure: its output depends only on the one frame's inputs,
    self.params and self.flipped, never on earlier calls (call_log is the
    only state it may touch). _ComputeMemo and _FrameClasses rest on that.

    FUNCTIONS maps each call_log key to the parameters and conditions that
    classifier reads. Every subclass derives PARAM_FUNCTIONS (each name to
    its classifier, for call-count prioritization) and CONDITIONS (the names
    that are not parameters) from it, and fails at class definition when a
    parameter is read by no classifier or a name by two.

    reads maps each input kind compute needs to what it reads of that
    kind's payload: one field, or the whole payload (None); _ComputeMemo
    keys on those objects.
    """

    kind: str = ""
    publish_kind: MessageKind = MessageKind.PLANNING
    reads: Mapping[MessageKind, str | None] = {}
    DEFAULT_PARAMS: Mapping[str, float] = {}
    FUNCTIONS: Mapping[str, tuple[str, ...]] = {}
    CONDITIONS: frozenset[str] = frozenset()
    PARAM_FUNCTIONS: Mapping[str, str] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        owners = [(name, fn) for fn, names in cls.FUNCTIONS.items() for name in names]
        cls.PARAM_FUNCTIONS = dict(owners)
        if len(cls.PARAM_FUNCTIONS) != len(owners):
            raise TypeError(f"{cls.__name__}: a name is listed under two classifiers")
        unclaimed = set(cls.DEFAULT_PARAMS) - set(cls.PARAM_FUNCTIONS)
        if unclaimed:
            raise TypeError(f"{cls.__name__}: no classifier reads {sorted(unclaimed)}")
        cls.CONDITIONS = frozenset(cls.PARAM_FUNCTIONS) - set(cls.DEFAULT_PARAMS)

    def __init__(self, params: Mapping[str, float] | None = None, flipped: Iterable[str] = ()):
        self.params: dict[str, float] = dict(self.DEFAULT_PARAMS)
        if params:
            self.params.update(params)
        self.flipped = frozenset(flipped)
        unknown = self.flipped - self.CONDITIONS
        if unknown:
            raise ValueError(f"unknown condition(s) {sorted(unknown)} for module {self.kind!r}")
        self.call_log: Counter[str] = Counter()

    def fresh(self) -> "ToyModule":
        return type(self)(self.params, self.flipped)

    def emits_at(self, frame_index: int) -> bool:
        return True

    def _cond(self, name: str, outcome: bool) -> bool:
        return (not outcome) if name in self.flipped else outcome

    def compute(self, inputs: Mapping[MessageKind, Mapping[str, Any]]) -> dict[str, Any]:
        raise NotImplementedError


class TrafficLightDetector(ToyModule):
    """Classifies light color, shape, and orientation from image numerics."""

    kind = "traffic_light"
    publish_kind = MessageKind.TRAFFIC_LIGHT
    reads = {MessageKind.IMAGE_REF: "scene"}
    DEFAULT_PARAMS = {
        "lit_min_brightness": 0.5,
        "green_min_hue": 100.0,
        "yellow_min_hue": 40.0,
        "round_min_circularity": 0.7,
        "vertical_min_tilt": 45.0,
    }
    FUNCTIONS = {
        "classify_color": (
            "lit_min_brightness", "green_min_hue", "yellow_min_hue",
            "lit_check", "green_check", "yellow_check",
        ),
        "classify_shape": ("round_min_circularity", "round_check"),
        "classify_orientation": ("vertical_min_tilt", "vertical_check"),
    }

    def _classify_color(self, light: Mapping[str, float]) -> str:
        self.call_log["classify_color"] += 1
        p = self.params
        if not self._cond("lit_check", light["brightness"] >= p["lit_min_brightness"]):
            return "black"
        if self._cond("green_check", light["hue_deg"] >= p["green_min_hue"]):
            return "green"
        if self._cond("yellow_check", light["hue_deg"] >= p["yellow_min_hue"]):
            return "yellow"
        return "red"

    def _classify_shape(self, light: Mapping[str, float]) -> str:
        self.call_log["classify_shape"] += 1
        ok = self._cond("round_check", light["circularity"] >= self.params["round_min_circularity"])
        return "round" if ok else "square"

    def _classify_orientation(self, light: Mapping[str, float]) -> str:
        self.call_log["classify_orientation"] += 1
        ok = self._cond("vertical_check", light["tilt_deg"] >= self.params["vertical_min_tilt"])
        return "vertical" if ok else "horizontal"

    def compute(self, inputs: Mapping[MessageKind, Mapping[str, Any]]) -> dict[str, Any]:
        scene = inputs[MessageKind.IMAGE_REF].get("scene") or {}
        lights = [
            {
                "color": self._classify_color(lt),
                "shape": self._classify_shape(lt),
                "orientation": self._classify_orientation(lt),
            }
            for lt in scene.get("lights") or []
        ]
        return {"lights": lights}


def _classify_action(module: ToyModule, speed: float, lateral: float) -> str:
    p = module.params
    if module._cond("stop_check", speed < p["stop_max_speed"]):
        return "stop"
    if module._cond("lateral_check", abs(lateral) >= p["lateral_min"]):
        if module._cond("overtake_check", speed >= p["overtake_min_speed"]):
            return "overtake"
        if module._cond("cross_check", speed <= p["cross_max_speed"]):
            return "cross"
        return "change_lane"
    return "cruise"


_MOTION_PARAMS = {
    "stop_max_speed": 0.3,
    "lateral_min": 0.8,
    "overtake_min_speed": 11.0,
    "cross_max_speed": 3.0,
}
# What _classify_action reads.
_MOTION_NAMES = (*_MOTION_PARAMS, "stop_check", "lateral_check", "overtake_check", "cross_check")


class ObstacleDetector(ToyModule):
    """Classifies actors and filters static objects from image numerics."""

    kind = "obstacle"
    publish_kind = MessageKind.OBSTACLE
    reads = {MessageKind.IMAGE_REF: "scene"}
    DEFAULT_PARAMS = {
        "vehicle_min_wheels": 3.5,
        "cyclist_min_wheels": 1.5,
        "tricycle_min_wheels": 2.5,
        "motor_min_power": 0.5,
        "pedestrian_min_height": 1.2,
        "bus_min_length": 8.5,
        "truck_min_length": 6.0,
        "van_min_height": 1.9,
        "static_min_confidence": 0.5,
        **_MOTION_PARAMS,
    }
    FUNCTIONS = {
        "classify_actor": (
            "vehicle_min_wheels", "cyclist_min_wheels", "tricycle_min_wheels",
            "motor_min_power", "pedestrian_min_height", "bus_min_length",
            "truck_min_length", "van_min_height",
            "vehicle_check", "cyclist_check", "tricycle_check", "motor_check",
            "pedestrian_check", "bus_check", "truck_check", "van_check",
        ),
        "filter_static": ("static_min_confidence", "static_check"),
        "classify_motion": _MOTION_NAMES,
    }

    def _classify_actor(self, body: Mapping[str, float]) -> tuple[str, str | None]:
        self.call_log["classify_actor"] += 1
        p = self.params
        wheels, height, length = body["wheels"], body["height_m"], body["length_m"]
        if self._cond("vehicle_check", wheels >= p["vehicle_min_wheels"]):
            if self._cond("bus_check", length >= p["bus_min_length"]):
                return "vehicle", "bus"
            if self._cond("truck_check", length >= p["truck_min_length"]):
                return "vehicle", "truck"
            if self._cond("van_check", height >= p["van_min_height"]):
                return "vehicle", "van"
            return "vehicle", "car"
        if self._cond("cyclist_check", wheels >= p["cyclist_min_wheels"]):
            if self._cond("tricycle_check", wheels >= p["tricycle_min_wheels"]):
                return "cyclist", "tricyclist"
            if self._cond("motor_check", body["motor_power"] >= p["motor_min_power"]):
                return "cyclist", "motorcyclist"
            return "cyclist", "bicyclist"
        if self._cond("pedestrian_check", height >= p["pedestrian_min_height"]):
            return "pedestrian", None
        return "unknown", None

    def compute(self, inputs: Mapping[MessageKind, Mapping[str, Any]]) -> dict[str, Any]:
        scene = inputs[MessageKind.IMAGE_REF].get("scene") or {}
        obstacles = []
        for body in scene.get("actors") or []:
            actor, subtype = self._classify_actor(body)
            self.call_log["classify_motion"] += 1
            entry: dict[str, Any] = {
                "actor": actor,
                "action": _classify_action(self, body["speed_mps"], body["lateral_mps"]),
                "on_crosswalk": bool(body.get("on_crosswalk", False)),
                "at_intersection": bool(body.get("at_intersection", False)),
                "speed_mps": body["speed_mps"],
                "lateral_mps": body["lateral_mps"],
            }
            if subtype is not None:
                entry["subtype"] = subtype
            obstacles.append(entry)
        objects = []
        for static in scene.get("statics") or []:
            self.call_log["filter_static"] += 1
            if self._cond("static_check", static["confidence"] >= self.params["static_min_confidence"]):
                objects.append(static["name"])
        return {"obstacles": obstacles, "objects": objects}


class TrajectoryPredictor(ToyModule):
    """Predicts per-actor actions from obstacle motion numerics.

    Runs every 1.5 frames (rounded), so it emits on the ticks congruent to 0
    or 2 modulo 3.
    """

    kind = "prediction"
    publish_kind = MessageKind.PREDICTION
    reads = {MessageKind.OBSTACLE: None}
    DEFAULT_PARAMS = dict(_MOTION_PARAMS)
    FUNCTIONS = {"predict_action": _MOTION_NAMES}

    def emits_at(self, frame_index: int) -> bool:
        return frame_index % 3 != 1

    def compute(self, inputs: Mapping[MessageKind, Mapping[str, Any]]) -> dict[str, Any]:
        tracks = []
        for obstacle in inputs[MessageKind.OBSTACLE].get("obstacles") or []:
            self.call_log["predict_action"] += 1
            tracks.append(
                {
                    "actor": obstacle["actor"],
                    "action": _classify_action(
                        self, obstacle["speed_mps"], obstacle["lateral_mps"]
                    ),
                }
            )
        return {"tracks": tracks}


class MotionPlanner(ToyModule):
    """Decides the ego action from lights, static objects, and tracks."""

    kind = "planning"
    publish_kind = MessageKind.PLANNING
    reads = {
        MessageKind.TRAFFIC_LIGHT: None, MessageKind.OBSTACLE: None, MessageKind.PREDICTION: None,
    }
    DEFAULT_PARAMS = {"sign_stop_range_m": 30.0, "passing_mode": 1.0}
    FUNCTIONS = {
        "plan_step": (
            "sign_stop_range_m", "passing_mode",
            "red_light_stop", "stop_sign_stop", "yield_crossing", "lead_blocked",
        ),
    }

    def compute(self, inputs: Mapping[MessageKind, Mapping[str, Any]]) -> dict[str, Any]:
        self.call_log["plan_step"] += 1
        lights = inputs[MessageKind.TRAFFIC_LIGHT].get("lights") or []
        objects = inputs[MessageKind.OBSTACLE].get("objects") or []
        tracks = inputs[MessageKind.PREDICTION].get("tracks") or []
        p = self.params
        if self._cond("red_light_stop", any(lt.get("color") == "red" for lt in lights)):
            return {"ego_action": "stop", "stop_cause": "traffic_light"}
        if "stop_sign" in objects and self._cond(
            "stop_sign_stop", STATIC_NOMINAL_DISTANCE_M <= p["sign_stop_range_m"]
        ):
            return {"ego_action": "stop", "stop_cause": "stop_sign"}
        if self._cond("yield_crossing", any(t.get("action") == "cross" for t in tracks)):
            return {"ego_action": "stop", "stop_cause": None}
        if self._cond(
            "lead_blocked",
            any(t.get("actor") == "vehicle" and t.get("action") == "stop" for t in tracks),
        ):
            action = "overtake" if p["passing_mode"] >= 0.5 else "change_lane"
            return {"ego_action": action, "stop_cause": None}
        return {"ego_action": "cruise", "stop_cause": None}


_MODULE_CLASSES = {
    "traffic_light": TrafficLightDetector,
    "obstacle": ObstacleDetector,
    "prediction": TrajectoryPredictor,
    "planning": MotionPlanner,
}


def make_module(kind: str) -> ToyModule:
    try:
        return _MODULE_CLASSES[kind]()
    except KeyError:
        raise ValueError(f"unknown module kind {kind!r}") from None


def apply_mutant(module: ToyModule, mutant: Mutant) -> ToyModule:
    """Return a new module with exactly one parameter or condition changed."""
    if mutant.module != module.kind:
        raise ValueError(
            f"mutant {mutant.id!r} targets module {mutant.module!r}, not {module.kind!r}"
        )
    if mutant.operator == "flip_condition":
        if mutant.target not in module.CONDITIONS:
            raise InputError(f"mutant {mutant.id!r}: unknown condition {mutant.target!r}")
        return type(module)(module.params, module.flipped | {mutant.target})
    if mutant.target not in module.params:
        raise InputError(f"mutant {mutant.id!r}: unknown parameter {mutant.target!r}")
    params = dict(module.params)
    old = params[mutant.target]
    if mutant.operator == "change_constant":
        params[mutant.target] = mutant.delta
    elif mutant.operator == "change_variable":
        params[mutant.target] = old + mutant.delta
    else:  # replace_arith: rescale, modeling an operator swap in the expression
        params[mutant.target] = old * mutant.delta
    return type(module)(params, module.flipped)


def mutable_targets(kind: str) -> dict[str, list[str]]:
    """Parameter and condition names a mutant may target for one module."""
    module = make_module(kind)
    return {"params": sorted(module.params), "conditions": sorted(module.CONDITIONS)}


def random_mutants(kind: str, count: int, seed: int) -> list[Mutant]:
    """Seeded random valid mutants of one module, ids ``<kind[:2]><i>``."""
    rng = random.Random(seed)
    targets = mutable_targets(kind)
    defaults = make_module(kind).params
    out = []
    for i in range(count):
        op = rng.choice(MUTATION_OPERATORS)
        if op == "flip_condition":
            target, delta = rng.choice(targets["conditions"]), 0.0
        else:
            target = rng.choice(targets["params"])
            base = defaults[target]
            if op == "change_constant":
                delta = round(base * rng.uniform(0.0, 2.0), 3)
            elif op == "change_variable":
                delta = round(base * rng.uniform(-0.5, 0.5), 3)
            else:
                delta = rng.choice((0.2, 0.5, 2.0, 5.0))
        out.append(Mutant(f"{kind[:2]}{i}", kind, target, op, delta))
    return out


def _canonical(what: str, value: Any, table: Mapping[Any, Any]) -> Any:
    """table[value]; InputError naming the script field unless value is a key of table."""
    if value not in table:
        raise InputError(f"script {what} {value!r} is not canonical")
    return table[value]


def _light_features(light: Mapping[str, Any]) -> dict[str, float]:
    color = light.get("color", "red")
    return {
        "hue_deg": _canonical("light color", color, LIGHT_HUE),
        "brightness": 0.0 if color == "black" else 1.0,
        "circularity": _canonical("light shape", light.get("shape", "round"), LIGHT_CIRCULARITY),
        "tilt_deg": _canonical("light orientation", light.get("orientation", "vertical"), LIGHT_TILT),
    }


def _actor_features(obstacle: Mapping[str, Any]) -> dict[str, Any]:
    actor, subtype = obstacle["actor"], obstacle.get("subtype")
    if subtype is None:
        subtype = _DEFAULT_SUBTYPE.get(actor)
    if (actor, subtype) not in ACTOR_BODY:
        raise InputError(f"script actor {actor!r}/{subtype!r} is not canonical")
    wheels, height, length, motor = ACTOR_BODY[actor, subtype]
    speed, lateral = _canonical("action", obstacle.get("action", "cruise"), ACTION_MOTION)
    return {
        "wheels": wheels,
        "height_m": height,
        "length_m": length,
        "motor_power": motor,
        "speed_mps": speed,
        "lateral_mps": lateral,
        **{name: obstacle.get(name, False) for name in ("on_crosswalk", "at_intersection")},
    }


def _scene_truth(state: Mapping[str, Any]) -> dict[str, Any]:
    return {
        "lights": [_light_features(lt) for lt in state.get("lights") or []],
        "actors": [_actor_features(ob) for ob in state.get("obstacles") or []],
        "statics": [
            {"name": name, "confidence": STATIC_CONFIDENCE, "distance_m": STATIC_NOMINAL_DISTANCE_M}
            for name in state.get("objects") or []
        ],
    }


def _glitch_payload(kind: MessageKind, payload: Mapping[str, Any]) -> dict[str, Any]:
    """Deterministic one-frame corruption of a module output."""
    if kind is MessageKind.TRAFFIC_LIGHT:
        lights = payload.get("lights") or []
        if not lights:
            return {"lights": [{"color": "red", "shape": "round", "orientation": "vertical"}]}
        return {
            "lights": [{**lt, "color": _GLITCH_COLOR.get(lt.get("color"), "red")} for lt in lights]
        }
    if kind is MessageKind.OBSTACLE:
        if payload.get("obstacles") or payload.get("objects"):
            return {"obstacles": [], "objects": []}
        return {
            "obstacles": [
                {
                    "actor": "pedestrian",
                    "action": "cross",
                    "on_crosswalk": False,
                    "at_intersection": False,
                    "speed_mps": 1.5,
                    "lateral_mps": 1.2,
                }
            ],
            "objects": [],
        }
    if kind is MessageKind.PREDICTION:
        tracks = payload.get("tracks") or []
        if not tracks:
            return {"tracks": [{"actor": "vehicle", "action": "stop"}]}
        return {
            "tracks": [{**t, "action": _GLITCH_ACTION.get(t.get("action"), "stop")} for t in tracks]
        }
    if kind is MessageKind.PLANNING:
        return {
            "ego_action": _GLITCH_ACTION.get(payload.get("ego_action"), "stop"),
            "stop_cause": None,
        }
    raise ValueError(f"channel kind {kind.value!r} does not glitch")


class _ComputeMemo:
    """A module's compute, run once per distinct set of the objects it reads.

    compute is pure, so a call whose ToyModule.reads objects are the ones
    of an earlier call, by identity, returns that call's output object.
    Each miss runs with a fresh call_log, kept with the output; call_counts
    adds every call's counts, so it equals what unmemoized calls would log
    and CC's call counts stay exact. The memo holds the objects it is keyed
    by, so their ids stay their own while it lives. The generator and every
    replay compute through one, each for the length of its own call; the
    class table keys its slots on key (_FrameClasses).
    """

    def __init__(self, module: ToyModule) -> None:
        self.module = module
        self.reads = tuple(module.reads.items())
        # Per key: the output, that call's call_log counts, and the objects read.
        self.memo: dict[tuple[int, ...], tuple[dict[str, Any], Counter[str], tuple[Any, ...]]] = {}
        self.ticks: Counter[tuple[int, ...]] = Counter()

    def read(self, inputs: Mapping[MessageKind, Mapping[str, Any]]) -> tuple[Any, ...]:
        """The objects of inputs that compute reads: its memo key, by identity."""
        return tuple([inputs[k] if f is None else inputs[k].get(f) for k, f in self.reads])

    def key(self, inputs: Mapping[MessageKind, Mapping[str, Any]]) -> tuple[int, ...]:
        """The memo key of inputs, computing on them if it is new."""
        read = self.read(inputs)
        key = tuple(map(id, read))
        if key not in self.memo:
            self.module.call_log = Counter()
            self.memo[key] = (self.module.compute(inputs), self.module.call_log, read)
        return key

    def compute(self, inputs: Mapping[MessageKind, Mapping[str, Any]]) -> dict[str, Any]:
        key = self.key(inputs)
        self.ticks[key] += 1
        return self.memo[key][0]

    def call_counts(self) -> dict[str, int]:
        # Keys in first-compute order, so names keep the order of their first call.
        calls: Counter[str] = Counter()
        for key, n in self.ticks.items():
            for name, count in self.memo[key][1].items():
                calls[name] += count * n
        return dict(calls)


def generate_recording(script: ScenarioScript, seed: int) -> Recording:
    """Run the unmutated toy pipeline over the scripted scenes.

    Frame i is tick i. The image and localization channels publish on every
    frame, and each module on its emission ticks, its last output staying
    its subscribers' input in between. A glitch replaces one emission of a
    module with probability glitch_rate (one draw per emission, in frame and
    then MODULE_KINDS order), and downstream modules consume it. Equal
    scenes and outputs, glitches among them, are one object, looked up by
    text as load_recording looks them up.

    The dirty rule: a module computes (through a _ComputeMemo) only at an
    emission where it glitches or is dirty, that is, where an object it
    reads (ToyModule.reads) has changed since its last emission or that
    emission glitched; compute is pure, so at any other it holds its output.
    Frames are walked one at a time only from a scene event or a glitch
    until no module is dirty, and the columns repeat what is held between.
    """
    n, width = script.duration_frames, len(MODULE_KINDS)
    modules = [make_module(kind) for kind in MODULE_KINDS]
    memos = [_ComputeMemo(module) for module in modules]
    readers = {kind: {k for k, m in enumerate(modules) if kind in m.reads} for kind in MessageKind}
    text = _text_memo()
    by_text: dict[str, Any] = {}

    def shared(o: Any) -> Any:
        return by_text.setdefault(text(o), o)

    def column(runs: dict[int, Any]) -> Iterator[Any]:
        """Per frame, the object of the last run (first frame -> object) started by then."""
        lengths = map(int.__sub__, [*list(runs)[1:], n], runs)
        return chain.from_iterable(map(repeat, runs.values(), lengths))

    # The scene changes only at events: its truth from each event frame on.
    state: dict[str, Any] = {}
    truths = {0: shared(_scene_truth(state))}
    for ev in sorted(script.events, key=lambda e: e.frame):
        for key in ev.unset:
            state.pop(key, None)
        state.update(ev.set)
        truths[ev.frame] = shared(_scene_truth(state))
    images = [{"ref": f"frame_{i:06d}", "scene": truth} for i, truth in enumerate(column(truths))]
    ticks = [bytes(map(m.emits_at, range(n))) for m in modules]
    glitches: set[int] = set()  # i * width + k: frame i's emission by modules[k], in draw order
    if script.glitch_rate:
        slots = bytearray(n * width)
        for k, t in enumerate(ticks):
            slots[k::width] = t
        draws = map(script.glitch_rate.__gt__, iter(random.Random(seed).random, None))
        glitches = set(compress(compress(range(n * width), slots), draws))

    held: list[dict[int, Any]] = [{} for _ in modules]  # per module: first frame -> output
    inputs: dict[MessageKind, Any] = {}
    dirty, scene, i = set(range(width)), None, 0
    for start in sorted({*truths, *(g // width for g in glitches)}):
        if start < i:
            continue  # walked already
        i = start
        while i < n:
            inputs[MessageKind.IMAGE_REF] = images[i]
            # The detectors read an image's scene alone, which changes only at events.
            if images[i]["scene"] is not scene:
                scene = images[i]["scene"]
                dirty |= readers[MessageKind.IMAGE_REF]
            for k, module in enumerate(modules):
                glitch = i * width + k in glitches
                if not ((glitch or k in dirty) and ticks[k][i]):
                    continue
                dirty.discard(k)
                payload = memos[k].compute(inputs)
                if glitch:
                    payload = _glitch_payload(module.publish_kind, payload)
                    dirty.add(k)
                if (payload := shared(payload)) is not inputs.get(module.publish_kind):
                    inputs[module.publish_kind] = held[k][i] = payload
                    dirty |= readers[module.publish_kind]
            i += 1
            if not dirty:
                break

    t_ns = [_frame_t_ns(i, script.fps) for i in range(n)]
    every = b"\x01" * n
    # i * 0.5 has one decimal at most, so it is its own round(..., 3).
    localization = [{"x": i * 0.5, "y": 0.0, "heading": 0.0} for i in range(n)]
    columns = {"image": (every, images), "localization": (every, localization)}
    columns.update(zip(MODULE_KINDS, zip(ticks, map(column, held))))
    channels = {}
    for name, (t, ps) in columns.items():
        offset = CHANNEL_OFFSETS_NS[name]
        times = array("q", [ti + offset for ti in compress(t_ns, t)])
        channels[name] = Channel._of(name, CHANNEL_KINDS[name], times, tuple(compress(ps, t)))
    return Recording(channels)


@dataclass(frozen=True)
class ReplayResult:
    """Per-frame module outputs plus replay bookkeeping."""

    messages: tuple[Message, ...]
    warmup_frames: int
    call_counts: Mapping[str, int]


def replay_segment(
    module: ToyModule, ar: AlignedRecording, lo: int, hi: int, warmup_frames: int = 0
) -> ReplayResult:
    """Replay one module over frames lo to hi - 1 of a grid, one output per frame.

    Frame i is tick i (the rule at AlignedRecording.fps). Outputs follow the
    hold rule (_FrameClasses); the first warmup_frames outputs are not
    comparable. compute goes through a _ComputeMemo.
    """
    span = range(len(ar))[lo:hi]
    if not span:
        raise ValueError("replay needs at least one frame")
    if not (0 <= warmup_frames < len(span)):
        raise ValueError(f"warmup_frames {warmup_frames} outside [0, {len(span)})")
    ar.fps  # frame i is tick i only on a regular grid
    out_channel = _output_channel(module, ar)
    fresh = module.fresh()
    memo = _ComputeMemo(fresh)
    on_inputs = _on_inputs(ar, memo.compute)
    outputs = []
    for i in span:
        if i == span.start or fresh.emits_at(i):
            held = on_inputs(i)
        outputs.append(Message(out_channel, ar.times[i], module.publish_kind, held))
    return ReplayResult(tuple(outputs), warmup_frames, memo.call_counts())


def _output_channel(module: ToyModule, ar: AlignedRecording) -> str:
    """The channel a replay of module over the grid publishes on.

    InputError when the grid lacks a kind the module reads or carries more
    than one channel of the kind it publishes. Without such a channel the
    replay publishes on one named after the module.
    """
    missing = module.reads.keys() - set(ar.kinds.values())
    if missing:
        raise InputError(
            f"module {module.kind!r} needs channel kind(s) "
            f"{sorted(k.value for k in missing)} absent from the frames"
        )
    out_channels = [name for name, kind in ar.kinds.items() if kind is module.publish_kind]
    if len(out_channels) > 1:
        raise InputError(
            f"frames carry {len(out_channels)} channels of kind {module.publish_kind.value!r}"
        )
    return out_channels[0] if out_channels else module.kind


def _on_inputs(
    ar: AlignedRecording, read: Callable[[dict[MessageKind, Mapping[str, Any]]], Any]
) -> Callable[[int], Any]:
    """The function of i giving read of frame i's inputs, one payload per kind.

    Of two channels of one kind a replay reads the last by name, the
    encoder claims objects from the first (schema.channel_order).
    When read fails on a payload of the wrong shape, InputError names its
    first bad field.
    """
    columns = {ch.kind: (ch.payloads, index) for ch, index in ar.columns.values()}.items()

    def on_inputs(i: int) -> Any:
        try:
            return read({kind: payloads[index[i]] for kind, (payloads, index) in columns})
        except (TypeError, AttributeError, KeyError):
            check_payloads(ar.row(i))
            raise

    return on_inputs


def _swapped_vectors(
    ar: AlignedRecording,
    channel: str,
    kind: MessageKind,
    replayed: Iterable[tuple[int, Mapping[str, Any]]],
    vectors: Sequence[FrameVector],
    encoder: FrameEncoder,
) -> list[FrameVector]:
    """The vector of aligned frame i with payload swapped in on channel, per (i, payload) pair.

    A frame whose payload equals the one recorded on that channel (of that
    kind) is unchanged, so its recorded vector is reused; only the other
    frames build a Message of kind and encode it swapped in, with encoder,
    whose channel kinds are the grid's with channel's set to kind.
    """
    recorded = ar.columns.get(channel)
    out = []
    for i, payload in replayed:
        if recorded and recorded.channel.kind is kind and recorded.payload(i) == payload:
            out.append(vectors[i])
        else:
            out.append(encoder.encode(ar, i, Message(channel, ar.times[i], kind, payload)))
    return out


@dataclass(frozen=True)
class PreparedRecording:
    """One module's view of a recording, aligned, encoded and reduced once.

    Everything downstream (replay, verdicts, plans, report totals and the
    CLI's artifacts) reads these values instead of recomputing them.
    """

    aligned: AlignedRecording
    module: str
    registry: SchemaRegistry
    cfg: ReductionConfig
    vectors: Sequence[FrameVector]
    segments: Sequence[Segment]
    segments_before_dedup: int


def prepare_recording(
    ar: AlignedRecording,
    module_kind: str,
    cfg: ReductionConfig = ReductionConfig(),
    registry: SchemaRegistry | None = None,
) -> PreparedRecording:
    """Encode an aligned recording in one module's view and reduce it."""
    if module_kind not in MODULE_KINDS:
        raise ValueError(f"unknown module kind {module_kind!r}")
    registry = registry or default_registry()
    vectors = encode_recording(ar, registry, module_kind)
    segments, before_dedup = reduce_recording(ar, vectors, cfg)
    ar.fps  # replays tick on the grid's clock: check it now, before any replay
    return PreparedRecording(ar, module_kind, registry, cfg, vectors, segments, before_dedup)


@dataclass(frozen=True)
class _FrameClasses:
    """The comparable frames of a prepared recording's segments, grouped by
    what a replay of one module makes of them.

    The hold rule: a replay from warm-up start lo computes on lo, its cold
    start, and on each emission tick after it (frame i is tick i, the rule
    at AlignedRecording.fps), holding its last output in between, so frame
    i's source frame is the last tick in (lo, i], or lo. The warm-up frames
    before a segment's start let that held state catch up and are not
    compared; the whole recording is one more segment
    (WHOLE_RECORDING_SEGMENT_ID) with none. Frame i's class is the objects
    the module reads at its source (ToyModule.reads, by identity) and the
    payloads the vector reads at i, the recorded output among them. compute
    being pure, under any one mutant every frame of a class, in any segment,
    gets the same output, comparison and vector; no mutant changes reads,
    publish_kind or emits_at, so one table serves all. The slot rule: a
    class's compute slot is the objects the module reads at its source, so
    a mutant computes once per slot, on the inputs of the slot's first
    class's source frame; slots are numbered in first-class order.

    A run is a longest span of frames holding the same objects of all that
    the vector and the modules read (recording.RUN_READS: each payload but
    image and localization ones, and each image's scene). Its frames encode
    alike, and the whole replay puts them in at most two classes: those
    before its first tick, sourced before it, and those from that tick on.
    """

    channel: str  # the replay's output channel
    slots: tuple[int, ...]  # per class, its compute slot
    firsts: tuple[int, ...]  # per class, its first frame
    # Per slot, its source frame and the inputs there, one payload per kind (_on_inputs).
    inputs: tuple[tuple[int, Mapping[MessageKind, Mapping[str, Any]]], ...]
    # Per segment, the whole recording first: the class of each comparable frame.
    segments: tuple[tuple[Segment, tuple[int, ...]], ...]


def _frame_classes(prepared: PreparedRecording, module: ToyModule) -> _FrameClasses:
    """The class table of a prepared recording for module and its mutants.

    The vector reads the channels of schema.channel_order. InputError when
    the frames cannot feed the module (_output_channel), or when the module,
    computing once on each run's inputs, cannot read them (_on_inputs):
    every module run checks its frames, whatever its mutants.
    """
    ar, vectors = prepared.aligned, prepared.vectors
    channel = _output_channel(module, ar)
    columns = [ar.columns[name] for name, _ in channel_order(ar.kinds)]
    memo_key = _ComputeMemo(module).key
    keyed_inputs = _on_inputs(ar, lambda inputs: (memo_key(inputs), inputs))
    index: dict[tuple[int, ...], int] = {}
    # Per read key, in slot order: its slot, source frame and inputs.
    slot_of: dict[tuple[int, ...], tuple[int, int, Mapping[MessageKind, Any]]] = {}
    slots: list[int] = []
    firsts: list[int] = []

    def slot_at(source: int) -> int:
        key, given = keyed_inputs(source)
        return slot_of.setdefault(key, (len(slot_of), source, given))[0]

    def class_of(slot: int, i: int) -> int:
        key = (slot, *[id(ch.payloads[k[i]]) for ch, k in columns])
        c = index.get(key)
        if c is None:
            c = index[key] = len(firsts)
            slots.append(slot)
            firsts.append(i)
        return c

    def ticks(span: range) -> Iterator[int]:
        # The frames of span the whole replay computes on.
        return (j for j in span if j == 0 or module.emits_at(j))

    of_frame: list[int] = []
    slot = 0  # frame 0 is a tick, so the first run sets it before any class reads it
    for a, b in pairwise(ar.run_bounds):
        tick = next(ticks(range(a, b)), b)
        if a < tick:  # frames before the run's first tick hold the last tick's output
            keyed_inputs(a)  # the input check: the module computes on each run's first frame
            of_frame += [class_of(slot, a)] * (tick - a)
        if tick < b:  # a slot keeps the inputs built at its tick, at a the input check
            slot = slot_at(tick)
            of_frame += [class_of(slot, tick)] * (b - tick)
    whole = Segment(WHOLE_RECORDING_SEGMENT_ID, 0, len(ar) - 1, vectors[0], 0)
    segments = [(whole, tuple(of_frame))]
    for s in prepared.segments:
        # Frames before lo's first tick hold lo's cold start (one tick gap at most).
        lo, end = s.warmup_start_idx, s.end_idx + 1
        cold = range(s.start_idx, max(s.start_idx, next(ticks(range(lo, end)), end)))
        row = (*[class_of(slot_at(lo), i) for i in cold], *of_frame[cold.stop : end])
        segments.append((s, row))
    inputs = tuple((source, given) for _, source, given in slot_of.values())
    return _FrameClasses(channel, tuple(slots), tuple(firsts), inputs, tuple(segments))


def _class_vectors(
    prepared: PreparedRecording, mutated: ToyModule, classes: _FrameClasses
) -> list[FrameVector]:
    """The replayed vector of each class of the table, for one mutated module.

    The mutant computes once per slot (the slot rule at _FrameClasses), and
    each class's first frame takes its slot's output, swapped in as a
    replay's output is (_swapped_vectors), so a segment's class vectors
    equal replay_segment's vectors over its comparable frames. The encoder's
    memo holds this mutant's replayed payloads, which no other mutant's
    replay shares, so it goes with them.
    """
    ar, kind, channel = prepared.aligned, mutated.publish_kind, classes.channel
    compute = mutated.fresh().compute
    outputs = []
    # Every slot computes before any class encodes, so a payload the module cannot
    # read fails first, on the frame a replay fails on (_on_inputs).
    for source, inputs in classes.inputs:
        try:
            outputs.append(compute(inputs))
        except (TypeError, AttributeError, KeyError):
            check_payloads(ar.row(source))
            raise
    replayed = zip(classes.firsts, map(outputs.__getitem__, classes.slots))
    encoder = FrameEncoder(prepared.registry, prepared.module, {**ar.kinds, channel: kind})
    return _swapped_vectors(ar, channel, kind, replayed, prepared.vectors, encoder)


def _check_run_inputs(strategies: Sequence[str], mutants: Sequence[Mutant], repetitions: int) -> list[str]:
    """Parsed strategy names; InputError on an unknown name, a repeated mutant id or repetitions < 1.

    Results are keyed by mutant id, so a repeated id would silently replace
    the first mutant's verdicts.
    """
    if repetitions < 1:
        raise InputError(f"repetitions must be positive, got {repetitions}")
    seen: set[str] = set()
    for m in mutants:
        if m.id in seen:
            raise InputError(f"duplicate mutant id {m.id!r}")
        seen.add(m.id)
    return parse_strategies(strategies)


def run_prepared(
    prepared: PreparedRecording,
    mutants: Sequence[Mutant],
    strategies: Sequence[str] = STRATEGIES,
    *,
    seed: int = 0,
    repetitions: int = 100,
    rarity_mode: str = "indicator",
) -> tuple[dict[str, Any], dict[str, list[PrioritizedPlan]]]:
    """Replay mutants over a prepared recording and score prioritization plans.

    Returns the report and every plan it scored, keyed by strategy. Only the
    prepared module is replayed: a mutant of another module cannot change
    its outputs (toy modules are pure), so its verdicts are clean. Each own
    mutant computes one vector per frame class (_FrameClasses), and each
    verdict, the whole recording's among them, is compare_outputs of a
    segment's recorded and class vectors. The CC call counts still replay
    each segment's frames, when the module has an own mutant. Strategy
    names, mutant ids and repetitions are checked before any replay, and
    every own mutant applies before any frame is checked.
    """
    strategies = _check_run_inputs(strategies, mutants, repetitions)
    ar, module_kind, cfg = prepared.aligned, prepared.module, prepared.cfg
    vectors, segments = prepared.vectors, prepared.segments
    module = make_module(module_kind)
    n_frames = len(ar)
    own = [(m, apply_mutant(module, m)) for m in mutants if m.module == module_kind]
    classes = _frame_classes(prepared, module)  # one table for all own mutants, and the input check

    full: dict[str, bool] = {}
    tables: dict[str, dict[int, FaultVerdict]] = {}
    for mutant, mutated in own:
        by_class = _class_vectors(prepared, mutated, classes)
        whole, *verdicts = [
            compare_outputs(vectors[s.start_idx : s.end_idx + 1], [by_class[c] for c in row], s)
            for s, row in classes.segments
        ]
        full[mutant.id] = whole.is_fault
        tables[mutant.id] = {v.segment_id: v for v in verdicts}
    clean = {s.id: FaultVerdict(s.id, 0, s.length) for s in segments}
    for m in mutants:
        if m.module != module_kind:
            full[m.id], tables[m.id] = False, clean
    flags = {mid: {sid: v.is_fault for sid, v in table.items()} for mid, table in tables.items()}
    fault_sets, coverage, detected = detections(full, flags, [s.id for s in segments])

    # Call counts for CC: unmutated replay of each segment body, counting
    # calls of the functions the mutant set touches. Without an own mutant
    # none counts and nothing replays.
    functions = {module.PARAM_FUNCTIONS[m.target] for m, _ in own}
    replays = (
        replay_segment(module, ar, s.start_idx, s.end_idx + 1) if functions else None for s in segments
    )
    call_counts = [sum(r.call_counts.get(f, 0) for f in functions) for r in replays]

    plans = build_plans(
        strategies,
        segments,
        vectors,
        seed=seed,
        repetitions=repetitions,
        rarity_mode=rarity_mode,
        call_counts=call_counts,
    )
    apfd_by, topk_by = score_plans(plans, fault_sets)
    strategy_details: dict[str, Any] = {}
    for name, plan_list in plans.items():
        detail: dict[str, Any] = {"plans": len(plan_list)}
        if len(plan_list) == 1:
            detail["order"] = list(plan_list[0].order)
            detail["scores"] = list(plan_list[0].scores)
        else:
            detail["seed"] = seed
        strategy_details[name] = detail

    reduced = sum(s.length for s in segments)
    reduced_wu = sum(s.length_with_warmup for s in segments)
    report = {
        "reduction_pct": reduction_pct(n_frames, reduced),
        # Warm-up frames can overlap across segments, so this figure may
        # legitimately go negative for pathological configs; report it raw.
        "reduction_pct_with_warmup": (n_frames - reduced_wu) / n_frames,
        "fault_coverage": coverage,
        "apfd": apfd_by,
        "top_k": topk_by,
        "totals": {
            "original_frames": n_frames,
            "reduced_frames": reduced,
            "reduced_frames_with_warmup": reduced_wu,
            "segments_before_dedup": prepared.segments_before_dedup,
            "segments_after_dedup": len(segments),
        },
        "details": {
            "module": module_kind,
            "config": {**asdict(cfg), "seed": seed, "repetitions": repetitions, "rarity_mode": rarity_mode},
            "mutants": {
                m.id: {
                    "module": m.module,
                    "detected_full": full[m.id],
                    "detected_reduced": any(flags[m.id].values()),
                    "segments": {
                        str(sid): {
                            "mismatched_frames": v.mismatched_frames,
                            "total_frames": v.total_frames,
                            "is_fault": v.is_fault,
                        }
                        for sid, v in sorted(tables[m.id].items())
                    },
                }
                for m in sorted(mutants, key=lambda m: m.id)
            },
            **detected,
            "strategies": strategy_details,
            "call_counts": call_counts,
            "segment_ids": [s.id for s in segments],
        },
    }
    return report, plans


def run_regression(
    recording: Recording,
    module_kind: str,
    mutants: Sequence[Mutant],
    strategies: Sequence[str] = STRATEGIES,
    cfg: ReductionConfig = ReductionConfig(),
    *,
    registry: SchemaRegistry | None = None,
    **kwargs: Any,
) -> dict[str, Any]:
    """Align, encode and reduce a recording, then run its regression (run_prepared)."""
    prepared = prepare_recording(align_recording(recording), module_kind, cfg, registry)
    report, _ = run_prepared(prepared, mutants, strategies, **kwargs)
    return report


def segment_ids_before_dedup(vectors: Sequence[FrameVector], cfg: ReductionConfig) -> list[int]:
    """Chronological segment ids prior to deduplication.

    The pipeline does not call this: reduce_recording counts the segments
    before dedup in its own smoothing and segmentation pass.
    """
    return [s.id for s in segment(smooth(vectors, cfg.window_w))]


def run_benchmark(
    recording: Recording,
    mutants: Sequence[Mutant],
    strategies: Sequence[str] = STRATEGIES,
    cfg: ReductionConfig = ReductionConfig(),
    *,
    registry: SchemaRegistry | None = None,
    repetitions: int = 100,
    **kwargs: Any,
) -> dict[str, Any]:
    """Run one regression per module kind and aggregate the report documents.

    The recording is aligned once. Each module encodes its own view
    of that alignment and replays its own mutants; a view is dropped before
    the next one is built. Coverage aggregates over all mutants; APFD and
    Top-K are averaged over the module runs where they are defined; frame
    totals are summed.
    """
    strategies = _check_run_inputs(strategies, mutants, repetitions)
    ar = align_recording(recording)
    sub: dict[str, dict[str, Any]] = {}
    for kind in MODULE_KINDS:
        own = [m for m in mutants if m.module == kind]
        sub[kind], _ = run_prepared(
            prepare_recording(ar, kind, cfg, registry), own, strategies, repetitions=repetitions, **kwargs
        )

    reports = list(sub.values())
    # Each mutant is in its own module's report only, so the lists join.
    detected = {
        key: sorted(chain.from_iterable(r["details"][key] for r in reports))
        for key in ("detected_full", "detected_reduced", "undetected")
    }
    coverage = fault_coverage(detected["detected_reduced"], detected["detected_full"])
    return {
        "reduction_pct": mean_defined(r["reduction_pct"] for r in reports),
        "reduction_pct_with_warmup": mean_defined(r["reduction_pct_with_warmup"] for r in reports),
        "fault_coverage": coverage,
        "apfd": {name: mean_defined(r["apfd"][name] for r in reports) for name in strategies},
        "top_k": {name: mean_defined(r["top_k"][name] for r in reports) for name in strategies},
        "totals": {key: sum(r["totals"][key] for r in reports) for key in reports[0]["totals"]},
        "details": {"aggregate": "per-module mean", **detected, "modules": sub},
    }
