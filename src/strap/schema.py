"""Driving-scene schema: dimension registry and frame vectorization.

Each frame of an aligned recording is encoded as a fixed-length integer
vector. Every vector slot is one schema dimension: either the presence of an
object type (vehicle, traffic light, crosswalk, ...) or a property of a
present object (subtype, action, light color, ...). Code 0 is reserved in
every dimension for "none"; all real codes are positive and unique within
their dimension. The default registry additionally keeps codes unique across
the whole vector, which makes raw vectors readable on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .fileio import InputError, check, is_json_int, read_json
from .recording import AlignedRecording, Message, MessageKind, check_payloads

PRESENCE = "presence"
PROPERTY = "property"

ALWAYS_KEEP_DEFAULT = frozenset({"stop_sign", "intersection", "crosswalk"})

MODULE_KINDS = ("traffic_light", "obstacle", "prediction", "planning")

# Channels each pipeline module subscribes or publishes. A module's view of
# a vector keeps the dimensions sourced from these channels and the
# registry's always-kept ones (FrameEncoder).
MODULE_CHANNELS: Mapping[str, frozenset[MessageKind]] = {
    "traffic_light": frozenset({MessageKind.IMAGE_REF, MessageKind.TRAFFIC_LIGHT}),
    "obstacle": frozenset({MessageKind.IMAGE_REF, MessageKind.OBSTACLE}),
    "prediction": frozenset(
        {
            MessageKind.LOCALIZATION,
            MessageKind.TRAFFIC_LIGHT,
            MessageKind.OBSTACLE,
            MessageKind.PREDICTION,
        }
    ),
    "planning": frozenset(
        {
            MessageKind.LOCALIZATION,
            MessageKind.TRAFFIC_LIGHT,
            MessageKind.OBSTACLE,
            MessageKind.PREDICTION,
            MessageKind.PLANNING,
        }
    ),
    "all": frozenset(MessageKind),
}

# Payload field values mapped onto presence dimensions.
_ACTOR_DIMS = {
    "vehicle": "vehicle",
    "pedestrian": "pedestrian",
    "cyclist": "cyclist",
    "unknown": "unknown_actor",
}
_STATIC_DIMS = {
    "stop_sign": "stop_sign",
    "crosswalk": "crosswalk",
    "intersection": "intersection",
    "traffic_cone": "traffic_cone",
    "unknown": "unknown_static",
}


@dataclass(frozen=True)
class DimensionSpec:
    """One vector slot: its name, kind, source channel, and code table."""

    name: str
    kind: str
    source_channel: MessageKind
    codes: Mapping[str, int]
    parent: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in (PRESENCE, PROPERTY):
            raise InputError(f"dimension {self.name!r}: unknown kind {self.kind!r}")
        values = list(self.codes.values())
        if any(not is_json_int(c) or c <= 0 for c in values):
            raise InputError(f"dimension {self.name!r}: codes must be positive integers")
        if len(set(values)) != len(values):
            raise InputError(f"dimension {self.name!r}: duplicate codes")

    def code(self, value: str) -> int:
        try:
            return self.codes[value]
        except KeyError:
            raise InputError(f'dimension "{self.name}": unknown value "{value}"') from None


@dataclass(frozen=True)
class SchemaRegistry:
    """Ordered dimension list plus the always-preserved dimension names."""

    dimensions: tuple[DimensionSpec, ...]
    always_keep: frozenset[str]

    def __post_init__(self) -> None:
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise InputError("duplicate dimension names")
        by_name = {d.name: d for d in self.dimensions}
        for d in self.dimensions:
            if d.parent is not None:
                parent = by_name.get(d.parent)
                if parent is None or parent.kind != PRESENCE:
                    raise InputError(
                        f"dimension {d.name!r}: parent {d.parent!r} is not a presence dimension"
                    )
                if d.kind != PROPERTY:
                    raise InputError(f"dimension {d.name!r}: only property dimensions take a parent")
        missing = self.always_keep - set(names)
        if missing:
            raise InputError(f"always_keep names unknown dimensions: {sorted(missing)}")

    def __len__(self) -> int:
        return len(self.dimensions)


# An encoded frame: one code per registry dimension. A vector carries no time;
# times live on the aligned grid and in the vectors and segments documents.
FrameVector = tuple[int, ...]


def check_vectors(rows: Sequence[Sequence[int]], what: str, row_name: str) -> None:
    """InputError unless every row has row 0's length and no negative code.

    Codes are positive and 0 means "none". The error names the first bad
    row as row_name.format(i).
    """
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]) or min(row, default=0) < 0:
            raise InputError(
                f"{what}: {row_name.format(i)} must be {len(rows[0])} non-negative codes, got {row}"
            )


def default_registry() -> SchemaRegistry:
    """The built-in scene schema.

    Presence dimensions cover dynamic actors and static scene objects; each
    actor presence is followed by its property dimensions so related slots
    stay consecutive. Codes are assigned sequentially across the registry,
    starting at 1, so every code is globally unique and 0 always means
    "none". Ego dimensions are top-level properties without a parent.
    """
    actions = ("stop", "cruise", "change_lane", "overtake", "cross")
    layout: list[tuple[str, str, MessageKind, Sequence[str], str | None]] = [
        ("vehicle", PRESENCE, MessageKind.OBSTACLE, ("vehicle",), None),
        ("vehicle.subtype", PROPERTY, MessageKind.OBSTACLE, ("truck", "car", "bus", "van"), "vehicle"),
        ("vehicle.action", PROPERTY, MessageKind.PREDICTION, actions, "vehicle"),
        ("pedestrian", PRESENCE, MessageKind.OBSTACLE, ("pedestrian",), None),
        ("pedestrian.action", PROPERTY, MessageKind.PREDICTION, actions, "pedestrian"),
        ("cyclist", PRESENCE, MessageKind.OBSTACLE, ("cyclist",), None),
        (
            "cyclist.subtype",
            PROPERTY,
            MessageKind.OBSTACLE,
            ("bicyclist", "motorcyclist", "tricyclist"),
            "cyclist",
        ),
        ("cyclist.action", PROPERTY, MessageKind.PREDICTION, actions, "cyclist"),
        ("unknown_actor", PRESENCE, MessageKind.OBSTACLE, ("unknown_actor",), None),
        ("unknown_actor.action", PROPERTY, MessageKind.PREDICTION, actions, "unknown_actor"),
        ("traffic_light", PRESENCE, MessageKind.TRAFFIC_LIGHT, ("traffic_light",), None),
        (
            "traffic_light.color",
            PROPERTY,
            MessageKind.TRAFFIC_LIGHT,
            ("red", "green", "yellow", "black"),
            "traffic_light",
        ),
        ("traffic_light.shape", PROPERTY, MessageKind.TRAFFIC_LIGHT, ("square", "round"), "traffic_light"),
        (
            "traffic_light.orientation",
            PROPERTY,
            MessageKind.TRAFFIC_LIGHT,
            ("vertical", "horizontal"),
            "traffic_light",
        ),
        ("stop_sign", PRESENCE, MessageKind.OBSTACLE, ("stop_sign",), None),
        ("crosswalk", PRESENCE, MessageKind.OBSTACLE, ("crosswalk",), None),
        ("intersection", PRESENCE, MessageKind.OBSTACLE, ("intersection",), None),
        ("traffic_cone", PRESENCE, MessageKind.OBSTACLE, ("traffic_cone",), None),
        ("unknown_static", PRESENCE, MessageKind.OBSTACLE, ("unknown_static",), None),
        ("ego.action", PROPERTY, MessageKind.PLANNING, ("stop", "cruise", "change_lane", "overtake"), None),
        ("ego.stop_cause", PROPERTY, MessageKind.PLANNING, ("traffic_light", "stop_sign"), None),
    ]
    dims = []
    next_code = 1
    for name, kind, source, values, parent in layout:
        codes = {}
        for v in values:
            codes[v] = next_code
            next_code += 1
        dims.append(DimensionSpec(name, kind, source, codes, parent))
    return SchemaRegistry(tuple(dims), ALWAYS_KEEP_DEFAULT)


# An unbound contribution method: an encoder's order refers back to no
# encoder, so no cycle keeps an encoder's memo alive while the CLI pauses the
# cyclic collector.
Contribution = Callable[["FrameEncoder", Mapping[str, Any], list, set], None]


def channel_order(kinds: Mapping[str, MessageKind]) -> tuple[tuple[str, Contribution], ...]:
    """The dimension-bearing channels of a row with these channel kinds, in encoding order.

    Kinds go in MessageKind order and channels of one kind by name; when
    two channels of one kind report the same object, the first wins.
    """
    return tuple(
        (name, getattr(FrameEncoder, FrameEncoder._CONTRIBUTIONS[kind]))
        for kind in MessageKind
        if kind in FrameEncoder._CONTRIBUTIONS
        for name in sorted(kinds)
        if kinds[name] is kind
    )


class FrameEncoder:
    """Encodes rows of one channel layout against one registry, in one module's view.

    A module's view keeps the dimensions sourced from the channels it reads
    or writes (MODULE_CHANNELS) plus the registry's always-kept ones; the
    channel kinds fix the encoding order (channel_order). The name-to-slot
    index, the slots the view drops and the (parent, child) slot pairs are
    built once, so encoding many frames does not rebuild them per frame.
    encode_frame, apply_filter and encode_recording all go through this
    class; it is the only encoding rule.

    Each dimension-bearing MessageKind has its own contribution method. The
    dimension names the kinds write are disjoint, so their first-wins
    ``claimed`` rules never interact and the merged vector does not depend
    on which kind goes first.

    A frame's vector depends only on its dimension-bearing payloads, which
    are never mutated (recording.Message), so encode memoizes the finished
    vector by those payloads' identities and returns that one tuple for
    every frame holding them. The memo holds the payloads, so an id is
    never reused while it lives, and it lives as long as the encoder.
    """

    _CONTRIBUTIONS = {
        MessageKind.TRAFFIC_LIGHT: "_traffic_light",
        MessageKind.OBSTACLE: "_obstacle",
        MessageKind.PREDICTION: "_prediction",
        MessageKind.PLANNING: "_planning",
    }

    def __init__(self, registry: SchemaRegistry, module: str, kinds: Mapping[str, MessageKind]) -> None:
        if module not in MODULE_CHANNELS:
            raise ValueError(f"unknown module {module!r}")
        channels, keep = MODULE_CHANNELS[module], registry.always_keep
        dims = registry.dimensions
        self.size = len(dims)
        self.order = channel_order(kinds)
        self._dims = {d.name: (i, d) for i, d in enumerate(dims)}
        self._dropped = tuple(
            i for i, d in enumerate(dims) if d.source_channel not in channels and d.name not in keep
        )
        self._pairs = tuple(
            (self._dims[d.parent][0], i) for i, d in enumerate(dims) if d.parent is not None
        )
        self._memo: dict[tuple[int, ...], tuple[tuple, tuple[int, ...]]] = {}

    def encode(self, ar: AlignedRecording, i: int, swap: Message | None = None) -> FrameVector:
        """Encode row i of the grid in the module's view, with swap, if given, on its channel."""
        out = None if swap is None else swap.channel
        columns = ar.columns
        payloads = tuple([swap.payload if name == out else columns[name].payload(i) for name, _ in self.order])
        key = tuple(map(id, payloads))
        hit = self._memo.get(key)
        if hit is not None:
            return hit[1]
        values = [0] * self.size
        claimed: set[str] = set()
        try:
            for (_, contribute), payload in zip(self.order, payloads):
                contribute(self, payload, values, claimed)
        except (TypeError, AttributeError, KeyError):
            check_payloads(ar.row(i) if swap is None else {**ar.row(i), out: swap})
            raise
        finished = self._finish(values)
        self._memo[key] = (payloads, finished)
        return finished

    def filter(self, vector: FrameVector) -> FrameVector:
        if len(vector) != self.size:
            raise ValueError(
                f"vector length {len(vector)} does not match registry size {self.size}"
            )
        return self._finish(list(vector))

    def _finish(self, values: list[int]) -> tuple[int, ...]:
        # Zero the dimensions outside the view, then the properties of
        # absent or dropped parents: an absent object has no properties,
        # whatever the payload claimed. Parents are presence dimensions and
        # never have parents of their own, so one sweep over the pairs is
        # enough.
        for i in self._dropped:
            values[i] = 0
        for parent, child in self._pairs:
            if not values[parent]:
                values[child] = 0
        return tuple(values)

    def _put(self, values: list, name: str, value: str) -> None:
        hit = self._dims.get(name)
        if hit is not None:
            values[hit[0]] = hit[1].code(value)

    def _traffic_light(self, payload: Mapping[str, Any], values: list, claimed: set) -> None:
        lights = payload.get("lights") or []
        if lights and "traffic_light" not in claimed:
            claimed.add("traffic_light")
            self._put(values, "traffic_light", "traffic_light")
            first = lights[0]
            for prop in ("color", "shape", "orientation"):
                if first.get(prop) is not None:
                    self._put(values, f"traffic_light.{prop}", first[prop])

    def _obstacle(self, payload: Mapping[str, Any], values: list, claimed: set) -> None:
        for obj in payload.get("obstacles") or []:
            dim = _actor_dim(obj.get("actor"))
            if dim not in claimed:
                claimed.add(dim)
                self._put(values, dim, dim)
                if obj.get("subtype") is not None:
                    self._put(values, f"{dim}.subtype", obj["subtype"])
            if obj.get("on_crosswalk"):
                self._put(values, "crosswalk", "crosswalk")
            if obj.get("at_intersection"):
                self._put(values, "intersection", "intersection")
        for name in payload.get("objects") or []:
            dim = _STATIC_DIMS.get(name)
            if dim is None:
                raise InputError(f'dimension "objects": unknown value "{name}"')
            self._put(values, dim, dim)

    def _prediction(self, payload: Mapping[str, Any], values: list, claimed: set) -> None:
        for track in payload.get("tracks") or []:
            target = f"{_actor_dim(track.get('actor'))}.action"
            if target not in claimed and track.get("action") is not None:
                claimed.add(target)
                self._put(values, target, track["action"])

    def _planning(self, payload: Mapping[str, Any], values: list, claimed: set) -> None:
        for field, dim in (("ego_action", "ego.action"), ("stop_cause", "ego.stop_cause")):
            if payload.get(field) is not None and dim not in claimed:
                claimed.add(dim)
                self._put(values, dim, payload[field])


def _actor_dim(actor: Any) -> str:
    dim = _ACTOR_DIMS.get(actor)
    if dim is None:
        raise InputError(f'dimension "actor": unknown value "{actor}"')
    return dim


def encode_frame(ar: AlignedRecording, i: int, registry: SchemaRegistry) -> FrameVector:
    """Encode frame i of an aligned recording. Missing channels mean "nothing detected".

    When a payload reports several objects of the same presence dimension,
    the dimension records presence once and takes its property values from
    the first such object in payload order. Localization and image-reference
    channels carry no schema dimensions.
    """
    return FrameEncoder(registry, "all", ar.kinds).encode(ar, i)


def apply_filter(vector: FrameVector, module: str, registry: SchemaRegistry) -> FrameVector:
    """Zero out dimensions outside the module's view; vector length is unchanged."""
    return FrameEncoder(registry, module, {}).filter(vector)


def encode_recording(ar: AlignedRecording, registry: SchemaRegistry, module: str = "all") -> list[FrameVector]:
    """Vectorize every frame in one module's view ("all" keeps every dimension).

    Each run of AlignedRecording.run_bounds encodes once (synth._FrameClasses
    states the run rule); every frame of a grid lists the same channels. Then
    the scenes, which no vector reads, are checked (AlignedRecording.scenes_checked).
    """
    encoder = FrameEncoder(registry, module, ar.kinds)
    vectors: list[FrameVector] = []
    for a, b in pairwise(ar.run_bounds):
        vectors += [encoder.encode(ar, a)] * (b - a)
    ar.scenes_checked
    return vectors


def registry_to_json(registry: SchemaRegistry) -> dict[str, Any]:
    return {
        "dimensions": [
            {
                "name": d.name,
                "kind": d.kind,
                "parent": d.parent,
                "source_channel": d.source_channel.value,
                "codes": dict(d.codes),
            }
            for d in registry.dimensions
        ],
        "always_keep": sorted(registry.always_keep),
    }


SCHEMA_FORMAT = {
    "dimensions!": [{
        "name!": str, "kind!": str, "source_channel!": str, "codes!": {str: int}, "parent?": str,
    }],
    "always_keep?": [str],
}


def registry_from_json(data: Any) -> SchemaRegistry:
    check(data, SCHEMA_FORMAT, "invalid schema document")
    try:
        dims = tuple(
            DimensionSpec(d["name"], d["kind"], MessageKind(d["source_channel"]), d["codes"],
                          d.get("parent"))
            for d in data["dimensions"]
        )
    except ValueError as exc:
        raise InputError(f"invalid schema document: {exc}") from exc
    return SchemaRegistry(dims, frozenset(data.get("always_keep") or ()))


def load_registry(path: str | Path) -> SchemaRegistry:
    return registry_from_json(read_json(path))
