"""Scene schema: registry invariants, frame encoding, module views."""

from __future__ import annotations

import pytest
from conftest import Frame, grid_of

from strap.fileio import InputError, atomic_write_json
from strap.recording import Message, MessageKind
from strap.schema import (
    MODULE_KINDS,
    DimensionSpec,
    FrameEncoder,
    SchemaRegistry,
    apply_filter,
    encode_frame,
    load_registry,
    registry_from_json,
    registry_to_json,
)


def dim_names(registry):
    return [d.name for d in registry.dimensions]


def dim_index(registry, name):
    return dim_names(registry).index(name)


def frame(t=0, **by_kind):
    """A one-frame grid: a channel per kind, named after it."""
    msgs = {}
    for kind_name, payload in by_kind.items():
        kind = MessageKind(kind_name)
        msgs[kind_name] = Message(kind_name, t, kind, payload)
    return grid_of([Frame(t, msgs)])


class TestRegistry:
    def test_shape(self, registry):
        assert len(registry) == 21
        assert registry.always_keep == frozenset({"stop_sign", "crosswalk", "intersection"})

    def test_codes_are_sequential_and_globally_unique(self, registry):
        codes = [c for d in registry.dimensions for c in d.codes.values()]
        assert sorted(codes) == list(range(1, 52))

    def test_zero_means_absent_everywhere(self, registry):
        assert 0 not in {c for d in registry.dimensions for c in d.codes.values()}

    def test_property_dims_name_their_parent(self, registry):
        by_name = {d.name: d for d in registry.dimensions}
        assert by_name["vehicle.subtype"].parent == "vehicle"
        assert by_name["cyclist.action"].parent == "cyclist"
        # Ego dimensions describe the vehicle under test, not a detected object.
        assert by_name["ego.action"].parent is None
        assert by_name["ego.stop_cause"].parent is None

    def test_unknown_value_message(self, registry):
        dim = registry.dimensions[dim_index(registry, "traffic_light.color")]
        with pytest.raises(InputError, match='dimension "traffic_light.color": unknown value "purple"'):
            dim.code("purple")

    def test_duplicate_codes_rejected(self):
        with pytest.raises(InputError, match="duplicate codes"):
            DimensionSpec("x", "property", MessageKind.PLANNING, {"a": 1, "b": 1})

    def test_parent_must_be_presence(self):
        dims = (
            DimensionSpec("a", "property", MessageKind.PLANNING, {"v": 1}),
            DimensionSpec("b", "property", MessageKind.PLANNING, {"w": 2}, parent="a"),
        )
        with pytest.raises(InputError, match="not a presence"):
            SchemaRegistry(dims, frozenset())

    def test_json_round_trip(self, registry, tmp_path):
        p = tmp_path / "schema.json"
        atomic_write_json(p, registry_to_json(registry))
        again = load_registry(p)
        assert registry_to_json(again) == registry_to_json(registry)

    def test_bad_document(self):
        with pytest.raises(InputError, match="invalid schema document"):
            registry_from_json({"dimensions": [{"name": "x"}]})


class TestEncode:
    def test_full_frame_hand_traced(self, registry):
        f = frame(
            t=7,
            traffic_light={"lights": [{"color": "red", "shape": "round", "orientation": "vertical"}]},
            obstacle={
                "obstacles": [{"actor": "vehicle", "subtype": "car", "on_crosswalk": True}],
                "objects": ["stop_sign"],
            },
            prediction={"tracks": [{"actor": "vehicle", "action": "stop"}]},
            planning={"ego_action": "stop", "stop_cause": "traffic_light"},
        )
        v = encode_frame(f, 0, registry)
        expected = {
            "vehicle": 1,
            "vehicle.subtype": 3,
            "vehicle.action": 6,
            "traffic_light": 32,
            "traffic_light.color": 33,
            "traffic_light.shape": 38,
            "traffic_light.orientation": 39,
            "stop_sign": 41,
            "crosswalk": 42,
            "ego.action": 46,
            "ego.stop_cause": 50,
        }
        for name, code in zip(dim_names(registry), v):
            assert code == expected.get(name, 0), name

    def test_same_payloads_share_one_vector(self, registry):
        # A vector is its values: messages of another time holding the same
        # payload objects encode to the very tuple the encoder memoized.
        f = frame(t=7, traffic_light={"lights": [{"color": "red"}]}, planning={"ego_action": "stop"})
        later = grid_of([Frame(107, {n: Message(n, 107, m.kind, m.payload) for n, m in f.row(0).items()})])
        encoder = FrameEncoder(registry, "all", f.kinds)
        v = encoder.encode(f, 0)
        assert type(v) is tuple
        assert encoder.encode(later, 0) is v
        copied = frame(t=7, traffic_light={"lights": [{"color": "red"}]}, planning={"ego_action": "stop"})
        assert encoder.encode(copied, 0) == v

    def test_empty_frame_is_all_zero(self, registry):
        v = encode_frame(frame(localization={"x": 0.0}), 0, registry)
        assert set(v) == {0}

    def test_orphan_action_is_zeroed(self, registry):
        # A predicted track with no matching detection claims nothing.
        f = frame(prediction={"tracks": [{"actor": "pedestrian", "action": "cross"}]})
        v = encode_frame(f, 0, registry)
        assert v[dim_index(registry, "pedestrian")] == 0
        assert v[dim_index(registry, "pedestrian.action")] == 0

    def test_first_object_of_a_kind_wins(self, registry):
        f = frame(
            obstacle={
                "obstacles": [
                    {"actor": "vehicle", "subtype": "truck"},
                    {"actor": "vehicle", "subtype": "bus"},
                ]
            }
        )
        v = encode_frame(f, 0, registry)
        assert v[dim_index(registry, "vehicle.subtype")] == 2

    def test_first_light_provides_properties(self, registry):
        f = frame(traffic_light={"lights": [{"color": "green"}, {"color": "red"}]})
        v = encode_frame(f, 0, registry)
        assert v[dim_index(registry, "traffic_light")] == 32
        assert v[dim_index(registry, "traffic_light.color")] == 34
        assert v[dim_index(registry, "traffic_light.shape")] == 0

    def test_unknown_actor_value_raises(self, registry):
        f = frame(obstacle={"obstacles": [{"actor": "dragon"}]})
        with pytest.raises(InputError, match='unknown value "dragon"'):
            encode_frame(f, 0, registry)

    def test_crosswalk_inferred_from_obstacle_flag(self, registry):
        f = frame(obstacle={"obstacles": [{"actor": "pedestrian", "on_crosswalk": True}]})
        v = encode_frame(f, 0, registry)
        assert v[dim_index(registry, "crosswalk")] == 42


def kept(registry, module):
    """The dimensions a module's view keeps of a vector with every slot set."""
    out = apply_filter((1,) * len(registry), module, registry)
    return frozenset(name for name, code in zip(dim_names(registry), out) if code)


class TestFilter:
    def test_module_filters_cover_expected_dimensions(self, registry):
        assert kept(registry, "traffic_light") == frozenset(
            {
                "traffic_light",
                "traffic_light.color",
                "traffic_light.shape",
                "traffic_light.orientation",
                "stop_sign",
                "crosswalk",
                "intersection",
            }
        )
        ob = kept(registry, "obstacle")
        assert "vehicle" in ob
        assert "vehicle.action" not in ob
        assert "ego.action" not in ob
        assert kept(registry, "all") == frozenset(dim_names(registry))

    def test_unknown_module_rejected(self, registry):
        with pytest.raises(ValueError, match="unknown module 'radar'"):
            FrameEncoder(registry, "radar", {})
        with pytest.raises(ValueError, match="unknown module 'radar'"):
            apply_filter((0,) * len(registry), "radar", registry)

    def test_filter_zeroes_and_keeps_length(self, registry):
        f = frame(
            traffic_light={"lights": [{"color": "red"}]},
            planning={"ego_action": "cruise"},
        )
        v = encode_frame(f, 0, registry)
        out = apply_filter(v, "traffic_light", registry)
        assert len(out) == len(v)
        assert out[dim_index(registry, "traffic_light.color")] == 33
        assert out[dim_index(registry, "ego.action")] == 0

    def test_filter_re_zeroes_orphaned_children(self):
        # A view that keeps a property but drops its parent: the traffic-light
        # module reads no planning channel.
        registry = SchemaRegistry(
            (
                DimensionSpec("ego", "presence", MessageKind.PLANNING, {"ego": 1}),
                DimensionSpec("ego.light", "property", MessageKind.TRAFFIC_LIGHT, {"red": 2}, parent="ego"),
            ),
            frozenset(),
        )
        assert apply_filter((1, 2), "all", registry) == (1, 2)
        assert apply_filter((1, 2), "traffic_light", registry) == (0, 0)

    def test_length_mismatch_rejected(self, registry):
        with pytest.raises(ValueError, match="does not match registry size"):
            apply_filter((1, 2), "all", registry)


def test_module_kinds_order():
    assert MODULE_KINDS == ("traffic_light", "obstacle", "prediction", "planning")
