"""Shared fixtures: generated recordings are expensive, so build once per session."""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path
from typing import Mapping

import pytest

from strap.benchmarks import benchmark_script, noisy_prediction_script, rare_fault_script
from strap.recording import Channel, Message, Recording, align_recording
from strap.schema import default_registry
from strap.synth import _swapped_vectors, generate_recording

GEN_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "gen_inputs.py"


@dataclasses.dataclass
class Frame:
    """Reference: one aligned time slice, each channel's recorded message for grid time t_ns."""

    t_ns: int
    messages: Mapping[str, Message]


def script_to_json(script):
    """The document script_from_json reads back as this script."""
    return {
        "duration_frames": script.duration_frames,
        "fps": script.fps,
        "glitch_rate": script.glitch_rate,
        "events": [
            {"frame": e.frame, "set": dict(e.set), "unset": list(e.unset)} for e in script.events
        ],
    }


def _load_gen_inputs():
    """bench/gen_inputs.py as a module; the import path it extends is put back."""
    path = sys.path[:]
    try:
        spec = importlib.util.spec_from_file_location("bench_gen_inputs", GEN_INPUTS)
        gen_inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen_inputs)
    finally:
        sys.path[:] = path
    return gen_inputs


# The script played ``tiles`` times back to back: long-suite's own tiling
# rule, read from the benchmark's input generator so the pins on it pin the
# benchmark's actual input.
tiled = _load_gen_inputs()._tiled


def messages(ch):
    """A channel's messages, each built by Channel.message."""
    return tuple(map(ch.message, range(len(ch.times))))


def comparable(result):
    """A replay's outputs after its warm-up frames."""
    return result.messages[result.warmup_frames :]


def frames_of(ar):
    """The grid as one Frame per row, built from its columns: the reference
    its row readers are checked against."""
    columns = [(name, ch, ch.times, ch.payloads, index) for name, (ch, index) in ar.columns.items()]
    return [
        Frame(t, {name: Message(name, times[k[i]], ch.kind, payloads[k[i]]) for name, ch, times, payloads, k in columns})
        for i, t in enumerate(ar.times)
    ]


def recording_of(frames):
    """The frames as a plain recording, each message stamped with its frame's
    time: ``recording_of(frames_of(ar))`` is the grid as a recording, which
    aligns back to the grid and dumps as aligned_jsonl writes it."""
    channels = {}
    for name in frames[0].messages:
        column = [f.messages[name] for f in frames]
        messages = tuple(Message(m.channel, f.t_ns, m.kind, m.payload) for m, f in zip(column, frames))
        channels[name] = Channel(name, messages[0].kind, messages)
    return Recording(channels)


def grid_of(frames):
    """The aligned grid of hand-built frames: align_recording is the only way to make one."""
    return align_recording(recording_of(frames))


def swapped_vectors(ar, replayed, vectors, encoder):
    """synth._swapped_vectors over (i, message) pairs, as a replay gives them:
    every message on one channel, with one kind."""
    replayed = list(replayed)
    channel, kind = replayed[0][1].channel, replayed[0][1].kind
    assert all(m.channel == channel and m.kind is kind for _, m in replayed)
    return _swapped_vectors(ar, channel, kind, [(i, m.payload) for i, m in replayed], vectors, encoder)


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="session")
def benchmark_recording():
    return generate_recording(benchmark_script(), seed=0)


@pytest.fixture(scope="session")
def benchmark_clean_recording():
    script = dataclasses.replace(benchmark_script(), glitch_rate=0.0)
    return generate_recording(script, seed=0)


@pytest.fixture(scope="session")
def noisy_recording():
    return generate_recording(noisy_prediction_script(), seed=0)


@pytest.fixture(scope="session")
def rare_recording():
    return generate_recording(rare_fault_script(), seed=0)


@pytest.fixture(scope="session")
def benchmark_aligned(benchmark_recording):
    return align_recording(benchmark_recording)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance checklist after the run, outside output capture."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    results = getattr(mod, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, ok in sorted(results):
        terminalreporter.write_line(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}")
