"""A regression report does not depend on the recording's time origin.

Replay counts emission ticks from the grid's first frame, as the generator
does (the rule at AlignedRecording.fps). So shifting every timestamp of a
recording by whole frame periods, or by an epoch-like wall-clock time, leaves
the run-regression report byte for byte as it was; so do renaming every
channel and shuffling the lines.
"""

from __future__ import annotations

import functools
import random
import warnings

import pytest
from conftest import messages
from run_reference import assert_reduce_walks_match

from strap.benchmarks import BUILTIN_SCRIPTS
from strap.cli import main
from strap.recording import (
    NS_PER_SEC, Channel, Message, Recording, align_recording, dump_recording_jsonl,
)
from strap.schema import encode_recording
from strap.synth import MODULE_KINDS, generate_recording

# Each built-in script with the mutant set its golden report runs.
MUTANTS = {"benchmark": "benchmark", "noisy-prediction": "benchmark", "rare-fault": "rare-fault"}
# 1,697,000,000.123456789 s: a wall-clock stamp like those of a recorded drive.
EPOCH_NS = 1_697_000_000_123_456_789


def _recording(name, seed):
    return generate_recording(BUILTIN_SCRIPTS[name](), seed)


def _rebuilt(rec, shift=0, prefix=""):
    """The recording with every timestamp shifted and every channel renamed."""
    return Recording({
        prefix + name: Channel(
            prefix + name, ch.kind, tuple(Message(prefix + name, m.t_ns + shift, m.kind, m.payload) for m in messages(ch))
        )
        for name, ch in rec.channels.items()
    })


def _report(text, name, seed, out):
    """The JSON and CSV report of run-regression --module all over a recording's JSONL text."""
    out.mkdir(exist_ok=True)
    path = out / "recording.jsonl"
    path.write_text(text)
    report = out / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a shuffled file is re-sorted with a warning
        code = main([
            "run-regression", "--in", str(path), "--mutants", f"builtin:{MUTANTS[name]}",
            "--module", "all", "--seed", str(seed), "--out", str(report),
        ])
    assert code == 0
    return report.read_bytes(), report.with_suffix(".csv").read_bytes()


@pytest.fixture(scope="module")
def unshifted(tmp_path_factory):
    """A function of (script name, seed): the unshifted recording's report, run once."""

    @functools.cache
    def report(name, seed):
        text = dump_recording_jsonl(_recording(name, seed))
        return _report(text, name, seed, tmp_path_factory.mktemp(f"{name}-{seed}"))

    return report


def _period_ns(name):
    return NS_PER_SEC // BUILTIN_SCRIPTS[name]().fps


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(BUILTIN_SCRIPTS))
class TestTimeOrigin:
    @pytest.mark.parametrize("periods", range(1, 7))
    def test_shift_by_whole_frame_periods(self, name, seed, periods, unshifted, tmp_path):
        rec = _rebuilt(_recording(name, seed), shift=periods * _period_ns(name))
        assert _report(dump_recording_jsonl(rec), name, seed, tmp_path / "run") == unshifted(name, seed)

    def test_run_walks_on_shifted_grids(self, name, seed, registry):
        # smooth, segment and rarity_weights against their per-frame walks.
        rec = _recording(name, seed)
        for shift in [*(p * _period_ns(name) for p in range(1, 7)), EPOCH_NS]:
            ar = align_recording(_rebuilt(rec, shift=shift))
            for kind in MODULE_KINDS:
                assert_reduce_walks_match(encode_recording(ar, registry, kind), widths=(5,))

    def test_shift_to_a_wall_clock_epoch(self, name, seed, unshifted, tmp_path):
        rec = _rebuilt(_recording(name, seed), shift=EPOCH_NS)
        assert _report(dump_recording_jsonl(rec), name, seed, tmp_path / "run") == unshifted(name, seed)

    def test_renamed_channels_and_shuffled_lines(self, name, seed, unshifted, tmp_path):
        lines = dump_recording_jsonl(_rebuilt(_recording(name, seed), prefix="x_")).splitlines(keepends=True)
        random.Random(seed).shuffle(lines)
        assert _report("".join(lines), name, seed, tmp_path / "run") == unshifted(name, seed)
