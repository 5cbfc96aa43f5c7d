"""The benchmark tracer's view of strap stays whole.

bench/tracer.py patches functions on strap.cli and strap.synth by attribute
name, so renaming or dropping one of those imports fails every traced
benchmark run, and calling a function some other way than through the
wrapped name silently blinds the metrics built on it. This reads the
tracer's table, runs one traced regression in process, and changes nothing
under bench/.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import strap.cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER_MODULE = _load_tracer()
WRAPS = [(module, attr) for module, attr, *_ in TRACER_MODULE.STRAP_WRAPS]

# The layer metrics a traced benchmark-all run (the built-in benchmark
# recording read with --in, its mutants, --module all) reads as non-zero.
LIVE_METRICS = (
    "cli.self_s",
    "recording.load_s",
    "recording.align_s",
    "schema.encode_s",
    "reduction.reduce_s",
    "synth.regression_self_s",
    "synth.replay_s",
    "evaluation.verdict_s",
    "fileio.write_s",
    "recording.messages_loaded",
    "recording.align_calls",
    "recording.frames_aligned",
    "schema.encode_calls",
    "schema.frames_encoded",
    "reduction.reduce_calls",
    "reduction.segments_after_dedup",
    "synth.replay_calls",
    "synth.replayed_frames",
    "evaluation.verdicts",
    "fileio.files_written",
    "fileio.bytes_written",
    "evaluation.mismatch_ratio",
)


@pytest.mark.parametrize("module,attr", WRAPS, ids=[f"{m}.{a}" for m, a in WRAPS])
def test_wrapped_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_traced_benchmark_run_keeps_its_metrics_live(tmp_path):
    rec = tmp_path / "recording.jsonl"
    assert strap.cli.main(["synth-generate", "--script", "builtin:benchmark", "--out", str(rec)]) == 0
    tracer = TRACER_MODULE.Tracer()
    TRACER_MODULE.install_strap_wraps(tracer)
    try:
        code = strap.cli.main([
            "run-regression", "--in", str(rec), "--mutants", "builtin:benchmark",
            "--module", "all", "--seed", "0", "--out", str(tmp_path / "report.json"),
        ])
    finally:
        tracer.restore()
    assert code == 0
    metrics = TRACER_MODULE.layer_metrics(tracer.spans, tracer.counters)
    assert len(LIVE_METRICS) == 22
    assert [name for name in LIVE_METRICS if not metrics[name] > 0] == []
