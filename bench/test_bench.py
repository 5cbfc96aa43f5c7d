"""Tests for the benchmark harness itself: python3 -m pytest bench"""

from __future__ import annotations

import copy
import importlib
import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from speed import SpeedProbe  # noqa: E402
from tracer import STRAP_WRAPS, Tracer, install_strap_wraps, self_times  # noqa: E402
from workloads import INPUT_FILES, PINNED_FILE, check_report  # noqa: E402


def test_self_time_subtracts_merged_and_clipped_children():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],  # grandchild: counts against a, not root
        ["c", 5.0, 6.0, 0],
        ["c", 5.5, 7.0, 0],  # overlaps the other c; root loses [5, 7] once
        ["d", 9.0, 12.0, 0],  # clipped to root's end for root's coverage
    ]
    assert self_times(spans) == pytest.approx(
        {"root": 10 - 3 - 2 - 1, "a": 2.0, "b": 1.0, "c": 1.0 + 1.5, "d": 3.0}
    )


def test_self_times_of_one_name_add_up():
    spans = [["x", 0.0, 1.0, None], ["x", 2.0, 4.0, None], ["y", 2.5, 3.0, 1]]
    assert self_times(spans) == pytest.approx({"x": 1.0 + 1.5, "y": 0.5})


def test_wrapper_records_spans_and_counts_then_restores():
    def double(x):
        return 2 * x

    def fail():
        raise ValueError("boom")

    ns = SimpleNamespace(double=double, fail=fail)
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(ns, "double", "math.double", lambda args, r: {"doubled": r})
    tracer.wrap(ns, "fail", "math.fail")
    assert ns.double(3) == 6
    with pytest.raises(ValueError):
        ns.fail()
    tracer.restore()
    assert ns.double is double and ns.fail is fail
    assert tracer.spans == [["math.double", 0.0, 1.0, None], ["math.fail", 2.0, 3.0, None]]
    assert tracer.counters == {"doubled": 6}


def test_strap_wraps_replace_and_restore_every_layer_function():
    modules = {m: importlib.import_module(m) for m, *_ in STRAP_WRAPS}
    originals = {(m, a): getattr(modules[m], a) for m, a, *_ in STRAP_WRAPS}
    tracer = Tracer()
    install_strap_wraps(tracer)
    try:
        for (m, a), f in originals.items():
            assert getattr(modules[m], a) is not f, f"{m}.{a} was not wrapped"
    finally:
        tracer.restore()
    for (m, a), f in originals.items():
        assert getattr(modules[m], a) is f, f"{m}.{a} was not restored"


def test_speed_probe_samples_during_the_block_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 4  # one before, one after, several from the timer
    assert probe.scale() > 0


def _generate(tmp: Path, seed: int) -> dict[str, bytes]:
    subprocess.run(
        [sys.executable, "-I", str(BENCH / "gen_inputs.py"), "--workload", "benchmark-all",
         "--seed", str(seed), "--out", str(tmp)],
        check=True, capture_output=True,
    )
    return {f: (tmp / f).read_bytes() for f in INPUT_FILES}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = _generate(tmp_path / "a", 7)
    assert _generate(tmp_path / "b", 7) == first
    assert _generate(tmp_path / "c", 8)["recording.jsonl"] != first["recording.jsonl"]


def test_report_check_accepts_pinned_values_and_flags_any_change(tmp_path):
    q = json.loads(PINNED_FILE.read_text())["benchmark-all"]
    sets = ("detected_full", "detected_reduced", "undetected")
    report = copy.deepcopy({k: v for k, v in q.items() if k not in sets})
    report["details"] = {k: q[k] for k in sets}
    mutant_ids = {m for k in sets for m in q[k]}
    path = tmp_path / "report.json"

    path.write_text(json.dumps(report))
    assert check_report("benchmark-all", 0, tmp_path, mutant_ids) == []
    report["apfd"]["RSC"] += 1e-12
    path.write_text(json.dumps(report))
    assert check_report("benchmark-all", 0, tmp_path, mutant_ids) == [
        f"apfd: {report['apfd']!r} != pinned {q['apfd']!r}"
    ]
    # Other seeds are not pinned, only checked for consistency.
    assert check_report("benchmark-all", 3, tmp_path, mutant_ids) == []
    report["fault_coverage"] = 0.5
    path.write_text(json.dumps(report))
    assert "fault_coverage 0.5 != 1.0" in check_report("benchmark-all", 3, tmp_path, mutant_ids)
