"""The benchmark's workloads and the checks every run's report must pass.

This module imports nothing from strap, so the parent process stays free of
the program under test; only gen_inputs.py and child.py load strap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

STRATEGIES = ("CC", "CH", "RD", "RSC", "SC")
PINNED_SEED = 0
PINNED_FILE = Path(__file__).with_name("pinned_seed0.json")
QUALITY_KEYS = ("reduction_pct", "reduction_pct_with_warmup", "fault_coverage", "apfd", "top_k", "totals")
MUTANT_SET_KEYS = ("detected_full", "detected_reduced", "undetected")
ARTIFACTS = (
    "aligned.jsonl", "vectors.json", "segments.json", "call_counts.json", "verdicts.json",
    *(f"plan_{s}.{ext}" for s in STRATEGIES for ext in ("json", "csv")),
)


@dataclass(frozen=True)
class Workload:
    script: str  # builtin script name
    tiles: int  # the script's scenes repeated this many times
    mutants: str | None  # builtin mutant set, or none
    module: str  # run-regression --module
    artifacts: bool  # also write --artifacts-dir
    frames: int  # aligned frames summed over the modules run


WORKLOADS: dict[str, Workload] = {
    "benchmark-all": Workload("benchmark", 1, "benchmark", "all", False, 4 * 2400),
    "noisy-all": Workload("noisy-prediction", 1, "benchmark", "all", False, 4 * 1500),
    "long-suite": Workload("benchmark", 10, None, "planning", True, 24000),
}

RECORDING = "recording.jsonl"
MUTANTS = "mutants.json"
INPUT_FILES = (RECORDING, MUTANTS)


def strap_argv(w: Workload, inputs: Path, out: Path, seed: int) -> list[str]:
    """The run-regression command line of one timed run."""
    argv = ["run-regression", "--in", str(inputs / RECORDING), "--module", w.module,
            "--seed", str(seed), "--out", str(out / "report.json")]
    if w.mutants:
        argv += ["--mutants", str(inputs / MUTANTS)]
    if w.artifacts:
        argv += ["--artifacts-dir", str(out / "artifacts")]
    return argv


def quality(report: dict[str, Any]) -> dict[str, Any]:
    """The report fields pinned for seed 0."""
    q = {k: report[k] for k in QUALITY_KEYS}
    q.update({k: report["details"][k] for k in MUTANT_SET_KEYS})
    return q


def check_report(name: str, seed: int, out: Path, mutant_ids: set[str]) -> list[str]:
    """Problems with one run's report; empty when it is correct.

    Every seed must give a well-formed report with consistent totals and
    mutant sets. Seed 0 must also reproduce the pinned quality fields exactly.
    """
    w = WORKLOADS[name]
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        q = quality(report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    totals = q["totals"]
    if totals.get("original_frames") != w.frames:
        problems.append(f"original_frames {totals.get('original_frames')} != {w.frames}")
    if not 0 < q["reduction_pct"] <= 1:
        problems.append(f"reduction_pct {q['reduction_pct']} outside (0, 1]")
    if sorted(q["apfd"]) != list(STRATEGIES) or sorted(q["top_k"]) != list(STRATEGIES):
        problems.append("apfd/top_k do not cover every strategy")
    elif any(a is not None and not 0 <= a <= 1 for a in q["apfd"].values()):
        problems.append(f"apfd outside [0, 1]: {q['apfd']}")
    full, reduced, undetected = (set(q[k]) for k in MUTANT_SET_KEYS)
    if full | reduced | undetected != mutant_ids or undetected & (full | reduced):
        problems.append("detected/undetected sets do not partition the mutants")
    expected_cov = len(full & reduced) / len(full) if full else 1.0
    if q["fault_coverage"] != expected_cov:
        problems.append(f"fault_coverage {q['fault_coverage']} != {expected_cov}")
    if w.artifacts:
        missing = [f for f in ARTIFACTS if not (out / "artifacts" / f).is_file()]
        if missing:
            problems.append(f"missing artifacts {missing}")
    if seed == PINNED_SEED:
        pinned = json.loads(PINNED_FILE.read_text(encoding="utf-8"))[name]
        problems += [
            f"{k}: {q[k]!r} != pinned {pinned[k]!r}" for k in pinned if q[k] != pinned[k]
        ]
    return problems
