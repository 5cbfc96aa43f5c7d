"""Benchmark ``strap run-regression`` end to end on one workload.

    python3 bench/run_bench.py --workload benchmark-all --seed 0 --seconds 25 --trace 0

Set-up generates the workload's inputs from the seed in a separate process,
at least three times and for at least five seconds, and reports the median
as ``setup_s``. Then each timed run is one ``strap.cli.main`` call in a
fresh interpreter (bench/child.py), repeated until ``--seconds`` have passed;
``run_s`` and ``peak_rss_mb`` are medians over those runs. Times are put on
one speed scale by speed.py; the raw medians are in the summary line. Every
run's report is checked (workloads.check_report) and must be byte-identical
to the first; a run that exits non-zero or fails a check counts as failed. With ``--trace 1`` one more run records spans at
each layer boundary and the per-layer metrics replace the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it record the environment and the run counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import layer_metrics  # noqa: E402
from workloads import INPUT_FILES, MUTANTS, WORKLOADS, check_report, quality, strap_argv  # noqa: E402

# Set-up repeats until both limits are met; short set-ups are noise-bound,
# so they need many samples for a steady median.
MIN_SETUPS = 3
SETUP_SECONDS = 5.0
DEADLINE_S = 170  # every process must end well inside the 180 s a run is allowed


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _python(script: str, *args: str, timeout: float) -> dict[str, Any]:
    """Run a bench script in a fresh isolated interpreter; return its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(BENCH / script), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} timed out after {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{script} printed no result: {lines[-1][:200]!r}") from None


def _digest(files: list[Path]) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(f.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def bench(name: str, seed: int, seconds: int, trace: bool, work: Path) -> dict[str, Any]:
    deadline = time.monotonic() + DEADLINE_S
    inputs, out = work / "inputs", work / "out"

    setups: list[dict[str, float]] = []
    digests = set()
    setup_start = time.monotonic()
    while len(setups) < MIN_SETUPS or time.monotonic() - setup_start < SETUP_SECONDS:
        shutil.rmtree(inputs, ignore_errors=True)
        setups.append(_python("gen_inputs.py", "--workload", name, "--seed", str(seed),
                              "--out", str(inputs), timeout=deadline - time.monotonic()))
        digests.add(_digest([inputs / f for f in INPUT_FILES if (inputs / f).exists()]))
    problems = [] if len(digests) == 1 else ["the same seed generated different inputs"]
    mutants_file = inputs / MUTANTS
    mutant_ids = (
        {m["id"] for m in json.loads(mutants_file.read_text(encoding="utf-8"))}
        if mutants_file.exists() else set()
    )

    argv = strap_argv(WORKLOADS[name], inputs, out, seed)
    reference: dict[str, bytes] = {}

    def run(*child_args: str) -> dict[str, Any] | None:
        """One child run; its result when it exited 0 with a correct report."""
        shutil.rmtree(out, ignore_errors=True)
        try:
            result = _python("child.py", *child_args, "--", *argv,
                             timeout=deadline - time.monotonic())
        except BenchError as exc:
            problems.append(str(exc))
            return None
        if result["exit"] != 0:
            errors = [f"strap exited {result['exit']}"]
        else:
            errors = check_report(name, seed, out, mutant_ids)
        if not errors:
            report = (out / "report.json").read_bytes()
            if reference.setdefault("report", report) != report:
                errors.append("report differs from the first run's")
        problems.extend(errors)
        return None if errors else result

    timed = []
    attempted = 0
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < seconds:
        attempted += 1
        result = run()
        if result is not None:
            timed.append(result)
    if not timed:
        raise BenchError("; ".join(dict.fromkeys(problems)))
    failed = attempted - len(timed)

    run_s = statistics.median(r["wall_s"] * r["scale"] for r in timed)
    q = quality(json.loads(reference["report"]))
    metrics: dict[str, tuple[float, str]] = {
        "run_s": (run_s, "s"),
        "setup_s": (statistics.median(s["setup_s"] * s["scale"] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MiB"),
        "reduction_pct": (q["reduction_pct"], "ratio"),
        "fault_coverage": (q["fault_coverage"], "ratio"),
    }
    if trace:
        trace_file = work / "trace.json"
        traced = run("--trace-out", str(trace_file))
        if traced is None:
            raise BenchError("traced run failed: " + "; ".join(dict.fromkeys(problems)))
        doc = json.loads(trace_file.read_text(encoding="utf-8"))
        layers = {
            k: v * traced["scale"] if k.endswith("_s") else v
            for k, v in layer_metrics(doc["spans"], doc["counters"]).items()
        }
        layers["synth.generate_s"] = statistics.median(s["generate_s"] * s["scale"] for s in setups)
        layers["trace.overhead_s"] = traced["wall_s"] * traced["scale"] - run_s
        metrics = {k: (v, _layer_unit(k)) for k, v in layers.items()}

    print(json.dumps({
        "env": {"git_sha": _git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
                "workload": name, "seed": seed, "setup_runs": len(setups), "timed_runs": attempted,
                "traced_runs": int(trace)},
        "summary": {"run_s_samples": len(timed), "error_rate": failed / attempted,
                    "apfd_rsc": q["apfd"]["RSC"],
                    "raw_run_s": statistics.median(r["wall_s"] for r in timed),
                    "raw_setup_s": statistics.median(s["setup_s"] for s in setups)},
    }))
    for p in dict.fromkeys(problems):
        print(f"problem: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted + int(trace),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    return "ratio" if key.endswith(("_share", "_ratio")) else "count"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # Turn SIGTERM into an exception, so the running child is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "strap" / "__init__.py").is_file():
        print(f"error: no strap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
