"""Generate one workload's input files from a seed; runs in its own process.

    python3 bench/gen_inputs.py --workload benchmark-all --seed 0 --out DIR

Writes recording.jsonl (and mutants.json when the workload has mutants) into
DIR, then prints one JSON line: ``setup_s`` covers generating and writing
everything, ``generate_s`` the call to strap.synth.generate_recording alone,
and ``scale`` is the speed scale measured meanwhile (speed.py).
strap is imported from the checkout's own src/.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

from speed import SpeedProbe  # noqa: E402
from workloads import MUTANTS, RECORDING, WORKLOADS  # noqa: E402


def _tiled(script, tiles: int):
    from strap.synth import ScenarioScript, SceneEvent

    n = script.duration_frames
    events = tuple(
        SceneEvent(e.frame + k * n, e.set, e.unset) for k in range(tiles) for e in script.events
    )
    return ScenarioScript(n * tiles, script.fps, script.glitch_rate, events)


def generate(name: str, seed: int, out: Path) -> dict[str, float]:
    from strap.benchmarks import BUILTIN_MUTANTS, BUILTIN_SCRIPTS
    from strap.recording import dump_recording_jsonl
    from strap.synth import generate_recording, mutants_to_json

    w = WORKLOADS[name]
    with SpeedProbe() as probe:
        start = time.perf_counter()
        script = _tiled(BUILTIN_SCRIPTS[w.script](), w.tiles)
        gen_start = time.perf_counter()
        rec = generate_recording(script, seed)
        generate_s = time.perf_counter() - gen_start
        out.mkdir(parents=True, exist_ok=True)
        (out / RECORDING).write_text(dump_recording_jsonl(rec), encoding="utf-8")
        if w.mutants:
            mutants = mutants_to_json(BUILTIN_MUTANTS[w.mutants]())
            (out / MUTANTS).write_text(json.dumps(mutants, indent=2) + "\n", encoding="utf-8")
        setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "generate_s": generate_s, "scale": probe.scale()}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    print(json.dumps(generate(args.workload, args.seed, args.out)))


if __name__ == "__main__":
    main()
