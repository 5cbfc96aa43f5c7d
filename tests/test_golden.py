"""Byte-exact golden outputs of the CLI's full regression runs.

Refactors must leave these files unchanged. Regenerate them only for a
change that is meant to alter the outputs:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from conftest import tiled

from strap.benchmarks import BUILTIN_MUTANTS, BUILTIN_SCRIPTS
from strap.cli import main
from strap.recording import dump_recording_jsonl
from strap.schema import MODULE_KINDS
from strap.synth import generate_recording, mutants_to_json, random_mutants

GOLDEN = Path(__file__).with_name("golden")
# run-regression --module all reports, golden files <case>_all.json and
# .csv: case -> (script, mutant set, flags). --warmup 0 is the one
# configuration in which a segment replay's cold start can fall on a frame
# that is not an emission tick. The seed-3 case is the one golden of
# --rarity-mode literal and of a --repetitions other than the default.
REPORTS = {
    "benchmark": ("benchmark", "benchmark", ("--seed", "0")),
    "rare-fault": ("rare-fault", "rare-fault", ("--seed", "0")),
    "noisy-prediction": ("noisy-prediction", "benchmark", ("--seed", "0")),
    "benchmark-warmup0": ("benchmark", "benchmark", ("--seed", "0", "--warmup", "0")),
    "noisy-prediction-s3-r37-literal": (
        "noisy-prediction", "benchmark",
        ("--seed", "3", "--repetitions", "37", "--rarity-mode", "literal"),
    ),
}
ARTIFACT_DIGESTS = "planning_artifacts.sha256"
# The seed-0 --module planning run with --artifacts-dir: its report, which
# also lists the 15 mutants of other modules, and `strap evaluate` over the
# run's own verdicts, segments and five plans.
PLANNING_FILES = (
    "planning_report.json",
    "planning_report.csv",
    "planning_evaluate.json",
    "planning_evaluate.csv",
)


def _run(argv: list[str]) -> None:
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"strap {' '.join(argv)} exited {code}")


def _report(case: str, out: Path) -> dict[str, bytes]:
    script, mutants, flags = REPORTS[case]
    report = out / f"{case}_all.json"
    _run([
        "run-regression", "--script", f"builtin:{script}", "--mutants", f"builtin:{mutants}",
        "--module", "all", *flags, "--out", str(report),
    ])
    return {p.name: p.read_bytes() for p in (report, report.with_suffix(".csv"))}


def _planning(out: Path, source: tuple[str, ...] = ("--script", "builtin:benchmark")) -> dict[str, bytes]:
    """Golden file name -> bytes of the planning run and the evaluate run over its artifacts.

    The digests file holds the sha256 of every --artifacts-dir file, sorted
    by name. ``source`` names the recording: the benchmark script, or a
    file of it (--in).
    """
    artifacts = out / "artifacts"
    _run([
        "run-regression", *source, "--mutants", "builtin:benchmark",
        "--module", "planning", "--seed", "0", "--artifacts-dir", str(artifacts),
        "--out", str(out / "planning_report.json"),
    ])
    lines = [
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
        for p in sorted(artifacts.iterdir())
    ]
    _run([
        "evaluate", "--verdicts", str(artifacts / "verdicts.json"),
        "--segments", str(artifacts / "segments.json"),
        "--plans", *(str(p) for p in sorted(artifacts.glob("plan_*.json"))),
        "--out", str(out / "planning_evaluate.json"),
    ])
    return {
        ARTIFACT_DIGESTS: "".join(lines).encode(),
        **{name: (out / name).read_bytes() for name in PLANNING_FILES},
    }


@pytest.fixture(scope="module")
def planning(tmp_path_factory):
    return _planning(tmp_path_factory.mktemp("planning"))


@pytest.mark.parametrize("case", REPORTS)
def test_module_all_report_is_byte_identical(case, tmp_path):
    for name, data in _report(case, tmp_path).items():
        assert data == (GOLDEN / name).read_bytes(), f"{name} differs from the golden file"


def test_module_all_report_from_a_loaded_recording(tmp_path):
    """The benchmark case again, its recording written to JSONL and read back with --in."""
    recording = tmp_path / "benchmark.jsonl"
    _run(["synth-generate", "--script", "builtin:benchmark", "--seed", "0", "--out", str(recording)])
    report = tmp_path / "benchmark_all.json"
    _run([
        "run-regression", "--in", str(recording), "--mutants", "builtin:benchmark",
        "--module", "all", "--seed", "0", "--out", str(report),
    ])
    for path in (report, report.with_suffix(".csv")):
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), f"{path.name} differs"


def test_planning_artifacts_are_byte_identical(planning):
    assert planning[ARTIFACT_DIGESTS] == (GOLDEN / ARTIFACT_DIGESTS).read_bytes()


@pytest.mark.parametrize("name", PLANNING_FILES)
def test_planning_output_is_byte_identical(name, planning):
    assert planning[name] == (GOLDEN / name).read_bytes(), f"{name} differs from the golden file"


def test_planning_artifacts_from_a_loaded_recording(tmp_path):
    """The planning run again, its recording written to JSONL and read back with --in."""
    recording = tmp_path / "benchmark.jsonl"
    _run(["synth-generate", "--script", "builtin:benchmark", "--seed", "0", "--out", str(recording)])
    files = _planning(tmp_path, ("--in", str(recording)))
    for name in (ARTIFACT_DIGESTS, "planning_report.json", "planning_report.csv"):
        assert files[name] == (GOLDEN / name).read_bytes(), f"{name} differs from the golden file"


WIDE_PIN = "wide_pin.sha256"
# The wide pin: built-in script -> its mutant set, and the seeds of each run family.
WIDE_SCRIPTS = {"benchmark": "benchmark", "noisy-prediction": "benchmark", "rare-fault": "rare-fault"}
WIDE_REPORT_SEEDS = range(5)
WIDE_ARTIFACT_SEEDS = range(2)
WIDE_ARTIFACT_MODULES = ("prediction", "planning")
LONG_TILES = 10


def _wide_mutants(script: str, seed: int, out: Path) -> Path:
    """The script's built-in mutants plus four seeded random ones per module, ids prefixed r."""
    mutants = [*BUILTIN_MUTANTS[WIDE_SCRIPTS[script]]()]
    for kind in MODULE_KINDS:
        mutants += [dataclasses.replace(m, id=f"r{m.id}") for m in random_mutants(kind, 4, seed)]
    path = out / f"mutants_{script}_s{seed}.json"
    path.write_text(json.dumps(mutants_to_json(mutants)), encoding="utf-8")
    return path


def _digests(root: Path) -> str:
    return "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}\n"
        for p in sorted(root.rglob("*"))
        if p.is_file()
    )


def _wide_pin(out: Path) -> bytes:
    """sha256 of every file the wide pin covers, one line per file, sorted by path.

    These are the --module all reports of the three built-in scripts at
    seeds 0-4, the prediction and planning --artifacts-dir files of the same
    runs at seeds 0-1, and the planning artifacts of the benchmark script
    tiled LONG_TILES times, without mutants, at seeds 0-1.
    """
    pinned = out / "pinned"
    for script in WIDE_SCRIPTS:
        for seed in WIDE_REPORT_SEEDS:
            common = [
                "run-regression", "--script", f"builtin:{script}",
                "--mutants", str(_wide_mutants(script, seed, out)), "--seed", str(seed),
            ]
            _run([*common, "--module", "all", "--out", str(pinned / f"{script}_s{seed}_all.json")])
            if seed not in WIDE_ARTIFACT_SEEDS:
                continue
            for module in WIDE_ARTIFACT_MODULES:
                _run([
                    *common, "--module", module,
                    "--artifacts-dir", str(pinned / f"{script}_s{seed}_{module}"),
                    "--out", str(out / "report.json"),
                ])
    for seed in WIDE_ARTIFACT_SEEDS:
        recording = out / f"long_s{seed}.jsonl"
        script = tiled(BUILTIN_SCRIPTS["benchmark"](), LONG_TILES)
        recording.write_text(dump_recording_jsonl(generate_recording(script, seed)), encoding="utf-8")
        _run([
            "run-regression", "--in", str(recording), "--module", "planning", "--seed", str(seed),
            "--artifacts-dir", str(pinned / f"long-suite_s{seed}_planning"),
            "--out", str(out / "report.json"),
        ])
    return _digests(pinned).encode()


def test_wide_pin_is_byte_identical(tmp_path):
    expected = (GOLDEN / WIDE_PIN).read_text(encoding="utf-8").splitlines()
    got = _wide_pin(tmp_path).decode().splitlines()
    assert [line.split()[1] for line in got] == [line.split()[1] for line in expected]
    differing = [b.split()[1] for a, b in zip(expected, got) if a != b]
    assert not differing, f"files differ from {WIDE_PIN}: {differing}"


RECORDINGS_PIN = "recordings.sha256"
RECORDING_SEEDS = range(5)


def _recordings_pin(out: Path) -> bytes:
    """sha256 of each generated recording the pin covers, one line per recording.

    These are the `strap synth-generate` output of every built-in script at
    seeds 0-4, and the dump of the benchmark script tiled LONG_TILES times
    (long-suite's input) at seeds 0-1. The wide pin sees recordings only
    through the aligned grid, which hides the prediction channel's times.
    """
    texts = {}
    for script in BUILTIN_SCRIPTS:
        for seed in RECORDING_SEEDS:
            path = out / f"{script}_s{seed}.jsonl"
            _run(["synth-generate", "--script", f"builtin:{script}", "--seed", str(seed), "--out", str(path)])
            texts[path.name] = path.read_bytes()
    for seed in WIDE_ARTIFACT_SEEDS:
        script = tiled(BUILTIN_SCRIPTS["benchmark"](), LONG_TILES)
        texts[f"long-suite_s{seed}.jsonl"] = dump_recording_jsonl(generate_recording(script, seed)).encode()
    return "".join(f"{hashlib.sha256(data).hexdigest()}  {name}\n" for name, data in texts.items()).encode()


def test_generated_recordings_are_byte_identical(tmp_path):
    expected = (GOLDEN / RECORDINGS_PIN).read_text(encoding="utf-8").splitlines()
    got = _recordings_pin(tmp_path).decode().splitlines()
    assert [line.split()[1] for line in got] == [line.split()[1] for line in expected]
    differing = [b.split()[1] for a, b in zip(expected, got) if a != b]
    assert not differing, f"recordings differ from {RECORDINGS_PIN}: {differing}"


def _write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in REPORTS:
            for name, data in _report(case, Path(tmp)).items():
                (GOLDEN / name).write_bytes(data)
        for name, data in _planning(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
        (GOLDEN / WIDE_PIN).write_bytes(_wide_pin(Path(tmp)))
        (GOLDEN / RECORDINGS_PIN).write_bytes(_recordings_pin(Path(tmp)))


if __name__ == "__main__":
    _write_golden()
