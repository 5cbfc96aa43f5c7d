"""Byte-exact golden outputs of the CLI's full regression runs.

Refactors must leave these files unchanged. Regenerate them only for a
change that is meant to alter the outputs:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest

from strap.cli import main

GOLDEN = Path(__file__).with_name("golden")
# Seed-0 run-regression --module all reports, golden files <case>_all.json
# and .csv: case -> (script, mutant set, extra flags). --warmup 0 is the one
# configuration in which a segment replay's cold start can fall on a frame
# that is not an emission tick.
REPORTS = {
    "benchmark": ("benchmark", "benchmark", ()),
    "rare-fault": ("rare-fault", "rare-fault", ()),
    "noisy-prediction": ("noisy-prediction", "benchmark", ()),
    "benchmark-warmup0": ("benchmark", "benchmark", ("--warmup", "0")),
}
ARTIFACT_DIGESTS = "planning_artifacts.sha256"


def _run(argv: list[str]) -> None:
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"strap {' '.join(argv)} exited {code}")


def _report(case: str, out: Path) -> dict[str, bytes]:
    script, mutants, flags = REPORTS[case]
    report = out / f"{case}_all.json"
    _run([
        "run-regression", "--script", f"builtin:{script}", "--mutants", f"builtin:{mutants}",
        "--module", "all", "--seed", "0", *flags, "--out", str(report),
    ])
    return {p.name: p.read_bytes() for p in (report, report.with_suffix(".csv"))}


def _artifact_digests(out: Path) -> bytes:
    """sha256 of every --artifacts-dir file of a planning run, sorted by name."""
    artifacts = out / "artifacts"
    _run([
        "run-regression", "--script", "builtin:benchmark", "--mutants", "builtin:benchmark",
        "--module", "planning", "--seed", "0", "--artifacts-dir", str(artifacts),
        "--out", str(out / "planning.json"),
    ])
    lines = [
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
        for p in sorted(artifacts.iterdir())
    ]
    return "".join(lines).encode()


@pytest.mark.parametrize("case", REPORTS)
def test_module_all_report_is_byte_identical(case, tmp_path):
    for name, data in _report(case, tmp_path).items():
        assert data == (GOLDEN / name).read_bytes(), f"{name} differs from the golden file"


def test_planning_artifacts_are_byte_identical(tmp_path):
    assert _artifact_digests(tmp_path) == (GOLDEN / ARTIFACT_DIGESTS).read_bytes()


def _write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in REPORTS:
            for name, data in _report(case, Path(tmp)).items():
                (GOLDEN / name).write_bytes(data)
        (GOLDEN / ARTIFACT_DIGESTS).write_bytes(_artifact_digests(Path(tmp)))


if __name__ == "__main__":
    _write_golden()
