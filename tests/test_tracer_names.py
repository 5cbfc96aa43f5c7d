"""Every strap attribute that the benchmark tracer wraps by name exists.

bench/tracer.py patches functions on strap.cli and strap.synth by attribute
name, so renaming or dropping one of those imports fails every traced
benchmark run. This reads the tracer's table and changes nothing under
bench/.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _strap_wraps() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, *_ in tracer.STRAP_WRAPS]


WRAPS = _strap_wraps()


@pytest.mark.parametrize("module,attr", WRAPS, ids=[f"{m}.{a}" for m, a in WRAPS])
def test_wrapped_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
