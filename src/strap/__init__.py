"""Scenario-based reduction and prioritization of driving-recording test suites.

The pipeline turns long multi-channel recordings into small prioritized
regression suites: align asynchronous channels onto frames, encode each
frame against a scene schema, collapse stable stretches into representative
segments, rank segments so rare scenarios replay first, and judge replays
against the recorded outputs.

The package exports only the names README's Library section gives; every
other name lives in its submodule (``strap.recording``, ``strap.synth``, ...).
"""

from .benchmarks import benchmark_mutants, benchmark_script
from .recording import align_recording
from .reduction import ReductionConfig
from .schema import FrameVector, default_registry, encode_recording
from .synth import generate_recording, prepare_recording, run_benchmark, run_prepared, run_regression

__version__ = "0.1.0"
