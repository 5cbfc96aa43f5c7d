"""Scenario-based reduction and prioritization of driving-recording test suites.

The pipeline turns long multi-channel recordings into small prioritized
regression suites: align asynchronous channels onto frames, encode each
frame against a scene schema, collapse stable stretches into representative
segments, rank segments so rare scenarios replay first, and judge replays
against the recorded outputs.
"""

from .benchmarks import (
    BUILTIN_MUTANTS,
    BUILTIN_SCRIPTS,
    benchmark_mutants,
    benchmark_script,
    noisy_prediction_script,
    rare_fault_mutants,
    rare_fault_script,
)
from .evaluation import (
    FAULT_MISMATCH_RATIO,
    FaultVerdict,
    WHOLE_RECORDING_SEGMENT_ID,
    apfd,
    compare_outputs,
    evaluate_plan,
    fault_coverage,
    reduction_pct,
)
from .prioritization import (
    PrioritizedPlan,
    RARITY_MODES,
    RarityWeights,
    STRATEGIES,
    prioritize_cc,
    prioritize_ch,
    prioritize_rd,
    prioritize_rsc,
    plan_from_json,
    plan_to_csv,
    plan_to_json,
    prioritize_sc,
    rarity_weights,
)
from .recording import (
    AlignedRecording,
    AlignmentError,
    Channel,
    Message,
    MessageKind,
    PayloadError,
    Recording,
    RecordingLoadError,
    align_recording,
    aligned_jsonl,
    dump_recording_jsonl,
    load_recording,
)
from .reduction import (
    ReductionConfig,
    Segment,
    clip,
    dedup,
    reduce_recording,
    reduce_vectors,
    segment,
    segments_from_manifest,
    segments_to_manifest,
    smooth,
)
from .schema import (
    ALWAYS_KEEP_DEFAULT,
    DimensionSpec,
    FrameEncoder,
    FrameVector,
    MODULE_CHANNELS,
    MODULE_KINDS,
    ModuleFilter,
    SchemaError,
    SchemaRegistry,
    apply_filter,
    default_registry,
    encode_frame,
    encode_recording,
    load_registry,
    registry_from_json,
    registry_to_json,
)
from .synth import (
    CHANNEL_OFFSETS_NS,
    MUTATION_OPERATORS,
    Mutant,
    PreparedRecording,
    ScenarioScript,
    SceneEvent,
    SynthError,
    ToyModule,
    apply_mutant,
    generate_recording,
    load_mutants,
    load_script,
    make_module,
    mutable_targets,
    mutants_from_json,
    mutants_to_json,
    prepare_recording,
    run_benchmark,
    run_prepared,
    run_regression,
    script_from_json,
)

__version__ = "0.1.0"
