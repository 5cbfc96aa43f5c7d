"""Command-line front end.

Every subcommand reads and writes plain files so each stage can run, cache,
and be diffed independently in CI. Machine-readable output goes to files
only; diagnostics go to stderr. Exit codes: 0 success; 1 input error, that
is strap.fileio.InputError or OSError, printed as "error: ..."; 2 anything
else, a bug in strap, printed as "internal error: ...".
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from .benchmarks import BUILTIN_MUTANTS, BUILTIN_SCRIPTS
from .evaluation import FaultVerdict, detections, score_plans, scores_to_csv
from .fileio import InputError, atomic_write_json, atomic_write_text, check, read_json
# The prioritize_* functions and run_regression are not called here; they stay
# importable from this module for callers that look them up here.
from .prioritization import (  # noqa: F401
    RARITY_MODES,
    STRATEGIES,
    PrioritizedPlan,
    build_plans,
    parse_strategies,
    plan_from_json,
    plan_to_csv,
    plan_to_json,
    prioritize_cc,
    prioritize_ch,
    prioritize_rd,
    prioritize_rsc,
    prioritize_sc,
)
from .recording import (  # noqa: F401 (bench/tracer.py wraps dump_recording_jsonl here)
    Recording,
    align_recording,
    aligned_jsonl,
    dump_recording_jsonl,
    load_recording,
    recording_jsonl,
)
from .reduction import (
    ReductionConfig,
    reduce_vectors,
    segments_from_manifest,
    segments_to_manifest,
)
from .schema import (
    FrameVector,
    MODULE_KINDS,
    SchemaRegistry,
    check_vectors,
    default_registry,
    encode_recording,
    load_registry,
    registry_to_json,
)
from .synth import (  # noqa: F401
    PreparedRecording,
    generate_recording,
    load_mutants,
    load_script,
    mutants_to_json,
    prepare_recording,
    random_mutants,
    run_benchmark,
    run_prepared,
    run_regression,
)

MODULE_CHOICES = (*MODULE_KINDS, "all")
# The flags' defaults are the library's: run_prepared's seed, RD repetitions
# and rarity mode.
_RUN_DEFAULTS = run_prepared.__kwdefaults__


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_registry_arg(path: str | None) -> SchemaRegistry:
    return load_registry(path) if path else default_registry()


def _parse_strategies(raw: str) -> list[str]:
    return parse_strategies(s for s in raw.split(",") if s.strip())


def _reduction_config(args: argparse.Namespace) -> ReductionConfig:
    return ReductionConfig(window_w=args.window, clip_n=args.clip, warmup_frames=args.warmup)


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"input file not found: {path}")
    return p


# The built-ins and the file loader behind each builtin:NAME-or-file argument.
_SOURCES = {
    "script": (BUILTIN_SCRIPTS, load_script),
    "mutant set": (BUILTIN_MUTANTS, load_mutants),
}


def _builtin_or_file(source: str, what: str) -> Any:
    """``builtin:NAME`` from the built-in ``what``s, or else the file at ``source``."""
    builtins, load = _SOURCES[what]
    if not source.startswith("builtin:"):
        return load(_require_file(source))
    name = source[len("builtin:") :]
    if name not in builtins:
        raise InputError(
            f"unknown builtin {what} {name!r}; choose from {', '.join(sorted(builtins))}"
        )
    return builtins[name]()


def _vectors_doc(module: str, times: list[int], vectors: Sequence[FrameVector]) -> dict[str, Any]:
    # Equal rows are one list, which atomic_write_json encodes once per run.
    rows = {v: list(v) for v in dict.fromkeys(vectors)}
    return {"module": module, "t_ns": times, "vectors": list(map(rows.__getitem__, vectors))}


VECTORS_FORMAT = {"module?": str, "t_ns!": [int], "vectors!": [[int]]}
CALL_COUNTS_FORMAT = [int]


def _vectors_from_doc(doc: Any) -> tuple[str, list[int], list[FrameVector]]:
    """The document's module view, frame times and vectors (_vectors_doc)."""
    check(doc, VECTORS_FORMAT, "invalid vectors document")
    times, rows = doc["t_ns"], doc["vectors"]
    if len(times) != len(rows):
        raise InputError(f"{len(times)} timestamps for {len(rows)} vectors")
    if not rows:
        raise InputError("invalid vectors document: no frames")
    for i, t in enumerate(times):
        if t < 0 or (i and t <= times[i - 1]):
            wrong = f"t_ns must be non-negative and increasing, but t_ns[{i}] is {t}"
            raise InputError(f"invalid vectors document: {wrong}")
    check_vectors(rows, "invalid vectors document", "vectors[{}]")
    module = "all" if doc.get("module") is None else doc["module"]
    if module not in MODULE_CHOICES:
        raise InputError(
            f"invalid vectors document: module must be one of {', '.join(MODULE_CHOICES)}, "
            f"got {module!r}"
        )
    return module, times, [tuple(row) for row in rows]


def _module_vectors(
    rec: Recording, registry: SchemaRegistry, module: str
) -> tuple[list[int], list[FrameVector]]:
    """The aligned frames' times and their vectors under the module's view."""
    ar = align_recording(rec)
    return list(ar.times), encode_recording(ar, registry, module)


def _cmd_align(args: argparse.Namespace) -> None:
    ar = align_recording(load_recording(_require_file(args.infile)))
    atomic_write_text(args.out, aligned_jsonl(ar))
    _say(f"aligned {len(ar)} frames across {len(ar.columns)} channels -> {args.out}")


def _cmd_vectorize(args: argparse.Namespace) -> None:
    rec = load_recording(_require_file(args.infile))
    registry = _load_registry_arg(args.schema)
    times, vectors = _module_vectors(rec, registry, args.module)
    atomic_write_json(args.out, _vectors_doc(args.module, times, vectors))
    _say(f"encoded {len(vectors)} frames under the {args.module!r} view -> {args.out}")


def _sniff_vectors_file(path: Path) -> Mapping[str, Any] | None:
    """A vectors document is a single JSON object with a "vectors" key."""
    with path.open("rb") as fh:
        if fh.read(1) != b"{":
            return None
    try:
        doc = read_json(path)
    except InputError as exc:
        if isinstance(exc.__cause__, json.JSONDecodeError) and exc.__cause__.msg == "Extra data":
            return None  # one value, then more text: JSONL, a recording
        raise  # read_json's error names the file
    return doc if isinstance(doc, dict) and "vectors" in doc else None


def _cmd_reduce(args: argparse.Namespace) -> None:
    cfg = _reduction_config(args)
    path = _require_file(args.infile)
    doc = _sniff_vectors_file(path)
    if doc is not None:
        # Vectors are already filtered; the file's own view label wins.
        module, times, vectors = _vectors_from_doc(doc)
        if args.module is not None and args.module != module:
            _say(f"note: vectors file was encoded under the {module!r} view; keeping it")
    else:
        module = args.module or "all"
        rec = load_recording(path)
        registry = _load_registry_arg(args.schema)
        times, vectors = _module_vectors(rec, registry, module)
    segments, _ = reduce_vectors(vectors, cfg)
    atomic_write_json(args.out, segments_to_manifest(segments, cfg, times, module))
    kept = sum(s.length for s in segments)
    pct = 100.0 * (1 - kept / len(vectors))
    _say(
        f"kept {len(segments)} segments, {kept}/{len(vectors)} frames "
        f"({pct:.1f}% reduction) -> {args.out}"
    )


def _write_plan_files(plans: Mapping[str, Sequence[PrioritizedPlan]], out: str) -> None:
    """Write the first plan of each strategy as JSON and CSV."""
    out_path = Path(out)
    single_file = out_path.suffix == ".json"
    if single_file and len(plans) != 1:
        raise InputError(f"--out {out} is a file but {len(plans)} strategies were requested")
    for name, (plan, *_) in plans.items():
        base = out_path if single_file else out_path / f"plan_{name}.json"
        atomic_write_json(base, plan_to_json(plan))
        atomic_write_text(base.with_suffix(".csv"), plan_to_csv(plan))
        _say(f"{name}: {len(plan.order)} segments ranked -> {base}")


def _cmd_prioritize(args: argparse.Namespace) -> None:
    strategies = _parse_strategies(args.strategies)
    segments, _ = segments_from_manifest(read_json(_require_file(args.segments)))
    vectors = None
    if args.vectors:
        _, _, vectors = _vectors_from_doc(read_json(_require_file(args.vectors)))
    call_counts = None
    if args.call_counts:
        call_counts = read_json(_require_file(args.call_counts))
        check(call_counts, CALL_COUNTS_FORMAT, "invalid call counts document")
    if "RSC" in strategies and vectors is None:
        raise InputError("RSC needs --vectors for rarity weights")
    if "CC" in strategies and call_counts is None:
        raise InputError("CC needs --call-counts (one integer per segment)")
    # Only the first RD shuffle is written, and it does not depend on the count.
    plans = build_plans(
        strategies,
        segments,
        vectors,
        seed=args.seed,
        repetitions=1,
        rarity_mode=args.rarity_mode,
        call_counts=call_counts,
    )
    _write_plan_files(plans, args.out)


def _verdicts_doc(module: str, details: Mapping[str, Any]) -> dict[str, Any]:
    """Extract the per-mutant verdict tables from a regression report."""
    full = {}
    segments: dict[str, Any] = {}
    for mid, entry in details["mutants"].items():
        segments[mid] = entry["segments"]
        full[mid] = {"detected": entry["detected_full"]}
    return {"module": module, "full": full, "segments": segments}


# The verdicts document as _verdicts_doc writes it; module and each cell's
# is_fault are not read.
VERDICTS_FORMAT = {
    "full!": {str: {"detected!": bool}},
    "segments!": {str: {str: {"mismatched_frames!": int, "total_frames!": int}}},
}


def _verdicts_from_doc(doc: Any) -> tuple[dict[str, bool], dict[str, dict[int, bool]]]:
    """Each mutant's full-replay detection and per-segment fault flags (_verdicts_doc).

    A segment's flag is recomputed from its mismatch tally, not read from its is_fault.
    """
    check(doc, VERDICTS_FORMAT, "invalid verdicts document")
    flags: dict[str, dict[int, bool]] = {}
    for mid, cells in doc["segments"].items():
        flags[mid] = {}
        for key, cell in cells.items():
            # Only the canonical decimal spelling names a segment: int() alone
            # would also read "1_0", " 10" and "+10".
            try:
                sid = int(key)
            except ValueError:
                sid = None
            if sid is None or str(sid) != key:
                raise InputError(
                    f"invalid verdicts document: segments.{mid} has segment id {key!r}, "
                    "not a decimal integer"
                )
            try:
                verdict = FaultVerdict(sid, cell["mismatched_frames"], cell["total_frames"])
            except InputError as exc:
                raise InputError(f"invalid verdicts document: {exc}") from exc
            flags[mid][sid] = verdict.is_fault
    return {mid: cell["detected"] for mid, cell in doc["full"].items()}, flags


def _cmd_evaluate(args: argparse.Namespace) -> None:
    full, flags = _verdicts_from_doc(read_json(_require_file(args.verdicts)))
    segment_ids: list[int] = []
    if args.segments:
        segments, _ = segments_from_manifest(read_json(_require_file(args.segments)))
        segment_ids = [s.id for s in segments]
    plans: dict[str, list[PrioritizedPlan]] = {}
    for path in args.plans:
        plan = plan_from_json(read_json(_require_file(path)))
        plans.setdefault(plan.strategy, []).append(plan)
    fault_sets, coverage, detected = detections(full, flags, segment_ids)
    apfd_by, topk_by = score_plans(plans, fault_sets)
    report = {"fault_coverage": coverage, "apfd": apfd_by, "top_k": topk_by, **detected}
    atomic_write_json(args.out, report)
    atomic_write_text(Path(args.out).with_suffix(".csv"), scores_to_csv(apfd_by, topk_by))
    _say(f"evaluated {len(args.plans)} plan(s) -> {args.out}")


def _cmd_synth_generate(args: argparse.Namespace) -> None:
    script = _builtin_or_file(args.script, "script")
    rec = generate_recording(script, args.seed)
    atomic_write_text(args.out, recording_jsonl(rec))
    if args.schema_out:
        atomic_write_json(args.schema_out, registry_to_json(default_registry()))
        _say(f"schema -> {args.schema_out}")
    _say(
        f"generated {script.duration_frames} frames, {rec.message_count()} messages "
        f"(seed {args.seed}) -> {args.out}"
    )


def _cmd_synth_mutate(args: argparse.Namespace) -> None:
    if args.builtin:
        mutants = _builtin_or_file(f"builtin:{args.builtin}", "mutant set")
    elif args.module:
        mutants = random_mutants(args.module, args.count, args.seed)
    else:
        raise InputError("pass --builtin NAME or --module KIND")
    atomic_write_json(args.out, mutants_to_json(mutants))
    _say(f"{len(mutants)} mutants -> {args.out}")


def _write_regression_artifacts(
    outdir: Path,
    prepared: PreparedRecording,
    report: Mapping[str, Any],
    plans: Mapping[str, Sequence[PrioritizedPlan]],
) -> None:
    """Save one module run's intermediates, taken from the run itself.

    These are its aligned frames, vectors, segments, call counts, verdicts
    and the first plan of each strategy. Nothing is recomputed, and the
    files are byte-identical to what align/vectorize/reduce/prioritize
    write for the same inputs.
    """
    module = prepared.module
    outdir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(outdir / "aligned.jsonl", aligned_jsonl(prepared.aligned))
    times = list(prepared.aligned.times)
    atomic_write_json(outdir / "vectors.json", _vectors_doc(module, times, prepared.vectors))
    atomic_write_json(
        outdir / "segments.json",
        segments_to_manifest(prepared.segments, prepared.cfg, times, module),
    )
    atomic_write_json(outdir / "call_counts.json", report["details"]["call_counts"])
    _write_plan_files(plans, str(outdir))
    atomic_write_json(outdir / "verdicts.json", _verdicts_doc(module, report["details"]))


def _cmd_run_regression(args: argparse.Namespace) -> None:
    if bool(args.script) == bool(args.infile):
        raise InputError("pass exactly one of --script or --in")
    if args.script:
        rec = generate_recording(_builtin_or_file(args.script, "script"), args.seed)
    else:
        rec = load_recording(_require_file(args.infile))
    mutants = _builtin_or_file(args.mutants, "mutant set") if args.mutants else []
    strategies = _parse_strategies(args.strategies)
    cfg = _reduction_config(args)
    registry = _load_registry_arg(args.schema)
    kwargs = dict(seed=args.seed, repetitions=args.repetitions, rarity_mode=args.rarity_mode)
    if args.module == "all":
        if args.artifacts_dir:
            raise InputError("--artifacts-dir needs a specific --module, not 'all'")
        report = run_benchmark(rec, mutants, strategies, cfg, registry=registry, **kwargs)
    else:
        own = [m for m in mutants if m.module == args.module]
        skipped = len(mutants) - len(own)
        if skipped:
            _say(f"note: {skipped} mutant(s) target other modules and replay clean")
        prepared = prepare_recording(align_recording(rec), args.module, cfg, registry)
        report, plans = run_prepared(prepared, mutants, strategies, **kwargs)
        if args.artifacts_dir:
            _write_regression_artifacts(Path(args.artifacts_dir), prepared, report, plans)
    atomic_write_json(args.out, report)
    atomic_write_text(
        Path(args.out).with_suffix(".csv"), scores_to_csv(report["apfd"], report["top_k"])
    )
    _say(
        f"reduction {report['reduction_pct']:.3f}, coverage {report['fault_coverage']:.3f} "
        f"-> {args.out}"
    )


def _add_reduction_flags(p: argparse.ArgumentParser) -> None:
    cfg = ReductionConfig()
    p.add_argument("--window", type=int, default=cfg.window_w, help="smoothing window (odd)")
    p.add_argument("--clip", type=int, default=cfg.clip_n, help="max frames kept per segment")
    p.add_argument("--warmup", type=int, default=cfg.warmup_frames,
                   help="warm-up frames replayed before each segment")


def _add_rank_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategies", default=",".join(STRATEGIES), help="comma-separated strategy list")
    p.add_argument("--seed", type=int, default=_RUN_DEFAULTS["seed"], help="RNG seed")
    p.add_argument("--rarity-mode", choices=RARITY_MODES, default=_RUN_DEFAULTS["rarity_mode"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="strap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="align a recording onto its reference channel grid")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_align)

    p = sub.add_parser("vectorize", help="encode aligned frames as schema vectors")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--schema", default=None, help="schema JSON (default: built-in)")
    p.add_argument("--module", choices=MODULE_CHOICES, default="all")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_vectorize)

    p = sub.add_parser("reduce", help="smooth, segment, clip, and dedup")
    p.add_argument("--in", dest="infile", required=True, help="recording JSONL or vectors JSON")
    p.add_argument("--schema", default=None)
    p.add_argument("--module", choices=MODULE_CHOICES, default=None,
                   help="view for recording input (default all); vectors input keeps its own")
    _add_reduction_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("prioritize", help="rank segments under one or more strategies")
    p.add_argument("--segments", required=True)
    p.add_argument("--vectors", default=None, help="vectors JSON (required for RSC)")
    p.add_argument("--call-counts", default=None, help="JSON list, one count per segment (CC)")
    _add_rank_flags(p)
    p.add_argument("--out", required=True, help="plan .json path (one strategy) or directory")
    p.set_defaults(fn=_cmd_prioritize)

    p = sub.add_parser("evaluate", help="score plans against replay verdicts")
    p.add_argument("--verdicts", required=True)
    p.add_argument("--segments", default=None, help="segments JSON for zero-fault segments")
    p.add_argument("--plans", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("synth-generate", help="generate a recording from a scenario script")
    p.add_argument("--script", required=True, help="script JSON path or builtin:NAME")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--schema-out", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_synth_generate)

    p = sub.add_parser("synth-mutate", help="write a mutant set")
    p.add_argument("--builtin", default=None, help=f"one of: {', '.join(sorted(BUILTIN_MUTANTS))}")
    p.add_argument("--module", choices=MODULE_KINDS, default=None)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_synth_mutate)

    p = sub.add_parser("run-regression", help="full pipeline: reduce, replay mutants, score plans")
    p.add_argument("--script", default=None, help="script JSON path or builtin:NAME")
    p.add_argument("--in", dest="infile", default=None, help="recording JSONL")
    p.add_argument("--mutants", default=None, help="mutants JSON path or builtin:NAME")
    p.add_argument("--schema", default=None)
    p.add_argument("--module", choices=MODULE_CHOICES, default="all")
    _add_reduction_flags(p)
    _add_rank_flags(p)
    p.add_argument(
        "--repetitions", type=int, default=_RUN_DEFAULTS["repetitions"], help="RD shuffle count"
    )
    p.add_argument("--artifacts-dir", default=None, help="also save pipeline intermediates")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_run_regression)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # A command builds only acyclic JSON values and dataclasses, which
    # reference counting frees, so cyclic collections would find almost no
    # garbage while rescanning the whole recording over and over.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.fn(args)
        return 0
    except (InputError, OSError) as exc:
        _say(f"error: {exc}")
        return 1
    except Exception as exc:
        _say(f"internal error: {type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
