"""Command-line interface, run in process through main(argv)."""

from __future__ import annotations

import gc
import json
from types import FunctionType

import pytest
from conftest import script_to_json
from message_reference import assert_loads_as_messages

from strap.cli import _Parser, build_parser, main
from strap.prioritization import RARITY_MODES, PrioritizedPlan, plan_to_json
from strap.recording import align_recording, dump_recording_jsonl
from strap.reduction import reduce_recording, reduce_vectors
from strap.schema import default_registry, encode_recording, registry_to_json
from strap.synth import (
    Mutant,
    ScenarioScript,
    SceneEvent,
    mutants_to_json,
    run_prepared,
)

RED_LIGHT = {"lights": [{"color": "red", "shape": "round", "orientation": "vertical"}]}
CAR_STOPPED = {"obstacles": [{"actor": "vehicle", "subtype": "car", "action": "stop"}]}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Script, mutants, and a generated recording shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    script = ScenarioScript(
        120,
        fps=15,
        glitch_rate=0.0,
        events=(
            SceneEvent(0, {}),
            SceneEvent(40, {**RED_LIGHT, **CAR_STOPPED}),
            SceneEvent(80, {"lights": [{"color": "green"}]}, unset=("obstacles",)),
        ),
    )
    script_path = root / "script.json"
    script_path.write_text(json.dumps(script_to_json(script)))
    mutants_path = root / "mutants.json"
    mutants_path.write_text(
        json.dumps(
            mutants_to_json(
                [
                    Mutant("loud", "planning", "red_light_stop", "flip_condition"),
                    Mutant("quiet", "planning", "passing_mode", "change_variable", 0.0),
                ]
            )
        )
    )
    rec_path = root / "rec.jsonl"
    assert main(["synth-generate", "--script", str(script_path), "--seed", "3", "--out", str(rec_path)]) == 0
    return {"root": root, "script": script_path, "mutants": mutants_path, "rec": rec_path}


class TestParsing:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag_value(self, work):
        assert main(["reduce", "--in", str(work["rec"]), "--window", "4", "--out", "x.json"]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["align", "--in", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]) == 1

    def test_invalid_json_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["prioritize", "--segments", str(bad), "--strategies", "CH", "--out", str(tmp_path / "p.json")]) == 1

    def test_unknown_builtin_names_the_choices(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(["synth-generate", "--script", "builtin:nope", "--out", out]) == 1
        assert main(["synth-mutate", "--builtin", "nope", "--out", out]) == 1
        assert main(["run-regression", "--script", "builtin:benchmark", "--mutants", "builtin:nope", "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown builtin script 'nope'; choose from benchmark, noisy-prediction, rare-fault",
            "error: unknown builtin mutant set 'nope'; choose from benchmark, rare-fault",
            "error: unknown builtin mutant set 'nope'; choose from benchmark, rare-fault",
        ]

    def test_run_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["run-regression", "--out", "r.json"])
        parsed = {"seed": args.seed, "repetitions": args.repetitions, "rarity_mode": args.rarity_mode}
        assert parsed == {"seed": 0, "repetitions": 100, "rarity_mode": "indicator"}
        assert parsed == run_prepared.__kwdefaults__
        for mode in RARITY_MODES:
            assert build_parser().parse_args(["prioritize", "--segments", "s", "--rarity-mode", mode,
                                              "--out", "p.json"]).rarity_mode == mode

    def test_internal_error_maps_to_two(self, work, tmp_path, monkeypatch, capsys):
        def boom(rec):
            raise RuntimeError("boom")

        monkeypatch.setattr("strap.cli.align_recording", boom)
        rc = main(["align", "--in", str(work["rec"]), "--out", str(tmp_path / "o.jsonl")])
        assert rc == 2
        assert "internal error" in capsys.readouterr().err

    def test_key_error_is_internal(self, tmp_path, monkeypatch, capsys):
        # Every input is checked before it is indexed, so a bare KeyError is a bug.
        def boom(*args, **kwargs):
            raise KeyError("segments")

        monkeypatch.setattr("strap.cli.run_prepared", boom)
        rc = main(["run-regression", "--script", "builtin:rare-fault", "--mutants", "builtin:rare-fault",
                   "--module", "planning", "--out", str(tmp_path / "r.json")])
        assert rc == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == ["internal error: KeyError: 'segments'"]


class TestExitCodes:
    """Exit 1 is an input error, strap.fileio.InputError or OSError, and 2 any other exception."""

    @pytest.mark.parametrize("module,strategies", [("planning", "RSC,SC,CH,RD,CC"), ("planning", "CH"),
                                                   ("all", "CH")], ids=["with-rd", "without-rd", "all-modules"])
    def test_repetitions_must_be_positive(self, module, strategies, tmp_path, capsys):
        # Checked with the run's other inputs, whether or not RD is among the strategies.
        argv = ["run-regression", "--script", "builtin:benchmark", "--module", module, "--strategies", strategies,
                "--repetitions", "0", "--out", str(tmp_path / "r.json")]
        assert _one_error(argv, capsys) == "error: repetitions must be positive, got 0"

    @pytest.mark.parametrize("target", ["run_prepared", "build_plans"])
    def test_value_error_is_internal(self, target, valid_inputs, tmp_path, monkeypatch, capsys):
        # A ValueError that no input check raised is a bug, not an input error.
        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(f"strap.cli.{target}", boom)
        out = str(tmp_path / "out.json")
        if target == "run_prepared":
            argv = ["run-regression", "--script", "builtin:rare-fault", "--mutants", "builtin:rare-fault",
                    "--module", "planning", "--out", out]
        else:
            argv = ["prioritize", "--segments", str(valid_inputs["segments"]), "--strategies", "CH", "--out", out]
        rc = main(argv)
        assert rc == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == ["internal error: ValueError: boom"]

    @pytest.mark.parametrize("rows,line", [
        (['{"channel": "a", "kind": "planning", "payload": {}, "t_ns": 0}', '{"channel": "a"}'],
         "line 2: missing field 't_ns'"),
        ([*(f'{{"channel": "a", "kind": "planning", "payload": {{}}, "t_ns": {t}}}' for t in (0, 1, 2)),
          '{"channel": "b", "kind": "planning", "payload": {}, "t_ns": 5}'],
         "no alignable frames: channel 'b' never overlaps the reference"),
    ], ids=["load", "align"])
    def test_recording_errors(self, rows, line, tmp_path, capsys):
        rec = tmp_path / "rec.jsonl"
        rec.write_text("".join(row + "\n" for row in rows))
        argv = ["align", "--in", str(rec), "--out", str(tmp_path / "aligned.jsonl")]
        assert _one_error(argv, capsys) == f"error: {line}"

    def test_document_not_utf8_names_the_byte(self, tmp_path, capsys):
        # Past the first 8 KiB: the offset is the file's, not a read chunk's.
        doc = tmp_path / "segments.json"
        doc.write_bytes(b"{" + b" " * 10_000 + b'"\xff": 1}')
        argv = ["prioritize", "--segments", str(doc), "--strategies", "CH", "--out", str(tmp_path / "p.json")]
        assert _one_error(argv, capsys) == f"error: {doc}: not UTF-8 at byte 10002 (invalid start byte)"


class TestCollectorState:
    """main pauses the cyclic collector for the command, then restores the caller's setting."""

    @pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
    def caller_gc(self, request):
        was_enabled = gc.isenabled()
        gc.enable() if request.param else gc.disable()
        yield request.param
        gc.enable() if was_enabled else gc.disable()

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_exit_code_restores_collector(self, caller_gc, code, work, tmp_path, monkeypatch):
        during = []

        def spy(rec):
            during.append(gc.isenabled())
            if code == 2:
                raise RuntimeError("boom")
            return align_recording(rec)

        monkeypatch.setattr("strap.cli.align_recording", spy)
        infile = tmp_path / "missing.jsonl" if code == 1 else work["rec"]
        assert main(["align", "--in", str(infile), "--out", str(tmp_path / "o.jsonl")]) == code
        assert gc.isenabled() is caller_gc
        assert during == ([] if code == 1 else [False])

    def test_help_exit_restores_collector(self, caller_gc):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert gc.isenabled() is caller_gc


def _strap_garbage(argv):
    """The names of the strap functions and objects a command leaves as cyclic
    garbage, other than argparse's own cycle through each _Parser."""
    was_enabled, flags, saved = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        assert main(argv) == 0
        gc.collect()
        names = set()
        for o in gc.garbage[saved:]:
            function = isinstance(o, FunctionType)
            module = (o.__module__ if function else type(o).__module__) or ""
            if module.startswith("strap") and not isinstance(o, _Parser):
                names.add(o.__qualname__ if function else type(o).__qualname__)
        return sorted(names)
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:]
        gc.enable() if was_enabled else gc.disable()


class TestNoCyclicGarbage:
    """With the collector paused, reference counting frees all a command builds."""

    def test_run_regression_with_artifacts(self, work, tmp_path):
        assert _strap_garbage([
            "run-regression", "--in", str(work["rec"]), "--mutants", str(work["mutants"]),
            "--module", "planning", "--artifacts-dir", str(tmp_path / "art"), "--out", str(tmp_path / "r.json"),
        ]) == []

    def test_align(self, work, tmp_path):
        assert _strap_garbage(["align", "--in", str(work["rec"]), "--out", str(tmp_path / "a.jsonl")]) == []

    def test_synth_generate(self, work, tmp_path):
        assert _strap_garbage([
            "synth-generate", "--script", str(work["script"]), "--seed", "3", "--out", str(tmp_path / "g.jsonl"),
        ]) == []


class TestSynthCommands:
    def test_generate_is_deterministic(self, work, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["synth-generate", "--script", str(work["script"]), "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes() == work["rec"].read_bytes()

    def test_omitted_seed_is_zero(self, work, tmp_path, monkeypatch):
        glitchy = tmp_path / "glitchy.json"
        doc = json.loads(work["script"].read_text())
        doc["glitch_rate"] = 0.2
        glitchy.write_text(json.dumps(doc))
        # The environment plays no part in a run.
        monkeypatch.setenv("STRAP_SEED", "7")
        for cmd in (["synth-generate", "--script", str(glitchy)], ["synth-mutate", "--module", "planning"]):
            explicit, omitted = tmp_path / "explicit", tmp_path / "omitted"
            assert main([*cmd, "--seed", "0", "--out", str(explicit)]) == 0
            assert main([*cmd, "--out", str(omitted)]) == 0
            assert explicit.read_bytes() == omitted.read_bytes()

    def test_generate_writes_schema(self, work, tmp_path):
        schema = tmp_path / "schema.json"
        out = tmp_path / "r.jsonl"
        assert main(
            ["synth-generate", "--script", str(work["script"]), "--seed", "0", "--schema-out", str(schema), "--out", str(out)]
        ) == 0
        doc = json.loads(schema.read_text())
        assert len(doc["dimensions"]) == 21

    def test_mutate_builtin(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["synth-mutate", "--builtin", "benchmark", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 20

    def test_mutate_random_is_seeded_and_valid(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["synth-mutate", "--module", "obstacle", "--count", "4", "--seed", "11", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = json.loads(a.read_text())
        assert len(rows) == 4
        assert all(r["module"] == "obstacle" for r in rows)

    def test_mutate_needs_a_source(self, tmp_path):
        assert main(["synth-mutate", "--out", str(tmp_path / "m.json")]) == 1


class TestPipelineCommands:
    def test_align_is_idempotent(self, work, tmp_path):
        once = tmp_path / "once.jsonl"
        twice = tmp_path / "twice.jsonl"
        assert main(["align", "--in", str(work["rec"]), "--out", str(once)]) == 0
        assert main(["align", "--in", str(once), "--out", str(twice)]) == 0
        assert once.read_bytes() == twice.read_bytes()

    def test_vectorize_doc_shape(self, work, tmp_path):
        out = tmp_path / "vectors.json"
        assert main(["vectorize", "--in", str(work["rec"]), "--module", "planning", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["module"] == "planning"
        assert len(doc["t_ns"]) == len(doc["vectors"]) == 120
        assert all(len(v) == 21 for v in doc["vectors"])

    def test_reduce_accepts_recording_or_vectors(self, work, tmp_path, capsys):
        vec = tmp_path / "vectors.json"
        assert main(["vectorize", "--in", str(work["rec"]), "--module", "planning", "--out", str(vec)]) == 0
        from_rec = tmp_path / "from_rec.json"
        from_vec = tmp_path / "from_vec.json"
        assert main(["reduce", "--in", str(work["rec"]), "--module", "planning", "--out", str(from_rec)]) == 0
        assert main(["reduce", "--in", str(vec), "--out", str(from_vec)]) == 0
        assert from_rec.read_bytes() == from_vec.read_bytes()
        capsys.readouterr()
        assert main(["reduce", "--in", str(vec), "--module", "obstacle", "--out", str(tmp_path / "x.json")]) == 0
        assert "keeping it" in capsys.readouterr().err

    def test_reduce_rejects_empty_vectors_document(self, tmp_path, capsys):
        vec = tmp_path / "empty.json"
        vec.write_text(json.dumps({"module": "all", "t_ns": [], "vectors": []}))
        out = tmp_path / "segments.json"
        assert main(["reduce", "--in", str(vec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: invalid vectors document: no frames\n"
        assert not out.exists()

    def test_prioritize_directory_and_file_modes(self, work, tmp_path):
        vec = tmp_path / "vectors.json"
        seg = tmp_path / "segments.json"
        assert main(["vectorize", "--in", str(work["rec"]), "--module", "planning", "--out", str(vec)]) == 0
        assert main(["reduce", "--in", str(vec), "--out", str(seg)]) == 0
        plans = tmp_path / "plans"
        rc = main(
            ["prioritize", "--segments", str(seg), "--vectors", str(vec), "--strategies", "RSC,CH,RD", "--seed", "5", "--out", str(plans)]
        )
        assert rc == 0
        for name in ("RSC", "CH", "RD"):
            assert (plans / f"plan_{name}.json").exists()
            assert (plans / f"plan_{name}.csv").exists()
        single = tmp_path / "single.json"
        assert main(["prioritize", "--segments", str(seg), "--strategies", "CH", "--out", str(single)]) == 0
        assert json.loads(single.read_text())["strategy"] == "CH"

    def test_prioritize_flag_errors(self, work, tmp_path):
        vec = tmp_path / "vectors.json"
        seg = tmp_path / "segments.json"
        assert main(["vectorize", "--in", str(work["rec"]), "--module", "planning", "--out", str(vec)]) == 0
        assert main(["reduce", "--in", str(vec), "--out", str(seg)]) == 0
        # RSC without vectors, CC without counts, two strategies into one file.
        assert main(["prioritize", "--segments", str(seg), "--strategies", "RSC", "--out", str(tmp_path / "p.json")]) == 1
        assert main(["prioritize", "--segments", str(seg), "--strategies", "CC", "--out", str(tmp_path / "p.json")]) == 1
        assert main(["prioritize", "--segments", str(seg), "--strategies", "CH,SC", "--out", str(tmp_path / "p.json")]) == 1
        assert main(["prioritize", "--segments", str(seg), "--strategies", "CH,XX", "--out", str(tmp_path / "p")]) == 1
        # Only the first RD shuffle is written, so there is no shuffle count to set.
        assert main(["prioritize", "--segments", str(seg), "--strategies", "RD", "--repetitions", "5",
                     "--out", str(tmp_path / "p.json")]) == 1

    def test_evaluate_means_plans_of_one_strategy(self, tmp_path):
        # Mutant "f" fires only in segment 2, so the two RD shuffles score
        # differently: position 3 of 3 (APFD 1/6) and position 1 (APFD 5/6).
        verdicts = tmp_path / "verdicts.json"
        verdicts.write_text(json.dumps({
            "module": "planning",
            "full": {"f": {"detected": True}},
            "segments": {"f": {
                str(sid): {"mismatched_frames": 5 if sid == 2 else 0, "total_frames": 10}
                for sid in range(3)
            }},
        }))
        plan_paths = []
        for i, (name, order) in enumerate([("RD", (0, 1, 2)), ("CH", (0, 1, 2)), ("RD", (2, 0, 1))]):
            plan_paths.append(tmp_path / f"plan{i}.json")
            plan_paths[-1].write_text(json.dumps(plan_to_json(PrioritizedPlan(name, order, (0.0,) * 3))))
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--verdicts", str(verdicts), "--plans", *map(str, plan_paths),
                     "--out", str(out)]) == 0
        scored = json.loads(out.read_text())
        assert scored["apfd"] == {"CH": 1 / 6, "RD": (1 / 6 + 5 / 6) / 2}
        assert scored["top_k"] == {"CH": 3.0, "RD": 2.0}
        assert out.with_suffix(".csv").read_text() == (
            f"strategy,top_k,apfd\nCH,3.0,{1 / 6!r}\nRD,2.0,{(1 / 6 + 5 / 6) / 2!r}\n"
        )


class TestRegressionCommand:
    def test_exactly_one_input(self, work, tmp_path):
        out = str(tmp_path / "r.json")
        assert main(["run-regression", "--out", out]) == 1
        assert main(["run-regression", "--script", str(work["script"]), "--in", str(work["rec"]), "--out", out]) == 1

    def test_artifacts_need_specific_module(self, work, tmp_path):
        rc = main(
            ["run-regression", "--in", str(work["rec"]), "--module", "all",
             "--artifacts-dir", str(tmp_path / "art"), "--out", str(tmp_path / "r.json")]
        )
        assert rc == 1

    def test_report_and_composable_artifacts(self, work, tmp_path):
        art = tmp_path / "art"
        report_path = tmp_path / "report.json"
        rc = main(
            ["run-regression", "--in", str(work["rec"]), "--module", "planning",
             "--mutants", str(work["mutants"]), "--strategies", "RSC,CH", "--seed", "5",
             "--repetitions", "5", "--artifacts-dir", str(art), "--out", str(report_path)]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["details"]["detected_full"] == ["loud"]
        assert report["fault_coverage"] == 1.0
        assert report_path.with_suffix(".csv").read_text().startswith("strategy,top_k,apfd")
        for name in ("aligned.jsonl", "vectors.json", "segments.json", "call_counts.json",
                     "plan_RSC.json", "plan_CH.json", "verdicts.json"):
            assert (art / name).exists(), name

        # The standalone stages must reproduce the artifacts byte for byte.
        aligned = tmp_path / "aligned.jsonl"
        vec = tmp_path / "vectors.json"
        seg = tmp_path / "segments.json"
        plan = tmp_path / "plan_RSC.json"
        assert main(["align", "--in", str(work["rec"]), "--out", str(aligned)]) == 0
        assert main(["vectorize", "--in", str(work["rec"]), "--module", "planning", "--out", str(vec)]) == 0
        assert main(["reduce", "--in", str(vec), "--out", str(seg)]) == 0
        assert main(["prioritize", "--segments", str(seg), "--vectors", str(vec), "--strategies", "RSC", "--out", str(plan)]) == 0
        assert aligned.read_bytes() == (art / "aligned.jsonl").read_bytes()
        assert vec.read_bytes() == (art / "vectors.json").read_bytes()
        assert seg.read_bytes() == (art / "segments.json").read_bytes()
        assert plan.read_bytes() == (art / "plan_RSC.json").read_bytes()

        # evaluate recomputes the same plan quality figures from the verdicts.
        eval_out = tmp_path / "eval.json"
        rc = main(
            ["evaluate", "--verdicts", str(art / "verdicts.json"), "--segments", str(seg),
             "--plans", str(art / "plan_RSC.json"), str(art / "plan_CH.json"), "--out", str(eval_out)]
        )
        assert rc == 0
        scored = json.loads(eval_out.read_text())
        assert scored["apfd"]["RSC"] == report["apfd"]["RSC"]
        assert scored["apfd"]["CH"] == report["apfd"]["CH"]
        assert scored["top_k"]["RSC"] == report["top_k"]["RSC"]
        assert scored["detected_full"] == ["loud"]
        assert eval_out.with_suffix(".csv").exists()

    def test_times_come_from_the_frames(self, benchmark_aligned, tmp_path):
        """vectors.json and segments.json take their times from the aligned frames,
        and reduce --in takes them from the vectors document."""
        times = list(benchmark_aligned.times)
        art = tmp_path / "art"
        assert main(["run-regression", "--script", "builtin:benchmark", "--module", "planning",
                     "--strategies", "CH", "--artifacts-dir", str(art),
                     "--out", str(tmp_path / "r.json")]) == 0
        vectors = json.loads((art / "vectors.json").read_text())
        assert vectors["t_ns"] == times

        def rows_on(manifest_path, times):
            rows = json.loads(manifest_path.read_text())["segments"]
            assert [(r["start_t_ns"], r["end_t_ns"]) for r in rows] == [
                (times[r["start_idx"]], times[r["end_idx"]]) for r in rows
            ]
            return rows

        rows = rows_on(art / "segments.json", times)
        seg = tmp_path / "segments.json"
        assert main(["reduce", "--in", str(art / "vectors.json"), "--out", str(seg)]) == 0
        assert rows_on(seg, times) == rows
        # Off the grid, the document's own times are the ones written.
        shifted = [t + 7 for t in times]
        vec = tmp_path / "shifted.json"
        vec.write_text(json.dumps({**vectors, "t_ns": shifted}))
        assert main(["reduce", "--in", str(vec), "--out", str(seg)]) == 0
        assert len(rows_on(seg, shifted)) == len(rows)

    def test_artifacts_reuse_the_run(self, work, tmp_path, monkeypatch):
        calls = []

        def counted(owner, name, fn):
            monkeypatch.setattr(f"{owner}.{name}", lambda *a: calls.append(name) or fn(*a))

        for owner in ("strap.cli", "strap.synth"):
            counted(owner, "align_recording", align_recording)
            counted(owner, "encode_recording", encode_recording)
        counted("strap.cli", "reduce_vectors", reduce_vectors)
        counted("strap.synth", "reduce_recording", reduce_recording)
        rc = main(
            ["run-regression", "--in", str(work["rec"]), "--module", "planning",
             "--mutants", str(work["mutants"]), "--repetitions", "2",
             "--artifacts-dir", str(tmp_path / "art"), "--out", str(tmp_path / "r.json")]
        )
        assert rc == 0
        assert sorted(calls) == ["align_recording", "encode_recording", "reduce_recording"]

    def test_module_all_runs_every_module(self, work, tmp_path):
        out = tmp_path / "bench.json"
        rc = main(
            ["run-regression", "--in", str(work["rec"]), "--mutants", str(work["mutants"]),
             "--strategies", "CH", "--repetitions", "2", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report["details"]["modules"]) == {"traffic_light", "obstacle", "prediction", "planning"}


@pytest.fixture(scope="module")
def valid_inputs(work):
    """One valid file for every flag that reads a document, built by the CLI itself."""
    root = work["root"] / "valid"
    art = root / "art"
    schema = root / "schema.json"
    assert main(["synth-generate", "--script", str(work["script"]), "--schema-out", str(schema),
                 "--out", str(root / "unused.jsonl")]) == 0
    assert main(["run-regression", "--in", str(work["rec"]), "--module", "planning",
                 "--mutants", str(work["mutants"]), "--strategies", "CH", "--repetitions", "2",
                 "--artifacts-dir", str(art), "--out", str(root / "r.json")]) == 0
    return {
        "rec": work["rec"], "script": work["script"], "mutants": work["mutants"], "schema": schema,
        "vectors": art / "vectors.json", "segments": art / "segments.json",
        "call_counts": art / "call_counts.json", "verdicts": art / "verdicts.json",
        "plan": art / "plan_CH.json",
    }


# Each file-reading flag: (argv with {} for the file under test, the kind of
# file it takes). Every other input in the argv is valid; outputs go to the
# working directory.
READ_FLAGS = {
    "align --in": ("align --in {} --out out.jsonl", "rec"),
    "vectorize --in": ("vectorize --in {} --out out.json", "rec"),
    "vectorize --schema": ("vectorize --in rec --schema {} --out out.json", "schema"),
    "reduce --in": ("reduce --in {} --out out.json", "vectors"),
    "reduce --schema": ("reduce --in rec --schema {} --out out.json", "schema"),
    "prioritize --segments": ("prioritize --segments {} --strategies CH --out out.json", "segments"),
    "prioritize --vectors": ("prioritize --segments segments --vectors {} --strategies RSC --out out.json", "vectors"),
    "prioritize --call-counts": ("prioritize --segments segments --call-counts {} --strategies CC --out out.json", "call_counts"),
    "evaluate --verdicts": ("evaluate --verdicts {} --plans plan --out out.json", "verdicts"),
    "evaluate --segments": ("evaluate --verdicts verdicts --segments {} --plans plan --out out.json", "segments"),
    "evaluate --plans": ("evaluate --verdicts verdicts --plans {} --out out.json", "plan"),
    "synth-generate --script": ("synth-generate --script {} --out out.jsonl", "script"),
    "run-regression --script": ("run-regression --script {} --module planning --strategies CH --out out.json", "script"),
    "run-regression --in": ("run-regression --in {} --module planning --strategies CH --out out.json", "rec"),
    "run-regression --mutants": ("run-regression --in rec --mutants {} --module planning --strategies CH --out out.json", "mutants"),
    "run-regression --schema": ("run-regression --in rec --schema {} --module planning --strategies CH --out out.json", "schema"),
}
MISTYPED = {"5": "5", "null": "null", "string": '"x"', "empty-list": "[]", "empty-object": "{}",
            "int-list": "[1, 2]", "list-of-object": "[{}]", "truncated": None,
            "truncated-object": '{"segments": [1,',
            # Byte 0xff, which no UTF-8 text holds, at offset 14.
            "not-utf8": '{"segments": "\udcff"}',
            # Deeper than the JSON decoder's recursion limit.
            "deep": "[" * 200_000 + "]" * 200_000}
# The only documents above that a format accepts: an empty mutant list.
ACCEPTED = {("run-regression --mutants", "empty-list")}


class TestMistypedInputs:
    """A document of the wrong shape is an input error: exit 1, one error line."""

    @pytest.mark.parametrize("doc", MISTYPED)
    @pytest.mark.parametrize("flag", READ_FLAGS)
    def test_exit_one_with_one_error_line(self, flag, doc, valid_inputs, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        template, kind = READ_FLAGS[flag]
        bad = tmp_path / "bad.json"
        text = MISTYPED[doc]
        if text is None:
            # The valid file cut short, its last line left incomplete.
            valid = valid_inputs[kind].read_text()
            text = valid[: len(valid) // 2].rstrip()[:-1]
        bad.write_bytes(text.encode("utf-8", "surrogateescape"))
        argv = [str(bad) if a == "{}" else str(valid_inputs.get(a, a)) for a in template.split()]
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        if (flag, doc) in ACCEPTED:
            assert rc == 0, err
            return
        assert rc == 1, err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("error: "), err
        if doc == "truncated-object":
            # A JSON document's error names its file, reduce --in's included;
            # a recording's names the line.
            assert ("error: line 1: " if kind == "rec" else f"error: {bad}: invalid JSON") in err
        if doc == "not-utf8":
            # The loader decodes a chunk at a time, so only a JSON document, decoded whole, names the byte.
            at = "" if kind == "rec" else " at byte 14"
            assert errors == [f"error: {bad}: not UTF-8{at} (invalid start byte)"]

    def test_reduce_reads_a_bad_recording_line_as_a_recording(self, work, tmp_path, capsys):
        # One whole JSON value, then more text: reduce --in reads a recording.
        lines = work["rec"].read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join([*lines[:2], '{"channel": \n', *lines[3:]]))
        argv = ["reduce", "--in", str(bad), "--out", str(tmp_path / "segments.json")]
        assert _one_error(argv, capsys).startswith("error: line 3: invalid JSON")

    def test_repeated_mutant_id(self, work, tmp_path, capsys):
        mutants = tmp_path / "mutants.json"
        doc = json.loads(work["mutants"].read_text())
        mutants.write_text(json.dumps([*doc, {**doc[1], "id": doc[0]["id"]}]))
        rc = main(["run-regression", "--in", str(work["rec"]), "--mutants", str(mutants),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: duplicate mutant id 'loud'\n"

    def test_irregular_grid(self, tmp_path, capsys):
        rec = tmp_path / "rec.jsonl"
        rec.write_text("".join(
            json.dumps({"channel": "image", "t_ns": t, "kind": "image_ref", "payload": {}}) + "\n"
            for t in (0, 100, 200, 500)
        ))
        rc = main(["run-regression", "--in", str(rec), "--module", "planning", "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: irregular frame grid: frame 2 (t=200 ns)")


# Vector rows a format check accepts but no encoder writes: case -> (rows,
# what is wrong, named after a vectors document's rows).
MALFORMED_ROWS = {
    "ragged": ([[1, 2], [1], [1, 2, 3]], "vectors[1] must be 2 non-negative codes, got [1]"),
    "negative": ([[1, 2], [1, -5], [1, 2]], "vectors[1] must be 2 non-negative codes, got [1, -5]"),
}


def _manifest(rows):
    """A segments manifest with one one-frame segment per vector row."""
    return {
        "config": {"window_w": 5, "clip_n": 45, "warmup_frames": 15},
        "segments": [
            {"id": i, "start_idx": i, "end_idx": i, "warmup_start_idx": i,
             "start_t_ns": i, "end_t_ns": i, "vector": row}
            for i, row in enumerate(rows)
        ],
    }


class TestMalformedVectors:
    """Vector rows of unequal length or with a negative code are an input error."""

    @pytest.mark.parametrize("case", MALFORMED_ROWS)
    def test_reduce_rejects_vectors_document(self, case, tmp_path, capsys):
        rows, wrong = MALFORMED_ROWS[case]
        vec = tmp_path / "vectors.json"
        vec.write_text(json.dumps({"module": "all", "t_ns": list(range(len(rows))), "vectors": rows}))
        out = tmp_path / "segments.json"
        argv = ["reduce", "--in", str(vec), "--out", str(out)]
        assert _one_error(argv, capsys) == f"error: invalid vectors document: {wrong}"
        assert not out.exists()

    @pytest.mark.parametrize("case", MALFORMED_ROWS)
    def test_prioritize_rejects_vectors_document(self, case, tmp_path, capsys):
        rows, wrong = MALFORMED_ROWS[case]
        seg = tmp_path / "segments.json"
        seg.write_text(json.dumps(_manifest([[1, 2]] * len(rows))))
        vec = tmp_path / "vectors.json"
        vec.write_text(json.dumps({"t_ns": list(range(len(rows))), "vectors": rows}))
        argv = ["prioritize", "--segments", str(seg), "--vectors", str(vec), "--strategies", "RSC",
                "--out", str(tmp_path / "plan.json")]
        assert _one_error(argv, capsys) == f"error: invalid vectors document: {wrong}"

    @pytest.mark.parametrize("case", MALFORMED_ROWS)
    @pytest.mark.parametrize("command", ["prioritize", "evaluate"])
    def test_commands_reject_segments_manifest(self, command, case, valid_inputs, tmp_path, capsys):
        rows, wrong = MALFORMED_ROWS[case]
        seg = tmp_path / "segments.json"
        seg.write_text(json.dumps(_manifest(rows)))
        out = str(tmp_path / "out.json")
        argv = {
            "prioritize": ["prioritize", "--segments", str(seg), "--strategies", "SC", "--out", out],
            "evaluate": ["evaluate", "--verdicts", str(valid_inputs["verdicts"]), "--segments", str(seg),
                         "--plans", str(valid_inputs["plan"]), "--out", out],
        }[command]
        wrong = wrong.replace("vectors[1]", "segments[1].vector")
        assert _one_error(argv, capsys) == f"error: invalid segments manifest: {wrong}"


# Frame times a format check accepts but no frame grid has: case -> (a
# vectors document's t_ns, the index the error names).
BAD_FRAME_TIMES = {
    "negative": ([-5, 30, 10], 0),
    "decreasing": ([0, 30, 10], 2),
    "repeated": ([0, 30, 30], 2),
}
# A manifest row's (start_t_ns, end_t_ns) that no run of frames has.
BAD_SEGMENT_TIMES = {
    "negative-start": (-1, 5),
    "negative-end": (50, -3),
    "end-before-start": (50, 40),
}


class TestFrameTimes:
    """Negative or out-of-order frame times in a document are an input error naming the index."""

    @pytest.mark.parametrize("case", BAD_FRAME_TIMES)
    @pytest.mark.parametrize("command", ["reduce", "prioritize"])
    def test_commands_reject_vectors_document(self, command, case, tmp_path, capsys):
        times, i = BAD_FRAME_TIMES[case]
        vec = tmp_path / "vectors.json"
        vec.write_text(json.dumps({"t_ns": times, "vectors": [[1, 2], [1, 2], [3, 0]]}))
        seg = tmp_path / "segments.json"
        seg.write_text(json.dumps(_manifest([[1, 2]] * 3)))
        out = tmp_path / "out.json"
        argv = {
            "reduce": ["reduce", "--in", str(vec), "--out", str(out)],
            "prioritize": ["prioritize", "--segments", str(seg), "--vectors", str(vec),
                           "--strategies", "RSC", "--out", str(out)],
        }[command]
        assert _one_error(argv, capsys) == (
            "error: invalid vectors document: t_ns must be non-negative and increasing, "
            f"but t_ns[{i}] is {times[i]}"
        )
        assert not out.exists()

    @pytest.mark.parametrize("case", BAD_SEGMENT_TIMES)
    @pytest.mark.parametrize("command", ["prioritize", "evaluate"])
    def test_commands_reject_segments_manifest(self, command, case, valid_inputs, tmp_path, capsys):
        start, end = BAD_SEGMENT_TIMES[case]
        doc = _manifest([[1, 2]] * 3)
        doc["segments"][1].update(start_t_ns=start, end_t_ns=end)
        seg = tmp_path / "segments.json"
        seg.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        argv = {
            "prioritize": ["prioritize", "--segments", str(seg), "--strategies", "SC", "--out", str(out)],
            "evaluate": ["evaluate", "--verdicts", str(valid_inputs["verdicts"]), "--segments", str(seg),
                         "--plans", str(valid_inputs["plan"]), "--out", str(out)],
        }[command]
        assert _one_error(argv, capsys) == (
            "error: invalid segments manifest: segments[1] must have "
            f"0 <= start_t_ns <= end_t_ns, got {start} and {end}"
        )
        assert not out.exists()

    def test_equal_start_and_end_times_are_one_frame(self, tmp_path):
        seg = tmp_path / "segments.json"
        seg.write_text(json.dumps(_manifest([[1, 2], [3, 0]])))
        argv = ["prioritize", "--segments", str(seg), "--strategies", "SC", "--out", str(tmp_path / "p.json")]
        assert main(argv) == 0


# A recording whose first payload of one kind is retyped: case -> (kind,
# payload edit, the error line, the commands that read it). The line names
# the message's recorded time: the traffic light and obstacle channels
# publish 1 and 2 ms after the image of frame 0, whose grid time is 0.
PAYLOAD_CASES = {
    "lights-not-a-list": (
        "traffic_light", lambda p: p.update(lights=5),
        "error: traffic_light payload on channel 'traffic_light' at t_ns 1000000: lights must be a list, got 5",
        ("vectorize", "all"),
    ),
    "light-not-an-object": (
        "traffic_light", lambda p: p.update(lights=[5]),
        "error: traffic_light payload on channel 'traffic_light' at t_ns 1000000: "
        "lights[0] must be an object, got 5",
        ("vectorize", "all"),
    ),
    "object-not-a-string": (
        "obstacle", lambda p: p.update(objects=[[1]]),
        "error: obstacle payload on channel 'obstacle' at t_ns 2000000: objects[0] must be a string, got [1]",
        ("vectorize", "all"),
    ),
    "scene-not-an-object": (
        "image_ref", lambda p: p.update(scene=5),
        "error: image_ref payload on channel 'image' at t_ns 2666666666: scene must be an object, got 5",
        ("traffic_light", "all", "vectorize", "planning"),
    ),
    "light-without-brightness": (
        "image_ref", lambda p: p["scene"]["lights"][0].pop("brightness"),
        "error: image_ref payload on channel 'image' at t_ns 2666666666: scene.lights[0].brightness is missing",
        ("traffic_light", "all", "vectorize", "planning"),
    ),
}


# Mutants of the modules whose own replays read the retyped inputs; the
# work fixture's mutants are all planning ones.
OWN_MUTANTS = [
    Mutant("tl", "traffic_light", "lit_check", "flip_condition"),
    Mutant("pr", "prediction", "stop_max_speed", "change_constant", 0.0),
]


def _recording_rows(work):
    return [json.loads(line) for line in work["rec"].read_text().splitlines()]


def _write_rows(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def _one_error(argv, capsys):
    """The single error line main(argv) prints; the run must exit 1."""
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert rc == 1 and len(errors) == 1, (argv, err)
    return errors[0]


def _regression_argv(rec, mutants, module, out):
    return ["run-regression", "--in", str(rec), "--mutants", str(mutants), "--module", module,
            "--strategies", "CH", "--repetitions", "1", "--out", str(out)]


class TestMistypedPayloads:
    """A recorded payload of the wrong shape is an input error naming its kind and field."""

    def retyped(self, case, work, tmp_path):
        kind, edit, *_ = PAYLOAD_CASES[case]
        rows = _recording_rows(work)
        # The first payload of the kind; for a scene, the first with a light.
        row = next(
            r for r in rows
            if r["kind"] == kind and (kind != "image_ref" or r["payload"]["scene"]["lights"])
        )
        edit(row["payload"])
        return _write_rows(tmp_path / "rec.jsonl", rows)

    @pytest.mark.parametrize("case", PAYLOAD_CASES)
    def test_exit_one_naming_the_field(self, case, work, tmp_path, capsys):
        _, _, line, commands = PAYLOAD_CASES[case]
        rec = self.retyped(case, work, tmp_path)
        out = tmp_path / "out.json"
        for command in commands:
            if command == "vectorize":
                argv = ["vectorize", "--in", str(rec), "--out", str(out)]
            else:
                argv = _regression_argv(rec, work["mutants"], command, out)
            assert _one_error(argv, capsys) == line

    @pytest.mark.parametrize("case", ["scene-not-an-object", "light-without-brightness"])
    def test_own_mutant_whole_replay_names_the_field(self, case, work, tmp_path, capsys):
        # The module's own mutant replays the whole recording before any
        # call-count replay, so that replay meets the bad scene first.
        line = PAYLOAD_CASES[case][2]
        rec = self.retyped(case, work, tmp_path)
        mutants = tmp_path / "mutants.json"
        mutants.write_text(json.dumps(mutants_to_json(OWN_MUTANTS)))
        assert _one_error(_regression_argv(rec, mutants, "traffic_light", tmp_path / "o.json"), capsys) == line

    @pytest.mark.parametrize("module", ["prediction", "all"])
    def test_a_field_only_a_compute_reads_mid_recording(self, module, benchmark_recording, tmp_path, capsys):
        # No vector reads an obstacle's speed; prediction's compute does, first
        # at this message, 89.8 s into the seed-0 benchmark recording.
        rows = [json.loads(line) for line in dump_recording_jsonl(benchmark_recording).splitlines()]
        row = next(r for r in rows if r["kind"] == "obstacle" and r["t_ns"] == 89_802_000_000)
        del row["payload"]["obstacles"][0]["speed_mps"]
        rec = _write_rows(tmp_path / "rec.jsonl", rows)
        mutants = tmp_path / "mutants.json"
        mutants.write_text(json.dumps(mutants_to_json([m for m in OWN_MUTANTS if m.module == "prediction"])))
        assert _one_error(_regression_argv(rec, mutants, module, tmp_path / "o.json"), capsys) == (
            "error: obstacle payload on channel 'obstacle' at t_ns 89802000000: obstacles[0].speed_mps is missing"
        )

    @pytest.mark.parametrize(
        ("module", "mutants"),
        [("prediction", None), ("prediction", "builtin:benchmark"), ("all", "builtin:benchmark")],
    )
    def test_a_field_no_replay_reads_is_checked_whatever_the_mutants(
        self, module, mutants, benchmark_recording, tmp_path, capsys
    ):
        # Frame 403 is no prediction tick, so neither a mutant's class table
        # nor a segment's call-count replay computes on this message: only
        # the check of each run's inputs, made in every module run, meets it.
        rows = [json.loads(line) for line in dump_recording_jsonl(benchmark_recording).splitlines()]
        row = next(r for r in rows if r["kind"] == "obstacle" and r["t_ns"] == 26_868_666_666)
        del row["payload"]["obstacles"][0]["speed_mps"]
        rec = _write_rows(tmp_path / "rec.jsonl", rows)
        argv = ["run-regression", "--in", str(rec), "--module", module, "--out", str(tmp_path / "o.json")]
        if mutants is not None:
            argv += ["--mutants", mutants]
        assert _one_error(argv, capsys) == (
            "error: obstacle payload on channel 'obstacle' at t_ns 26868666666: obstacles[0].speed_mps is missing"
        )

    def test_own_mutant_replay_without_a_read_kind(self, work, tmp_path, capsys):
        rec = _write_rows(
            tmp_path / "rec.jsonl", [r for r in _recording_rows(work) if r["kind"] != "obstacle"]
        )
        mutants = tmp_path / "mutants.json"
        mutants.write_text(json.dumps(mutants_to_json(OWN_MUTANTS)))
        error = _one_error(_regression_argv(rec, mutants, "prediction", tmp_path / "o.json"), capsys)
        assert error == (
            "error: module 'prediction' needs channel kind(s) ['obstacle'] absent from the frames"
        )

    @pytest.mark.parametrize("module", ["prediction", "all"])
    def test_run_without_own_mutants_and_a_read_kind(self, module, work, tmp_path, capsys):
        # No prediction mutant, so no prediction segment replays; the frames
        # must still feed the module.
        rec = _write_rows(
            tmp_path / "rec.jsonl", [r for r in _recording_rows(work) if r["kind"] != "obstacle"]
        )
        error = _one_error(_regression_argv(rec, work["mutants"], module, tmp_path / "o.json"), capsys)
        assert error == (
            "error: module 'prediction' needs channel kind(s) ['obstacle'] absent from the frames"
        )


# A valid script and mutant document that use every field the formats know.
NESTED_SCRIPT = {
    "duration_frames": 12,
    "fps": 15,
    "glitch_rate": 0.0,
    "events": [
        {
            "frame": 0,
            "set": {
                "lights": [{"color": "red", "shape": "round", "orientation": "vertical"}],
                "obstacles": [{"actor": "vehicle", "subtype": "car", "action": "stop",
                               "on_crosswalk": False, "at_intersection": False}],
                "objects": ["stop_sign"],
            },
            "unset": [],
        },
        {"frame": 6, "set": {}, "unset": ["objects"]},
    ],
}
NESTED_MUTANTS = [
    {"id": "m1", "module": "planning", "target": "passing_mode", "operator": "change_constant",
     "delta": 0.0},
]
FIELD_VALUES = {"5": 5, "null": None, "string": "x", "empty-list": [], "empty-object": {}}


def _field_paths(node, prefix=()):
    """Path of every value nested in node, the root excluded."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield (*prefix, key)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, (*prefix, key))


def _replaced(doc, path, value):
    """doc with the value at path (list indices and object keys) replaced."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[int(key) if isinstance(node, list) else str(key)]
    node[int(last) if isinstance(node, list) else str(last)] = value
    return doc


# (document, path, value name) cases that stay valid: the value is one the
# field accepts, such as an empty scene delta or a light left at its defaults.
VALID_REPLACEMENTS = {
    ("script", "fps", "5"),
    ("script", "events", "empty-list"),
    ("script", "events/0/frame", "5"),
    ("script", "events/0/set", "empty-object"),
    ("script", "events/0/set/lights", "empty-list"),
    ("script", "events/0/set/lights/0", "empty-object"),
    ("script", "events/0/set/obstacles", "empty-list"),
    ("script", "events/0/set/obstacles/0/subtype", "null"),
    ("script", "events/0/set/objects", "empty-list"),
    ("script", "events/0/set/objects/0", "string"),
    ("script", "events/0/unset", "empty-list"),
    ("script", "events/1/frame", "5"),
    ("script", "events/1/set", "empty-object"),
    ("script", "events/1/unset", "empty-list"),
    ("mutants", "0/id", "string"),
    ("mutants", "0/delta", "5"),
}
NESTED_CASES = [
    (name, "/".join(map(str, path)), value)
    for name, doc in (("script", NESTED_SCRIPT), ("mutants", NESTED_MUTANTS))
    for path in _field_paths(doc)
    for value in FIELD_VALUES
]


# The integer fields of the stage documents (the first list entry standing
# for all of them), and the command that reads each document. Every one of
# them must hold a JSON integer.
STAGE_COMMANDS = {
    "segments": "prioritize --segments {} --strategies CH --out out.json",
    "vectors": "reduce --in {} --out out.json",
    "call_counts": "prioritize --segments segments --call-counts {} --strategies CC --out out.json",
    "schema": "vectorize --in rec --schema {} --out out.json",
    "plan": "evaluate --verdicts verdicts --plans {} --out out.json",
    "verdicts": "evaluate --verdicts {} --plans plan --out out.json",
}
_FIRST_CODES = registry_to_json(default_registry())["dimensions"][0]["codes"]
STAGE_INT_FIELDS = {
    "segments": [
        *(f"config/{k}" for k in ("window_w", "clip_n", "warmup_frames")),
        *(f"segments/0/{k}" for k in
          ("id", "start_idx", "end_idx", "warmup_start_idx", "start_t_ns", "end_t_ns", "vector/0")),
    ],
    "vectors": ["t_ns/0", "vectors/0/0"],
    "call_counts": ["0"],
    "schema": [f"dimensions/0/codes/{code}" for code in _FIRST_CODES],
    "plan": ["order/0"],
    "verdicts": [f"segments/{mid}/0/{k}" for mid in ("loud", "quiet")
                 for k in ("mismatched_frames", "total_frames")],
}
NOT_INTS = {"null": None, "string": "x", "numeric-string": "5", "float": 1.5, "whole-float": 1.0,
            "bool": True, "empty-list": [], "empty-object": {}}
STAGE_CASES = [
    (name, path, value)
    for name, paths in STAGE_INT_FIELDS.items()
    for path in paths
    for value in NOT_INTS
]
# The plan's and verdicts' fields of other types, and values they must reject.
NOT_OF_TYPE = {
    "number": {"null": None, "string": "x", "numeric-string": "1.5", "bool": True,
               "empty-list": [], "empty-object": {}},
    "boolean": {"null": None, "string": "no", "int": 0, "float": 1.0, "empty-list": [],
                "empty-object": {}},
    "string": {"null": None, "int": 5, "bool": True, "empty-list": [], "empty-object": {}},
    # A plan's seed may be null (every strategy but RD writes null).
    "integer or null": {k: v for k, v in NOT_INTS.items() if k != "null"},
}
STAGE_TYPED_FIELDS = {
    ("plan", "scores/0"): "number",
    ("plan", "strategy"): "string",
    ("plan", "seed"): "integer or null",
    ("verdicts", "full/loud/detected"): "boolean",
    ("verdicts", "full/quiet/detected"): "boolean",
}
STAGE_TYPED_CASES = [
    (name, path, value)
    for (name, path), kind in STAGE_TYPED_FIELDS.items()
    for value in NOT_OF_TYPE[kind]
]
# Retyped fields the format checks newly reject: each case once exited 0 or
# exited 2 with an internal error. (document, path, value, the error's text).
FORMAT_GAPS = {
    "verdicts-segments-list": ("verdicts", "segments", [], "segments must be an object, got []"),
    "verdicts-table-list": ("verdicts", "segments/loud", [], "segments.loud must be an object, got []"),
    "schema-codes-list": ("schema", "dimensions/0/codes", [],
                          "dimensions[0].codes must be an object, got []"),
    "plan-order-float": ("plan", "order/0", 0.0, "order[0] must be an integer, got 0.0"),
    "verdicts-detected-string": ("verdicts", "full/quiet/detected", "no",
                                 "full.quiet.detected must be true or false, got 'no'"),
    "verdicts-mismatch-float": ("verdicts", "segments/loud/0/mismatched_frames", 1.5,
                                "segments.loud.0.mismatched_frames must be an integer, got 1.5"),
    "verdicts-mismatch-bool": ("verdicts", "segments/loud/0/mismatched_frames", True,
                               "segments.loud.0.mismatched_frames must be an integer, got True"),
    "plan-score-string": ("plan", "scores/0", "1.5", "scores[0] must be a number, got '1.5'"),
    "plan-seed-string": ("plan", "seed", "x", "seed must be an integer, got 'x'"),
    "vectors-module-int": ("vectors", "module", 5, "module must be a string, got 5"),
    "vectors-module-unknown": ("vectors", "module", "bogus",
                               "module must be one of traffic_light, obstacle, prediction, "
                               "planning, all, got 'bogus'"),
    "schema-always-keep-string": ("schema", "always_keep", "crosswalk",
                                  "always_keep must be a list, got 'crosswalk'"),
}


def _run_retyped(name, path, value, valid_inputs, tmp_path, capsys):
    """Exit code and stderr of the stage command reading the valid document of
    kind name with the value at path (slash-separated) replaced."""
    doc = tmp_path / f"{name}.json"
    base = json.loads(valid_inputs[name].read_text())
    doc.write_text(json.dumps(_replaced(base, path.split("/"), value)))
    argv = [str(doc) if a == "{}" else str(valid_inputs.get(a, a))
            for a in STAGE_COMMANDS[name].split()]
    capsys.readouterr()
    rc = main(argv)
    return rc, capsys.readouterr().err


class TestMistypedFields:
    """Every field of a script or mutant document, replaced by a value of another type."""

    def test_every_field_is_covered(self):
        # 27 script fields and 6 mutant fields, 5 values each.
        assert len(NESTED_CASES) == (27 + 6) * len(FIELD_VALUES)
        assert VALID_REPLACEMENTS <= set(NESTED_CASES)

    @pytest.mark.parametrize("name,path,value", NESTED_CASES)
    def test_exit_one_with_one_error_line(self, name, path, value, work, tmp_path, capsys):
        base = NESTED_SCRIPT if name == "script" else NESTED_MUTANTS
        keys = [int(k) if k.isdigit() else k for k in path.split("/")]
        doc = tmp_path / f"{name}.json"
        doc.write_text(json.dumps(_replaced(base, keys, FIELD_VALUES[value])))
        out = str(tmp_path / "out.json")
        if name == "script":
            argv = ["synth-generate", "--script", str(doc), "--out", out]
        else:
            argv = ["run-regression", "--in", str(work["rec"]), "--mutants", str(doc),
                    "--module", "planning", "--strategies", "CH", "--repetitions", "1", "--out", out]
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        if (name, path, value) in VALID_REPLACEMENTS:
            assert rc == 0, err
            return
        assert rc == 1, err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("error: "), err

    @pytest.mark.parametrize("name,path,value", STAGE_CASES)
    def test_stage_integers(self, name, path, value, valid_inputs, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc, err = _run_retyped(name, path, NOT_INTS[value], valid_inputs, tmp_path, capsys)
        assert rc == 1, err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("error: "), err

    @pytest.mark.parametrize("name,path,value", STAGE_TYPED_CASES)
    def test_stage_typed_fields(self, name, path, value, valid_inputs, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        bad = NOT_OF_TYPE[STAGE_TYPED_FIELDS[name, path]][value]
        rc, err = _run_retyped(name, path, bad, valid_inputs, tmp_path, capsys)
        assert rc == 1, err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("error: "), err

    @pytest.mark.parametrize("case", FORMAT_GAPS)
    def test_format_gap_names_the_field(self, case, valid_inputs, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        name, path, value, message = FORMAT_GAPS[case]
        rc, err = _run_retyped(name, path, value, valid_inputs, tmp_path, capsys)
        assert rc == 1, err
        assert err == f"error: invalid {name} document: {message}\n"

    @pytest.mark.parametrize("key", ["1_0", " 1", "+1", "01", "1.0", "-0", "x"])
    def test_verdicts_segment_id_is_canonical_decimal(self, key, valid_inputs, tmp_path, monkeypatch,
                                                      capsys):
        # int() alone reads "1_0" as 10 and " 1" or "+1" as 1.
        monkeypatch.chdir(tmp_path)
        doc = json.loads(valid_inputs["verdicts"].read_text())
        table = doc["segments"]["loud"]
        table[key] = table.pop("1")
        verdicts = tmp_path / "verdicts.json"
        verdicts.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["evaluate", "--verdicts", str(verdicts), "--plans", str(valid_inputs["plan"]),
                   "--out", "out.json"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: invalid verdicts document: segments.loud has segment id {key!r}, "
            "not a decimal integer\n"
        )

    def test_quiet_is_undetected(self, valid_inputs):
        # So the "no" of verdicts-detected-string would have counted as detected.
        assert json.loads(valid_inputs["verdicts"].read_text())["full"]["quiet"] == {"detected": False}

    def test_stage_documents_are_valid(self, valid_inputs, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, template in STAGE_COMMANDS.items():
            argv = [str(valid_inputs[name]) if a == "{}" else str(valid_inputs.get(a, a))
                    for a in template.split()]
            assert main(argv) == 0, name

    def test_base_documents_are_valid(self, work, tmp_path):
        script, mutants = tmp_path / "script.json", tmp_path / "mutants.json"
        script.write_text(json.dumps(NESTED_SCRIPT))
        mutants.write_text(json.dumps(NESTED_MUTANTS))
        assert main(["synth-generate", "--script", str(script), "--out", str(tmp_path / "r.jsonl")]) == 0
        assert main(["run-regression", "--in", str(work["rec"]), "--mutants", str(mutants),
                     "--module", "planning", "--out", str(tmp_path / "r.json")]) == 0


class TestMistypedRecordingsLoadAsMessages:
    """Each recording the TestMistyped* classes feed the CLI loads as the
    message-holding loader loads it (message_reference): the same
    InputError text, or the same channels."""

    @pytest.mark.parametrize("doc", MISTYPED)
    def test_mistyped_documents(self, doc, valid_inputs, tmp_path):
        text = MISTYPED[doc]
        if text is None:
            valid = valid_inputs["rec"].read_text()
            text = valid[: len(valid) // 2].rstrip()[:-1]
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert_loads_as_messages(bad)

    @pytest.mark.parametrize("case", PAYLOAD_CASES)
    def test_mistyped_payloads(self, case, work, tmp_path):
        assert_loads_as_messages(TestMistypedPayloads().retyped(case, work, tmp_path))
