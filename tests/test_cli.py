"""End-to-end command-line tests driven through main()'s exit codes."""

import dataclasses
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pineq
from pineq import tensorio
from pineq.cli import build_parser, load_model, main, read_config
from pineq.corpus import load_corpus, sample_corpus_pairs, stratified_split
from pineq.models import CrossModalConfig, CrossModalEncoder
from pineq.training import MODELS

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli") / "corpus"
    rc = main(["synth", "--records", "8", "--seed", "9", "--out", str(d),
               "--audio-seconds", "0.25", "--image-width", "32",
               "--image-height", "24"])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def trained_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    rc = main(["train", "--corpus", str(corpus_dir), "--model", "cnn-audio",
               "--strategy", "random", "--samples-per-record", "2",
               "--epochs", "1", "--batch", "4", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    return out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "synth" in capsys.readouterr().out
    assert main(["train", "--help"]) == 0
    assert "--samples-per-record" in capsys.readouterr().out


def test_readme_commands_parse_and_name_known_models():
    # every `pineq <command> ...` line of a README code block, with its
    # backslash continuations joined; parsing checks each flag and runs nothing
    commands = []
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("pineq "):
                commands.append(shlex.split(line, comments=True)[1:])
    assert {c[0] for c in commands} >= {"train", "eval", "experiment"}
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)  # an unknown flag raises UsageError
        if args.command in ("train", "experiment") and args.model is not None:
            unknown = set(args.model.split(",")) - set(MODELS)
            assert not unknown, f"README: pineq {' '.join(argv)}"


def test_only_synth_makes_a_corpus_and_the_rest_read_one():
    parser = build_parser()
    for name in ("synth", "split", "sample", "train", "eval", "experiment"):
        options = vars(parser.parse_args([name]))
        assert ("records" in options) == (name == "synth"), name
        assert ("corpus" in options) == (name != "synth"), name


def test_unknown_subcommand_is_usage_error(capsys):
    for name in ("frobnicate", "preprocess"):
        assert main([name]) == 1
        assert "invalid choice" in capsys.readouterr().err
    assert main([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_synth_materializes_loadable_corpus(corpus_dir):
    corpus = load_corpus(corpus_dir / "manifest.txt")
    assert len(corpus.records) == 8
    assert (corpus_dir / "audio").is_dir() and (corpus_dir / "photos").is_dir()


def test_split_stdout_matches_library(corpus_dir, capsys):
    assert main(["split", "--corpus", str(corpus_dir), "--seed", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    corpus = load_corpus(corpus_dir / "manifest.txt")
    train_recs, test_recs = stratified_split(list(corpus.records), seed=3)
    want = [f"train {r.record_id}" for r in train_recs] + \
           [f"test {r.record_id}" for r in test_recs]
    assert lines == want


def test_sample_is_deterministic(corpus_dir, tmp_path, capsys):
    args = ["sample", "--corpus", str(corpus_dir), "--strategy", "audio-major",
            "--samples-per-record", "3", "--seed", "1"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "pairs.csv").read_bytes()
    b = (tmp_path / "b" / "pairs.csv").read_bytes()
    assert a == b
    lines = a.decode().strip().splitlines()
    assert lines[0] == "record,soundtrack,photo"
    assert len(lines) == 1 + 8 * 3


def test_train_writes_artifacts(trained_dir):
    for name in ("model.ckpt", "model.ckpt.idx", "model.json",
                 "report.txt", "loss.csv"):
        assert (trained_dir / name).exists(), name
    report = (trained_dir / "report.txt").read_text()
    assert "# model: cnn-audio" in report
    assert (trained_dir / "loss.csv").read_text().startswith("epoch,loss\n")
    assert json.loads((trained_dir / "model.json").read_text()) == \
        {"model": "cnn-audio", "architecture": {}}
    state = tensorio.load_checkpoint(trained_dir / "model.ckpt")
    assert any(k.startswith("backbone.") for k in state)


def test_train_is_one_experiment_cell(corpus_dir, trained_dir, tmp_path, capsys):
    out = tmp_path / "grid"
    assert main(["experiment", "--corpus", str(corpus_dir), "--model", "cnn-audio",
                 "--strategy", "random", "--samples-per-record", "2",
                 "--epochs", "1", "--batch", "4", "--seed", "0",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "loss_cnn-audio_random_s2_seed0.csv").read_bytes() == \
        (trained_dir / "loss.csv").read_bytes()
    cell_row = (out / "results.csv").read_text().splitlines()[1].split(",")
    report = (trained_dir / "report.txt").read_text()
    row = [l for l in report.splitlines() if l.startswith("cnn-audio")][0].split()
    assert row == ["cnn-audio", "random", cell_row[2], cell_row[3],
                   f"{float(cell_row[4]):.2f}"]
    echoed = [l for l in report.splitlines() if l.startswith("# ")]
    assert "# model: cnn-audio" in echoed
    grid_report = (out / "report.txt").read_text().splitlines()
    assert grid_report[:len(echoed)] == echoed  # same settings, same order
    # each setting is stated once; the grid adds only the corpus facts
    grid_header = [l for l in grid_report if l.startswith("# ")]
    assert [l.split(":")[0] for l in grid_header[len(echoed):]] == \
        ["# records", "# media per record"]


def test_corrupt_wav_is_data_error_naming_the_file(corpus_dir, tmp_path, capsys):
    corpus_copy = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus_copy)
    corpus = load_corpus(corpus_copy / "manifest.txt")
    train_recs, _ = stratified_split(list(corpus.records), seed=0)
    pairs = sample_corpus_pairs(train_recs, "random", 2, seed=0)
    rec = train_recs[0]
    meta = rec.audio[pairs[rec.record_id][0][0]]
    corpus.media_path(meta).write_bytes(b"not a wav file at all")
    rc = main(["train", "--corpus", str(corpus_copy), "--model", "cnn-audio",
               "--strategy", "random", "--samples-per-record", "2",
               "--epochs", "1", "--batch", "4", "--seed", "0",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == \
        f"error: {meta.path}: missing RIFF/WAVE header"


def test_eval_reproduces_train_accuracy(corpus_dir, trained_dir, capsys):
    assert main(["eval", "--model", str(trained_dir / "model.ckpt"),
                 "--corpus", str(corpus_dir), "--seed", "0"]) == 0
    eval_line = capsys.readouterr().out.strip().splitlines()[-1]
    report = (trained_dir / "report.txt").read_text()
    acc = [l for l in report.splitlines() if l.startswith("cnn-audio")][0].split()[-1]
    assert f"test accuracy {acc}" in eval_line


def test_eval_split_that_holds_no_record_out_names_the_seed(trained_dir, tmp_path,
                                                           capsys):
    small = tmp_path / "corpus"
    assert main(["synth", "--records", "4", "--out", str(small),
                 "--audio-seconds", "0.25", "--image-width", "32",
                 "--image-height", "24"]) == 0
    rc = main(["eval", "--model", str(trained_dir / "model.ckpt"),
               "--corpus", str(small), "--out", str(tmp_path / "e")])
    assert rc == 2
    assert "seed 0: the split of 4 records holds none out" in capsys.readouterr().err


def test_eval_missing_checkpoint_is_data_error(capsys):
    assert main(["eval", "--model", "missing.ckpt"]) == 2
    assert capsys.readouterr().err


def test_eval_without_corpus_is_usage_error(trained_dir, capsys):
    assert main(["eval", "--model", str(trained_dir / "model.ckpt")]) == 1
    assert "--corpus" in capsys.readouterr().err


def test_usage_errors(corpus_dir, tmp_path, capsys):
    cases = [
        ["train", "--corpus", str(corpus_dir)],                      # no --out
        ["train", "--corpus", str(corpus_dir), "--model", "resnext",
         "--out", str(tmp_path / "x")],
        ["sample", "--corpus", str(corpus_dir), "--strategy", "greedy"],
        ["train", "--corpus", str(corpus_dir), "--smoothing", "1.5",
         "--out", str(tmp_path / "x")],
        ["experiment", "--corpus", str(corpus_dir), "--epochs", "abc",
         "--out", str(tmp_path / "x")],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        assert capsys.readouterr().err


# a bad value is caught before the corpus is read, so a corpus path that does
# not exist turns any flag check that was skipped into a data error (exit 2)
@pytest.mark.parametrize("argv, message", [
    (["synth", "--noise", "2"], "noise must be in [0, 1], got 2.0"),
    (["synth", "--records", "0"], "need at least one record"),
    (["split", "--corpus", "MISSING", "--seed", "abc"], "invalid value for --seed: 'abc'"),
    (["sample", "--corpus", "MISSING", "--samples-per-record", "x"],
     "invalid value for --samples-per-record: 'x'"),
    (["experiment", "--corpus", "MISSING", "--seed", "-1"],
     "seeds must be non-empty non-negative ints"),
    (["split", "--corpus", "MISSING", "--seed", "-1"], "invalid value for --seed: -1"),
    (["sample", "--corpus", "MISSING", "--seed", "-1"], "invalid value for --seed: -1"),
    (["sample", "--corpus", "MISSING", "--samples-per-record", "0"],
     "invalid value for --samples-per-record: 0"),
    (["eval", "--model", "CKPT", "--corpus", "MISSING", "--seed", "-1"],
     "invalid value for --seed: -1"),
    (["train", "--corpus", "MISSING", "--lr", "nan"], "lr must be positive and finite, got nan"),
    (["train", "--corpus", "MISSING", "--lr", "inf"], "lr must be positive and finite, got inf"),
    (["experiment", "--corpus", "MISSING", "--lr", "nan"],
     "lr must be positive and finite, got nan"),
    (["synth", "--audio-seconds", "inf"], "soundtracks must be finite and over 50 ms, got inf"),
    (["synth", "--audio-seconds", "nan"], "soundtracks must be finite and over 50 ms, got nan"),
], ids=["synth-noise", "synth-records", "split-seed", "sample-samples",
        "experiment-negative-seed", "split-negative-seed", "sample-negative-seed",
        "sample-zero-samples", "eval-negative-seed", "train-nan-lr", "train-inf-lr",
        "experiment-nan-lr", "synth-inf-seconds", "synth-nan-seconds"])
def test_bad_value_is_usage_error_that_writes_nothing(tmp_path, capsys, request, argv,
                                                      message):
    if "CKPT" in argv:  # only eval needs a checkpoint to reach its flags
        ckpt = request.getfixturevalue("trained_dir") / "model.ckpt"
        argv = [str(ckpt) if a == "CKPT" else a for a in argv]
    argv = [str(tmp_path / "no-corpus") if a == "MISSING" else a for a in argv]
    out = tmp_path / "d"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_unknown_model_is_usage_error_listing_the_models(tmp_path, capsys, command):
    out = tmp_path / "d"
    assert main([command, "--corpus", str(tmp_path / "no-corpus"), "--model", "cnn",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "unknown models: ['cnn']; choose from cnn-audio, cnn-visual, ensemble, "
        "crossmodal, crossmodal-audio, crossmodal-visual\n")
    assert not out.exists()


def test_bad_value_gives_one_message_from_flag_or_config(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = abc\n")
    base = ["experiment", "--corpus", str(corpus_dir), "--out", str(tmp_path / "x")]
    assert main(base + ["--epochs", "abc"]) == 1
    from_flag = capsys.readouterr().err
    assert main(base + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == from_flag == "invalid value for --epochs: 'abc'\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("line, key", [("sede = 3", "sede"), ("epochs = 3", "epochs"),
                                       ("records = 8", "records")],
                         ids=["misspelt", "another-command", "synth-only"])
def test_config_key_no_option_reads_is_usage_error(tmp_path, capsys, line, key):
    cfg = tmp_path / "split.cfg"
    cfg.write_text(f"seed = 1\n{line}\n")
    out = tmp_path / "split"
    assert main(["split", "--corpus", str(tmp_path / "no-corpus"), "--out", str(out),
                 "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        f"{cfg}: not an option of pineq split: {key}; its options are corpus, ")
    assert not out.exists()


def test_mixed_grid_with_pretraining_is_usage_error(corpus_dir, tmp_path, capsys):
    out = tmp_path / "grid"
    rc = main(["experiment", "--corpus", str(corpus_dir),
               "--model", "ensemble,crossmodal", "--pretrain-steps", "2",
               "--out", str(out)])
    assert rc == 1
    assert "pretraining applies only to crossmodal kinds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sidecar, reason", [
    ('{"model": ', "Expecting value"),
    ('{"architecture": {}}', "missing model"),
    ('{"model": "cnn-audio"}', "missing architecture"),
    ('{"model": "cnn", "kind": "cnn-unimodal", "modality": "audio", "architecture": {}}',
     "unknown model 'cnn'; choose from cnn-audio, cnn-visual,"),
    ('{"model": "crossmodal", "architecture": [1]}', "must be a mapping, not list"),
    ('{"model": "crossmodal", "architecture": {"classes": 4}}',
     "unexpected keyword argument 'classes'"),
    ('{"model": "crossmodal", "architecture": {"heads": 0}}', "heads must be positive"),
], ids=["corrupt-json", "no-model", "no-architecture", "old-cnn", "list-architecture",
        "classes", "zero-heads"])
def test_eval_bad_sidecar_is_data_error_naming_it(trained_dir, tmp_path, capsys,
                                                   sidecar, reason):
    for name in ("model.ckpt", "model.ckpt.idx"):
        shutil.copy(trained_dir / name, tmp_path / name)
    (tmp_path / "model.json").write_text(sidecar)
    rc = main(["eval", "--model", str(tmp_path / "model.ckpt"),
               "--corpus", "unused"])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {tmp_path / 'model.json'}: "), err
    assert reason in err


@pytest.mark.parametrize("field, reason", [
    ("head_hidden", "head.fc1.weight: checkpoint shape (8, 6) != parameter shape (8, 7)"),
    ("joint_blocks", "checkpoint mismatch: missing ['joint_blocks.1.attn.wk.bias', "),
], ids=["head_hidden", "joint_blocks"])
def test_eval_weights_that_do_not_fit_the_sidecar_name_both_files(tmp_path, capsys,
                                                                  field, reason):
    arch = CrossModalConfig(token_dim=8, heads=2, modality_blocks=1, joint_blocks=1,
                            head_hidden=6)
    ckpt = tmp_path / "model.ckpt"
    tensorio.save_checkpoint(ckpt, CrossModalEncoder(arch, np.random.default_rng(3))
                             .state_dict())
    grown = dict(dataclasses.asdict(arch), **{field: getattr(arch, field) + 1})
    (tmp_path / "model.json").write_text(json.dumps(
        {"model": "crossmodal", "architecture": grown}))
    assert main(["eval", "--model", str(ckpt), "--corpus", "unused"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'model.json'}: {reason}"), err
    assert err.endswith(f" (weights {ckpt})\n"), err


def test_old_sidecar_with_a_current_model_name_loads(corpus_dir, tmp_path, capsys):
    arch = CrossModalConfig(token_dim=8, heads=2, modality_blocks=1, joint_blocks=1,
                            head_hidden=6)
    model = CrossModalEncoder(arch, np.random.default_rng(3))
    tensorio.save_checkpoint(tmp_path / "model.ckpt", model.state_dict())
    # the sidecar as it was written with kind and modality keys, now ignored
    (tmp_path / "model.json").write_text(json.dumps({
        "model": "crossmodal-audio", "kind": "crossmodal-unimodal",
        "modality": "audio", "architecture": dataclasses.asdict(arch)}))
    loaded, cfg = load_model(tmp_path / "model.ckpt")
    assert cfg.model == "crossmodal-audio"
    for key, value in model.state_dict().items():
        np.testing.assert_array_equal(loaded.state_dict()[key], value)
    assert main(["eval", "--model", str(tmp_path / "model.ckpt"),
                 "--corpus", str(corpus_dir), "--out", str(tmp_path / "e")]) == 0
    capsys.readouterr()
    assert "crossmodal-audio  eval" in (tmp_path / "e" / "report.txt").read_text()


def test_malformed_manifest_is_data_error(tmp_path, capsys):
    bad = tmp_path / "manifest.txt"
    bad.write_text("counts 2 2\nrecord a Ripe\n")
    assert main(["split", "--corpus", str(bad)]) == 2
    assert capsys.readouterr().err


def test_config_file_precedence_and_echo(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# tiny grid\n"
        "model = cnn-audio\n"
        "strategy = random\n"
        "samples-per-record = 2\n"
        "seed = 0,1\n"
        "epochs = 3\n"
        "batch = 4\n")
    assert read_config(str(cfg))["epochs"] == "3"
    out = tmp_path / "exp"
    rc = main(["experiment", "--corpus", str(corpus_dir),
               "--config", str(cfg), "--epochs", "1", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    report = (out / "report.txt").read_text()
    assert "# epochs: 1" in report          # flag beats config file
    assert "# model: cnn-audio" in report
    assert "# seed: 0,1" in report
    csv_lines = (out / "results.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 2 + 1       # header, two seeds, one aggregate
    assert (out / "loss_cnn-audio_random_s2_seed1.csv").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs\n")
    assert main(["experiment", "--corpus", str(corpus_dir),
                 "--config", str(bad), "--out", str(out)]) == 1
    capsys.readouterr()


def test_experiment_rerun_is_byte_identical(corpus_dir, tmp_path, capsys):
    argv = ["experiment", "--corpus", str(corpus_dir), "--model", "cnn-audio",
            "--strategy", "random", "--samples-per-record", "2",
            "--seed", "0", "--epochs", "1", "--batch", "4"]
    assert main(argv + ["--out", str(tmp_path / "r1")]) == 0
    assert main(argv + ["--out", str(tmp_path / "r2")]) == 0
    capsys.readouterr()
    for name in ("report.txt", "results.csv", "loss_cnn-audio_random_s2_seed0.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == \
               (tmp_path / "r2" / name).read_bytes(), name


def test_module_invocation(tmp_path):
    # the child runs elsewhere, so it gets the package's own absolute root
    env = dict(os.environ, PYTHONPATH=str(Path(pineq.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "pineq", "--help"],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0
    assert "usage: pineq" in proc.stdout
