"""End-to-end command-line tests driven through main()'s exit codes."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pineq
from pineq import tensorio
from pineq.audio import preprocess_audio
from pineq.cli import main, read_config
from pineq.corpus import load_corpus, sample_corpus_pairs, stratified_split


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
    rc = main(["train", "--corpus", str(corpus_dir), "--model", "cnn",
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


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err
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


def test_preprocess_saves_feature_tensors(corpus_dir, tmp_path):
    out = tmp_path / "features"
    assert main(["preprocess", "--corpus", str(corpus_dir),
                 "--out", str(out)]) == 0
    corpus = load_corpus(corpus_dir / "manifest.txt")
    rec = corpus.records[0]
    n_media = len(corpus.records) * (len(rec.audio) + len(rec.photos))
    assert len(list(out.glob("*.pqct"))) == n_media
    meta = rec.audio[0]
    stored = tensorio.load_tensor(out / "p0000_a00.pqct")
    want = preprocess_audio(corpus.media_path(meta).read_bytes())
    np.testing.assert_array_equal(stored, want)


def test_train_writes_artifacts(trained_dir):
    for name in ("model.ckpt", "model.ckpt.idx", "model.json",
                 "report.txt", "loss.csv"):
        assert (trained_dir / name).exists(), name
    report = (trained_dir / "report.txt").read_text()
    assert "cnn" in report and "# model: cnn" in report
    assert (trained_dir / "loss.csv").read_text().startswith("epoch,loss\n")
    state = tensorio.load_checkpoint(trained_dir / "model.ckpt")
    assert any(k.startswith("backbone.") for k in state)


def test_train_is_one_experiment_cell(corpus_dir, trained_dir, tmp_path, capsys):
    out = tmp_path / "grid"
    assert main(["experiment", "--corpus", str(corpus_dir), "--model", "cnn",
                 "--strategy", "random", "--samples-per-record", "2",
                 "--epochs", "1", "--batch", "4", "--seed", "0",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "loss_cnn_random_s2_seed0.csv").read_bytes() == \
        (trained_dir / "loss.csv").read_bytes()
    cell_row = (out / "results.csv").read_text().splitlines()[1].split(",")
    report = (trained_dir / "report.txt").read_text()
    row = [l for l in report.splitlines() if l.startswith("cnn")][0].split()
    assert row == ["cnn", "random", cell_row[2], cell_row[3],
                   f"{float(cell_row[4]):.2f}"]
    echoed = [l for l in report.splitlines() if l.startswith("# ")]
    assert "# modality: audio" in echoed
    grid_report = (out / "report.txt").read_text().splitlines()
    assert grid_report[:len(echoed)] == echoed  # same settings, same order


def test_corrupt_wav_is_data_error_naming_the_file(corpus_dir, tmp_path, capsys):
    corpus_copy = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus_copy)
    corpus = load_corpus(corpus_copy / "manifest.txt")
    train_recs, _ = stratified_split(list(corpus.records), seed=0)
    pairs = sample_corpus_pairs(train_recs, "random", 2, seed=0)
    rec = train_recs[0]
    meta = rec.audio[pairs[rec.record_id][0][0]]
    corpus.media_path(meta).write_bytes(b"not a wav file at all")
    rc = main(["train", "--corpus", str(corpus_copy), "--model", "cnn",
               "--strategy", "random", "--samples-per-record", "2",
               "--epochs", "1", "--batch", "4", "--seed", "0",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == \
        f"error: {meta.path}: missing RIFF/WAVE header"


def test_preprocess_corrupt_wav_is_data_error_naming_the_file(corpus_dir, tmp_path,
                                                             capsys):
    corpus_copy = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus_copy)
    corpus = load_corpus(corpus_copy / "manifest.txt")
    meta = corpus.records[0].audio[0]
    corpus.media_path(meta).write_bytes(b"not a wav file at all")
    rc = main(["preprocess", "--corpus", str(corpus_copy),
               "--out", str(tmp_path / "features")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == \
        f"error: {meta.path}: missing RIFF/WAVE header"


def test_corpus_report_echoes_no_synthetic_settings(trained_dir):
    report = (trained_dir / "report.txt").read_text().splitlines()
    echoed = {l[2:].split(":")[0] for l in report if l.startswith("# ")}
    assert "corpus" in echoed
    assert not echoed & {"synthetic", "records", "corpus-seed"}


def test_eval_reproduces_train_accuracy(corpus_dir, trained_dir, capsys):
    assert main(["eval", "--model", str(trained_dir / "model.ckpt"),
                 "--corpus", str(corpus_dir), "--seed", "0"]) == 0
    eval_line = capsys.readouterr().out.strip().splitlines()[-1]
    report = (trained_dir / "report.txt").read_text()
    acc = [l for l in report.splitlines() if l.startswith("cnn")][0].split()[-1]
    assert f"test accuracy {acc}" in eval_line


def test_eval_missing_checkpoint_is_data_error(capsys):
    assert main(["eval", "--model", "missing.ckpt"]) == 2
    assert capsys.readouterr().err


def test_eval_without_corpus_is_usage_error(trained_dir, capsys):
    assert main(["eval", "--model", str(trained_dir / "model.ckpt")]) == 1
    assert "--corpus" in capsys.readouterr().err


def test_usage_errors(corpus_dir, tmp_path, capsys):
    cases = [
        ["train", "--corpus", str(corpus_dir)],                      # no --out
        ["train", "--corpus", str(corpus_dir), "--synthetic",
         "--out", str(tmp_path / "x")],                              # exclusive
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


def test_mixed_grid_with_pretraining_is_usage_error(tmp_path, capsys):
    out = tmp_path / "grid"
    rc = main(["experiment", "--synthetic", "--records", "8",
               "--model", "ensemble,crossmodal", "--pretrain-steps", "2",
               "--out", str(out)])
    assert rc == 1
    assert "pretraining applies only to crossmodal kinds" in capsys.readouterr().err
    assert not (out / "report.txt").exists()
    assert not (out / "corpus").exists()  # flags are checked before generation


@pytest.mark.parametrize("sidecar, reason", [
    ('{"kind": ', "Expecting value"),
    ('{"model": "cnn", "modality": "audio", "architecture": {}}', "missing kind"),
    ('{"model": "cnn", "kind": "cnn-unimodal", "modality": "audio"}',
     "missing architecture"),
], ids=["corrupt-json", "no-kind", "no-architecture"])
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


def test_malformed_manifest_is_data_error(tmp_path, capsys):
    bad = tmp_path / "manifest.txt"
    bad.write_text("counts 2 2\nrecord a Ripe\n")
    assert main(["split", "--corpus", str(bad)]) == 2
    assert capsys.readouterr().err


def test_config_file_precedence_and_echo(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# tiny grid\n"
        "model = cnn\n"
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
    assert "# model: cnn" in report
    assert "# seed: 0,1" in report
    csv_lines = (out / "results.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 2 + 1       # header, two seeds, one aggregate
    assert (out / "loss_cnn_random_s2_seed1.csv").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs\n")
    assert main(["experiment", "--corpus", str(corpus_dir),
                 "--config", str(bad), "--out", str(out)]) == 1
    capsys.readouterr()


def test_experiment_rerun_is_byte_identical(corpus_dir, tmp_path, capsys):
    argv = ["experiment", "--corpus", str(corpus_dir), "--model", "cnn",
            "--strategy", "random", "--samples-per-record", "2",
            "--seed", "0", "--epochs", "1", "--batch", "4"]
    assert main(argv + ["--out", str(tmp_path / "r1")]) == 0
    assert main(argv + ["--out", str(tmp_path / "r2")]) == 0
    capsys.readouterr()
    for name in ("report.txt", "results.csv", "loss_cnn_random_s2_seed0.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == \
               (tmp_path / "r2" / name).read_bytes(), name


def test_module_invocation(tmp_path):
    # the child runs elsewhere, so it gets the package's own absolute root
    env = dict(os.environ, PYTHONPATH=str(Path(pineq.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "pineq", "--help"],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0
    assert "usage: pineq" in proc.stdout
