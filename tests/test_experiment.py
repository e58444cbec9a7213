"""Experiment-matrix orchestration tests on a tiny synthetic corpus."""

import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pineq import autodiff
from pineq.corpus import (CorpusError, InfeasibleSampleError, SyntheticConfig,
                          generate_synthetic)
from pineq.models import CrossModalConfig
from pineq import experiment
from pineq.experiment import ExperimentSpec, run_experiment, write_outputs
from pineq.training import FeatureStore

TINY_CNN = {"embed_dim": 8, "head_hidden": 6}
CNN_ARCH = {"cnn-audio": TINY_CNN, "cnn-visual": TINY_CNN}
TINY_XM = CrossModalConfig(token_dim=8, heads=2, modality_blocks=1,
                           joint_blocks=1, head_hidden=6)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    cfg = SyntheticConfig(records=8, seed=17, audio_seconds=0.25,
                          image_width=32, image_height=24)
    return generate_synthetic(cfg, tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="module")
def store(corpus):
    return FeatureStore(corpus)


def cnn_spec(**kw):
    base = dict(models=("cnn-audio",), strategies=("random",), samples_per_record=(2,),
                seeds=(0,), epochs=1, batch=8)
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    cnn_spec()  # valid
    with pytest.raises(ValueError):
        cnn_spec(models=())
    with pytest.raises(ValueError, match=r"^unknown models: \['cnn'\]; choose from cnn-audio,"):
        cnn_spec(models=("cnn",))
    with pytest.raises(ValueError):
        cnn_spec(strategies=("greedy",))
    with pytest.raises(ValueError):
        cnn_spec(samples_per_record=(0,))
    with pytest.raises(ValueError):
        cnn_spec(seeds=())
    with pytest.raises(ValueError):
        cnn_spec(seeds=(0, -1))
    with pytest.raises(ValueError):
        cnn_spec(smoothing=1.5)


@pytest.mark.parametrize("models", [("crossmodal", "ensemble"),
                                    ("ensemble", "crossmodal")],
                         ids=["crossmodal-first", "ensemble-first"])
def test_mixed_grid_with_pretraining_fails_at_spec(models):
    # every model's cell config is checked, not only the first one's
    with pytest.raises(ValueError, match="pretraining applies only to crossmodal"):
        cnn_spec(models=models, pretrain_steps=2)
    cnn_spec(models=models)  # the same grid without pretraining is valid


def test_infeasible_samples_rejected_before_training(corpus, store):
    spec = cnn_spec(samples_per_record=(400,))  # J*K = 320
    with pytest.raises(InfeasibleSampleError):
        run_experiment(spec, corpus, architectures=CNN_ARCH, store=store)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_infeasible_cell_fails_before_any_cell_trains(corpus, store, monkeypatch,
                                                      tmp_path, threads):
    # random can draw 200 of a record's 320 pairs; audio-major only 8 x 16 = 128
    def spy(*args, **kwargs):  # a file, so that forked workers report too
        (tmp_path / "trained").touch()
        raise AssertionError("a cell trained")

    monkeypatch.setattr(experiment, "train", spy)
    monkeypatch.setenv("PQC_THREADS", threads)
    spec = cnn_spec(strategies=("random", "audio-major"), samples_per_record=(200,))
    with pytest.raises(InfeasibleSampleError, match="pool of 8 views"):
        run_experiment(spec, corpus, architectures=CNN_ARCH, store=store)
    assert not (tmp_path / "trained").exists()


@pytest.mark.parametrize("threads", [None, "2"], ids=["serial", "forked"])
def test_each_cell_is_drawn_once(corpus, store, monkeypatch, tmp_path, threads):
    calls = tmp_path / "calls"
    sample = experiment.sample_corpus_pairs

    def spy(*args, **kwargs):  # a file, so that forked workers report too
        with calls.open("a") as f:
            f.write("drawn\n")
        return sample(*args, **kwargs)

    monkeypatch.setattr(experiment, "sample_corpus_pairs", spy)
    if threads is None:
        monkeypatch.delenv("PQC_THREADS", raising=False)
    else:
        monkeypatch.setenv("PQC_THREADS", threads)
    spec = cnn_spec(strategies=("random", "audio-major"), seeds=(0, 1))
    run_experiment(spec, corpus, architectures=CNN_ARCH, store=store)
    assert len(calls.read_text().splitlines()) == len(spec.cells()) == 4


def test_split_that_holds_no_record_out_fails_before_training(tmp_path, monkeypatch):
    # with the default proportions no grade of 6 records has the 3 that
    # hold one out
    small = generate_synthetic(
        SyntheticConfig(records=6, seed=3, audio_seconds=0.25, image_width=32,
                        image_height=24), tmp_path / "corpus")

    def spy(*args, **kwargs):
        raise AssertionError("a cell trained")

    monkeypatch.setattr(experiment, "train", spy)
    with pytest.raises(CorpusError, match="^seed 5: the split of 6 records holds none out"):
        run_experiment(cnn_spec(seeds=(5,)), small, architectures=CNN_ARCH)


def test_cartesian_rows_ordering_and_disjointness(corpus, store):
    spec = cnn_spec(strategies=("random", "audio-major", "visual-major"),
                    samples_per_record=(2, 4), seeds=(0, 1))
    result = run_experiment(spec, corpus, architectures=CNN_ARCH,
                            store=store)
    assert len(result.rows) == 3 * 2 * 2  # strategies x S x seeds
    assert len(result.aggregates) == 3 * 2
    # ordering: models, then strategies, then S, then seeds
    key = [(r.strategy, r.samples, r.seed) for r in result.rows]
    n_train = len(result.cells[0].train_ids)
    want = [(st, n_train * s, sd) for st in spec.strategies
            for s in spec.samples_per_record for sd in spec.seeds]
    assert key == want
    all_ids = {r.record_id for r in corpus.records}
    for cell in result.cells:
        train, test = set(cell.train_ids), set(cell.test_ids)
        assert train.isdisjoint(test)
        assert train | test == all_ids
        assert cell.confusion.total == len(test) * 16  # fixed 4x4 test pairs
    for row in result.rows + result.aggregates:
        assert 0.0 <= row.accuracy <= 1.0


def test_aggregate_is_mean_over_seeds_and_matrices_merge(corpus, store):
    spec = ExperimentSpec(models=("crossmodal",), strategies=("random",),
                          samples_per_record=(2,), seeds=(0, 1), epochs=1,
                          batch=16)
    result = run_experiment(spec, corpus,
                            architectures={"crossmodal": TINY_XM}, store=store)
    per_seed = [r.accuracy for r in result.rows]
    assert result.aggregates[0].accuracy == pytest.approx(np.mean(per_seed), abs=1e-12)
    assert result.aggregates[0].seed is None
    (title, merged), = result.matrices
    assert title == "crossmodal/random/S=2"
    assert merged.total == sum(c.confusion.total for c in result.cells)


def test_one_grid_runs_both_cnn_baselines_as_single_model_runs(corpus, store):
    both = run_experiment(cnn_spec(models=("cnn-audio", "cnn-visual")), corpus,
                          architectures=CNN_ARCH, store=store)
    assert [c.model for c in both.cells] == ["cnn-audio", "cnn-visual"]
    for cell in both.cells:
        (alone,) = run_experiment(cnn_spec(models=(cell.model,)), corpus,
                                  architectures=CNN_ARCH, store=store).cells
        assert cell.losses == alone.losses, cell.model
        assert cell.accuracy == alone.accuracy, cell.model
        np.testing.assert_array_equal(cell.confusion.counts, alone.confusion.counts)
    # the two baselines read different streams, so they train different models
    assert both.cells[0].losses != both.cells[1].losses


def test_report_header_echoes_effective_config(corpus, store):
    # the caller states the settings once; the run adds only the corpus facts
    spec = cnn_spec(epochs=2, lr=0.005)
    settings = ("model: cnn-audio", "epochs: 2", "lr: 0.005")
    result = run_experiment(spec, corpus, architectures=CNN_ARCH,
                            store=store, extra_header=settings)
    text = result.report_text()
    header = [l for l in text.splitlines() if l.startswith("# ")]
    assert header == [f"# {l}" for l in settings] + [
        "# records: 8", f"# media per record: {corpus.soundtracks_per_record} "
        f"soundtracks, {corpus.photos_per_record} photos"]
    assert "Mean over seeds" in text


def test_rerun_reproduces_outputs_byte_for_byte(corpus, store, tmp_path):
    spec = cnn_spec(strategies=("random", "audio-major"))
    r1 = run_experiment(spec, corpus, architectures=CNN_ARCH, store=store)
    r2 = run_experiment(spec, corpus, architectures=CNN_ARCH, store=store)
    assert r1.report_text() == r2.report_text()
    assert r1.csv_text() == r2.csv_text()
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_outputs(r1, d1)
    write_outputs(r2, d2)
    for name in ("report.txt", "results.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    traces = sorted(p.name for p in d1.glob("loss_*.csv"))
    assert traces == ["loss_cnn-audio_audio-major_s2_seed0.csv",
                      "loss_cnn-audio_random_s2_seed0.csv"]
    for name in traces:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        assert (d1 / name).read_text().startswith("epoch,loss\n")


def test_parallel_workers_match_serial(corpus, store, monkeypatch):
    spec = cnn_spec(seeds=(0, 1))
    serial = run_experiment(spec, corpus, architectures=CNN_ARCH,
                            store=store)
    monkeypatch.setenv("PQC_THREADS", "2")
    parallel = run_experiment(spec, corpus, architectures=CNN_ARCH)
    assert parallel.report_text() == serial.report_text()
    assert parallel.csv_text() == serial.csv_text()


# Run in a child process, so that a forked worker waiting on its parent's
# threads fails on the timeout rather than hanging the suite.
_FORK_AFTER_OP_THREADS = """
import os, sys, threading
threads_at_fork = []
# registered before pineq's own hook, so it runs after that one: Python runs
# before-fork hooks in the reverse order of registration
os.register_at_fork(before=lambda: threads_at_fork.append(threading.active_count()))
import numpy as np
from pineq import autodiff, experiment
from pineq.corpus import load_corpus
from pineq.experiment import ExperimentSpec, run_experiment, write_outputs

manifest, out = sys.argv[1:]
autodiff._workers = 2  # the split path, whatever this machine's CPUs
x = autodiff.Tensor(np.ones((4, 5, 3), np.float32))
autodiff.attention(x, x, x)
assert autodiff._pool is not None  # the op threads are running
train = experiment.train

def spy(*args, **kwargs):  # a file, so that forked workers report too
    with open(os.path.join(out, "seen"), "a") as f:
        f.write(f"{os.getpid()} {autodiff._workers} {autodiff._pool is None}\\n")
    return train(*args, **kwargs)

experiment.train = spy
spec = ExperimentSpec(models=("ensemble",), strategies=("random",),
                      samples_per_record=(2,), seeds=(0, 1), epochs=1, batch=8)
for name, threads in (("serial", "1"), ("forked", "2")):
    os.environ["PQC_THREADS"] = threads
    result = run_experiment(spec, load_corpus(manifest),
                            architectures={"ensemble": {"embed_dim": 8, "head_hidden": 6}})
    write_outputs(result, os.path.join(out, name))
print(os.getpid(), *threads_at_fork)
"""


def test_forked_workers_after_the_op_threads_started_match_serial(corpus, tmp_path):
    # the parent forks with its op threads joined, and a forked worker runs
    # its ops on its own thread
    env = dict(os.environ, PYTHONPATH=str(Path(autodiff.__file__).resolve().parents[1]))
    # Python 3.12 and later warn when a process with threads forks; the
    # warning is shown here, not raised, because os.fork clears the error
    proc = subprocess.Popen([sys.executable, "-W", "always::DeprecationWarning",
                             "-c", _FORK_AFTER_OP_THREADS,
                             str(corpus.root / "manifest.txt"), str(tmp_path)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=600)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the forked workers too
        proc.communicate()
        raise
    assert proc.returncode == 0, stderr
    assert "multi-threaded" not in stderr, stderr
    assert (tmp_path / "forked" / "results.csv").read_bytes() == \
        (tmp_path / "serial" / "results.csv").read_bytes()
    parent, *threads_at_fork = stdout.split()
    assert threads_at_fork == ["1", "1"]  # each of the two workers forked from one thread
    cells = [line.split() for line in (tmp_path / "seen").read_text().splitlines()]
    assert [c[1:] for c in cells if c[0] == parent] == [["2", "False"]] * 2
    assert [c[1:] for c in cells if c[0] != parent] == [["1", "True"]] * 2


def test_parallel_workers_read_the_warm_store_not_the_media(tmp_path, monkeypatch):
    corpus = generate_synthetic(
        SyntheticConfig(records=8, seed=19, audio_seconds=0.25, image_width=32,
                        image_height=24), tmp_path / "corpus")
    warm = FeatureStore(corpus)
    for rec in corpus.records:
        for meta in rec.audio:
            warm.audio_map(meta)
        for meta in rec.photos:
            warm.image_map(meta)
    # with the media gone, any decode fails; the warm store needs none
    for name in ("audio", "photos"):
        (tmp_path / "corpus" / name).rename(tmp_path / f"gone_{name}")
    spec = cnn_spec(seeds=(0, 1))
    serial = run_experiment(spec, corpus, architectures=CNN_ARCH, store=warm)
    monkeypatch.setenv("PQC_THREADS", "2")
    parallel = run_experiment(spec, corpus, architectures=CNN_ARCH, store=warm)
    assert parallel.report_text() == serial.report_text()
    assert parallel.csv_text() == serial.csv_text()


def test_workers_without_fork_are_a_named_error(corpus, store, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setenv("PQC_THREADS", "2")
    with pytest.raises(ValueError, match="PQC_THREADS"):
        run_experiment(cnn_spec(seeds=(0, 1)), corpus,
                       architectures=CNN_ARCH, store=store)
