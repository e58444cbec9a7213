"""Experiment-matrix orchestration tests on a tiny synthetic corpus."""

import os
import threading

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


def _with_workers(monkeypatch, workers):
    """Split grids' cells (and ops) into at most ``workers`` shares."""
    monkeypatch.setattr(autodiff, "_workers", workers)


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


@pytest.mark.parametrize("field, values, message", [
    ("models", ("cnn-audio", "cnn-visual", "cnn-audio"), "models lists 'cnn-audio'"),
    ("strategies", ("random", "random"), "strategies lists 'random'"),
    ("samples_per_record", (2, 4, 4), "samples_per_record lists 4"),
    ("seeds", (0, 1, 0), "seeds lists 0"),
], ids=["models", "strategies", "samples", "seeds"])
def test_repeated_grid_value_is_a_value_error(field, values, message):
    # a repeated value would train identical cells and report them twice
    with pytest.raises(ValueError, match=f"^{message} more than once$"):
        cnn_spec(**{field: values})


@pytest.mark.parametrize("models", [("crossmodal", "ensemble"),
                                    ("ensemble", "crossmodal")],
                         ids=["crossmodal-first", "ensemble-first"])
def test_mixed_grid_with_pretraining_fails_at_spec(models):
    # every model's cell config is checked, not only the first one's
    with pytest.raises(ValueError, match="pretraining applies only to crossmodal"):
        cnn_spec(models=models, pretrain_steps=2)
    cnn_spec(models=models)  # the same grid without pretraining is valid


def test_zero_heads_is_a_value_error(corpus, store):
    spec = ExperimentSpec(models=("crossmodal",), strategies=("random",),
                          samples_per_record=(2,), seeds=(0,), epochs=1, batch=16)
    with pytest.raises(ValueError, match="^heads must be positive$"):
        run_experiment(spec, corpus, architectures={"crossmodal": {"heads": 0}},
                       store=store)


def test_infeasible_samples_rejected_before_training(corpus, store):
    spec = cnn_spec(samples_per_record=(400,))  # J*K = 320
    with pytest.raises(InfeasibleSampleError):
        run_experiment(spec, corpus, architectures=CNN_ARCH, store=store)


@pytest.mark.parametrize("workers", [1, 2], ids=["1", "2"])
def test_infeasible_cell_fails_before_any_cell_trains(corpus, store, monkeypatch,
                                                      workers):
    # random can draw 200 of a record's 320 pairs; audio-major only 8 x 16 = 128
    trained = []

    def spy(*args, **kwargs):
        trained.append(args)
        raise AssertionError("a cell trained")

    monkeypatch.setattr(experiment, "train", spy)
    _with_workers(monkeypatch, workers)
    spec = cnn_spec(strategies=("random", "audio-major"), samples_per_record=(200,))
    with pytest.raises(InfeasibleSampleError, match="pool of 8 views"):
        run_experiment(spec, corpus, architectures=CNN_ARCH, store=store)
    assert not trained


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "threads"])
def test_each_cell_is_drawn_once(corpus, store, monkeypatch, workers):
    calls = []
    sample = experiment.sample_corpus_pairs

    def spy(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(experiment, "sample_corpus_pairs", spy)
    _with_workers(monkeypatch, workers)
    spec = cnn_spec(strategies=("random", "audio-major"), seeds=(0, 1))
    run_experiment(spec, corpus, architectures=CNN_ARCH, store=store)
    assert len(calls) == len(spec.cells()) == 4


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
    _with_workers(monkeypatch, 1)
    serial = run_experiment(spec, corpus, architectures=CNN_ARCH,
                            store=store)
    _with_workers(monkeypatch, 2)
    parallel = run_experiment(spec, corpus, architectures=CNN_ARCH)
    assert parallel.report_text() == serial.report_text()
    assert parallel.csv_text() == serial.csv_text()


def test_threaded_cells_match_serial_without_forking(corpus, store, monkeypatch,
                                                   tmp_path):
    # cells go to the op splitter: on several workers the calling thread and
    # threads of this process run them, share one store, and run their ops
    # inline (no split inside a split); a grid on one worker runs its cells
    # on the calling thread, and a one-cell grid runs its cell there too,
    # whose ops split
    arch = {"ensemble": {"embed_dim": 8, "head_hidden": 6}, "crossmodal": TINY_XM}
    spec = ExperimentSpec(models=("ensemble", "crossmodal"), strategies=("random",),
                          samples_per_record=(2,), seeds=(0, 1), epochs=1, batch=8)
    pools, cells = [], []
    split, train = autodiff.ThreadPoolExecutor, experiment.train

    def spy_split(*args, **kwargs):
        pools.append(threading.current_thread().name)
        return split(*args, **kwargs)

    def spy(*args, **kwargs):
        cells.append(threading.current_thread().name)
        return train(*args, **kwargs)

    def no_fork():
        raise AssertionError("a parallel grid forked")

    monkeypatch.setattr(autodiff, "ThreadPoolExecutor", spy_split)
    monkeypatch.setattr(experiment, "train", spy)
    monkeypatch.setattr(os, "fork", no_fork)
    main = threading.main_thread().name
    for workers in (1, 2, 3):
        _with_workers(monkeypatch, workers)
        write_outputs(run_experiment(spec, corpus, architectures=arch, store=store),
                      tmp_path / str(workers))
        assert len(cells) == 4
        if workers == 1:
            assert set(cells) == {main} and not pools
        else:
            # the cells' one split, and no op split inside a cell
            assert pools == [main] and 1 < len(set(cells)) <= workers
        pools.clear()
        cells.clear()
        for name in ("report.txt", "results.csv"):
            assert (tmp_path / str(workers) / name).read_bytes() == \
                (tmp_path / "1" / name).read_bytes()
    _with_workers(monkeypatch, 2)
    one = ExperimentSpec(models=("crossmodal",), strategies=("random",),
                         samples_per_record=(2,), seeds=(0,), epochs=1, batch=8)
    run_experiment(one, corpus, architectures=arch, store=store)
    assert cells == [main] and pools and set(pools) == {main}


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
    _with_workers(monkeypatch, 1)
    serial = run_experiment(spec, corpus, architectures=CNN_ARCH, store=warm)
    _with_workers(monkeypatch, 2)
    parallel = run_experiment(spec, corpus, architectures=CNN_ARCH, store=warm)
    assert parallel.report_text() == serial.report_text()
    assert parallel.csv_text() == serial.csv_text()


def test_a_diverging_cell_raises_the_callers_floating_point_error(corpus, store,
                                                                 monkeypatch):
    # numpy keeps one error state per thread; every share of the cells takes
    # the caller's
    spec = cnn_spec(seeds=(0, 1), lr=1e30)  # overflows the weights on the first step
    for workers in (1, 2):
        _with_workers(monkeypatch, workers)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            run_experiment(spec, corpus, architectures=CNN_ARCH, store=store)
