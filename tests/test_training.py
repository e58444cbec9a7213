"""Loss, training-loop, evaluation, and report-formatting tests."""

import math

import numpy as np
import pytest

from pineq.autodiff import Tensor
from pineq.corpus import (
    QualityLabel,
    SyntheticConfig,
    build_test_pairs,
    generate_synthetic,
    sample_corpus_pairs,
)
from pineq import training
from pineq.models import CrossModalConfig, CrossModalEncoder, patchify_audio
from pineq.training import (
    AUDIO_FEATURE_MEAN,
    AUDIO_FEATURE_SCALE,
    ConfusionMatrix,
    FeatureStore,
    ReportRow,
    TrainConfig,
    accuracy,
    evaluate,
    format_csv,
    format_loss_trace,
    format_report,
    train,
    weighted_smoothed_ce,
)

UNIFORM = (1.0, 1.0, 1.0, 1.0)


def np_log_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# weighted smoothed cross-entropy
# ---------------------------------------------------------------------------


def test_ce_uniform_logits_is_ln4():
    logits = Tensor(np.zeros((5, 4)))
    labels = np.array([0, 1, 2, 3, 0])
    loss = weighted_smoothed_ce(logits, labels, UNIFORM, smoothing=0.0)
    assert abs(loss.item() - math.log(4)) < 1e-9


def test_ce_no_smoothing_uniform_weights_is_plain_ce():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(16, 4))
    labels = rng.integers(0, 4, size=16)
    got = weighted_smoothed_ce(Tensor(logits), labels, UNIFORM, smoothing=0.0).item()
    want = -np_log_softmax(logits)[np.arange(16), labels].mean()
    assert abs(got - want) < 1e-7


def test_ce_smoothed_closed_form():
    logits = np.array([[2.0, 0.0, 0.0, 0.0]])
    labels = np.array([0])
    got = weighted_smoothed_ce(Tensor(logits), labels, UNIFORM, smoothing=0.1).item()
    target = np.full(4, 0.1 / 4)
    target[0] += 0.9
    want = -(target * np_log_softmax(logits)[0]).sum()
    assert abs(got - want) < 1e-9


def test_ce_shift_invariance():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(8, 4))
    labels = rng.integers(0, 4, size=8)
    shifted = logits + rng.normal(size=(8, 1)) * 7.0
    a = weighted_smoothed_ce(Tensor(logits), labels, (2.0, 1.0, 1.0, 3.0), 0.1).item()
    b = weighted_smoothed_ce(Tensor(shifted), labels, (2.0, 1.0, 1.0, 3.0), 0.1).item()
    assert abs(a - b) < 1e-8


def test_ce_weighting_matches_manual_average():
    logits = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    labels = np.array([0, 1])
    w = (2.0, 1.0, 1.0, 1.0)
    lp = np_log_softmax(logits)
    ce0, ce1 = -lp[0, 0], -lp[1, 1]
    want = (2.0 * ce0 + 1.0 * ce1) / 3.0
    got = weighted_smoothed_ce(Tensor(logits), labels, w, smoothing=0.0).item()
    assert abs(got - want) < 1e-9


def test_ce_perfect_margin_limit():
    logits = np.zeros((1, 4))
    logits[0, 2] = 60.0
    loss = weighted_smoothed_ce(Tensor(logits), np.array([2]), UNIFORM, 0.0).item()
    assert loss < 1e-9


def test_ce_validates_arguments():
    logits = Tensor(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        weighted_smoothed_ce(logits, np.array([0, 4]), UNIFORM, 0.0)
    with pytest.raises(ValueError):
        weighted_smoothed_ce(logits, np.array([0, 1]), UNIFORM, 1.0)
    with pytest.raises(ValueError):
        weighted_smoothed_ce(logits, np.array([0, 1]), (0.0, 1.0, 1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        weighted_smoothed_ce(logits, np.array([0, 1]), (1.0, 1.0, 1.0), 0.0)


# ---------------------------------------------------------------------------
# confusion matrix + accuracy
# ---------------------------------------------------------------------------


def test_accuracy_closed_forms():
    assert accuracy(ConfusionMatrix(np.diag([25, 25, 25, 25]))) == 1.0
    m = ConfusionMatrix(np.array([[10, 0, 0, 0], [0, 5, 5, 0],
                                  [0, 0, 10, 0], [0, 0, 0, 10]]))
    assert accuracy(m) == 35 / 40


def test_accuracy_permutation_invariance():
    rng = np.random.default_rng(2)
    counts = rng.integers(0, 30, size=(4, 4))
    base = accuracy(ConfusionMatrix(counts))
    perm = rng.permutation(4)
    assert accuracy(ConfusionMatrix(counts[np.ix_(perm, perm)])) == base


def test_confusion_matrix_merge_and_validation():
    a = ConfusionMatrix(np.eye(4, dtype=np.int64) * 2)
    b = ConfusionMatrix(np.ones((4, 4), dtype=np.int64))
    merged = a.merge(b)
    assert merged.total == 8 + 16
    np.testing.assert_array_equal(merged.counts, a.counts + b.counts)
    with pytest.raises(ValueError):
        ConfusionMatrix(np.zeros((3, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        ConfusionMatrix(-np.eye(4, dtype=np.int64))
    with pytest.raises(ValueError):
        accuracy(ConfusionMatrix(np.zeros((4, 4), dtype=np.int64)))


def test_row_normalized_rows_sum_to_one_or_zero():
    counts = np.array([[3, 1, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 2]])
    rn = ConfusionMatrix(counts).row_normalized()
    np.testing.assert_allclose(rn.sum(axis=1), [1.0, 0.0, 1.0, 1.0])
    np.testing.assert_allclose(rn[0], [0.75, 0.25, 0.0, 0.0])


# ---------------------------------------------------------------------------
# feature store
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    cfg = SyntheticConfig(records=4, seed=13, audio_seconds=0.3,
                          image_width=32, image_height=24)
    return generate_synthetic(cfg, tmp_path_factory.mktemp("corpus"))


def test_feature_store_shapes_normalization_and_caching(small_corpus):
    from pineq import audio as audio_mod

    store = FeatureStore(small_corpus)
    rec = small_corpus.records[0]
    amap = store.audio_map(rec.audio[0])
    assert amap.shape == (1024, 128) and amap.dtype == np.float32
    raw = audio_mod.preprocess_audio(
        small_corpus.media_path(rec.audio[0]).read_bytes())
    np.testing.assert_allclose(
        amap, (raw - AUDIO_FEATURE_MEAN) / AUDIO_FEATURE_SCALE, rtol=1e-6)
    assert store.audio_map(rec.audio[0]) is amap  # cached object

    atok = store.audio_tokens(rec.audio[0])
    assert atok.shape == (512, 256)
    assert store.audio_tokens(rec.audio[0]) is atok

    imap = store.image_map(rec.photos[0])
    assert imap.shape == (3, 224, 224) and imap.dtype == np.float32
    itok = store.image_tokens(rec.photos[0])
    assert itok.shape == (196, 768)


def test_audio_tokens_cache_one_array_per_soundtrack(small_corpus, monkeypatch):
    store = FeatureStore(small_corpus)
    meta = small_corpus.records[0].audio[0]
    atok = store.audio_tokens(meta)
    assert len(store._cache) == 1  # the tokens, not the Mel map beside them

    def no_decode(data):
        raise AssertionError("a cache hit decoded the soundtrack again")

    monkeypatch.setattr(training, "preprocess_audio", no_decode)
    assert store.audio_tokens(meta) is atok
    monkeypatch.undo()
    np.testing.assert_array_equal(atok, patchify_audio(store.audio_map(meta)))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_train_config_validation():
    TrainConfig()  # defaults are valid
    with pytest.raises(ValueError):
        TrainConfig(model="gru")
    with pytest.raises(ValueError):
        TrainConfig(modality="haptic")
    with pytest.raises(ValueError):
        TrainConfig(smoothing=1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(pretrain_steps=-1)


def test_train_requires_examples(small_corpus):
    store = FeatureStore(small_corpus)
    with pytest.raises(ValueError):
        train(store, list(small_corpus.records), {r.record_id: [] for r in small_corpus.records},
              TrainConfig(model="cnn-unimodal", epochs=1))


def test_train_is_deterministic_per_seed(small_corpus):
    store = FeatureStore(small_corpus)
    records = list(small_corpus.records)
    pairs = sample_corpus_pairs(records, "random", 2, seed=3)
    cfg = TrainConfig(model="cnn-unimodal", modality="audio", epochs=2,
                      batch=4, seed=11)
    arch = {"embed_dim": 8, "head_hidden": 6}
    r1 = train(store, records, pairs, cfg, architecture=arch)
    r2 = train(store, records, pairs, cfg, architecture=arch)
    assert r1.losses == r2.losses
    s1, s2 = r1.model.state_dict(), r2.model.state_dict()
    assert list(s1) == list(s2)
    for k in s1:
        np.testing.assert_array_equal(s1[k], s2[k])
    r3 = train(store, records, pairs, TrainConfig(model="cnn-unimodal",
               modality="audio", epochs=2, batch=4, seed=12), architecture=arch)
    assert any(
        not np.array_equal(s1[k], r3.model.state_dict()[k]) for k in s1
    )


def test_overfit_single_repeated_instance(small_corpus):
    store = FeatureStore(small_corpus)
    rec = small_corpus.records[0]
    pairs = {rec.record_id: [(0, 0)]}
    cfg = TrainConfig(model="cnn-unimodal", modality="audio", epochs=200,
                      batch=1, lr=1e-3, smoothing=0.0, seed=0)
    result = train(store, [rec], pairs, cfg,
                   architecture={"embed_dim": 8, "head_hidden": 6})
    assert result.losses[-1] < 0.05, f"final loss {result.losses[-1]:.4f}"


def test_cnn_audio_reaches_090_train_accuracy(tmp_path):
    cfg = SyntheticConfig(records=8, seed=21, audio_seconds=0.4,
                          image_width=24, image_height=16)
    corpus = generate_synthetic(cfg, tmp_path / "c")
    store = FeatureStore(corpus)
    records = list(corpus.records)
    pairs = sample_corpus_pairs(records, "random", 4, seed=5)
    tc = TrainConfig(model="cnn-unimodal", modality="audio", epochs=10,
                     batch=4, seed=1)
    result = train(store, records, pairs, tc,
                   architecture={"embed_dim": 16, "head_hidden": 16})
    conf = evaluate(result.model, tc, store, records, pairs)
    assert conf.total == 32
    acc = accuracy(conf)
    assert acc >= 0.9, f"train accuracy {acc:.3f}"


EVAL_CFG = CrossModalConfig(token_dim=8, heads=2, modality_blocks=1,
                            joint_blocks=1, head_hidden=6)


def test_evaluate_matches_scripted_loop(small_corpus):
    store = FeatureStore(small_corpus)
    records = list(small_corpus.records)
    model = CrossModalEncoder(EVAL_CFG, np.random.default_rng(31))
    pairs = {r.record_id: build_test_pairs(r)[:2] for r in records}
    tc = TrainConfig(model="crossmodal")
    conf = evaluate(model, tc, store, records, pairs, batch=3)
    assert conf.total == 8
    # scripted per-instance loop over the same frozen model
    want = np.zeros((4, 4), dtype=np.int64)
    for rec in records:
        for j, k in pairs[rec.record_id]:
            a = Tensor(store.audio_tokens(rec.audio[j])[None])
            v = Tensor(store.image_tokens(rec.photos[k])[None])
            pred = int(np.argmax(model.forward_tokens(a, v).data[0]))
            want[int(rec.label), pred] += 1
    np.testing.assert_array_equal(conf.counts, want)
    assert conf.counts.sum(axis=1)[int(records[0].label)] >= 1


def test_evaluate_unimodal_routes_requested_modality(small_corpus):
    store = FeatureStore(small_corpus)
    records = list(small_corpus.records)
    model = CrossModalEncoder(EVAL_CFG, np.random.default_rng(33))
    pairs = {r.record_id: [(0, 0)] for r in records}
    ca = evaluate(model, TrainConfig(model="crossmodal-unimodal", modality="audio"),
                  store, records, pairs)
    cv = evaluate(model, TrainConfig(model="crossmodal-unimodal", modality="visual"),
                  store, records, pairs)
    assert ca.total == cv.total == 4
    # scripted audio-only loop agrees
    want = np.zeros((4, 4), dtype=np.int64)
    for rec in records:
        a = Tensor(store.audio_tokens(rec.audio[0])[None])
        pred = int(np.argmax(model.unimodal_tokens(a, "audio").data[0]))
        want[int(rec.label), pred] += 1
    np.testing.assert_array_equal(ca.counts, want)


COARSE_CFG = CrossModalConfig(token_dim=8, heads=2, modality_blocks=1,
                              joint_blocks=1, head_hidden=6,
                              audio_tokens=128, audio_patch_dim=1024,
                              visual_tokens=49, visual_patch_dim=3072)


def test_coarse_token_model_matches_manual_regrouping(small_corpus):
    store = FeatureStore(small_corpus)
    records = list(small_corpus.records)
    model = CrossModalEncoder(COARSE_CFG, np.random.default_rng(41))
    pairs = {r.record_id: [(0, 0)] for r in records}
    conf = evaluate(model, TrainConfig(model="crossmodal"), store, records, pairs)
    want = np.zeros((4, 4), dtype=np.int64)
    for rec in records:
        a = Tensor(store.audio_tokens(rec.audio[0]).reshape(1, 128, 1024))
        v = Tensor(store.image_tokens(rec.photos[0]).reshape(1, 49, 3072))
        pred = int(np.argmax(model.forward_tokens(a, v).data[0]))
        want[int(rec.label), pred] += 1
    np.testing.assert_array_equal(conf.counts, want)


def test_incompatible_token_geometry_raises(small_corpus):
    from pineq.autodiff import ShapeError

    store = FeatureStore(small_corpus)
    records = list(small_corpus.records)
    bad = CrossModalConfig(token_dim=8, heads=2, modality_blocks=1,
                           joint_blocks=1, head_hidden=6,
                           audio_tokens=100, audio_patch_dim=1024)
    model = CrossModalEncoder(bad, np.random.default_rng(2))
    pairs = {records[0].record_id: [(0, 0)]}
    with pytest.raises(ShapeError):
        evaluate(model, TrainConfig(model="crossmodal"), store, [records[0]], pairs)


def test_unimodal_training_leaves_other_stream_untouched(small_corpus):
    from pineq.training import build_model

    store = FeatureStore(small_corpus)
    records = list(small_corpus.records)
    pairs = {r.record_id: [(0, 0), (1, 1)] for r in records}
    cfg = TrainConfig(model="crossmodal-unimodal", modality="audio",
                      epochs=1, batch=4, seed=5)
    result = train(store, records, pairs, cfg, architecture=EVAL_CFG)
    fresh = build_model(cfg, np.random.default_rng(np.random.SeedSequence([5, 0])),
                        EVAL_CFG)
    trained, init = result.model.state_dict(), fresh.state_dict()
    np.testing.assert_array_equal(trained["visual_proj.weight"],
                                  init["visual_proj.weight"])
    assert not np.array_equal(trained["audio_proj.weight"],
                              init["audio_proj.weight"])


def test_build_model_takes_a_plain_dict_architecture():
    from dataclasses import asdict

    from pineq.training import build_model

    cfg = TrainConfig(model="crossmodal")
    from_dict = build_model(cfg, np.random.default_rng(4), asdict(EVAL_CFG))
    from_cfg = build_model(cfg, np.random.default_rng(4), EVAL_CFG)
    assert from_dict.cfg == EVAL_CFG
    a, b = from_dict.state_dict(), from_cfg.state_dict()
    assert list(a) == list(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


def test_diverging_fit_stops_naming_step_and_loss(small_corpus):
    store = FeatureStore(small_corpus)
    records = list(small_corpus.records)
    pairs = {r.record_id: [(0, 0), (1, 1)] for r in records}
    # a step this large overflows the weights on the first update
    cnn = TrainConfig(model="cnn-unimodal", epochs=3, batch=4, lr=1e30)
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match=r"^training diverged: loss nan at step 2$"):
        train(store, records, pairs, cnn)
    pre = TrainConfig(model="crossmodal", epochs=1, batch=4, lr=1e30,
                      pretrain_steps=4)
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match=r"^pretraining diverged: loss nan at step 2$"):
        train(store, records, pairs, pre, architecture=EVAL_CFG)


def test_pretraining_changes_the_initialization(small_corpus):
    store = FeatureStore(small_corpus)
    records = list(small_corpus.records)
    pairs = {r.record_id: [(0, 0), (1, 1)] for r in records}
    base = TrainConfig(model="crossmodal", epochs=1, batch=4, seed=7)
    with_pre = TrainConfig(model="crossmodal", epochs=1, batch=4, seed=7,
                           pretrain_steps=3)
    r0 = train(store, records, pairs, base, architecture=EVAL_CFG)
    r1 = train(store, records, pairs, with_pre, architecture=EVAL_CFG)
    assert r0.pretrain_losses == []
    assert len(r1.pretrain_losses) == 3
    s0, s1 = r0.model.state_dict(), r1.model.state_dict()
    assert any(not np.array_equal(s0[k], s1[k]) for k in s0)


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------


def test_report_row_rendering_and_determinism():
    rows = [ReportRow("crossmodal", "audio-major", 3200, 0.84)]
    text = format_report(rows)
    line = [l for l in text.splitlines() if "crossmodal" in l][0]
    cols = line.split()
    assert cols == ["crossmodal", "audio-major", "3200", "0.84"]
    assert format_report(rows) == text  # byte-identical
    assert "Confusion" not in text  # empty matrix section omitted


def test_report_with_matrices_and_header():
    m = ConfusionMatrix(np.array([[2, 0, 0, 0], [1, 1, 0, 0],
                                  [0, 0, 2, 0], [0, 0, 0, 2]]))
    text = format_report(
        [ReportRow("ensemble", "random", 128, 0.875, seed=3)],
        matrices=[("ensemble/random", m)],
        header=["corpus: synthetic", "records: 8"],
    )
    assert text.startswith("# corpus: synthetic\n# records: 8\n")
    assert "seed" in text.splitlines()[2].lower()
    assert "ensemble/random" in text
    assert "0.50 0.50 0.00 0.00" in text


def test_csv_and_loss_trace_formats():
    rows = [ReportRow("crossmodal", "random", 64, 0.5, seed=1),
            ReportRow("ensemble", "visual-major", 32, 0.25)]
    csv = format_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == "model,strategy,samples,seed,accuracy"
    assert lines[1] == "crossmodal,random,64,1,0.500000"
    assert lines[2] == "ensemble,visual-major,32,,0.250000"
    trace = format_loss_trace([1.5, 0.75])
    assert trace.splitlines() == ["epoch,loss", "1,1.500000", "2,0.750000"]
