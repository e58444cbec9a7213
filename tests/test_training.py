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
from pineq.models import (
    CnnBackbone,
    CrossModalConfig,
    CrossModalEncoder,
    EnsembleModel,
    patchify_audio,
    patchify_image,
)
from pineq.training import (
    AUDIO_FEATURE_MEAN,
    AUDIO_FEATURE_SCALE,
    ConfusionMatrix,
    FeatureStore,
    MODALITIES,
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
    np.testing.assert_array_equal(store.audio_tokens(rec.audio[0]), atok)

    imap = store.image_map(rec.photos[0])
    assert imap.shape == (3, 224, 224) and imap.dtype == np.float32
    itok = store.image_tokens(rec.photos[0])
    assert itok.shape == (196, 768)


@pytest.mark.parametrize("stream", ["audio", "image"])
def test_store_caches_one_array_per_media_file(small_corpus, monkeypatch, stream):
    store = FeatureStore(small_corpus)
    rec = small_corpus.records[0]
    if stream == "audio":
        meta, decoder = rec.audio[0], "preprocess_audio"
    else:
        meta, decoder = rec.photos[0], "preprocess_image"
    fmap = getattr(store, f"{stream}_map")(meta)
    tokens = getattr(store, f"{stream}_tokens")(meta)
    assert len(store._cache) == 1  # the map only; tokens are computed from it

    def no_decode(data):
        raise AssertionError("a cache hit decoded the media file again")

    monkeypatch.setattr(training, decoder, no_decode)
    assert getattr(store, f"{stream}_map")(meta) is fmap
    np.testing.assert_array_equal(getattr(store, f"{stream}_tokens")(meta), tokens)
    assert len(store._cache) == 1
    want = (patchify_audio(fmap) if stream == "audio"
            else patchify_image(fmap.transpose(1, 2, 0)))  # channel-last patches
    np.testing.assert_array_equal(tokens, want)


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
    for kind in ("cnn-unimodal", "ensemble"):  # no token encoder to pretrain
        with pytest.raises(ValueError, match="pretraining applies only"):
            TrainConfig(model=kind, pretrain_steps=2)
    TrainConfig(model="crossmodal-unimodal", pretrain_steps=2)


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
SMALL_CNN = {"embed_dim": 8, "head_hidden": 6}


def _scripted_counts(examples, scripted):
    want = np.zeros((4, 4), dtype=np.int64)
    for (rec, _, _), row in zip(examples, scripted):
        want[int(rec.label), int(np.argmax(row))] += 1
    return want


def test_evaluate_matches_scripted_loop(small_corpus):
    store = FeatureStore(small_corpus)
    records = list(small_corpus.records)
    pairs = {r.record_id: build_test_pairs(r)[:2] for r in records}
    examples = [(r, j, k) for r in records for j, k in pairs[r.record_id]]
    mel = np.stack([store.audio_map(r.audio[j]) for r, j, _ in examples])
    img = np.stack([store.image_map(r.photos[k]) for r, _, k in examples])
    encoder = CrossModalEncoder(EVAL_CFG, np.random.default_rng(31))
    ensemble = EnsembleModel(np.random.default_rng(32), **SMALL_CNN)

    def fused(rec, j, k):
        a = Tensor(store.audio_tokens(rec.audio[j])[None])
        v = Tensor(store.image_tokens(rec.photos[k])[None])
        return encoder.forward_tokens(a, v)

    def ensembled(rec, j, k):
        return ensemble.forward(store.audio_map(rec.audio[j])[None],
                                store.image_map(rec.photos[k])[None])

    for kind, model, script in (("crossmodal", encoder, fused),
                                ("ensemble", ensemble, ensembled)):
        conf = evaluate(model, TrainConfig(model=kind), store, records, pairs,
                        batch=3)
        assert conf.total == 8
        # scripted per-instance loop over the same frozen model
        scripted = np.concatenate([script(*ex).data for ex in examples])
        np.testing.assert_array_equal(conf.counts, _scripted_counts(examples, scripted),
                                      err_msg=kind)
        # the view logits builds from stacked maps feeds the same rows
        aligned = model.logits(mel, img).data
        np.testing.assert_allclose(aligned, scripted,
                                   rtol=1e-4, atol=1e-4, err_msg=kind)
        # each distinct map once plus row indices gives the aligned logits
        (mel_once, ai), (img_once, vi) = (training._stack(store, examples, s)
                                          for s in MODALITIES)
        assert len(mel_once) < len(examples)  # the grid rows share soundtracks
        assert vi is None  # but no photo, so its stack is the aligned one
        np.testing.assert_array_equal(mel_once[ai], mel)
        np.testing.assert_array_equal(img_once, img)
        np.testing.assert_allclose(model.logits(mel_once, img_once, ai, vi).data,
                                   aligned, rtol=0, atol=1e-5, err_msg=kind)
        assert conf.counts.sum(axis=1)[int(records[0].label)] >= 1


def test_evaluate_unimodal_routes_requested_modality(small_corpus):
    from pineq.training import build_model

    store = FeatureStore(small_corpus)
    records = list(small_corpus.records)
    pairs = {r.record_id: [(0, 0)] for r in records}
    examples = [(r, 0, 0) for r in records]
    mel = np.stack([store.audio_map(r.audio[0]) for r in records])
    img = np.stack([store.image_map(r.photos[0]) for r in records])
    encoder = CrossModalEncoder(EVAL_CFG, np.random.default_rng(33))
    cnn = {m: build_model(TrainConfig(model="cnn-unimodal", modality=m),
                          np.random.default_rng(34), SMALL_CNN) for m in MODALITIES}
    # (kind, modality, model, batch for logits, scripted entry point per record)
    cases = (
        ("crossmodal-unimodal", "audio", encoder, (mel, None),
         lambda r: encoder.unimodal_tokens(
             Tensor(store.audio_tokens(r.audio[0])[None]), "audio")),
        ("crossmodal-unimodal", "visual", encoder, (None, img),
         lambda r: encoder.unimodal_tokens(
             Tensor(store.image_tokens(r.photos[0])[None]), "visual")),
        ("cnn-unimodal", "audio", cnn["audio"], (mel, None),
         lambda r: cnn["audio"].forward(store.audio_map(r.audio[0])[None, None])),
        ("cnn-unimodal", "visual", cnn["visual"], (None, img),
         lambda r: cnn["visual"].forward(store.image_map(r.photos[0])[None])),
    )
    repeats = np.array([2, 0, 2, 3, 1, 2])
    for kind, modality, model, batch, script in cases:
        what = f"{kind}/{modality}"
        conf = evaluate(model, TrainConfig(model=kind, modality=modality),
                        store, records, pairs)
        assert conf.total == 4
        scripted = np.concatenate([script(r).data for r in records])
        np.testing.assert_array_equal(conf.counts, _scripted_counts(examples, scripted),
                                      err_msg=what)
        np.testing.assert_allclose(model.logits(*batch).data, scripted,
                                   rtol=1e-4, atol=1e-4, err_msg=what)
        # rows of the distinct stack picked by index == logits of the aligned stack
        aligned = [None if b is None else b[repeats] for b in batch]
        np.testing.assert_allclose(model.logits(*batch, repeats, repeats).data,
                                   model.logits(*aligned).data,
                                   rtol=0, atol=1e-5, err_msg=what)


def test_evaluate_encodes_each_grid_file_once(small_corpus, monkeypatch):
    store = FeatureStore(small_corpus)
    rec = small_corpus.records[0]
    grid = {rec.record_id: build_test_pairs(rec)}
    assert len(grid[rec.record_id]) == 16
    rows = []

    def counting(fn, stream):
        def wrapped(self, x):
            rows.append((stream(x), x.data.shape[0]))
            return fn(self, x)
        return wrapped

    monkeypatch.setattr(CnnBackbone, "__call__", counting(
        CnnBackbone.__call__, lambda x: "audio" if x.data.shape[1] == 1 else "visual"))
    for stream in MODALITIES:
        name = f"encode_{stream}"
        monkeypatch.setattr(CrossModalEncoder, name, counting(
            getattr(CrossModalEncoder, name), lambda x, s=stream: s))
    for kind, model in (("ensemble", EnsembleModel(np.random.default_rng(35), **SMALL_CNN)),
                        ("crossmodal", CrossModalEncoder(EVAL_CFG,
                                                         np.random.default_rng(36)))):
        rows.clear()
        conf = evaluate(model, TrainConfig(model=kind), store, [rec], grid)
        assert conf.total == 16
        assert sorted(rows) == [("audio", 4), ("visual", 4)], kind


@pytest.mark.parametrize("kind", ["ensemble", "crossmodal"])
def test_repeated_soundtrack_gradients_match_aligned_batch(small_corpus, kind):
    from pineq.training import build_model

    store = FeatureStore(small_corpus)
    records = list(small_corpus.records)
    # soundtrack 0 of record 0 is read three times, photo 1 twice
    chunk = [(records[0], 0, 0), (records[0], 0, 1), (records[1], 2, 1),
             (records[0], 0, 3), (records[2], 1, 2)]
    labels = np.array([int(r.label) for r, _, _ in chunk])
    cfg = TrainConfig(model=kind)
    arch = EVAL_CFG if kind == "crossmodal" else SMALL_CNN
    mel = np.stack([store.audio_map(r.audio[j]) for r, j, _ in chunk])
    img = np.stack([store.image_map(r.photos[k]) for r, _, k in chunk])

    def grads(logits_of):
        model = build_model(cfg, np.random.default_rng(37), arch)
        loss = weighted_smoothed_ce(logits_of(model), labels, (1.0, 2.0, 1.0, 3.0), 0.1)
        loss.backward()
        return loss.item(), {n: p.grad for n, p in model.named_parameters().items()}

    loss_once, once = grads(lambda m: training._forward(m, cfg, store, chunk))
    loss_aligned, aligned = grads(lambda m: m.logits(mel, img))
    assert abs(loss_once - loss_aligned) <= 1e-5 * abs(loss_aligned)
    assert list(once) == list(aligned)
    for name in aligned:
        np.testing.assert_allclose(once[name], aligned[name], rtol=1e-5, atol=1e-5,
                                   err_msg=name)


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
