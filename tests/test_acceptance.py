"""Acceptance gate: one test per release criterion.

Each test exercises a criterion end to end at its stated tolerance and
prints a single summary line with the measured numbers. The final test is
an optional real-data harness that skips unless a full-size corpus
manifest is supplied via the PQC500_MANIFEST environment variable.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from pineq import audio as A
from pineq.autodiff import (
    Adam,
    Tensor,
    attention,
    bmm,
    concat,
    conv2d,
    grad_check,
    layer_norm,
    linear,
    log_softmax,
    matmul,
    maxpool2d,
    narrow,
    softmax,
)
from pineq.corpus import (
    MediaMeta,
    PineappleRecord,
    QualityLabel,
    SyntheticConfig,
    build_test_pairs,
    class_weights,
    enumerate_pairs,
    generate_synthetic,
    sample_corpus_pairs,
    stratified_split,
)
from pineq.experiment import ExperimentSpec, run_experiment, write_outputs
from pineq.models import (
    CnnClassifier,
    CrossModalConfig,
    CrossModalEncoder,
    EnsembleModel,
    MaePretrainer,
)
from pineq.training import (
    FeatureStore,
    accuracy,
    weighted_smoothed_ce,
)
from pineq.training import ConfusionMatrix

UNIFORM = (1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# criterion 1: gradient suite over every primitive and each model's loss
# ---------------------------------------------------------------------------


def _primitive_cases(rng):
    def t(*shape, positive=False, spread=1.0):
        x = rng.normal(size=shape) * spread
        if positive:
            x = np.abs(x) + 0.5
        return Tensor(x)

    coeff = Tensor(rng.normal(size=(3, 5)))
    cases = [
        ("add", lambda a, b: (a + b).sum(), [t(3, 4), t(3, 4)]),
        ("sub", lambda a, b: (a - b).sum(), [t(3, 4), t(3, 4)]),
        ("mul", lambda a, b: (a * b).sum(), [t(3, 4), t(3, 4)]),
        ("div", lambda a, b: (a / b).sum(), [t(3, 4), t(3, 4, positive=True)]),
        ("neg+scale", lambda a: (-a * 2.5).sum(), [t(3, 4)]),
        ("pow", lambda a: (a ** 2.5).sum(), [t(3, 4, positive=True)]),
        ("relu", lambda a: a.relu().sum(), [t(4, 4)]),
        ("exp", lambda a: a.exp().sum(), [t(3, 3)]),
        ("log", lambda a: a.log().sum(), [t(3, 3, positive=True)]),
        ("sqrt", lambda a: a.sqrt().sum(), [t(3, 3, positive=True)]),
        ("sum-axis", lambda a: (a.sum(axis=1, keepdims=True) * 0.5).sum(), [t(3, 4)]),
        ("mean", lambda a: a.mean(), [t(3, 4)]),
        ("reshape", lambda a: (a.reshape(4, 3) ** 2.0).sum(), [t(3, 4)]),
        ("transpose", lambda a: (a.transpose(0, 2, 1) * a.transpose(0, 2, 1)).sum(),
         [t(2, 3, 4)]),
        ("matmul", lambda a, b: (a @ b).sum(), [t(3, 4), t(4, 2)]),
        ("bmm", lambda a, b: bmm(a, b).sum(), [t(2, 3, 4), t(2, 4, 2)]),
        ("conv2d", lambda x, w: conv2d(x, w, padding=1).sum(),
         [t(1, 2, 6, 6), t(3, 2, 3, 3)]),
        ("maxpool2d", lambda x: maxpool2d(x, 2).sum(), [t(1, 2, 6, 6, spread=10.0)]),
        ("softmax", lambda x: (softmax(x, axis=-1) * coeff).sum(), [t(3, 5)]),
        ("log_softmax", lambda x: (log_softmax(x, axis=-1) * coeff).sum(), [t(3, 5)]),
        ("layer_norm", lambda x, g, b: (layer_norm(x, g, b) * coeff).sum(),
         [t(3, 5), t(5), t(5)]),
        ("concat", lambda a, b: (concat([a, b], axis=1) ** 2.0).sum(),
         [t(3, 2), t(3, 3)]),
        ("narrow", lambda a: (narrow(a, 1, 1, 2) ** 2.0).sum(), [t(3, 4)]),
    ]
    return cases


def _transformer_cases(rng):
    """The fused transformer-layer nodes: rank-3 layer norm, linear at both
    ranks, and attention over 130 queries (a full block of 128 and a
    ragged one)."""
    def t(*shape):
        return Tensor(rng.normal(size=shape))

    coeff = Tensor(rng.normal(size=(3, 5)))
    return [
        ("layer_norm-rank3", lambda x, g, b: (layer_norm(x, g, b) * coeff).sum(),
         [t(2, 3, 5), t(5), t(5)]),
        ("linear", lambda x, w, b: (linear(x, w, b) * coeff).sum(), [t(3, 4), t(4, 5), t(5)]),
        ("linear-rank3", lambda x, w, b: (linear(x, w, b) * coeff).sum(),
         [t(2, 3, 4), t(4, 5), t(5)]),
        ("attention", lambda q, k, v: (attention(q, k, v) ** 2.0).sum(),
         [t(1, 130, 2), t(1, 130, 2), t(1, 130, 2)]),
    ]


def _param_check(model, names, f, eps=1e-4):
    """Grad-check the loss with respect to each named parameter."""
    worst = 0.0
    for name in names:
        param = model.named_parameters()[name]

        def g(w, _name=name, _orig=param):
            model.set_parameter(_name, w)
            try:
                return f()
            finally:
                model.set_parameter(_name, _orig)

        worst = max(worst, grad_check(g, Tensor(param.data.copy()), eps=eps))
    return worst


def test_criterion_1_gradient_suite():
    started = time.monotonic()
    rng = np.random.default_rng(100)
    worst = 0.0
    # their own generator, so the model checks below keep their draws
    cases = _primitive_cases(rng) + _transformer_cases(np.random.default_rng(101))
    for name, f, pts in cases:
        err = grad_check(f, pts)
        assert err < 1e-3, f"{name}: relative gradient error {err:.2e}"
        worst = max(worst, err)

    labels = np.array([0, 2])

    def ce(logits):
        return weighted_smoothed_ce(logits, labels, (2.0, 1.0, 1.0, 3.0), 0.1)

    # cnn classifier end to end (small eps keeps the finite-difference
    # probe from stepping across relu/maxpool kinks)
    cnn = CnnClassifier(np.random.default_rng(2000), 1, (8, 8),
                        embed_dim=8, head_hidden=6)
    cnn.cast(np.float64)
    x_cnn = Tensor(rng.normal(size=(2, 1, 8, 8)))
    err = grad_check(lambda x: ce(cnn.forward(x)), x_cnn, eps=1e-5)
    err = max(err, _param_check(
        cnn, ["backbone.convs.0", "head.out.bias", "backbone.proj.weight"],
        lambda: ce(cnn.forward(x_cnn)), eps=1e-5))
    assert err < 1e-3, f"cnn end-to-end gradient error {err:.2e}"
    worst = max(worst, err)

    # late-fusion ensemble end to end
    ens = EnsembleModel(np.random.default_rng(3000), mel_shape=(8, 8),
                        image_hw=(8, 8), embed_dim=8, head_hidden=6)
    ens.cast(np.float64)
    mel = Tensor(rng.normal(size=(2, 8, 8)))
    img = Tensor(rng.normal(size=(2, 3, 8, 8)))
    err = grad_check(lambda m, i: ce(ens.forward(m, i)), [mel, img], eps=1e-5)
    err = max(err, _param_check(
        ens, ["head.fc1.bias", "audio_net.proj.bias", "visual_net.convs.1"],
        lambda: ce(ens.forward(mel, img)), eps=1e-5))
    assert err < 1e-3, f"ensemble end-to-end gradient error {err:.2e}"
    worst = max(worst, err)

    # token encoder: fused, unimodal, and pretraining losses (for some
    # draws a 1e-4 probe steps across a rectifier kink, so the step is
    # smaller still)
    tiny = CrossModalConfig(token_dim=8, heads=2, modality_blocks=1,
                            joint_blocks=1, mlp_ratio=2, head_hidden=6,
                            audio_tokens=3, audio_patch_dim=5,
                            visual_tokens=2, visual_patch_dim=7)
    enc = CrossModalEncoder(tiny, np.random.default_rng(103))
    enc.cast(np.float64)
    a = Tensor(rng.normal(size=(2, 3, 5)))
    v = Tensor(rng.normal(size=(2, 2, 7)))
    err = grad_check(lambda at, vt: ce(enc.forward_tokens(at, vt)), [a, v], eps=1e-6)
    err = max(err, grad_check(lambda at: ce(enc.unimodal_tokens(at, "audio")), a,
                              eps=1e-6))
    err = max(err, _param_check(
        enc, ["audio_proj.bias", "head.out.weight", "joint_blocks.0.ln1.gamma"],
        lambda: ce(enc.forward_tokens(a, v)), eps=1e-6))
    pre = MaePretrainer(enc, np.random.default_rng(104))
    pre.cast(np.float64)
    mask = pre.sample_mask(np.random.default_rng(105), 2)
    err = max(err, grad_check(lambda at, vt: pre.loss(at, vt, mask)[0], [a, v],
                              eps=1e-6))
    assert err < 1e-3, f"token-encoder end-to-end gradient error {err:.2e}"
    worst = max(worst, err)

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s (budget 60s)"
    print(f"criterion 1 PASS: worst relative error {worst:.2e} "
          f"(tolerance 1e-3) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: DSP oracle chain
# ---------------------------------------------------------------------------


def test_criterion_2_dsp_oracle():
    sr = 48000
    samples = np.zeros(3 * sr)
    samples[sr] = 1.0
    wav = A.write_wav(samples, sr)

    t0 = time.monotonic()
    w = A.normalize_amplitude(A.read_wav(wav))
    peak = A.detect_peak(w)
    assert peak == sr
    cropped = A.crop_segment(w, peak)
    assert cropped.shape == (19200,)
    start = sr - round(0.1 * sr)
    np.testing.assert_allclose(cropped, w[start:start + 19200])
    assert start == 43200 and start + 19200 == 62400
    resampled = A.resample(cropped)
    assert resampled.shape == (8820,)
    mel = A.preprocess_audio(wav)
    assert mel.shape == (1024, 128)
    impulse_time = time.monotonic() - t0

    # 1 kHz tone: every interior frame's strongest mel band must be one
    # whose triangular support contains 1 kHz
    t = np.arange(8820) / 22050.0
    tone = np.sin(2 * np.pi * 1000.0 * t)
    mel_tone = A.mel_spectrogram(tone)
    points = A._mel_to_hz(np.linspace(0.0, A._hz_to_mel(11025.0), 130))
    containing = {b for b in range(128) if points[b] < 1000.0 < points[b + 2]}
    frame_bands = set(np.argmax(mel_tone[64:960], axis=1).tolist())
    assert frame_bands <= containing, (sorted(frame_bands), sorted(containing))

    # second timed file: the same tone recorded at the capture rate
    t48 = np.arange(3 * sr) / sr
    tone48 = 0.9 * np.sin(2 * np.pi * 1000.0 * t48) * np.hanning(3 * sr)
    wav48 = A.write_wav(tone48, sr)
    t0 = time.monotonic()
    assert A.preprocess_audio(wav48).shape == (1024, 128)
    tone_time = time.monotonic() - t0

    assert impulse_time < 1.0 and tone_time < 1.0
    print(f"criterion 2 PASS: crop [43200, 62400) -> 8820 @ 22.05 kHz -> "
          f"(1024, 128); tone bands {sorted(frame_bands)} within "
          f"{sorted(containing)}; {max(impulse_time, tone_time):.2f}s/file "
          f"(budget 1s)")


# ---------------------------------------------------------------------------
# criterion 3: full-size corpus arithmetic
# ---------------------------------------------------------------------------


def test_criterion_3_corpus_arithmetic(tmp_path):
    cfg = SyntheticConfig(records=500, seed=1, audio_seconds=0.06,
                          image_width=8, image_height=6)
    corpus = generate_synthetic(cfg, tmp_path / "pqc500")
    records = list(corpus.records)
    n_audio = sum(len(r.audio) for r in records)
    n_photo = sum(len(r.photos) for r in records)
    assert (n_audio, n_photo) == (10000, 8000)

    train_recs, test_recs = stratified_split(records, seed=3)
    assert (len(train_recs), len(test_recs)) == (400, 100)

    per_record = len(enumerate_pairs(records[0]))
    assert per_record == 320
    total_train = sum(len(enumerate_pairs(r)) for r in train_recs)
    assert total_train == 128000

    per_test = [len(build_test_pairs(r)) for r in test_recs]
    assert set(per_test) == {16}
    assert sum(per_test) == 1600
    print("criterion 3 PASS: 10000/8000 media, 400/100 split, 320 pairs per "
          "record, 128000 enumerated train pairs, 1600 test pairs")


# ---------------------------------------------------------------------------
# criterion 4: sampling invariants at I=400
# ---------------------------------------------------------------------------


_MIC_BANK = ((1, "unidirectional"), (1, "omnidirectional"),
             (2, "unidirectional"), (2, "omnidirectional"),
             (2, "omnidirectional"))
_TAPS = ("side", "side", "bottom", "bottom")


def _metadata_records(count):
    records = []
    for i in range(count):
        rid = f"r{i:03d}"
        audio = tuple(
            MediaMeta("audio", _TAPS[(j // 5) % 4], _MIC_BANK[j % 5][0],
                      mic_type=_MIC_BANK[j % 5][1], path=f"{rid}_a{j:02d}.wav")
            for j in range(20))
        photos = tuple(
            MediaMeta("photo", ("side", "bottom")[(k // 2) % 2], 1 + (k % 2),
                      photo_content=("side", "bottom")[(k // 2) % 2],
                      path=f"{rid}_v{k:02d}.ppm")
            for k in range(16))
        records.append(PineappleRecord(rid, QualityLabel(i % 4), audio, photos))
    return records


def test_criterion_4_sampling_invariants():
    records = _metadata_records(400)
    pool = [j for j, m in enumerate(records[0].audio) if m.sensor_location == 1]
    assert len(pool) == 8
    totals = []
    for s in (4, 8, 16, 32):
        pairs = sample_corpus_pairs(records, "audio-major", s, seed=7)
        totals.append(sum(len(v) for v in pairs.values()))
        for rec in records:
            counts = np.zeros(20, dtype=int)
            for j, _ in pairs[rec.record_id]:
                counts[j] += 1
            assert counts[[j for j in range(20) if j not in pool]].sum() == 0
            pool_counts = counts[pool]
            assert pool_counts.max() - pool_counts.min() <= 1, (s, rec.record_id)
            if s >= 8:
                assert pool_counts.min() >= 1
        random_total = sum(
            len(v) for v in sample_corpus_pairs(records, "random", s, seed=7).values())
        assert random_total == 400 * s
    assert totals == [1600, 3200, 6400, 12800]
    print("criterion 4 PASS: totals {1600, 3200, 6400, 12800}; audio-major "
          "pool counts balanced within 1; full coverage at S >= 8")


# ---------------------------------------------------------------------------
# criterion 5: accuracy oracle
# ---------------------------------------------------------------------------


def test_criterion_5_accuracy_oracle():
    rng = np.random.default_rng(55)
    for _ in range(100):
        counts = rng.integers(0, 50, size=(4, 4))
        if counts.sum() == 0:
            counts[0, 0] = 1
        got = accuracy(ConfusionMatrix(counts))
        diag = 0
        total = 0
        for i in range(4):
            for j in range(4):
                total += int(counts[i][j])
                if i == j:
                    diag += int(counts[i][j])
        assert got == diag / total
        perm = rng.permutation(4)
        assert accuracy(ConfusionMatrix(counts[np.ix_(perm, perm)])) == got
    print("criterion 5 PASS: 100 random matrices match the diagonal-sum "
          "oracle exactly; permutation invariance holds")


# ---------------------------------------------------------------------------
# criterion 6: loss checks
# ---------------------------------------------------------------------------


def test_criterion_6_loss_checks():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(20):
        logits = rng.normal(size=(12, 4)) * 3.0
        labels = rng.integers(0, 4, size=12)
        got = weighted_smoothed_ce(Tensor(logits), labels, UNIFORM, 0.0).item()
        z = logits - logits.max(axis=1, keepdims=True)
        lp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        want = -lp[np.arange(12), labels].mean()
        worst = max(worst, abs(got - want))
    assert worst < 1e-7

    for _ in range(20):
        counts = rng.integers(1, 60, size=4)
        labels = [label for c, label in zip(counts, QualityLabel)
                  for _ in range(int(c))]
        weights = class_weights(labels)
        total = int(counts.sum())
        for w, c in zip(weights, counts):
            assert isinstance(w, Fraction)
            assert w * int(c) == total  # exact, no float round-off
    print(f"criterion 6 PASS: plain-CE agreement {worst:.1e} (tolerance 1e-7); "
          "w_c * n_c == N exactly for 20 random class profiles")


# ---------------------------------------------------------------------------
# criterion 7: directional reproduction on synthetic data
# ---------------------------------------------------------------------------

# Production depth and width, but four native 16x16 patches merged per
# token so the 20-cell run fits the acceptance-time budget.
_C7_ARCH = CrossModalConfig(audio_tokens=128, audio_patch_dim=1024,
                            visual_tokens=49, visual_patch_dim=3072)
_C7_SEEDS = (0, 1, 2, 3, 4)


@pytest.mark.slow
def test_criterion_7_directional_reproduction(tmp_path):
    started = time.monotonic()
    corpus = generate_synthetic(SyntheticConfig(records=80, seed=0),
                                tmp_path / "c7")

    # The features are decoded once, here; the cells go to the op splitter,
    # on at most two threads (this one among them), which share this store.
    store = FeatureStore(corpus)
    for rec in corpus.records:
        for meta in rec.audio:
            store.audio_map(meta)
        for meta in rec.photos:
            store.image_map(meta)
    grids = (
        (("crossmodal",), ("random", "audio-major")),
        (("crossmodal-audio", "crossmodal-visual"), ("random",)),
    )
    means = {}
    for models, strategies in grids:
        spec = ExperimentSpec(models=models, strategies=strategies,
                              samples_per_record=(8,), seeds=_C7_SEEDS,
                              epochs=10, batch=16)
        result = run_experiment(spec, corpus, store=store,
                                architectures={m: _C7_ARCH for m in models})
        for i in range(0, len(result.cells), len(_C7_SEEDS)):
            group = result.cells[i:i + len(_C7_SEEDS)]  # one model/strategy, by seed
            name = f"{group[0].model}/{group[0].strategy}"
            per_seed = [c.accuracy for c in group]
            means[name] = float(np.mean(per_seed))
            print(f"  {name}: per-seed {['%.3f' % a for a in per_seed]} "
                  f"mean {means[name]:.3f}")

    elapsed = time.monotonic() - started
    fused = means["crossmodal/random"]
    audio_uni = means["crossmodal-audio/random"]
    visual_uni = means["crossmodal-visual/random"]
    major = means["crossmodal/audio-major"]
    assert fused >= audio_uni >= visual_uni, means
    assert all(m >= 0.40 for m in means.values()), means
    assert major >= fused - 0.02, means
    assert elapsed < 1200.0, f"{elapsed:.0f}s exceeds the 20-minute budget"
    print(f"criterion 7 PASS: fused {fused:.3f} >= audio {audio_uni:.3f} >= "
          f"visual {visual_uni:.3f}; all >= 0.40; audio-major {major:.3f} >= "
          f"random - 0.02; {elapsed/60:.1f} min (budget 20)")


# ---------------------------------------------------------------------------
# criterion 8: experiment determinism
# ---------------------------------------------------------------------------


def test_criterion_8_experiment_determinism(tmp_path):
    corpus = generate_synthetic(
        SyntheticConfig(records=8, seed=5, audio_seconds=0.25,
                        image_width=32, image_height=24), tmp_path / "c8")
    spec = ExperimentSpec(models=("cnn-audio",), strategies=("random", "audio-major"),
                          samples_per_record=(2,), seeds=(0, 1), epochs=1,
                          batch=4)
    arch = {"cnn-audio": {"embed_dim": 8, "head_hidden": 6}}
    store = FeatureStore(corpus)
    r1 = run_experiment(spec, corpus, architectures=arch, store=store)
    r2 = run_experiment(spec, corpus, architectures=arch, store=store)
    assert r1.report_text() == r2.report_text()
    assert r1.csv_text() == r2.csv_text()
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    write_outputs(r1, d1)
    write_outputs(r2, d2)
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    print(f"criterion 8 PASS: {len(names)} report files byte-identical "
          "across reruns")


# ---------------------------------------------------------------------------
# criterion 9 (optional, not gating): real-corpus harness
# ---------------------------------------------------------------------------


@pytest.mark.skipif("PQC500_MANIFEST" not in os.environ,
                    reason="set PQC500_MANIFEST to a full-size corpus manifest "
                           "to run the end-to-end harness (optional criterion)")
def test_criterion_9_real_corpus_harness(tmp_path):
    from pineq.cli import main

    manifest = os.environ["PQC500_MANIFEST"]
    rc = main(["experiment", "--corpus", manifest,
               "--model", "crossmodal",
               "--strategy", "random,audio-major,visual-major",
               "--samples-per-record", "4,8,16,32",
               "--seed", "0", "--out", str(tmp_path / "table5")])
    assert rc == 0
    assert (tmp_path / "table5" / "report.txt").exists()
    print("criterion 9 PASS: full sampling-strategy protocol executed "
          "end to end on the supplied corpus")
