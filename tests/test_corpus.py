"""Corpus management tests: manifests, splits, pair sampling, generator."""

from fractions import Fraction

import numpy as np
import pytest

from pineq import audio as audio_mod
from pineq import image as image_mod
from pineq.corpus import (
    CorpusError,
    InfeasibleSampleError,
    MediaMeta,
    PineappleRecord,
    QualityLabel,
    SyntheticConfig,
    allocate_class_counts,
    build_test_pairs,
    class_weights,
    enumerate_pairs,
    generate_synthetic,
    load_corpus,
    sample_corpus_pairs,
    sample_pairs,
    stratified_split,
    write_manifest,
)

# standard per-record view layout used by the synthetic generator:
# soundtrack j -> tap (j//5 cycling side,side,bottom,bottom), mic j%5 from
# two location-1 mics and three location-2 mics; photo k -> camera 1+(k%2),
# content side/bottom by (k//2)%2.
MICS = [
    (1, "unidirectional"),
    (1, "omnidirectional"),
    (2, "unidirectional"),
    (2, "omnidirectional"),
    (2, "omnidirectional"),
]
TAPS = ["side", "side", "bottom", "bottom"]


def make_record(rid="r0", label=QualityLabel.H, j=20, k=16):
    tracks = []
    for ji in range(j):
        loc, mic = MICS[ji % 5]
        tracks.append(MediaMeta(
            modality="audio",
            tapping_surface=TAPS[(ji // 5) % 4],
            sensor_location=loc,
            mic_type=mic,
            path=f"audio/{rid}_a{ji:02d}.wav",
        ))
    photos = []
    for ki in range(k):
        content = ["side", "bottom"][(ki // 2) % 2]
        photos.append(MediaMeta(
            modality="photo",
            tapping_surface=content,
            sensor_location=1 + (ki % 2),
            photo_content=content,
            path=f"photos/{rid}_v{ki:02d}.ppm",
        ))
    return PineappleRecord(rid, label, tuple(tracks), tuple(photos))


def make_records(counts):
    out = []
    for label, n in zip(QualityLabel, counts):
        for i in range(n):
            out.append(make_record(f"{label.name}{i:03d}", label))
    return out


# ---------------------------------------------------------------------------
# labels and metadata
# ---------------------------------------------------------------------------


def test_label_ordering_matches_moisture():
    assert [l.name for l in QualityLabel] == ["H", "SH", "SS", "S"]
    assert QualityLabel.H < QualityLabel.SH < QualityLabel.SS < QualityLabel.S
    assert QualityLabel["SH"].value == 1


def test_media_meta_validation():
    with pytest.raises(CorpusError):
        MediaMeta("video", "side", 1, mic_type="unidirectional", path="x")
    with pytest.raises(CorpusError):
        MediaMeta("audio", "top", 1, mic_type="unidirectional", path="x")
    with pytest.raises(CorpusError):
        MediaMeta("audio", "side", 3, mic_type="unidirectional", path="x")
    with pytest.raises(CorpusError):
        MediaMeta("audio", "side", 1, mic_type="laser", path="x")
    with pytest.raises(CorpusError):
        MediaMeta("photo", "side", 1, photo_content="back", path="x")
    with pytest.raises(CorpusError):  # audio must not carry photo_content
        MediaMeta("audio", "side", 1, mic_type="unidirectional",
                  photo_content="side", path="x")


def test_record_rejects_duplicate_media_paths():
    rec = make_record()
    dup = rec.audio[:19] + (rec.audio[0],)
    with pytest.raises(CorpusError):
        PineappleRecord(rec.record_id, rec.label, dup, rec.photos)


# ---------------------------------------------------------------------------
# class allocation / weights
# ---------------------------------------------------------------------------


def test_allocate_class_counts_largest_remainder():
    assert allocate_class_counts(40, (0.4, 0.3, 0.2, 0.1)) == (16, 12, 8, 4)
    assert allocate_class_counts(500, (0.4, 0.3, 0.2, 0.1)) == (200, 150, 100, 50)
    for n in (1, 7, 23, 99):
        assert sum(allocate_class_counts(n, (0.4, 0.3, 0.2, 0.1))) == n


def test_class_weights_exact_rationals():
    records = make_records([16, 12, 8, 4])
    w = class_weights([r.label for r in records])
    n = 40
    for count, wc in zip([16, 12, 8, 4], w):
        assert wc * count == n  # exact in rational arithmetic
    assert float(w[3]) == 10.0


def test_class_weights_absent_grade_gets_one():
    records = make_records([5, 5, 5, 0])
    w = class_weights([r.label for r in records])
    assert w == [Fraction(3), Fraction(3), Fraction(3), Fraction(1)]
    assert class_weights([QualityLabel.SS]) == [1, 1, 1, 1]  # one record


# ---------------------------------------------------------------------------
# stratified split
# ---------------------------------------------------------------------------


def test_split_counts_and_partition():
    records = make_records([20, 15, 10, 5])
    train, test = stratified_split(records, seed=3)
    assert len(train) == 40 and len(test) == 10
    per_class = {l: 0 for l in QualityLabel}
    for r in train:
        per_class[r.label] += 1
    assert per_class == {QualityLabel.H: 16, QualityLabel.SH: 12,
                         QualityLabel.SS: 8, QualityLabel.S: 4}
    ids = {r.record_id for r in train} | {r.record_id for r in test}
    assert len(ids) == 50
    assert not ({r.record_id for r in train} & {r.record_id for r in test})


def test_split_deterministic_per_seed():
    records = make_records([20, 15, 10, 5])
    a1 = stratified_split(records, seed=7)
    a2 = stratified_split(records, seed=7)
    assert [r.record_id for r in a1[0]] == [r.record_id for r in a2[0]]
    b = stratified_split(records, seed=8)
    assert [r.record_id for r in a1[0]] != [r.record_id for r in b[0]]


# ---------------------------------------------------------------------------
# pair enumeration and sampling
# ---------------------------------------------------------------------------


def test_enumerate_pairs_lexicographic():
    rec = make_record(j=3, k=2)
    assert enumerate_pairs(rec) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def test_random_sampling_basics():
    rec = make_record()
    rng = np.random.default_rng(0)
    pairs = sample_pairs(rec, "random", 32, rng)
    assert len(pairs) == 32
    assert len(set(pairs)) == 32
    assert all(0 <= j < 20 and 0 <= k < 16 for j, k in pairs)
    # determinism per seed
    p1 = sample_pairs(rec, "random", 8, np.random.default_rng(5))
    p2 = sample_pairs(rec, "random", 8, np.random.default_rng(5))
    assert p1 == p2
    p3 = sample_pairs(rec, "random", 8, np.random.default_rng(6))
    assert p1 != p3


def test_random_sampling_infeasible():
    rec = make_record(j=2, k=2)
    with pytest.raises(InfeasibleSampleError):
        sample_pairs(rec, "random", 5, np.random.default_rng(0))


def test_audio_major_uses_location1_pool_with_balanced_counts():
    rec = make_record()
    pool = [j for j, m in enumerate(rec.audio) if m.sensor_location == 1]
    assert len(pool) == 8
    for s in (4, 8, 16, 32):
        pairs = sample_pairs(rec, "audio-major", s, np.random.default_rng(1))
        assert len(pairs) == len(set(pairs)) == s
        used = [j for j, _ in pairs]
        assert set(used) <= set(pool)
        counts = {j: used.count(j) for j in pool}
        lo, hi = s // 8, -(-s // 8)
        assert all(c in (lo, hi) for c in counts.values())
        if s >= 8:
            assert all(c >= 1 for c in counts.values())  # everyone appears
        # distinct visual partners per soundtrack
        for j in pool:
            ks = [k for jj, k in pairs if jj == j]
            assert len(ks) == len(set(ks))


def test_visual_major_uses_location2_photos():
    rec = make_record()
    pool = [k for k, m in enumerate(rec.photos) if m.sensor_location == 2]
    assert len(pool) == 8
    pairs = sample_pairs(rec, "visual-major", 16, np.random.default_rng(2))
    assert len(pairs) == len(set(pairs)) == 16
    assert {k for _, k in pairs} <= set(pool)
    counts = {k: sum(1 for _, kk in pairs if kk == k) for k in pool}
    assert all(c == 2 for c in counts.values())


def test_major_sampling_infeasible_when_pool_exhausted():
    rec = make_record(j=20, k=2)  # audio-major can give at most 8*2 pairs
    with pytest.raises(InfeasibleSampleError):
        sample_pairs(rec, "audio-major", 17, np.random.default_rng(0))


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        sample_pairs(make_record(), "chaotic", 4, np.random.default_rng(0))


def test_sample_corpus_pairs_deterministic_and_id_keyed():
    records = make_records([3, 3, 2, 2])
    a = sample_corpus_pairs(records, "random", 8, seed=11)
    b = sample_corpus_pairs(records, "random", 8, seed=11)
    assert a == b
    assert set(a) == {r.record_id for r in records}
    assert all(len(v) == 8 for v in a.values())


# ---------------------------------------------------------------------------
# fixed test pairs
# ---------------------------------------------------------------------------


def test_build_test_pairs_cross_product():
    rec = make_record()
    pairs = build_test_pairs(rec)
    assert len(pairs) == 16
    audio_idx = sorted({j for j, _ in pairs})
    photo_idx = sorted({k for _, k in pairs})
    assert len(audio_idx) == 4 and len(photo_idx) == 4
    for j in audio_idx:
        assert rec.audio[j].sensor_location == 1
        assert rec.audio[j].tapping_surface == "side"
    for k in photo_idx:
        assert rec.photos[k].sensor_location == 2
        assert rec.photos[k].photo_content == "bottom"
    assert pairs == [(j, k) for j in audio_idx for k in photo_idx]


def test_build_test_pairs_requires_four_of_each():
    rec = make_record(j=5, k=16)  # only one location-1 side soundtrack
    with pytest.raises(CorpusError):
        build_test_pairs(rec)


# ---------------------------------------------------------------------------
# synthetic generator + manifest round trip
# ---------------------------------------------------------------------------


SMALL = dict(records=8, audio_seconds=0.25, image_width=32, image_height=24)


def test_generator_structure_and_loadability(tmp_path):
    cfg = SyntheticConfig(seed=5, **SMALL)
    corpus = generate_synthetic(cfg, tmp_path / "c")
    assert len(corpus.records) == 8
    assert allocate_class_counts(8, cfg.proportions) == tuple(
        sum(1 for r in corpus.records if r.label == l) for l in QualityLabel
    )
    rec = corpus.records[0]
    assert len(rec.audio) == 20 and len(rec.photos) == 16
    assert sum(1 for m in rec.audio if m.sensor_location == 1) == 8
    assert build_test_pairs(rec)  # 4x4 views exist
    # media parse through the real pipelines
    wav = (corpus.root / rec.audio[0].path).read_bytes()
    assert audio_mod.read_wav(wav).ndim == 1  # a 48 kHz capture; other rates raise
    img = image_mod.read_image((corpus.root / rec.photos[0].path).read_bytes())
    assert img.shape[2] == 3
    # the manifest loads back to identical metadata
    loaded = load_corpus(corpus.root / "manifest.txt")
    assert [r.record_id for r in loaded.records] == [r.record_id for r in corpus.records]
    assert loaded.records[3] == corpus.records[3]


def test_generator_is_deterministic(tmp_path):
    cfg = SyntheticConfig(seed=9, **SMALL)
    c1 = generate_synthetic(cfg, tmp_path / "a")
    c2 = generate_synthetic(cfg, tmp_path / "b")
    m1 = (c1.root / "manifest.txt").read_text()
    m2 = (c2.root / "manifest.txt").read_text()
    assert m1 == m2
    for rel in [c1.records[0].audio[0].path, c1.records[-1].photos[-1].path]:
        assert (c1.root / rel).read_bytes() == (c2.root / rel).read_bytes()


def test_generator_seeds_differ(tmp_path):
    c1 = generate_synthetic(SyntheticConfig(seed=1, **SMALL), tmp_path / "a")
    c2 = generate_synthetic(SyntheticConfig(seed=2, **SMALL), tmp_path / "b")
    a = (c1.root / c1.records[0].audio[0].path).read_bytes()
    b = (c2.root / c2.records[0].audio[0].path).read_bytes()
    assert a != b


def test_generator_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(records=0)
    with pytest.raises(ValueError):
        SyntheticConfig(records=4, proportions=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        SyntheticConfig(records=4, audio_separability=1.5)
    with pytest.raises(ValueError):
        SyntheticConfig(records=4, noise=-0.1)
    for seconds in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and over 50 ms"):
            SyntheticConfig(records=4, audio_seconds=seconds)
    with pytest.raises(ValueError, match="proportions"):
        SyntheticConfig(records=4, proportions=(float("nan"), 0.5, 0.25, 0.25))


def test_manifest_loader_errors(tmp_path):
    root = tmp_path
    (root / "audio").mkdir()
    (root / "photos").mkdir()

    def write(lines):
        (root / "m.txt").write_text("\n".join(lines) + "\n")
        return root / "m.txt"

    def touch_media(rid):
        x = np.zeros(100)
        x[10] = 1.0
        (root / f"audio/{rid}.wav").write_bytes(audio_mod.write_wav(x, 48000))
        (root / f"photos/{rid}.ppm").write_bytes(
            image_mod.write_ppm(np.zeros((2, 2, 3)))
        )

    touch_media("x")
    base = [
        "counts 1 1",
        "record x H",
        "audio side 1 unidirectional audio/x.wav",
        "photo bottom 2 bottom photos/x.ppm",
    ]
    assert len(load_corpus(write(base)).records) == 1

    with pytest.raises(CorpusError):  # unknown label token
        load_corpus(write(["counts 1 1", "record x Q",
                           "audio side 1 unidirectional audio/x.wav",
                           "photo bottom 2 bottom photos/x.ppm"]))
    with pytest.raises(CorpusError):  # duplicate record id
        load_corpus(write(base + base[1:]))
    with pytest.raises(CorpusError):  # missing file
        load_corpus(write(["counts 1 1", "record x H",
                           "audio side 1 unidirectional audio/nope.wav",
                           "photo bottom 2 bottom photos/x.ppm"]))
    with pytest.raises(CorpusError):  # count mismatch vs declared J
        load_corpus(write(["counts 2 1", "record x H",
                           "audio side 1 unidirectional audio/x.wav",
                           "photo bottom 2 bottom photos/x.ppm"]))
    with pytest.raises(CorpusError):  # media line before any record
        load_corpus(write(["counts 1 1",
                           "audio side 1 unidirectional audio/x.wav"]))
    with pytest.raises(CorpusError):  # missing counts header
        load_corpus(write(base[1:]))


def test_write_manifest_roundtrip(tmp_path):
    cfg = SyntheticConfig(seed=2, **SMALL)
    corpus = generate_synthetic(cfg, tmp_path / "c")
    text = write_manifest(corpus.records, 20, 16)
    (corpus.root / "again.txt").write_text(text)
    again = load_corpus(corpus.root / "again.txt")
    assert again.records == corpus.records


# ---------------------------------------------------------------------------
# generator calibration: audio separability must actually separate
# ---------------------------------------------------------------------------


def test_linear_probe_on_pooled_mel_reaches_090(tmp_path):
    cfg = SyntheticConfig(records=12, seed=0, audio_seconds=0.6,
                          image_width=16, image_height=12)
    corpus = generate_synthetic(cfg, tmp_path / "c")
    feats, labels = [], []
    for rec in corpus.records:
        for m in rec.audio:
            wav = (corpus.root / m.path).read_bytes()
            mel = audio_mod.preprocess_audio(wav)
            feats.append(mel.mean(axis=0))
            labels.append(int(rec.label))
    x = np.column_stack([np.asarray(feats), np.ones(len(feats))])
    y = np.eye(4)[labels]
    w, *_ = np.linalg.lstsq(x, y, rcond=None)
    acc = ((x @ w).argmax(axis=1) == np.asarray(labels)).mean()
    assert acc >= 0.9, f"audio probe accuracy {acc:.3f}"
