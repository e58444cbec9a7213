"""Corpus management: records, manifests, splits, pair sampling, synthesis.

A *record* is one graded pineapple.  Each record carries ``J`` tap
soundtracks (two tapping surfaces crossed with a small bank of
microphones at two capture locations) and ``K`` photos (two cameras,
each shooting the side and bottom surfaces).  Grades run from hard to
soft::

    H < SH < SS < S        (ordinal 0..3, hardest to softest)

A corpus lives in a directory with a plain-text ``manifest.txt`` next to
the media files.  The manifest names every record, its grade, and the
capture tags of every media file, so downstream stages never have to
infer anything from file names.

Training examples are (soundtrack, photo) *pairs*.  Three sampling
strategies are provided:

``random``
    uniform without replacement over the full J x K cross product.
``audio-major``
    spread pairs evenly across the location-1 soundtracks (the clean,
    close-mic captures); each selected soundtrack gets distinct photo
    partners.
``visual-major``
    the mirror image, spreading over location-2 photos.

Held-out evaluation always uses the fixed 4 x 4 cross product of the
first four location-1 side-tap soundtracks and the first four
location-2 bottom photos, so test inputs are the cleanest views and
identical across runs.

:func:`generate_synthetic` fabricates a corpus with real WAV/PPM files
whose class signal strength is controlled by separability knobs, which
makes desk-scale end-to-end runs possible without instrument data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .audio import CAPTURE_RATE, write_wav
from .image import write_ppm

__all__ = [
    "CorpusError",
    "InfeasibleSampleError",
    "QualityLabel",
    "N_CLASSES",
    "MediaMeta",
    "PineappleRecord",
    "Corpus",
    "allocate_class_counts",
    "class_weights",
    "stratified_split",
    "enumerate_pairs",
    "sample_pairs",
    "sample_corpus_pairs",
    "build_test_pairs",
    "write_manifest",
    "load_corpus",
    "SyntheticConfig",
    "generate_synthetic",
]


class CorpusError(Exception):
    """Structurally invalid corpus data (manifest, metadata, or files)."""


class InfeasibleSampleError(CorpusError):
    """Requested more distinct pairs than the strategy's pool can give."""


class QualityLabel(IntEnum):
    """Shelf-life grade, ordered from hardest (freshest) to softest."""

    H = 0
    SH = 1
    SS = 2
    S = 3


N_CLASSES = len(QualityLabel)

_SURFACES = ("side", "bottom")
_MIC_TYPES = ("unidirectional", "omnidirectional")


@dataclass(frozen=True)
class MediaMeta:
    """Capture tags plus the corpus-relative path of one media file."""

    modality: str
    tapping_surface: str
    sensor_location: int
    mic_type: str | None = None
    photo_content: str | None = None
    path: str = ""

    def __post_init__(self) -> None:
        if self.modality not in ("audio", "photo"):
            raise CorpusError(f"unknown modality {self.modality!r}")
        if self.tapping_surface not in _SURFACES:
            raise CorpusError(f"unknown tapping surface {self.tapping_surface!r}")
        if self.sensor_location not in (1, 2):
            raise CorpusError(f"sensor location must be 1 or 2, got {self.sensor_location!r}")
        if self.modality == "audio":
            if self.mic_type not in _MIC_TYPES:
                raise CorpusError(f"audio needs a mic type, got {self.mic_type!r}")
            if self.photo_content is not None:
                raise CorpusError("audio metadata cannot carry photo content")
        else:
            if self.photo_content not in _SURFACES:
                raise CorpusError(f"photo needs side/bottom content, got {self.photo_content!r}")
            if self.mic_type is not None:
                raise CorpusError("photo metadata cannot carry a mic type")
        if not self.path:
            raise CorpusError("media entry needs a relative path")


@dataclass(frozen=True)
class PineappleRecord:
    """One graded fruit with its soundtracks and photos."""

    record_id: str
    label: QualityLabel
    audio: Tuple[MediaMeta, ...]
    photos: Tuple[MediaMeta, ...]

    def __post_init__(self) -> None:
        if not self.record_id or " " in self.record_id:
            raise CorpusError(f"bad record id {self.record_id!r}")
        for m in self.audio:
            if m.modality != "audio":
                raise CorpusError(f"{self.record_id}: non-audio entry in audio list")
        for m in self.photos:
            if m.modality != "photo":
                raise CorpusError(f"{self.record_id}: non-photo entry in photo list")
        paths = [m.path for m in self.audio + self.photos]
        if len(set(paths)) != len(paths):
            raise CorpusError(f"{self.record_id}: duplicate media paths")


@dataclass(frozen=True)
class Corpus:
    """A loaded corpus: resolved root directory plus ordered records."""

    root: Path
    records: Tuple[PineappleRecord, ...]
    soundtracks_per_record: int
    photos_per_record: int

    def media_path(self, meta: MediaMeta) -> Path:
        return self.root / meta.path

    def decode_media(self, meta: MediaMeta, decode: Callable[[bytes], np.ndarray]):
        """``decode`` the media file's bytes; its errors name the file."""
        data = self.media_path(meta).read_bytes()
        try:
            return decode(data)
        except ValueError as exc:
            raise type(exc)(f"{meta.path}: {exc}") from exc


# ---------------------------------------------------------------------------
# class bookkeeping
# ---------------------------------------------------------------------------


def allocate_class_counts(n: int, proportions: Sequence[float]) -> Tuple[int, ...]:
    """Split ``n`` into per-class counts by largest-remainder rounding."""
    if n < 1:
        raise ValueError("need at least one record")
    quotas = [n * p for p in proportions]
    counts = [int(math.floor(q + 1e-9)) for q in quotas]
    order = sorted(range(len(quotas)), key=lambda i: (counts[i] - quotas[i], i))
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return tuple(counts)


def class_weights(labels: Sequence[QualityLabel]) -> List[Fraction]:
    """Inverse-frequency weights ``w_c = N / n_c`` as exact rationals.

    Kept rational so that ``w_c * n_c == N`` holds exactly; convert to
    float only where the numbers enter a loss. A grade with no label gets
    weight 1, which no loss reads, since no example carries that grade.
    """
    counts = [0] * len(QualityLabel)
    for lab in labels:
        counts[int(lab)] += 1
    total = len(labels)
    return [Fraction(total, c) if c else Fraction(1) for c in counts]


def stratified_split(
    records: Sequence[PineappleRecord],
    seed: int,
) -> Tuple[List[PineappleRecord], List[PineappleRecord]]:
    """Deterministic 4:1 per-grade split preserving class proportions.

    Each grade is shuffled with a generator seeded by ``seed`` and the
    first ``round(0.8 * n_c)`` records go to the train side.
    Record order within each side follows the original corpus order.
    """
    rng = np.random.default_rng(seed)
    train_idx: List[int] = []
    test_idx: List[int] = []
    for label in QualityLabel:
        idxs = [i for i, r in enumerate(records) if r.label == label]
        if not idxs:
            continue
        take = int(math.floor(0.8 * len(idxs) + 0.5))
        perm = rng.permutation(len(idxs))
        chosen = {idxs[p] for p in perm[:take]}
        train_idx.extend(sorted(chosen))
        test_idx.extend(sorted(set(idxs) - chosen))
    train_idx.sort()
    test_idx.sort()
    return [records[i] for i in train_idx], [records[i] for i in test_idx]


# ---------------------------------------------------------------------------
# pair enumeration and sampling
# ---------------------------------------------------------------------------


def enumerate_pairs(record: PineappleRecord) -> List[Tuple[int, int]]:
    """All (soundtrack, photo) index pairs in lexicographic order."""
    return [
        (j, k)
        for j in range(len(record.audio))
        for k in range(len(record.photos))
    ]


def _spread_over_pool(
    pool: Sequence[int],
    partner_count: int,
    total: int,
    rng: np.random.Generator,
    pool_is_audio: bool,
) -> List[Tuple[int, int]]:
    members = len(pool)
    if members == 0 or total > members * partner_count:
        raise InfeasibleSampleError(
            f"cannot draw {total} distinct pairs from a pool of "
            f"{members} views with {partner_count} partners each"
        )
    base, extra = divmod(total, members)
    bonus = set(rng.permutation(members)[:extra].tolist())
    pairs: List[Tuple[int, int]] = []
    for rank, member in enumerate(pool):
        want = base + (1 if rank in bonus else 0)
        if want == 0:
            continue
        partners = rng.choice(partner_count, size=want, replace=False)
        for other in partners.tolist():
            pairs.append((member, other) if pool_is_audio else (other, member))
    return pairs


def sample_pairs(
    record: PineappleRecord,
    strategy: str,
    count: int,
    rng: np.random.Generator,
) -> List[Tuple[int, int]]:
    """Draw ``count`` distinct (soundtrack, photo) pairs for one record."""
    if count < 1:
        raise InfeasibleSampleError("need at least one pair per record")
    j_n, k_n = len(record.audio), len(record.photos)
    if strategy == "random":
        if count > j_n * k_n:
            raise InfeasibleSampleError(
                f"{count} pairs requested but only {j_n * k_n} exist"
            )
        flat = rng.choice(j_n * k_n, size=count, replace=False)
        return [(int(f) // k_n, int(f) % k_n) for f in flat]
    if strategy == "audio-major":
        pool = [j for j, m in enumerate(record.audio) if m.sensor_location == 1]
        return _spread_over_pool(pool, k_n, count, rng, pool_is_audio=True)
    if strategy == "visual-major":
        pool = [k for k, m in enumerate(record.photos) if m.sensor_location == 2]
        return _spread_over_pool(pool, j_n, count, rng, pool_is_audio=False)
    raise ValueError(f"unknown sampling strategy {strategy!r}")


def sample_corpus_pairs(
    records: Sequence[PineappleRecord],
    strategy: str,
    count: int,
    seed: int,
) -> Dict[str, List[Tuple[int, int]]]:
    """Sample pairs for every record with per-record derived seeds."""
    out: Dict[str, List[Tuple[int, int]]] = {}
    for idx, rec in enumerate(records):
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        out[rec.record_id] = sample_pairs(rec, strategy, count, rng)
    return out


def build_test_pairs(record: PineappleRecord) -> List[Tuple[int, int]]:
    """The fixed 4 x 4 evaluation grid of cleanest views.

    Crosses the first four location-1 side-tap soundtracks with the
    first four location-2 bottom photos.
    """
    aud = [
        j
        for j, m in enumerate(record.audio)
        if m.sensor_location == 1 and m.tapping_surface == "side"
    ][:4]
    pho = [
        k
        for k, m in enumerate(record.photos)
        if m.sensor_location == 2 and m.photo_content == "bottom"
    ][:4]
    if len(aud) < 4 or len(pho) < 4:
        raise CorpusError(
            f"{record.record_id}: need 4 location-1 side soundtracks and "
            f"4 location-2 bottom photos, found {len(aud)} and {len(pho)}"
        )
    return [(j, k) for j in aud for k in pho]


# ---------------------------------------------------------------------------
# manifest text format
# ---------------------------------------------------------------------------
#
#   # comment
#   counts <J> <K>
#   record <id> <grade>
#   audio <tapping_surface> <location> <mic_type> <relative_path>
#   photo <tapping_surface> <location> <content> <relative_path>
#
# Media lines attach to the most recent record line.


def write_manifest(
    records: Sequence[PineappleRecord],
    soundtracks_per_record: int,
    photos_per_record: int,
) -> str:
    """Render records as manifest text (see the format comment above)."""
    lines = [
        "# pineq corpus manifest",
        f"counts {soundtracks_per_record} {photos_per_record}",
    ]
    for rec in records:
        lines.append(f"record {rec.record_id} {rec.label.name}")
        for m in rec.audio:
            lines.append(
                f"audio {m.tapping_surface} {m.sensor_location} {m.mic_type} {m.path}"
            )
        for m in rec.photos:
            lines.append(
                f"photo {m.tapping_surface} {m.sensor_location} {m.photo_content} {m.path}"
            )
    return "\n".join(lines) + "\n"


def load_corpus(manifest_path: str | Path) -> Corpus:
    """Parse and validate a manifest; media files must exist on disk."""
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    try:
        text = manifest_path.read_text()
    except OSError as exc:
        raise CorpusError(f"cannot read manifest: {exc}") from exc

    declared: Tuple[int, int] | None = None
    records: List[PineappleRecord] = []
    seen_ids: set[str] = set()
    cur_id: str | None = None
    cur_label: QualityLabel | None = None
    cur_audio: List[MediaMeta] = []
    cur_photos: List[MediaMeta] = []

    def fail(lineno: int, msg: str) -> None:
        raise CorpusError(f"{manifest_path.name}:{lineno}: {msg}")

    def flush(lineno: int) -> None:
        if cur_id is None:
            return
        assert declared is not None and cur_label is not None
        if len(cur_audio) != declared[0] or len(cur_photos) != declared[1]:
            fail(
                lineno,
                f"record {cur_id} has {len(cur_audio)} soundtracks and "
                f"{len(cur_photos)} photos, manifest declares "
                f"{declared[0]} and {declared[1]}",
            )
        records.append(
            PineappleRecord(cur_id, cur_label, tuple(cur_audio), tuple(cur_photos))
        )

    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "counts":
            if declared is not None:
                fail(lineno, "duplicate counts line")
            if len(tokens) != 3 or not all(t.isdigit() for t in tokens[1:]):
                fail(lineno, "counts line must be 'counts <J> <K>'")
            declared = (int(tokens[1]), int(tokens[2]))
            if min(declared) < 1:
                fail(lineno, "counts must be positive")
        elif kind == "record":
            if declared is None:
                fail(lineno, "counts line must precede records")
            if len(tokens) != 3:
                fail(lineno, "record line must be 'record <id> <grade>'")
            flush(lineno)
            rid, grade = tokens[1], tokens[2]
            if rid in seen_ids:
                fail(lineno, f"duplicate record id {rid!r}")
            if grade not in QualityLabel.__members__:
                fail(lineno, f"unknown grade {grade!r}")
            seen_ids.add(rid)
            cur_id, cur_label = rid, QualityLabel[grade]
            cur_audio, cur_photos = [], []
        elif kind in ("audio", "photo"):
            if cur_id is None:
                fail(lineno, "media line before any record")
            if len(tokens) != 5:
                fail(lineno, f"{kind} line needs 4 fields after the keyword")
            _, surface, loc, detail, rel = tokens
            if not loc.isdigit():
                fail(lineno, f"sensor location must be an integer, got {loc!r}")
            try:
                meta = MediaMeta(
                    modality=kind,
                    tapping_surface=surface,
                    sensor_location=int(loc),
                    mic_type=detail if kind == "audio" else None,
                    photo_content=detail if kind == "photo" else None,
                    path=rel,
                )
            except CorpusError as exc:
                fail(lineno, str(exc))
            if not (root / rel).is_file():
                fail(lineno, f"media file missing: {rel}")
            (cur_audio if kind == "audio" else cur_photos).append(meta)
        else:
            fail(lineno, f"unknown line kind {kind!r}")

    if declared is None:
        raise CorpusError(f"{manifest_path.name}: missing counts line")
    flush(lineno + 1)
    if not records:
        raise CorpusError(f"{manifest_path.name}: no records")
    return Corpus(root, tuple(records), declared[0], declared[1])


# ---------------------------------------------------------------------------
# synthetic corpus generation
# ---------------------------------------------------------------------------

# per-soundtrack mic bank, cycled by j % 5: two close (location-1) mics
# and three far (location-2) mics; taps cycle side,side,bottom,bottom.
_MIC_BANK = (
    (1, "unidirectional"),
    (1, "omnidirectional"),
    (2, "unidirectional"),
    (2, "omnidirectional"),
    (2, "omnidirectional"),
)
_TAP_CYCLE = ("side", "side", "bottom", "bottom")
# photo k: camera 1 + k % 2 , content side/bottom by (k // 2) % 2
_PHOTO_CONTENT = ("side", "bottom")
# views per synthetic record; the cycles above give build_test_pairs its 4
# location-1 side soundtracks (j = 0, 1, 5, 6) and 4 location-2 bottom
# photos (k = 3, 7, 11, 15) from 7 soundtracks and 16 photos on
SYNTHETIC_SOUNDTRACKS = 20
SYNTHETIC_PHOTOS = 16


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for :func:`generate_synthetic`.

    Every record has the paper's fixed layout of ``SYNTHETIC_SOUNDTRACKS``
    (20) soundtracks and ``SYNTHETIC_PHOTOS`` (16) photos.
    ``audio_separability`` / ``visual_separability`` blend each record's
    per-modality latent ripeness between its grade target (1.0: grades
    are perfectly separated) and uniform noise (0.0: no class signal).
    ``noise`` scales additive sensor noise in both modalities; far mics
    and omnidirectional mics pick up proportionally more of it, as do
    side photos relative to bottom photos.
    """

    records: int
    proportions: Tuple[float, ...] = (0.4, 0.3, 0.2, 0.1)
    audio_separability: float = 0.9
    visual_separability: float = 0.5
    noise: float = 0.2
    seed: int = 0
    audio_seconds: float = 1.0
    image_width: int = 80
    image_height: int = 60

    def __post_init__(self) -> None:
        if self.records < 1:
            raise ValueError("need at least one record")
        if len(self.proportions) != len(QualityLabel):
            raise ValueError("need one proportion per grade")
        if not all(p >= 0 for p in self.proportions) or abs(sum(self.proportions) - 1) > 1e-6:
            raise ValueError("proportions must be non-negative and sum to 1")
        for name in ("audio_separability", "visual_separability", "noise"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not 0.05 < self.audio_seconds < math.inf:  # NaN fails too
            raise ValueError(f"soundtracks must be finite and over 50 ms, got {self.audio_seconds}")
        if self.image_width < 2 or self.image_height < 2:
            raise ValueError("images must be at least 2x2")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _synth_soundtrack(
    rng: np.random.Generator,
    ripeness: float,
    cfg: SyntheticConfig,
    location: int,
    mic_type: str,
) -> np.ndarray:
    """A damped tap resonance whose pitch and ring track ripeness.

    Riper (softer) fruit rings lower and decays faster.  Location-2 and
    omnidirectional captures carry extra noise.
    """
    n = int(round(cfg.audio_seconds * CAPTURE_RATE))
    t = np.arange(n) / CAPTURE_RATE
    onset = 0.4 * cfg.audio_seconds
    f0 = 250.0 + 420.0 * ripeness + rng.normal(0.0, 2.0)
    tau = max(0.008, 0.02 + 0.13 * (1.0 - ripeness) + 0.004 * rng.normal())
    rel = t - onset
    env = np.where(rel >= 0.0, np.exp(-np.maximum(rel, 0.0) / tau), 0.0)
    x = np.zeros(n)
    for harmonic, amp in ((1, 1.0), (2, 0.55), (3, 0.3)):
        x += amp * np.sin(2.0 * np.pi * harmonic * f0 * rel)
    x *= env
    sigma = 0.35 * cfg.noise
    if location == 2:
        sigma *= 1.5
    if mic_type == "omnidirectional":
        sigma *= 1.3
    if sigma > 0.0:
        x += sigma * rng.standard_normal(n)
    return 0.9 * x / np.abs(x).max()


def _synth_photo(
    rng: np.random.Generator,
    ripeness: float,
    cfg: SyntheticConfig,
    content: str,
) -> np.ndarray:
    """A flat fruit color that shifts with ripeness, plus dark blotches.

    Bottom shots are steadier than side shots (less latent jitter and
    less pixel noise), mirroring how much cleaner the bottom view is.
    """
    h, w = cfg.image_height, cfg.image_width
    jitter = 0.05 if content == "bottom" else 0.15
    local = float(np.clip(ripeness + jitter * rng.normal(), 0.0, 1.0))
    base = np.array([0.85 - 0.55 * local, 0.60 + 0.20 * local, 0.15 + 0.05 * local])
    img = np.tile(base, (h, w, 1))
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(int(round(8 * local))):
        cy, cx = rng.random() * h, rng.random() * w
        radius = (0.05 + 0.10 * rng.random()) * min(h, w)
        img[(yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius] *= 0.55
    sigma = 0.3 * cfg.noise * (0.75 if content == "bottom" else 1.5)
    if sigma > 0.0:
        img += sigma * rng.standard_normal((h, w, 3))
    return np.clip(img, 0.0, 1.0)


def generate_synthetic(cfg: SyntheticConfig, out_dir: str | Path) -> Corpus:
    """Write a synthetic corpus (WAV + PPM + manifest) under ``out_dir``.

    Fully deterministic for a given config: every record draws from its
    own generator seeded by ``(cfg.seed, record_index)``.
    """
    root = Path(out_dir)
    (root / "audio").mkdir(parents=True, exist_ok=True)
    (root / "photos").mkdir(parents=True, exist_ok=True)
    counts = allocate_class_counts(cfg.records, cfg.proportions)
    labels = [
        label for label, n in zip(QualityLabel, counts) for _ in range(n)
    ]
    width = max(4, len(str(cfg.records - 1)))
    records: List[PineappleRecord] = []
    for idx, label in enumerate(labels):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, idx]))
        rid = f"p{idx:0{width}d}"
        grade = label.value / (len(QualityLabel) - 1)
        ripe_a = cfg.audio_separability * grade + (1 - cfg.audio_separability) * rng.random()
        ripe_v = cfg.visual_separability * grade + (1 - cfg.visual_separability) * rng.random()

        tracks: List[MediaMeta] = []
        for j in range(SYNTHETIC_SOUNDTRACKS):
            loc, mic = _MIC_BANK[j % len(_MIC_BANK)]
            rel = f"audio/{rid}_a{j:02d}.wav"
            wave = _synth_soundtrack(rng, ripe_a, cfg, loc, mic)
            (root / rel).write_bytes(write_wav(wave, CAPTURE_RATE))
            tracks.append(MediaMeta(
                modality="audio",
                tapping_surface=_TAP_CYCLE[(j // 5) % len(_TAP_CYCLE)],
                sensor_location=loc,
                mic_type=mic,
                path=rel,
            ))

        photos: List[MediaMeta] = []
        for k in range(SYNTHETIC_PHOTOS):
            content = _PHOTO_CONTENT[(k // 2) % 2]
            rel = f"photos/{rid}_v{k:02d}.ppm"
            img = _synth_photo(rng, ripe_v, cfg, content)
            (root / rel).write_bytes(write_ppm(img))
            photos.append(MediaMeta(
                modality="photo",
                tapping_surface=content,
                sensor_location=1 + (k % 2),
                photo_content=content,
                path=rel,
            ))

        records.append(PineappleRecord(rid, label, tuple(tracks), tuple(photos)))

    manifest = write_manifest(records, SYNTHETIC_SOUNDTRACKS, SYNTHETIC_PHOTOS)
    (root / "manifest.txt").write_text(manifest)
    return Corpus(root, tuple(records), SYNTHETIC_SOUNDTRACKS, SYNTHETIC_PHOTOS)
