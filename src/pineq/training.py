"""Supervised training, evaluation, and report generation.

This module connects the preprocessing front ends to the classifiers:

* :class:`FeatureStore` lazily turns each corpus media file into one cached
  model-ready array: a standardized Mel map or a channel-first image.  A
  batch stacks each distinct file once, so models encode every soundtrack
  and photo of a batch once however many pairs share it.
* :func:`weighted_smoothed_ce` is the training objective — class-weighted
  cross-entropy against label-smoothed targets.
* :data:`MODELS` names every model this code trains, and each name is
  the only description of its model: ``cnn-audio`` and ``cnn-visual`` are
  the single-stream CNNs, ``ensemble`` their late fusion, ``crossmodal``
  the fused token encoder, and ``crossmodal-audio``/``crossmodal-visual``
  that encoder read through one stream.
* :func:`train` runs seeded mini-batch optimization (optionally preceded by
  masked-reconstruction pretraining for the token encoder) and returns the
  model plus a per-epoch loss trace; the result is a pure function of the
  (records, pairs, config) triple.
* :func:`evaluate` scores frozen models into a :class:`ConfusionMatrix`,
  and :func:`format_report` / :func:`format_csv` render result tables with
  stable, byte-identical output.

Mel features are standardized here, at the boundary between preprocessing
and models, with fixed constants measured on the synthetic generator's
output distribution; images arrive already standardized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .audio import MEL_BANDS, MEL_FRAMES, preprocess_audio
from .autodiff import Adam, Tensor, log_softmax, no_grad
from .corpus import (
    N_CLASSES,
    Corpus,
    MediaMeta,
    PineappleRecord,
    QualityLabel,
    class_weights,
)
from .image import TARGET_SIZE, preprocess_image
from .models import (
    CnnClassifier,
    CrossModalConfig,
    CrossModalEncoder,
    EnsembleModel,
    MaePretrainer,
    patchify_audio,
    patchify_image,
)
from .nn import Module

# Fixed standardization for log-Mel features (mean ~-2.1, std ~3.9 over the
# default synthetic corpus; rounded so the constants are not corpus-bound).
AUDIO_FEATURE_MEAN = -2.0
AUDIO_FEATURE_SCALE = 4.0

MODALITIES = ("audio", "visual")
# every model name -> the input streams its model reads
MODELS: Dict[str, Tuple[str, ...]] = {
    "cnn-audio": ("audio",),
    "cnn-visual": ("visual",),
    "ensemble": MODALITIES,
    "crossmodal": MODALITIES,
    "crossmodal-audio": ("audio",),
    "crossmodal-visual": ("visual",),
}


# ---------------------------------------------------------------------------
# feature store
# ---------------------------------------------------------------------------


class FeatureStore:
    """Lazy cache of one model-ready array per media file of a corpus.

    The first access runs the full preprocessing chain and memoizes the
    result by media path, so repeated epochs and repeated experiment cells
    over the same corpus pay the DSP cost once. Tokens are computed per call.
    Training and evaluation read it through :func:`_stack`, one array per
    distinct path of a batch. Parallel experiment cells share one store
    from their threads, and it keeps one array per path.
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self._cache: Dict[str, np.ndarray] = {}

    def _get(self, meta: MediaMeta, decode, finish) -> np.ndarray:
        hit = self._cache.get(meta.path)
        if hit is None:
            # two threads that decode one file at once both get the array
            # that the first of them stored
            hit = self._cache.setdefault(
                meta.path, finish(self.corpus.decode_media(meta, decode)))
        return hit

    def audio_map(self, meta: MediaMeta) -> np.ndarray:
        """Standardized (1024, 128) float32 log-Mel map."""
        return self._get(meta, preprocess_audio, lambda mel: (
            (mel - AUDIO_FEATURE_MEAN) / AUDIO_FEATURE_SCALE).astype(np.float32))

    def audio_tokens(self, meta: MediaMeta) -> np.ndarray:
        """(512, 256) float32 patch tokens of the standardized Mel map."""
        return patchify_audio(self.audio_map(meta))

    def image_map(self, meta: MediaMeta) -> np.ndarray:
        """Channel-first (3, 224, 224) float32 standardized image."""
        return self._get(meta, preprocess_image,
                         lambda img: np.ascontiguousarray(img.transpose(2, 0, 1)))

    def image_tokens(self, meta: MediaMeta) -> np.ndarray:
        """(196, 768) float32 patch tokens of the standardized image."""
        return patchify_image(self.image_map(meta).transpose(1, 2, 0))


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def weighted_smoothed_ce(logits: Tensor, labels: np.ndarray,
                         weights: Sequence[float], smoothing: float) -> Tensor:
    """Class-weighted cross-entropy against label-smoothed targets.

    Targets are ``(1 - eps) * onehot + eps / 4``; per-sample losses are
    weighted by the label's class weight and normalized by the sum of the
    weights that actually occur in the batch, so the scale is invariant to
    batch composition.
    """
    labels = np.asarray(labels)
    if logits.data.ndim != 2 or logits.data.shape[1] != N_CLASSES:
        raise ValueError(f"logits must be (B, {N_CLASSES}), got {logits.data.shape}")
    if labels.shape != (logits.data.shape[0],):
        raise ValueError("labels must be a vector matching the batch size")
    if labels.size and (labels.min() < 0 or labels.max() >= N_CLASSES):
        raise ValueError("label out of range")
    if not 0.0 <= smoothing < 1.0:
        raise ValueError("smoothing must lie in [0, 1)")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (N_CLASSES,) or not np.all(w > 0):
        raise ValueError(f"weights must be {N_CLASSES} positive reals")

    b = labels.shape[0]
    target = np.full((b, N_CLASSES), smoothing / N_CLASSES)
    target[np.arange(b), labels] += 1.0 - smoothing
    sample_w = w[labels]
    # loss = sum_b w_b * <target_b, -log_softmax(logit_b)> / sum_b w_b
    coeff = -target * sample_w[:, None] / sample_w.sum()
    lp = log_softmax(logits, axis=-1)
    return (lp * Tensor(coeff.astype(lp.data.dtype))).sum()


# ---------------------------------------------------------------------------
# confusion matrix + accuracy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionMatrix:
    """4x4 integer counts; rows are actual grades, columns predictions."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (N_CLASSES, N_CLASSES):
            raise ValueError(f"counts must be {N_CLASSES}x{N_CLASSES}")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("counts must be integers")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts.astype(np.int64))

    @classmethod
    def empty(cls) -> "ConfusionMatrix":
        return cls(np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.counts + other.counts)

    def row_normalized(self) -> np.ndarray:
        """Rows rescaled to sum to 1; all-zero rows stay zero."""
        counts = self.counts.astype(np.float64)
        sums = counts.sum(axis=1, keepdims=True)
        return np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)


def accuracy(m: ConfusionMatrix) -> float:
    """Trace over total count."""
    if m.total == 0:
        raise ValueError("cannot compute accuracy of an empty matrix")
    return float(np.trace(m.counts)) / m.total


# ---------------------------------------------------------------------------
# training configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for one training run; ``model`` is a :data:`MODELS` name."""

    model: str = "crossmodal"
    epochs: int = 10
    batch: int = 16
    lr: float = 1e-3
    smoothing: float = 0.1
    seed: int = 0
    pretrain_steps: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; "
                             f"choose from {', '.join(MODELS)}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if not 0 < self.lr < np.inf:  # NaN fails too
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.smoothing < 1.0:
            raise ValueError("smoothing must lie in [0, 1)")
        if self.pretrain_steps < 0:
            raise ValueError("pretrain_steps must be >= 0")
        if self.pretrain_steps and not self.model.startswith("crossmodal"):
            raise ValueError(f"pretraining applies only to crossmodal kinds, not {self.model}")


@dataclass
class TrainResult:
    model: Module
    losses: List[float]
    pretrain_losses: List[float]
    config: TrainConfig
    architecture: object


Example = Tuple[PineappleRecord, int, int]


def _collect_examples(records: Sequence[PineappleRecord],
                      pairs_by_id: Mapping[str, Iterable[Tuple[int, int]]]) -> List[Example]:
    examples: List[Example] = []
    for rec in records:
        for j, k in pairs_by_id.get(rec.record_id, ()):
            examples.append((rec, j, k))
    return examples


def build_model(cfg: TrainConfig, rng: np.random.Generator,
                architecture=None) -> Module:
    """Instantiate the model named by ``cfg`` with seeded weights.

    ``architecture`` holds keyword overrides; the crossmodal models also
    take a ready ``CrossModalConfig``.  Overrides that are not a mapping
    raise ``TypeError``.
    """
    if cfg.model.startswith("crossmodal"):
        if not isinstance(architecture, CrossModalConfig):
            architecture = CrossModalConfig(**(architecture or {}))
        return CrossModalEncoder(architecture, rng)
    arch = dict(architecture or {})
    if cfg.model == "ensemble":
        return EnsembleModel(rng, **arch)
    if MODELS[cfg.model] == ("audio",):
        return CnnClassifier(rng, 1, (MEL_FRAMES, MEL_BANDS), **arch)
    return CnnClassifier(rng, 3, (TARGET_SIZE, TARGET_SIZE), **arch)


def trainable_parameters(model: Module, cfg: TrainConfig) -> List[Tensor]:
    """Parameters the supervised loss can reach.

    A single-stream run through the token encoder never touches the other
    stream's projection/position/type/block weights (named after their
    stream), so those are left out of the optimizer.
    """
    unread = tuple(m for m in MODALITIES if m not in MODELS[cfg.model])
    return [p for name, p in model.named_parameters().items()
            if not name.startswith(unread)]


def _stack(store: FeatureStore, chunk: Sequence[Example],
           stream: str) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The cached arrays of one stream of a batch and each example's row in them.

    Each distinct media path is stacked once, in order of first appearance,
    so the models run their single-stream stages once per file.  When no
    path repeats, the rows are the examples and the index is ``None``.
    """
    if stream == "audio":
        metas = [r.audio[j] for r, j, _ in chunk]
        fetch = store.audio_map
    else:
        metas = [r.photos[k] for r, _, k in chunk]
        fetch = store.image_map
    distinct = {meta.path: meta for meta in metas}  # keys in first-appearance order
    stack = np.stack([fetch(meta) for meta in distinct.values()])
    if len(distinct) == len(metas):
        return stack, None
    row = {path: i for i, path in enumerate(distinct)}
    return stack, np.array([row[meta.path] for meta in metas], dtype=np.intp)


def _forward(model: Module, cfg: TrainConfig, store: FeatureStore,
             chunk: Sequence[Example]) -> Tensor:
    """Logits for one batch of (record, soundtrack, photo) examples."""
    stacks, index = {}, {}
    for stream in MODELS[cfg.model]:
        stacks[stream], index[stream] = _stack(store, chunk, stream)
    # popped into the call, so no local holds a stack and the model can drop
    # it once it has its own view
    return model.logits(stacks.pop("audio", None), stacks.pop("visual", None),
                        index.get("audio"), index.get("visual"))


def _step(opt: Adam, loss: Tensor, step: int, phase: str) -> float:
    """One optimizer step on ``loss``; a non-finite loss stops the fit first."""
    value = loss.item()
    if not np.isfinite(value):
        raise ValueError(f"{phase} diverged: loss {value} at step {step}")
    loss.backward()
    opt.step()
    return value


def _pretrain(model: CrossModalEncoder, cfg: TrainConfig, store: FeatureStore,
              examples: Sequence[Example], init_rng: np.random.Generator,
              mask_rng: np.random.Generator) -> List[float]:
    """Masked-reconstruction + alignment warm-up of the encoder trunk."""
    pre = MaePretrainer(model, init_rng)
    opt = Adam(pre.pretrain_parameters(), lr=cfg.lr)
    shuffle = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3]))
    losses: List[float] = []
    n = len(examples)
    while len(losses) < cfg.pretrain_steps:
        order = shuffle.permutation(n)
        for start in range(0, n, cfg.batch):
            if len(losses) >= cfg.pretrain_steps:
                break
            chunk = [examples[i] for i in order[start:start + cfg.batch]]
            mel, audio_index = _stack(store, chunk, "audio")
            image, visual_index = _stack(store, chunk, "visual")
            a, v = model.patch_tokens(mel, image)  # once per distinct file
            del mel, image  # only token copies stay alive through the step
            mask = pre.sample_mask(mask_rng, len(chunk))
            loss, _ = pre.loss(Tensor(a), Tensor(v), mask, audio_index, visual_index)
            losses.append(_step(opt, loss, len(losses) + 1, "pretraining"))
    return losses


def train(store: FeatureStore, records: Sequence[PineappleRecord],
          pairs_by_id: Mapping[str, Iterable[Tuple[int, int]]],
          cfg: TrainConfig, architecture=None) -> TrainResult:
    """Mini-batch optimization of the smoothed weighted cross-entropy.

    Deterministic per seed: model initialization, pretraining masks, and
    epoch shuffles all derive from ``cfg.seed`` through separate streams.
    Class weights are the inverse example frequencies over the training
    set (``corpus.class_weights``). Returns the trained model and per-epoch
    weighted mean losses. A non-finite step loss raises ``ValueError`` naming the step.
    """
    examples = _collect_examples(records, pairs_by_id)
    if not examples:
        raise ValueError("training set is empty")
    labels = np.array([int(rec.label) for rec, _, _ in examples])
    weights = np.array([float(w) for w in class_weights(labels)])

    init_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    mask_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    model = build_model(cfg, init_rng, architecture)

    pretrain_losses: List[float] = []
    if cfg.pretrain_steps:
        pretrain_losses = _pretrain(model, cfg, store, examples,
                                    init_rng, mask_rng)

    opt = Adam(trainable_parameters(model, cfg), lr=cfg.lr)
    n = len(examples)
    epoch_losses: List[float] = []
    step = 0
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        num = 0.0
        den = 0.0
        for start in range(0, n, cfg.batch):
            idx = order[start:start + cfg.batch]
            chunk = [examples[i] for i in idx]
            logits = _forward(model, cfg, store, chunk)
            loss = weighted_smoothed_ce(logits, labels[idx], weights,
                                        cfg.smoothing)
            step += 1
            value = _step(opt, loss, step, "training")
            wsum = float(weights[labels[idx]].sum())
            num += value * wsum
            den += wsum
        epoch_losses.append(num / den)
    return TrainResult(model, epoch_losses, pretrain_losses, cfg, architecture)


def evaluate(model: Module, cfg: TrainConfig, store: FeatureStore,
             records: Sequence[PineappleRecord],
             pairs_by_id: Mapping[str, Iterable[Tuple[int, int]]],
             batch: int = 32) -> ConfusionMatrix:
    """Score a frozen model; argmax prediction, lowest index on ties."""
    examples = _collect_examples(records, pairs_by_id)
    if not examples:
        raise ValueError("evaluation set is empty")
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for start in range(0, len(examples), batch):
        chunk = examples[start:start + batch]
        with no_grad():  # forward only: no graph holds the intermediates
            logits = _forward(model, cfg, store, chunk).data
        preds = np.argmax(logits, axis=1)
        for (rec, _, _), pred in zip(chunk, preds):
            counts[int(rec.label), int(pred)] += 1
    return ConfusionMatrix(counts)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    model: str
    strategy: str
    samples: int
    accuracy: float
    seed: Optional[int] = None


_GRADE_NAMES = tuple(label.name for label in QualityLabel)


def format_report(rows: Sequence[ReportRow],
                  matrices: Sequence[Tuple[str, ConfusionMatrix]] = (),
                  header: Sequence[str] = ()) -> str:
    """Aligned text tables; identical inputs yield byte-identical output."""
    lines: List[str] = [f"# {h}" for h in header]
    with_seed = any(r.seed is not None for r in rows)
    cols = ["Model", "Strategy", "Samples"] + (["Seed"] if with_seed else []) \
        + ["Accuracy"]
    table = [cols]
    for r in rows:
        cells = [r.model, r.strategy, str(r.samples)]
        if with_seed:
            cells.append("" if r.seed is None else str(r.seed))
        cells.append(f"{r.accuracy:.2f}")
        table.append(cells)
    widths = [max(len(row[i]) for row in table) for i in range(len(cols))]
    for row in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    for title, matrix in matrices:
        lines.append("")
        lines.append(f"Confusion matrix ({title}), rows actual / columns predicted:")
        rn = matrix.row_normalized()
        for name, row in zip(_GRADE_NAMES, rn):
            lines.append(f"  {name:<2} " + " ".join(f"{v:.2f}" for v in row))
    return "\n".join(lines) + "\n"


def format_csv(rows: Sequence[ReportRow]) -> str:
    """Machine-readable rows; empty seed column for aggregated rows."""
    lines = ["model,strategy,samples,seed,accuracy"]
    for r in rows:
        seed = "" if r.seed is None else str(r.seed)
        lines.append(f"{r.model},{r.strategy},{r.samples},{seed},{r.accuracy:.6f}")
    return "\n".join(lines) + "\n"


def format_loss_trace(losses: Sequence[float]) -> str:
    lines = ["epoch,loss"]
    for i, loss in enumerate(losses, start=1):
        lines.append(f"{i},{loss:.6f}")
    return "\n".join(lines) + "\n"
