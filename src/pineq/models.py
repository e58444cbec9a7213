"""Classifier architectures over (soundtrack, photo) feature pairs.

Two families share the same 4-way grading head:

* :class:`EnsembleModel` — one small CNN per modality; the two
  128-dimensional embeddings are concatenated into an MLP head.
* :class:`CrossModalEncoder` — both inputs are cut into 16x16 patches,
  projected to a shared token width, tagged with positional and
  modality embeddings, passed through per-modality transformer blocks,
  and fused by joint blocks that attend across the concatenated token
  sequence.  The same trunk also classifies a single modality
  (:meth:`CrossModalEncoder.unimodal_tokens`), which is how its
  audio-only and visual-only baselines are run.

Every classifier, :class:`CnnClassifier` too, reads a batch through
``logits(mel, image, audio_index, visual_index)``: the stacked Mel maps
and images (``None`` for an unread stream), turned into the model's own
input view, plus each example's row in each stack.  A batch of pairs
usually repeats its soundtracks and photos, so the stacks hold each
media file once: every stage that reads one stream runs on those
distinct rows, and :func:`~pineq.autodiff.take` gathers them into
aligned pairs at the first stage that mixes the streams (the fusion
head, the joint blocks) or, for a single-stream model, at the logits.
An index of ``None``, the default, means the rows already are the pairs,
as they are in a stream of a batch that repeats no media file.

:class:`MaePretrainer` adds self-supervised pretraining on unlabeled
pairs: mask most tokens after the per-modality blocks, reconstruct the
raw patches of the masked positions, and pull matched (audio, visual)
pairs together with a symmetric InfoNCE term.  Its loss takes the same
distinct token stacks and indices, and pairs the rows where the streams
meet: the joint input, the contrastive rows and the reconstruction targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    concat,
    conv2d,
    log_softmax,
    matmul,
    maxpool2d,
    narrow,
    softmax,
    take,
)
from .corpus import N_CLASSES
from .nn import LayerNorm, Linear, Module, TransformerBlock

__all__ = [
    "PATCH_SIZE",
    "patchify_audio",
    "patchify_image",
    "CnnBackbone",
    "MlpHead",
    "CnnClassifier",
    "EnsembleModel",
    "CrossModalConfig",
    "CrossModalEncoder",
    "mask_indices",
    "MaePretrainer",
    "contrastive_loss",
]

PATCH_SIZE = 16


def _patchify(x: np.ndarray, names: Tuple[str, str]) -> np.ndarray:
    """Cut an (H, W, C) map into (H/16 * W/16, 256 * C) patch rows, W
    fastest, channels innermost; a leading batch axis is carried through.
    ``names`` label H and W in the error for an extent 16 does not divide."""
    single = x.ndim == 3
    if single:
        x = x[None]
    b, h, w, c = x.shape
    for name, extent in zip(names, (h, w)):
        if extent % PATCH_SIZE != 0:
            raise ShapeError(f"{name} extent {extent} not divisible by patch size {PATCH_SIZE}")
    p = PATCH_SIZE
    tok = (
        x.reshape(b, h // p, p, w // p, p, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(b, (h // p) * (w // p), p * p * c)
    )
    return tok[0] if single else tok


def patchify_audio(mel: np.ndarray) -> np.ndarray:
    """Cut a (T, F) Mel map, a one-channel image, into (T/16 * F/16, 256)
    patch rows: frequency fastest, then time.  A leading batch axis is
    carried through."""
    return _patchify(np.asarray(mel)[..., None], ("time", "frequency"))


def patchify_image(img: np.ndarray) -> np.ndarray:
    """Cut an (H, W, 3) image into (H/16 * W/16, 768) patch rows.  A
    leading batch axis is carried through."""
    img = np.asarray(img)
    if img.shape[-1] != 3:
        raise ShapeError(f"expected 3 channels, got {img.shape[-1]}")
    return _patchify(img, ("height", "width"))


def _regroup(tokens: np.ndarray, n_tokens: int, patch_dim: int) -> np.ndarray:
    """Adapt (B, T, D) tokens to a model expecting (n_tokens, patch_dim).

    When the model is configured with fewer, wider tokens than the native
    patch grid, runs of consecutive patches are merged into one token —
    the values are untouched, only the grouping changes.
    """
    b, t, d = tokens.shape
    if t * d != n_tokens * patch_dim or t % n_tokens:
        raise ShapeError(
            f"cannot regroup {t}x{d} patch tokens into {n_tokens}x{patch_dim}")
    return tokens.reshape(b, n_tokens, patch_dim)


def _rows(x: Tensor, index) -> Tensor:
    """Rows ``index`` of ``x``; ``None`` keeps every row as it is."""
    return x if index is None else take(x, index)


def _paired(a: Tensor, v: Tensor, audio_index, visual_index) -> Tensor:
    """Per-stream rows gathered into aligned pairs, joined along axis 1."""
    a, v = _rows(a, audio_index), _rows(v, visual_index)
    if a.data.shape[0] != v.data.shape[0]:
        raise ShapeError(f"{a.data.shape[0]} audio rows cannot pair with "
                         f"{v.data.shape[0]} visual rows")
    return concat([a, v], axis=1)


# ---------------------------------------------------------------------------
# CNN family
# ---------------------------------------------------------------------------


class CnnBackbone(Module):
    """Three conv/pool stages then a linear projection to an embedding.

    Convolutions are bias-free (stride 1, same padding, rectified) and
    each stage halves both spatial extents, so a zero input maps to the
    projection bias exactly.
    """

    _STAGES = ((8, 5), (16, 3), (32, 3))

    def __init__(self, in_channels: int, in_hw: Tuple[int, int], embed_dim: int,
                 rng: np.random.Generator):
        h, w = in_hw
        self.convs: List[Tensor] = []
        self._kernels: Tuple[int, ...] = tuple(k for _, k in self._STAGES)
        c_prev = in_channels
        for c_out, k in self._STAGES:
            scale = math.sqrt(2.0 / (c_prev * k * k))
            self.convs.append(Tensor(
                rng.normal(0.0, scale, size=(c_out, c_prev, k, k)).astype(np.float32),
                requires_grad=True,
            ))
            c_prev = c_out
            h //= 2
            w //= 2
            if h < 1 or w < 1:
                raise ShapeError(f"input {in_hw} too small for three pooling stages")
        self.flat_dim = c_prev * h * w
        self.proj = Linear(self.flat_dim, embed_dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        for wt, k in zip(self.convs, self._kernels):
            # pooling first rectifies a quarter of the values; the rectifier is
            # monotone, so the result and its gradients are the same bits
            x = maxpool2d(conv2d(x, wt, padding=k // 2), 2).relu()
        return self.proj(x.reshape(x.data.shape[0], self.flat_dim))


class MlpHead(Module):
    """Two-layer rectifier MLP ending in grade logits."""

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator):
        self.fc1 = Linear(in_dim, hidden, rng)
        self.out = Linear(hidden, N_CLASSES, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.out(self.fc1(x).relu())


class CnnClassifier(Module):
    """Single-modality baseline: CNN backbone feeding the grading head."""

    def __init__(self, rng: np.random.Generator, in_channels: int,
                 in_hw: Tuple[int, int], embed_dim: int = 128,
                 head_hidden: int = 64):
        self.backbone = CnnBackbone(in_channels, in_hw, embed_dim, rng)
        self.head = MlpHead(embed_dim, head_hidden, rng)

    def forward(self, x: np.ndarray | Tensor, index=None) -> Tensor:
        """(N, C, H, W) feature maps -> (N, classes) logits, or the rows
        ``index`` of them."""
        xt = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))
        return _rows(self.head(self.backbone(xt)), index)

    def logits(self, mel: np.ndarray | None, image: np.ndarray | None,
               audio_index=None, visual_index=None) -> Tensor:
        """(B, classes) logits of the one stream given, the other ``None``."""
        if mel is None:
            return self.forward(image, visual_index)
        return self.forward(mel[:, None], audio_index)


class EnsembleModel(Module):
    """Per-modality CNN embeddings concatenated into a shared MLP head."""

    def __init__(self, rng: np.random.Generator, mel_shape: Tuple[int, int] = (1024, 128),
                 image_hw: Tuple[int, int] = (224, 224), embed_dim: int = 128,
                 head_hidden: int = 64):
        self.audio_net = CnnBackbone(1, mel_shape, embed_dim, rng)
        self.visual_net = CnnBackbone(3, image_hw, embed_dim, rng)
        self.head = MlpHead(2 * embed_dim, head_hidden, rng)

    def forward(self, mel: np.ndarray | Tensor, image: np.ndarray | Tensor,
                audio_index=None, visual_index=None) -> Tensor:
        """``mel``: (Na, T, F); ``image``: (Nv, 3, H, W) -> (B, classes)
        logits of the pairs (``mel[audio_index[i]]``, ``image[visual_index[i]]``);
        without indices the rows pair up as they are."""
        mt = mel if isinstance(mel, Tensor) else Tensor(np.asarray(mel, dtype=np.float32))
        it = image if isinstance(image, Tensor) else Tensor(np.asarray(image, dtype=np.float32))
        n, t, f = mt.data.shape
        a = self.audio_net(mt.reshape(n, 1, t, f))
        v = self.visual_net(it)
        return self.head(_paired(a, v, audio_index, visual_index))

    def logits(self, mel: np.ndarray, image: np.ndarray,
               audio_index=None, visual_index=None) -> Tensor:
        """(B, classes) logits of both streams, which ``forward`` takes as they are."""
        return self.forward(mel, image, audio_index, visual_index)


# ---------------------------------------------------------------------------
# cross-modal transformer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossModalConfig:
    """Shape and depth of the token encoder.

    Defaults fit the production feature geometry: a (1024, 128) Mel map
    gives 512 audio tokens of 256 values, a (224, 224, 3) photo gives
    196 tokens of 768 values, and both are projected to 64-wide tokens.
    """

    token_dim: int = 64
    heads: int = 2
    modality_blocks: int = 1
    joint_blocks: int = 2
    mlp_ratio: int = 2
    head_hidden: int = 64
    audio_tokens: int = 512
    audio_patch_dim: int = 256
    visual_tokens: int = 196
    visual_patch_dim: int = 768

    def __post_init__(self) -> None:
        for name in ("token_dim", "heads", "modality_blocks", "joint_blocks",
                     "mlp_ratio", "head_hidden", "audio_tokens", "audio_patch_dim",
                     "visual_tokens", "visual_patch_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.token_dim % self.heads != 0:
            raise ShapeError(f"token dim {self.token_dim} not divisible by {self.heads} heads")


class CrossModalEncoder(Module):
    """Patch-token transformer fusing tap audio and photos.

    Each modality gets its own projection, positional table, modality
    embedding, and `modality_blocks` transformer blocks; the token
    sequences are then concatenated and refined by ``joint_blocks``
    shared blocks whose attention spans both modalities.  Mean-pooled
    tokens feed the grading head.  ``unimodal_forward`` runs one
    modality through its own blocks and the same joint trunk, which is
    how single-modality baselines share weights with the fused model.
    """

    def __init__(self, cfg: CrossModalConfig, rng: np.random.Generator):
        c = cfg.token_dim
        self.cfg = cfg
        self.audio_proj = Linear(cfg.audio_patch_dim, c, rng)
        self.visual_proj = Linear(cfg.visual_patch_dim, c, rng)
        self.audio_pos = Tensor(
            rng.normal(0.0, 0.02, size=(cfg.audio_tokens, c)).astype(np.float32),
            requires_grad=True)
        self.visual_pos = Tensor(
            rng.normal(0.0, 0.02, size=(cfg.visual_tokens, c)).astype(np.float32),
            requires_grad=True)
        self.audio_type = Tensor(
            rng.normal(0.0, 0.02, size=(c,)).astype(np.float32), requires_grad=True)
        self.visual_type = Tensor(
            rng.normal(0.0, 0.02, size=(c,)).astype(np.float32), requires_grad=True)
        self.audio_blocks = [
            TransformerBlock(c, cfg.heads, rng, cfg.mlp_ratio)
            for _ in range(cfg.modality_blocks)
        ]
        self.visual_blocks = [
            TransformerBlock(c, cfg.heads, rng, cfg.mlp_ratio)
            for _ in range(cfg.modality_blocks)
        ]
        self.joint_blocks = [
            TransformerBlock(c, cfg.heads, rng, cfg.mlp_ratio)
            for _ in range(cfg.joint_blocks)
        ]
        self.final_ln = LayerNorm(c)
        self.head = MlpHead(c, cfg.head_hidden, rng)

    def _check_tokens(self, tok: Tensor, n: int, dim: int, what: str) -> None:
        shape = tok.data.shape
        if len(shape) != 3 or shape[1] != n or shape[2] != dim:
            raise ShapeError(f"{what} tokens must be (B, {n}, {dim}), got {shape}")

    def encode_audio(self, tok: Tensor) -> Tensor:
        self._check_tokens(tok, self.cfg.audio_tokens, self.cfg.audio_patch_dim, "audio")
        x = self.audio_proj(tok) + self.audio_pos + self.audio_type
        for blk in self.audio_blocks:
            x = blk(x)
        return x

    def encode_visual(self, tok: Tensor) -> Tensor:
        self._check_tokens(tok, self.cfg.visual_tokens, self.cfg.visual_patch_dim, "visual")
        x = self.visual_proj(tok) + self.visual_pos + self.visual_type
        for blk in self.visual_blocks:
            x = blk(x)
        return x

    def _pool(self, x: Tensor) -> Tensor:
        for blk in self.joint_blocks:
            x = blk(x)
        return self.final_ln(x).mean(axis=1)

    def _fused(self, audio_tok: Tensor, visual_tok: Tensor,
               audio_index, visual_index) -> Tensor:
        """Pooled joint representation: each stream encoded once per row of
        its token batch, then gathered into pairs for the joint blocks."""
        a = self.encode_audio(audio_tok)
        v = self.encode_visual(visual_tok)
        return self._pool(_paired(a, v, audio_index, visual_index))

    def forward_tokens(self, audio_tok: Tensor, visual_tok: Tensor,
                       audio_index=None, visual_index=None) -> Tensor:
        """Fused (B, classes) logits of the pairs (``audio_tok[audio_index[i]]``,
        ``visual_tok[visual_index[i]]``); without indices the rows pair up."""
        return self.head(self._fused(audio_tok, visual_tok, audio_index, visual_index))

    def forward(self, audio_tok: Tensor, visual_tok: Tensor) -> Tuple[Tensor, Tensor]:
        """(joint representation (B, token_dim), grade probabilities (B, classes))."""
        rep = self._fused(audio_tok, visual_tok, None, None)
        return rep, softmax(self.head(rep), axis=-1)

    def unimodal_tokens(self, tok: Tensor, modality: str, index=None) -> Tensor:
        """Single-stream (N, classes) logits through the shared trunk, or
        the rows ``index`` of them."""
        if modality == "audio":
            x = self.encode_audio(tok)
        elif modality == "visual":
            x = self.encode_visual(tok)
        else:
            raise ValueError(f"unknown modality {modality!r}")
        return _rows(self.head(self._pool(x)), index)

    def unimodal_forward(self, tok: Tensor, modality: str) -> Tensor:
        """Single-stream grade probabilities."""
        return softmax(self.unimodal_tokens(tok, modality), axis=-1)

    def patch_tokens(self, mel: np.ndarray | None, image: np.ndarray | None):
        """(B, T, F) Mel maps and (B, 3, H, W) images as the token batches
        this encoder's config expects; ``None`` passes through."""
        cfg = self.cfg
        audio = visual = None
        if mel is not None:
            audio = _regroup(patchify_audio(mel), cfg.audio_tokens, cfg.audio_patch_dim)
        if image is not None:
            visual = _regroup(patchify_image(image.transpose(0, 2, 3, 1)),
                              cfg.visual_tokens, cfg.visual_patch_dim)
        return audio, visual

    def logits(self, mel: np.ndarray | None, image: np.ndarray | None,
               audio_index=None, visual_index=None) -> Tensor:
        """(B, classes) logits: fused when both streams are given, else
        single-stream through the shared trunk."""
        audio, visual = self.patch_tokens(mel, image)
        del mel, image  # only the token copies stay alive through the forward pass
        if visual is None:
            return self.unimodal_tokens(Tensor(audio), "audio", audio_index)
        if audio is None:
            return self.unimodal_tokens(Tensor(visual), "visual", visual_index)
        return self.forward_tokens(Tensor(audio), Tensor(visual), audio_index, visual_index)


# ---------------------------------------------------------------------------
# self-supervised pretraining
# ---------------------------------------------------------------------------


def mask_indices(rng: np.random.Generator, n_tokens: int, ratio: float) -> np.ndarray:
    """Choose ``ceil(ratio * n_tokens)`` distinct positions to mask."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"mask ratio must be in (0, 1], got {ratio}")
    count = int(math.ceil(ratio * n_tokens))
    return np.sort(rng.permutation(n_tokens)[:count])


def contrastive_loss(a: Tensor, v: Tensor, temperature: float = 0.07) -> Tensor:
    """Symmetric InfoNCE over matched (audio, visual) embedding rows.

    Rows are L2-normalized, all-pairs cosine similarities are divided by
    ``temperature``, and the loss averages cross-entropy along rows and
    columns with the diagonal as the target.  A single pair gives
    exactly zero.
    """
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if a.data.shape != v.data.shape or a.data.ndim != 2:
        raise ShapeError(f"need matching (B, D) embeddings, got {a.data.shape} and {v.data.shape}")
    b = a.data.shape[0]

    def unit(t: Tensor) -> Tensor:
        return t / ((t * t).sum(axis=1, keepdims=True) + 1e-12).sqrt()

    logits = matmul(unit(a), unit(v).transpose(1, 0)) * (1.0 / temperature)
    eye = Tensor(np.eye(b, dtype=logits.data.dtype))
    rows = (log_softmax(logits, axis=1) * eye).sum()
    cols = (log_softmax(logits, axis=0) * eye).sum()
    return (rows + cols) * (-0.5 / b)


class MaePretrainer(Module):
    """Masked-token reconstruction plus a contrastive alignment term.

    Tokens are masked *after* the per-modality blocks: masked positions
    are replaced by a learned mask token, the joint blocks run over the
    corrupted sequence, and a light decoder (shared trunk, per-modality
    output projections) reconstructs raw patch values.  The mean squared
    error counts masked positions only.  Matched-pair embeddings for the
    contrastive term are mean-pooled per modality before masking.
    """

    mask_ratio = 0.75          # share of the N tokens masked per sample
    temperature = 0.07         # InfoNCE temperature of the alignment term
    contrastive_weight = 0.1   # alignment term's weight beside reconstruction

    def __init__(self, encoder: CrossModalEncoder, rng: np.random.Generator):
        cfg = encoder.cfg
        c = cfg.token_dim
        self.encoder = encoder
        self.mask_token = Tensor(
            rng.normal(0.0, 0.02, size=(c,)).astype(np.float32), requires_grad=True)
        self.dec_ln = LayerNorm(c)
        self.dec_fc = Linear(c, c, rng)
        self.dec_audio = Linear(c, cfg.audio_patch_dim, rng)
        self.dec_visual = Linear(c, cfg.visual_patch_dim, rng)

    def pretrain_parameters(self) -> List[Tensor]:
        """All parameters the pretraining loss reaches.

        Excludes the encoder's classification head and its pooling norm,
        which see no gradient from reconstruction or alignment.
        """
        return [
            p for name, p in self.named_parameters().items()
            if ".head." not in name and ".final_ln." not in name
        ]

    def sample_mask(self, rng: np.random.Generator, batch: int) -> np.ndarray:
        """One boolean (batch, N) mask row per sample."""
        cfg = self.encoder.cfg
        n = cfg.audio_tokens + cfg.visual_tokens
        mask = np.zeros((batch, n), dtype=bool)
        for row in range(batch):
            mask[row, mask_indices(rng, n, self.mask_ratio)] = True
        return mask

    def loss(self, audio_tok: Tensor, visual_tok: Tensor, mask: np.ndarray,
             audio_index=None, visual_index=None) -> Tuple[Tensor, Dict[str, float]]:
        """Loss of the pairs (``audio_tok[audio_index[i]]``,
        ``visual_tok[visual_index[i]]``), one ``mask`` row per pair; without
        indices the rows pair up.  Each token row is encoded once."""
        enc = self.encoder
        cfg = enc.cfg
        na, nv = cfg.audio_tokens, cfg.visual_tokens
        batch = audio_tok.data.shape[0] if audio_index is None else len(audio_index)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (batch, na + nv):
            raise ShapeError(f"mask must be ({batch}, {na + nv}), got {mask.shape}")
        masked_values = int(mask[:, :na].sum()) * cfg.audio_patch_dim \
            + int(mask[:, na:].sum()) * cfg.visual_patch_dim
        if masked_values == 0:
            raise ValueError("mask selects no tokens")

        a = enc.encode_audio(audio_tok)
        v = enc.encode_visual(visual_tok)
        align = contrastive_loss(_rows(a.mean(axis=1), audio_index),
                                 _rows(v.mean(axis=1), visual_index), self.temperature)

        x = _paired(a, v, audio_index, visual_index)
        dtype = x.data.dtype
        m = Tensor(mask[..., None].astype(dtype))
        x = x * (1.0 - m) + self.mask_token * m
        for blk in enc.joint_blocks:
            x = blk(x)
        h = self.dec_fc(self.dec_ln(x)).relu()
        rec_a = self.dec_audio(narrow(h, 1, 0, na))
        rec_v = self.dec_visual(narrow(h, 1, na, nv))

        ma = Tensor(mask[:, :na, None].astype(dtype))
        mv = Tensor(mask[:, na:, None].astype(dtype))
        da = (rec_a - _rows(audio_tok, audio_index)) * ma
        dv = (rec_v - _rows(visual_tok, visual_index)) * mv
        recon = ((da * da).sum() + (dv * dv).sum()) * (1.0 / masked_values)
        total = recon + self.contrastive_weight * align
        parts = {
            "reconstruction": float(recon.data),
            "contrastive": float(align.data),
            "masked_values": masked_values,
        }
        return total, parts
