"""Independent float64 references the benchmark checks the program against.

The benchmark's own checks compare the program with itself (a cold store
against a warm one, a rerun against its first run), which cannot catch
an operation that is wrong but finite and deterministic.  This module
recomputes the same quantities without the program's tensor code:

* ``crossmodal_logits``, ``ensemble_logits``, ``mae_loss`` and
  ``smoothed_ce`` are plain numpy float64 forward passes over a model's
  ``state_dict``;
* ``gradient_failures`` compares the program's gradients with central
  differences of the float64 loss, along the program's own gradient and
  along a random direction;
* ``adam_failures`` replays two ``Adam`` steps;
* ``dsp_failures`` compares ``preprocess_audio``/``preprocess_image`` on a
  fixed tap and a fixed photo with block means stored in ``golden.json``,
  recorded from the code as it stood when the benchmark was added.

    python3 perfbench/reference.py --write-golden   # re-record golden.json
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden.json"
LN_EPS = 1e-5
ADAM = dict(beta1=0.9, beta2=0.999, eps=1e-8)
# Relative tolerances: float32 program against float64 reference.
LOGIT_RTOL = 1e-3
GRAD_RTOL = 1e-2
FD_STEP = 1e-6
DSP_RTOL = 1e-3

Params = Dict[str, np.ndarray]


def as_float64(state: Params) -> Params:
    return {k: np.asarray(v, dtype=np.float64) for k, v in state.items()}


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


def linear(p: Params, name: str, x: np.ndarray) -> np.ndarray:
    return x @ p[f"{name}.weight"] + p[f"{name}.bias"]


def layer_norm(p: Params, name: str, x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * p[f"{name}.gamma"] + p[f"{name}.beta"]


def log_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def attention(p: Params, name: str, x: np.ndarray, heads: int) -> np.ndarray:
    b, n, c = x.shape
    dh = c // heads

    def split(t):
        return t.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    q = split(linear(p, f"{name}.wq", x)) / math.sqrt(dh)
    k = split(linear(p, f"{name}.wk", x))
    v = split(linear(p, f"{name}.wv", x))
    weights = np.exp(log_softmax(q @ k.transpose(0, 1, 3, 2), axis=-1))
    y = (weights @ v).transpose(0, 2, 1, 3).reshape(b, n, c)
    return linear(p, f"{name}.wo", y)


def block(p: Params, name: str, x: np.ndarray, heads: int) -> np.ndarray:
    x = x + attention(p, f"{name}.attn", layer_norm(p, f"{name}.ln1", x), heads)
    hidden = np.maximum(linear(p, f"{name}.fc1", layer_norm(p, f"{name}.ln2", x)), 0.0)
    return x + linear(p, f"{name}.fc2", hidden)


def conv2d_same(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1 cross-correlation with ``k // 2`` zero padding."""
    k = w.shape[-1]
    xp = np.pad(x, ((0, 0), (0, 0), (k // 2, k // 2), (k // 2, k // 2)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return np.einsum("bchwij,ocij->bohw", win, w, optimize=True)


def maxpool2(x: np.ndarray) -> np.ndarray:
    b, c, h, w = x.shape
    x = x[:, :, :h - h % 2, :w - w % 2]
    return x.reshape(b, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


# ---------------------------------------------------------------------------
# models and losses
# ---------------------------------------------------------------------------


def _mlp_head(p: Params, x: np.ndarray) -> np.ndarray:
    return linear(p, "head.out", np.maximum(linear(p, "head.fc1", x), 0.0))


def _encode(p: Params, cfg, tok: np.ndarray, modality: str) -> np.ndarray:
    x = linear(p, f"{modality}_proj", tok) + p[f"{modality}_pos"] + p[f"{modality}_type"]
    for i in range(cfg.modality_blocks):
        x = block(p, f"{modality}_blocks.{i}", x, cfg.heads)
    return x


def _joint(p: Params, cfg, x: np.ndarray) -> np.ndarray:
    for i in range(cfg.joint_blocks):
        x = block(p, f"joint_blocks.{i}", x, cfg.heads)
    return x


def crossmodal_logits(p: Params, cfg, audio_tok: np.ndarray,
                      visual_tok: np.ndarray) -> np.ndarray:
    """``CrossModalEncoder.forward_tokens``: (B, classes) logits."""
    x = np.concatenate([_encode(p, cfg, audio_tok, "audio"),
                        _encode(p, cfg, visual_tok, "visual")], axis=1)
    return _mlp_head(p, layer_norm(p, "final_ln", _joint(p, cfg, x)).mean(axis=1))


def ensemble_logits(p: Params, mel: np.ndarray, image: np.ndarray) -> np.ndarray:
    """``EnsembleModel.forward``: (B, T, F) Mel maps, (B, 3, H, W) photos."""
    def backbone(name, x):
        i = 0
        while f"{name}.convs.{i}" in p:
            x = maxpool2(np.maximum(conv2d_same(x, p[f"{name}.convs.{i}"]), 0.0))
            i += 1
        return linear(p, f"{name}.proj", x.reshape(x.shape[0], -1))

    a = backbone("audio_net", mel[:, None])
    v = backbone("visual_net", image)
    return _mlp_head(p, np.concatenate([a, v], axis=1))


def smoothed_ce(logits: np.ndarray, labels: np.ndarray, weights: Sequence[float],
                smoothing: float) -> float:
    """``training.weighted_smoothed_ce``."""
    b, classes = logits.shape
    target = np.full((b, classes), smoothing / classes)
    target[np.arange(b), labels] += 1.0 - smoothing
    sample_w = np.asarray(weights, dtype=np.float64)[labels]
    per_sample = -(target * log_softmax(logits, axis=1)).sum(axis=1)
    return float((sample_w * per_sample).sum() / sample_w.sum())


def contrastive(a: np.ndarray, v: np.ndarray, temperature: float) -> float:
    def unit(t):
        return t / np.sqrt((t * t).sum(axis=1, keepdims=True) + 1e-12)

    logits = unit(a) @ unit(v).T / temperature
    diag = np.arange(a.shape[0])
    rows = log_softmax(logits, axis=1)[diag, diag].sum()
    cols = log_softmax(logits, axis=0)[diag, diag].sum()
    return float(-(rows + cols) / (2 * a.shape[0]))


def mae_loss(p: Params, cfg, audio_tok: np.ndarray, visual_tok: np.ndarray,
             mask: np.ndarray, temperature: float, contrastive_weight: float) -> float:
    """``MaePretrainer.loss`` total; ``p`` holds the pretrainer's parameters
    with the encoder's under ``encoder.``."""
    enc = {k[len("encoder."):]: v for k, v in p.items() if k.startswith("encoder.")}
    na = cfg.audio_tokens
    a = _encode(enc, cfg, audio_tok, "audio")
    v = _encode(enc, cfg, visual_tok, "visual")
    align = contrastive(a.mean(axis=1), v.mean(axis=1), temperature)
    m = mask[..., None].astype(np.float64)
    x = np.concatenate([a, v], axis=1) * (1.0 - m) + p["mask_token"] * m
    h = np.maximum(linear(p, "dec_fc", layer_norm(p, "dec_ln", _joint(enc, cfg, x))), 0.0)
    da = (linear(p, "dec_audio", h[:, :na]) - audio_tok) * m[:, :na]
    dv = (linear(p, "dec_visual", h[:, na:]) - visual_tok) * m[:, na:]
    masked = mask[:, :na].sum() * cfg.audio_patch_dim + mask[:, na:].sum() * cfg.visual_patch_dim
    recon = ((da * da).sum() + (dv * dv).sum()) / masked
    return float(recon + contrastive_weight * align)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def close(program: np.ndarray, reference: np.ndarray, rtol: float) -> bool:
    """Within ``rtol`` of the reference's largest magnitude."""
    program = np.asarray(program, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    scale = max(1.0, float(np.abs(reference).max()))
    return program.shape == reference.shape and bool(
        np.all(np.abs(program - reference) <= rtol * scale))


def gradient_failures(what: str, loss_fn: Callable[[Params], float], params: Params,
                      grads: Dict[str, np.ndarray], names: Sequence[str],
                      rng: np.random.Generator) -> List[str]:
    """Central differences of the float64 ``loss_fn`` along two unit directions
    per named parameter: the program's gradient ``grads[name]``, and a random
    one.  Each must match the program's directional derivative."""
    failures = []
    for name in names:
        g = np.asarray(grads[name], dtype=np.float64)
        norm = float(np.linalg.norm(g))
        rand = rng.standard_normal(g.shape)
        for label, d in (("along its gradient", g / norm if norm else g),
                         ("along a random direction", rand / np.linalg.norm(rand))):
            base = params[name]
            params[name] = base + FD_STEP * d
            up = loss_fn(params)
            params[name] = base - FD_STEP * d
            down = loss_fn(params)
            params[name] = base
            fd = (up - down) / (2 * FD_STEP)
            analytic = float((g * d).sum())
            if not abs(fd - analytic) <= GRAD_RTOL * norm + 1e-9:
                failures.append(f"{what}: gradient of {name} {label} is {analytic:.6g}, "
                                f"central difference {fd:.6g}")
    return failures


def adam_failures(adam_cls, rng: np.random.Generator) -> List[str]:
    """Two ``Adam`` steps on a small float32 tensor against the update rule."""
    from pineq.autodiff import Tensor

    lr = 3e-3
    start = rng.standard_normal((16, 8)).astype(np.float32)
    grads = [rng.standard_normal(start.shape).astype(np.float32) for _ in range(2)]
    param = Tensor(start.copy(), requires_grad=True)
    opt = adam_cls([param], lr=lr)
    b1, b2, eps = ADAM["beta1"], ADAM["beta2"], ADAM["eps"]
    ref = start.astype(np.float64)
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    failures = []
    for t, g in enumerate(grads, 1):
        param.grad = g.copy()
        opt.step()
        g64 = g.astype(np.float64)
        m = b1 * m + (1 - b1) * g64
        v = b2 * v + (1 - b2) * g64 * g64
        ref = ref - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        if not np.all(np.abs(param.data - ref) <= 1e-3 * lr + 1e-6 * np.abs(ref)):
            failures.append(f"Adam step {t} differs from the update rule")
    return failures


# ---------------------------------------------------------------------------
# DSP golden values
# ---------------------------------------------------------------------------

AUDIO_BLOCKS = (64, 16)   # (1024, 128) Mel map -> 16x8-value block means
IMAGE_BLOCKS = (14, 14)   # (224, 224, 3) image -> 16x16-pixel block means


def fixed_tap() -> bytes:
    """One second of 48 kHz PCM16: a decaying two-tone tap plus noise."""
    from pineq import audio

    rate = audio.CAPTURE_RATE
    t = np.arange(rate) / rate
    rng = np.random.default_rng(20250517)
    onset = 0.35
    env = np.where(t >= onset, np.exp(-(t - onset) * 30.0), 0.0)
    signal = env * (0.6 * np.sin(2 * np.pi * 180.0 * t) + 0.3 * np.sin(2 * np.pi * 1250.0 * t))
    signal = signal + 0.01 * rng.standard_normal(rate)
    return audio.write_wav(np.clip(signal, -1.0, 1.0), rate)


def fixed_photo() -> bytes:
    """A 300x260 gradient photo with an elliptical fruit and noise."""
    from pineq import image

    rng = np.random.default_rng(20250518)
    h, w = 300, 260
    yy, xx = np.mgrid[0:h, 0:w]
    fruit = ((yy - 150) / 110.0) ** 2 + ((xx - 130) / 80.0) ** 2 < 1.0
    img = np.stack([0.2 + 0.0015 * yy, 0.35 + 0.001 * xx, 0.15 + 0.0008 * (yy + xx)], axis=-1)
    img[fruit] = [0.8, 0.65, 0.15]
    return image.write_ppm(img + rng.normal(0.0, 0.025, img.shape))


def block_means(arr: np.ndarray, blocks) -> np.ndarray:
    bh, bw = blocks
    h, w = arr.shape[:2]
    rest = arr.shape[2:]
    return arr.reshape(bh, h // bh, bw, w // bw, *rest).mean(axis=(1, 3)).astype(np.float64)


def dsp_summaries() -> Dict[str, np.ndarray]:
    from pineq import audio, image

    return {"audio": block_means(audio.preprocess_audio(fixed_tap()), AUDIO_BLOCKS),
            "image": block_means(image.preprocess_image(fixed_photo()), IMAGE_BLOCKS)}


def dsp_failures() -> List[str]:
    golden = json.loads(GOLDEN.read_text())
    failures = []
    for name, got in dsp_summaries().items():
        want = np.asarray(golden[name])
        spread = float(want.std()) or 1.0
        if got.shape != want.shape or not np.all(np.abs(got - want) <= DSP_RTOL * spread):
            worst = float(np.abs(got - want).max()) if got.shape == want.shape else math.inf
            failures.append(f"preprocess_{name} on the fixed input is off its golden "
                            f"block means by up to {worst:.3g} (allowed {DSP_RTOL * spread:.3g})")
    return failures


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args != ["--write-golden"]:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    summaries = dsp_summaries()
    GOLDEN.write_text(json.dumps({k: v.round(7).tolist() for k, v in summaries.items()}) + "\n")
    print(f"wrote {GOLDEN.name}: " + ", ".join(f"{k} {v.shape}" for k, v in summaries.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
