"""Span tracing of the pineq layers, attached from outside the package.

The tracer rebinds every public entry point of a layer boundary to a
timing wrapper: the function in its home module and each module-level
alias other pineq modules imported it under (``pineq.nn.matmul``,
``pineq.training.preprocess_audio``, ``pineq.experiment.train``, ...),
or the method on its class.  Each call becomes a span with a parent id
and a root (request) id; self time is a span's duration minus the
durations of its direct children.  A call nested directly inside a span
of the same boundary (``unimodal_forward`` -> ``unimodal_tokens``,
``audio_tokens`` -> ``audio_map``) is folded into the outer span.

Computed counts are labelled as such: GFLOP and MB moved for
``conv2d``/``matmul``/``bmm`` come from operand shapes, and the
unique-input ratios come from hashing the rows of each forward batch.
Time spent hashing is excluded from every open span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

perf_counter = time.perf_counter

# metric prefix -> (home module, [function or Class.method, ...])
BOUNDARIES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "audio.preprocess_audio": ("audio", ("preprocess_audio",)),
    "audio.resample": ("audio", ("resample",)),
    "audio.mel_spectrogram": ("audio", ("mel_spectrogram",)),
    "image.preprocess_image": ("image", ("preprocess_image",)),
    "image.resize_bilinear": ("image", ("resize_bilinear",)),
    "training.train": ("training", ("train",)),
    "training.evaluate": ("training", ("evaluate",)),
    "training.weighted_smoothed_ce": ("training", ("weighted_smoothed_ce",)),
    "training.feature_store": ("training", (
        "FeatureStore.audio_map", "FeatureStore.audio_tokens",
        "FeatureStore.image_map", "FeatureStore.image_tokens")),
    "models.forward": ("models", (
        "CnnClassifier.forward", "EnsembleModel.forward",
        "CrossModalEncoder.forward_tokens", "CrossModalEncoder.forward",
        "CrossModalEncoder.unimodal_tokens", "CrossModalEncoder.unimodal_forward")),
    "models.mae_loss": ("models", ("MaePretrainer.loss",)),
    "models.patchify": ("models", ("patchify_audio", "patchify_image")),
    "nn.transformer_block": ("nn", ("TransformerBlock.__call__",)),
    "nn.self_attention": ("nn", ("SelfAttention.__call__",)),
    "nn.linear": ("nn", ("Linear.__call__",)),
    "autodiff.conv2d": ("autodiff", ("conv2d",)),
    "autodiff.maxpool2d": ("autodiff", ("maxpool2d",)),
    "autodiff.matmul": ("autodiff", ("matmul",)),
    "autodiff.bmm": ("autodiff", ("bmm",)),
    "autodiff.softmax": ("autodiff", ("softmax",)),
    "autodiff.log_softmax": ("autodiff", ("log_softmax",)),
    "autodiff.layer_norm": ("autodiff", ("layer_norm",)),
    "autodiff.backward": ("autodiff", ("Tensor.backward",)),
    "autodiff.adam_step": ("autodiff", ("Adam.step",)),
    "corpus.generate_synthetic": ("corpus", ("generate_synthetic",)),
    "corpus.sample_corpus_pairs": ("corpus", ("sample_corpus_pairs",)),
    "corpus.stratified_split": ("corpus", ("stratified_split",)),
    "tensorio.save_checkpoint": ("tensorio", ("save_checkpoint",)),
    "tensorio.load_checkpoint": ("tensorio", ("load_checkpoint",)),
    "experiment.run_experiment": ("experiment", ("run_experiment",)),
}

# Boundaries whose work belongs to set-up by design: their metrics count
# the set-up phase; every other boundary counts the timed phase.
SETUP_BOUNDARIES = ("corpus.generate_synthetic", "tensorio.save_checkpoint",
                    "tensorio.load_checkpoint")

# Ops whose vector-Jacobian product is timed as a child span of backward.
VJP_OPS = ("autodiff.conv2d", "autodiff.maxpool2d", "autodiff.matmul",
           "autodiff.bmm", "autodiff.softmax")
SHAPE_COUNTED = ("autodiff.conv2d", "autodiff.matmul", "autodiff.bmm")

FEATURE_STORE = "training.feature_store"
REQUEST = "bench.request"


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units: Dict[str, str] = {}
    for name in BOUNDARIES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in VJP_OPS:
        units[f"{name}.vjp_s"] = "s"
    for name in SHAPE_COUNTED:
        units[f"{name}.gflop"] = "GFLOP"
        units[f"{name}.mb_moved"] = "MB"
    units["training.feature_store.hit_ratio"] = "ratio"
    units["models.forward.batch_mean"] = "pairs"
    units["models.forward.unique_audio_ratio"] = "ratio"
    units["models.forward.unique_visual_ratio"] = "ratio"
    return units


class _Frame:
    __slots__ = ("name", "id", "parent", "root", "start", "child", "excluded",
                 "children")

    def __init__(self, name, sid, parent, root, start):
        self.name = name
        self.id = sid
        self.parent = parent
        self.root = root
        self.start = start
        self.child = 0.0
        self.excluded = 0.0
        self.children = 0


class Tracer:
    """In-memory spans and counters for one benchmark process.

    ``phase`` tags what is recorded: ``"setup"`` or ``"timed"``.  Spans are
    kept as ``(id, parent id, root id, name, start, end, phase)`` tuples.
    """

    def __init__(self):
        self.phase = "setup"
        self.spans: List[tuple] = []
        self.missing: List[str] = []
        self._stack: List[_Frame] = []
        self._next_id = 0
        self._stats: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self._counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self._installed: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        stack = self._stack
        self._next_id += 1
        sid = self._next_id
        if stack:
            parent = stack[-1]
            parent.children += 1
            frame = _Frame(name, sid, parent.id, parent.root, perf_counter())
        else:
            frame = _Frame(name, sid, 0, sid, perf_counter())
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - frame.start - frame.excluded
        st = self._stats[(self.phase, frame.name)]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame.child
        if stack:
            parent = stack[-1]
            parent.child += dur
            parent.excluded += frame.excluded
        if frame.name == FEATURE_STORE:
            # an accessor that reached no other boundary answered from cache
            self.count("feature_store.calls", 1)
            if frame.children == 0:
                self.count("feature_store.hits", 1)
        self.spans.append((frame.id, frame.parent, frame.root, frame.name,
                           frame.start, end, self.phase))

    def request(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the root span of one request."""
        frame = self._enter(REQUEST)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def count(self, key: str, value: float) -> None:
        self._counts[(self.phase, key)] += value

    def exclude(self, seconds: float) -> None:
        """Take bookkeeping time out of the innermost open span."""
        if self._stack:
            self._stack[-1].excluded += seconds

    def wrap(self, name: str, fn: Callable, pre=None, post=None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            if pre is not None:
                t0 = perf_counter()
                pre(tracer, args, kwargs)
                tracer.exclude(perf_counter() - t0)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- binding -------------------------------------------------------------

    def install(self) -> None:
        """Rebind every boundary in every loaded ``pineq`` module."""
        if self._installed:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pineq" or n.startswith("pineq."))]
        for name, (home, targets) in BOUNDARIES.items():
            module = sys.modules.get(f"pineq.{home}")
            for target in targets:
                pre, post = _HOOKS.get(target, (None, None))
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(module, cls_name, None)
                    orig = None if cls is None else cls.__dict__.get(meth)
                    if orig is None:
                        self.missing.append(f"pineq.{home}.{target}")
                        continue
                    self._bind(cls, meth, orig, self.wrap(name, orig, pre, post))
                    continue
                orig = getattr(module, target, None)
                if orig is None:
                    self.missing.append(f"pineq.{home}.{target}")
                    continue
                wrapper = self.wrap(name, orig, pre, post)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._bind(mod, attr, orig, wrapper)

    def _bind(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def per_layer(self) -> Dict[str, float]:
        """Metric values for the per-layer names of :func:`per_layer_units`."""
        out: Dict[str, float] = {}
        for name in BOUNDARIES:
            phase = "setup" if name in SETUP_BOUNDARIES else "timed"
            calls, busy, self_s = self._stats.get((phase, name), (0, 0.0, 0.0))
            out[f"{name}.calls"] = int(calls)
            out[f"{name}.busy_s"] = busy
            out[f"{name}.self_s"] = self_s
        for name in VJP_OPS:
            out[f"{name}.vjp_s"] = self._stats.get(("timed", name + ".vjp"), (0, 0.0, 0.0))[1]
        timed = {k: v for (p, k), v in self._counts.items() if p == "timed"}
        for name in SHAPE_COUNTED:
            out[f"{name}.gflop"] = timed.get(f"{name}.flop", 0.0) / 1e9
            out[f"{name}.mb_moved"] = timed.get(f"{name}.bytes", 0.0) / 1e6
        out["training.feature_store.hit_ratio"] = _ratio(
            timed.get("feature_store.hits", 0.0), timed.get("feature_store.calls", 0.0))
        batches = timed.get("forward.batches", 0.0)
        out["models.forward.batch_mean"] = _ratio(timed.get("forward.rows", 0.0), batches)
        for modality in ("audio", "visual"):
            out[f"models.forward.unique_{modality}_ratio"] = _ratio(
                timed.get(f"forward.unique_{modality}", 0.0),
                timed.get(f"forward.batches_{modality}", 0.0))
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write("%d %d %d %s %.9f %.9f %s\n" % span)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# computed counts, hooked onto individual bindings
# ---------------------------------------------------------------------------


def _data(x) -> np.ndarray:
    return np.asarray(getattr(x, "data", x))


def _conv_shapes(args, kwargs):
    x, w = _data(args[0]), _data(args[1])
    stride = args[2] if len(args) > 2 else kwargs.get("stride", 1)
    padding = args[3] if len(args) > 3 else kwargs.get("padding", 0)
    sh, sw = stride if isinstance(stride, (tuple, list)) else (stride, stride)
    ph, pw = padding if isinstance(padding, (tuple, list)) else (padding, padding)
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    return n, c, h, wd, o, kh, kw, ho, wo, h + 2 * ph, wd + 2 * pw, x.itemsize


def _conv_counts(args, kwargs):
    """(forward flop, forward bytes, vjp flop, vjp bytes) of an im2col conv.

    Bytes count each operand read and each result written once per numpy
    pass: pad, im2col, the kernel product, and in the vjp the column
    recompute, the weight and column gradients and the col2im scatter.
    """
    n, c, h, w, o, kh, kw, ho, wo, hp, wp, isz = _conv_shapes(args, kwargs)
    k, l = c * kh * kw, ho * wo
    x, xp, cols, wt, out = n * c * h * w, n * c * hp * wp, n * k * l, o * k, n * o * l
    flop = 2 * n * o * k * l
    fwd_bytes = (x + 2 * xp + 2 * cols + wt + out) * isz
    vjp_bytes = (3 * xp + 4 * cols + 2 * out + 2 * wt + x) * isz
    return flop, fwd_bytes, 2 * flop, vjp_bytes


def _mm_counts(args, kwargs):
    a, b = _data(args[0]), _data(args[1])
    batch = a.shape[0] if a.ndim == 3 else 1
    m, k = a.shape[-2:]
    n = b.shape[-1]
    isz = a.itemsize
    flop = 2 * batch * m * k * n
    fwd_bytes = batch * (m * k + k * n + m * n) * isz
    vjp_bytes = batch * 2 * (m * k + k * n + m * n) * isz
    return flop, fwd_bytes, 2 * flop, vjp_bytes


def _shape_counted(name: str, counts_fn):
    """Count a finished op's forward work and time its vjp, counting that too."""
    def post(tracer, args, kwargs, result):
        try:
            flop, nbytes, vflop, vbytes = counts_fn(args, kwargs)
        except (ValueError, IndexError, TypeError):  # a signature this code does not know
            return
        tracer.count(f"{name}.flop", flop)
        tracer.count(f"{name}.bytes", nbytes)

        def vjp_pre(t, _args, _kwargs):
            t.count(f"{name}.flop", vflop)
            t.count(f"{name}.bytes", vbytes)
        _time_vjp(tracer, name, result, vjp_pre)

    return None, post


def _time_vjp(tracer: Tracer, name: str, result, pre=None) -> None:
    vjp = getattr(result, "_vjp", None)
    if vjp is not None:
        try:
            result._vjp = tracer.wrap(f"{name}.vjp", vjp, pre)
        except AttributeError:
            pass


def _vjp_only(name: str):
    return None, lambda tracer, args, kwargs, result: _time_vjp(tracer, name, result)


def _unique_rows(tracer: Tracer, modality: str, batch) -> None:
    arr = _data(batch)
    rows = arr.reshape(arr.shape[0], -1)
    unique = len({hash(row.tobytes()) for row in rows})
    tracer.count(f"forward.unique_{modality}", unique / max(1, rows.shape[0]))
    tracer.count(f"forward.batches_{modality}", 1)


def _forward_hook(roles: Callable):
    """Count one forward batch; ``roles(args)`` lists (modality, batch)."""
    def pre(tracer, args, kwargs):
        try:
            batches = roles(args)
        except (IndexError, AttributeError):  # a signature this code does not know
            return
        tracer.count("forward.batches", 1)
        tracer.count("forward.rows", _data(batches[0][1]).shape[0])
        for modality, batch in batches:
            _unique_rows(tracer, modality, batch)
    return pre, None


def _cnn_roles(args):
    x = _data(args[1])
    return [("audio" if x.shape[1] == 1 else "visual", x)]


def _pair_roles(args):
    return [("audio", args[1]), ("visual", args[2])]


def _unimodal_roles(args):
    return [(args[2], args[1])]


_HOOKS = {
    "conv2d": _shape_counted("autodiff.conv2d", _conv_counts),
    "matmul": _shape_counted("autodiff.matmul", _mm_counts),
    "bmm": _shape_counted("autodiff.bmm", _mm_counts),
    "maxpool2d": _vjp_only("autodiff.maxpool2d"),
    "softmax": _vjp_only("autodiff.softmax"),
    "CnnClassifier.forward": _forward_hook(_cnn_roles),
    "EnsembleModel.forward": _forward_hook(_pair_roles),
    "CrossModalEncoder.forward_tokens": _forward_hook(_pair_roles),
    "CrossModalEncoder.forward": _forward_hook(_pair_roles),
    "CrossModalEncoder.unimodal_tokens": _forward_hook(_unimodal_roles),
    "CrossModalEncoder.unimodal_forward": _forward_hook(_unimodal_roles),
}
