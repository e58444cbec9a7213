"""The three benchmark workloads: set-up, one timed operation, checks.

Every workload draws its corpus from the benchmark seed; the program only
sees the generated WAV/PPM files.  All program calls go through module
attributes (``training.evaluate``, ...) so that the tracer's rebinding
reaches them.

* ``grade`` — a closed loop with one client.  One request is one
  held-out fruit, scored by ``training.evaluate`` on its fixed 4x4 grid
  from raw files through a fresh ``FeatureStore``, with a ``crossmodal``
  model fitted, checkpointed and reloaded in set-up.  Each forward batch
  repeats every soundtrack and photo four times.
* ``grid-ensemble`` — one ``experiment.run_experiment`` call over an
  ``ensemble`` cell with the ``random`` strategy, per operation, through a
  ``FeatureStore`` warmed in set-up; serial (``PQC_THREADS`` unset).
* ``grid-crossmodal`` — the same over a ``crossmodal`` cell with
  masked-reconstruction pretraining and the ``audio-major`` strategy.

Besides the per-operation checks, ``check`` compares the program with the
independent float64 references in ``reference.py`` once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Tuple

import numpy as np

import reference
from pineq import audio, autodiff, corpus, experiment, image, models, tensorio, training

# Grades are equally common and both modalities track the grade, so a
# short fit already ranks fruit; 12 records give 3 per grade, which the
# 4:1 stratified split turns into 8 training records and 4 held-out ones.
CORPUS = dict(records=12, proportions=(0.25, 0.25, 0.25, 0.25),
              audio_separability=1.0, visual_separability=1.0)
PAIRS_PER_GRID = 16  # build_test_pairs: 4 soundtracks x 4 photos

# The grids cycle through this many cell seeds; set-up warms the store for
# exactly these cells, so no DSP runs in the timed phase.
CELL_SEEDS = 2
GRID_BATCH = 8


# Check batches: two examples, arbitrary positive class weights.
CHECK_PAIRS = 2
CHECK_WEIGHTS = (1.0, 2.0, 0.5, 1.5)


def synthetic_corpus(seed: int, root: Path) -> corpus.Corpus:
    return corpus.generate_synthetic(corpus.SyntheticConfig(seed=seed, **CORPUS), root)


def fresh_features(corp: corpus.Corpus, meta, kind: str) -> np.ndarray:
    """A ``FeatureStore`` accessor's result, recomputed from the file."""
    data = corp.media_path(meta).read_bytes()
    if kind.startswith("audio"):
        mel = ((audio.preprocess_audio(data) - training.AUDIO_FEATURE_MEAN)
               / training.AUDIO_FEATURE_SCALE).astype(np.float32)
        return models.patchify_audio(mel) if kind == "audio_tokens" else mel
    img = image.preprocess_image(data)
    return models.patchify_image(img) if kind == "image_tokens" else img.transpose(2, 0, 1)


def batch_inputs(corp, examples, kinds, store=None):
    """Stacked (audio, visual) inputs; with ``store``, also check that its
    cached features equal a fresh computation."""
    failures = []
    out = []
    for kind, pick in zip(kinds, (lambda r, j, k: r.audio[j], lambda r, j, k: r.photos[k])):
        rows = []
        for ex in examples:
            meta = pick(*ex)
            row = fresh_features(corp, meta, kind)
            if store is not None and not np.array_equal(getattr(store, kind)(meta), row):
                failures.append(f"store {kind} of {meta.path} differs from a fresh computation")
            rows.append(row)
        out.append(np.stack(rows))
    return out[0], out[1], failures


@dataclass
class OpResult:
    examples: int
    failures: List[str] = field(default_factory=list)
    detail: object = None


class Grade:
    cfg_args = dict(model="crossmodal", epochs=2, batch=8, lr=3e-3)
    samples_per_record = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, root: Path) -> dict:
        corp = synthetic_corpus(self.seed, root / "corpus")
        train_recs, fruits = corpus.stratified_split(list(corp.records), seed=self.seed)
        pairs = corpus.sample_corpus_pairs(train_recs, "random",
                                           self.samples_per_record, seed=self.seed)
        cfg = training.TrainConfig(seed=self.seed, **self.cfg_args)
        fitted = training.train(training.FeatureStore(corp), train_recs, pairs, cfg)
        ckpt = root / "model.ckpt"
        tensorio.save_checkpoint(ckpt, fitted.model.state_dict())
        model = training.build_model(cfg, np.random.default_rng(0))
        model.load_state_dict(tensorio.load_checkpoint(ckpt))
        failures = []
        loaded = model.state_dict()
        for key, value in fitted.model.state_dict().items():
            if not np.array_equal(loaded[key], value):
                failures.append(f"checkpoint round trip changed {key}")
        return dict(corpus=corp, cfg=cfg, model=model, fruits=fruits,
                    final_loss=fitted.losses[-1], failures=failures)

    def op(self, state: dict, i: int) -> OpResult:
        fruit = state["fruits"][i % len(state["fruits"])]
        grid = {fruit.record_id: corpus.build_test_pairs(fruit)}
        store = training.FeatureStore(state["corpus"])
        cm = training.evaluate(state["model"], state["cfg"], store, [fruit], grid)
        failures = []
        if cm.total != PAIRS_PER_GRID:
            failures.append(f"request {i}: {cm.total} predictions, not {PAIRS_PER_GRID}")
        return OpResult(cm.total, failures, (i % len(state["fruits"]), cm))

    def check(self, state: dict, results: List[OpResult]) -> List[str]:
        """Each request must equal ``evaluate`` over a warm store, and that
        must equal the float64 reference on one held-out fruit."""
        fruits = state["fruits"]
        warm = training.FeatureStore(state["corpus"])
        grids = {f.record_id: corpus.build_test_pairs(f) for f in fruits}
        for fruit in fruits:
            for j, k in grids[fruit.record_id]:
                warm.audio_tokens(fruit.audio[j])
                warm.image_tokens(fruit.photos[k])
        warm_counts = [training.evaluate(state["model"], state["cfg"], warm, [fruit],
                                       {fruit.record_id: grids[fruit.record_id]}).counts
                       for fruit in fruits]
        for n, res in enumerate(results):
            if res.detail is not None and not np.array_equal(res.detail[1].counts,
                                                             warm_counts[res.detail[0]]):
                res.failures.append(f"request {n}: confusion differs from warm-store evaluate")
        idx = self.seed % len(fruits)
        return reference.dsp_failures() + self.reference_failures(
            state, warm, fruits[idx], grids[fruits[idx].record_id], warm_counts[idx])

    def reference_failures(self, state, warm, fruit, grid, counts) -> List[str]:
        """Logits and confusion counts against ``reference.crossmodal_logits``,
        and the warm store's tokens against a fresh computation."""
        model = state["model"]
        params = reference.as_float64(model.state_dict())
        examples = [(fruit, j, k) for j, k in grid]
        failures = []
        ref_counts = np.zeros_like(counts)
        ambiguous = 0
        for start in range(0, len(examples), 4):
            a, v, store_failures = batch_inputs(state["corpus"], examples[start:start + 4],
                                                ("audio_tokens", "image_tokens"), warm)
            failures += store_failures
            ref = reference.crossmodal_logits(params, model.cfg, a.astype(np.float64),
                                              v.astype(np.float64))
            got = model.forward_tokens(autodiff.Tensor(a), autodiff.Tensor(v)).data
            if not reference.close(got, ref, reference.LOGIT_RTOL):
                failures.append(f"grade: forward_tokens logits of {fruit.record_id} differ "
                                f"from the reference by {np.abs(got - ref).max():.3g}")
            top2 = np.sort(ref, axis=1)[:, -2:]
            ambiguous += int(np.sum(top2[:, 1] - top2[:, 0] < reference.LOGIT_RTOL))
            for pred in ref.argmax(axis=1):
                ref_counts[int(fruit.label), int(pred)] += 1
        if not ambiguous and not np.array_equal(ref_counts, counts):
            failures.append(f"grade: evaluate confusion of {fruit.record_id} "
                            f"{counts.tolist()} differs from the reference {ref_counts.tolist()}")
        return failures

    def quality(self, state: dict, results: List[OpResult]) -> Tuple[float, float]:
        cms = [r.detail[1] for r in results if r.detail is not None]
        hits = sum(int(np.trace(cm.counts)) for cm in cms)
        total = sum(cm.total for cm in cms)
        return (hits / total if total else 0.0), state["final_loss"]


class Grid:
    """One ``run_experiment`` call over a single cell per operation."""

    def __init__(self, model: str, strategy: str, samples: int, lr: float,
                 pretrain_steps: int, warm: Tuple[str, str], seed: int):
        self.model = model
        self.strategy = strategy
        self.samples = samples
        self.lr = lr
        self.pretrain_steps = pretrain_steps
        self.warm = warm
        self.seed = seed
        self.cell_seeds = [seed * CELL_SEEDS + k for k in range(CELL_SEEDS)]

    def spec(self, cell_seed: int) -> experiment.ExperimentSpec:
        return experiment.ExperimentSpec(
            models=(self.model,), strategies=(self.strategy,),
            samples_per_record=(self.samples,), seeds=(cell_seed,), epochs=1,
            batch=GRID_BATCH, lr=self.lr, pretrain_steps=self.pretrain_steps)

    def setup(self, root: Path) -> dict:
        corp = synthetic_corpus(self.seed, root / "corpus")
        store = training.FeatureStore(corp)
        audio = getattr(store, self.warm[0])
        visual = getattr(store, self.warm[1])
        for s in self.cell_seeds:
            train_recs, test_recs = corpus.stratified_split(list(corp.records), seed=s)
            pairs = corpus.sample_corpus_pairs(train_recs, self.strategy, self.samples, seed=s)
            pairs.update({r.record_id: corpus.build_test_pairs(r) for r in test_recs})
            for rec in corp.records:
                for j, k in pairs.get(rec.record_id, ()):
                    audio(rec.audio[j])
                    visual(rec.photos[k])
        return dict(corpus=corp, store=store, first={}, failures=[])

    def _pretrained_pairs(self, n: int) -> int:
        """Pairs seen by the pretraining steps, which cycle over batches."""
        sizes = [min(GRID_BATCH, n - start) for start in range(0, n, GRID_BATCH)]
        return sum(sizes[step % len(sizes)] for step in range(self.pretrain_steps))

    def op(self, state: dict, i: int) -> OpResult:
        cell_seed = self.cell_seeds[i % CELL_SEEDS]
        result = experiment.run_experiment(self.spec(cell_seed), state["corpus"],
                                           store=state["store"])
        failures = []
        examples = 0
        for cell in result.cells:
            losses = cell.losses + cell.pretrain_losses
            if len(cell.losses) != 1 or len(cell.pretrain_losses) != self.pretrain_steps:
                failures.append(f"cell {cell_seed}: loss trace has the wrong length")
            if not all(math.isfinite(x) for x in losses):
                failures.append(f"cell {cell_seed}: non-finite loss {losses}")
            if cell.confusion.total != len(cell.test_ids) * PAIRS_PER_GRID:
                failures.append(f"cell {cell_seed}: {cell.confusion.total} predictions")
            outcome = (cell.losses, cell.pretrain_losses, cell.confusion.counts.tolist())
            first = state["first"].setdefault(cell_seed, outcome)
            if first != outcome:
                failures.append(f"cell {cell_seed}: rerun differs from its first run")
            examples += (cell.samples_total + self._pretrained_pairs(cell.samples_total)
                         + cell.confusion.total)
        return OpResult(examples, failures, result.cells)

    def check(self, state: dict, results: List[OpResult]) -> List[str]:
        """One training step of a freshly built cell model against the
        float64 references: logits, loss, gradients (and the pretraining
        loss on ``crossmodal``), plus two ``Adam`` steps."""
        cell_seed = self.cell_seeds[0]
        cfg = self.spec(cell_seed).cell_config(self.model, cell_seed)
        model = training.build_model(cfg, np.random.default_rng(cell_seed))
        corp = state["corpus"]
        train_recs, _ = corpus.stratified_split(list(corp.records), seed=cell_seed)
        pairs = corpus.sample_corpus_pairs(train_recs, self.strategy, self.samples,
                                           seed=cell_seed)
        by_id = {r.record_id: r for r in train_recs}
        examples = [(by_id[rid], j, k) for rid in sorted(pairs) for j, k in pairs[rid][:1]]
        examples = examples[:CHECK_PAIRS]
        a, v, failures = batch_inputs(corp, examples, self.warm, state["store"])
        labels = np.array([int(rec.label) for rec, _, _ in examples])
        rng = np.random.default_rng(self.seed)
        params = reference.as_float64(model.state_dict())
        a64, v64 = a.astype(np.float64), v.astype(np.float64)
        if self.model == "ensemble":
            logits = model.forward(a, v)
            ref_fn = lambda p: reference.ensemble_logits(p, a64, v64)  # noqa: E731
            names = ("audio_net.convs.0", "visual_net.convs.0", "head.fc1.weight")
        else:
            logits = model.forward_tokens(autodiff.Tensor(a), autodiff.Tensor(v))
            ref_fn = lambda p: reference.crossmodal_logits(p, model.cfg, a64, v64)  # noqa: E731
            names = ("audio_proj.weight", "visual_pos", "joint_blocks.1.attn.wq.weight",
                     "joint_blocks.0.ln1.gamma")
        what = f"{self.model} cell {cell_seed}"
        ref_logits = ref_fn(params)
        if not reference.close(logits.data, ref_logits, reference.LOGIT_RTOL):
            failures.append(f"{what}: logits differ from the reference by "
                            f"{np.abs(logits.data - ref_logits).max():.3g}")
        loss = training.weighted_smoothed_ce(logits, labels, CHECK_WEIGHTS, cfg.smoothing)

        def ce(p):
            return reference.smoothed_ce(ref_fn(p), labels, CHECK_WEIGHTS, cfg.smoothing)

        if not reference.close(loss.item(), ce(params), reference.LOGIT_RTOL):
            failures.append(f"{what}: loss {loss.item():.6g} differs from the reference")
        loss.backward()
        named = model.named_parameters()
        failures += reference.gradient_failures(
            what, ce, params, {n: named[n].grad for n in names}, names, rng)
        if self.pretrain_steps:
            failures += self._mae_failures(model, a, v, rng)
        return failures + reference.adam_failures(autodiff.Adam, rng)

    def _mae_failures(self, model, a, v, rng) -> List[str]:
        pre = models.MaePretrainer(model, rng)
        for p in pre.parameters():
            p.grad = None
        mask = pre.sample_mask(rng, a.shape[0])
        loss, _ = pre.loss(autodiff.Tensor(a), autodiff.Tensor(v), mask)
        params = reference.as_float64(pre.state_dict())
        a64, v64 = a.astype(np.float64), v.astype(np.float64)

        def mae(p):
            return reference.mae_loss(p, model.cfg, a64, v64, mask, pre.temperature,
                                      pre.contrastive_weight)

        failures = []
        if not reference.close(loss.item(), mae(params), reference.LOGIT_RTOL):
            failures.append(f"pretraining loss {loss.item():.6g} differs from the reference "
                            f"{mae(params):.6g}")
        loss.backward()
        names = ("encoder.audio_proj.weight", "mask_token", "dec_visual.weight",
                 "encoder.visual_blocks.0.attn.wk.weight")
        named = pre.named_parameters()
        return failures + reference.gradient_failures(
            "pretraining", mae, params, {n: named[n].grad for n in names}, names, rng)

    def quality(self, state: dict, results: List[OpResult]) -> Tuple[float, float]:
        cells = [c for r in results if r.detail for c in r.detail]
        if not cells:
            return 0.0, 0.0
        return (float(np.mean([c.accuracy for c in cells])),
                float(np.mean([c.losses[-1] for c in cells])))


def make(name: str, seed: int):
    if name == "grade":
        return Grade(seed)
    if name == "grid-ensemble":
        return Grid("ensemble", "random", samples=4, lr=1e-4,
                    pretrain_steps=0, warm=("audio_map", "image_map"), seed=seed)
    if name == "grid-crossmodal":
        return Grid("crossmodal", "audio-major", samples=2, lr=3e-3,
                    pretrain_steps=2, warm=("audio_tokens", "image_tokens"), seed=seed)
    raise ValueError(f"unknown workload {name!r}")
