"""Experiment-matrix orchestration: the grid behind the result tables.

For every (model, strategy, samples-per-record, seed) cell this module
splits the corpus 4:1 stratified by grade, samples training pairs with the
requested strategy, builds the fixed evaluation pairs for the held-out
records, trains from scratch, and scores a confusion matrix. A cell's
model is a name of ``training.MODELS``, which fixes both the architecture
and the streams it reads, so one grid can hold, say, ``cnn-audio`` and
``cnn-visual`` side by side. Per-seed rows are then averaged into
aggregate rows, and everything is rendered as a plain-text report plus
CSV (and per-cell loss traces). Every cell is drawn once, before the
first one trains, and trains on that draw, so a grid that the sampler
cannot draw raises its ``InfeasibleSampleError``, and a split that holds
no record out its ``CorpusError``, before any cell trains.

The whole run is a pure function of (spec, corpus): reruns reproduce the
report byte for byte. The cells go to the splitter that ops use
(``autodiff._split``): on two CPUs or more, and with two cells or more,
the calling thread and one more each take the next cell as soon as they
are free, and each cell's ops run inline, since there is no split inside
a split; a grid of one cell runs on the calling thread, whose ops split.
Every cell reads the caller's one feature store, warm entries included,
which holds one array per media file whichever cells read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import autodiff
from .corpus import (
    Corpus,
    CorpusError,
    build_test_pairs,
    sample_corpus_pairs,
    stratified_split,
)
from .training import (
    ConfusionMatrix,
    FeatureStore,
    MODELS,
    ReportRow,
    TrainConfig,
    TrainResult,
    accuracy,
    evaluate,
    format_csv,
    format_loss_trace,
    format_report,
    train,
)

STRATEGIES = ("random", "audio-major", "visual-major")


@dataclass(frozen=True)
class ExperimentSpec:
    """The full grid plus shared training hyper-parameters."""

    models: Tuple[str, ...]  # names of training.MODELS
    strategies: Tuple[str, ...]
    samples_per_record: Tuple[int, ...]
    seeds: Tuple[int, ...]
    epochs: int = 10
    batch: int = 16
    lr: float = 1e-3
    smoothing: float = 0.1
    pretrain_steps: int = 0

    def __post_init__(self):
        for name, values, valid in (("models", self.models, MODELS),
                                    ("strategies", self.strategies, STRATEGIES)):
            if not values:
                raise ValueError(f"{name} must be non-empty")
            unknown = [v for v in values if v not in valid]
            if unknown:
                raise ValueError(f"unknown {name}: {unknown}; "
                                 f"choose from {', '.join(valid)}")
        if not self.samples_per_record or any(s < 1 for s in self.samples_per_record):
            raise ValueError("samples_per_record must be non-empty positive ints")
        if not self.seeds or any(s < 0 for s in self.seeds):
            raise ValueError("seeds must be non-empty non-negative ints")
        for name in ("models", "strategies", "samples_per_record", "seeds"):
            values = getattr(self, name)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} lists {repeated[0]!r} more than once")
        # every model's cells must be valid training runs, checked up front
        for model in self.models:
            self.cell_config(model, seed=int(self.seeds[0]))

    def cell_config(self, model: str, seed: int) -> TrainConfig:
        return TrainConfig(model=model, epochs=self.epochs, batch=self.batch,
                           lr=self.lr, smoothing=self.smoothing, seed=seed,
                           pretrain_steps=self.pretrain_steps)

    def cells(self) -> List[Tuple[str, str, int, int]]:
        return [(m, st, s, int(sd)) for m in self.models for st in self.strategies
                for s in self.samples_per_record for sd in self.seeds]


@dataclass(frozen=True)
class CellOutcome:
    model: str
    strategy: str
    samples_per_record: int
    seed: int
    samples_total: int
    accuracy: float
    confusion: ConfusionMatrix
    losses: Tuple[float, ...]
    pretrain_losses: Tuple[float, ...]
    train_ids: Tuple[str, ...]
    test_ids: Tuple[str, ...]


def held_out(corpus: Corpus, seed: int):
    """Split the corpus and build the test grid of the records it holds out."""
    train_recs, test_recs = stratified_split(list(corpus.records), seed=seed)
    if not test_recs:
        raise CorpusError(f"seed {seed}: the split of {len(corpus.records)} records holds "
                          "none out for testing; a grade needs 3 records to give one")
    return train_recs, test_recs, {r.record_id: build_test_pairs(r) for r in test_recs}


def draw_cell(corpus: Corpus, cell: Tuple[str, str, int, int]):
    """Split the corpus, build the test grid and sample the training pairs."""
    _, strategy, samples, seed = cell
    train_recs, test_recs, test_pairs = held_out(corpus, seed)
    pairs = sample_corpus_pairs(train_recs, strategy, samples, seed=seed)
    return train_recs, test_recs, pairs, test_pairs


def run_cell(spec: ExperimentSpec, store: FeatureStore,
             cell: Tuple[str, str, int, int], draw,
             architecture=None) -> Tuple[CellOutcome, TrainResult]:
    """Train and score one grid cell on its ``draw_cell``; also return the fit."""
    model_name, strategy, samples, seed = cell
    train_recs, test_recs, pairs, test_pairs = draw
    train_ids = tuple(r.record_id for r in train_recs)
    test_ids = tuple(r.record_id for r in test_recs)
    assert set(train_ids).isdisjoint(test_ids), "train/test records overlap"

    cfg = spec.cell_config(model_name, seed)
    result = train(store, train_recs, pairs, cfg, architecture=architecture)
    confusion = evaluate(result.model, cfg, store, test_recs, test_pairs)
    outcome = CellOutcome(model_name, strategy, samples, seed,
                          len(train_recs) * samples, accuracy(confusion),
                          confusion, tuple(result.losses),
                          tuple(result.pretrain_losses), train_ids, test_ids)
    return outcome, result


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    header: Tuple[str, ...]
    cells: Tuple[CellOutcome, ...]
    rows: List[ReportRow]
    aggregates: List[ReportRow]
    matrices: List[Tuple[str, ConfusionMatrix]]

    def report_text(self) -> str:
        per_seed = format_report(self.rows, header=self.header)
        means = format_report(self.aggregates, matrices=self.matrices)
        return f"{per_seed}\nMean over seeds:\n{means}"

    def csv_text(self) -> str:
        return format_csv(self.rows + self.aggregates)


def run_experiment(spec: ExperimentSpec, corpus: Corpus,
                   architectures: Optional[Mapping[str, object]] = None,
                   store: Optional[FeatureStore] = None,
                   extra_header: Sequence[str] = ()) -> ExperimentResult:
    """Execute every grid cell and assemble deterministic report rows.

    The report's header is ``extra_header`` (the caller's statement of the
    settings; ``pineq experiment`` echoes its effective options) followed
    by the corpus's record count and media per record.
    """
    architectures = dict(architectures or {})
    # each cell is drawn once, before any trains, so a bad draw fails first
    jobs = [(cell, draw_cell(corpus, cell), architectures.get(cell[0]))
            for cell in spec.cells()]

    store = store if store is not None else FeatureStore(corpus)
    outcomes = [None] * len(jobs)  # cell i writes only outcomes[i]

    def cell(i: int, _) -> None:
        outcomes[i] = run_cell(spec, store, *jobs[i])[0]

    autodiff._split(cell, len(jobs))

    rows = [ReportRow(o.model, o.strategy, o.samples_total, o.accuracy, o.seed)
            for o in outcomes]
    aggregates: List[ReportRow] = []
    matrices: List[Tuple[str, ConfusionMatrix]] = []
    for m in spec.models:
        for st in spec.strategies:
            for s in spec.samples_per_record:
                group = [o for o in outcomes
                         if (o.model, o.strategy, o.samples_per_record) == (m, st, s)]
                mean_acc = float(np.mean([o.accuracy for o in group]))
                aggregates.append(ReportRow(m, st, group[0].samples_total, mean_acc))
                merged = ConfusionMatrix.empty()
                for o in group:
                    merged = merged.merge(o.confusion)
                matrices.append((f"{m}/{st}/S={s}", merged))

    header = tuple(extra_header) + (
        f"records: {len(corpus.records)}",
        f"media per record: {corpus.soundtracks_per_record} soundtracks, "
        f"{corpus.photos_per_record} photos",
    )
    return ExperimentResult(spec, header, tuple(outcomes), rows, aggregates,
                            matrices)


def write_outputs(result: ExperimentResult, out_dir: Path | str) -> List[Path]:
    """Write report.txt, results.csv, and per-cell loss traces; return paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts = [("report.txt", result.report_text()), ("results.csv", result.csv_text())]
    for c in result.cells:
        name = f"loss_{c.model}_{c.strategy}_s{c.samples_per_record}_seed{c.seed}.csv"
        texts.append((name, format_loss_trace(list(c.losses))))
    for name, text in texts:
        (out / name).write_text(text)
    return [out / name for name, _ in texts]
