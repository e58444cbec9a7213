"""Command-line entry point.

One batch-oriented tool with seven subcommands::

    synth       materialize a synthetic audiovisual corpus on disk
    preprocess  run the DSP/image chains and save feature tensors
    split       stratified 4:1 record split
    sample      draw (soundtrack, photo) training pairs per record
    train       run one experiment cell and checkpoint its model and report
    eval        score a saved checkpoint on a corpus' held-out records
    experiment  run the full (model x strategy x S x seed) grid

Exit codes: 0 success, 1 usage error, 2 data error (missing or malformed
files, infeasible sampling, shape mismatches). Diagnostics go to stderr;
results go to stdout and to ``--out`` files. ``--config`` names a plain
``key=value`` file whose entries fill in any flags not given explicitly
(flags win), and the effective values are echoed into report headers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import tensorio
from .audio import preprocess_audio
from .corpus import (
    Corpus,
    CorpusError,
    SyntheticConfig,
    build_test_pairs,
    generate_synthetic,
    load_corpus,
    sample_corpus_pairs,
    stratified_split,
)
from .experiment import (
    STRATEGIES,
    ExperimentSpec,
    run_cell,
    run_experiment,
    write_outputs,
)
from .image import preprocess_image
from .training import (
    FeatureStore,
    ReportRow,
    TrainConfig,
    accuracy,
    build_model,
    evaluate,
    format_loss_trace,
    format_report,
)


class UsageError(Exception):
    """Bad flags or option values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------


def _csv_strs(text: str) -> List[str]:
    items = [t.strip() for t in str(text).split(",") if t.strip()]
    if not items:
        raise UsageError(f"expected a comma-separated list, got {text!r}")
    return items


def _csv_ints(text: str) -> List[int]:
    try:
        return [int(t) for t in _csv_strs(text)]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _bool(text) -> bool:
    if isinstance(text, bool):
        return text
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def read_config(path: str) -> Dict[str, str]:
    """Parse a plain key=value file; '#' starts a comment."""
    mapping: Dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


class _Options:
    """Flag > config-file > default resolution with provenance echo."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = read_config(args.config) if getattr(args, "config", None) else {}
        self.effective: Dict[str, str] = {}

    def get(self, name: str, default, cast=None):
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is None and name in self.config:
            value = self.config[name]
        if value is None:
            value = default
        if value is not None and cast is not None:
            try:
                value = cast(value)
            except (TypeError, ValueError) as exc:
                raise UsageError(f"invalid value for --{name}: {value!r}") from exc
        self.effective[name] = value
        return value

    def header(self) -> List[str]:
        lines = []
        for key, value in self.effective.items():
            if value is None or key in ("out", "config"):
                continue
            if isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key}: {value}")
        return lines


def _corpus_arg(opts: _Options, out: Optional[Path]) -> Callable[[], Corpus]:
    """Resolve --corpus, or --synthetic with its --records/--corpus-seed, into
    a loader of the Corpus.

    The flags are read (and echoed) now; nothing is read or written until the
    loader is called, so a caller can validate its other flags first.
    """
    corpus_path = opts.get("corpus", None)
    if not opts.get("synthetic", False, _bool):
        del opts.effective["synthetic"]
        if not corpus_path:
            raise UsageError("one of --corpus or --synthetic is required")
        path = Path(corpus_path)
        if path.is_dir():
            path = path / "manifest.txt"
        return partial(load_corpus, path)
    if corpus_path:
        raise UsageError("--corpus and --synthetic are mutually exclusive")
    if out is None:
        raise UsageError("--synthetic requires --out for the generated corpus")
    cfg = SyntheticConfig(records=opts.get("records", 80, int),
                          seed=opts.get("corpus-seed", 0, int))
    return partial(generate_synthetic, cfg, out / "corpus")


def _spec_arg(opts: _Options, grid: bool) -> ExperimentSpec:
    """Resolve the grid and training flags into an ExperimentSpec.

    With ``grid`` the model/strategy/samples/seed flags take comma lists;
    without it each takes one value and the spec holds exactly one cell.
    """
    if grid:
        strs, ints = _csv_strs, _csv_ints
    else:
        strs, ints = (lambda t: [t]), (lambda t: [int(t)])
    try:
        return ExperimentSpec(
            models=tuple(opts.get("model", "crossmodal", strs)),
            strategies=tuple(opts.get("strategy", "random", strs)),
            samples_per_record=tuple(opts.get("samples-per-record", "8", ints)),
            seeds=tuple(opts.get("seed", "0", ints)),
            epochs=opts.get("epochs", 10, int),
            batch=opts.get("batch", 16, int),
            lr=opts.get("lr", 1e-3, float),
            smoothing=opts.get("smoothing", 0.1, float),
            pretrain_steps=opts.get("pretrain-steps", 0, int),
            modality=opts.get("modality", "audio"),
        )
    except ValueError as exc:  # bad names and hyper-parameters are usage errors
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_model(out: Path, model, model_name: str, cfg: TrainConfig,
               architecture) -> Path:
    """Write weights (PQCT + index) and a JSON sidecar describing the shape."""
    ckpt = out / "model.ckpt"
    tensorio.save_checkpoint(ckpt, model.state_dict())
    arch = (dataclasses.asdict(architecture)
            if dataclasses.is_dataclass(architecture) else dict(architecture or {}))
    meta = {"model": model_name, "kind": cfg.model, "modality": cfg.modality,
            "architecture": arch}
    ckpt.with_suffix(".json").write_text(json.dumps(meta, indent=2) + "\n")
    return ckpt


def load_model(ckpt_path: Path):
    """Rebuild the architecture from the sidecar and load the weights."""
    state = tensorio.load_checkpoint(ckpt_path)  # missing file -> data error
    sidecar = ckpt_path.with_suffix(".json")
    try:
        meta = json.loads(sidecar.read_text())
        missing = [k for k in ("model", "kind", "modality", "architecture") if k not in meta]
        if missing:
            raise ValueError(f"missing {', '.join(missing)}")
        cfg = TrainConfig(model=meta["kind"], modality=meta["modality"])
        model = build_model(cfg, np.random.default_rng(0), meta["architecture"])
    except (TypeError, ValueError) as exc:  # malformed JSON, missing keys or bad values
        raise ValueError(f"{sidecar}: {exc}") from exc
    model.load_state_dict(state)
    return model, cfg, meta


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    opts = _Options(args)
    out = Path(opts.get("out", None) or _usage("--out is required"))
    cfg = SyntheticConfig(
        records=opts.get("records", 80, int),
        seed=opts.get("seed", 0, int),
        audio_seconds=opts.get("audio-seconds", 1.0, float),
        image_width=opts.get("image-width", 80, int),
        image_height=opts.get("image-height", 60, int),
        audio_separability=opts.get("audio-separability", 0.9, float),
        visual_separability=opts.get("visual-separability", 0.5, float),
        noise=opts.get("noise", 0.2, float),
    )
    corpus = generate_synthetic(cfg, out)
    print(f"wrote {len(corpus.records)} records "
          f"({corpus.soundtracks_per_record} soundtracks, "
          f"{corpus.photos_per_record} photos each) to {out / 'manifest.txt'}")
    return 0


def cmd_preprocess(args) -> int:
    opts = _Options(args)
    out = Path(opts.get("out", None) or _usage("--out is required"))
    corpus = _corpus_arg(opts, out)()
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    for rec in corpus.records:
        for meta in rec.audio:
            mel = corpus.decode_media(meta, preprocess_audio)
            tensorio.save_tensor(out / f"{Path(meta.path).stem}.pqct", mel)
            count += 1
        for meta in rec.photos:
            img = corpus.decode_media(meta, preprocess_image)
            tensorio.save_tensor(out / f"{Path(meta.path).stem}.pqct", img)
            count += 1
    print(f"wrote {count} feature tensors to {out}")
    return 0


def cmd_split(args) -> int:
    opts = _Options(args)
    out = opts.get("out", None)
    corpus = _corpus_arg(opts, Path(out) if out else None)()
    seed = opts.get("seed", 0, int)
    train_recs, test_recs = stratified_split(list(corpus.records), seed=seed)
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "train.txt").write_text(
            "".join(f"{r.record_id}\n" for r in train_recs))
        (out_dir / "test.txt").write_text(
            "".join(f"{r.record_id}\n" for r in test_recs))
        print(f"wrote {len(train_recs)} train / {len(test_recs)} test ids to {out_dir}")
    else:
        for r in train_recs:
            print(f"train {r.record_id}")
        for r in test_recs:
            print(f"test {r.record_id}")
    return 0


def cmd_sample(args) -> int:
    opts = _Options(args)
    out = opts.get("out", None)
    corpus = _corpus_arg(opts, Path(out) if out else None)()
    strategy = opts.get("strategy", "random")
    if strategy not in STRATEGIES:
        raise UsageError(f"unknown strategy {strategy!r}")
    samples = opts.get("samples-per-record", 8, int)
    seed = opts.get("seed", 0, int)
    pairs = sample_corpus_pairs(list(corpus.records), strategy, samples, seed=seed)
    lines = [f"{rec.record_id},{j},{k}"
             for rec in corpus.records for j, k in pairs[rec.record_id]]
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "pairs.csv").write_text(
            "record,soundtrack,photo\n" + "".join(f"{l}\n" for l in lines))
        print(f"wrote {len(lines)} pairs to {out_dir / 'pairs.csv'}")
    else:
        for line in lines:
            print(line)
    return 0


def cmd_train(args) -> int:
    opts = _Options(args)
    out = Path(opts.get("out", None) or _usage("--out is required"))
    load = _corpus_arg(opts, out)
    spec = _spec_arg(opts, grid=False)  # a usage error writes no corpus
    corpus = load()
    cell, result = run_cell(spec, corpus, FeatureStore(corpus), spec.cells()[0])

    out.mkdir(parents=True, exist_ok=True)
    save_model(out, result.model, cell.model, result.config, result.architecture)
    row = ReportRow(cell.model, cell.strategy, cell.samples_total, cell.accuracy,
                    cell.seed)
    report = format_report([row], matrices=[(f"{cell.model}/{cell.strategy}",
                                             cell.confusion)],
                           header=opts.header())
    (out / "report.txt").write_text(report)
    (out / "loss.csv").write_text(format_loss_trace(result.losses))
    print(f"test accuracy {cell.accuracy:.2f} over {cell.confusion.total} pairs; "
          f"checkpoint and report in {out}")
    return 0


def cmd_eval(args) -> int:
    opts = _Options(args)
    ckpt = opts.get("model", None)
    if not ckpt:
        raise UsageError("--model checkpoint path is required")
    model, cfg, meta = load_model(Path(ckpt))  # before corpus resolution
    out = opts.get("out", None)
    corpus = _corpus_arg(opts, Path(out) if out else None)()
    seed = opts.get("seed", 0, int)
    _, test_recs = stratified_split(list(corpus.records), seed=seed)
    test_pairs = {r.record_id: build_test_pairs(r) for r in test_recs}
    store = FeatureStore(corpus)
    confusion = evaluate(model, cfg, store, test_recs, test_pairs)
    acc = accuracy(confusion)
    row = ReportRow(meta["model"], "eval", confusion.total, acc, seed)
    report = format_report([row], matrices=[(meta["model"], confusion)],
                           header=opts.header())
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(report)
    print(f"test accuracy {acc:.2f} over {confusion.total} pairs")
    return 0


def cmd_experiment(args) -> int:
    opts = _Options(args)
    out = Path(opts.get("out", None) or _usage("--out is required"))
    load = _corpus_arg(opts, out)
    spec = _spec_arg(opts, grid=True)  # a usage error writes no corpus
    corpus = load()
    result = run_experiment(spec, corpus, extra_header=opts.header())
    write_outputs(result, out)
    sys.stdout.write("Mean over seeds:\n"
                     + format_report(result.aggregates))
    print(f"full report in {out / 'report.txt'}")
    return 0


def _usage(message: str):
    raise UsageError(message)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: _Parser, *names: str) -> None:
    specs = {
        "corpus": dict(help="corpus directory or manifest path"),
        "synthetic": dict(action="store_true",
                          help="generate a synthetic corpus under --out"),
        "records": dict(type=int, help="synthetic corpus size"),
        "corpus-seed": dict(type=int, help="synthetic corpus seed"),
        "seed": dict(help="seed (comma-separated list for experiment)"),
        "model": dict(help="model name or checkpoint path for eval"),
        "strategy": dict(help="pair sampling strategy"),
        "samples-per-record": dict(help="pairs sampled per record"),
        "epochs": dict(type=int), "batch": dict(type=int),
        "lr": dict(type=float), "smoothing": dict(type=float),
        "pretrain-steps": dict(type=int),
        "modality": dict(help="modality for cnn models (audio|visual)"),
        "audio-seconds": dict(type=float), "image-width": dict(type=int),
        "image-height": dict(type=int), "audio-separability": dict(type=float),
        "visual-separability": dict(type=float), "noise": dict(type=float),
        "out": dict(help="output directory"),
        "config": dict(help="key=value config file (flags take precedence)"),
    }
    for name in names:
        p.add_argument(f"--{name}", default=None, **specs[name])


def build_parser() -> _Parser:
    parser = _Parser(prog="pineq", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    defs = {
        "synth": (cmd_synth, "generate a synthetic corpus",
                  ["records", "seed", "out", "audio-seconds", "image-width",
                   "image-height", "audio-separability", "visual-separability",
                   "noise", "config"]),
        "preprocess": (cmd_preprocess, "save feature tensors for all media",
                       ["corpus", "synthetic", "records", "corpus-seed", "out",
                        "config"]),
        "split": (cmd_split, "stratified 4:1 record split",
                  ["corpus", "synthetic", "records", "corpus-seed", "seed",
                   "out", "config"]),
        "sample": (cmd_sample, "draw (soundtrack, photo) training pairs",
                   ["corpus", "synthetic", "records", "corpus-seed", "strategy",
                    "samples-per-record", "seed", "out", "config"]),
        "train": (cmd_train, "run one experiment cell and checkpoint its model",
                  ["corpus", "synthetic", "records", "corpus-seed", "model",
                   "modality", "strategy", "samples-per-record", "seed",
                   "epochs", "batch", "lr", "smoothing", "pretrain-steps",
                   "out", "config"]),
        "eval": (cmd_eval, "score a checkpoint on held-out records",
                 ["model", "corpus", "synthetic", "records", "corpus-seed",
                  "seed", "out", "config"]),
        "experiment": (cmd_experiment, "run the full evaluation grid",
                       ["corpus", "synthetic", "records", "corpus-seed",
                        "model", "modality", "strategy", "samples-per-record",
                        "seed", "epochs", "batch", "lr", "smoothing",
                        "pretrain-steps", "out", "config"]),
    }
    for name, (func, help_text, flags) in defs.items():
        p = sub.add_parser(name, prog=f"pineq {name}", help=help_text,
                           description=help_text)
        _add_common(p, *flags)
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and asks to exit 0
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        print("pineq: a subcommand is required", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (CorpusError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
