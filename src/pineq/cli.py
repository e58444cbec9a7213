"""Command-line entry point.

One batch-oriented tool with six subcommands::

    synth       materialize a synthetic audiovisual corpus on disk
    split       stratified 4:1 record split
    sample      draw (soundtrack, photo) training pairs per record
    train       run one experiment cell and checkpoint its model and report
    eval        score a saved checkpoint on a corpus' held-out records
    experiment  run the full (model x strategy x S x seed) grid

Exit codes: 0 success, 1 usage error, 2 data error (missing or malformed
files, infeasible sampling, shape mismatches). Diagnostics go to stderr;
results go to stdout and to ``--out`` files. ``--config`` names a plain
``key=value`` file whose entries fill in any flags not given explicitly
(flags win), and the effective values are echoed into report headers; a
key that is not an option of the command is a usage error.
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
from .corpus import (
    Corpus,
    CorpusError,
    SyntheticConfig,
    generate_synthetic,
    load_corpus,
    sample_corpus_pairs,
    stratified_split,
)
from .experiment import (
    STRATEGIES,
    ExperimentSpec,
    draw_cell,
    held_out,
    run_cell,
    run_experiment,
    write_outputs,
)
from .training import (
    FeatureStore,
    ReportRow,
    TrainConfig,
    TrainResult,
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


# casts for _Options.get, which reports their ValueError as a usage error
def _csv_strs(text: str) -> List[str]:
    items = [t.strip() for t in str(text).split(",") if t.strip()]
    if not items:
        raise ValueError("empty list")
    return items


def _csv_ints(text: str) -> List[int]:
    return [int(t) for t in _csv_strs(text)]


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
        key, value = (part.strip() for part in line.split("=", 1))
        if key in mapping:
            raise UsageError(f"{path}:{lineno}: repeats key {key!r}: {raw!r}")
        mapping[key] = value
    return mapping


class _Options:
    """Flag > config-file > default resolution with provenance echo."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = read_config(args.config) if getattr(args, "config", None) else {}
        self.effective: Dict[str, str] = {}
        options = [k.replace("_", "-") for k in vars(args)
                   if k not in ("command", "func", "config")]
        unknown = [k for k in self.config if k not in options]
        if unknown:
            raise UsageError(f"{args.config}: not an option of pineq {args.command}: "
                             f"{', '.join(unknown)}; its options are {', '.join(options)}")

    def get(self, name: str, default, cast=None, valid=None):
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is None and name in self.config:
            value = self.config[name]
        if value is None:
            value = default
        if value is not None and cast is not None:
            try:
                value = cast(value)
                if valid is not None and not valid(value):
                    raise ValueError(value)
            except (TypeError, ValueError) as exc:
                raise UsageError(f"invalid value for --{name}: {value!r}") from exc
        self.effective[name] = value
        return value

    def out(self, required: bool) -> Optional[Path]:
        """The --out directory; a usage error if ``required`` and not given."""
        value = self.get("out", None)
        if not value and required:
            raise UsageError("--out is required")
        return Path(value) if value else None

    def header(self) -> List[str]:
        lines = []
        for key, value in self.effective.items():
            if value is None or key in ("out", "config"):
                continue
            if isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key}: {value}")
        return lines


def _corpus_arg(opts: _Options) -> Callable[[], Corpus]:
    """Resolve --corpus, a corpus directory or its manifest, into a loader of
    the Corpus.

    The flag is read (and echoed) now; nothing is read until the loader is
    called, so a caller can validate its other flags first.
    """
    corpus_path = opts.get("corpus", None)
    if not corpus_path:
        raise UsageError("--corpus is required")
    path = Path(corpus_path)
    if path.is_dir():
        path = path / "manifest.txt"
    return partial(load_corpus, path)


def _config(cls, **values):
    """Build a config dataclass; its ValueError is a usage error."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _spec_arg(opts: _Options, grid: bool) -> ExperimentSpec:
    """Resolve the grid and training flags into an ExperimentSpec.

    With ``grid`` the model/strategy/samples/seed flags take comma lists;
    without it each takes one value and the spec holds exactly one cell.
    """
    if grid:
        strs, ints = _csv_strs, _csv_ints
    else:
        strs, ints = (lambda t: [t]), (lambda t: [int(t)])
    return _config(
        ExperimentSpec,
        models=tuple(opts.get("model", "crossmodal", strs)),
        strategies=tuple(opts.get("strategy", "random", strs)),
        samples_per_record=tuple(opts.get("samples-per-record", "8", ints)),
        seeds=tuple(opts.get("seed", "0", ints)),
        epochs=opts.get("epochs", 10, int),
        batch=opts.get("batch", 16, int),
        lr=opts.get("lr", 1e-3, float),
        smoothing=opts.get("smoothing", 0.1, float),
        pretrain_steps=opts.get("pretrain-steps", 0, int),
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_model(out: Path, result: TrainResult) -> Path:
    """Write weights (PQCT + index) and a JSON sidecar naming the model and
    its architecture."""
    ckpt = out / "model.ckpt"
    tensorio.save_checkpoint(ckpt, result.model.state_dict())
    arch = result.architecture
    arch = dataclasses.asdict(arch) if dataclasses.is_dataclass(arch) else dict(arch or {})
    meta = {"model": result.config.model, "architecture": arch}
    ckpt.with_suffix(".json").write_text(json.dumps(meta, indent=2) + "\n")
    return ckpt


def load_model(ckpt_path: Path):
    """Rebuild the model the sidecar names and load the weights."""
    state = tensorio.load_checkpoint(ckpt_path)  # missing file -> data error
    sidecar = ckpt_path.with_suffix(".json")
    try:
        meta = json.loads(sidecar.read_text())
        missing = [k for k in ("model", "architecture") if k not in meta]
        if missing:
            raise ValueError(f"missing {', '.join(missing)}")
        cfg = TrainConfig(model=meta["model"])
        model = build_model(cfg, np.random.default_rng(0), meta["architecture"])
        model.load_state_dict(state)
    except (KeyError, TypeError, ValueError) as exc:
        # malformed JSON, missing keys, bad values, or weights that do not fit
        # the architecture (a KeyError, whose str() would quote its message)
        reason = exc.args[0] if isinstance(exc, KeyError) else exc
        raise ValueError(f"{sidecar}: {reason} (weights {ckpt_path})") from exc
    return model, cfg


def _write(out: Path, name: str, text: str) -> None:
    """Write one text output under ``out``, creating the directory."""
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(opts: _Options) -> int:
    out = opts.out(required=True)
    cfg = _config(
        SyntheticConfig,
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


def cmd_split(opts: _Options) -> int:
    out = opts.out(required=False)
    load = _corpus_arg(opts)
    seed = opts.get("seed", 0, int, lambda s: s >= 0)
    corpus = load()
    train_recs, test_recs = stratified_split(list(corpus.records), seed=seed)
    if out:
        _write(out, "train.txt", "".join(f"{r.record_id}\n" for r in train_recs))
        _write(out, "test.txt", "".join(f"{r.record_id}\n" for r in test_recs))
        print(f"wrote {len(train_recs)} train / {len(test_recs)} test ids to {out}")
    else:
        for r in train_recs:
            print(f"train {r.record_id}")
        for r in test_recs:
            print(f"test {r.record_id}")
    return 0


def cmd_sample(opts: _Options) -> int:
    out = opts.out(required=False)
    load = _corpus_arg(opts)
    strategy = opts.get("strategy", "random", str, STRATEGIES.__contains__)
    samples = opts.get("samples-per-record", 8, int, lambda s: s >= 1)
    seed = opts.get("seed", 0, int, lambda s: s >= 0)
    corpus = load()
    pairs = sample_corpus_pairs(list(corpus.records), strategy, samples, seed=seed)
    lines = [f"{rec.record_id},{j},{k}"
             for rec in corpus.records for j, k in pairs[rec.record_id]]
    if out:
        _write(out, "pairs.csv",
               "record,soundtrack,photo\n" + "".join(f"{l}\n" for l in lines))
        print(f"wrote {len(lines)} pairs to {out / 'pairs.csv'}")
    else:
        for line in lines:
            print(line)
    return 0


def cmd_train(opts: _Options) -> int:
    out = opts.out(required=True)
    load = _corpus_arg(opts)
    spec = _spec_arg(opts, grid=False)  # a usage error wins over a bad corpus
    corpus = load()
    (key,) = spec.cells()
    cell, result = run_cell(spec, FeatureStore(corpus), key, draw_cell(corpus, key))

    row = ReportRow(cell.model, cell.strategy, cell.samples_total, cell.accuracy,
                    cell.seed)
    report = format_report([row], matrices=[(f"{cell.model}/{cell.strategy}",
                                             cell.confusion)],
                           header=opts.header())
    _write(out, "report.txt", report)
    _write(out, "loss.csv", format_loss_trace(result.losses))
    save_model(out, result)
    print(f"test accuracy {cell.accuracy:.2f} over {cell.confusion.total} pairs; "
          f"checkpoint and report in {out}")
    return 0


def cmd_eval(opts: _Options) -> int:
    ckpt = opts.get("model", None)
    if not ckpt:
        raise UsageError("--model checkpoint path is required")
    model, cfg = load_model(Path(ckpt))  # before corpus resolution
    out = opts.out(required=False)
    load = _corpus_arg(opts)
    seed = opts.get("seed", 0, int, lambda s: s >= 0)
    corpus = load()
    _, test_recs, test_pairs = held_out(corpus, seed)
    confusion = evaluate(model, cfg, FeatureStore(corpus), test_recs, test_pairs)
    acc = accuracy(confusion)
    row = ReportRow(cfg.model, "eval", confusion.total, acc, seed)
    report = format_report([row], matrices=[(cfg.model, confusion)],
                           header=opts.header())
    if out:
        _write(out, "report.txt", report)
    print(f"test accuracy {acc:.2f} over {confusion.total} pairs")
    return 0


def cmd_experiment(opts: _Options) -> int:
    out = opts.out(required=True)
    load = _corpus_arg(opts)
    spec = _spec_arg(opts, grid=True)  # a usage error wins over a bad corpus
    corpus = load()
    result = run_experiment(spec, corpus, extra_header=opts.header())
    write_outputs(result, out)
    sys.stdout.write("Mean over seeds:\n"
                     + format_report(result.aggregates))
    print(f"full report in {out / 'report.txt'}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: _Parser, *names: str) -> None:
    specs = {
        "corpus": dict(help="corpus directory or manifest path"),
        "records": dict(help="synthetic corpus size"),
        "seed": dict(help="seed (comma-separated list for experiment)"),
        "model": dict(help="model name or checkpoint path for eval"),
        "strategy": dict(help="pair sampling strategy"),
        "samples-per-record": dict(help="pairs sampled per record"),
        "out": dict(help="output directory"),
        "config": dict(help="key=value config file (flags take precedence)"),
    }
    for name in names:  # values stay strings; _Options.get casts and checks them
        p.add_argument(f"--{name}", default=None, **specs.get(name, {}))


def build_parser() -> _Parser:
    parser = _Parser(prog="pineq", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    defs = {
        "synth": (cmd_synth, "generate a synthetic corpus",
                  ["records", "seed", "out", "audio-seconds", "image-width",
                   "image-height", "audio-separability", "visual-separability",
                   "noise", "config"]),
        "split": (cmd_split, "stratified 4:1 record split",
                  ["corpus", "seed", "out", "config"]),
        "sample": (cmd_sample, "draw (soundtrack, photo) training pairs",
                   ["corpus", "strategy", "samples-per-record", "seed", "out",
                    "config"]),
        "train": (cmd_train, "run one experiment cell and checkpoint its model",
                  ["corpus", "model", "strategy", "samples-per-record", "seed",
                   "epochs", "batch", "lr", "smoothing", "pretrain-steps", "out",
                   "config"]),
        "eval": (cmd_eval, "score a checkpoint on held-out records",
                 ["model", "corpus", "seed", "out", "config"]),
        "experiment": (cmd_experiment, "run the full evaluation grid",
                       ["corpus", "model", "strategy", "samples-per-record",
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
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            raise UsageError("pineq: a subcommand is required")
        return args.func(_Options(args))
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and asks to exit 0
        return int(exc.code or 0)
    except (CorpusError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
