"""Run a small model x strategy x sample-budget experiment grid.

Every cell re-splits the corpus, samples training pairs under its
strategy, trains from its seed, and scores the fixed held-out pair grid.
The result bundles per-seed rows, seed-averaged aggregates, merged
confusion matrices, and per-cell loss traces, all byte-reproducible.

The cells are split over the CPUs of this process, at most two, like an
op's samples (on one CPU, they run one after another). They share one
feature store: a store passed warm to run_experiment(store=...) is read,
not decoded again, and the store holds one array per media file however
many cells read it.
"""

import tempfile
from pathlib import Path

from pineq.corpus import SyntheticConfig, generate_synthetic
from pineq.experiment import ExperimentSpec, run_experiment, write_outputs

tmp = Path(tempfile.mkdtemp(prefix="fruit_exp_"))
corpus = generate_synthetic(
    SyntheticConfig(records=8, seed=17, audio_seconds=0.25,
                    image_width=32, image_height=24), tmp / "corpus")

spec = ExperimentSpec(
    models=("cnn-audio", "cnn-visual"),  # the two single-stream baselines
    strategies=("random", "audio-major"),
    samples_per_record=(2, 4),
    seeds=(0, 1),
    epochs=2,
    batch=4,
)
# small architectures keep this demo quick; drop the override to use the
# full-size models
small = {"embed_dim": 8, "head_hidden": 6}
result = run_experiment(spec, corpus, architectures={m: small for m in spec.models})
print(result.report_text())

out = tmp / "results"
files = write_outputs(result, out)
print(f"wrote {len(files)} files to {out}:")
for path in files:
    print("   ", path.name)
