"""Train a small audio classifier end to end on synthetic data.

Generates a corpus, splits it by fruit, samples soundtrack/photo pairs,
fits the compact convolutional model for a few epochs, and prints the
loss trace plus a held-out evaluation with its confusion matrix.
"""

import tempfile
from pathlib import Path

from pineq.corpus import (
    SyntheticConfig,
    build_test_pairs,
    generate_synthetic,
    sample_corpus_pairs,
    stratified_split,
)
from pineq.training import (
    FeatureStore,
    ReportRow,
    TrainConfig,
    accuracy,
    evaluate,
    format_report,
    train,
)

tmp = Path(tempfile.mkdtemp(prefix="fruit_train_"))
corpus = generate_synthetic(
    SyntheticConfig(records=16, seed=11, audio_seconds=0.3,
                    image_width=48, image_height=36), tmp)
store = FeatureStore(corpus)  # lazy per-file feature cache

train_recs, test_recs = stratified_split(corpus.records, seed=0)
pairs = sample_corpus_pairs(train_recs, "random", 4, seed=0)
print(f"{len(train_recs)} train records x 4 pairs = "
      f"{sum(len(v) for v in pairs.values())} training examples")

cfg = TrainConfig(model="cnn-audio", epochs=8, batch=4, seed=1)
result = train(store, train_recs, pairs, cfg,
               architecture={"embed_dim": 16, "head_hidden": 16})
print("epoch losses:")
for i, loss in enumerate(result.losses, 1):
    print(f"  {i:2d}  {loss:.4f}")

test_pairs = {r.record_id: build_test_pairs(r) for r in test_recs}
matrix = evaluate(result.model, cfg, store, test_recs, test_pairs)
row = ReportRow(model=cfg.model, strategy="random",
                samples=sum(len(v) for v in pairs.values()),
                accuracy=accuracy(matrix), seed=1)
print()
print(format_report([row], matrices=[(f"{cfg.model} on held-out fruit", matrix)]))
