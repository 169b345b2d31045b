"""Classifier heads: prototypes, leave-one-out masking, KNN voting.

Shows the three ways this library scores an embedding:

- a prototype head (normalized per-class sums of prompt embeddings),
- the masked variant that removes one training sample from its own
  class prototype (used during training so a sample cannot vote for
  itself),
- temperature-weighted k-nearest-neighbor voting over a labeled bank.

Run: python demos/03_heads_and_knn.py
"""

import tempfile
from pathlib import Path

import numpy as np

from soupadapter import (KnnConfig, export_head, generate_synthetic,
                         head_logits, import_head, knn_logits,
                         leave_one_out_prototypes, sample_few_shot,
                         selection_prototypes)

train, id_test, _ = generate_synthetic(n_classes=5, dim=16, per_class=40,
                                       shift_angle=0.0, noise=0.25, seed=3)
selection = sample_few_shot(train, range(train.n), n_shot=8, seed=3)

# ---------------------------------------------------------------- prototypes
head, prompts = selection_prototypes(train, selection)
x = id_test.unit_features(0)[0]
logits = head_logits(head, x)
print("prototype head rows are unit vectors:",
      np.allclose(np.linalg.norm(head.weights, axis=1), 1.0))
print(f"logits for one test embedding: {np.round(logits, 2)}")
print(f"prediction: class {int(np.argmax(logits))} "
      f"(true class {int(id_test.labels[0])})")

# ------------------------------------------------------------------- masking
table = leave_one_out_prototypes(prompts)
moved = np.linalg.norm(table[0] - head.weights[0], axis=1)
print(f"\nclass 0 without each of its {len(moved)} samples moves its "
      f"prototype by: {np.round(moved, 4)}")

# ----------------------------------------------------------------------- knn
bank_idx = [i for cls in selection.indices for i in cls]
bank = train.unit_features(0, indices=bank_idx)
bank_labels = train.labels[np.asarray(bank_idx)]
votes = knn_logits(bank, bank_labels, x, KnnConfig(k=10, temperature=0.1))
print(f"\nknn votes (k=10, T=0.1): {np.round(votes, 2)}")
print(f"knn prediction: class {int(np.argmax(votes))}")

# ----------------------------------------------------------------- head file
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "head.shed"
    export_head(head, path)
    back = import_head(path)
    print(f"\nhead file round-trip: origin={back.origin!r}, "
          f"max row delta {np.max(np.abs(back.weights - head.weights)):.1e}")
