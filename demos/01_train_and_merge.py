"""Train an ensemble of adapters and merge it into a single adapter.

Walks the core pipeline end to end on a synthetic benchmark:

1. generate a seeded spherical-mixture dataset,
2. draw randomized hyperparameters and train K independent components
   against a frozen prototype head,
3. average their outputs (the ensemble forward pass),
4. concatenate their weights into ONE adapter and check, on random
   probes, that the merged adapter reproduces the ensemble bit for bit
   (well, to 1e-10),
5. round-trip everything through the on-disk checkpoint format.

Run: python demos/01_train_and_merge.py
"""

import tempfile
from pathlib import Path

import numpy as np

from soupadapter import (Soup, generate_synthetic, leave_one_out_prototypes,
                         load_checkpoint, reparameterize, sample_few_shot,
                         sample_hyperconfig, save_checkpoint,
                         selection_prototypes, soup_forward, train_component,
                         verify_equivalence)
from soupadapter.adapter import adapter_forward

K = 8
SEED = 0

# ---------------------------------------------------------------- benchmark
# 10 classes on the 32-sphere, noisy samples, 16 labeled shots per class.
train, id_test, _ = generate_synthetic(n_classes=10, dim=32, per_class=100,
                                       shift_angle=0.3, noise=0.3, seed=SEED)
selection = sample_few_shot(train, range(train.n), n_shot=16, seed=SEED)
# one frozen prototype head for every component, and the leave-one-out
# table: one row per selected sample, in selection.flat() order, that
# keeps the sample out of its own class row while training
head, prompts = selection_prototypes(train, selection)
table = leave_one_out_prototypes(prompts)
print(f"benchmark: {train.n} train embeddings, dim {train.dim}, "
      f"{train.n_classes} classes, {selection.n_shot} shots per class")

# ----------------------------------------------------------------- training
# Each component gets its own seed and hyperparameters drawn from the
# documented grids; only `epochs` has no grid and is passed in
# (`dataclasses.replace(cfg, lr=1e-3)` would pin one drawn field).
components = []
for j in range(K):
    cfg = sample_hyperconfig(SEED, j, dim=train.dim, epochs=50)
    params, record = train_component(train, selection, head, cfg, table)
    components.append(params)
    print(f"  component {j}: red={cfg.red} lr={cfg.lr:g} wd={cfg.weight_decay:g} "
          f"H={params.hidden} final loss {record.final_loss:.3f} "
          f"({record.wall_time:.2f}s)")

# --------------------------------------------------------- ensemble = merge
soup = Soup(components=components)
merged = reparameterize(soup)
print(f"\nmerged adapter: hidden width {merged.hidden} "
      f"(= {' + '.join(str(c.hidden) for c in components)})")

worst = verify_equivalence(soup, trials=1000, tolerance=1e-10)
print(f"ensemble vs merged on 1000 random probes: worst |diff| = {worst:.2e}")

x = id_test.unit_features(0)[:5]
print("sample outputs agree:",
      np.allclose(soup_forward(soup, x), adapter_forward(merged, x),
                  atol=1e-12))

# -------------------------------------------------------------- checkpoints
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "merged.sada"
    save_checkpoint(path, merged, head.scale, {"kind": "merged", "k": K})
    reloaded, scale, meta = load_checkpoint(path)
    dev = verify_equivalence(soup, trials=200, tolerance=1e-4, merged=reloaded)
    print(f"after a 32-bit checkpoint round-trip: worst |diff| = {dev:.2e} "
          f"(tolerance 1e-4), trailer = {meta}")
