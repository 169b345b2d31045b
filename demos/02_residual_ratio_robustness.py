"""Residual-ratio sweeps: in-distribution accuracy vs robustness to shift.

The residual ratio r interpolates between the frozen embedding (r=0) and
the adapted feature (r=1): f = normalize(x + r * a). This demo trains an
ensemble, then sweeps r from 0 to 1 in 0.1 steps on an in-distribution
test set and on a label-preserving shifted set, printing the (ID, OOD)
curve for the merged ensemble next to the mean over its components; both
are scored together in one report, with the same splits. The ensemble
curve is flatter: it depends less on getting r exactly right.

Run: python demos/02_residual_ratio_robustness.py
"""

from soupadapter import (Soup, generate_synthetic, leave_one_out_prototypes,
                         reparameterize, robustness_report, sample_few_shot,
                         sample_hyperconfig, selection_prototypes,
                         train_component, write_report)
from soupadapter.evalkit import DEFAULT_GRID

SEED = 1
K = 8

train, id_test, ood_test = generate_synthetic(n_classes=10, dim=32,
                                              per_class=100, shift_angle=0.3,
                                              noise=0.3, seed=SEED)
selection = sample_few_shot(train, range(train.n), n_shot=16, seed=SEED)
head, prompts = selection_prototypes(train, selection)
table = leave_one_out_prototypes(prompts)

components = []
for j in range(K):
    cfg = sample_hyperconfig(SEED, j, dim=train.dim, epochs=50)
    components.append(train_component(train, selection, head, cfg, table)[0])

# the merged adapter and its components, scored from one hidden layer; the
# "ood" rows are the mean over the shifted sets (here the one "shifted")
report = robustness_report(reparameterize(Soup(components)), components,
                           head, id_test, {"shifted": ood_test},
                           grid=DEFAULT_GRID)

print(f"bare-head baseline: id={report.baselines['id']['head']:.3f} "
      f"ood={report.baselines['ood']['head']:.3f}\n")
print("   r   soup id  soup ood   mean-component id  mean-component ood")
soup_id = report.accuracies("soup", "id")
soup_ood = report.accuracies("soup", "ood")
comp_id = report.accuracies("component_mean", "id")
comp_ood = report.accuracies("component_mean", "ood")
for r in DEFAULT_GRID:
    r = float(r)
    print(f"  {r:.1f}   {soup_id[r]:.3f}    {soup_ood[r]:.3f}      "
          f"{comp_id[r]:.3f}              {comp_ood[r]:.3f}")

best_r = max(soup_id, key=soup_id.get)
print(f"\nbest ID ratio for the soup: r={best_r:.1f} "
      f"(id {soup_id[best_r]:.3f}, ood {soup_ood[best_r]:.3f})")
drop_soup = max(soup_id.values()) - soup_id[1.0]
drop_comp = max(comp_id.values()) - comp_id[1.0]
print(f"accuracy lost by running at r=1.0 instead of the best r: "
      f"soup {100 * drop_soup:.1f}pp vs mean component {100 * drop_comp:.1f}pp")

write_report(report, "robustness_report.csv", "csv")
write_report(report, "robustness_report.json", "json")
print("\nwrote robustness_report.csv / robustness_report.json "
      "(columns: model,split,r,accuracy)")
