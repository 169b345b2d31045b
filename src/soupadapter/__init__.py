"""Adapter ensembles over frozen embeddings, mergeable into one adapter.

The library trains small residual MLP adapters on top of precomputed
unit-norm feature vectors, combines independently trained components by
output averaging, rewrites the ensemble as a single adapter through
hidden-layer concatenation, and evaluates accuracy and distribution-shift
robustness as a function of the residual ratio.
"""

from .adapter import (AdapterParams, HyperConfig, TrainRecord,
                      adapter_backward, adapter_forward, blend,
                      init_adapter, load_checkpoint, mask_strategy_for_shots,
                      sample_hyperconfig, save_checkpoint, train_component)
from .dataio import (EmbeddingSet, FewShotSelection, Manifest,
                     generate_synthetic, read_container, read_manifest,
                     sample_few_shot, write_container, write_manifest)
from .evalkit import (EvalReport, SweepRow, accuracy,
                      component_average_report, knn_accuracy, ratio_sweep,
                      read_report, robustness_report, write_report)
from .heads import (ClassifierHead, KnnConfig, build_prototypes,
                    export_head, head_logits, import_head, knn_logits,
                    leave_one_out_prototypes, selection_prototypes)
from .numerics import (OptimState, adamw_step,
                       cross_entropy_label_smoothing_batch,
                       finite_difference_check, gelu, gelu_grad,
                       normalize_rows, softmax)
from .soup import (Soup, load_soup, reparameterize, soup_forward,
                   verify_equivalence)

__version__ = "0.1.0"
