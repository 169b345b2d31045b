"""Adapter ensembles over frozen embeddings, mergeable into one adapter.

The library trains small residual MLP adapters on top of precomputed
unit-norm feature vectors, combines independently trained components by
output averaging, rewrites the ensemble as a single adapter through
hidden-layer concatenation, and evaluates accuracy and distribution-shift
robustness as a function of the residual ratio.

The names below are imported from their modules when first read (PEP
562), so importing the package loads no numpy: the command line (see
__main__) must pin OpenBLAS's thread count before numpy loads it.
"""

import importlib

_EXPORTS = {
    "adapter": ("AdapterParams", "HyperConfig", "TrainRecord",
                "adapter_backward", "adapter_forward", "blend",
                "init_adapter", "load_checkpoint", "sample_hyperconfig",
                "save_checkpoint", "train_component"),
    "dataio": ("ContainerReader", "ContainerWriter", "EmbeddingSet",
               "FewShotSelection", "Manifest", "generate_synthetic",
               "read_container", "read_manifest", "sample_few_shot",
               "write_container", "write_manifest"),
    "evalkit": ("EvalReport", "SweepRow", "component_average_report",
                "knn_accuracy", "ratio_sweep", "read_report",
                "robustness_report", "write_report"),
    "heads": ("ClassifierHead", "KnnConfig", "build_prototypes",
              "export_head", "head_logits", "import_head",
              "knn_logits_batch", "leave_one_out_prototypes",
              "selection_prototypes"),
    "numerics": ("OptimState", "adamw_step",
                 "cross_entropy_label_smoothing_batch", "gelu", "gelu_grad",
                 "normalize_rows"),
    "soup": ("Soup", "load_soup", "reparameterize", "soup_forward",
             "verify_equivalence"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_HOME])
