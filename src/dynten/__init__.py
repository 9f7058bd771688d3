"""dynten: tensor-decomposition embeddings for discrete-time dynamic networks.

The exported names load on first use (PEP 562), so ``import dynten`` and the
command-line parser do not import NumPy or SciPy until a name or command
needs them.
"""

import importlib

_EXPORTS = {
    "clustering": ("ClusterState", "anomaly_scores", "assign_clusters",
                   "classify_anomalies", "kmeans", "streaming_update",
                   "suggest_threshold"),
    "embed": ("DynEmbedConfig", "DynEmbedResult", "TemporalWeights",
              "adj_last_embedding", "adj_wt_embedding", "convolve_snapshots",
              "dynamic_embedding", "make_weights", "precondition",
              "res_last_embedding", "res_wt_embedding", "weighted_modes"),
    "graphs": ("ConvergenceError", "DynamicNetwork", "ReducibleChainError",
               "adjacency_from_edges", "align_snapshots", "degree_matrix",
               "katz_adjacency", "katz_omega_bound", "laplacian",
               "spectral_radius", "stationary_vector", "symmetrized_adjacency",
               "transition_matrix"),
    "io": ("load_dynamic_network", "load_embedding_csv",
           "write_dynamic_network", "write_embedding_csv"),
    "linkpred": ("EdgeSample", "auc_roc", "average_precision",
                 "evaluate_link_prediction", "holdout_split",
                 "sample_training_set"),
    "spectral": ("EigenPairs", "adjacency_embedding", "bottom_k_eigs",
                 "effective_resistance", "resistance_embedding", "top_k_eigs"),
    "synth": ("dynamic_er", "dynamic_sbm", "sbm_matched_er"),
    "tensors": ("AlsConfig", "CPModel", "DecompositionError", "SparseTensor3",
                "cp_als", "mttkrp", "ocp_als"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))
