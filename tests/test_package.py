import sys

import pytest

import dynten

EXPORTS = [
    "AlsConfig", "CPModel", "ClusterState", "ConvergenceError", "DecompositionError",
    "DynEmbedConfig", "DynEmbedResult", "DynamicNetwork", "EdgeSample", "EigenPairs",
    "ReducibleChainError", "SparseTensor3", "TemporalWeights", "adj_last_embedding",
    "adj_wt_embedding", "adjacency_embedding", "adjacency_from_edges", "align_snapshots",
    "anomaly_scores", "assign_clusters", "auc_roc", "average_precision", "bottom_k_eigs",
    "classify_anomalies", "convolve_snapshots", "cp_als", "degree_matrix", "dynamic_embedding",
    "dynamic_er", "dynamic_sbm", "effective_resistance", "evaluate_link_prediction",
    "holdout_split", "katz_adjacency", "katz_omega_bound", "kmeans", "laplacian",
    "load_dynamic_network", "load_embedding_csv", "make_weights", "mttkrp", "ocp_als",
    "precondition", "res_last_embedding", "res_wt_embedding", "resistance_embedding",
    "sample_training_set", "sbm_matched_er", "spectral_radius", "stationary_vector",
    "streaming_update", "suggest_threshold", "symmetrized_adjacency", "top_k_eigs",
    "transition_matrix", "weighted_modes", "write_dynamic_network", "write_embedding_csv",
]


def test_exports_are_pinned():
    assert len(EXPORTS) == 58
    assert sorted(dynten.__all__) == EXPORTS
    assert dynten.__version__ == "0.1.0"


def test_each_export_is_its_defining_modules_object():
    for name in EXPORTS:
        obj = getattr(dynten, name)
        assert obj.__module__.startswith("dynten."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_dir_and_star_import_list_every_export():
    assert set(EXPORTS) <= set(dir(dynten))
    namespace = {}
    exec("from dynten import *", namespace)
    assert set(EXPORTS) <= namespace.keys()
    assert all(namespace[name] is getattr(dynten, name) for name in EXPORTS)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        dynten.no_such_name
