"""dynten: tensor-decomposition embeddings for discrete-time dynamic networks."""

from .clustering import (ClusterState, anomaly_scores, assign_clusters,
                         classify_anomalies, kmeans, streaming_update,
                         suggest_threshold)
from .embed import (DynEmbedConfig, DynEmbedResult, TemporalWeights,
                    adj_last_embedding, adj_wt_embedding, convolve_snapshots,
                    dynamic_embedding, make_weights, precondition,
                    res_last_embedding, res_wt_embedding, weighted_modes)
from .graphs import (ConvergenceError, DynamicNetwork, ReducibleChainError,
                     adjacency_from_edges, align_snapshots, degree_matrix,
                     katz_adjacency, katz_omega_bound, laplacian,
                     spectral_radius, stationary_vector, symmetrized_adjacency,
                     transition_matrix)
from .io import (load_dynamic_network, load_embedding_csv,
                 write_dynamic_network, write_embedding_csv)
from .linkpred import (EdgeSample, auc_roc, average_precision, evaluate_link_prediction,
                       holdout_split, sample_training_set)
from .spectral import (EigenPairs, adjacency_embedding, bottom_k_eigs,
                       effective_resistance, resistance_embedding, top_k_eigs)
from .synth import dynamic_er, dynamic_sbm, sbm_matched_er
from .tensors import (AlsConfig, CPModel, DecompositionError, SparseTensor3,
                      cp_als, mttkrp, ocp_als)

__version__ = "0.1.0"
