"""Desk-scale simulator for clustered federated learning with a distilled universal expert."""

from .aggregation import (
    GlsDistribution,
    GwfWeights,
    compute_gls,
    compute_gwf,
    global_average,
    intra_group_aggregate,
    sample_labels,
)
from .clustering import ClusterPartition, SimilarityMatrix, affinity_propagation, build_similarity_matrix
from .config import VARIANTS, DatasetConfig, DistillConfig, SimConfig, parse_config
from .data import Dataset, LabelHistogram, dirichlet_partition, make_synthetic_dataset
from .distill import PseudoBatch, iga_round, loss_cd, loss_cf, loss_div
from .errors import (
    ConfigError,
    DisueError,
    DivergenceError,
    InvalidInputError,
    InvalidStateError,
    PairingError,
)
from .nn import Classifier, Generator, Tensor, backward, cross_entropy, kl_divergence, softmax
from .orchestrator import Simulation, local_train, run_experiment, sample_active_clients
from .secure import MaskedParams, SecParams, ssc_compute, ssc_encrypt

__version__ = "0.1.0"
