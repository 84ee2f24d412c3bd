"""Decentralized SGD over a wireless random-access broadcast channel.

A deterministic simulator and analysis toolkit for D-SGD where agents
broadcast model updates under slotted-ALOHA-style random access with
success-or-collision reception. The central quantity of interest is the
access probability: the value maximizing expected per-slot throughput
nearly coincides with the value minimizing the consensus spectral radius,
and this package provides both sides of that comparison plus the full
training loop over non-IID local datasets.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    DomainError,
    EdgeListError,
    GenerationError,
    GraphError,
    InvalidLinkError,
    RadsgdError,
)
from .mac import (
    AccessPolicy,
    brute_force_expected_throughput,
    decoding_links,
    expected_throughput,
    link_success_prob,
    optimal_access_probability,
    sample_broadcast,
    success_probability_matrix,
    throughput_derivative,
    transmission_matrix,
)
from .mixing import (
    base_weight_matrix,
    compensate,
    consensus_rate,
    default_epsilon,
    expected_weight_matrix,
    mask_by_transmission,
    mix_slot,
    spectral_optimal_probability,
    spectral_radius,
)
from .topology import (
    Graph,
    complete,
    erdos_renyi,
    from_edge_list,
    ring,
    to_edge_list,
)

__version__ = "0.1.0"

# The training stack, resolved on first use: importing radsgd, or running
# analyze or topology, never loads radsgd.learning.
_LEARNING = (
    "LocalDataset", "MetricTrace", "TaskSpec", "classification_task", "dsgd_step",
    "generate_classification_data", "generate_regression_data", "local_gradient",
    "regression_task", "train",
)
__all__ = sorted(
    [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + list(_LEARNING)
)


def __getattr__(name):
    if name in _LEARNING:
        from . import learning

        value = globals()[name] = getattr(learning, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LEARNING))
