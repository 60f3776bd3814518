"""Squeezing transformations for weighted-graph Gaussian cluster states.

For any real symmetric adjacency matrix the library constructs the
multi-mode squeezing transformation whose output state approximates the
corresponding cluster state, computes the nullifier covariance in closed
form, reduces the transformation to single-mode squeezers plus
interferometers, and verifies every result against a brute-force path
from one eigendecomposition of the flow's generator.
"""

from .analysis import (
    ClusterRecovery,
    adjacency_from_unitary,
    analyze_interaction,
    find_regular_phases,
    regularity_margin,
)
from .battery import SweepPoint, convergence_sweep
from .blochmessiah import (
    BlochMessiahFactors,
    bloch_messiah,
    canonical_cluster_interferometer,
    cluster_condition_residual,
)
from .errors import (
    ClusterSqueezeError,
    DimensionMismatch,
    DomainError,
    DuplicateEdge,
    GaugeIncompatible,
    GraphFormatError,
    IndexOutOfRange,
    NonRealResult,
    NotHermitian,
    NotOrthogonal,
    NotPositiveDefinite,
    NotSymmetric,
    OracleMismatch,
    ParseError,
    SingularInput,
    SingularPhasePoint,
)
from .graphs import (
    adjacency_matrix,
    format_graph,
    parse_graph,
    phase_vector,
)
from .matfun import polar_decompose_symmetric
from .oracle import covariance_oracle
from .synthesis import (
    BogoliubovPair,
    ClusterPlan,
    CovarianceReport,
    InteractionMatrix,
    SqueezerMode,
    bogoliubov_from_interaction,
    covariance_closed_form,
    squeezer_spectrum,
    unitary_from_adjacency,
)

__version__ = "0.1.0"

__all__ = [
    "BlochMessiahFactors",
    "BogoliubovPair",
    "ClusterPlan",
    "ClusterRecovery",
    "ClusterSqueezeError",
    "CovarianceReport",
    "DimensionMismatch",
    "DomainError",
    "DuplicateEdge",
    "GaugeIncompatible",
    "GraphFormatError",
    "IndexOutOfRange",
    "InteractionMatrix",
    "NonRealResult",
    "NotHermitian",
    "NotOrthogonal",
    "NotPositiveDefinite",
    "NotSymmetric",
    "OracleMismatch",
    "ParseError",
    "SingularInput",
    "SingularPhasePoint",
    "SqueezerMode",
    "SweepPoint",
    "adjacency_from_unitary",
    "adjacency_matrix",
    "analyze_interaction",
    "bloch_messiah",
    "bogoliubov_from_interaction",
    "canonical_cluster_interferometer",
    "cluster_condition_residual",
    "convergence_sweep",
    "covariance_closed_form",
    "covariance_oracle",
    "find_regular_phases",
    "format_graph",
    "parse_graph",
    "phase_vector",
    "polar_decompose_symmetric",
    "regularity_margin",
    "squeezer_spectrum",
    "unitary_from_adjacency",
]
