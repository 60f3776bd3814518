"""Exception types raised by the clustersqueeze library."""


class ClusterSqueezeError(Exception):
    """Base class for all library-specific errors."""


class NotSymmetric(ClusterSqueezeError):
    pass


class NotHermitian(ClusterSqueezeError):
    pass


class NotOrthogonal(ClusterSqueezeError):
    pass


class NotPositiveDefinite(ClusterSqueezeError):
    pass


class SingularInput(ClusterSqueezeError):
    """The matrix is singular (or too close to singular) for the requested
    operation; a squeezing interaction matrix must be non-singular."""


class DomainError(ClusterSqueezeError):
    """A scalar function is undefined on part of a spectrum, or a parameter
    lies outside the numerically representable range."""


class DimensionMismatch(ClusterSqueezeError):
    pass


class GaugeIncompatible(NotSymmetric):
    """The positive-definite gauge factor does not satisfy the reality
    condition, so the resulting interaction matrix would not be symmetric."""


class SingularPhasePoint(ClusterSqueezeError):
    """The local phases do not regularize the inverse relation between a
    structure unitary and an adjacency matrix."""


class NonRealResult(ClusterSqueezeError):
    """A matrix that should be real carries an imaginary residual above
    tolerance, signalling an invalid input."""


class GraphFormatError(ClusterSqueezeError):
    """Base class for graph-file format violations."""


class ParseError(GraphFormatError):
    pass


class DuplicateEdge(GraphFormatError):
    pass


class IndexOutOfRange(GraphFormatError):
    pass


class OracleMismatch(ClusterSqueezeError):
    """Closed-form and brute-force covariance paths disagree beyond the
    comparison tolerance."""
