"""Exception types shared across the package.

Faults in the input data and in the numerics raise one of these: a
malformed graph file or verify request (ParseError), a graph the
operation does not apply to, a solver or budget limit.  An argument
outside its range, such as m_max < 1 or a vertex outside 0..n-1, raises
a plain ValueError.  The CLI exits 2 on ParseError and ValueError and 1
on every other IharaLabError.
"""


class IharaLabError(Exception):
    """Base class for all package errors."""


class GraphError(IharaLabError):
    """Base class for graph construction and validation errors."""


class EmptyGraph(GraphError):
    """Raised when a graph with zero vertices is requested or loaded."""


class DisconnectedGraph(GraphError):
    """Raised when an operation requires a connected graph."""


class UnknownName(GraphError):
    """Raised for an unrecognized named-graph identifier."""


class DegreeTooSmall(GraphError):
    """Raised when q is too small: the spectral angle and q^{-m/2} need q >= 1, average-nm's main terms q >= 2."""


class NotRegular(GraphError):
    """Raised when a regularity certificate is requested for an irregular graph.

    Carries the two offending degrees when available.
    """

    def __init__(self, message, degrees=None):
        super().__init__(message)
        self.degrees = degrees


class ParseError(IharaLabError):
    """Raised on a malformed graph file or verify request; may carry a 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class InvalidPrime(IharaLabError):
    """Raised when a Cayley-graph parameter is not an admissible prime."""


class NoSquareRoot(IharaLabError):
    """Raised when a modular square root does not exist."""


class GroupSizeMismatch(IharaLabError):
    """Raised when the constructed Cayley graph disagrees with the predicted group order or degree."""


class EigensolverFailure(IharaLabError):
    """Raised when the dense symmetric eigensolver does not converge."""


class ClusterAmbiguity(IharaLabError):
    """Raised when adjacent eigenvalues are too close to cluster reliably.

    The gap falls inside the ambiguous window [tol, 10*tol) where neither
    merging nor splitting is defensible; re-run with a different tolerance.
    The quotient route also raises it when its multiplicities are not
    integers within tol or do not sum to n.
    """

    def __init__(self, message, gap=None, tol=None):
        super().__init__(message)
        self.gap = gap
        self.tol = tol


class OutOfRange(IharaLabError):
    """Raised when an eigenvalue lies outside the admissible interval, or a value past the float range is rounded."""


class NotRamanujan(IharaLabError):
    """Raised when an operation assumes all nontrivial eigenvalues are bounded by 2*sqrt(q) and one is not."""


class DepthExceeded(IharaLabError):
    """Raised when an enumeration or elimination would exceed its depth or step budget."""


class AngleConditionViolated(IharaLabError):
    """Raised when a spectral angle is a rational multiple of pi that voids a limit statement."""
