"""Exception types raised across the package.

Every error inherits from :class:`FlowRecError` so callers can catch the
package's failures with a single except clause.  Validation problems
(bad structure, bad arguments, bad files) and solver problems (divergence,
infeasibility) are kept as distinct subtrees because the command line maps
them to different exit codes.
"""


class FlowRecError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FlowRecError):
    """Structurally invalid input: networks, vectors, parameters, files."""


class SolverError(FlowRecError):
    """A numerical routine failed to produce a usable answer."""


# --- network structure ------------------------------------------------------

class DanglingEdge(ValidationError):
    """An edge references a node that is not declared."""


class BrokenPath(ValidationError):
    """A path is empty, does not chain tail-to-head, or repeats a node."""


class DuplicateId(ValidationError):
    """A node name, edge pair, or path edge-sequence appears twice."""


class UnknownIndex(ValidationError):
    """A node, edge, or path index is out of range."""


class UnknownEdge(ValidationError):
    """The referenced edge does not exist in the network."""


class UnknownComponent(ValidationError):
    """A component reference does not resolve to a node, edge, or path."""


class EdgeExists(ValidationError):
    """The edge being added is already present."""


# --- data ------------------------------------------------------------------

class DimensionMismatch(ValidationError):
    """A vector's length does not match the network's component count."""


class BadParameter(ValidationError):
    """A numeric or enum parameter is outside its allowed range."""


class IoFailure(ValidationError):
    """A file could not be read, parsed, or written."""


# --- solvers ----------------------------------------------------------------

class NotPositiveDefinite(SolverError):
    """The matrix is not symmetric positive definite."""


class RankDeficient(SolverError):
    """A constraint matrix does not have full row rank."""


class NoConvergence(SolverError):
    """An iterative solver exhausted its iteration budget."""


class Infeasible(SolverError):
    """The constraints admit no feasible point."""


class Unbounded(SolverError):
    """The objective can be driven to negative infinity."""


class CyclingDetected(SolverError):
    """The LP solver exceeded its simplex pivot budget."""


class SolveFailure(SolverError):
    """A solver failed for a reason not covered by a finer category."""


class NonSmoothLoss(ValidationError):
    """The requested loss cannot be handled by the smooth-descent route."""


class NoAffectedPaths(ValidationError):
    """An edge update was requested with no paths using the edge."""


class Disconnected(SolverError):
    """Removing an edge left an origin-destination pair with no route."""


class InfeasibleTopology(SolverError):
    """Random network generation could not satisfy its constraints."""
