"""Exception types shared across the package."""


class InsetEdgeError(Exception):
    """Base class for all library errors."""


class MalformedLine(InsetEdgeError):
    """Edge-list line is not a header or a 'u v' pair."""


class NotATree(InsetEdgeError):
    """Edge set is not a tree (wrong count, cycle, or disconnection)."""


class DuplicateEdge(InsetEdgeError):
    """Same unordered edge listed twice."""


class IdOutOfRange(InsetEdgeError):
    """Vertex id outside 0..n-1."""


class SameVertex(InsetEdgeError):
    """Operation requires two distinct vertices."""


class AdjacentPair(InsetEdgeError):
    """Operation requires a non-adjacent vertex pair."""


class Disconnected(InsetEdgeError):
    """Graph is not connected."""


class KTooSmall(InsetEdgeError):
    """Cycle length below 3."""


class OutOfDomain(InsetEdgeError):
    """Numeric argument outside the operation's domain."""


class NoCandidates(InsetEdgeError):
    """Tree too small to have any candidate shortcut edge."""


class RouteMismatch(InsetEdgeError):
    """Two evaluation routes disagree."""
