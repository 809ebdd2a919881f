"""Error types shared across the package."""


class ConeViolation(ValueError):
    """A curvature vector left the admissible symmetric-function cone.

    Carries the grid node index when the violation was detected on a
    discretized hypersurface, otherwise ``node`` is None.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class ConvexityLoss(ConeViolation):
    """A support-function state stopped being strictly convex."""


class StepRejected(RuntimeError):
    """A trial time step produced an invalid state and must be retried."""


class MonotonicityError(RuntimeError):
    """The radius-to-A_k map of geodesic spheres cannot be inverted: raised only
    for k = n, whose A_n is constant; every lower A_k increases with the radius."""
