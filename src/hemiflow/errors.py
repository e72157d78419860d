"""Exception taxonomy.

Domain errors (exit code 1 from the CLI) derive from :class:`DomainError`;
configuration problems (exit code 2) derive from :class:`ConfigError`.
"""


class DomainError(Exception):
    """Base class for all domain-level failures."""


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


class PoleSingularity(DomainError):
    """Point too close to the projection pole of the stereographic chart."""


class NonPositiveField(DomainError):
    """A curvature candidate must stay strictly positive on the hemisphere."""


class BoundaryPoint(DomainError):
    """Operation requires an interior concentration point."""


class NonFiniteBar(DomainError):
    """An error bar's centre or halfwidth is NaN or infinite."""


class ToleranceNotMet(DomainError):
    """Adaptive quadrature stalled above the requested tolerance."""


class InvalidConfiguration(DomainError):
    """Bubble configuration violates the neighborhood-at-infinity invariants."""


class DegenerateCriticalPoint(DomainError):
    """Hessian eigenvalue below the nondegeneracy floor at a located root."""


class AmbiguousSign(DomainError):
    """Normal derivative falls inside the dead-band where its sign is unreliable."""


class OutsideNeighborhood(DomainError):
    """State left the neighborhood where the region predicates apply."""


class UnclassifiableState(DomainError):
    """Region predicates failed to cover the state; indicates a tuning bug."""


class StepFailure(DomainError):
    """Flow integrator rejected too many consecutive steps; ``trajectory``
    holds the points it accepted before."""

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory
