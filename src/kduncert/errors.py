"""Exception types raised across the package.

Every validation error message names the violated invariant and carries the
measured deviation so callers (and the CLI) can report exactly what failed.
"""


class KdUncertError(Exception):
    """Base class for all kduncert errors."""


class ValidationError(KdUncertError, ValueError):
    """An input object violates one of its declared invariants."""


class NotHermitianError(ValidationError):
    pass


class NotUnitTraceError(ValidationError):
    pass


class NotPsdError(ValidationError):
    pass


class EffectNotPsdError(ValidationError):
    pass


class IncompleteSumError(ValidationError):
    pass


class NotUnitaryError(ValidationError):
    pass


class BadRankError(ValidationError):
    pass


class SingularSumError(ValidationError):
    pass


class BadDistributionError(ValidationError):
    pass


class BadPartitionError(ValidationError):
    pass


class NotProjectorError(ValidationError):
    pass


class DimMismatchError(KdUncertError, ValueError):
    """Operands live on Hilbert spaces of incompatible dimensions."""


class WitnessNotFoundError(KdUncertError, RuntimeError):
    """Quantumness is nonzero but no strange weak value was located.

    Signals a search failure, not physics: nonzero quantumness
    guarantees a strange entry exists in some basis.
    """
