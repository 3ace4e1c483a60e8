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


class DimMismatchError(KdUncertError, ValueError):
    """Operands live on Hilbert spaces of incompatible dimensions."""


class WitnessNotFoundError(KdUncertError, RuntimeError):
    """Quantumness exceeds the threshold but no weak value is strange at it.

    The message states the largest margin max_b <b|X - t rho|b> over
    X = K_a, -K_a, -J_a (see kduncert.witness). A margin <= 0 certifies that
    no postselection basis holds a weak value with |Im w| > t or Re w < -t:
    quantumness and strangeness are measured on different scales, so this
    can happen at a raised threshold. A positive margin whose eigenbases
    hold no entry above the scan's probability floor says so instead.
    """
