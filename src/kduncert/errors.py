"""Exception types raised across the package: one class per CLI exit code.

Each class carries its code as exit_code: ValidationError 2,
DimMismatchError 3, WitnessNotFoundError 4, and KdUncertError 5, which
every other subclass inherits. kduncert.cli ends a call that raises one
with its message and that code. A new class earns its place only with a
new exit code; which invariant failed is told by the message, which names
the invariant and carries the measured deviation, e.g. "state is not PSD:
min eigenvalue -5.000e-01".
"""


class KdUncertError(Exception):
    """Base class for all kduncert errors."""

    exit_code = 5


class ValidationError(KdUncertError, ValueError):
    """An input object violates one of its declared invariants."""

    exit_code = 2


class DimMismatchError(KdUncertError, ValueError):
    """Operands live on Hilbert spaces of incompatible dimensions."""

    exit_code = 3


class WitnessNotFoundError(KdUncertError, RuntimeError):
    """Quantumness exceeds the threshold but no weak value is strange at it.

    The message states the largest margin max_b <b|X - t rho|b> over
    X = K_a, -K_a, -J_a (see kduncert.witness). A margin <= 0 certifies that
    no postselection basis holds a weak value with |Im w| > t or Re w < -t:
    quantumness and strangeness are measured on different scales, so this
    can happen at a raised threshold. A positive margin whose eigenbases
    hold no entry above the scan's probability floor says so instead.
    """

    exit_code = 4
