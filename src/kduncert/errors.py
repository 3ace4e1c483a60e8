"""Exception types raised across the package: one class per CLI exit code.

ValidationError exits 2, DimMismatchError 3, WitnessNotFoundError 4 and any
other KdUncertError 5 (see kduncert.cli). A new class earns its place only
with a new exit code; which invariant failed is told by the message, which
names the invariant and carries the measured deviation, e.g. "state is not
PSD: min eigenvalue -5.000e-01".
"""


class KdUncertError(Exception):
    """Base class for all kduncert errors."""


class ValidationError(KdUncertError, ValueError):
    """An input object violates one of its declared invariants."""


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
