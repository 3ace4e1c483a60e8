"""Kirkwood-Dirac quasiprobability tables over (state, measurement pair).

The table entry at (a, b) is Tr{M^b M^a rho}: a complex joint quasi-
distribution with correct marginals that may go nonreal or negative when
the three operators fail to commute. Entries are kept raw; nothing is
rounded to real inside the table, so the quantumness functionals read
exact values. Each measurement enters as one stack of effects (a Povm's
stack, or the projector stack of a rank-1 PVM), and the table is one
batched product over the (a, b) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, Povm, RankOnePvm
from .errors import DimMismatchError

NONCLASSICALITY_CLAMP = 1e-9


@dataclass(frozen=True)
class KdTable:
    """Complex quasiprobability table indexed (a, b), a-major."""

    values: np.ndarray

    @property
    def n_a(self) -> int:
        return self.values.shape[0]

    @property
    def n_b(self) -> int:
        return self.values.shape[1]

    def marginal_a(self) -> np.ndarray:
        """Sum over b; equals the outcome probabilities of the first measurement."""
        return self.values.sum(axis=1)

    def marginal_b(self) -> np.ndarray:
        """Sum over a; equals the outcome probabilities of the second measurement."""
        return self.values.sum(axis=0)


@dataclass(frozen=True)
class JohansenComponents:
    """Three-term split of a KD table over a pair of rank-1 PVM bases.

    projected + real_shift + imag_part reproduces the KD table entrywise.
    The first two terms are real; the third is purely imaginary.
    """

    projected: np.ndarray
    real_shift: np.ndarray
    imag_part: np.ndarray

    def total(self) -> np.ndarray:
        return self.projected + self.real_shift + self.imag_part


def _as_stack(measurement) -> np.ndarray:
    if isinstance(measurement, RankOnePvm):
        return measurement.projectors()
    if isinstance(measurement, Povm):
        return measurement.stack
    raise TypeError(f"expected Povm or RankOnePvm, got {type(measurement).__name__}")


def kd_table(state: DensityMatrix, first, second) -> KdTable:
    """Quasiprobability table values(a, b) = Tr{M^b M^a rho}, each M^a rho taken once."""
    first_stack = _as_stack(first)
    second_stack = _as_stack(second)
    d = state.dim
    if first_stack.shape[1] != d or second_stack.shape[1] != d:
        raise DimMismatchError(
            f"state dim {d} vs measurements {first_stack.shape[1]}, {second_stack.shape[1]}"
        )
    ma_rho = first_stack @ state.matrix
    values = np.trace(second_stack @ ma_rho[:, None], axis1=-2, axis2=-1)
    return KdTable(values=values)


def table_nonreality(t: KdTable) -> float:
    """l1-norm of the imaginary parts of the table."""
    return float(np.abs(t.values.imag).sum())


def _clamp_nonclassicality(v: float) -> float:
    """v, or 0 for v in [-NONCLASSICALITY_CLAMP, 0): a nonclassicality is nonnegative, so that is roundoff."""
    return 0.0 if -NONCLASSICALITY_CLAMP <= v < 0.0 else v


def table_nonclassicality(t: KdTable) -> float:
    """Sum of entry moduli minus one; zero iff the table is a genuine distribution.

    Values in [-NONCLASSICALITY_CLAMP, 0) are clamped to 0; they are roundoff,
    since normalization makes the quantity nonnegative.
    """
    return _clamp_nonclassicality(float(np.abs(t.values).sum()) - 1.0)


def lueders_state(rho: np.ndarray, projector: np.ndarray) -> np.ndarray:
    """State after the nonselective binary measurement {P, I - P} (raw matrix)."""
    comp = np.eye(rho.shape[0]) - projector
    return projector @ rho @ projector + comp @ rho @ comp


def johansen_components(state: DensityMatrix, first: RankOnePvm, second: RankOnePvm) -> JohansenComponents:
    """Split the KD table over two rank-1 PVMs into projected/disturbance/imaginary terms.

    Per (a, b):
      projected  = Tr{Pi^b Pi^a rho Pi^a}
      real_shift = Tr{(rho - rho_a) Pi^b} / 2
      imag_part  = -i/2 Tr{(rho - rho_a) R_a Pi^b R_a^dag}
    with rho_a the Lueders update of rho by Pi^a and R_a = exp(-i Pi^a pi/2)
    computed exactly via exp(i theta P) = I + (e^{i theta} - 1) P. The imaginary
    part's rotation direction is fixed by requiring the three terms to sum to
    Tr{Pi^b Pi^a rho} exactly. Row a is one batched product over the
    projector stack of the second basis, so temporaries stay (d, d, d).
    """
    d = state.dim
    if first.dim != d or second.dim != d:
        raise DimMismatchError(f"state dim {d} vs bases {first.dim}, {second.dim}")
    rho = state.matrix
    eye = np.eye(d)
    projected = np.empty((d, d))
    real_shift = np.empty((d, d))
    imag_part = np.empty((d, d), dtype=complex)
    pb = second.projectors()
    for a in range(d):
        pa = first.projector(a)
        rho_a = lueders_state(rho, pa)
        delta = rho - rho_a
        rot = eye + (np.exp(-0.5j * np.pi) - 1.0) * pa
        projected[a] = np.trace(pb @ pa @ rho @ pa, axis1=1, axis2=2).real
        real_shift[a] = 0.5 * np.trace(delta @ pb, axis1=1, axis2=2).real
        imag_part[a] = -0.5j * np.trace(delta @ (rot @ pb @ rot.conj().T), axis1=1, axis2=2).real
    return JohansenComponents(
        projected=projected, real_shift=real_shift, imag_part=imag_part
    )
