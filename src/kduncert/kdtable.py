"""Kirkwood-Dirac quasiprobability tables over (state, measurement pair).

The table entry at (a, b) is Tr{M^b M^a rho}: a complex joint quasi-
distribution with correct marginals that may go nonreal or negative when
the three operators fail to commute. Entries are kept raw; nothing is
rounded to real inside the table, so the quantumness functionals read
exact values.
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
    state_dim: int

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


def _as_effects(measurement) -> tuple:
    if isinstance(measurement, RankOnePvm):
        return tuple(measurement.projectors())
    if isinstance(measurement, Povm):
        return measurement.effects
    raise TypeError(f"expected Povm or RankOnePvm, got {type(measurement).__name__}")


def kd_table(state: DensityMatrix, first, second) -> KdTable:
    """Quasiprobability table values(a, b) = Tr{M^b M^a rho}."""
    first_effects = _as_effects(first)
    second_effects = _as_effects(second)
    d = state.dim
    if first_effects[0].shape[0] != d or second_effects[0].shape[0] != d:
        raise DimMismatchError(
            f"state dim {d} vs measurements "
            f"{first_effects[0].shape[0]}, {second_effects[0].shape[0]}"
        )
    rho = state.matrix
    values = np.empty((len(first_effects), len(second_effects)), dtype=complex)
    for a, ma in enumerate(first_effects):
        ma_rho = ma @ rho
        for b, mb in enumerate(second_effects):
            values[a, b] = np.trace(mb @ ma_rho)
    return KdTable(values=values, state_dim=d)


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
    Tr{Pi^b Pi^a rho} exactly.
    """
    d = state.dim
    if first.dim != d or second.dim != d:
        raise DimMismatchError(f"state dim {d} vs bases {first.dim}, {second.dim}")
    rho = state.matrix
    eye = np.eye(d)
    projected = np.empty((d, d))
    real_shift = np.empty((d, d))
    imag_part = np.empty((d, d), dtype=complex)
    second_projs = second.projectors()
    for a in range(d):
        pa = first.projector(a)
        rho_a = lueders_state(rho, pa)
        delta = rho - rho_a
        rot = eye + (np.exp(-0.5j * np.pi) - 1.0) * pa
        for b, pb in enumerate(second_projs):
            projected[a, b] = np.trace(pb @ pa @ rho @ pa).real
            real_shift[a, b] = 0.5 * np.trace(delta @ pb).real
            pb_rot = rot @ pb @ rot.conj().T
            imag_part[a, b] = -0.5j * np.trace(delta @ pb_rot).real
    return JohansenComponents(
        projected=projected, real_shift=real_shift, imag_part=imag_part
    )
