"""Kirkwood-Dirac quasiprobability tables over (state, measurement pair).

The table entry at (a, b) is Tr{M^b M^a rho}: a complex joint quasi-
distribution with correct marginals that may go nonreal or negative when
the three operators fail to commute. Entries are kept raw; nothing is
rounded to real inside the table, so the quantumness functionals read
exact values. Each measurement, a Povm or a rank-1 PVM, enters as its
stack of effects, and the table is one batched product over the (a, b)
pairs. Over two rank-1 bases, the Johansen split of the table is a closed
form in their overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, RankOnePvm, _same_dim

NONCLASSICALITY_CLAMP = 1e-9


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


def kd_table(state: DensityMatrix, first, second) -> KdTable:
    """Quasiprobability table values(a, b) = Tr{M^b M^a rho}, each M^a rho taken once."""
    _same_dim(state, first, second)
    ma_rho = first.stack @ state.matrix
    values = np.trace(second.stack @ ma_rho[:, None], axis1=-2, axis2=-1)
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


def johansen_components(state: DensityMatrix, first: RankOnePvm, second: RankOnePvm) -> JohansenComponents:
    """Split the KD table over two rank-1 PVMs into projected/disturbance/imaginary terms.

    Per (a, b), with rho_a = Pi^a rho Pi^a + (I - Pi^a) rho (I - Pi^a) the Lueders
    update of rho by Pi^a and R_a = exp(-i Pi^a pi/2) = I - (1 + i) Pi^a:
      projected  = Tr{Pi^b Pi^a rho Pi^a}                  = |O|^2 r_a
      real_shift = Tr{(rho - rho_a) Pi^b} / 2               = Re(conj(O) M) - projected
      imag_part  = -i/2 Tr{(rho - rho_a) R_a Pi^b R_a^dag}  = i Im(conj(O) M)
    where O[a, b] = <a|b>, M[a, b] = <a|rho|b> and r_a = <a|rho|a>. The closed
    forms follow from rho - rho_a = Pi^a rho + rho Pi^a - 2 Pi^a rho Pi^a and, for
    the last, from R_a|b> = -i O|a> + |b'> with <a|b'> = 0. The three sum to
    conj(O) M = Tr{Pi^b Pi^a rho}, which fixes the rotation's direction. Two
    d x d overlap products make this O(d^3) work.
    """
    _same_dim(state, first, second)
    a_dag = first.basis_unitary.conj().T
    a_dag_rho = a_dag @ state.matrix
    overlap = a_dag @ second.basis_unitary
    r = np.einsum("ai,ia->a", a_dag_rho, first.basis_unitary).real
    kd = overlap.conj() * (a_dag_rho @ second.basis_unitary)
    projected = np.abs(overlap) ** 2 * r[:, None]
    return JohansenComponents(
        projected=projected, real_shift=kd.real - projected, imag_part=1j * kd.imag
    )
