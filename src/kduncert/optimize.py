"""Suprema over rank-1 PVM bases of sum_b |<b|K|b>|, all in closed form.

Both quantum parts sum, over the effects M^a, a supremum over rank-1 PVM
bases {|b>} of sum_b |<b|K|b>|: K = [M^a, rho] / 2i for nonreality and
K = M^a rho for nonclassicality. For every square K that supremum is the
trace norm ||K||_1:
- every basis gives sum_b |<b|K|b>| <= ||K||_1;
- with the polar form K = W |K|, the unitary W^dag is diagonal in some
  orthonormal basis {|b>} with phases v_b, and there
  sum_b |<b|K|b>| >= Re sum_b v_b <b|K|b> = Re tr(K W^dag) = ||K||_1.
So no path optimizes. The trace norms come from one kernel,
core._trace_norms, which takes a stack K of shape (n, d, d) and runs one
svd on the whole stack, from singular values alone (svd with
compute_uv=False, whose values can differ in the last bit from those of a
full svd). _attaining_basis takes one (d, d) matrix and gives a basis
attaining its supremum. The nonreality part reads the trace norms of the
stacked commutators; the nonclassicality part builds only the largest
effect's attaining basis, and sup_over_pvm(M^a rho) gives any effect's
basis with the same bits. _quantum_parts gives both values alone from one
_trace_norms call on the commutators and the products M^a rho stacked
together, with the same bits as the two separate calls. No function here
takes a search configuration.

No path searches either. OptimizerConfig is kept, with its two validated
fields, only because callers still pass one to contextuality_witness, which
accepts it and does not read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, Povm, RankOnePvm, _pvm_unchecked, _same_dim, _trace_norms, as_operator
from .errors import ValidationError
from .kdtable import _clamp_nonclassicality


@dataclass(frozen=True)
class OptimizerConfig:
    """Config that contextuality_witness accepts and does not read; no path searches.

    n_restarts (>= 1) and seed (>= 0) are still validated, so a config that
    was valid stays valid.
    """

    n_restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.n_restarts < 1:
            raise ValidationError(f"n_restarts must be >= 1, got {self.n_restarts}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SupremumResult:
    """A supremum with a basis attaining it.

    quantum_nonclassicality also fills per_effect_values in effect order;
    best_basis attains the largest. The suprema are closed forms, so the
    read-only per_restart_values is (value,), converged is True and
    iterations_used is 1. No JSON carries these three; they stay only
    because perfbench/tracing.py reads them.
    """

    value: float
    best_basis: RankOnePvm
    per_effect_values: tuple | None = None

    @property
    def per_restart_values(self) -> tuple:
        return (self.value,)

    @property
    def converged(self) -> bool:
        return True

    @property
    def iterations_used(self) -> int:
        return 1


def _attaining_basis(k: np.ndarray) -> np.ndarray:
    """For one (d, d) K, an orthonormal basis {|b>} with sum_b |<b|K|b>| = ||K||_1, as columns.

    With svd(K) = U S V^dag the unitary X = V U^dag makes K X = U S U^dag
    positive, so in an eigenbasis of X (X|b> = v_b |b>) every term
    |<b|K|b>| = <b|K X|b> and the terms sum to tr(K X) = ||K||_1. The
    eigenbasis comes from eigh on a Cayley transform of X, rotated so that
    the widest gap of X's spectrum sits at -1: eig would not return
    orthonormal vectors for the degenerate spectra of K = 0, pure states or
    commuting pairs.
    """
    u, _, vh = np.linalg.svd(k)
    x = vh.conj().T @ u.conj().T
    phases = np.sort(np.angle(np.linalg.eigvals(x)))
    gaps = np.diff(np.append(phases, phases[0] + 2.0 * math.pi))
    i = np.argmax(gaps)
    y = x * np.exp(1j * (math.pi - phases[i] - 0.5 * gaps[i]))
    eye = np.eye(k.shape[0])
    h = 1j * np.linalg.solve(eye + y, eye - y)
    return np.linalg.eigh(0.5 * (h + h.conj().T))[1]


def sup_over_pvm(k_op) -> SupremumResult:
    """Maximize sum_b |<b|K|b>| over rank-1 PVM bases {|b>} of K's dimension.

    The supremum is the trace norm of K, attained by the basis in
    best_basis (see _attaining_basis). K passes core.as_operator, so an
    empty, non-square or non-finite K is a ValidationError.
    """
    k = as_operator(k_op)
    return SupremumResult(float(_trace_norms(k[None])[0]), _pvm_unchecked(_attaining_basis(k)))


def quantum_nonreality(state: DensityMatrix, povm: Povm) -> float:
    """Nonreality quantumness of the state relative to the POVM, in closed form.

    Each per-effect supremum of the imaginary l1-mass over PVM bases equals
    half the trace norm of the commutator [M^a, rho], because the
    commutator is normal and the trace norm has a variational expression
    over rank-1 PVMs. No optimization is involved.
    """
    _same_dim(state, povm)
    m, rho = povm.stack, state.matrix
    return sum(0.5 * t for t in _trace_norms(m @ rho - rho @ m).tolist())


def quantum_nonclassicality(state: DensityMatrix, povm: Povm) -> SupremumResult:
    """Nonclassicality quantumness: per-effect suprema of the modulus mass, minus one.

    Each per-effect supremum over rank-1 PVM bases is the trace norm of
    K = M^a rho. Only the largest effect's attaining basis is built;
    sup_over_pvm(M^a rho) gives any effect's basis with the same bits. A
    total within NONCLASSICALITY_CLAMP below zero is reported as 0.
    """
    _same_dim(state, povm)
    k_ops = povm.stack @ state.matrix
    values = tuple(_trace_norms(k_ops).tolist())
    best = _pvm_unchecked(_attaining_basis(k_ops[int(np.argmax(values))]))
    return SupremumResult(_ncl_total(values), best, values)


def _ncl_total(norms) -> float:
    """sum_a ||M^a rho||_1 - 1 in effect order, roundoff below zero clamped (kdtable._clamp_nonclassicality)."""
    return _clamp_nonclassicality(sum(norms) - 1.0)


def _quantum_parts(state: DensityMatrix, povm: Povm) -> tuple:
    """(quantum_nonreality, quantum_nonclassicality(...).value) from one svd, without attaining bases."""
    _same_dim(state, povm)
    rho, m = state.matrix, povm.stack
    m_rho = m @ rho
    norms = _trace_norms(np.concatenate([m_rho - rho @ m, m_rho])).tolist()
    n = povm.n_outcomes
    return sum(0.5 * t for t in norms[:n]), _ncl_total(norms[n:])

