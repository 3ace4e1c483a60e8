"""Suprema over rank-1 PVM bases of sum_b |<b|K|b>|, all in closed form.

Both quantum parts sum, over the effects M^a, a supremum over rank-1 PVM
bases {|b>} of sum_b |<b|K|b>|: K = [M^a, rho] / 2i for nonreality and
K = M^a rho for nonclassicality. For every square K that supremum is the
trace norm ||K||_1:
- every basis gives sum_b |<b|K|b>| <= ||K||_1;
- with the polar form K = W |K|, the unitary W^dag is diagonal in some
  orthonormal basis {|b>} with phases v_b, and there
  sum_b |<b|K|b>| >= Re sum_b v_b <b|K|b> = Re tr(K W^dag) = ||K||_1.
So no path optimizes. The nonreality part reads the trace norms of the
commutators directly; the nonclassicality part and sup_over_pvm(k_op, cfg)
also return a basis attaining each supremum (_trace_norm_basis).

OptimizerConfig keeps its fields for callers: n_restarts and seed still
drive the Haar candidates of the contextuality witness and the random
starts in bound_asymmetry and uncertainty_relation_bound, while max_iters,
rel_tol, step_init and include_structured_starts are validated but change
no result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import DensityMatrix, Povm, RankOnePvm, _pvm_unchecked, commutator, trace_norm
from .errors import DimMismatchError, ValidationError

NEGATIVE_CLAMP = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """Seeded search knobs; only n_restarts and seed change any result (see the module docstring)."""

    n_restarts: int = 32
    max_iters: int = 500
    rel_tol: float = 1e-8
    step_init: float = 0.1
    seed: int = 0
    include_structured_starts: bool = True

    def __post_init__(self):
        if self.n_restarts < 1:
            raise ValidationError(f"n_restarts must be >= 1, got {self.n_restarts}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValidationError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.step_init) and self.step_init > 0):
            raise ValidationError(f"step_init must be finite and > 0, got {self.step_init}")


@dataclass(frozen=True)
class SupremumResult:
    """A supremum with a basis attaining it.

    The suprema are closed forms, so per_restart_values is (value,),
    converged is True and iterations_used is 1. For per-effect aggregates
    (the quantum parts), value sums the per-effect suprema in effect order,
    per_effect_values / per_effect_bases carry each supremum with its
    attaining basis, and best_basis is that of the largest effect value.
    """

    value: float
    best_basis: RankOnePvm
    per_restart_values: tuple
    converged: bool
    iterations_used: int
    per_effect_values: tuple | None = None
    per_effect_bases: tuple | None = None


def _trace_norm_basis(k_op: np.ndarray):
    """(||K||_1, an orthonormal basis {|b>} with sum_b |<b|K|b>| = ||K||_1) for a square K.

    With svd(K) = U S V^dag the unitary X = V U^dag makes K X = U S U^dag
    positive, so in an eigenbasis of X (X|b> = v_b |b>) every term
    |<b|K|b>| = <b|K X|b> and the terms sum to tr(K X) = ||K||_1. The
    eigenbasis comes from eigh on a Cayley transform of X, rotated so that
    the widest gap of X's spectrum sits at -1: eig would not return
    orthonormal vectors for the degenerate spectra of K = 0, pure states or
    commuting pairs.
    """
    u, _, vh = np.linalg.svd(k_op)
    x = vh.conj().T @ u.conj().T
    phases = np.sort(np.angle(np.linalg.eigvals(x)))
    gaps = np.diff(np.append(phases, phases[0] + 2.0 * math.pi))
    i = int(np.argmax(gaps))
    y = x * np.exp(1j * (math.pi - phases[i] - 0.5 * gaps[i]))
    eye = np.eye(k_op.shape[0])
    h = 1j * np.linalg.solve(eye + y, eye - y)
    return trace_norm(k_op), np.linalg.eigh(0.5 * (h + h.conj().T))[1]


def sup_over_pvm(k_op, cfg: OptimizerConfig) -> SupremumResult:
    """Maximize sum_b |<b|K|b>| over rank-1 PVM bases {|b>} of K's dimension.

    The supremum is the trace norm of K, attained by the basis in
    best_basis (see _trace_norm_basis); cfg is accepted for the common
    signature and changes nothing.
    """
    k = np.asarray(k_op, dtype=complex)
    if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] < 1:
        raise ValidationError(f"K must be a non-empty square matrix, got shape {k.shape}")
    if not np.isfinite(k).all():
        raise ValidationError("K has non-finite entries")
    value, basis = _trace_norm_basis(k)
    return SupremumResult(
        value=value,
        best_basis=_pvm_unchecked(basis),
        per_restart_values=(value,),
        converged=True,
        iterations_used=1,
    )


def _sum_over_effects(k_ops) -> SupremumResult:
    """Per-effect suprema of sum_b |<b|K_a|b>|, summed in effect order."""
    sups = [_trace_norm_basis(k_op) for k_op in k_ops]
    values = tuple(v for v, _ in sups)
    bases = tuple(_pvm_unchecked(u) for _, u in sups)
    value = float(sum(values))
    return SupremumResult(
        value=value,
        best_basis=bases[int(np.argmax(values))],
        per_restart_values=(value,),
        converged=True,
        iterations_used=1,
        per_effect_values=values,
        per_effect_bases=bases,
    )


def _check_dims(state: DensityMatrix, povm: Povm):
    if state.dim != povm.dim:
        raise DimMismatchError(f"state dim {state.dim} != POVM dim {povm.dim}")


def quantum_nonreality(state: DensityMatrix, povm: Povm) -> float:
    """Nonreality quantumness of the state relative to the POVM, in closed form.

    Each per-effect supremum of the imaginary l1-mass over PVM bases equals
    half the trace norm of the commutator [M^a, rho], because the
    commutator is normal and the trace norm has a variational expression
    over rank-1 PVMs. No optimization is involved.
    """
    _check_dims(state, povm)
    rho = state.matrix
    return sum(0.5 * trace_norm(commutator(m, rho)) for m in povm.effects)


def _povm_basis(povm: Povm):
    """Unitary whose columns generate the POVM, when its effects form a rank-1 PVM."""
    d = povm.dim
    if povm.n_outcomes != d:
        return None
    cols = []
    for e in povm.effects:
        w, v = np.linalg.eigh(e)
        if abs(w[-1] - 1.0) > 1e-8:
            return None
        if d > 1 and abs(w[-2]) > 1e-8:
            return None
        cols.append(v[:, -1])
    u = np.column_stack(cols)
    if np.abs(u.conj().T @ u - np.eye(d)).max() > 1e-8:
        return None
    return u


def quantum_nonreality_variational(state: DensityMatrix, povm: Povm, cfg: OptimizerConfig) -> SupremumResult:
    """Nonreality quantumness through the |diag| supremum of each K = [M^a, rho] / 2i.

    Cross-checks the |diag| supremum against the commutator form of
    quantum_nonreality; production code should call that instead. cfg
    changes nothing.
    """
    _check_dims(state, povm)
    rho = state.matrix
    return _sum_over_effects([commutator(m, rho) / 2j for m in povm.effects])


def quantum_nonclassicality(state: DensityMatrix, povm: Povm, cfg: OptimizerConfig) -> SupremumResult:
    """Nonclassicality quantumness: per-effect suprema of the modulus mass, minus one.

    Each per-effect supremum over rank-1 PVM bases is the trace norm of
    K = M^a rho, and per_effect_bases holds a basis attaining it. A total
    within NEGATIVE_CLAMP below zero is reported as 0. cfg changes nothing.
    """
    _check_dims(state, povm)
    rho = state.matrix
    res = _sum_over_effects([m @ rho for m in povm.effects])
    total = res.value - 1.0
    if -NEGATIVE_CLAMP <= total < 0.0:
        total = 0.0
    return replace(res, value=total, per_restart_values=(total,))


def brute_force_sup_qubit(objective, grid_density: int) -> float:
    """Exhaustive qubit oracle: scan Bloch angles on a nested grid, then refine.

    The grid is theta = pi k / g (k = 0..g), phi = 2 pi j / (2g), so doubling
    grid_density only adds points and the scanned maximum is monotone in g.
    Golden-section refinement around the best cell alternates axes; the
    returned value is the maximum over every evaluation.
    """
    g = int(grid_density)
    if g < 2:
        raise ValidationError(f"grid_density must be >= 2, got {g}")

    def value(theta, phi):
        ct, st = math.cos(theta / 2.0), math.sin(theta / 2.0)
        ph = complex(math.cos(phi), math.sin(phi))
        u = np.array([[ct, -ph.conjugate() * st], [ph * st, ct]], dtype=complex)
        return float(objective(_pvm_unchecked(u)))

    best = -math.inf
    best_t = best_p = 0.0
    for k in range(g + 1):
        theta = math.pi * k / g
        for j in range(2 * g):
            phi = math.pi * j / g
            v = value(theta, phi)
            if v > best:
                best, best_t, best_p = v, theta, phi

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

    def golden(fn, lo, hi, rounds=40):
        nonlocal best
        a, b = lo, hi
        x1 = b - inv_phi * (b - a)
        x2 = a + inv_phi * (b - a)
        f1, f2 = fn(x1), fn(x2)
        for _ in range(rounds):
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + inv_phi * (b - a)
                f2 = fn(x2)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - inv_phi * (b - a)
                f1 = fn(x1)
        x = 0.5 * (a + b)
        fx = fn(x)
        best = max(best, fx)
        return x

    dt = math.pi / g
    for _ in range(3):
        best_t = golden(lambda t: value(t, best_p), max(0.0, best_t - dt), min(math.pi, best_t + dt))
        best_p = golden(lambda p: value(best_t, p), best_p - dt, best_p + dt)
    return best
