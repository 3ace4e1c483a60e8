"""Supremum over rank-1 PVM bases: exact where a closed form exists, one ascent engine otherwise.

Both quantum parts sum, over the effects M^a, a supremum over rank-1 PVM
bases {|b>} of sum_b |<b|K|b>|: K = [M^a, rho] / 2i for nonreality and
K = M^a rho for nonclassicality. The nonreality suprema have an exact
expression through commutator trace norms, so that path never optimizes.
The nonclassicality suprema have no closed form; each is evaluated by the
one ascent engine of the package, exposed as sup_over_pvm(k_op, cfg), by
coordinate ascent over the unitary manifold from a deterministic set of
structured and Haar-random starts.

Ascent parametrization: the candidate basis is U0 * exp(i H(theta)) with H
built from pair rotations (column phases leave the objective unchanged).
Accepted moves fold the rotation into U0, so iterates stay exactly
unitary. Step halving refines; stalls trigger probe sweeps with large
angles and exact 2x2 diagonalizers, which cross the absolute-value kinks
that trap plain small-step ascent.

The engine reads its probe rotations from tables built once at import
(small steps are cached per step size). When a stall probe includes the
fine angle grid, numpy scores all big-angle and grid rotations of a pair
at once and only the near-best survivors are rescored with the scalar
formula, so every decision and every accumulated gain is bit-for-bit that
of a full scalar scan. A start listed twice (the Fourier basis is also the
first mutually unbiased basis) is ascended once and its result reused.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DensityMatrix,
    Povm,
    RankOnePvm,
    _haar,
    _pvm_unchecked,
    commutator,
    fourier_matrix,
    mub_bases,
    trace_norm,
)
from .errors import DimMismatchError, ValidationError

_STEP_FLOOR = 3e-9
_BIG_ANGLES = (math.pi / 4, 3 * math.pi / 8, math.pi / 2)
# fine angle grid for stall probes: plateaus of the objective can hide
# narrow improving craters that the fixed large angles miss
_GRID = tuple(math.pi * (g + 1) / 49.0 for g in range(48))
_PROBE_TOL = 1e-12
NEGATIVE_CLAMP = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart ascent knobs; defaults favor accuracy over speed."""

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
    """Achieved supremum with the maximizing basis and per-restart diagnostics.

    For a single optimization, value == max(per_restart_values) and
    best_basis is the basis of the first restart attaining it within 1e-12.
    For per-effect aggregates (the quantum uncertainties), value sums the
    per-effect suprema, per_restart_values are the restart-synchronized
    aggregates (each <= value), and per_effect_values / per_effect_bases
    carry the individual maximizations.
    """

    value: float
    best_basis: RankOnePvm
    per_restart_values: tuple
    converged: bool
    iterations_used: int
    per_effect_values: tuple | None = None
    per_effect_bases: tuple | None = None


def _rot2(kind: int, c: float):
    cs, sn = math.cos(c), math.sin(c)
    if kind == 0:
        return (cs, 1j * sn, 1j * sn, cs)
    return (cs, -sn, sn, cs)


def _with_conj(r):
    """A 2x2 rotation (r00, r01, r10, r11) followed by the conjugates of its entries."""
    return r + tuple(x.conjugate() for x in r)


def _rot_table(angles):
    """Both rotation kinds at each angle, in probe order, each with its conjugates."""
    return tuple(_with_conj(_rot2(kind, a)) for a in angles for kind in (0, 1))


def _quad_forms(rots) -> np.ndarray:
    """Coefficients of the rotated diagonal in (m00, m01, m10, m11), shape (2, n, 4).

    Column c of a rotation maps the 2x2 block M to c^dag M c, a linear form
    in M's entries; this lets numpy score a whole probe table at once.
    """
    r = np.array([x[:4] for x in rots], dtype=complex)
    cols = (r[:, [0, 2]], r[:, [1, 3]])
    return np.stack([np.einsum("na,nb->nab", c.conj(), c).reshape(len(rots), 4) for c in cols])


@functools.lru_cache(maxsize=256)
def _small_rots(step: float):
    """The four small-step rotations of a sweep; steps repeat, so they are cached."""
    c = step / math.sqrt(2.0)
    return tuple(_with_conj(_rot2(kind, a)) for kind in (0, 1) for a in (c, -c))


_BIG_ROTS = _rot_table(_BIG_ANGLES)
_PROBE_ROTS = _BIG_ROTS + _rot_table(_GRID)
_PROBE_FORMS = _quad_forms(_PROBE_ROTS)


def _probe_survivors(m00, m01, m10, m11):
    """Big-angle and grid rotations that may hold a pair's best probe gain.

    Scores every probe with numpy and keeps those within _PROBE_TOL of the
    top score, split into (big-angle, grid) in probe order. np.abs differs
    from abs in the last bit, so the caller rescores the survivors with its
    scalar formula: choices and accumulated gains stay those of a full
    scalar scan, since every dropped probe scores strictly below a kept one.
    """
    score = np.abs(_PROBE_FORMS @ np.array((m00, m01, m10, m11))).sum(axis=0)
    top = float(score.max())
    keep = np.flatnonzero(score >= top - _PROBE_TOL * max(1.0, top)).tolist()
    n_big = len(_BIG_ROTS)
    return (
        tuple(_PROBE_ROTS[i] for i in keep if i < n_big),
        tuple(_PROBE_ROTS[i] for i in keep if i >= n_big),
    )


def _diag2_candidates(m00, m01, m10, m11):
    """Unitaries diagonalizing the Hermitian / anti-Hermitian parts of a 2x2 block.

    Each comes as a rotation table entry: its four entries, then their conjugates.
    """
    out = []
    for phase in (1.0, 1j):
        a = (m00 / phase).real
        b = (m11 / phase).real
        c = 0.5 * ((m01 / phase) + (m10 / phase).conjugate()).conjugate()
        ac = abs(c)
        if ac < 1e-300:
            continue
        half = 0.5 * (a - b)
        lp = 0.5 * (a + b) + math.hypot(half, ac)
        v0, v1 = c.conjugate(), lp - a
        n = math.hypot(abs(v0), abs(v1))
        if n < 1e-300:
            continue
        v0, v1 = v0 / n, v1 / n
        v0c = v0.conjugate()
        out.append((v0, -v1, v1, v0c, v0c, -v1, v1, v0))
    return out


def _ascend_abs(k_op: np.ndarray, u0: np.ndarray, max_iters: int, rel_tol: float, step_init: float):
    """Maximize sum_b |u_b^dag K u_b| by pair-coordinate ascent on the basis columns.

    Column phases leave every term invariant, so only the d(d-1) pair
    rotations are swept. U and W = K U are stacked in one (2d, d) array, so
    a rotation updates both with two column writes, and each trial costs
    only 2x2 scalar algebra on the diagonal t = diag(U^dag K U), which is
    kept as Python complex values. Rotation tables come prebuilt (small
    steps cached per step size); grid probes are screened with numpy first.
    Returns (value, basis, converged, accepting_sweeps + 1).
    """
    d = k_op.shape[0]
    u = np.array(u0, dtype=complex)
    if d == 1:
        return abs(complex(u[:, 0].conj() @ k_op @ u[:, 0])), u, True, 1
    w = k_op @ u
    t = np.einsum("ib,ib->b", u.conj(), w)
    val = float(np.abs(t).sum())
    t = t.tolist()
    uw = np.vstack((u, w))
    # column views stay live: every update writes into uw in place
    cols = [uw[:, b] for b in range(d)]
    u_cols = [uw[:d, b] for b in range(d)]
    w_cols = [uw[d:, b] for b in range(d)]
    vdot = np.vdot  # conjugates its first argument: the same bits as u.conj() @ w
    step = step_init
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    converged = False
    escape = False
    moves = 0
    # the grid is step-independent; two scans (first stall, settled regime) cover it
    grid_budget = 2
    for _ in range(max_iters):
        sweep_start = val
        improved = False
        use_grid = escape and grid_budget > 0 and (grid_budget == 2 or step <= 1e-3)
        small = _small_rots(step)
        for (j, k) in pairs:
            cj = cols[j]
            ck = cols[k]
            m00 = t[j]
            m11 = t[k]
            m01 = complex(vdot(u_cols[j], w_cols[k]))
            m10 = complex(vdot(u_cols[k], w_cols[j]))
            base = abs(m00) + abs(m11)
            cands = small
            if escape:
                big, grid = _probe_survivors(m00, m01, m10, m11) if use_grid else (_BIG_ROTS, ())
                cands = small + big + tuple(_diag2_candidates(m00, m01, m10, m11)) + grid
            best_gain = 1e-14 * max(1.0, abs(val))
            best = None
            for r in cands:
                r00, r01, r10, r11, s00, s01, s10, s11 = r
                n00 = s00 * (m00 * r00 + m01 * r10) + s10 * (m10 * r00 + m11 * r10)
                n11 = s01 * (m00 * r01 + m01 * r11) + s11 * (m10 * r01 + m11 * r11)
                gain = abs(n00) + abs(n11) - base
                if gain > best_gain:
                    best_gain = gain
                    best = r
                    best_n00 = n00
                    best_n11 = n11
            if best is not None:
                r00, r01, r10, r11, s00, s01, s10, s11 = best
                uw[:, j], uw[:, k] = cj * r00 + ck * r10, cj * r01 + ck * r11
                t[j] = best_n00
                t[k] = best_n11
                val += best_gain
                improved = True
                # walk the accepted generator while it keeps paying, so a
                # sweep crosses a whole slope instead of one step of it
                for _ in range(64):
                    m00 = t[j]
                    m11 = t[k]
                    m01 = complex(vdot(u_cols[j], w_cols[k]))
                    m10 = complex(vdot(u_cols[k], w_cols[j]))
                    n00 = s00 * (m00 * r00 + m01 * r10) + s10 * (m10 * r00 + m11 * r10)
                    n11 = s01 * (m00 * r01 + m01 * r11) + s11 * (m10 * r01 + m11 * r11)
                    gain = abs(n00) + abs(n11) - (abs(m00) + abs(m11))
                    if gain <= 1e-14 * max(1.0, abs(val)):
                        break
                    uw[:, j], uw[:, k] = cj * r00 + ck * r10, cj * r01 + ck * r11
                    t[j] = n00
                    t[k] = n11
                    val += gain
        if improved:
            moves += 1
            if escape:
                escape = False
                step = step_init
            elif val - sweep_start < rel_tol * max(1.0, abs(val)):
                # tiny progress at a coarse step means refine, not crawl
                if step <= 1e-4:
                    converged = True
                    break
                step *= 0.5
        else:
            if not escape:
                escape = True
                continue
            if use_grid:
                grid_budget -= 1
            escape = False
            step *= 0.5
            if step < _STEP_FLOOR:
                converged = True
                break
    u[...] = uw[:d]  # keeps the start's memory layout
    return val, u, converged, moves + 1


def _start_list(d: int, cfg: OptimizerConfig, extra_starts, stream_tag):
    starts = []
    if cfg.include_structured_starts:
        starts.append(np.eye(d, dtype=complex))
        starts.append(fourier_matrix(d))
        starts.extend(np.asarray(s, dtype=complex) for s in extra_starts)
    for r in range(cfg.n_restarts):
        starts.append(_haar(d, np.random.default_rng(list(stream_tag) + [r])))
    return starts


def _pick_best(per_restart, tol=1e-12):
    best = max(per_restart)
    for i, v in enumerate(per_restart):
        if v >= best - tol:
            return i
    return 0


def _sup_abs_diag(k_op: np.ndarray, cfg: OptimizerConfig, extra_starts, stream_tag) -> SupremumResult:
    """Multistart ascent of sum_b |u_b^dag K u_b|; Haar starts draw from stream_tag + [r]."""
    d = k_op.shape[0]
    # a start listed twice (the Fourier basis is also the first MUB) ascends once
    by_start = {}
    runs = []
    for u0 in _start_list(d, cfg, extra_starts, stream_tag):
        key = u0.tobytes()
        if key not in by_start:
            by_start[key] = _ascend_abs(k_op, u0, cfg.max_iters, cfg.rel_tol, cfg.step_init)
        runs.append(by_start[key])
    values = tuple(r[0] for r in runs)
    _, best_u, conv, iters = runs[_pick_best(values)]
    return SupremumResult(
        value=max(values),
        best_basis=_pvm_unchecked(best_u),
        per_restart_values=values,
        converged=conv,
        iterations_used=iters,
    )


def sup_over_pvm(k_op, cfg: OptimizerConfig) -> SupremumResult:
    """Maximize sum_b |<b|K|b>| over rank-1 PVM bases {|b>} of K's dimension.

    For a normal K the supremum is the trace norm of K. Starts are the
    identity and Fourier bases, followed by n_restarts Haar draws on the
    streams (seed, 0, restart index). The first restart attaining the
    maximum within 1e-12 wins, so results are deterministic under a fixed
    seed regardless of scheduling.
    """
    k = np.asarray(k_op, dtype=complex)
    if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] < 1:
        raise ValidationError(f"K must be a non-empty square matrix, got shape {k.shape}")
    if not np.isfinite(k).all():
        raise ValidationError("K has non-finite entries")
    return _sup_abs_diag(k, cfg, (), (cfg.seed, 0))


def _sum_over_effects(problems, cfg: OptimizerConfig) -> SupremumResult:
    """Per-effect suprema for (K_a, extra starts) pairs on streams (seed, a), summed in effect order."""
    results = [_sup_abs_diag(k_op, cfg, extra, (cfg.seed, a)) for a, (k_op, extra) in enumerate(problems)]
    values = tuple(r.value for r in results)
    per_restart = results[0].per_restart_values
    for r in results[1:]:
        per_restart = tuple(x + y for x, y in zip(per_restart, r.per_restart_values))
    return SupremumResult(
        value=float(sum(values)),
        best_basis=results[int(np.argmax(values))].best_basis,
        per_restart_values=per_restart,
        converged=all(r.converged for r in results),
        iterations_used=max(r.iterations_used for r in results),
        per_effect_values=values,
        per_effect_bases=tuple(r.best_basis for r in results),
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


def _eigbasis(h: np.ndarray) -> np.ndarray:
    return np.linalg.eigh(0.5 * (h + h.conj().T))[1]


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
    """Nonreality quantumness by explicit per-effect optimization.

    Exists to validate the ascent engine against the exact commutator form;
    production code should call quantum_nonreality instead. Starts are kept
    generic (identity, Fourier, eigenbasis of the state, Haar) so agreement
    with the closed form genuinely exercises the optimizer.
    """
    _check_dims(state, povm)
    rho = state.matrix
    extra = [_eigbasis(rho)]
    return _sum_over_effects([(commutator(m, rho) / 2j, extra) for m in povm.effects], cfg)


def quantum_nonclassicality(state: DensityMatrix, povm: Povm, cfg: OptimizerConfig) -> SupremumResult:
    """Nonclassicality quantumness: per-effect suprema of the modulus mass, minus one.

    Each effect is maximized independently over rank-1 PVM bases. Structured
    starts add the mutually-unbiased family (exact maximizers for pure
    states), their lifts by the measurement basis when the POVM is itself a
    rank-1 PVM, the state eigenbasis, and eigenbases of the Hermitian parts
    of M^a rho; all are covariant under simultaneous unitaries, which keeps
    the reported value basis-independent in practice.
    """
    _check_dims(state, povm)
    rho = state.matrix
    d = state.dim
    mubs = mub_bases(d)
    basis_u = _povm_basis(povm)
    common = list(mubs)
    if basis_u is not None:
        common.append(basis_u)
        common.extend(basis_u @ m for m in mubs)
    common.append(_eigbasis(rho))

    def problem(m):
        k_op = m @ rho
        # eigenbases of phase-rotated Hermitian parts: covariant under
        # simultaneous unitaries and close to the maximizer for many K
        return k_op, common + [
            _eigbasis(k_op * complex(math.cos(t), -math.sin(t)))
            for t in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
        ]

    res = _sum_over_effects([problem(m) for m in povm.effects], cfg)
    total = res.value - 1.0
    if -NEGATIVE_CLAMP <= total < 0.0:
        total = 0.0
    return replace(res, value=total, per_restart_values=tuple(v - 1.0 for v in res.per_restart_values))


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
