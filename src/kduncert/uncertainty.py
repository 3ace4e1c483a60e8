"""Total/quantum/classical decomposition of measurement uncertainty.

Two flavors of the decomposition exist side by side. The NRe flavor
quantifies total uncertainty by sum_a sqrt(p_a (1 - p_a)) and its quantum
part by the (exact) nonreality quantumness; the NCl flavor uses
sum_a sqrt(p_a) - 1 and the nonclassicality quantumness sum_a ||M^a rho||_1 - 1.
The classical part is the difference in both cases. The infimum of the
total over all measurements is a state functional: the matching impurity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, Povm, RankOnePvm, _same_dim, _trace_norms, rank_one_pvm
from .errors import KdUncertError, ValidationError
from .optimize import SupremumResult, quantum_nonclassicality, quantum_nonreality

PROB_ATOL = 1e-9
# Both commutator bounds scan all 2^(d-1) sign corners; at d = 14 the
# asymmetry stack takes about 0.2 s (the relation bound 1 ms), and each step up doubles it.
CORNER_SCAN_MAX_DIM = 14
_CORNER_CHUNK = 1024


class Flavor(enum.Enum):
    """Which of the two decompositions is being computed."""

    NRE = "NRe"
    NCL = "NCl"


@dataclass(frozen=True)
class Decomposition:
    """Additive split of the total measurement uncertainty.

    classical == total - quantum by construction; diagnostics carries the
    supremum record for the NCl flavor and is None on the NRe path.
    """

    flavor: Flavor
    total: float
    quantum: float
    classical: float
    probs: tuple
    diagnostics: SupremumResult | None = None


def outcome_probs(state: DensityMatrix, povm: Povm) -> list:
    """Born probabilities p_a = Tr{M^a rho}, clamped to [0, 1]; within validation's slack, not checked again."""
    _same_dim(state, povm)
    return [min(max(x, 0.0), 1.0) for x in np.trace(povm.stack @ state.matrix, axis1=1, axis2=2).real.tolist()]


def _check_probs(probs):
    p = [float(x) for x in probs]
    for x in p:
        if x < -1e-10 or x > 1.0 + 1e-10:
            raise ValidationError(f"probability {x:.12g} outside [0, 1]")
    if abs(sum(p) - 1.0) > PROB_ATOL:
        raise ValidationError(f"probabilities sum to {sum(p):.12g}")
    return [min(max(x, 0.0), 1.0) for x in p]


def _entropy(p: list, flavor: Flavor) -> float:
    """The flavor's entropy of probabilities in [0, 1].

    NRe takes each 1 - p_a as the sum of the other outcomes' probabilities:
    equal in exact arithmetic for a complete distribution, and exactly 0
    for a single outcome whose probability rounded below 1.
    """
    if flavor is Flavor.NRE:
        return float(sum(math.sqrt(x * sum(p[:a] + p[a + 1:])) for a, x in enumerate(p)))
    return float(sum(math.sqrt(x) for x in p) - 1.0)


def s_entropy(probs) -> float:
    """sum_a sqrt(p_a (1 - p_a)) of a checked distribution; zero iff deterministic, maximal at uniform."""
    return _entropy(_check_probs(probs), Flavor.NRE)


def t_entropy(probs) -> float:
    """sum_a sqrt(p_a) - 1 of a checked distribution; equals half of the order-1/2 Tsallis entropy."""
    return _entropy(_check_probs(probs), Flavor.NCL)


def total_uncertainty(state: DensityMatrix, povm: Povm, flavor: Flavor) -> float:
    """Entropy of the outcome distribution, per the requested flavor."""
    return _entropy(outcome_probs(state, povm), flavor)


def decompose(state: DensityMatrix, povm: Povm, flavor: Flavor) -> Decomposition:
    """Split the total uncertainty into quantum and classical parts.

    Both quantum parts are closed forms: commutator trace norms for NRe,
    trace norms of M^a rho for NCl. The NCl flavor also carries the
    supremum record as diagnostics: the per-effect values and the basis
    attaining the largest of them, the only basis it builds.
    """
    probs = outcome_probs(state, povm)
    total = _entropy(probs, flavor)
    if flavor is Flavor.NRE:
        quantum, diagnostics = quantum_nonreality(state, povm), None
    else:
        diagnostics = quantum_nonclassicality(state, povm)
        quantum = diagnostics.value
    return Decomposition(
        flavor=flavor,
        total=total,
        quantum=quantum,
        classical=total - quantum,
        probs=tuple(probs),
        diagnostics=diagnostics,
    )


def _state_eigvals(state: DensityMatrix):
    w = np.linalg.eigvalsh(state.matrix)
    return np.clip(w, 0.0, 1.0)


def impurity_s(state: DensityMatrix) -> float:
    """Tr{(rho - rho^2)^(1/2)} = sum_j sqrt(lambda_j - lambda_j^2)."""
    w = _state_eigvals(state)
    return float(np.sqrt(w * (1.0 - w)).sum())


def impurity_t(state: DensityMatrix) -> float:
    """Tr{sqrt(rho)} - 1 = sum_j sqrt(lambda_j) - 1."""
    w = _state_eigvals(state)
    return float(np.sqrt(w).sum() - 1.0)


def infimum_total(state: DensityMatrix, flavor: Flavor):
    """Minimum of the total uncertainty over sharp-effect measurements, and the RankOnePvm attaining it.

    The value is the flavor's impurity of the state; it is attained by the
    eigenbasis of rho (any rank-1 refinement of degenerate blocks gives the
    same value, since only the spectrum enters). The achieving
    measurement commutes with the state, so its quantum part vanishes and
    the minimum is entirely classical; both facts are checked here, and a
    failed check raises KdUncertError.

    The impurity floors the total uncertainty only for measurements whose
    effects have trace at most one (every rank-1 POVM qualifies): coarser
    effects can suppress outcome entropy trivially, down to zero for the
    single-outcome measurement {I}.
    """
    achieving = rank_one_pvm(np.linalg.eigh(state.matrix)[1])
    value = impurity_s(state) if flavor is Flavor.NRE else impurity_t(state)
    achieved = total_uncertainty(state, achieving, flavor)
    # sqrt amplifies machine-eps probability noise to ~1.5e-8 when an
    # eigenvalue sits at 0 or 1, so the self-check tolerance cannot be
    # tighter than sqrt(eps) for rank-deficient states
    if abs(achieved - value) > 1e-7:
        raise KdUncertError(
            f"eigenbasis measurement scores {achieved!r}, expected impurity {value!r}"
        )
    quant = quantum_nonreality(state, achieving)
    if quant > 1e-9:
        raise KdUncertError(f"achieving POVM has nonzero quantum part {quant!r}")
    return value, achieving


def coarse_grain(povm: Povm, partition) -> Povm:
    """Merge effects over a disjoint partition of the outcome indices; every block must be non-empty.

    The sums are not validated again, so a merged effect may carry its block's summed validation slack.
    """
    blocks = [tuple(int(i) for i in block) for block in partition]
    seen = sorted(i for block in blocks for i in block)
    if seen != list(range(povm.n_outcomes)):
        raise ValidationError(
            f"partition {blocks} does not cover indices 0..{povm.n_outcomes - 1} exactly once"
        )
    if not all(blocks):
        raise ValidationError(f"partition {blocks} has an empty block")
    effects = povm.stack[[block[0] for block in blocks]]  # then the rest of each block, left to right
    owners = [k for k, block in enumerate(blocks) for _ in block[1:]]
    np.add.at(effects, owners, povm.stack[[i for block in blocks for i in block[1:]]])
    return Povm(stack=effects, labels=["+".join(povm.labels[i] for i in block) for block in blocks])


def _sign_corners(d: int) -> np.ndarray:
    """Every vector of {+1, -1}^d whose first entry is +1, one per row: shape (2^(d-1), d).

    A global sign flip leaves both commutator bounds unchanged, so pinning
    the first entry halves the corners without losing a value.
    """
    bits = (np.arange(2 ** (d - 1))[:, None] >> np.arange(d - 1)) & 1
    return np.hstack([np.ones((len(bits), 1)), 1.0 - 2.0 * bits])


def _check_corner_dim(name: str, d: int) -> None:
    if d > CORNER_SCAN_MAX_DIM:
        raise ValidationError(
            f"{name} scans all 2^(d-1) sign corners and accepts d <= {CORNER_SCAN_MAX_DIM}, got d = {d}"
        )


def bound_asymmetry(state: DensityMatrix, pvm: RankOnePvm) -> float:
    """Largest normalized commutator trace norm over observables diagonal in the basis.

    Maximizes ||[A, rho]||_1 / (2 ||A||_inf) with A = sum_j lambda_j Pi^j.
    The objective is scale invariant, so lambda lives in the box [-1, 1]^d,
    where ||[A, rho]||_1 is convex in lambda: the maximum sits at a sign
    corner, and every corner is scanned, so the value is exact. With
    R = U^dag rho U for the basis unitary U, unitary invariance gives
    ||[A, rho]||_1 = ||(lambda_i - lambda_j) R_ij||_1, and the corners are
    stacked into chunks of at most _CORNER_CHUNK matrices whose trace norms
    each take one LAPACK call. Dimensions above CORNER_SCAN_MAX_DIM raise
    ValidationError.
    """
    _same_dim(state, pvm)
    d = state.dim
    _check_corner_dim("bound_asymmetry", d)
    u = pvm.basis_unitary
    r = u.conj().T @ state.matrix @ u
    corners = _sign_corners(d)
    best = 0.0
    for start in range(0, len(corners), _CORNER_CHUNK):
        s = corners[start:start + _CORNER_CHUNK]
        stack = (s[:, :, None] - s[:, None, :]) * r
        best = max(best, float(_trace_norms(stack).max()))
    return 0.5 * best


def uncertainty_relation_bound(state: DensityMatrix, pvm_a: RankOnePvm, pvm_b: RankOnePvm) -> float:
    """Largest normalized |Tr{[A, B] rho}| over observables diagonal in each basis.

    Tr{[A, B] rho} = i alpha^T c beta is bilinear in the eigenvalue vectors,
    so the box maximum sits at sign corners. Each entry
    c[j, k] = Im Tr{[Pi_a^j, Pi_b^k] rho} = 2 Im(<a_j|b_k><b_k|rho|a_j>),
    so c is one elementwise product of two overlap matrices. For a fixed
    beta the best alpha is the sign pattern of c beta, so the bound is the
    largest ||c beta||_1 over the 2^(d-1) corners beta, all taken in one
    matrix product. Dimensions above CORNER_SCAN_MAX_DIM raise
    ValidationError.
    """
    _same_dim(state, pvm_a, pvm_b)
    d = state.dim
    _check_corner_dim("uncertainty_relation_bound", d)
    ua = pvm_a.basis_unitary
    ub = pvm_b.basis_unitary
    c = 2.0 * ((ua.conj().T @ ub) * (ub.conj().T @ state.matrix @ ua).T).imag
    return float(np.abs(_sign_corners(d) @ c.T).sum(axis=1).max())
