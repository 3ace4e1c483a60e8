"""Weak values, the strange-weak-value contextuality witness, and measurement disturbance.

A weak value with nonzero imaginary part or negative real part ("strange")
certifies that the estimation statistics admit no noncontextual hidden
variable model. The witness runs in two stages. It first scans the
discrete Fourier basis, read from a per-dimension cache, so a verdict whose
entry sits there builds no other candidate. The scan builds no
WeakValueTable: per basis it takes the probabilities and numerators from
_weak_value_parts, divides once, and walks the quotients as plain Python
numbers; only the basis of the hit becomes a RankOnePvm.

When the Fourier basis holds no strange entry the rest is a closed form.
For a unit postselection vector b with Pr(b) = <b|rho|b> > 0 the weak value
of M^a has Im w = <b|K_a|b> / Pr(b) and Re w = <b|J_a|b> / Pr(b), with
K_a = [M^a, rho] / 2i and J_a = {M^a, rho} / 2. So Im w > t, Im w < -t and
Re w < -t hold exactly when <b|X - t rho|b> > 0 for X = K_a, -K_a and -J_a
(when Pr(b) = 0, rho b = 0 and all three forms vanish). Some basis holds an
entry strange at threshold t if and only if one of these 3n "margin"
matrices has a positive top eigenvalue, and then the matrix's eigenbasis
holds one in its top column. One eigh on the stack of margins gives the
candidates; when no margin is positive, WitnessNotFoundError states the
largest one, which certifies that no basis holds a strange entry. So the
second stage is complete, and any further catalog of unbiased bases would
only find entries that the margins' eigenbases also hold.

disturbance_nonreality reaches the nonreality part through the Lueders
update of each projector, one at a time, as a check independent of the
commutator closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, Povm, RankOnePvm, _fourier, _pvm_unchecked, _same_dim, trace_norm
from .errors import ValidationError, WitnessNotFoundError
from .optimize import _quantum_parts

UNDEFINED_PROB = 1e-12
DEFAULT_THRESHOLD = 1e-7
_SCAN_PROB_MIN = 1e-6  # witness scan ignores entries whose weight cannot carry quantumness


@dataclass(frozen=True, eq=False)
class WeakValueTable:
    """Weak values of each effect for every postselection vector of a basis.

    values[a, b] = <b|M^a rho|b> / <b|rho|b> wherever the postselection
    probability exceeds UNDEFINED_PROB; elsewhere undefined_mask is set and
    the entry is zero (its weight in any average vanishes with Pr(b)).
    """

    values: np.ndarray
    postselect_probs: np.ndarray
    undefined_mask: np.ndarray


@dataclass(frozen=True)
class WitnessEntry:
    """A located strange weak value: effect label, basis column, value, basis."""

    a: str
    b: int
    weak_value: complex
    basis: RankOnePvm


@dataclass(frozen=True)
class WitnessReport:
    """Contextuality verdict with the two quantumness values behind it."""

    contextual: bool
    nre: float
    ncl: float
    witness_entry: WitnessEntry | None
    threshold: float
    flavors_agree: bool


def _weak_value_parts(rho: np.ndarray, stack: np.ndarray, u: np.ndarray):
    """Pr(b) = <b|rho|b>, shape (d,), and <b|M^a rho|b>, shape (n, d), over the columns b of u, undivided."""
    u_conj = u.conj()
    rho_u = rho @ u
    probs = np.einsum("ib,ib->b", u_conj, rho_u).real
    numer = np.einsum("ib,aij,jb->ab", u_conj, stack, rho_u)
    return probs, numer


def weak_values(state: DensityMatrix, povm: Povm, basis: RankOnePvm) -> WeakValueTable:
    """Weak-value table of the POVM with preselection rho and postselection basis."""
    _same_dim(state, povm, basis)
    probs, numer = _weak_value_parts(state.matrix, povm.stack, basis.basis_unitary)
    probs = np.clip(probs, 0.0, None)
    mask = probs <= UNDEFINED_PROB
    values = np.zeros((povm.n_outcomes, state.dim), dtype=complex)
    np.divide(numer, probs, out=values, where=~mask)
    return WeakValueTable(values=values, postselect_probs=probs, undefined_mask=mask)


def quantum_via_weak_values(state: DensityMatrix, povm: Povm, basis: RankOnePvm):
    """Weak-value form of the two quantumness integrands for a fixed basis.

    Returns (sum_ab |Im w| Pr(b), sum_ab |w| Pr(b) - 1); no supremum is
    taken. Undefined entries contribute zero since their weight vanishes.
    """
    table = weak_values(state, povm, basis)
    weights = table.postselect_probs[np.newaxis, :]
    nre = float((np.abs(table.values.imag) * weights).sum())
    ncl = float((np.abs(table.values) * weights).sum()) - 1.0
    return nre, ncl


def _is_strange(w: complex, threshold: float) -> bool:
    return abs(w.imag) > threshold or w.real < -threshold


def _first_strange(state, povm, unitaries, threshold):
    """The first strange entry in the bases with the given unitaries, scanned in order, or None.

    Within a basis the scan runs over effects, then columns, and skips the
    columns with postselection probability below _SCAN_PROB_MIN. A basis
    costs one _weak_value_parts call and one divide, made only when the scan
    reaches it; no WeakValueTable is built. Every scanned column has
    Pr(b) >= _SCAN_PROB_MIN, so dividing by max(Pr(b), _SCAN_PROB_MIN) gives
    the bits weak_values reports there.
    """
    rho, stack = state.matrix, povm.stack
    for u in unitaries:
        probs, numer = _weak_value_parts(rho, stack, u)
        rows = (numer / np.maximum(probs, _SCAN_PROB_MIN)).tolist()
        probs = probs.tolist()
        for a, row in enumerate(rows):
            for b, w in enumerate(row):
                if probs[b] < _SCAN_PROB_MIN:
                    continue
                if _is_strange(w, threshold):
                    return WitnessEntry(a=povm.labels[a], b=b, weak_value=w, basis=_pvm_unchecked(u))
    return None


def _margins(state: DensityMatrix, povm: Povm, threshold: float) -> np.ndarray:
    """The stack K_a - t rho, then -K_a - t rho, then -J_a - t rho over the effects, shape (3n, d, d)."""
    rho = state.matrix
    m_rho, rho_m = povm.stack @ rho, rho @ povm.stack
    k = (m_rho - rho_m) / 2j
    j = 0.5 * (m_rho + rho_m)
    return np.concatenate([k, -k, -j]) - threshold * rho


def _margin_entry(state: DensityMatrix, povm: Povm, threshold: float, nre: float) -> WitnessEntry:
    """A strange entry from the eigenbases of the positive margins, scanned in stack order.

    Raises WitnessNotFoundError when there is none; when no margin is
    positive, its message is a certificate that no basis holds one.
    """
    values, vectors = np.linalg.eigh(_margins(state, povm, threshold))
    top = values[:, -1]
    entry = _first_strange(state, povm, (vectors[i] for i in np.flatnonzero(top > 0)), threshold)
    if entry is not None:
        return entry
    largest = float(top.max())
    if largest <= 0:
        raise WitnessNotFoundError(
            f"quantumness {nre:.3e} exceeds threshold {threshold:.3e} but no basis holds a strange "
            f"weak value: the largest margin is {largest:.3e} <= 0"
        )
    raise WitnessNotFoundError(
        f"quantumness {nre:.3e} exceeds threshold {threshold:.3e} and the largest margin is "
        f"{largest:.3e} > 0, but no entry of the positive margins' eigenbases with postselection "
        f"probability >= {_SCAN_PROB_MIN:.0e} is strange"
    )


def contextuality_witness(
    state: DensityMatrix,
    povm: Povm,
    cfg=None,
    threshold: float = DEFAULT_THRESHOLD,
) -> WitnessReport:
    """Decide contextuality of (state, POVM) and exhibit a strange weak value.

    The verdict is nre > threshold. The two quantumness values vanish
    together, so flavors_agree checks that nre and ncl fall on the same side
    of the roundoff scale DEFAULT_THRESHOLD, whatever the threshold: ncl runs
    well below nre, so comparing both with a raised threshold would flag
    ordinary inputs. flavors_agree is reported, never warned about: it is
    also false on weakly coherent inputs, where ncl ~ eps^2 falls below that
    scale while nre ~ eps stays above it. When contextual, the entry is the
    first strange one in the Fourier basis, then in the eigenbases of the
    positive margins, which hold one whenever any basis does, and it
    re-verifies as strange by direct recomputation; when no basis holds one,
    WitnessNotFoundError states the largest margin (see the module
    docstring). The threshold must be finite and non-negative. cfg is
    accepted and not read, so callers that pass an OptimizerConfig keep
    working; no part of the witness searches.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValidationError(f"threshold must be finite and >= 0, got {threshold}")
    nre, ncl = _quantum_parts(state, povm)
    contextual = nre > threshold
    agree = (nre > DEFAULT_THRESHOLD) == (ncl > DEFAULT_THRESHOLD)
    entry = None
    if contextual:
        entry = _first_strange(state, povm, (_fourier(state.dim),), threshold)
        if entry is None:
            entry = _margin_entry(state, povm, threshold, nre)
    return WitnessReport(
        contextual=contextual,
        nre=nre,
        ncl=ncl,
        witness_entry=entry,
        threshold=threshold,
        flavors_agree=agree,
    )


def disturbance_nonreality(state: DensityMatrix, pvm: RankOnePvm) -> float:
    """Total trace distance to the binary-measurement updates, halved.

    (1/2) sum_a ||rho - rho_{Pi^a}||_1: algebraically equal to the
    nonreality quantumness of the basis over the state, but computed through
    the Lueders channel rather than commutators, so the two routes
    cross-validate each other.
    """
    _same_dim(state, pvm)
    rho = state.matrix
    total = 0.0
    for pa in pvm.stack:
        comp = np.eye(rho.shape[0]) - pa
        delta = rho - (pa @ rho @ pa + comp @ rho @ comp)  # the Lueders update of {P, I - P}
        total += 0.5 * trace_norm(delta)
    return total
