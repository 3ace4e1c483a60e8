"""Validated quantum objects and the dense complex linear algebra they need.

Operators are plain complex numpy arrays; the dataclasses below wrap them,
immutable, and only the validators check their invariants (Hermiticity,
positivity, completeness, unitarity). A POVM is one read-only stack of its
effects, shape (n_outcomes, d, d), and stack is its only read surface:
every computation over its effects indexes or iterates that stack; only
the draws in random_povm loop over effects, to keep the seeded order. A
rank-1 PVM reads as a POVM through the same stack, so every function that
takes one takes the other. Objects holding an array compare equal only
to themselves. All randomness is driven by explicit seeds, never shared state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, ValidationError

HERM_ATOL = 1e-10       # Hermiticity / PSD / unitarity validation
COMPLETENESS_ATOL = 1e-9  # POVM and projector completeness


def as_operator(m) -> np.ndarray:
    """Coerce input to a non-empty square complex matrix with finite entries, else ValidationError."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        raise ValidationError(f"expected a non-empty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValidationError("matrix has non-finite entries")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Trace-one positive-semidefinite Hermitian operator."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Povm:
    """Finite set of PSD effects resolving the identity, held as one stack.

    stack is the only representation and the only read surface: one
    read-only array of shape (n_outcomes, d, d), frozen at construction, so
    stack[a] is effect a, a read-only view that shares its memory. Two Povm
    objects compare equal only when they are the same object.

    labels, read as strings, name one effect each, no two alike; they
    default to "0" ... "n-1". Construction checks only the labels.
    """

    stack: np.ndarray
    labels: tuple = None

    def __post_init__(self):
        stack = _frozen(self.stack)
        n = stack.shape[0]
        if self.labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != n:
                raise ValidationError(f"{len(labels)} labels for {n} effects")
            if len(set(labels)) != n:
                repeated = next(x for i, x in enumerate(labels) if x in labels[:i])
                raise ValidationError(f"label {repeated!r} names more than one effect")
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.stack.shape[0]


@dataclass(frozen=True, eq=False)
class RankOnePvm:
    """Orthonormal rank-1 projector basis, stored as the read-only unitary of its columns.

    It reads as the Povm of its projectors |b><b|, labelled "0" ... "d-1",
    through stack alone: the (d, d, d) array of the projectors, element b
    first, built on first read and cached, read-only.
    """

    basis_unitary: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis_unitary.shape[0]

    n_outcomes = dim

    @property
    def labels(self) -> tuple:
        return tuple(str(b) for b in range(self.dim))

    @functools.cached_property
    def stack(self) -> np.ndarray:
        u = self.basis_unitary.T
        return _frozen(u[:, :, None] * u.conj()[:, None, :])


def _hermitian_psd(stack: np.ndarray, name: str):
    """Per matrix of a stack: max |m - m^dag| and the least eigenvalue of 0.5 m + 0.5 m^dag.

    Halving before adding keeps that finite for every finite entry, but the
    eigenvalue is NaN when an entry's modulus overflows; callers test it with
    >=, which NaN fails. Non-convergence is a ValidationError naming the input.
    """
    adjoint = stack.conj().swapaxes(-1, -2)
    try:
        mins = np.linalg.eigvalsh(0.5 * stack + 0.5 * adjoint)[:, 0]
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"{name} eigenvalues did not converge, so positivity cannot be checked") from exc
    return np.abs(stack - adjoint).max(axis=(1, 2)), mins


# The three validators run with numpy's overflow and invalid-value warnings
# off: entries near float max overflow in their arithmetic, and each reports
# such input by its own message, which the warnings would only precede.
@np.errstate(over="ignore", invalid="ignore")
def validate_density(m) -> DensityMatrix:
    """Validate Hermiticity, unit trace and positivity; return a DensityMatrix."""
    a = as_operator(m)
    (dev,), (w0,) = _hermitian_psd(a[None], "state")
    if dev > HERM_ATOL:
        raise ValidationError(f"state is not Hermitian: max |m - m^dag| = {dev:.3e}")
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > HERM_ATOL:
        raise ValidationError(f"state trace is {tr:.12g}, deviation {abs(tr - 1.0):.3e}")
    if not w0 >= -HERM_ATOL:
        raise ValidationError(f"state is not PSD: min eigenvalue {w0:.3e}")
    return DensityMatrix(matrix=_frozen(a))


@np.errstate(over="ignore", invalid="ignore")
def validate_povm(effects, labels=None) -> Povm:
    """Validate each effect (Hermitian PSD) and completeness; return a Povm.

    The first failing effect names the error, Hermiticity before PSD, and an
    effect of another dimension fails only if every effect before it passes.
    The labels are checked last, by Povm.
    """
    if len(effects) == 0:
        raise ValidationError("a POVM needs at least one effect")
    ops = [as_operator(e) for e in effects]
    d = ops[0].shape[0]
    n = next((i for i, e in enumerate(ops) if e.shape[0] != d), len(ops))
    stack = np.stack(ops[:n])
    devs, mins = _hermitian_psd(stack, "effect")
    bad = (devs > HERM_ATOL) | ~(mins >= -HERM_ATOL)
    if bad.any():
        i = int(np.argmax(bad))
        if devs[i] > HERM_ATOL:
            raise ValidationError(f"effect {i} is not Hermitian: deviation {devs[i]:.3e}")
        raise ValidationError(f"effect {i} is not PSD: min eigenvalue {mins[i]:.3e}")
    if n < len(ops):
        raise DimMismatchError(f"effect {n} has dim {ops[n].shape[0]}, expected {d}")
    dev = float(np.abs(stack.sum(axis=0) - np.eye(d)).max())
    if dev > COMPLETENESS_ATOL:
        raise ValidationError(f"effects do not resolve identity: max |sum - I| = {dev:.3e}")
    return Povm(stack=stack, labels=labels)


@np.errstate(over="ignore", invalid="ignore")
def rank_one_pvm(u) -> RankOnePvm:
    """Validate unitarity of the column basis; return a RankOnePvm."""
    a = as_operator(u)
    d = a.shape[0]
    dev = float(np.abs(a.conj().T @ a - np.eye(d)).max())
    if not dev <= HERM_ATOL:  # a product that overflows to inf - inf gives NaN, which > would pass
        raise ValidationError(f"basis is not unitary: max |U^dag U - I| = {dev:.3e}")
    return RankOnePvm(basis_unitary=_frozen(a))


def _pvm_unchecked(u: np.ndarray) -> RankOnePvm:
    # internal hot path: caller guarantees unitarity
    return RankOnePvm(basis_unitary=_frozen(u))


def _povm_basis(povm: Povm):
    """Unitary whose columns generate the POVM when its effects form a rank-1 PVM, else None.

    Effect a must have top eigenvalue 1 and, for d > 1, second eigenvalue 0
    (within 1e-8); column a is its top eigenvector, and the columns must be
    orthonormal within 1e-8.
    """
    d = povm.dim
    if povm.n_outcomes != d:
        return None
    w, v = np.linalg.eigh(povm.stack)
    if np.abs(w[:, -1] - 1.0).max() > 1e-8 or (d > 1 and np.abs(w[:, -2]).max() > 1e-8):
        return None
    u = v[:, :, -1].T.copy()
    if np.abs(u.conj().T @ u - np.eye(d)).max() > 1e-8:
        return None
    return u


def _same_dim(state: DensityMatrix, *measurements):
    """Raise DimMismatchError for the first measurement, in argument order, whose dim is not the state's."""
    for m in measurements:
        if m.dim != state.dim:
            raise DimMismatchError(f"state dim {state.dim} != measurement dim {m.dim}")


def _trace_norms(k_ops: np.ndarray) -> np.ndarray:
    """||K_i||_1 of each matrix of a stack K of shape (n, d, d), from singular values alone."""
    return np.linalg.svd(k_ops, compute_uv=False).sum(axis=-1)


def trace_norm(m) -> float:
    """Schatten 1-norm: the sum of singular values."""
    return float(_trace_norms(as_operator(m)[None])[0])


def _haar(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _check_dim(d: int):
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")


def haar_random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R diagonal is phase-corrected so the distribution is exactly Haar
    (plain QR is not). seed is a seed or a numpy Generator, which draws
    the matrix from its current state; a fixed seed gives a fixed unitary.
    """
    _check_dim(d)
    return _haar(d, np.random.default_rng(seed))


def random_density(d: int, rank: int, seed) -> DensityMatrix:
    """Random state from the Ginibre ensemble: G G^dag / Tr, with G of shape d x rank.

    seed is a seed or a numpy Generator, as for haar_random_unitary.
    """
    _check_dim(d)
    if not 1 <= rank <= d:
        raise ValidationError(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real)


def random_povm(d: int, n_outcomes: int, seed) -> Povm:
    """Random POVM by symmetrized normalization of Ginibre PSD draws.

    M^i = S^{-1/2} A_i S^{-1/2} with A_i = G_i G_i^dag and S = sum A_i,
    which resolves identity exactly up to roundoff. seed is a seed or a
    numpy Generator, as for haar_random_unitary.
    """
    _check_dim(d)
    if n_outcomes < 1:
        raise ValidationError(f"n_outcomes must be >= 1, got {n_outcomes}")
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        draws.append(g @ g.conj().T)
    return _normalized_povm(draws)


def _normalized_povm(draws) -> Povm:
    """The validated POVM S^{-1/2} A_i S^{-1/2} of PSD draws A_i, with S = sum A_i."""
    total = np.sum(draws, axis=0)
    w, v = np.linalg.eigh(total)
    if w[0] < 1e-12:
        raise ValidationError(f"effect sum is singular: min eigenvalue {w[0]:.3e}")
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return validate_povm(inv_sqrt @ np.stack(draws) @ inv_sqrt)


def tensor(a, b) -> np.ndarray:
    """Kronecker product."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m, dims, keep: int) -> np.ndarray:
    """Reduce a bipartite operator to one factor.

    dims is (d1, d2); keep is 0 for the first factor, 1 for the second.
    """
    d1, d2 = int(dims[0]), int(dims[1])
    a = as_operator(m)
    if a.shape[0] != d1 * d2:
        raise DimMismatchError(f"operator dim {a.shape[0]} != {d1} * {d2}")
    if keep not in (0, 1):
        raise ValidationError(f"keep must be 0 or 1, got {keep}")
    t = a.reshape(d1, d2, d1, d2)
    if keep == 0:
        return np.trace(t, axis1=1, axis2=3)
    return np.trace(t, axis1=0, axis2=2)


@functools.lru_cache(maxsize=16)  # bounded: one d x d array per dimension
def _fourier(d: int) -> np.ndarray:
    """The discrete Fourier unitary exp(2 pi i jk / d) / sqrt(d), read-only, built once per dimension.

    Its columns are unbiased to the computational basis. The witness scans
    it before the margins' eigenbases; no further unbiased basis is needed,
    since the margins' eigenbases hold a strange entry whenever any basis
    does.
    """
    m = np.arange(d)
    return _frozen(np.exp(2j * np.pi * np.outer(m, m) / d) / np.sqrt(d))
