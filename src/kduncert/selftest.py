"""Property suite behind the CLI selftest: every module invariant, at a runtime-scaled sample count.

Each property draws seeded random instances, checks its inequality or
identity at the module's stated tolerance, and reports one pass/fail line;
a property that raises reports a failing line that names the exception.
No property caps or skips a flavor: every property that checks the NCl
quantum part checks it on every instance it draws, in the same loop and at
the same tolerance as NRe. Acceptance criterion 6 runs the whole suite at
dims (2, 3, 4) with samples=10 and seed 0; the CLI selftest exists so a
deployed install can re-verify itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    _normalized_povm,
    haar_random_unitary,
    partial_trace,
    random_density,
    random_povm,
    rank_one_pvm,
    tensor,
    trace_norm,
    validate_density,
    validate_povm,
)
from .errors import KdUncertError, ValidationError
from .kdtable import johansen_components, kd_table, table_nonclassicality, table_nonreality
from .optimize import _quantum_parts, quantum_nonclassicality, quantum_nonreality, sup_over_pvm
from .uncertainty import (
    CORNER_SCAN_MAX_DIM,
    Flavor,
    bound_asymmetry,
    coarse_grain,
    decompose,
    infimum_total,
    s_entropy,
    t_entropy,
    total_uncertainty,
    uncertainty_relation_bound,
)
from .witness import (
    contextuality_witness,
    disturbance_nonreality,
    quantum_via_weak_values,
    weak_values,
)


class PropertyFailure(KdUncertError):
    """A selftest property did not hold at its stated tolerance."""


@dataclass(frozen=True)
class PropertyResult:
    name: str
    ok: bool
    detail: str


def _rng(seed, *tags):
    return np.random.default_rng([seed, *tags])


def _draws(seed, tag, dims, samples):
    """(i, d, rng) for every sample i and dimension d, i-major, each with its own seeded stream."""
    for i in range(samples):
        for d in dims:
            yield i, d, _rng(seed, tag, i, d)


def _rand_state(d, rng) -> DensityMatrix:
    return random_density(d, int(rng.integers(1, d + 1)), rng)


def _rand_rank1_povm(d, n, rng):
    """Random POVM of rank-1 effects (every effect trace is <= 1)."""
    draws = []
    for _ in range(n):
        g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        draws.append(np.outer(g, g.conj()))
    return _normalized_povm(draws)


def _rand_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def _basis_mass(u, k) -> float:
    """sum_b |<b|K|b>| over the columns |b> of u."""
    return float(np.abs(np.einsum("ib,ij,jb->b", u.conj(), k, u)).sum())


def _diagonal_state(d, rng):
    """(u, lam, rho): a Haar basis u and a full-rank state rho = u diag(lam) u^dag."""
    u = haar_random_unitary(d, rng)
    lam = rng.random(d) + 0.05
    lam /= lam.sum()
    return u, lam, validate_density((u * lam) @ u.conj().T)


def _commuting_pair(d, rng):
    """Random (state, POVM) diagonal in a common random basis."""
    u, _, rho = _diagonal_state(d, rng)
    weights = rng.random((d, 2)) + 0.1
    weights /= weights.sum(axis=1, keepdims=True)
    effects = [(u * weights[:, i]) @ u.conj().T for i in range(2)]
    return rho, validate_povm(effects)


def _flavor_gaps(first, second):
    """[NRe, NCl]: each quantum part of the (state, POVM) pair first minus that of second."""
    return [a - b for a, b in zip(_quantum_parts(*first), _quantum_parts(*second))]


def _decomposition_gap(first, second, flavor):
    """Largest gap in total, quantum or classical between the decompositions of two (state, POVM) pairs."""
    a, b = decompose(*first, flavor), decompose(*second, flavor)
    return max(abs(a.total - b.total), abs(a.quantum - b.quantum), abs(a.classical - b.classical))


def _require(cond, msg):
    if not cond:
        raise PropertyFailure(msg)


def _maximally_coherent(d) -> DensityMatrix:
    v = np.ones(d, dtype=complex) / np.sqrt(d)
    return validate_density(np.outer(v, v.conj()))


# --- qstate-core properties -------------------------------------------------


def prop_partial_trace_tensor(dims, samples, seed):
    worst = 0.0
    for i in range(3 * samples):
        rng = _rng(seed, 16, i)
        r1 = _rand_state(2, rng)
        r2 = _rand_state(3, rng)
        prod = tensor(r1.matrix, r2.matrix)
        worst = max(worst, float(np.abs(partial_trace(prod, (2, 3), 0) - r1.matrix).max()))
        worst = max(worst, float(np.abs(partial_trace(prod, (2, 3), 1) - r2.matrix).max()))
    _require(worst <= 1e-10, f"partial trace recovers factors up to {worst:.2e}")
    return f"worst factor residual {worst:.2e}"


# --- kd-quasiprob properties ------------------------------------------------


def prop_kd_marginals(dims, samples, seed):
    worst = 0.0
    low = np.inf
    for i, d, rng in _draws(seed, 20, dims, samples):
        rho = _rand_state(d, rng)
        first = random_povm(d, 2 + i % 3, rng)
        second = random_povm(d, 2 + (i + 1) % 3, rng)
        t = kd_table(rho, first, second)
        pa = [np.trace(m @ rho.matrix) for m in first.stack]
        pb = [np.trace(m @ rho.matrix) for m in second.stack]
        worst = max(worst, float(np.abs(t.marginal_a() - np.array(pa)).max()))
        worst = max(worst, float(np.abs(t.marginal_b() - np.array(pb)).max()))
        worst = max(worst, abs(t.values.sum() - 1.0))
        # |sum v - 1| <= 1e-9 puts sum |v| - 1 at or above -1e-9, which the clamp reads as 0
        low = min(low, table_nonclassicality(t))
    _require(worst <= 1e-9, f"marginals off by {worst:.2e}")
    _require(low >= 0.0, f"nonclassicality dropped to {low:.2e}")
    return f"worst marginal residual {worst:.2e}, min nonclassicality {low:.2e}"


def prop_kd_diagonal_eigenvalues(dims, samples, seed):
    worst = 0.0
    for _, d, rng in _draws(seed, 23, dims, samples):
        u, lam, rho = _diagonal_state(d, rng)
        pvm = rank_one_pvm(u)
        t = kd_table(rho, pvm, pvm)
        worst = max(worst, float(np.abs(np.diag(t.values) - lam).max()))
        off = t.values - np.diag(np.diag(t.values))
        worst = max(worst, float(np.abs(off).max()))
    _require(worst <= 1e-9, f"diagonal table mismatch {worst:.2e}")
    return f"worst entry residual {worst:.2e}"


def prop_johansen(dims, samples, seed):
    worst = 0.0
    for _, d, rng in _draws(seed, 24, dims, samples):
        rho = _rand_state(d, rng)
        first = rank_one_pvm(haar_random_unitary(d, rng))
        second = rank_one_pvm(haar_random_unitary(d, rng))
        comp = johansen_components(rho, first, second)
        t = kd_table(rho, first, second)
        worst = max(worst, float(np.abs(comp.total() - t.values).max()))
        worst = max(
            worst,
            float(np.abs(np.abs(comp.imag_part.imag) - np.abs(t.values.imag)).max()),
        )
    _require(worst <= 1e-9, f"component sum off by {worst:.2e}")
    return f"worst reconstruction residual {worst:.2e}"


# --- pvm-optimize properties ------------------------------------------------


def prop_variational_trace_norm(dims, samples, seed):
    # K is Hermitian or i times Hermitian, so sum |eig| of the Hermitian part gives its trace norm without an svd.
    # Every third draw is the stack of commutators K_a = [Pi^a, rho] / 2i of a rank-1 PVM, each with a (d - 2)-fold
    # zero eigenvalue, whose trace norms sum to the nonreality part.
    worst = worst_basis = 0.0
    for i, d, rng in _draws(seed, 30, dims, samples):
        if i % 3 == 2:
            rho = _rand_state(d, rng)
            pvm = rank_one_pvm(haar_random_unitary(d, rng))
            hs = ks = (pvm.stack @ rho.matrix - rho.matrix @ pvm.stack) / 2j  # Hermitian
        else:
            h = _rand_hermitian(d, rng)
            hs, ks = [h], [1j * h if i % 2 else h]
        spectral_sum = 0.0
        for h, k in zip(hs, ks):
            res = sup_over_pvm(k)
            spectral = np.abs(np.linalg.eigvalsh(h)).sum()
            spectral_sum += spectral
            worst = max(worst, abs(trace_norm(k) - spectral), abs(res.value - spectral))
            worst_basis = max(worst_basis, abs(_basis_mass(res.best_basis.basis_unitary, k) - res.value))
        if i % 3 == 2:
            worst = max(worst, abs(quantum_nonreality(rho, pvm) - spectral_sum))
    for d in dims:  # K = -I puts all of X's spectrum at -1, where the Cayley step needs the rotation
        res = sup_over_pvm(-np.eye(d))
        worst = max(worst, abs(res.value - d))
        worst_basis = max(worst_basis, abs(_basis_mass(res.best_basis.basis_unitary, -np.eye(d)) - d))
    _require(
        worst <= 1e-9, f"trace norm or supremum off the eigenvalue sum, or nonreality off their total, by {worst:.2e}"
    )
    _require(worst_basis <= 1e-6, f"best basis misses the supremum by {worst_basis:.2e}")
    return f"worst |trace_norm, sup, nre - sum |eig|| {worst:.2e}, attaining gap {worst_basis:.2e}"


def prop_mixing_convexity(dims, samples, seed):
    worst = -np.inf
    for _, d, rng in _draws(seed, 32, dims, samples):
        p = float(rng.random())
        rho1, rho2 = _rand_state(d, rng), _rand_state(d, rng)
        mixed = validate_density(p * rho1.matrix + (1 - p) * rho2.matrix)
        q = float(rng.random())
        povm1 = random_povm(d, 2, rng)
        povm2 = random_povm(d, 2, rng)
        povm_mix = validate_povm(q * povm1.stack + (1 - q) * povm2.stack)
        # before its -1, sum_a ||M^a rho||_1 is bilinear in (M, rho) and so
        # jointly convex, like the NRe part
        weights = (q * p, q * (1 - p), (1 - q) * p, (1 - q) * (1 - p))
        parts = [_quantum_parts(r, m) for m in (povm1, povm2) for r in (rho1, rho2)]
        lhs = _quantum_parts(mixed, povm_mix)
        rhs = [sum(w * part[k] for w, part in zip(weights, parts)) for k in range(2)]
        worst = max(worst, lhs[0] - rhs[0], lhs[1] - rhs[1])
    _require(worst <= 1e-6, f"convexity violated by {worst:.2e}")
    return f"worst NRe/NCl lhs-rhs {worst:.2e}"


def prop_partial_access(dims, samples, seed):
    worst = -np.inf
    eye2 = np.eye(2)
    for i in range(3 * samples):
        rng = _rng(seed, 34, i)
        rho12 = _rand_state(4, rng)
        rho1 = validate_density(partial_trace(rho12.matrix, (2, 2), 0))
        povm1 = random_povm(2, 2, rng)
        lifted = validate_povm([tensor(m, eye2) for m in povm1.stack])
        worst = max(worst, *_flavor_gaps((rho1, povm1), (rho12, lifted)))
    _require(worst <= 1e-6, f"reduced state exceeded joint by {worst:.2e}")
    return f"worst NRe/NCl reduced-joint gap {worst:.2e}"


def prop_coarsegrain_monotone(dims, samples, seed):
    worst = -np.inf
    for _, d, rng in _draws(seed, 35, dims, samples):
        rho = _rand_state(d, rng)
        povm = random_povm(d, 4, rng)
        merged = coarse_grain(povm, [(0, 1), (2, 3)])
        worst = max(worst, *_flavor_gaps((rho, merged), (rho, povm)))
    _require(worst <= 1e-6, f"coarse-graining increased quantumness by {worst:.2e}")
    return f"worst NRe/NCl merged-original gap {worst:.2e}"


def prop_ncl_attaining_basis(dims, samples, seed):
    worst_score = 0.0
    worst_unitary = 0.0
    worst_haar = -np.inf
    for i, d, rng in _draws(seed, 37, dims, samples):
        if i % 3 == 2:
            rho, povm = _commuting_pair(d, rng)
        else:
            rho, povm = _rand_state(d, rng), random_povm(d, 2 + i % 2, rng)
        res = quantum_nonclassicality(rho, povm)
        best = int(np.argmax(res.per_effect_values))
        for a, (m, v) in enumerate(zip(povm.stack, res.per_effect_values)):
            k_op = m @ rho.matrix
            for basis in [sup_over_pvm(k_op).best_basis] + ([res.best_basis] if a == best else []):
                u = basis.basis_unitary
                worst_unitary = max(worst_unitary, float(np.abs(u.conj().T @ u - np.eye(d)).max()))
                score = _basis_mass(u, k_op)
                worst_score = max(worst_score, abs(score - v) / max(1.0, v))
            for _ in range(4):
                h = haar_random_unitary(d, rng)
                other = _basis_mass(h, k_op)
                worst_haar = max(worst_haar, other - v)
    _require(worst_unitary <= 1e-12, f"attaining basis not unitary by {worst_unitary:.2e}")
    _require(worst_score <= 1e-12, f"attaining basis misses its value by {worst_score:.2e}")
    _require(worst_haar <= 1e-12, f"a Haar basis beat the supremum by {worst_haar:.2e}")
    return f"worst score gap {worst_score:.2e}, unitarity {worst_unitary:.2e}, Haar excess {worst_haar:.2e}"


# --- uncertainty properties -------------------------------------------------


def prop_quantum_bounded_by_total(dims, samples, seed):
    worst = -np.inf
    worst_eq = 0.0
    for i, d, rng in _draws(seed, 40, dims, samples):
        rho = _rand_state(d, rng)
        povm = random_povm(d, 2 + i % 2, rng)
        for flavor in Flavor:
            dec = decompose(rho, povm, flavor)
            worst = max(worst, dec.quantum - dec.total)
        # equality for pure states and rank-1 PVMs
        pure = random_density(d, 1, rng)
        pvm = rank_one_pvm(haar_random_unitary(d, rng))
        for flavor in Flavor:
            dec = decompose(pure, pvm, flavor)
            worst_eq = max(worst_eq, abs(dec.total - dec.quantum))
    _require(worst <= 1e-6, f"quantum exceeded total by {worst:.2e}")
    _require(worst_eq <= 1e-6, f"pure/PVM equality off by {worst_eq:.2e}")
    return f"bound slack {worst:.2e}, equality gap {worst_eq:.2e}"


def prop_commuting_entirely_classical(dims, samples, seed):
    worst = worst_table = 0.0
    for _, d, rng in _draws(seed, 41, dims, samples):
        rho, povm = _commuting_pair(d, rng)
        for flavor in Flavor:
            dec = decompose(rho, povm, flavor)
            worst = max(worst, abs(dec.quantum))
            worst = max(worst, abs(dec.classical - dec.total))
        # the KD table over the commuting pair and any second POVM is a real, nonnegative distribution
        t = kd_table(rho, povm, random_povm(d, d, rng))
        worst_table = max(worst_table, float(np.abs(t.values.imag).max()), float(-t.values.real.min()))
    _require(worst <= 1e-8, f"commuting case quantum part {worst:.2e}")
    _require(worst_table <= 1e-10, f"commuting table not real-nonnegative: {worst_table:.2e}")
    return f"worst quantum part {worst:.2e}, table deviation {worst_table:.2e}"


def prop_classical_concavity(dims, samples, seed):
    worst = -np.inf
    for _, d, rng in _draws(seed, 42, dims, samples):
        p = float(rng.random())
        rho1, rho2 = _rand_state(d, rng), _rand_state(d, rng)
        mixed = validate_density(p * rho1.matrix + (1 - p) * rho2.matrix)
        povm = random_povm(d, 2, rng)
        for flavor in Flavor:
            c_mix = decompose(mixed, povm, flavor).classical
            c_1 = decompose(rho1, povm, flavor).classical
            c_2 = decompose(rho2, povm, flavor).classical
            worst = max(worst, p * c_1 + (1 - p) * c_2 - c_mix)
    _require(worst <= 1e-6, f"classical concavity violated by {worst:.2e}")
    return f"worst mixture gap {worst:.2e}"


def prop_permutation_invariance(dims, samples, seed):
    worst = 0.0
    for _, d, rng in _draws(seed, 43, dims, samples):
        rho = _rand_state(d, rng)
        povm = random_povm(d, 3, rng)
        perm = validate_povm(
            [povm.stack[2], povm.stack[0], povm.stack[1]],
            [povm.labels[2], povm.labels[0], povm.labels[1]],
        )
        for flavor in Flavor:
            worst = max(worst, _decomposition_gap((rho, povm), (rho, perm), flavor))
    _require(worst <= 1e-9, f"permutation changed decomposition by {worst:.2e}")
    return f"worst permutation residual {worst:.2e}"


def prop_decomposition_covariance(dims, samples, seed):
    worst_parts = worst = 0.0
    for i, d, rng in _draws(seed, 44, dims, samples):
        rho = _rand_state(d, rng)
        povm = random_povm(d, 2 + i % 2, rng)
        v = haar_random_unitary(d, rng)
        rho_v = validate_density(v @ rho.matrix @ v.conj().T)
        povm_v = validate_povm(v @ povm.stack @ v.conj().T)
        worst_parts = max(worst_parts, *map(abs, _flavor_gaps((rho, povm), (rho_v, povm_v))))
        for flavor in Flavor:
            worst = max(worst, _decomposition_gap((rho, povm), (rho_v, povm_v), flavor))
    _require(worst_parts <= 1e-9, f"covariance of the quantum parts off by {worst_parts:.2e}")
    _require(worst <= 1e-6, f"unitary conjugation changed decomposition by {worst:.2e}")
    return f"worst NRe/NCl covariance gap {worst_parts:.2e}, decomposition residual {worst:.2e}"


def prop_maximal_trichotomy(dims, samples, seed):
    worst = 0.0
    for d in dims:
        uniform = [1.0 / d] * d  # each entropy's maximum, which the maximally coherent state attains
        worst = max(worst, abs(s_entropy(uniform) - np.sqrt(d - 1)), abs(t_entropy(uniform) - (np.sqrt(d) - 1)))
        coherent = _maximally_coherent(d)
        comp = rank_one_pvm(np.eye(d))
        dec = decompose(coherent, comp, Flavor.NRE)
        worst = max(worst, abs(dec.total - np.sqrt(d - 1)), abs(dec.quantum - np.sqrt(d - 1)))
        dec = decompose(coherent, comp, Flavor.NCL)
        worst = max(worst, abs(dec.total - (np.sqrt(d) - 1)), abs(dec.quantum - (np.sqrt(d) - 1)))
        mixed = validate_density(np.eye(d) / d)
        pvm = rank_one_pvm(haar_random_unitary(d, _rng(seed, 45, d)))
        for flavor in Flavor:
            dec = decompose(mixed, pvm, flavor)
            worst = max(worst, abs(dec.classical - dec.total), abs(dec.quantum))
        degenerate = validate_povm([np.eye(d) / d] * d)
        rho = _rand_state(d, _rng(seed, 46, d))
        for flavor in Flavor:
            dec = decompose(rho, degenerate, flavor)
            worst = max(worst, abs(dec.classical - dec.total), abs(dec.quantum))
    _require(worst <= 1e-6, f"maximal-uncertainty cases off by {worst:.2e}")
    return f"worst case residual {worst:.2e}"


def prop_coherence_faithfulness(dims, samples, seed):
    eps = 1e-8
    for _, d, rng in _draws(seed, 47, dims, samples):
        u, _, diagonal = _diagonal_state(d, rng)
        pvm = rank_one_pvm(u)
        _require(
            quantum_nonreality(diagonal, pvm) <= eps,
            "diagonal state scored nonzero quantum part",
        )
        coherent = random_density(d, 1, rng)
        q = quantum_nonreality(coherent, pvm)
        r = np.abs(u.conj().T @ coherent.matrix @ u)
        if r.sum() - np.trace(r) > 1e-6:  # off-diagonal l1 coherence in the basis
            _require(q > eps, f"coherent state scored {q:.2e} <= {eps}")
    return "quantum part vanishes exactly on basis-diagonal states"


def prop_infimum_impurity(dims, samples, seed):
    worst = 0.0
    worst_quant = 0.0
    for i, d, rng in _draws(seed, 48, dims, samples):
        rho = _rand_state(d, rng)
        lam = np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, 1.0)
        for flavor in Flavor:
            value, achieving = infimum_total(rho, flavor)
            analytic = (
                float(np.sqrt(lam * (1 - lam)).sum())
                if flavor is Flavor.NRE
                else float(np.sqrt(lam).sum() - 1.0)
            )
            worst = max(worst, abs(value - analytic))
            # the impurity floors the total only for measurements with
            # unit-bounded effect traces; rank-1 POVMs all qualify
            povm = _rand_rank1_povm(d, d + i % (d + 1), rng)
            worst = max(worst, value - total_uncertainty(rho, povm, flavor))
            worst_quant = max(worst_quant, *_quantum_parts(rho, achieving))
    _require(worst <= 1e-9, f"infimum mismatch {worst:.2e}")
    _require(worst_quant <= 1e-9, f"achieving POVM quantum part {worst_quant:.2e}")
    return f"worst infimum residual {worst:.2e}, achieving POVM NRe/NCl quantum part {worst_quant:.2e}"


def _require_corner_refusal(d, bound, *args):
    """Above CORNER_SCAN_MAX_DIM, the corner-scan bound must refuse d with the documented error."""
    try:
        bound(*args)
    except ValidationError as exc:
        _require(
            f"accepts d <= {CORNER_SCAN_MAX_DIM}, got d = {d}" in str(exc),
            f"{bound.__name__} refused d = {d} without naming its cap: {exc}",
        )
        return
    raise PropertyFailure(f"{bound.__name__} accepted d = {d} above its cap {CORNER_SCAN_MAX_DIM}")


def prop_asymmetry_bound(dims, samples, seed):
    worst = -np.inf
    refused = 0
    for _, d, rng in _draws(seed, 50, dims, samples):
        rho = _rand_state(d, rng)
        pvm = rank_one_pvm(haar_random_unitary(d, rng))
        if d > CORNER_SCAN_MAX_DIM:
            _require_corner_refusal(d, bound_asymmetry, rho, pvm)
            refused += 1
            continue
        bound = bound_asymmetry(rho, pvm)
        ent = total_uncertainty(rho, pvm, Flavor.NRE)
        worst = max(worst, bound - ent)
    _require(worst <= 1e-6, f"asymmetry bound exceeded entropy by {worst:.2e}")
    return f"worst bound-entropy slack {worst:.2e}, {refused} draws refused above d = {CORNER_SCAN_MAX_DIM}"


def prop_entropic_relation(dims, samples, seed):
    worst = -np.inf
    refused = 0
    for _, d, rng in _draws(seed, 51, dims, samples):
        rho = _rand_state(d, rng)
        pvm_a = rank_one_pvm(haar_random_unitary(d, rng))
        pvm_b = rank_one_pvm(haar_random_unitary(d, rng))
        if d > CORNER_SCAN_MAX_DIM:
            _require_corner_refusal(d, uncertainty_relation_bound, rho, pvm_a, pvm_b)
            refused += 1
            continue
        bound = uncertainty_relation_bound(rho, pvm_a, pvm_b)
        total = total_uncertainty(rho, pvm_a, Flavor.NRE) + total_uncertainty(rho, pvm_b, Flavor.NRE)
        worst = max(worst, bound - total)
    _require(worst <= 1e-6, f"relation bound exceeded entropy sum by {worst:.2e}")
    return f"worst bound-sum slack {worst:.2e}, {refused} draws refused above d = {CORNER_SCAN_MAX_DIM}"


# --- witness properties -----------------------------------------------------


def prop_weak_value_factorization(dims, samples, seed):
    worst = 0.0
    for i, d, rng in _draws(seed, 60, dims, samples):
        rho = _rand_state(d, rng)
        povm = random_povm(d, 2 + i % 3, rng)
        basis = rank_one_pvm(haar_random_unitary(d, rng))
        table = weak_values(rho, povm, basis)
        kdt = kd_table(rho, povm, basis)
        prod = table.values * table.postselect_probs[np.newaxis, :]
        defined = ~np.broadcast_to(table.undefined_mask, prod.shape)
        worst = max(worst, float(np.abs((prod - kdt.values))[defined].max()))
    _require(worst <= 1e-9, f"factorization identity off by {worst:.2e}")
    return f"worst factorization residual {worst:.2e}"


def prop_weak_value_integrands(dims, samples, seed):
    worst = 0.0
    for _, d, rng in _draws(seed, 61, dims, samples):
        rho = _rand_state(d, rng)
        povm = random_povm(d, 2, rng)
        basis = rank_one_pvm(haar_random_unitary(d, rng))
        nre, ncl = quantum_via_weak_values(rho, povm, basis)
        t = kd_table(rho, povm, basis)
        worst = max(worst, abs(nre - table_nonreality(t)))
        worst = max(worst, abs(ncl - table_nonclassicality(t)))
    _require(worst <= 1e-9, f"weak-value integrands off by {worst:.2e}")
    return f"worst integrand residual {worst:.2e}"


def _off_fourier_state(d, rng) -> DensityMatrix:
    """A random state orthogonal to the Fourier basis's column 0, the all-ones vector: Q sigma Q / Tr with Q = I - J/d."""
    q = np.eye(d) - np.full((d, d), 1.0 / d)
    m = q @ _rand_state(d, rng).matrix @ q
    return validate_density(m / np.trace(m).real)


def prop_witness_consistency(dims, samples, seed):
    checked = 0
    for i, d, rng in _draws(seed, 62, dims, samples):
        if i % 2 == 0:
            pairs = [_commuting_pair(d, rng)]
        else:
            pairs = [(_rand_state(d, rng), random_povm(d, 2, rng))]
        if d >= 3:
            # Pr(column 0) = 0, so the scan's entry sits in a column that, unlike column 0, is complex
            pairs.append((_off_fourier_state(d, rng), random_povm(d, 2, rng)))
        for rho, povm in pairs:
            report = contextuality_witness(rho, povm)
            _require(report.flavors_agree, "NRe and NCl channels disagreed")
            if report.contextual:
                entry = report.witness_entry
                table = weak_values(rho, povm, entry.basis)
                a_idx = povm.labels.index(entry.a)
                again = complex(table.values[a_idx, entry.b])
                _require(abs(again - entry.weak_value) <= 1e-9, "witness entry not reproducible")
                _require(
                    abs(again.imag) > report.threshold or again.real < -report.threshold,
                    "witness entry not strange",
                )
            checked += 1
    return f"{checked} instances, channels agree and witnesses re-verify"


def prop_disturbance_identity(dims, samples, seed):
    worst = 0.0
    for _, d, rng in _draws(seed, 63, dims, samples):
        rho = _rand_state(d, rng)
        pvm = rank_one_pvm(haar_random_unitary(d, rng))
        worst = max(
            worst,
            abs(disturbance_nonreality(rho, pvm) - quantum_nonreality(rho, pvm)),
        )
    _require(worst <= 1e-9, f"disturbance identity off by {worst:.2e}")
    return f"worst identity residual {worst:.2e}"


PROPERTIES = (
    ("core.partial_trace_tensor", prop_partial_trace_tensor),
    ("kd.marginals", prop_kd_marginals),
    ("kd.diagonal_eigenvalues", prop_kd_diagonal_eigenvalues),
    ("kd.johansen_reconstruction", prop_johansen),
    ("opt.variational_trace_norm", prop_variational_trace_norm),
    ("opt.mixing_convexity", prop_mixing_convexity),
    ("opt.partial_access_monotone", prop_partial_access),
    ("opt.coarsegrain_monotone", prop_coarsegrain_monotone),
    ("unc.quantum_bounded_by_total", prop_quantum_bounded_by_total),
    ("unc.commuting_entirely_classical", prop_commuting_entirely_classical),
    ("unc.classical_concavity", prop_classical_concavity),
    ("unc.permutation_invariance", prop_permutation_invariance),
    ("unc.decomposition_covariance", prop_decomposition_covariance),
    ("unc.maximal_trichotomy", prop_maximal_trichotomy),
    ("unc.coherence_faithfulness", prop_coherence_faithfulness),
    ("unc.infimum_impurity", prop_infimum_impurity),
    ("unc.asymmetry_bound", prop_asymmetry_bound),
    ("unc.entropic_relation", prop_entropic_relation),
    ("wit.factorization", prop_weak_value_factorization),
    ("wit.weak_value_integrands", prop_weak_value_integrands),
    ("wit.contextuality_consistency", prop_witness_consistency),
    ("wit.disturbance_identity", prop_disturbance_identity),
    ("opt.ncl_attaining_basis", prop_ncl_attaining_basis),
)


def run_selftest(dims=(2, 3, 4), samples=8, seed=0):
    """Run every property; returns (all_passed, [PropertyResult])."""
    dims = tuple(int(d) for d in dims)
    results = []
    for name, fn in PROPERTIES:
        try:
            results.append(PropertyResult(name=name, ok=True, detail=fn(dims, samples, seed)))
        except PropertyFailure as exc:
            results.append(PropertyResult(name=name, ok=False, detail=str(exc)))
        except MemoryError:
            raise
        except Exception as exc:  # a property that raises fails; the others still run
            results.append(PropertyResult(name=name, ok=False, detail=f"raised {type(exc).__name__}: {exc}"))
    return all(r.ok for r in results), results
