"""Independent brute-force oracles for the worked-example regression fixtures.

Deliberately primitive: closed-form 2x2 singular values, literal dense
matrix products, one Bloch-sphere grid scan (bloch_grid_sup_abs, with which
tests/gen_fixtures.py cross-checks its NCl fixture), the qubit
decompositions in closed form in the Bloch vectors (qubit_closed_forms),
and corner enumeration (pure Python for qubits; for the d x d commutator
bounds, one dense numpy commutator per sign corner). Nothing here calls
into the package, so agreement between these values and the library is a
genuine cross-check. The *_loop functions keep
the one-effect-at-a-time forms of kd_table and outcome_probs, with the
library's order of operations, so the stacked library paths can be pinned
to them bit for bit. johansen_loop keeps the per-entry trace form of
johansen_components, whose closed form regroups that arithmetic, so that
pin is a tolerance. first_strange_loop keeps the witness scan's former
table-and-loop form, a full weak-value table per basis read one entry at a
time, so the table-free scan can be pinned to it bit for bit.
attaining_bases_stacked keeps the NCl attaining-basis build's former form,
each step run once on a stack of matrices, so the one-matrix build can be
pinned to its rows bit for bit. unbiased_bases keeps the witness's former
catalog of unbiased bases at prime d, so the tests can check that the
margins' eigenbases find every entry it held beyond the Fourier basis.
pure_state_parts gives both quantum parts of a pure state |psi><psi| from
vectors alone, with no svd: a second side of the trace-norm kernel.
"""

import cmath
import itertools
import math

import numpy as np

I2 = ((1 + 0j, 0j), (0j, 1 + 0j))
PAULI_X = ((0j, 1 + 0j), (1 + 0j, 0j))
PAULI_Y = ((0j, -1j), (1j, 0j))
PAULI_Z = ((1 + 0j, 0j), (0j, -1 - 0j))

KET_ZERO = (1 + 0j, 0j)
KET_PLUS = (1 / math.sqrt(2) + 0j, 1 / math.sqrt(2) + 0j)
KET_YPLUS = (1 / math.sqrt(2) + 0j, 1j / math.sqrt(2))


def mat2(rows):
    return tuple(tuple(complex(x) for x in row) for row in rows)


def matmul2(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def dagger2(a):
    return tuple(tuple(a[j][i].conjugate() for j in range(2)) for i in range(2))


def trace2(a):
    return a[0][0] + a[1][1]


def add2(a, b, sb=1.0):
    return tuple(tuple(a[i][j] + sb * b[i][j] for j in range(2)) for i in range(2))


def scale2(a, s):
    return tuple(tuple(s * a[i][j] for j in range(2)) for i in range(2))


def outer2(u, v):
    return tuple(tuple(u[i] * v[j].conjugate() for j in range(2)) for i in range(2))


def singular_values_2x2(m):
    """Singular values of a 2x2 complex matrix via the quadratic formula on M^dag M."""
    a = matmul2(dagger2(m), m)
    tr = a[0][0].real + a[1][1].real
    det = (a[0][0] * a[1][1] - a[0][1] * a[1][0]).real
    disc = max(tr * tr - 4.0 * det, 0.0)
    lam1 = 0.5 * (tr + math.sqrt(disc))
    lam2 = 0.5 * (tr - math.sqrt(disc))
    return math.sqrt(max(lam1, 0.0)), math.sqrt(max(lam2, 0.0))


def trace_norm_2x2(m):
    s1, s2 = singular_values_2x2(m)
    return s1 + s2


def commutator2(a, b):
    return add2(matmul2(a, b), matmul2(b, a), sb=-1.0)


def bloch_basis(theta, phi):
    """Orthonormal qubit basis whose first vector points along (theta, phi)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    ph = cmath.exp(1j * phi)
    return (c + 0j, ph * s), (-ph.conjugate() * s, c + 0j)


def qubit_closed_forms(r, n):
    """Closed forms of rho = (I + r.sigma) / 2 measured in the eigenbasis of n.sigma, with c = n.r.

    r is a Bloch vector (|r| <= 1) and n a unit vector. Returns the NRe total
    sqrt(1 - c^2) and quantum part |n x r|, the NCl total
    sum_+- sqrt((1 +- c) / 2) - 1 and quantum part
    sum_+- sqrt((1 + |r|^2) / 4 +- c / 2) - 1, and impurity_s sqrt(1 - |r|^2).
    Roundoff below 0 under a square root, as at |r| = 1, is read as 0.
    """
    c = n[0] * r[0] + n[1] * r[1] + n[2] * r[2]
    r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2]
    cross = (n[1] * r[2] - n[2] * r[1], n[2] * r[0] - n[0] * r[2], n[0] * r[1] - n[1] * r[0])

    def root(x):
        return math.sqrt(max(x, 0.0))

    return {
        "nre_total": root(1.0 - c * c),
        "nre_quantum": math.sqrt(sum(x * x for x in cross)),
        "ncl_total": root((1.0 + c) / 2.0) + root((1.0 - c) / 2.0) - 1.0,
        "ncl_quantum": root((1.0 + r2) / 4.0 + c / 2.0) + root((1.0 + r2) / 4.0 - c / 2.0) - 1.0,
        "impurity_s": root(1.0 - r2),
    }


def expectation(vec, m):
    out0 = m[0][0] * vec[0] + m[0][1] * vec[1]
    out1 = m[1][0] * vec[0] + m[1][1] * vec[1]
    return vec[0].conjugate() * out0 + vec[1].conjugate() * out1


def bloch_grid_sup_abs(k_op, grid=400):
    """max over rank-1 PVM bases of |<u1|K|u1>| + |<u2|K|u2>| by grid scan."""
    best = 0.0
    for i in range(grid + 1):
        theta = math.pi * i / grid
        for j in range(2 * grid):
            phi = math.pi * j / grid
            u1, u2 = bloch_basis(theta, phi)
            val = abs(expectation(u1, k_op)) + abs(expectation(u2, k_op))
            best = max(best, val)
    return best


def projector_z(which):
    return outer2((1 + 0j, 0j), (1 + 0j, 0j)) if which == 0 else outer2((0j, 1 + 0j), (0j, 1 + 0j))


def projector_x(which):
    v = (1 / math.sqrt(2) + 0j, (1 if which == 0 else -1) / math.sqrt(2) + 0j)
    return outer2(v, v)


def projector_y(which):
    v = (1 / math.sqrt(2) + 0j, (1j if which == 0 else -1j) / math.sqrt(2))
    return outer2(v, v)


def kd_entry(rho, m_first, m_second):
    """Tr{M^b M^a rho} by literal dense products."""
    return trace2(matmul2(m_second, matmul2(m_first, rho)))


def corner_bound_asymmetry_qubit(rho, basis_vecs):
    """max over sign vectors of ||[A, rho]||_1 / 2 with A = sum s_j |v_j><v_j|."""
    best = 0.0
    for s0, s1 in ((1, 1), (1, -1)):
        a_op = add2(scale2(outer2(basis_vecs[0], basis_vecs[0]), s0),
                    scale2(outer2(basis_vecs[1], basis_vecs[1]), s1))
        best = max(best, 0.5 * trace_norm_2x2(commutator2(a_op, rho)))
    return best


def corner_relation_bound_qubit(rho, basis_a, basis_b):
    """max over sign pairs of |Tr{[A, B] rho}| with A, B diagonal in each basis."""
    best = 0.0
    for sa in ((1, 1), (1, -1)):
        a_op = add2(scale2(outer2(basis_a[0], basis_a[0]), sa[0]),
                    scale2(outer2(basis_a[1], basis_a[1]), sa[1]))
        for sb in ((1, 1), (1, -1)):
            b_op = add2(scale2(outer2(basis_b[0], basis_b[0]), sb[0]),
                        scale2(outer2(basis_b[1], basis_b[1]), sb[1]))
            best = max(best, abs(trace2(matmul2(commutator2(a_op, b_op), rho))))
    return best


def _basis_projectors(basis):
    u = np.asarray(basis, dtype=complex)
    return [np.outer(u[:, j], u[:, j].conj()) for j in range(u.shape[1])]


def corner_bound_asymmetry(rho, basis):
    """max over s in {+1, -1}^d of ||[A, rho]||_1 / 2 with A = sum_j s_j |u_j><u_j|.

    rho is a d x d array and basis holds the vectors u_j in its columns.
    Every corner is scanned with one dense commutator; [A, rho] is
    anti-Hermitian, so its trace norm is the sum of |eigenvalues| of the
    Hermitian i[A, rho].
    """
    rho = np.asarray(rho, dtype=complex)
    projs = _basis_projectors(basis)
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=len(projs)):
        a_op = sum(s * p for s, p in zip(signs, projs))
        comm = a_op @ rho - rho @ a_op
        best = max(best, 0.5 * float(np.abs(np.linalg.eigvalsh(1j * comm)).sum()))
    return best


def corner_relation_bound(rho, basis_a, basis_b):
    """max over sign vectors alpha, beta of |Tr{[A, B] rho}| with A, B diagonal in each basis.

    Tr{[A, B] rho} = Tr{A [B, rho]} = sum_j alpha_j <a_j|[B, rho]|a_j>, so
    for each corner beta the best alpha gives sum_j |<a_j|[B, rho]|a_j>|:
    one dense commutator per corner beta.
    """
    rho = np.asarray(rho, dtype=complex)
    projs_a = _basis_projectors(basis_a)
    projs_b = _basis_projectors(basis_b)
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=len(projs_b)):
        b_op = sum(s * p for s, p in zip(signs, projs_b))
        comm = b_op @ rho - rho @ b_op
        best = max(best, sum(abs(np.trace(p @ comm)) for p in projs_a))
    return float(best)


def weak_value(rho, effect, postselect):
    """<b|M rho|b> / <b|rho|b> by literal products."""
    numer = expectation(postselect, matmul2(effect, rho))
    denom = expectation(postselect, rho).real
    return numer / denom


def kd_table_loop(rho, first_effects, second_effects):
    """Tr{M^b M^a rho} as a complex (n_a, n_b) array, one trace per (a, b) pair."""
    values = np.empty((len(first_effects), len(second_effects)), dtype=complex)
    for a, ma in enumerate(first_effects):
        ma_rho = ma @ rho
        for b, mb in enumerate(second_effects):
            values[a, b] = np.trace(mb @ ma_rho)
    return values


def johansen_loop(rho, first_u, second_u):
    """(projected, real_shift, imag_part) over the column bases of two unitaries, one (a, b) pair at a time."""
    d = rho.shape[0]
    eye = np.eye(d)
    projected = np.empty((d, d))
    real_shift = np.empty((d, d))
    imag_part = np.empty((d, d), dtype=complex)
    second_projs = [np.outer(second_u[:, b], second_u[:, b].conj()) for b in range(d)]
    for a in range(d):
        pa = np.outer(first_u[:, a], first_u[:, a].conj())
        comp = eye - pa
        delta = rho - (pa @ rho @ pa + comp @ rho @ comp)
        rot = eye + (np.exp(-0.5j * np.pi) - 1.0) * pa
        for b, pb in enumerate(second_projs):
            projected[a, b] = np.trace(pb @ pa @ rho @ pa).real
            real_shift[a, b] = 0.5 * np.trace(delta @ pb).real
            pb_rot = rot @ pb @ rot.conj().T
            imag_part[a, b] = -0.5j * np.trace(delta @ pb_rot).real
    return projected, real_shift, imag_part


def outcome_probs_loop(rho, effects):
    """Born probabilities Tr{M^a rho}, one effect at a time, range- and sum-checked, clamped to [0, 1]."""
    probs = []
    for m in effects:
        p = float(np.trace(m @ rho).real)
        if p < -1e-10 or p > 1.0 + 1e-10:
            raise ValueError(f"probability {p:.12g} outside [0, 1]")
        probs.append(min(max(p, 0.0), 1.0))
    if abs(sum(probs) - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {sum(probs):.12g}")
    return probs


def first_strange_loop(rho, stack, unitaries, threshold, prob_min, undefined_prob):
    """(a, b, w, u) of the first weak value with |Im w| > threshold or Re w < -threshold, or None.

    The bases are the columns of each unitary u, in order; within a basis
    the scan runs over effects a, then columns b, and skips columns whose
    clipped postselection probability is below prob_min. Each basis gets the
    full table: probabilities clipped at 0, and numerators divided wherever
    the probability exceeds undefined_prob, zero elsewhere.
    """
    for u in unitaries:
        rho_u = rho @ u
        probs = np.clip(np.einsum("ib,ib->b", u.conj(), rho_u).real, 0.0, None)
        mask = probs <= undefined_prob
        numer = np.einsum("ib,aij,jb->ab", u.conj(), stack, rho_u)
        values = np.zeros((stack.shape[0], u.shape[1]), dtype=complex)
        np.divide(numer, probs, out=values, where=~mask)
        for a in range(stack.shape[0]):
            for b in range(u.shape[1]):
                if probs[b] < prob_min:
                    continue
                w = complex(values[a, b])
                if abs(w.imag) > threshold or w.real < -threshold:
                    return a, b, w, u
    return None


def attaining_bases_stacked(k_ops):
    """Per matrix K_i of a stack (n, d, d), an orthonormal basis attaining ||K_i||_1, as the columns of row i.

    Eigenbasis of X = V U^dag from svd(K) = U S V^dag, by eigh on a Cayley
    transform of X rotated so that the widest gap of its spectrum sits at
    -1; each numpy.linalg call runs once on the whole stack.
    """
    n, d, _ = k_ops.shape
    u, _, vh = np.linalg.svd(k_ops)
    x = vh.conj().swapaxes(-1, -2) @ u.conj().swapaxes(-1, -2)
    phases = np.sort(np.angle(np.linalg.eigvals(x)), axis=-1)
    gaps = np.diff(np.concatenate([phases, phases[:, :1] + 2.0 * math.pi], axis=-1), axis=-1)
    rows = np.arange(n)
    i = np.argmax(gaps, axis=-1)
    y = x * np.exp(1j * (math.pi - phases[rows, i] - 0.5 * gaps[rows, i]))[:, None, None]
    eye = np.eye(d)
    h = 1j * np.linalg.solve(eye + y, eye - y)
    return np.linalg.eigh(0.5 * (h + h.conj().swapaxes(-1, -2)))[1]


PRIMES = (2, 3, 5, 7, 11, 13)


def unbiased_bases(d):
    """The bases mutually unbiased to the computational basis and to each other, at a prime d in PRIMES.

    First the Fourier unitary F with F[j, k] = exp(2 pi i jk / d) / sqrt(d);
    then, for d = 2, diag(1, i) F, and for odd d the quadratic-phase family
    diag(exp(2 pi i k m^2 / d)) F for k = 1 ... d - 1.
    """
    if d not in PRIMES:
        raise ValueError(f"d = {d} is not in {PRIMES}")
    m = np.arange(d)
    f = np.exp(2j * np.pi * np.outer(m, m) / d) / np.sqrt(d)
    if d == 2:
        return [f, np.diag([1.0, 1.0j]) @ f]
    return [np.diag(np.exp(2j * np.pi * k * m * m / d)) @ f for k in range(d)]


def pure_state_parts(psi, effects):
    """(NRe, NCl) quantum parts of rho = |psi><psi| for a unit vector psi, svd-free.

    With r_a = M^a psi - <M^a> psi, [M^a, rho] = |r_a><psi| - |psi><r_a|, so
    half its trace norm is ||r_a||; M^a rho = (M^a psi)<psi| has rank 1, so
    its trace norm is ||M^a psi||. r_a is formed as a vector: the form
    sqrt(<M^2> - <M>^2) cancels to about sqrt(eps).
    """
    psi = np.asarray(psi, dtype=complex)
    nre = ncl = 0.0
    for m in effects:
        m_psi = np.asarray(m, dtype=complex) @ psi
        nre += float(np.linalg.norm(m_psi - np.vdot(psi, m_psi) * psi))
        ncl += float(np.linalg.norm(m_psi))
    return nre, ncl - 1.0
