import dataclasses

import numpy as np
import pytest

import gen_bits
import kduncert as kd
from kduncert import optimize
from kduncert.optimize import _quantum_parts
from conftest import PAULI_X
from oracles import attaining_bases_stacked, pure_state_parts


def _z_povm():
    return kd.rank_one_pvm(np.eye(2))


def test_quantum_nonreality_commuting_vanishes():
    for i in range(10):
        d = 2 + i % 3
        u = kd.haar_random_unitary(d, seed=40 + i)
        lam = np.linspace(1, 2, d)
        lam /= lam.sum()
        rho = kd.validate_density((u * lam) @ u.conj().T)
        povm = kd.rank_one_pvm(u)
        assert kd.quantum_nonreality(rho, povm) < 1e-10


def test_quantum_nonreality_fixtures(derived):
    plus = kd.validate_density(np.full((2, 2), 0.5))
    assert abs(kd.quantum_nonreality(plus, _z_povm()) - derived["nre_plus_z"]) < 1e-12
    mix = kd.validate_density(np.eye(2) / 2 + PAULI_X / 4)
    assert abs(kd.quantum_nonreality(mix, _z_povm()) - derived["nre_halfmix_z"]) < 1e-12


def test_quantum_nonreality_pure_state_stddev_identity():
    # for pure states the commutator form equals sum_a sqrt(p_a (1 - p_a))
    for i in range(10):
        d = 2 + i % 3
        psi = kd.random_density(d, 1, seed=50 + i)
        pvm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=60 + i))
        probs = kd.outcome_probs(psi, pvm)
        assert abs(kd.quantum_nonreality(psi, pvm) - kd.s_entropy(probs)) < 1e-9


def _variational_nonreality(rho, povm):
    """Sum over effects of the |diag| supremum of K = [M, rho] / 2i."""
    m = rho.matrix
    return sum(kd.sup_over_pvm((e @ m - m @ e) / 2j).value for e in povm.stack)


def test_variational_nonreality_commuting():
    u = kd.haar_random_unitary(2, seed=90)
    rho = kd.validate_density((u * np.array([0.7, 0.3])) @ u.conj().T)
    povm = kd.rank_one_pvm(u)
    assert _variational_nonreality(rho, povm) < 1e-8


def test_quantum_nonclassicality_fixture(derived):
    plus = kd.validate_density(np.full((2, 2), 0.5))
    res = kd.quantum_nonclassicality(plus, _z_povm())
    assert abs(res.value - derived["ncl_plus_z"]) < 1e-9
    assert res.converged


def test_quantum_nonclassicality_commuting_is_zero():
    u = kd.haar_random_unitary(3, seed=91)
    lam = np.array([0.5, 0.3, 0.2])
    rho = kd.validate_density((u * lam) @ u.conj().T)
    povm = kd.rank_one_pvm(u)
    res = kd.quantum_nonclassicality(rho, povm)
    assert abs(res.value) < 1e-8


def test_quantum_nonclassicality_pure_equals_sqrt_probs():
    for i in range(8):
        psi = kd.random_density(2, 1, seed=100 + i)
        pvm = kd.rank_one_pvm(kd.haar_random_unitary(2, seed=110 + i))
        probs = kd.outcome_probs(psi, pvm)
        expect = sum(np.sqrt(p) for p in probs) - 1.0
        res = kd.quantum_nonclassicality(psi, pvm)
        assert abs(res.value - expect) < 1e-6


def test_sup_over_pvm_constant_objective():
    # K = 0 makes every basis score exactly 0
    res = kd.sup_over_pvm(np.zeros((3, 3)))
    assert res.value == 0.0
    assert res.converged
    assert res.iterations_used == 1
    assert res.value == max(res.per_restart_values)


def test_sup_over_pvm_reaches_trace_norm():
    for i in range(6):
        d = 2 + i % 3
        rng = np.random.default_rng(120 + i)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g + g.conj().T
        if i % 2:
            h = 1j * h
        target = kd.trace_norm(h)

        def objective(pvm, h=h):
            u = pvm.basis_unitary
            return float(np.abs(np.einsum("ib,ij,jb->b", u.conj(), h, u)).sum())

        res = kd.sup_over_pvm(h)
        assert abs(res.value - target) < 1e-6
        assert res.value == max(res.per_restart_values)
        basis_val = objective(res.best_basis)
        assert abs(basis_val - res.value) < 1e-9


def test_sup_over_pvm_deterministic():
    rng = np.random.default_rng(125)
    k_op = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))  # not normal
    a = kd.sup_over_pvm(k_op)
    b = kd.sup_over_pvm(k_op)
    assert a.value == b.value
    assert a.per_restart_values == b.per_restart_values
    assert np.array_equal(a.best_basis.basis_unitary, b.best_basis.basis_unitary)


def test_sup_over_pvm_rejects_non_square():
    for bad in (np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2)), np.zeros((0, 0)), [[1.0, np.nan], [0.0, 1.0]]):
        with pytest.raises(kd.ValidationError):
            kd.sup_over_pvm(bad)


def test_optimizer_config_validation():
    assert [f.name for f in dataclasses.fields(kd.OptimizerConfig)] == ["n_restarts", "seed"]
    with pytest.raises(kd.ValidationError, match="n_restarts"):
        kd.OptimizerConfig(n_restarts=0)
    for bad in (-1, -5):
        with pytest.raises(kd.ValidationError, match="seed must be >= 0"):
            kd.OptimizerConfig(seed=bad)
    assert kd.OptimizerConfig(n_restarts=1, seed=0).seed == 0


def test_ncl_engine_bits_match_frozen_fixture():
    # every bit of the closed form's output is pinned; see tests/gen_bits.py
    frozen = gen_bits.load("ncl")
    assert gen_bits.compute("ncl") == frozen["cases"], f"frozen under {frozen['config']}, running under {gen_bits.machine()}"


def _ncl_instances():
    """(state, POVM) pairs at d = 1..8: mixed, pure, rank-deficient and commuting."""
    out = []
    for d in range(1, 9):
        for rank in sorted({1, max(1, d // 2), d}):
            out.append((kd.random_density(d, rank, seed=400 + 10 * d + rank), kd.random_povm(d, 3, seed=500 + d)))
        u = kd.haar_random_unitary(d, seed=600 + d)
        lam = np.linspace(1, 2, d)
        rho = kd.validate_density((u * (lam / lam.sum())) @ u.conj().T)
        out.append((rho, kd.rank_one_pvm(u)))
    return out


def _abs_diag(k_op, u):
    return float(np.abs(np.einsum("ib,ij,jb->b", u.conj(), k_op, u)).sum())


def test_ncl_closed_form_attained():
    cases = []  # (K, value, attaining basis)
    for rho, povm in _ncl_instances():
        res = kd.quantum_nonclassicality(rho, povm)
        for m, v in zip(povm.stack, res.per_effect_values):
            k_op = m @ rho.matrix
            cases.append((k_op, v, kd.sup_over_pvm(k_op).best_basis))
    for d in range(1, 9):
        for k_op in (np.zeros((d, d)), -np.eye(d)):
            res = kd.sup_over_pvm(k_op)
            cases.append((k_op, res.value, res.best_basis))
    for k_op, v, basis in cases:
        u = basis.basis_unitary
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= 1e-12
        assert abs(_abs_diag(k_op, u) - v) <= 1e-12 * max(1.0, v)
        assert v == kd.trace_norm(k_op)


def test_ncl_builds_only_the_largest_effects_basis(monkeypatch):
    shapes = []
    build = optimize._attaining_basis

    def spy(k):
        shapes.append(k.shape)
        return build(k)

    instances = _ncl_instances()
    for d in range(1, 17):
        instances.append((kd.random_density(d, d, seed=700 + d), kd.random_povm(d, 2 + d % 3, seed=800 + d)))
    monkeypatch.setattr(optimize, "_attaining_basis", spy)
    for rho, povm in instances:
        shapes.clear()
        res = kd.quantum_nonclassicality(rho, povm)
        assert shapes == [(rho.dim, rho.dim)]
        i = int(np.argmax(res.per_effect_values))
        k_op = povm.stack[i] @ rho.matrix
        u = res.best_basis.basis_unitary
        assert u.tobytes() == kd.sup_over_pvm(k_op).best_basis.basis_unitary.tobytes()
        v = max(res.per_effect_values)
        assert abs(_abs_diag(k_op, u) - v) <= 1e-12 * max(1.0, v)


def test_attaining_basis_matches_the_stacked_build_bit_for_bit():
    # products M^a rho and commutators [M^a, rho] / 2i of full-rank and rank-1 states,
    # commuting products and K = 0, each against its row of the stacked build
    ks = []
    for d in range(1, 17):
        povm = kd.random_povm(d, d, seed=900 + d)
        for rank in sorted({1, d}):
            rho = kd.random_density(d, rank, seed=950 + 2 * d + rank).matrix
            for m in povm.stack:
                ks += [m @ rho, (m @ rho - rho @ m) / 2j]
        u = kd.haar_random_unitary(d, seed=1000 + d)
        lam = np.linspace(1, 2, d)
        rho = (u * (lam / lam.sum())) @ u.conj().T
        ks += [p @ rho for p in kd.rank_one_pvm(u).stack] + [np.zeros((d, d), dtype=complex)]
    for k in ks:
        assert optimize._attaining_basis(k).tobytes() == attaining_bases_stacked(k[None])[0].tobytes()


def test_ncl_upper_bounds_random_bases():
    seeds = iter(range(10_000, 10**6))
    for rho, povm in _ncl_instances():
        res = kd.quantum_nonclassicality(rho, povm)
        for m, v in zip(povm.stack, res.per_effect_values):
            k_op = m @ rho.matrix
            for _ in range(500):
                u = kd.haar_random_unitary(rho.dim, seed=next(seeds))
                assert _abs_diag(k_op, u) <= v + 1e-12


def _haar_pvm(d, seed):
    return kd.rank_one_pvm(kd.haar_random_unitary(d, seed=seed))


def test_quantum_parts_bit_exact():
    # the witness's one-svd path gives the same bits as the two public calls
    seed = 0
    for d in range(1, 17):
        for rank in sorted({1, min(2, d), d}):
            for n in (1, 2, 3, d + 2):
                seed += 1
                rho = kd.random_density(d, rank, seed=seed)
                for povm in (kd.random_povm(d, n, seed=1000 + seed), _haar_pvm(d, 2000 + seed)):
                    ncl = kd.quantum_nonclassicality(rho, povm)
                    assert _quantum_parts(rho, povm) == (kd.quantum_nonreality(rho, povm), ncl.value), (d, rank, n)
                    # the per-effect values summed in effect order, then the clamp of roundoff below zero
                    total = sum(ncl.per_effect_values) - 1.0
                    assert ncl.value == (0.0 if -1e-9 <= total < 0.0 else total), (d, rank, n)


def test_pure_state_parts_match_the_svd_free_oracle():
    # for rho = |psi><psi| both quantum parts are vector norms that share no code with the svd;
    # measured by a rank-1 PVM, a pure state's whole uncertainty is quantum
    rng = np.random.default_rng(3300)
    for d in range(1, 17):
        tol = 32 * d * np.finfo(float).eps
        for i in range(10):
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi /= np.linalg.norm(psi)
            rho = kd.validate_density(np.outer(psi, psi.conj()))
            povm = kd.random_povm(d, 2 + i % 3, seed=3400 + 10 * d + i)
            for m in (povm, _haar_pvm(d, 3600 + 10 * d + i)):
                nre, ncl = pure_state_parts(psi, m.stack)
                got = _quantum_parts(rho, m)
                assert abs(got[0] - nre) <= tol and abs(got[1] - ncl) <= tol, (d, i)
                for flavor, want in ((kd.Flavor.NRE, nre), (kd.Flavor.NCL, ncl)):
                    dec = kd.decompose(rho, m, flavor)
                    assert abs(dec.quantum - want) <= tol, (d, i, flavor)
                    if m is not povm:
                        assert abs(dec.classical) <= tol, (d, i, flavor)
