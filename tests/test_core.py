import numpy as np
import pytest

import kduncert as kd
from kduncert import serialize
from kduncert.core import _fourier, _pvm_unchecked
from kduncert.optimize import _quantum_parts
from conftest import PAULI_X, PAULI_Y


def test_validate_density_accepts_pure_states():
    kd.validate_density([[1, 0], [0, 0]])
    kd.validate_density([[0.5, 0.5], [0.5, 0.5]])


def test_validate_density_rejections():
    with pytest.raises(kd.ValidationError, match=r"^state is not PSD: min eigenvalue -1\.000e-01$"):
        kd.validate_density([[0.5, 0.6], [0.6, 0.5]])  # eigenvalues 1.1, -0.1
    with pytest.raises(kd.ValidationError, match=r"^state trace is 0\.75\+0j, deviation 2\.500e-01$"):
        kd.validate_density([[0.5, 0], [0, 0.25]])
    with pytest.raises(kd.ValidationError, match=r"^state is not Hermitian: max \|m - m\^dag\| = 4\.000e-01$"):
        kd.validate_density([[0.5, 0.5], [0.1, 0.5]])
    with pytest.raises(kd.ValidationError):
        kd.validate_density([[np.inf, 0], [0, 1]])


def test_validate_povm_examples():
    kd.validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    kd.validate_povm([np.eye(2) / 2, np.eye(2) / 2])
    with pytest.raises(kd.ValidationError, match=r"^effects do not resolve identity: max \|sum - I\| = 1\.000e\+00$"):
        kd.validate_povm([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
    with pytest.raises(kd.ValidationError, match=r"^effects do not resolve identity: max \|sum - I\| = 1\.000e-06$"):
        kd.validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0 - 1e-6])])
    with pytest.raises(kd.ValidationError, match=r"^effect 1 is not PSD: min eigenvalue -5\.000e-01$"):
        kd.validate_povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])


def test_povm_labels():
    povm = kd.validate_povm([np.eye(2) / 2, np.eye(2) / 2], labels=["up", "down"])
    assert povm.labels == ("up", "down")
    with pytest.raises(kd.ValidationError):
        kd.validate_povm([np.eye(2)], labels=["a", "b"])
    # labels are compared as strings, so 1 and "1" repeat
    for labels, repeated in ((["x", "x"], "x"), ([1, "1"], "1"), (["a", "b", "a"], "a")):
        effects = [np.eye(2) / len(labels)] * len(labels)
        with pytest.raises(kd.ValidationError, match=f"label '{repeated}' names more than one effect"):
            kd.validate_povm(effects, labels=labels)


def test_rank_one_pvm_validation():
    kd.rank_one_pvm(np.eye(3))
    with pytest.raises(kd.ValidationError, match=r"^basis is not unitary: max \|U\^dag U - I\| = 1\.000e\+00$"):
        kd.rank_one_pvm(np.array([[1, 0], [1, 0]], dtype=complex))


def test_rank_one_pvm_projectors_complete():
    u = kd.haar_random_unitary(4, seed=11)
    pvm = kd.rank_one_pvm(u)
    projs = pvm.stack
    total = np.sum(projs, axis=0)
    assert np.abs(total - np.eye(4)).max() < 1e-9
    for a in range(4):
        for b in range(4):
            expect = projs[a] if a == b else 0.0
            assert np.abs(projs[a] @ projs[b] - expect).max() < 1e-9


@pytest.mark.parametrize(
    "fn",
    [
        kd.validate_density,
        lambda m: kd.validate_povm([m]),
        kd.rank_one_pvm,
        kd.trace_norm,
        lambda m: kd.partial_trace(m, (0, 5), 1),
        kd.sup_over_pvm,
    ],
    ids=["validate_density", "validate_povm", "rank_one_pvm", "trace_norm", "partial_trace", "sup_over_pvm"],
)
def test_empty_matrix_is_a_validation_error(fn):
    with pytest.raises(kd.ValidationError, match=r"^expected a non-empty square matrix, got shape \(0, 0\)$"):
        fn(np.zeros((0, 0)))


def test_trace_norm_examples(derived):
    assert kd.trace_norm(np.zeros((2, 2))) == 0.0
    assert abs(kd.trace_norm(1j * PAULI_Y) - 2.0) < 1e-12
    swap = np.array([[0, 0.25], [-0.25, 0]])
    assert abs(kd.trace_norm(swap) - derived["trace_norm_quarter_swap"]) < 1e-12


def test_trace_norm_matches_eigenvalues():
    for i in range(30):
        d = 2 + i % 5
        rng = np.random.default_rng(200 + i)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g + g.conj().T
        assert abs(kd.trace_norm(h) - np.abs(np.linalg.eigvalsh(h)).sum()) < 1e-9


def test_haar_random_unitary():
    u1 = kd.haar_random_unitary(1, seed=3)
    assert abs(abs(u1[0, 0]) - 1.0) < 1e-12
    u = kd.haar_random_unitary(4, seed=9)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10
    assert np.abs(np.linalg.norm(u, axis=0) - 1.0).max() < 1e-10
    again = kd.haar_random_unitary(4, seed=9)
    assert np.array_equal(u, again)
    # U is the unique QR factor of the Ginibre draw Z: U^dag Z is upper triangular with a real, positive
    # diagonal (plain QR leaves phases on that diagonal)
    for d in range(2, 7):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            r = kd.haar_random_unitary(d, seed=seed).conj().T @ z
            assert np.abs(np.tril(r, -1)).max() < 1e-12, (d, seed)
            assert np.abs(np.diag(r).imag).max() < 1e-12 and np.diag(r).real.min() > 0.0, (d, seed)


def test_random_density():
    pure = kd.random_density(3, rank=1, seed=7)
    assert abs(np.trace(pure.matrix @ pure.matrix).real - 1.0) < 1e-9
    mixed = kd.random_density(2, rank=2, seed=7)
    assert np.trace(mixed.matrix @ mixed.matrix).real < 1.0 - 1e-6
    assert np.array_equal(kd.random_density(2, 2, seed=5).matrix, kd.random_density(2, 2, seed=5).matrix)
    with pytest.raises(kd.ValidationError, match=r"^rank must be in \[1, 2\], got 3$"):
        kd.random_density(2, rank=3, seed=0)


def test_random_povm():
    single = kd.random_povm(3, 1, seed=0)
    assert np.abs(single.stack[0] - np.eye(3)).max() < 1e-9
    povm = kd.random_povm(2, 3, seed=4)
    assert povm.n_outcomes == 3
    assert np.abs(np.sum(povm.stack, axis=0) - np.eye(2)).max() < 1e-9
    again = kd.random_povm(2, 3, seed=4)
    for a, b in zip(povm.stack, again.stack):
        assert np.array_equal(a, b)
    with pytest.raises(kd.ValidationError, match=r"^n_outcomes must be >= 1, got 0$"):
        kd.random_povm(2, 0, seed=0)


def test_random_generators_validate_at_scale():
    # 1000 seeded draws through the validating factories
    for i in range(500):
        d = 2 + i % 3
        kd.random_density(d, 1 + i % d, seed=1000 + i)
        kd.random_povm(d, 2 + i % 3, seed=2000 + i)


def test_tensor_examples():
    assert np.allclose(kd.tensor(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(
        kd.tensor(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])), np.diag([1.0, 0, 0, 0])
    )
    xt = kd.tensor(PAULI_X, np.eye(2))
    expect = np.zeros((4, 4))
    expect[0, 2] = expect[1, 3] = expect[2, 0] = expect[3, 1] = 1.0
    assert np.allclose(xt, expect)


def test_partial_trace():
    r1 = kd.random_density(2, 2, seed=31).matrix
    r2 = kd.random_density(3, 3, seed=32).matrix
    prod = kd.tensor(r1, r2)
    assert np.abs(kd.partial_trace(prod, (2, 3), 0) - r1).max() < 1e-10
    assert np.abs(kd.partial_trace(prod, (2, 3), 1) - r2).max() < 1e-10

    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.abs(kd.partial_trace(rho, (2, 2), 0) - np.eye(2) / 2).max() < 1e-12
    assert abs(np.trace(kd.partial_trace(rho, (2, 2), 1)) - 1.0) < 1e-12

    with pytest.raises(kd.DimMismatchError):
        kd.partial_trace(np.eye(4), (2, 3), 0)
    with pytest.raises(kd.ValidationError, match=r"^keep must be 0 or 1, got 2$"):
        kd.partial_trace(np.eye(4), (2, 2), 2)



# every function that pairs a state with measurements, and the kinds of its measurement slots
_DIM_GATED = (
    ("kd_table", kd.kd_table, ("povm", "povm")),
    ("johansen_components", kd.johansen_components, ("pvm", "pvm")),
    ("outcome_probs", kd.outcome_probs, ("povm",)),
    ("bound_asymmetry", kd.bound_asymmetry, ("pvm",)),
    ("uncertainty_relation_bound", kd.uncertainty_relation_bound, ("pvm", "pvm")),
    ("weak_values", kd.weak_values, ("povm", "pvm")),
    ("disturbance_nonreality", kd.disturbance_nonreality, ("pvm",)),
    ("quantum_nonreality", kd.quantum_nonreality, ("povm",)),
    ("quantum_nonclassicality", kd.quantum_nonclassicality, ("povm",)),
    ("_quantum_parts", _quantum_parts, ("povm",)),
    ("decompose_NRe", lambda s, m: kd.decompose(s, m, kd.Flavor.NRE), ("povm",)),
    ("decompose_NCl", lambda s, m: kd.decompose(s, m, kd.Flavor.NCL), ("povm",)),
    ("total_uncertainty", lambda s, m: kd.total_uncertainty(s, m, kd.Flavor.NRE), ("povm",)),
    ("quantum_via_weak_values", kd.quantum_via_weak_values, ("povm", "pvm")),
    ("contextuality_witness", kd.contextuality_witness, ("povm",)),
)


@pytest.mark.parametrize(
    "fn, kinds, slot",
    [pytest.param(fn, kinds, slot, id=f"{name}-{slot}") for name, fn, kinds in _DIM_GATED for slot in range(len(kinds))],
)
def test_dimension_gate_names_the_mismatched_measurement(fn, kinds, slot):
    # the other slots match the state; the odd one out is smaller, then larger, than the state
    def measurement(kind, d, seed):
        if kind == "pvm":
            return kd.rank_one_pvm(kd.haar_random_unitary(d, seed=seed))
        return kd.random_povm(d, 3, seed=seed)

    for d, other in ((3, 2), (2, 3)):
        state = kd.random_density(d, d, seed=d)
        args = [measurement(kind, other if i == slot else d, seed=i) for i, kind in enumerate(kinds)]
        with pytest.raises(kd.DimMismatchError, match=rf"^state dim {d} != measurement dim {other}$"):
            fn(state, *args)

def test_mub_bases_unbiased():
    # the Fourier basis and the computational basis are a pair of mutually unbiased bases
    for d in range(1, 9):
        f = _fourier(d)
        assert f.shape == (d, d)
        assert np.abs(f.conj().T @ f - np.eye(d)).max() < 1e-12
        # every entry has modulus 1 / sqrt(d)
        assert np.abs(np.abs(f) - 1 / np.sqrt(d)).max() < 1e-12


def test_mub_cache_is_read_only_and_public_bases_are_copies():
    for d in range(1, 9):
        f = _fourier(d)
        assert _fourier(d) is f
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0, 0] = 7.0
    # the basis a witness entry carries holds the cached bits and is read-only too
    for d in (2, 3):
        state = kd.random_density(d, d, seed=730 + d)
        povm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=740 + d))
        u = kd.contextuality_witness(state, povm).witness_entry.basis.basis_unitary
        assert np.array_equal(u, _fourier(d))
        assert not u.flags.writeable


def test_immutability():
    rho = kd.random_density(2, 2, seed=1)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


def test_povm_stack_is_read_only_effect_stack():
    povms = [
        kd.random_povm(3, 4, seed=5),
        kd.validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
        kd.rank_one_pvm(kd.haar_random_unitary(3, seed=6)),
        kd.coarse_grain(kd.random_povm(3, 4, seed=7), [(0, 1), (2, 3)]),
    ]
    for povm in povms:
        assert povm.stack.shape == (povm.n_outcomes, povm.dim, povm.dim)
        assert not povm.stack.flags.writeable
        with pytest.raises(ValueError):
            povm.stack[0, 0, 0] = 2.0


def test_validate_povm_names_the_first_failing_effect():
    not_psd = np.diag([-0.1, 0.0])
    not_hermitian = np.array([[1.1, 0.3], [0.0, 1.0]])
    with pytest.raises(kd.ValidationError, match=r"^effect 0 is not PSD: min eigenvalue -1\.000e-01$"):
        kd.validate_povm([not_psd, not_hermitian])
    # a lone bad effect that is neither Hermitian nor PSD is reported as not Hermitian
    with pytest.raises(kd.ValidationError, match=r"^effect 1 is not Hermitian: deviation 3\.000e-01$"):
        kd.validate_povm([np.eye(2) / 2, np.array([[-1.0, 0.3], [0.0, 0.5]])])
    with pytest.raises(kd.ValidationError, match=r"^effect 0 is not PSD"):
        kd.validate_povm([not_psd, np.eye(3)])
    with pytest.raises(kd.DimMismatchError, match=r"^effect 1 has dim 3, expected 2$"):
        kd.validate_povm([np.eye(2), np.eye(3), not_hermitian])


def test_povm_effects_are_read_only_views_of_the_stack():
    # stack is the one read surface: indexing or iterating it yields effect views, never copies
    for povm in (kd.random_povm(3, 4, seed=8), kd.rank_one_pvm(kd.haar_random_unitary(3, seed=9))):
        assert len(povm.stack) == povm.n_outcomes
        rows = np.array(povm.stack)
        for i, row in enumerate(povm.stack):
            for e in (row, povm.stack[i]):
                assert np.shares_memory(e, povm.stack)
                assert np.array_equal(e, rows[i])
                assert not e.flags.writeable
                with pytest.raises(ValueError):
                    e[0, 0] = 2.0


def test_povms_with_equal_labels_and_different_effects_differ():
    first = kd.validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    second = kd.validate_povm([np.eye(2) / 2, np.eye(2) / 2])
    assert first.labels == second.labels
    assert first != second
    assert not first == second


def test_array_holders_compare_by_identity():
    rho = kd.random_density(2, 2, seed=13)
    pvm = kd.rank_one_pvm(kd.haar_random_unitary(2, seed=14))
    povm = kd.random_povm(2, 3, seed=15)
    makers = (
        lambda: kd.random_density(2, 2, seed=13),
        lambda: kd.rank_one_pvm(np.eye(2)),
        lambda: kd.random_povm(2, 3, seed=15),
        lambda: kd.kd_table(rho, povm, pvm),
        lambda: kd.johansen_components(rho, pvm, pvm),
        lambda: kd.weak_values(rho, povm, pvm),
    )
    for make in makers:
        first, second = make(), make()
        assert first == first and not first != first
        assert first != second and not first == second
        assert hash(first) != hash(second)
    first, second = (kd.decompose(rho, povm, kd.Flavor.NCL) for _ in range(2))
    assert first == first
    assert first != second  # their attaining bases are distinct objects


def test_rank_one_pvm_builds_its_read_only_stack_on_first_read():
    u = kd.haar_random_unitary(3, seed=16)
    for pvm in (kd.rank_one_pvm(u), _pvm_unchecked(u.copy()), kd.sup_over_pvm(u).best_basis):
        assert not pvm.basis_unitary.flags.writeable
        assert "stack" not in vars(pvm)
        assert pvm.stack is pvm.stack
        assert pvm.n_outcomes == pvm.dim == 3 and pvm.labels == ("0", "1", "2")


def test_rank_one_pvm_reads_as_its_projector_povm():
    # every function that takes a POVM gives the same bits for a rank-1 PVM and for
    # the validated POVM of its projector stack; the JSON's shortest round-trip floats keep every bit
    for d in range(1, 9):
        pvm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=2600 + d))
        povm = kd.validate_povm(pvm.stack)
        other = kd.random_povm(d, 3, seed=2650 + d)
        blocks = [b for b in (tuple(range(0, d, 2)), tuple(range(1, d, 2))) if b]
        for rank in sorted({1, d}):
            rho = kd.random_density(d, rank, seed=2700 + 10 * d + rank)

            def outputs(m):
                out = [
                    serialize.povm_to_json(m),
                    serialize.povm_to_json(kd.coarse_grain(m, blocks)),
                    kd.outcome_probs(rho, m),
                    kd.quantum_nonreality(rho, m),
                    serialize.supremum_to_json(kd.quantum_nonclassicality(rho, m)),
                    serialize.witness_report_to_json(kd.contextuality_witness(rho, m)),
                ]
                for flavor in kd.Flavor:
                    out.append(kd.total_uncertainty(rho, m, flavor))
                    out.append(serialize.decomposition_to_json(kd.decompose(rho, m, flavor)))
                for first, second in ((m, other), (other, m), (m, m)):
                    out.append(serialize.kdtable_to_json(kd.kd_table(rho, first, second)))
                return serialize.dumps(out)

            assert outputs(pvm) == outputs(povm), (d, rank)


def test_rank_one_pvm_projectors_are_one_stack():
    u = kd.haar_random_unitary(3, seed=12)
    projs = kd.rank_one_pvm(u).stack
    assert isinstance(projs, np.ndarray) and projs.shape == (3, 3, 3)
    for b in range(3):
        assert np.array_equal(projs[b], np.outer(u[:, b], u[:, b].conj()))
