import numpy as np
import pytest

import kduncert as kd
from conftest import HADAMARD, Y_BASIS
from oracles import johansen_loop, kd_table_loop


def _x_pvm():
    return kd.rank_one_pvm(HADAMARD)


def _y_pvm():
    return kd.rank_one_pvm(Y_BASIS)


def _z_pvm():
    return kd.rank_one_pvm(np.eye(2))


def test_kd_table_maximally_mixed_z_z():
    rho = kd.validate_density(np.eye(2) / 2)
    t = kd.kd_table(rho, _z_pvm(), _z_pvm())
    assert np.abs(t.values - np.diag([0.5, 0.5])).max() < 1e-12


def test_kd_table_zero_x_y_matches_oracle(derived):
    rho = kd.validate_density([[1, 0], [0, 0]])
    t = kd.kd_table(rho, _x_pvm(), _y_pvm())
    expect = np.array([[complex(re, im) for re, im in row] for row in derived["kd_zero_x_y"]])
    assert np.abs(t.values - expect).max() < 1e-12
    assert abs(kd.table_nonreality(t) - derived["nonreality_zero_x_y"]) < 1e-12
    assert abs(kd.table_nonclassicality(t) - derived["nonclassicality_zero_x_y"]) < 1e-12


def test_kd_table_commuting_first_is_real_nonnegative():
    for i in range(20):
        d = 2 + i % 3
        rng = np.random.default_rng(400 + i)
        u = kd.haar_random_unitary(d, seed=500 + i)
        lam = rng.random(d) + 0.1
        lam /= lam.sum()
        rho = kd.validate_density((u * lam) @ u.conj().T)
        first = kd.rank_one_pvm(u)
        second = kd.random_povm(d, d, seed=600 + i)
        t = kd.kd_table(rho, first, second)
        assert np.abs(t.values.imag).max() < 1e-10
        assert t.values.real.min() > -1e-12


def test_kd_table_dim_mismatch():
    rho = kd.validate_density(np.eye(2) / 2)
    with pytest.raises(kd.DimMismatchError):
        kd.kd_table(rho, kd.random_povm(3, 2, seed=0), _z_pvm())


def test_nonreality_transpose_invariance():
    rho = kd.random_density(3, 3, seed=41)
    p = kd.random_povm(3, 3, seed=42)
    q = kd.random_povm(3, 2, seed=43)
    forward = kd.kd_table(rho, p, q)
    # transposing the (a, b) label order preserves the imaginary l1 mass
    assert abs(
        kd.table_nonreality(forward)
        - sum(abs(forward.values.T[b, a].imag) for b in range(2) for a in range(3))
    ) < 1e-12


def test_nonclassicality_clamps_roundoff():
    rho = kd.validate_density(np.eye(2) / 2)
    t = kd.kd_table(rho, _z_pvm(), _z_pvm())
    assert kd.table_nonclassicality(t) >= 0.0


def test_diagonal_state_table_equals_eigenvalues():
    u = kd.haar_random_unitary(4, seed=77)
    lam = np.array([0.4, 0.3, 0.2, 0.1])
    rho = kd.validate_density((u * lam) @ u.conj().T)
    pvm = kd.rank_one_pvm(u)
    t = kd.kd_table(rho, pvm, pvm)
    assert np.abs(np.diag(t.values) - lam).max() < 1e-10
    assert np.abs(t.values - np.diag(np.diag(t.values))).max() < 1e-10


def test_johansen_reconstruction():
    for i in range(100):
        d = 2 + i % 3
        rho = kd.random_density(d, d, seed=1100 + i)
        first = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=1200 + i))
        second = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=1300 + i))
        comp = kd.johansen_components(rho, first, second)
        t = kd.kd_table(rho, first, second)
        assert np.abs(comp.total() - t.values).max() < 1e-9
        assert np.abs(comp.projected.imag if np.iscomplexobj(comp.projected) else 0).max() == 0
        assert np.abs(comp.imag_part.real).max() < 1e-12


def test_johansen_incoherent_state_has_no_imaginary_part():
    u = kd.haar_random_unitary(3, seed=21)
    lam = np.array([0.5, 0.3, 0.2])
    rho = kd.validate_density((u * lam) @ u.conj().T)
    first = kd.rank_one_pvm(u)
    second = kd.rank_one_pvm(kd.haar_random_unitary(3, seed=22))
    comp = kd.johansen_components(rho, first, second)
    assert np.abs(comp.imag_part).max() < 1e-12


def test_johansen_imaginary_magnitude_identity():
    # for |+><+| against the Z basis, |Im Pr| matches the rotated-projector term
    rho = kd.validate_density(np.full((2, 2), 0.5))
    first = kd.rank_one_pvm(np.eye(2))
    for seed in range(5):
        second = kd.rank_one_pvm(kd.haar_random_unitary(2, seed=1400 + seed))
        comp = kd.johansen_components(rho, first, second)
        t = kd.kd_table(rho, first, second)
        assert np.abs(np.abs(comp.imag_part.imag) - np.abs(t.values.imag)).max() < 1e-9


def _projector_list(u):
    return [np.outer(u[:, b], u[:, b].conj()) for b in range(u.shape[1])]


def test_kd_table_matches_loop_reference_bitwise():
    for d in range(1, 17):
        povm = kd.random_povm(d, 3, seed=1500 + d)
        u = kd.haar_random_unitary(d, seed=1600 + d)
        pvm = kd.rank_one_pvm(u)
        measurements = [(povm, list(povm.stack)), (pvm, _projector_list(u)), (kd.validate_povm(pvm.stack), _projector_list(u))]
        for rank in sorted({1, d}):
            rho = kd.random_density(d, rank, seed=1700 + 10 * d + rank)
            for first, first_effects in measurements:
                for second, second_effects in measurements:
                    got = kd.kd_table(rho, first, second).values
                    expect = kd_table_loop(rho.matrix, first_effects, second_effects)
                    assert np.array_equal(got.view(float), expect.view(float))


def test_johansen_matches_loop_reference():
    # the closed form regroups the loop's traces, so it agrees to roundoff, not bit for bit
    for d in range(1, 17):
        first_u = kd.haar_random_unitary(d, seed=1800 + d)
        second_u = kd.haar_random_unitary(d, seed=1900 + d)
        for rank in sorted({1, d}):
            rho = kd.random_density(d, rank, seed=2000 + 10 * d + rank)
            comp = kd.johansen_components(rho, kd.rank_one_pvm(first_u), kd.rank_one_pvm(second_u))
            projected, real_shift, imag_part = johansen_loop(rho.matrix, first_u, second_u)
            assert np.abs(comp.projected - projected).max() <= 1e-14
            assert np.abs(comp.real_shift - real_shift).max() <= 1e-14
            assert np.abs(comp.imag_part - imag_part).max() <= 1e-14
