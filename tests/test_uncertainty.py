import math

import numpy as np
import pytest

import kduncert as kd
from conftest import HADAMARD, PAULI_X
from kduncert import selftest
from kduncert.selftest import run_selftest
from kduncert.uncertainty import CORNER_SCAN_MAX_DIM
from oracles import bloch_basis, corner_bound_asymmetry, corner_relation_bound, outcome_probs_loop, qubit_closed_forms


def _z():
    return kd.rank_one_pvm(np.eye(2))


def test_outcome_probs_examples():
    zero = kd.validate_density([[1, 0], [0, 0]])
    assert np.allclose(kd.outcome_probs(zero, _z().as_povm()), [1.0, 0.0])
    plus = kd.validate_density(np.full((2, 2), 0.5))
    assert np.allclose(kd.outcome_probs(plus, _z().as_povm()), [0.5, 0.5])
    mixed = kd.validate_density(np.eye(4) / 4)
    pvm = kd.rank_one_pvm(kd.haar_random_unitary(4, seed=8)).as_povm()
    assert np.allclose(kd.outcome_probs(mixed, pvm), [0.25] * 4)
    with pytest.raises(kd.DimMismatchError):
        kd.outcome_probs(zero, kd.random_povm(3, 2, seed=0))


def test_outcome_probs_match_loop_reference_bitwise():
    for d in range(1, 17):
        povm = kd.random_povm(d, 3, seed=2100 + d)
        u = kd.haar_random_unitary(d, seed=2200 + d)
        pvm = kd.rank_one_pvm(u).as_povm()
        projectors = [np.outer(u[:, b], u[:, b].conj()) for b in range(d)]
        for rank in sorted({1, d}):
            rho = kd.random_density(d, rank, seed=2300 + 10 * d + rank)
            assert kd.outcome_probs(rho, povm) == outcome_probs_loop(rho.matrix, list(povm.effects))
            assert kd.outcome_probs(rho, pvm) == outcome_probs_loop(rho.matrix, projectors)


def test_s_entropy_examples(derived):
    assert kd.s_entropy([1.0, 0.0, 0.0]) == 0.0
    assert abs(kd.s_entropy([0.25] * 4) - derived["s_entropy_uniform4"]) < 1e-12
    assert abs(kd.s_entropy([0.5, 0.5]) - 1.0) < 1e-12
    with pytest.raises(kd.ValidationError, match=r"^probabilities sum to 1\.4$"):
        kd.s_entropy([0.7, 0.7])
    with pytest.raises(kd.ValidationError, match=r"^probability 1\.2 outside \[0, 1\]$"):
        kd.s_entropy([1.2, -0.2])


def test_t_entropy_examples(derived):
    assert kd.t_entropy([1.0, 0.0]) == 0.0
    assert abs(kd.t_entropy([0.25] * 4) - derived["t_entropy_uniform4"]) < 1e-12
    assert abs(kd.t_entropy([0.5, 0.5]) - derived["t_entropy_half"]) < 1e-12


def test_t_entropy_is_half_tsallis():
    for i in range(20):
        rng = np.random.default_rng(320 + i)
        p = rng.random(2 + i % 5) + 0.01
        p /= p.sum()
        t = kd.t_entropy(p)
        tsallis_half = (np.sqrt(p).sum() - 1.0) / (1.0 - 0.5)
        assert abs(2.0 * t - tsallis_half) < 1e-12


def test_total_uncertainty_examples():
    zero = kd.validate_density([[1, 0], [0, 0]])
    assert kd.total_uncertainty(zero, _z().as_povm(), kd.Flavor.NRE) == 0.0
    assert kd.total_uncertainty(zero, _z().as_povm(), kd.Flavor.NCL) == 0.0

    d = 3
    coherent = kd.validate_density(np.full((d, d), 1.0 / d))
    comp = kd.rank_one_pvm(np.eye(d)).as_povm()
    assert abs(kd.total_uncertainty(coherent, comp, kd.Flavor.NRE) - np.sqrt(2)) < 1e-12

    rho = kd.random_density(4, 2, seed=33)
    degenerate = kd.validate_povm([np.eye(4) / 4] * 4)
    assert abs(kd.total_uncertainty(rho, degenerate, kd.Flavor.NCL) - 1.0) < 1e-12


def test_decompose_fixtures(derived):
    diag = kd.validate_density(np.diag([0.75, 0.25]))
    dec = kd.decompose(diag, _z().as_povm(), kd.Flavor.NRE)
    fx = derived["decompose_diag34_z_nre"]
    assert abs(dec.total - fx["total"]) < 1e-9
    assert abs(dec.quantum - fx["quantum"]) < 1e-9
    assert abs(dec.classical - fx["classical"]) < 1e-9
    assert dec.diagnostics is None

    mix = kd.validate_density(np.eye(2) / 2 + PAULI_X / 4)
    dec = kd.decompose(mix, _z().as_povm(), kd.Flavor.NRE)
    fx = derived["decompose_halfmix_z_nre"]
    assert abs(dec.total - fx["total"]) < 1e-9
    assert abs(dec.quantum - fx["quantum"]) < 1e-9
    assert abs(dec.classical - fx["classical"]) < 1e-9


def test_decompose_pure_rank1_classical_vanishes():
    for i in range(6):
        d = 2 + i % 3
        psi = kd.random_density(d, 1, seed=340 + i)
        pvm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=350 + i)).as_povm()
        for flavor in kd.Flavor:
            dec = kd.decompose(psi, pvm, flavor)
            assert abs(dec.classical) < 1e-6
            assert abs(dec.classical - (dec.total - dec.quantum)) < 1e-12


def test_decompose_carries_diagnostics_for_ncl():
    rho = kd.random_density(2, 2, seed=36)
    povm = kd.random_povm(2, 2, seed=37)
    dec = kd.decompose(rho, povm, kd.Flavor.NCL)
    assert dec.diagnostics is not None
    assert dec.diagnostics.per_effect_values is not None
    assert dec.quantum == dec.diagnostics.value


def test_impurities(derived):
    pure = kd.random_density(3, 1, seed=38)
    assert kd.impurity_s(pure) < 1e-7
    assert kd.impurity_t(pure) < 1e-7
    mixed4 = kd.validate_density(np.eye(4) / 4)
    assert abs(kd.impurity_s(mixed4) - np.sqrt(3)) < 1e-12
    assert abs(kd.impurity_t(mixed4) - 1.0) < 1e-12
    diag = kd.validate_density(np.diag([0.75, 0.25]))
    assert abs(kd.impurity_s(diag) - derived["impurity_s_diag34"]) < 1e-12
    assert abs(kd.impurity_t(diag) - derived["impurity_t_diag34"]) < 1e-12


def test_qubit_decompositions_match_bloch_closed_forms():
    # every fourth draw is pure (|r| = 1); the rest are uniform in the Bloch ball
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    rng = np.random.default_rng(7100)
    for k in range(1000):
        v = rng.standard_normal(3)
        radius = 1.0 if k % 4 == 0 else rng.uniform() ** (1 / 3)
        r = tuple(float(x) for x in radius * v / np.linalg.norm(v))
        theta, phi = math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)
        n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
        rho = kd.validate_density(0.5 * (np.eye(2) + np.einsum("k,kij->ij", r, sigma)))
        povm = kd.rank_one_pvm(np.array(bloch_basis(theta, phi)).T).as_povm()
        ref = qubit_closed_forms(r, n)
        for flavor, key in ((kd.Flavor.NRE, "nre"), (kd.Flavor.NCL, "ncl")):
            dec = kd.decompose(rho, povm, flavor)
            assert abs(dec.total - ref[key + "_total"]) < 1e-12, (k, key)
            assert abs(dec.quantum - ref[key + "_quantum"]) < 1e-12, (k, key)
        # near purity the square root amplifies roundoff in 1 - |r|^2 to about 1e-8
        if radius <= 0.99:
            assert abs(kd.impurity_s(rho) - ref["impurity_s"]) < 1e-12, k


def test_infimum_total():
    pure = kd.random_density(3, 1, seed=39)
    value, achieving = kd.infimum_total(pure, kd.Flavor.NRE)
    assert value < 1e-7
    assert achieving.n_outcomes == 3

    half = kd.validate_density(np.eye(2) / 2)
    value, achieving = kd.infimum_total(half, kd.Flavor.NCL)
    assert abs(value - (np.sqrt(2) - 1.0)) < 1e-12
    assert abs(kd.total_uncertainty(half, achieving, kd.Flavor.NCL) - value) < 1e-9

    for i in range(10):
        d = 2 + i % 3
        rho = kd.random_density(d, d, seed=360 + i)
        for flavor in kd.Flavor:
            value, achieving = kd.infimum_total(rho, flavor)
            assert kd.quantum_nonreality(rho, achieving) < 1e-9
            assert abs(kd.total_uncertainty(rho, achieving, flavor) - value) < 1e-9


def test_coarse_grain():
    povm = kd.random_povm(2, 4, seed=40)
    same = kd.coarse_grain(povm, [(0,), (1,), (2,), (3,)])
    for a, b in zip(same.effects, povm.effects):
        assert np.abs(a - b).max() < 1e-12
    merged = kd.coarse_grain(povm, [(0, 1, 2, 3)])
    assert np.abs(merged.effects[0] - np.eye(2)).max() < 1e-9
    assert merged.labels == ("0+1+2+3",)
    cover = r" does not cover indices 0\.\.3 exactly once$"
    with pytest.raises(kd.ValidationError, match=r"^partition \[\(0, 1\), \(1, 2, 3\)\]" + cover):
        kd.coarse_grain(povm, [(0, 1), (1, 2, 3)])
    with pytest.raises(kd.ValidationError, match=r"^partition \[\(0, 1\)\]" + cover):
        kd.coarse_grain(povm, [(0, 1)])
    # a joined label may not repeat another label
    labelled = kd.validate_povm([np.eye(2) / 3] * 3, labels=["0", "1", "0+1"])
    with pytest.raises(kd.ValidationError, match="label '0\\+1' names more than one effect"):
        kd.coarse_grain(labelled, [(0, 1), (2,)])
    assert kd.coarse_grain(labelled, [(0, 2), (1,)]).labels == ("0+0+1", "1")


def test_coarse_grain_matches_per_block_sums_bitwise():
    povm = kd.random_povm(3, 6, seed=41)
    partition = [(4, 0, 2), (5,), (1, 3)]
    merged = kd.coarse_grain(povm, partition)
    for effect, block in zip(merged.effects, partition):
        assert np.array_equal(effect.view(float), np.sum([povm.effects[i] for i in block], axis=0).view(float))
    assert merged.labels == ("4+0+2", "5", "1+3")
    for empty in ([(), (0, 1, 2, 3, 4, 5)], [(0, 1, 2), (), (3, 4, 5)], [(0, 1, 2, 3, 4, 5), ()]):
        with pytest.raises(kd.ValidationError, match="has an empty block$"):
            kd.coarse_grain(povm, empty)


def test_bound_asymmetry_fixture(derived):
    plus = kd.validate_density(np.full((2, 2), 0.5))
    bound = kd.bound_asymmetry(plus, _z())
    assert abs(bound - derived["bound_asym_plus_z"]) < 1e-9
    assert abs(bound - kd.s_entropy([0.5, 0.5])) < 1e-9


def test_bound_asymmetry_commuting_vanishes():
    u = kd.haar_random_unitary(3, seed=41)
    lam = np.array([0.6, 0.3, 0.1])
    rho = kd.validate_density((u * lam) @ u.conj().T)
    assert kd.bound_asymmetry(rho, kd.rank_one_pvm(u)) < 1e-10


def test_bound_asymmetry_below_entropy():
    for i in range(20):
        d = 2 + i % 3
        rho = kd.random_density(d, d, seed=370 + i)
        pvm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=380 + i))
        bound = kd.bound_asymmetry(rho, pvm)
        ent = kd.s_entropy(kd.outcome_probs(rho, pvm.as_povm()))
        assert bound <= ent + 1e-6


def test_uncertainty_relation_fixture(derived):
    yplus = kd.validate_density(np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    bound = kd.uncertainty_relation_bound(yplus, _z(), kd.rank_one_pvm(HADAMARD))
    assert abs(bound - derived["relation_bound_yplus_z_x"]) < 1e-9
    s_sum = kd.s_entropy(kd.outcome_probs(yplus, _z().as_povm())) + kd.s_entropy(
        kd.outcome_probs(yplus, kd.rank_one_pvm(HADAMARD).as_povm())
    )
    assert abs(bound - s_sum) < 1e-9


def test_uncertainty_relation_same_basis_vanishes():
    rho = kd.random_density(3, 3, seed=42)
    pvm = kd.rank_one_pvm(kd.haar_random_unitary(3, seed=43))
    assert kd.uncertainty_relation_bound(rho, pvm, pvm) < 1e-10


def test_uncertainty_relation_below_entropy_sum():
    for i in range(20):
        d = 2 + i % 3
        rho = kd.random_density(d, d, seed=390 + i)
        pvm_a = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=400 + i))
        pvm_b = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=410 + i))
        bound = kd.uncertainty_relation_bound(rho, pvm_a, pvm_b)
        total = kd.s_entropy(kd.outcome_probs(rho, pvm_a.as_povm())) + kd.s_entropy(
            kd.outcome_probs(rho, pvm_b.as_povm())
        )
        assert bound <= total + 1e-6


def test_bounds_match_corner_oracle():
    # pure, rank-2 and full-rank states at d = 1-9, plus seed 9007 at d = 9, where the
    # former alternating-sign search for the relation bound reached 0.6215 of 0.6691
    cases = [(d, 1000 * d + i, (d, 1, min(2, d))[i]) for d in range(1, 10) for i in range(3)]
    cases.append((9, 9007, 9))
    for d, seed, rank in cases:
        rho = kd.random_density(d, rank, seed=seed)
        u_a = kd.haar_random_unitary(d, seed=seed + 1)
        u_b = kd.haar_random_unitary(d, seed=seed + 2)
        pvm_a, pvm_b = kd.rank_one_pvm(u_a), kd.rank_one_pvm(u_b)
        want_asym = corner_bound_asymmetry(rho.matrix, u_a)
        want_rel = corner_relation_bound(rho.matrix, u_a, u_b)
        if d == 1:
            assert want_asym == 0.0 and want_rel == 0.0
        assert abs(kd.bound_asymmetry(rho, pvm_a) - want_asym) <= 1e-12, (d, seed)
        assert abs(kd.uncertainty_relation_bound(rho, pvm_a, pvm_b) - want_rel) <= 1e-12, (d, seed)


def test_bounds_refuse_dimensions_above_the_cap():
    cap = CORNER_SCAN_MAX_DIM
    mixed, basis = kd.validate_density(np.eye(cap) / cap), kd.rank_one_pvm(np.eye(cap))
    assert kd.bound_asymmetry(mixed, basis) == 0.0
    assert kd.uncertainty_relation_bound(mixed, basis, basis) == 0.0
    d = cap + 1
    mixed, basis = kd.validate_density(np.eye(d) / d), kd.rank_one_pvm(np.eye(d))
    with pytest.raises(kd.ValidationError, match=f"bound_asymmetry .* d <= {cap}, got d = {d}"):
        kd.bound_asymmetry(mixed, basis)
    with pytest.raises(kd.ValidationError, match=f"uncertainty_relation_bound .* d <= {cap}, got d = {d}"):
        kd.uncertainty_relation_bound(mixed, basis, basis)


def test_one_dimensional_edge_case():
    rho = kd.validate_density([[1.0]])
    povm = kd.validate_povm([np.eye(1)])
    for flavor in kd.Flavor:
        dec = kd.decompose(rho, povm, flavor)
        assert dec.total == 0.0
        assert abs(dec.quantum) < 1e-12
    value, achieving = kd.infimum_total(rho, kd.Flavor.NRE)
    assert value == 0.0 and achieving.n_outcomes == 1


def test_s_entropy_one_outcome_rounding_reads_zero():
    # a single outcome whose Born probability rounds below 1 is still deterministic
    assert kd.s_entropy([1 - 2**-52]) == 0.0
    assert kd.s_entropy([1.0]) == 0.0
    for seed in range(8):
        rho = kd.random_density(1, 1, seed=900 + seed)
        pvm = kd.rank_one_pvm(kd.haar_random_unitary(1, seed=910 + seed)).as_povm()
        dec = kd.decompose(rho, pvm, kd.Flavor.NRE)
        assert dec.total == 0.0 and dec.quantum == 0.0 and dec.classical == 0.0


def test_selftest_pure_pvm_equality_gap_at_d1():
    _, results = run_selftest(dims=(1,), samples=8)
    detail = next(r.detail for r in results if r.name == "unc.quantum_bounded_by_total")
    gap = float(detail.rsplit("equality gap ", 1)[1])
    # The NRe flavor's gap is exactly 0 (it read 1.49e-08 when s_entropy took 1 - p for a
    # probability of 1 - 2^-52). What is left is the NCl flavor's: at d = 1 the Haar
    # projector |u|^2 itself rounds to 1 +- 2^-52, so sum_a ||M^a rho||_1 - 1 reads 2^-52.
    assert gap <= 2**-52


def test_selftest_passes_at_larger_dims_and_other_seeds():
    for seed in (1, 2, 3):
        passed, results = run_selftest(dims=(5, 6), samples=4, seed=seed)
        assert passed, (seed, [(r.name, r.detail) for r in results if not r.ok])


def test_coherence_faithfulness_runs_its_coherent_half(monkeypatch):
    monkeypatch.setattr(selftest, "quantum_nonreality", lambda *args: 0.0)
    with pytest.raises(selftest.PropertyFailure, match="coherent state scored"):
        selftest.prop_coherence_faithfulness((2, 3), 2, 0)


def test_mixing_convexity_checks_the_ncl_part(monkeypatch):
    # negating the NCl part makes it concave; only an NCl check can notice
    parts = selftest._quantum_parts
    monkeypatch.setattr(selftest, "_quantum_parts", lambda *args: (parts(*args)[0], -parts(*args)[1]))
    with pytest.raises(selftest.PropertyFailure, match="convexity violated"):
        selftest.prop_mixing_convexity((2, 3), 2, 0)


def test_mixing_convexity_reports_its_signed_slack():
    # the worst lhs - rhs starts below any gap, so the detail shows the real slack, not 0
    detail = selftest.prop_mixing_convexity((2, 3, 4), 8, 0)
    assert float(detail.rsplit("lhs-rhs ", 1)[1]) < 0.0


def test_selftest_above_corner_cap_checks_the_refusal():
    passed, results = run_selftest(dims=(15, 16), samples=2)
    assert passed, [(r.name, r.detail) for r in results if not r.ok]
    for name in ("unc.asymmetry_bound", "unc.entropic_relation"):
        detail = next(r.detail for r in results if r.name == name)
        assert detail.endswith(f"4 draws refused above d = {CORNER_SCAN_MAX_DIM}")
