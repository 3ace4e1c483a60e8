import math

import numpy as np
import pytest

import kduncert as kd
from conftest import HADAMARD, PAULI_X
from kduncert import selftest, serialize
from kduncert.cli import main
from kduncert.core import COMPLETENESS_ATOL, HERM_ATOL
from kduncert.selftest import run_selftest
from kduncert.uncertainty import CORNER_SCAN_MAX_DIM
from oracles import bloch_basis, corner_bound_asymmetry, corner_relation_bound, outcome_probs_loop, qubit_closed_forms


def _z():
    return kd.rank_one_pvm(np.eye(2))


def test_outcome_probs_examples():
    zero = kd.validate_density([[1, 0], [0, 0]])
    assert np.allclose(kd.outcome_probs(zero, _z()), [1.0, 0.0])
    plus = kd.validate_density(np.full((2, 2), 0.5))
    assert np.allclose(kd.outcome_probs(plus, _z()), [0.5, 0.5])
    mixed = kd.validate_density(np.eye(4) / 4)
    pvm = kd.rank_one_pvm(kd.haar_random_unitary(4, seed=8))
    assert np.allclose(kd.outcome_probs(mixed, pvm), [0.25] * 4)
    with pytest.raises(kd.DimMismatchError):
        kd.outcome_probs(zero, kd.random_povm(3, 2, seed=0))


def test_outcome_probs_match_loop_reference_bitwise():
    for d in range(1, 17):
        povm = kd.random_povm(d, 3, seed=2100 + d)
        u = kd.haar_random_unitary(d, seed=2200 + d)
        pvm = kd.rank_one_pvm(u)
        projectors = [np.outer(u[:, b], u[:, b].conj()) for b in range(d)]
        for rank in sorted({1, d}):
            rho = kd.random_density(d, rank, seed=2300 + 10 * d + rank)
            assert kd.outcome_probs(rho, povm) == outcome_probs_loop(rho.matrix, list(povm.stack))
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
    assert kd.total_uncertainty(zero, _z(), kd.Flavor.NRE) == 0.0
    assert kd.total_uncertainty(zero, _z(), kd.Flavor.NCL) == 0.0

    d = 3
    coherent = kd.validate_density(np.full((d, d), 1.0 / d))
    comp = kd.rank_one_pvm(np.eye(d))
    assert abs(kd.total_uncertainty(coherent, comp, kd.Flavor.NRE) - np.sqrt(2)) < 1e-12

    rho = kd.random_density(4, 2, seed=33)
    degenerate = kd.validate_povm([np.eye(4) / 4] * 4)
    assert abs(kd.total_uncertainty(rho, degenerate, kd.Flavor.NCL) - 1.0) < 1e-12


def test_decompose_fixtures(derived):
    diag = kd.validate_density(np.diag([0.75, 0.25]))
    dec = kd.decompose(diag, _z(), kd.Flavor.NRE)
    fx = derived["decompose_diag34_z_nre"]
    assert abs(dec.total - fx["total"]) < 1e-9
    assert abs(dec.quantum - fx["quantum"]) < 1e-9
    assert abs(dec.classical - fx["classical"]) < 1e-9
    assert dec.diagnostics is None

    mix = kd.validate_density(np.eye(2) / 2 + PAULI_X / 4)
    dec = kd.decompose(mix, _z(), kd.Flavor.NRE)
    fx = derived["decompose_halfmix_z_nre"]
    assert abs(dec.total - fx["total"]) < 1e-9
    assert abs(dec.quantum - fx["quantum"]) < 1e-9
    assert abs(dec.classical - fx["classical"]) < 1e-9


def test_decompose_pure_rank1_classical_vanishes():
    for i in range(6):
        d = 2 + i % 3
        psi = kd.random_density(d, 1, seed=340 + i)
        pvm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=350 + i))
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
        povm = kd.rank_one_pvm(np.array(bloch_basis(theta, phi)).T)
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
    for a, b in zip(same.stack, povm.stack):
        assert np.abs(a - b).max() < 1e-12
    merged = kd.coarse_grain(povm, [(0, 1, 2, 3)])
    assert np.abs(merged.stack[0] - np.eye(2)).max() < 1e-9
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
    for effect, block in zip(merged.stack, partition):
        assert np.array_equal(effect.view(float), np.sum([povm.stack[i] for i in block], axis=0).view(float))
    assert merged.labels == ("4+0+2", "5", "1+3")
    for empty in ([(), (0, 1, 2, 3, 4, 5)], [(0, 1, 2), (), (3, 4, 5)], [(0, 1, 2, 3, 4, 5), ()]):
        with pytest.raises(kd.ValidationError, match="has an empty block$"):
            kd.coarse_grain(povm, empty)


EPS = 0.9e-10  # just inside HERM_ATOL: validation accepts every input built with it


def test_decompose_takes_probabilities_within_validation_slack():
    # validation allows an eigenvalue down to -HERM_ATOL and a completeness deviation up to
    # COMPLETENESS_ATOL per entry: here a Born probability falls below 0, then their sum rises above 1
    cases = [
        (np.diag([1 + EPS, -EPS]), [np.diag([-EPS, 1.0]), np.diag([1 + EPS, 0.0])], {"NRe": 0.0, "NCl": 0.0}),
        (
            np.full((2, 2), 0.5),
            [np.diag([1.0, 0.0]) + 0.9e-9 * np.ones((2, 2)), np.diag([0.0, 1.0])],
            {"NRe": 1.0, "NCl": math.sqrt(2) - 1},
        ),
    ]
    for state, effects, totals in cases:
        rho, povm = kd.validate_density(state), kd.validate_povm(effects)
        probs = kd.outcome_probs(rho, povm)
        assert all(0.0 <= p <= 1.0 for p in probs)
        for flavor in kd.Flavor:
            dec = kd.decompose(rho, povm, flavor)
            assert dec.probs == tuple(probs)
            assert dec.total == kd.total_uncertainty(rho, povm, flavor)
            assert abs(dec.total - totals[flavor.value]) < 1e-8


def test_coarse_grain_merges_effects_within_validation_slack():
    # each effect passes validation, but a merged one carries two effects' slack, 2 EPS > HERM_ATOL
    a = np.array([[0.25, EPS], [0.0, 0.25]])
    not_hermitian = [a, a, np.array([[0.5, -EPS], [-EPS, 0.5]])]
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    b = 0.5 * (np.eye(2) - minus) - EPS * minus
    not_psd = [b, b, (1 + 2 * EPS) * minus]
    for effects in (not_hermitian, not_psd):
        merged = kd.coarse_grain(kd.validate_povm(effects), [(0, 1), (2,)])
        assert merged.labels == ("0+1", "2")
        assert np.array_equal(merged.stack[0], effects[0] + effects[1])
        assert np.array_equal(merged.stack[1], effects[2])


def _skew(rng, d):
    """An anti-Hermitian matrix with zero diagonal whose max |m - m^dag| is 0.9 HERM_ATOL."""
    g = np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), 1)
    g -= g.conj().T
    return g * (0.45 * HERM_ATOL / np.abs(g).max())


def _edge_state(rng, d):
    """(m, its Hermitian part): m has an eigenvalue of -0.9 HERM_ATOL, unit trace and the anti-Hermitian part _skew."""
    w = rng.random(d - 1) + 0.1
    w = np.concatenate([[-0.9 * HERM_ATOL], w * (1 + 0.9 * HERM_ATOL) / w.sum()])
    v = kd.haar_random_unitary(d, rng)
    hermitian = (v * w) @ v.conj().T
    return hermitian + _skew(rng, d), hermitian


def _edge_effects(rng, effects, state):
    """The effects moved to validate_povm's edges.

    Effect 0 hands weight to effect 1 until its least eigenvalue is -0.9 HERM_ATOL. Both take the
    anti-Hermitian part _skew, so a block merging them holds twice that. The last effect takes
    0.9 COMPLETENESS_ATOL along the state, which raises the probability sum; with the two _skew
    terms, max |sum - I| stays below 0.99 COMPLETENESS_ATOL.
    """
    m = [np.array(e, dtype=complex) for e in effects]
    w, v = np.linalg.eigh(m[0])
    shift = (w[0] + 0.9 * HERM_ATOL) * np.outer(v[:, 0], v[:, 0].conj())
    skew = _skew(rng, len(m[0]))
    m[0] += skew - shift
    m[1] += skew + shift
    m[-1] += 0.9 * COMPLETENESS_ATOL * state / np.abs(state).max()
    return m


def test_inputs_at_the_validation_edges_raise_nothing(capsys, tmp_path):
    # validation is the one gate: whatever it accepts, every path downstream takes
    for d in range(2, 7):
        for seed in range(3):
            rng = np.random.default_rng(3100 + 10 * d + seed)
            m, hermitian = _edge_state(rng, d)
            rho = kd.validate_density(m)
            u = kd.haar_random_unitary(d, rng)
            projectors = [np.outer(u[:, b], u[:, b].conj()) for b in range(d)]
            for effects in (kd.random_povm(d, 3, rng).stack, projectors):
                povm = kd.validate_povm(_edge_effects(rng, effects, hermitian))
                n = povm.n_outcomes
                coarse = kd.coarse_grain(povm, [(0, 1), tuple(range(2, n))] if n > 2 else [(0, 1)])
                for flavor in kd.Flavor:
                    for meas in (povm, coarse):
                        kd.decompose(rho, meas, flavor)
                        kd.total_uncertainty(rho, meas, flavor)
                kd.kd_table(rho, povm, povm)
                kd.contextuality_witness(rho, povm)
                if effects is projectors:
                    paths = [tmp_path / "state.json", tmp_path / "pvm.json"]
                    paths[0].write_text(serialize.dumps(serialize.matrix_to_json(m)))
                    paths[1].write_text(serialize.dumps(serialize.povm_to_json(povm)))
                    assert main(["bounds", str(paths[0]), str(paths[1]), str(paths[1])]) == 0
                    assert capsys.readouterr().err == ""


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
        ent = kd.s_entropy(kd.outcome_probs(rho, pvm))
        assert bound <= ent + 1e-6


def test_uncertainty_relation_fixture(derived):
    yplus = kd.validate_density(np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    bound = kd.uncertainty_relation_bound(yplus, _z(), kd.rank_one_pvm(HADAMARD))
    assert abs(bound - derived["relation_bound_yplus_z_x"]) < 1e-9
    s_sum = kd.s_entropy(kd.outcome_probs(yplus, _z())) + kd.s_entropy(
        kd.outcome_probs(yplus, kd.rank_one_pvm(HADAMARD))
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
        total = kd.s_entropy(kd.outcome_probs(rho, pvm_a)) + kd.s_entropy(
            kd.outcome_probs(rho, pvm_b)
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
        pvm = kd.rank_one_pvm(kd.haar_random_unitary(1, seed=910 + seed))
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


def test_variational_trace_norm_checks_trace_norm_at_1e9(monkeypatch):
    # the svd kernel behind trace_norm is checked against sum |eig| here and nowhere else in the suite
    norm = selftest.trace_norm
    monkeypatch.setattr(selftest, "trace_norm", lambda m: norm(m) + 1e-8)
    with pytest.raises(selftest.PropertyFailure, match="trace norm or supremum off"):
        selftest.prop_variational_trace_norm((2, 3, 4), 2, 0)


def test_decomposition_covariance_checks_the_quantum_parts_at_1e9(monkeypatch):
    # a 1e-6 drift in NRe that follows rho[0, 0] is far inside the decomposition's 1e-6 gate
    parts = selftest._quantum_parts
    monkeypatch.setattr(
        selftest,
        "_quantum_parts",
        lambda rho, povm: (parts(rho, povm)[0] + 1e-6 * rho.matrix[0, 0].real, parts(rho, povm)[1]),
    )
    with pytest.raises(selftest.PropertyFailure, match="covariance of the quantum parts"):
        selftest.prop_decomposition_covariance((2, 3, 4), 2, 0)


def test_selftest_above_corner_cap_checks_the_refusal():
    passed, results = run_selftest(dims=(15, 16), samples=2)
    assert passed, [(r.name, r.detail) for r in results if not r.ok]
    for name in ("unc.asymmetry_bound", "unc.entropic_relation"):
        detail = next(r.detail for r in results if r.name == name)
        assert detail.endswith(f"4 draws refused above d = {CORNER_SCAN_MAX_DIM}")
