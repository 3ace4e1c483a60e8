"""Acceptance suite: every criterion at its stated tolerance, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time

import numpy as np

import kduncert as kd
from kduncert.selftest import _rand_rank1_povm, run_selftest
from conftest import HADAMARD, PAULI_X, Y_BASIS


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _random_pair(d, seed, n_outcomes=None):
    rho = kd.random_density(d, d if seed % 3 else max(1, d - 1), seed=seed)
    povm = kd.random_povm(d, n_outcomes or (2 + seed % 3), seed=seed + 10_000)
    return rho, povm


def test_criterion_1_quantum_bounded_by_total():
    t0 = time.time()
    worst_slack = 0.0
    for i in range(300):
        d = 2 + i % 3
        rho, povm = _random_pair(d, seed=20_000 + i)
        total_s = kd.total_uncertainty(rho, povm, kd.Flavor.NRE)
        total_t = kd.total_uncertainty(rho, povm, kd.Flavor.NCL)
        worst_slack = max(worst_slack, kd.quantum_nonreality(rho, povm) - total_s)
        ncl = kd.quantum_nonclassicality(rho, povm).value
        worst_slack = max(worst_slack, ncl - total_t)

    worst_eq = 0.0
    for i in range(100):
        d = 2 + i % 3
        psi = kd.random_density(d, 1, seed=21_000 + i)
        pvm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=22_000 + i)).as_povm()
        total_s = kd.total_uncertainty(psi, pvm, kd.Flavor.NRE)
        total_t = kd.total_uncertainty(psi, pvm, kd.Flavor.NCL)
        worst_eq = max(worst_eq, abs(kd.quantum_nonreality(psi, pvm) - total_s))
        ncl = kd.quantum_nonclassicality(psi, pvm).value
        worst_eq = max(worst_eq, abs(ncl - total_t))
    elapsed = time.time() - t0
    ok = worst_slack <= 1e-6 and worst_eq <= 1e-6 and elapsed <= 60.0
    _report(
        1,
        ok,
        f"300 pairs bound slack {worst_slack:.2e}, 100 pure/PVM equality gap "
        f"{worst_eq:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_infimum_impurity():
    worst_val = 0.0
    worst_floor = 0.0
    worst_quant = 0.0
    for i in range(50):
        d = 2 + i % 3
        rho = kd.random_density(d, d, seed=23_000 + i)
        lam = np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, 1.0)
        for flavor in kd.Flavor:
            value, achieving = kd.infimum_total(rho, flavor)
            analytic = (
                float(np.sqrt(lam * (1.0 - lam)).sum())
                if flavor is kd.Flavor.NRE
                else float(np.sqrt(lam).sum() - 1.0)
            )
            worst_val = max(worst_val, abs(value - analytic))
            rng = np.random.default_rng([24_000, i, flavor.value == "NCl"])
            for k in range(100):
                povm = _rand_rank1_povm(d, d + k % (d + 1), rng)
                worst_floor = max(worst_floor, value - kd.total_uncertainty(rho, povm, flavor))
            worst_quant = max(worst_quant, kd.quantum_nonreality(rho, achieving))
        if i % 10 == 0:
            _, achieving = kd.infimum_total(rho, kd.Flavor.NCL)
            ncl = kd.quantum_nonclassicality(rho, achieving).value
            worst_quant = max(worst_quant, ncl)
    ok = worst_val <= 1e-9 and worst_floor <= 1e-9 and worst_quant <= 1e-9
    _report(
        2,
        ok,
        f"value residual {worst_val:.2e}, random-POVM floor violation {worst_floor:.2e}, "
        f"achieving-POVM quantum part {worst_quant:.2e}",
    )


def test_criterion_3_disturbance_identity():
    worst = 0.0
    for i in range(200):
        d = 2 + i % 3
        rho = kd.random_density(d, d if i % 2 else 1, seed=25_000 + i)
        pvm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=26_000 + i))
        worst = max(
            worst,
            abs(kd.disturbance_nonreality(rho, pvm) - kd.quantum_nonreality(rho, pvm.as_povm())),
        )
    _report(3, worst <= 1e-9, f"200 pairs, worst |trace-distance - commutator| {worst:.2e}")


def test_criterion_4_variational_trace_norm():
    worst = 0.0
    for i in range(100):
        d = 2 + i % 3
        rng = np.random.default_rng(27_000 + i)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g + g.conj().T
        if i % 2:
            h = 1j * h
        target = kd.trace_norm(h)
        worst = max(worst, abs(kd.sup_over_pvm(h).value - target))
    _report(4, worst <= 1e-6, f"100 normal operators, worst |sup - trace_norm| {worst:.2e}")


def test_criterion_5_maximal_values():
    worst = 0.0
    for d in (2, 3, 4, 5):
        coherent = kd.validate_density(np.full((d, d), 1.0 / d))
        comp = kd.rank_one_pvm(np.eye(d)).as_povm()
        dec = kd.decompose(coherent, comp, kd.Flavor.NRE)
        worst = max(worst, abs(dec.total - np.sqrt(d - 1)), abs(dec.quantum - np.sqrt(d - 1)))
        dec = kd.decompose(coherent, comp, kd.Flavor.NCL)
        worst = max(
            worst, abs(dec.total - (np.sqrt(d) - 1)), abs(dec.quantum - (np.sqrt(d) - 1))
        )
        mixed = kd.validate_density(np.eye(d) / d)
        pvm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=28_000 + d)).as_povm()
        degenerate = kd.validate_povm([np.eye(d) / d] * d)
        rho = kd.random_density(d, d, seed=29_000 + d)
        for flavor in kd.Flavor:
            dec = kd.decompose(mixed, pvm, flavor)
            worst = max(worst, abs(dec.classical - dec.total), abs(dec.quantum))
            dec = kd.decompose(rho, degenerate, flavor)
            worst = max(worst, abs(dec.classical - dec.total), abs(dec.quantum))
    _report(5, worst <= 1e-6, f"d in 2..5 maximal/classical cases, worst residual {worst:.2e}")


def test_criterion_6_property_suites():
    t0 = time.time()
    passed, results = run_selftest(dims=(2, 3, 4), samples=10, seed=0)
    elapsed = time.time() - t0
    failed = [r.name for r in results if not r.ok]
    ok = passed and elapsed < 300.0
    _report(
        6,
        ok,
        f"{len(results)} properties x >=30 instances in {elapsed:.0f}s"
        + (f", failed: {failed}" if failed else ""),
    )


def test_criterion_7_bound_checks():
    worst_slack = 0.0
    for i in range(100):
        d = 2 + i % 3
        rho = kd.random_density(d, d if i % 2 else 1, seed=30_000 + i)
        pvm_a = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=31_000 + i))
        pvm_b = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=32_000 + i))
        ent_a = kd.s_entropy(kd.outcome_probs(rho, pvm_a.as_povm()))
        ent_b = kd.s_entropy(kd.outcome_probs(rho, pvm_b.as_povm()))
        worst_slack = max(worst_slack, kd.bound_asymmetry(rho, pvm_a) - ent_a)
        worst_slack = max(
            worst_slack,
            kd.uncertainty_relation_bound(rho, pvm_a, pvm_b) - (ent_a + ent_b),
        )

    plus = kd.validate_density(np.full((2, 2), 0.5))
    z = kd.rank_one_pvm(np.eye(2))
    tight1 = abs(kd.bound_asymmetry(plus, z) - 1.0)
    yplus = kd.validate_density(np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    tight2 = abs(
        kd.uncertainty_relation_bound(yplus, z, kd.rank_one_pvm(HADAMARD)) - 2.0
    )
    ok = worst_slack <= 1e-6 and tight1 <= 1e-6 and tight2 <= 1e-6
    _report(
        7,
        ok,
        f"100 instances slack {worst_slack:.2e}, tight cases off by {tight1:.2e}/{tight2:.2e}",
    )


def test_criterion_8_witness():
    agree = True
    reverified = True
    for i in range(200):
        d = 2 + i % 3
        if i % 4 == 0:
            u = kd.haar_random_unitary(d, seed=33_000 + i)
            rng = np.random.default_rng(34_000 + i)
            lam = rng.random(d) + 0.1
            lam /= lam.sum()
            rho = kd.validate_density((u * lam) @ u.conj().T)
            povm = kd.rank_one_pvm(u).as_povm()
        else:
            rho, povm = _random_pair(d, seed=35_000 + i)
        report = kd.contextuality_witness(rho, povm, kd.OptimizerConfig(n_restarts=1, seed=0))
        agree = agree and report.flavors_agree
        if report.contextual:
            entry = report.witness_entry
            table = kd.weak_values(rho, povm, entry.basis)
            a_idx = povm.labels.index(entry.a)
            w = complex(table.values[a_idx, entry.b])
            strange = abs(w.imag) > report.threshold or w.real < -report.threshold
            reverified = reverified and abs(w - entry.weak_value) <= 1e-9 and strange

    zero = kd.validate_density([[1, 0], [0, 0]])
    x_povm = kd.rank_one_pvm(HADAMARD).as_povm()
    fixture = kd.contextuality_witness(zero, x_povm, kd.OptimizerConfig(n_restarts=2, seed=0))
    fixture_ok = (
        fixture.contextual
        and abs(fixture.witness_entry.weak_value - complex(0.5, -0.5)) <= 1e-9
    )
    ok = agree and reverified and fixture_ok
    _report(
        8,
        ok,
        f"200 instances: flags agree={agree}, witnesses re-verify={reverified}, "
        f"fixture weak value {fixture.witness_entry.weak_value:.6f}",
    )


def test_criterion_9_worked_example_regression(derived):
    errs = {}

    swap = np.array([[0, 0.25], [-0.25, 0]])
    errs["trace_norm"] = abs(kd.trace_norm(swap) - derived["trace_norm_quarter_swap"])

    zero = kd.validate_density([[1, 0], [0, 0]])
    x_povm = kd.rank_one_pvm(HADAMARD).as_povm()
    y_povm = kd.rank_one_pvm(Y_BASIS).as_povm()
    t = kd.kd_table(zero, x_povm, y_povm)
    expect = np.array([[complex(re, im) for re, im in row] for row in derived["kd_zero_x_y"]])
    errs["kd_table"] = float(np.abs(t.values - expect).max())
    errs["nonreality"] = abs(kd.table_nonreality(t) - derived["nonreality_zero_x_y"])
    errs["nonclassicality"] = abs(
        kd.table_nonclassicality(t) - derived["nonclassicality_zero_x_y"]
    )

    plus = kd.validate_density(np.full((2, 2), 0.5))
    z_povm = kd.rank_one_pvm(np.eye(2)).as_povm()
    errs["nre_plus_z"] = abs(kd.quantum_nonreality(plus, z_povm) - derived["nre_plus_z"])
    mix = kd.validate_density(np.eye(2) / 2 + PAULI_X / 4)
    errs["nre_halfmix_z"] = abs(kd.quantum_nonreality(mix, z_povm) - derived["nre_halfmix_z"])
    errs["ncl_plus_z"] = abs(
        kd.quantum_nonclassicality(plus, z_povm).value - derived["ncl_plus_z"]
    )

    diag = kd.validate_density(np.diag([0.75, 0.25]))
    dec = kd.decompose(diag, z_povm, kd.Flavor.NRE)
    fx = derived["decompose_diag34_z_nre"]
    errs["decompose_diag"] = max(
        abs(dec.total - fx["total"]), abs(dec.quantum - fx["quantum"]),
        abs(dec.classical - fx["classical"]),
    )
    dec = kd.decompose(mix, z_povm, kd.Flavor.NRE)
    fx = derived["decompose_halfmix_z_nre"]
    errs["decompose_mix"] = max(
        abs(dec.total - fx["total"]), abs(dec.quantum - fx["quantum"]),
        abs(dec.classical - fx["classical"]),
    )
    errs["impurity_s"] = abs(kd.impurity_s(diag) - derived["impurity_s_diag34"])
    errs["impurity_t"] = abs(kd.impurity_t(diag) - derived["impurity_t_diag34"])

    errs["bound_asym"] = abs(kd.bound_asymmetry(plus, kd.rank_one_pvm(np.eye(2)))
                             - derived["bound_asym_plus_z"])
    yplus = kd.validate_density(np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    errs["relation_bound"] = abs(
        kd.uncertainty_relation_bound(
            yplus, kd.rank_one_pvm(np.eye(2)), kd.rank_one_pvm(HADAMARD)
        )
        - derived["relation_bound_yplus_z_x"]
    )

    wt = kd.weak_values(zero, x_povm, kd.rank_one_pvm(Y_BASIS))
    fxw = complex(*derived["weak_value_zero_xplus_yplus"])
    errs["weak_value"] = abs(wt.values[0, 0] - fxw)
    nre_int, _ = kd.quantum_via_weak_values(zero, x_povm, kd.rank_one_pvm(Y_BASIS))
    errs["nre_integrand"] = abs(nre_int - derived["nre_integrand_zero_x_y"])

    errs["s_entropy_u4"] = abs(kd.s_entropy([0.25] * 4) - derived["s_entropy_uniform4"])
    errs["t_entropy_u4"] = abs(kd.t_entropy([0.25] * 4) - derived["t_entropy_uniform4"])

    # variational nonreality (per-effect suprema over PVMs of K = [M, rho] / 2i)
    # against the closed form on 50 random pairs
    worst_var = 0.0
    for i in range(50):
        d = 2 + i % 2
        rho = kd.random_density(d, d, seed=36_000 + i)
        povm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=37_000 + i)).as_povm()
        m = rho.matrix
        variational = sum(kd.sup_over_pvm((e @ m - m @ e) / 2j).value for e in povm.effects)
        worst_var = max(worst_var, abs(variational - kd.quantum_nonreality(rho, povm)))
    errs["variational_vs_closed"] = worst_var if worst_var > 1e-6 else 0.0

    # d=2 pure states: nonclassicality equals sum of sqrt probabilities minus one
    worst_pure = 0.0
    for i in range(20):
        psi = kd.random_density(2, 1, seed=38_000 + i)
        pvm = kd.rank_one_pvm(kd.haar_random_unitary(2, seed=39_000 + i)).as_povm()
        probs = kd.outcome_probs(psi, pvm)
        expect_v = sum(np.sqrt(p) for p in probs) - 1.0
        got = kd.quantum_nonclassicality(psi, pvm).value
        worst_pure = max(worst_pure, abs(got - expect_v))
    errs["ncl_pure_sqrtp"] = worst_pure if worst_pure > 1e-6 else 0.0

    bad = {k: v for k, v in errs.items() if v > 1e-9}
    _report(9, not bad, f"{len(errs)} fixture groups, mismatches: {bad if bad else 'none'}")
