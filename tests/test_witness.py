import copy
import math
import re
import warnings

import numpy as np
import pytest

import gen_bits
import kduncert as kd
import kduncert.witness as witness_mod
from kduncert.core import _fourier
from conftest import HADAMARD, Y_BASIS
from oracles import first_strange_loop, unbiased_bases


def _x_povm():
    return kd.rank_one_pvm(HADAMARD)


def test_weak_values_basis_state_preselection():
    d = 3
    basis = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=50))
    b0 = basis.basis_unitary[:, 0]
    rho = kd.validate_density(np.outer(b0, b0.conj()))
    povm = kd.random_povm(d, 2, seed=51)
    table = kd.weak_values(rho, povm, basis)
    w = table.values[:, 0]
    assert np.abs(w.imag).max() < 1e-10
    assert w.real.min() > -1e-10 and w.real.max() < 1 + 1e-10
    expect = [np.vdot(b0, m @ b0).real for m in povm.stack]
    assert np.abs(w.real - expect).max() < 1e-10


def _weak_values_loop(state, povm, basis):
    """Per-effect, per-column reference for weak_values (its former loop form)."""
    u = basis.basis_unitary
    rho_u = state.matrix @ u
    probs = np.clip(np.einsum("ib,ib->b", u.conj(), rho_u).real, 0.0, None)
    values = np.zeros((povm.n_outcomes, state.dim), dtype=complex)
    for a, m in enumerate(povm.stack):
        numer = np.einsum("ib,ij,jb->b", u.conj(), m, rho_u)
        for b in range(state.dim):
            if probs[b] > kd.witness.UNDEFINED_PROB:
                values[a, b] = numer[b] / probs[b]
    return values, probs


def test_weak_values_match_loop_reference_bitwise():
    masked = 0
    for d in range(1, 7):
        for rank in sorted({1, d}):
            rho = kd.random_density(d, rank, seed=650 + 10 * d + rank)
            povm = kd.random_povm(d, 3, seed=660 + d)
            eigvecs = np.linalg.eigh(rho.matrix)[1]
            for u in (kd.haar_random_unitary(d, seed=670 + d), eigvecs):
                table = kd.weak_values(rho, povm, kd.rank_one_pvm(u))
                values, probs = _weak_values_loop(rho, povm, kd.rank_one_pvm(u))
                assert np.array_equal(table.values, values)
                assert np.array_equal(table.postselect_probs, probs)
                masked += int(table.undefined_mask.sum())
    assert masked > 0


def test_weak_value_strange_fixture(derived):
    zero = kd.validate_density([[1, 0], [0, 0]])
    table = kd.weak_values(zero, _x_povm(), kd.rank_one_pvm(Y_BASIS))
    fx = complex(*derived["weak_value_zero_xplus_yplus"])
    assert abs(table.values[0, 0] - fx) < 1e-12
    assert abs(table.values[0, 0].imag + 0.5) < 1e-12


def test_weak_values_undefined_mask():
    zero = kd.validate_density([[1, 0], [0, 0]])
    basis = kd.rank_one_pvm(np.eye(2))
    table = kd.weak_values(zero, _x_povm(), basis)
    assert not table.undefined_mask[0]
    assert table.undefined_mask[1]
    assert table.values[0, 1] == 0.0
    assert abs(table.postselect_probs.sum() - 1.0) < 1e-9


def test_quantum_via_weak_values_matches_table(derived):
    zero = kd.validate_density([[1, 0], [0, 0]])
    nre, ncl = kd.quantum_via_weak_values(zero, _x_povm(), kd.rank_one_pvm(Y_BASIS))
    assert abs(nre - derived["nre_integrand_zero_x_y"]) < 1e-9
    for i in range(10):
        d = 2 + i % 2
        rho = kd.random_density(d, d, seed=550 + i)
        povm = kd.random_povm(d, 2, seed=560 + i)
        basis = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=570 + i))
        nre, ncl = kd.quantum_via_weak_values(rho, povm, basis)
        t = kd.kd_table(rho, povm, basis)
        assert abs(nre - kd.table_nonreality(t)) < 1e-9
        assert abs(ncl - kd.table_nonclassicality(t)) < 1e-9


def test_quantum_via_weak_values_commuting_zero():
    u = kd.haar_random_unitary(3, seed=58)
    lam = np.array([0.5, 0.3, 0.2])
    rho = kd.validate_density((u * lam) @ u.conj().T)
    povm = kd.rank_one_pvm(u)
    for seed in range(4):
        basis = kd.rank_one_pvm(kd.haar_random_unitary(3, seed=580 + seed))
        nre, ncl = kd.quantum_via_weak_values(rho, povm, basis)
        assert abs(nre) < 1e-9
        assert ncl < 1e-9


def test_witness_fixture(derived):
    # At d = 2 the Fourier basis is the X basis, where these weak values are real, so the entry
    # comes from the margin K_0 - t rho = [[-t, i/4], [-i/4, 0]] of effect 0. Its lower eigenvector
    # v = (i/4, (t - s) / 2), with s = sqrt(t^2 + 1/4), holds w = 1/2 - i (s - t); at t = 0 that
    # is |y+> and the fixture's weak value.
    zero = kd.validate_density([[1, 0], [0, 0]])
    report = kd.contextuality_witness(zero, _x_povm())
    assert report.contextual
    assert report.flavors_agree
    entry = report.witness_entry
    t = report.threshold
    s = math.sqrt(t * t + 0.25)
    fx = complex(*derived["weak_value_zero_xplus_yplus"])
    assert abs(fx - complex(0.5, -0.5)) < 1e-12
    assert (entry.a, entry.b) == ("0", 0)
    assert abs(entry.weak_value - complex(0.5, t - s)) < 1e-9
    # the reported postselection vector is v up to phase
    col = entry.basis.basis_unitary[:, entry.b]
    v = np.array([0.25j, 0.5 * (t - s)])
    assert abs(abs(np.vdot(v / np.linalg.norm(v), col)) - 1.0) < 1e-9


def test_witness_commuting_not_contextual():
    diag = kd.validate_density(np.diag([0.75, 0.25]))
    z = kd.rank_one_pvm(np.eye(2))
    report = kd.contextuality_witness(diag, z)
    assert not report.contextual
    assert report.witness_entry is None
    pure = kd.validate_density(np.diag([1.0, 0.0]))
    assert not kd.contextuality_witness(pure, z).contextual


def test_weak_coherence_disagrees_in_the_report_without_a_warning():
    # nre ~ 2 eps is above DEFAULT_THRESHOLD while ncl ~ eps^2 is far below it
    rho = kd.validate_density([[0.6, 1e-7], [1e-7, 0.4]])
    z = kd.rank_one_pvm(np.eye(2))
    for meas in (z, kd.validate_povm(z.stack)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = kd.contextuality_witness(rho, meas)
        assert report.nre > witness_mod.DEFAULT_THRESHOLD > 1e-12 > report.ncl
        assert report.contextual and not report.flavors_agree


def test_witness_huge_threshold_never_contextual():
    zero = kd.validate_density([[1, 0], [0, 0]])
    report = kd.contextuality_witness(zero, _x_povm(), threshold=1e30)
    assert not report.contextual


def test_witness_rejects_bad_threshold():
    zero = kd.validate_density([[1, 0], [0, 0]])
    for bad in (float("nan"), float("inf"), -float("inf"), -1e-7):
        with pytest.raises(kd.ValidationError):
            kd.contextuality_witness(zero, _x_povm(), threshold=bad)
    assert kd.contextuality_witness(zero, _x_povm(), threshold=0.0).contextual


def test_witness_entries_reverify():
    for i in range(12):
        d = 2 + i % 2
        rho = kd.random_density(d, d, seed=590 + i)
        povm = kd.random_povm(d, 2, seed=600 + i)
        report = kd.contextuality_witness(rho, povm)
        # the config is accepted and not read
        with_cfg = kd.contextuality_witness(rho, povm, kd.OptimizerConfig(n_restarts=1, seed=9))
        assert gen_bits.report_bits(with_cfg) == gen_bits.report_bits(report)
        assert report.flavors_agree
        if report.contextual:
            entry = report.witness_entry
            table = kd.weak_values(rho, povm, entry.basis)
            a_idx = povm.labels.index(entry.a)
            again = complex(table.values[a_idx, entry.b])
            assert abs(again - entry.weak_value) < 1e-9
            assert abs(again.imag) > report.threshold or again.real < -report.threshold


def test_witness_bits_match_frozen_fixture():
    # every report field is pinned; see tests/gen_bits.py
    frozen = gen_bits.load("witness")
    assert gen_bits.compute("witness") == frozen["cases"], f"frozen under {frozen['config']}, running under {gen_bits.machine()}"


def test_freezer_refuses_each_rule():
    # the fixtures the freezer would write here, equal to the committed ones on the machine that froze
    # them: the rule check derives the margins' basis bytes on the running BLAS core
    fresh = {name: {"config": gen_bits.machine(), "cases": gen_bits.compute(name)} for name in gen_bits.TABLES}
    for name, fx in fresh.items():
        assert gen_bits.refusals(name, fx, fx) == []
        assert gen_bits.refusals(name, {}, fx) == []

    def refused(name, key, edit):
        new = copy.deepcopy(fresh[name])
        edit(new["cases"][key] if key else new)
        return gen_bits.refusals(name, fresh[name], new)

    def lower(fx):
        fx["per_effect_values"][1] = (float.fromhex(fx["per_effect_values"][1]) - 1e-14).hex()

    def move_one_ulp(fx):
        fx["entry"]["weak_value"][0] = math.nextafter(float.fromhex(fx["entry"]["weak_value"][0]), 1.0).hex()

    def to_fourier(fx):
        fx["entry"]["basis_sha256"] = gen_bits._sha256(_fourier(2))

    def other_numpy(fx):
        fx["config"] = dict(fx["config"], numpy="0.0.0")

    fourier_case = next(c for c in gen_bits.WITNESS_CASES if c[0] == "d2-mixed-povm2")
    assert gen_bits.search_end(fourier_case, fresh["witness"]["cases"]["d2-mixed-povm2"]) == "mub"
    assert refused("ncl", "d3-mixed-povm3", lower) == ["ncl d3-mixed-povm3: a per-effect value fell by more than 1e-15"]
    assert refused("witness", "d2-mixed-povm2", move_one_ulp) == ["witness d2-mixed-povm2: ends in mub but its bits changed"]
    assert refused("witness", "d2-search-margin-pvm", to_fourier) == [
        "witness d2-search-margin-pvm: ends in mub, expected margin"
    ]
    for name in gen_bits.TABLES:
        assert refused(name, None, other_numpy) == [
            f"{name}: committed under {fresh[name]['config']}, running under {dict(fresh[name]['config'], numpy='0.0.0')}"
        ]


def _search_case(name):
    return gen_bits.build(next(c for c in gen_bits.WITNESS_CASES if c[0] == name))


def test_witness_ncl_is_the_nonclassicality_value():
    instances = []
    for d in (1, 2, 3, 4, 6):
        for rank in sorted({1, max(1, d // 2), d}):
            instances.append((kd.random_density(d, rank, seed=700 + 10 * d + rank), kd.random_povm(d, 3, seed=710 + d)))
        u = kd.haar_random_unitary(d, seed=720 + d)
        lam = np.arange(d, 0, -1.0)
        instances.append((kd.validate_density((u * (lam / lam.sum())) @ u.conj().T), kd.rank_one_pvm(u)))
    for state, povm in instances:
        report = kd.contextuality_witness(state, povm)
        assert report.ncl.hex() == kd.quantum_nonclassicality(state, povm).value.hex()


def _log_calls(monkeypatch, names):
    log = []
    for name in names:
        original = getattr(witness_mod, name)

        def logging_call(*args, _name=name, _original=original, **kwargs):
            log.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(witness_mod, name, logging_call)
    return log


def test_witness_builds_candidates_only_when_reached(monkeypatch):
    # the scan reads no measurement basis: its catalog is the Fourier basis, then the margins
    assert not hasattr(witness_mod, "_povm_basis")
    log = _log_calls(monkeypatch, ("_weak_value_parts", "_margins"))
    for d in (2, 3):
        state = kd.random_density(d, d, seed=730 + d)
        povm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=740 + d))
        report = kd.contextuality_witness(state, povm)
        # the Fourier basis holds the entry, so no later candidate is built
        assert np.array_equal(report.witness_entry.basis.basis_unitary, _fourier(d))
        assert log == ["_weak_value_parts"]
        log.clear()
    # the margin stack is built once, after the Fourier basis was scanned
    for name, n_unbiased in (("d2-search-margin-povm3", 1), ("d2-search-margin-pvm", 1)):
        state, povm, threshold = _search_case(name)
        kd.contextuality_witness(state, povm, threshold=threshold)
        at = log.index("_margins")
        assert log.count("_margins") == 1
        assert log[:at].count("_weak_value_parts") == n_unbiased
        assert log[at + 1:] == ["_weak_value_parts"] * (len(log) - at - 1) and len(log) > at + 1
        log.clear()


def test_first_strange_matches_table_loop_oracle_bitwise():
    # per basis and over each whole catalog: the Fourier basis, then the margins' eigenbases
    ends = {"hit": 0, "none": 0, "skipped": 0}
    for d in range(1, 9):
        for rank in sorted({1, d}):
            state = kd.random_density(d, rank, seed=900 + 10 * d + rank)
            povms = (
                kd.random_povm(d, 2, seed=990 + d),
                kd.random_povm(d, 3, seed=1000 + d),
                kd.rank_one_pvm(kd.haar_random_unitary(d, seed=1010 + d)),
            )
            for povm in povms:
                for t in (0.0, 1e-7, 0.05, 0.3):
                    margin_bases = list(np.linalg.eigh(witness_mod._margins(state, povm, t))[1])
                    for catalog in ([_fourier(d)], margin_bases):
                        for unitaries in [catalog] + [[u] for u in catalog]:
                            got = witness_mod._first_strange(state, povm, unitaries, t)
                            want = first_strange_loop(
                                state.matrix, povm.stack, unitaries, t,
                                witness_mod._SCAN_PROB_MIN, witness_mod.UNDEFINED_PROB,
                            )
                            if want is None:
                                assert got is None
                                ends["none"] += 1
                                continue
                            a, b, w, u = want
                            assert (got.a, got.b) == (povm.labels[a], b)
                            assert (got.weak_value.real.hex(), got.weak_value.imag.hex()) == (w.real.hex(), w.imag.hex())
                            assert got.basis.basis_unitary.tobytes() == u.tobytes()
                            ends["hit"] += 1
                    for u in margin_bases:
                        probs = np.einsum("ib,ij,jb->b", u.conj(), state.matrix, u).real
                        ends["skipped"] += int((probs < witness_mod._SCAN_PROB_MIN).sum())
    # both outcomes occur, and some columns fall below the scan's probability floor
    assert min(ends.values()) > 0, ends


def _largest_margin(exc) -> float:
    return float(re.search(r"largest margin is (\S+)", str(exc)).group(1))


def _whitened_extremes(state, povm):
    """Per effect, the sup over b of Im w, -Im w and -Re w, from the numerical range of rho^-1/2 M rho^1/2.

    Needs a full-rank state. Returned with shape (3, n) in the margin stack's order.
    """
    w, v = np.linalg.eigh(state.matrix)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    out = np.empty((3, povm.n_outcomes))
    for a, m in enumerate(povm.stack):
        k = (m @ state.matrix - state.matrix @ m) / 2j
        j = (m @ state.matrix + state.matrix @ m) / 2
        im = np.linalg.eigvalsh(inv_sqrt @ k @ inv_sqrt)
        re = np.linalg.eigvalsh(inv_sqrt @ j @ inv_sqrt)
        out[:, a] = im[-1], -im[0], -re[0]
    return out


def test_margins_match_the_whitened_numerical_range():
    # margin i is positive exactly when its kind of strange weak value exists for its effect
    signs = set()
    for i in range(40):
        d = 2 + i % 3
        state = kd.random_density(d, d, seed=760 + i)
        povm = kd.random_povm(d, 3, seed=800 + i)
        extremes = _whitened_extremes(state, povm).ravel()
        for t in (0.02, 0.1, 0.3):
            top = np.linalg.eigvalsh(witness_mod._margins(state, povm, t))[:, -1]
            clear = np.abs(extremes - t) > 1e-9
            assert np.array_equal((top > 0)[clear], (extremes > t)[clear])
            signs.update(zip(top > 0, range(3 * povm.n_outcomes)))
    # every margin of the stack is seen both positive and not
    assert len(signs) == 2 * 9


def test_witness_not_found_is_a_certificate():
    state, povm, threshold = _search_case("d2-search-not-found")
    with pytest.raises(kd.WitnessNotFoundError, match="no basis holds") as exc:
        kd.contextuality_witness(state, povm, threshold=threshold)
    assert -2e-3 < _largest_margin(exc.value) <= 0
    # the whitened closed form agrees: no weak value is strange at this threshold
    assert 0.04 < _whitened_extremes(state, povm).max() <= threshold


def test_library_errors_are_caught_as_builtin_bases():
    # errors.py documents these bases, so a caller can catch them without importing kduncert
    with pytest.raises(ValueError):
        kd.validate_density([[0.5, 0.6], [0.6, 0.5]])
    with pytest.raises(ValueError):
        kd.decompose(kd.random_density(2, 2, seed=0), kd.random_povm(3, 2, seed=1), kd.Flavor.NRE)
    state, povm, threshold = _search_case("d2-search-not-found")
    with pytest.raises(RuntimeError):
        kd.contextuality_witness(state, povm, threshold=threshold)


def test_witness_positive_margin_without_scannable_entry(monkeypatch):
    # with the probability floor above 1 no entry can be scanned, although a margin is positive
    monkeypatch.setattr(witness_mod, "_SCAN_PROB_MIN", 2.0)
    state, povm, threshold = _search_case("d2-search-margin-povm3")
    with pytest.raises(kd.WitnessNotFoundError, match="> 0, but no entry") as exc:
        kd.contextuality_witness(state, povm, threshold=threshold)
    assert _largest_margin(exc.value) > 0


def _no_strange_entry_in_haar_bases(state, povm, threshold, seed, n=200):
    for r in range(n):
        basis = kd.rank_one_pvm(kd.haar_random_unitary(state.dim, seed=[seed, r]))
        table = kd.weak_values(state, povm, basis)
        w = table.values[:, ~table.undefined_mask]
        if (np.abs(w.imag) > threshold).any() or (w.real < -threshold).any():
            return False
    return True


def test_witness_margin_sweep():
    ends = {"mub": 0, "margin": 0, "none": 0}
    for d in (2, 3, 4, 5):
        for rank in sorted({1, 2, d}):
            for t in (0.05, 0.3):
                for k in range(30):
                    seed = 10000 + 1000 * d + 100 * rank + int(t * 100) + k
                    state = kd.random_density(d, rank, seed=seed)
                    if k % 2:
                        povm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=seed + 1))
                    else:
                        povm = kd.random_povm(d, 3, seed=seed + 1)
                    try:
                        report = kd.contextuality_witness(state, povm, threshold=t)
                    except kd.WitnessNotFoundError as exc:
                        assert _largest_margin(exc) <= 0, exc
                        assert _no_strange_entry_in_haar_bases(state, povm, t, seed)
                        ends["none"] += 1
                        continue
                    entry = report.witness_entry
                    if entry is None:
                        continue
                    a = povm.labels.index(entry.a)
                    table = kd.weak_values(state, povm, entry.basis)
                    again = complex(table.values[a, entry.b])
                    assert again == entry.weak_value
                    assert abs(again.imag) > t or again.real < -t
                    assert table.postselect_probs[entry.b] >= witness_mod._SCAN_PROB_MIN
                    in_fourier = np.array_equal(entry.basis.basis_unitary, _fourier(d))
                    ends["mub" if in_fourier else "margin"] += 1
    # every end of the scan occurs in the sweep
    assert min(ends.values()) > 0, ends


def _holds_strange_entry(state, povm, u, threshold):
    """Whether the basis with unitary u holds a weak value strange at threshold with Pr(b) >= the scan's floor."""
    table = kd.weak_values(state, povm, kd.rank_one_pvm(u))
    w = table.values[:, table.postselect_probs >= witness_mod._SCAN_PROB_MIN]
    return bool((np.abs(w.imag) > threshold).any() or (w.real < -threshold).any())


def _assert_margin_entry(state, povm, report):
    """The report's entry sits in an eigenbasis of the margins and re-verifies through weak_values."""
    t = report.threshold
    entry = report.witness_entry
    margin_bases = np.linalg.eigh(witness_mod._margins(state, povm, t))[1]
    assert any(np.array_equal(entry.basis.basis_unitary, u) for u in margin_bases)
    table = kd.weak_values(state, povm, entry.basis)
    again = complex(table.values[povm.labels.index(entry.a), entry.b])
    assert again == entry.weak_value
    assert abs(again.imag) > t or again.real < -t
    assert table.postselect_probs[entry.b] >= witness_mod._SCAN_PROB_MIN


def test_margins_cover_the_lifted_unbiased_bases():
    # For a rank-1 PVM with basis V, the lifted basis V F (F the Fourier basis) can hold a strange
    # entry that F misses; the eigenbases of the positive margins then hold one too.
    lifted = 0
    for d in (2, 3, 4, 5):
        for t in (0.1, 0.3, 0.5):
            for k in range(40):
                seed = 40_000 + 1000 * d + 100 * round(10 * t) + k
                state = kd.random_density(d, 1 + k % d, seed=seed)
                v = kd.haar_random_unitary(d, seed=seed + 1)
                povm = kd.rank_one_pvm(v)
                if _holds_strange_entry(state, povm, _fourier(d), t):
                    continue
                if not _holds_strange_entry(state, povm, v @ _fourier(d), t):
                    continue
                # a lift holds a strange entry, so no certificate may deny one
                report = kd.contextuality_witness(state, povm, threshold=t)
                if not report.contextual:
                    continue
                lifted += 1
                _assert_margin_entry(state, povm, report)
    assert lifted >= 10, lifted


def test_margins_cover_the_unbiased_bases_beyond_fourier():
    # The unbiased bases that the witness no longer scans hold no entry the margins miss:
    # whenever one holds a strange entry that the Fourier basis misses, the witness finds one
    # in a margin eigenbasis.
    beyond = 0
    for d in (2, 3, 5, 7):
        catalog = unbiased_bases(d)
        assert np.array_equal(catalog[0], _fourier(d))
        for t in (0.05, 0.1, 0.3):
            for k in range(24):
                seed = 50_000 + 1000 * d + 100 * round(20 * t) + k
                state = kd.random_density(d, 1 + k % d, seed=seed)
                if k % 2:
                    povm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=seed + 1))
                else:
                    povm = kd.random_povm(d, 3, seed=seed + 1)
                if _holds_strange_entry(state, povm, catalog[0], t):
                    continue
                if not any(_holds_strange_entry(state, povm, u, t) for u in catalog[1:]):
                    continue
                report = kd.contextuality_witness(state, povm, threshold=t)
                if not report.contextual:
                    continue
                beyond += 1
                _assert_margin_entry(state, povm, report)
    assert beyond >= 10, beyond


def test_zero_state_under_the_fourier_pvm_ends_in_a_margin_eigenbasis():
    # |0> postselected on a Fourier column gives real, non-negative weak values of the Fourier
    # projectors, so the Fourier basis holds no strange entry and the margins must supply one.
    for d in range(2, 9):
        zero = np.zeros((d, d))
        zero[0, 0] = 1.0
        state = kd.validate_density(zero)
        povm = kd.rank_one_pvm(_fourier(d))
        assert not _holds_strange_entry(state, povm, _fourier(d), witness_mod.DEFAULT_THRESHOLD)
        report = kd.contextuality_witness(state, povm)
        assert report.contextual, d
        _assert_margin_entry(state, povm, report)


def _commuting_pair(d, rank, seed, rank_one):
    """A state of the given rank and a POVM (a rank-1 PVM or 3 effects), both diagonal in one Haar basis."""
    rng = np.random.default_rng(seed)
    u = kd.haar_random_unitary(d, rng)
    lam = np.zeros(d)
    lam[:rank] = rng.random(rank) + 0.1
    state = kd.validate_density((u * (lam / lam.sum())) @ u.conj().T)
    if rank_one:
        return state, kd.rank_one_pvm(u)
    weights = rng.random((3, d)) + 0.1
    return state, kd.validate_povm([(u * w) @ u.conj().T for w in weights / weights.sum(axis=0)])


def _largest_margin_at_zero(state, povm) -> float:
    return float(np.linalg.eigvalsh(witness_mod._margins(state, povm, 0.0))[:, -1].max())


def test_zero_threshold_margin_is_positive_iff_the_pair_does_not_commute():
    # the paper's claim at t = 0: a strange weak value exists exactly when the quantum part is nonzero
    lowest, highest = np.inf, 0.0
    for d in (2, 3, 4, 5):
        for rank in sorted({1, d}):
            for k in range(6):
                seed = 30_000 + 100 * d + 10 * rank + k
                state = kd.random_density(d, rank, seed=seed)
                if k % 2:
                    povm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=seed + 1))
                else:
                    povm = kd.random_povm(d, 3, seed=seed + 1)
                lowest = min(lowest, _largest_margin_at_zero(state, povm))
                state, povm = _commuting_pair(d, rank, seed, rank_one=bool(k % 2))
                highest = max(highest, _largest_margin_at_zero(state, povm), kd.quantum_nonreality(state, povm))
    assert lowest > 1e-12
    assert highest <= 1e-12


def test_disturbance_fixtures():
    u = kd.haar_random_unitary(2, seed=63)
    lam = np.array([0.7, 0.3])
    incoherent = kd.validate_density((u * lam) @ u.conj().T)
    assert kd.disturbance_nonreality(incoherent, kd.rank_one_pvm(u)) < 1e-10

    plus = kd.validate_density(np.full((2, 2), 0.5))
    z = kd.rank_one_pvm(np.eye(2))
    assert abs(kd.disturbance_nonreality(plus, z) - 1.0) < 1e-12
