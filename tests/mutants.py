"""Mutation harness: which tier-1 tests and selftest properties kill each of a fixed list of mutants.

Run it from any directory, with no arguments for every mutant, or with
mutant names to run only those (and the unmutated copy):

    python tests/mutants.py
    python tests/mutants.py ser.allow_nan wit.conjugate_basis

An unknown name is an error (exit 2) and runs nothing.

Each mutant is (name, file, old_text, new_text): one text substitution in
src/kduncert/<file>, whose old_text occurs there exactly once. The script
copies src/, tests/, perfbench/ and pyproject.toml of this checkout into a
temporary directory once. pyproject.toml makes pytest import the copy's own
src, and tests/test_lint.py reads perfbench/. For the unmutated copy and
then for each mutant it makes a fresh copy of that snapshot in a directory
of its own, applies the substitution, and runs inside it, each with a
timeout of TIMEOUT_S:
- the tier-1 command, python -m pytest -q --continue-on-collection-errors,
  with the copy's src on PYTHONPATH, less GUARD: that test checks this
  list against the source, so it would fail on every mutant;
- run_selftest(dims=(2, 3, 4), samples=10, seed=0), the settings of
  acceptance criterion 6.

A tier-1 test kills a mutant when it fails on the mutant and passes on the
unmutated copy; a collection error or a timeout counts as a kill and is
labelled so. A selftest property kills it when it fails; run_selftest
reports a property that raises as failed, and the report labels it
"(raised <Type>)". Every property kill is also a kill by criterion 6,
which runs the whole selftest, so the properties tell which check inside
criterion 6 fired. The report lists the killers of each mutant, the
mutants that only one tier-1 test kills, the selftest properties that no
mutant kills (only when every mutant ran), the surviving mutants and the
kill rate. Nothing in the checkout is written.

The copies run in parallel, one worker per CPU in os.sched_getaffinity(0),
each child with one BLAS and OpenMP thread; the report keeps the order of
MUTANTS. Each mutant costs one tier-1 run, about 13 s of one CPU.
Not collected by pytest; tests/test_lint.py checks that every mutant
still applies to the current source.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = pathlib.Path("src") / "kduncert"
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIMEOUT_S = 300
WORKERS = len(os.sched_getaffinity(0))
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
GUARD = "tests/test_lint.py::test_every_mutant_applies"
TIER1 = (
    "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "--tb=no", "-rfE",
    "--deselect", GUARD,
)
SELFTEST = """
import json
from kduncert import selftest
failed = []
for r in selftest.run_selftest(dims=(2, 3, 4), samples=10, seed=0)[1]:
    if not r.ok:
        raised = r.detail.startswith("raised ")
        failed.append(f"{r.name} (raised {r.detail[7:].split(':', 1)[0]})" if raised else r.name)
print(json.dumps(failed))
"""
PROPERTY_NAMES = """
import json
from kduncert import selftest
print(json.dumps([name for name, _ in selftest.PROPERTIES]))
"""

MUTANTS = (
    # core.py
    ("core.haar_no_phase_fix", "core.py", "    return q * (diag / np.abs(diag))", "    return q"),
    (
        "core.haar_transposed",
        "core.py",
        "return _haar(d, np.random.default_rng(seed))",
        "return _haar(d, np.random.default_rng(seed)).T",
    ),
    (
        "core.random_density_real",
        "core.py",
        "    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))",
        "    g = rng.standard_normal((d, rank)) + 0j * rng.standard_normal((d, rank))",
    ),
    ("core.random_povm_adjoint_first", "core.py", "draws.append(g @ g.conj().T)", "draws.append(g.conj().T @ g)"),
    ("core.empty_matrix_passes", "core.py", "    if a.size == 0:", "    if a.size < 0:"),
    ("core.density_psd_nan_passes", "core.py", "    if not w0 >= -HERM_ATOL:", "    if w0 < -HERM_ATOL:"),
    ("core.povm_completeness_loose", "core.py", "    if dev > COMPLETENESS_ATOL:", "    if dev > 1e-3:"),
    ("core.pvm_unitarity_nan_passes", "core.py", "    if not dev <= HERM_ATOL:", "    if dev > HERM_ATOL:"),
    (
        "core.projectors_conjugated",
        "core.py",
        "return _frozen(u[:, :, None] * u.conj()[:, None, :])",
        "return _frozen(u.conj()[:, :, None] * u[:, None, :])",
    ),
    (
        "core.pvm_labels_from_1",
        "core.py",
        "return tuple(str(b) for b in range(self.dim))",
        "return tuple(str(b + 1) for b in range(self.dim))",
    ),
    (
        "core.pvm_unchecked_writable",
        "core.py",
        "    return RankOnePvm(basis_unitary=_frozen(u))",
        "    return RankOnePvm(basis_unitary=u)",
    ),
    (
        "core.partial_trace_wrong_factor",
        "core.py",
        "        return np.trace(t, axis1=1, axis2=3)",
        "        return np.trace(t, axis1=0, axis2=2)",
    ),
    (
        "core.tensor_swapped",
        "core.py",
        "np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))",
        "np.kron(np.asarray(b, dtype=complex), np.asarray(a, dtype=complex))",
    ),
    (
        "core.fourier_unnormalized",
        "core.py",
        "np.exp(2j * np.pi * np.outer(m, m) / d) / np.sqrt(d)",
        "np.exp(2j * np.pi * np.outer(m, m) / d)",
    ),
    ("core.povm_repeated_labels_pass", "core.py", "            if len(set(labels)) != n:", "            if len(set(labels)) > n:"),
    ("core.same_dim_first_only", "core.py", "    for m in measurements:", "    for m in measurements[:1]:"),
    ("core.same_dim_gt", "core.py", "        if m.dim != state.dim:", "        if m.dim > state.dim:"),
    (
        "core.trace_norm_real_part",
        "core.py",
        "    return float(_trace_norms(as_operator(m)[None])[0])",
        "    return float(_trace_norms(as_operator(m).real[None])[0])",
    ),
    # kdtable.py
    (
        "kd.einsum_table",
        "kdtable.py",
        "    values = np.trace(second.stack @ ma_rho[:, None], axis1=-2, axis2=-1)",
        '    values = np.einsum("bij,aji->ab", second.stack, ma_rho)',
    ),
    ("kd.marginal_a_wrong_axis", "kdtable.py", "return self.values.sum(axis=1)", "return self.values.sum(axis=0)"),
    ("kd.marginal_b_wrong_axis", "kdtable.py", "return self.values.sum(axis=0)", "return self.values.sum(axis=1)"),
    (
        "kd.clamp_small_positive",
        "kdtable.py",
        "return 0.0 if -NONCLASSICALITY_CLAMP <= v < 0.0 else v",
        "return 0.0 if abs(v) <= NONCLASSICALITY_CLAMP else v",
    ),
    # kd.johansen_pb_pa_rho_pa is retired: the loop oracle's own form of the projected term, it moves only roundoff
    # kd.commuting_real, folded into unc.commuting_entirely_classical: rho^T for rho^dag
    ("kd.table_rho_transposed", "kdtable.py", "ma_rho = first.stack @ state.matrix", "ma_rho = first.stack @ state.matrix.T"),
    # kd.nonclassicality_nonneg, folded into kd.marginals: the mean modulus for the sum, a total below zero
    (
        "kd.nonclassicality_mean",
        "kdtable.py",
        "float(np.abs(t.values).sum()) - 1.0",
        "float(np.abs(t.values).mean()) - 1.0",
    ),
    # optimize.py
    (
        "opt.ncl_sum_reversed",
        "optimize.py",
        "_clamp_nonclassicality(sum(norms) - 1.0)",
        "_clamp_nonclassicality(sum(reversed(norms)) - 1.0)",
    ),
    (
        "opt.phase_rotation_1e-15",
        "optimize.py",
        "math.pi - phases[i] - 0.5 * gaps[i]",
        "math.pi - phases[i] - 0.5 * gaps[i] + 1e-15",
    ),
    (
        "opt.nre_public_fsum",
        "optimize.py",
        "    return sum(0.5 * t for t in _trace_norms(m @ rho - rho @ m).tolist())",
        "    return math.fsum(0.5 * t for t in _trace_norms(m @ rho - rho @ m).tolist())",
    ),
    ("opt.ncl_basis_of_smallest_effect", "optimize.py", "k_ops[int(np.argmax(values))]", "k_ops[int(np.argmin(values))]"),
    (
        "opt.sup_value_rel_1e-9",
        "optimize.py",
        "float(_trace_norms(k[None])[0])",
        "float(_trace_norms(k[None])[0]) * (1.0 + 1e-9)",
    ),
    (
        "opt.parts_nre_fsum",
        "optimize.py",
        "    return sum(0.5 * t for t in norms[:n]), _ncl_total(norms[n:])",
        "    return math.fsum(0.5 * t for t in norms[:n]), _ncl_total(norms[n:])",
    ),
    # opt.nre_variational_agreement, folded into opt.variational_trace_norm: the Cayley step without its
    # rotation, singular when X has -1 in its spectrum, as for K = -I
    (
        "opt.cayley_no_rotation",
        "optimize.py",
        "y = x * np.exp(1j * (math.pi - phases[i] - 0.5 * gaps[i]))",
        "y = x",
    ),
    # opt.mixing_convexity: the NCl part's operands swapped, so the part is concave
    (
        "opt.ncl_one_minus_sum",
        "optimize.py",
        "_clamp_nonclassicality(sum(norms) - 1.0)",
        "_clamp_nonclassicality(1.0 - sum(norms))",
    ),
    # unc.quantum_bounded_by_total: the 1/2 of [M^a, rho] / 2i dropped
    (
        "opt.nre_unhalved",
        "optimize.py",
        "return sum(0.5 * t for t in _trace_norms(m @ rho - rho @ m).tolist())",
        "return sum(t for t in _trace_norms(m @ rho - rho @ m).tolist())",
    ),
    # unc.commuting_entirely_classical: a conjugation slip in the commutator
    ("opt.nre_commutator_conj", "optimize.py", "_trace_norms(m @ rho - rho @ m)", "_trace_norms(m @ rho - rho.conj() @ m)"),
    # unc.decomposition_covariance: (M^a rho)^dag taken as the transpose, covariant under real unitaries only
    ("opt.parts_adjoint_as_transpose", "optimize.py", "m_rho - rho @ m", "m_rho - m_rho.transpose(0, 2, 1)"),
    # uncertainty.py
    (
        "unc.coarse_grain_all_into_block0",
        "uncertainty.py",
        "owners = [k for k, block in enumerate(blocks) for _ in block[1:]]",
        "owners = [0 for k, block in enumerate(blocks) for _ in block[1:]]",
    ),
    (
        "unc.outcome_probs_unclamped",
        "uncertainty.py",
        "    return [min(max(x, 0.0), 1.0) for x in np.trace(povm.stack @ state.matrix, axis1=1, axis2=2).real.tolist()]",
        "    return np.trace(povm.stack @ state.matrix, axis1=1, axis2=2).real.tolist()",
    ),
    ("unc.decompose_classical_minus_2q", "uncertainty.py", "classical=total - quantum,", "classical=total - 2.0 * quantum,"),
    ("unc.s_entropy_one_minus_p", "uncertainty.py", "math.sqrt(x * sum(p[:a] + p[a + 1:]))", "math.sqrt(x * (1.0 - x))"),
    # opt.coarsegrain_monotone: each block's first effect added again in place of the rest of the block
    (
        "unc.coarse_grain_first_again",
        "uncertainty.py",
        "povm.stack[[i for block in blocks for i in block[1:]]]",
        "povm.stack[[i for block in blocks for i in block[:1]]]",
    ),
    # unc.classical_concavity: the classical part's sign slip
    ("unc.decompose_classical_plus_q", "uncertainty.py", "classical=total - quantum,", "classical=total + quantum,"),
    # unc.permutation_invariance: 1 - p_a summed without the next outcome, a total that follows the effect order
    ("unc.s_entropy_skips_next", "uncertainty.py", "sum(p[:a] + p[a + 1:])", "sum(p[:a] + p[a + 2:])"),
    # unc.maximal_trichotomy: sqrt(p_a) (1 - p_a) for sqrt(p_a (1 - p_a))
    (
        "unc.s_entropy_sqrt_misplaced",
        "uncertainty.py",
        "math.sqrt(x * sum(p[:a] + p[a + 1:]))",
        "math.sqrt(x) * sum(p[:a] + p[a + 1:])",
    ),
    # unc.tsallis_relation, folded into unc.maximal_trichotomy: t_entropy takes the NRe flavor
    (
        "unc.t_entropy_nre_flavor",
        "uncertainty.py",
        "return _entropy(_check_probs(probs), Flavor.NCL)",
        "return _entropy(_check_probs(probs), Flavor.NRE)",
    ),
    ("unc.infimum_check_off", "uncertainty.py", "    if quant > 1e-9:", "    if quant > 1e9:"),
    ("unc.asymmetry_unhalved", "uncertainty.py", "    return 0.5 * best", "    return best"),
    (
        "unc.relation_bound_real_part",
        "uncertainty.py",
        "(ub.conj().T @ state.matrix @ ua).T).imag",
        "(ub.conj().T @ state.matrix @ ua).T).real",
    ),
    # witness.py
    (
        "wit.is_strange_ge",
        "witness.py",
        "return abs(w.imag) > threshold or w.real < -threshold",
        "return abs(w.imag) >= threshold or w.real < -threshold",
    ),
    ("wit.weak_values_mask_1e-3", "witness.py", "    mask = probs <= UNDEFINED_PROB", "    mask = probs <= 1e-3"),
    ("wit.margin_plus_j", "witness.py", "np.concatenate([k, -k, -j])", "np.concatenate([k, -k, j])"),
    (
        "wit.numerator_conjugated",
        "witness.py",
        '    numer = np.einsum("ib,aij,jb->ab", u_conj, stack, rho_u)',
        '    numer = np.einsum("ib,aij,jb->ab", u_conj, stack, rho_u).conj()',
    ),
    (
        "wit.scan_no_prob_skip",
        "witness.py",
        "                if probs[b] < _SCAN_PROB_MIN:\n                    continue\n",
        "",
    ),
    (
        "wit.lueders_one_sided",
        "witness.py",
        "pa @ rho @ pa + comp @ rho @ comp",
        "pa @ rho @ pa + comp @ rho",
    ),
    ("wit.disturbance_skips_first", "witness.py", "for pa in pvm.stack:", "for pa in pvm.stack[1:]:"),
    # wit.contextuality_consistency: the scan reports the numerator <b|M^a rho|b> as the weak value
    (
        "wit.scan_undivided",
        "witness.py",
        "rows = (numer / np.maximum(probs, _SCAN_PROB_MIN)).tolist()",
        "rows = numer.tolist()",
    ),
    # wit.contextuality_consistency: the entry's basis reported conjugated, which only a complex column shows
    ("wit.conjugate_basis", "witness.py", "basis=_pvm_unchecked(u))", "basis=_pvm_unchecked(u.conj()))"),
    (
        "wit.agree_at_threshold",
        "witness.py",
        "agree = (nre > DEFAULT_THRESHOLD) == (ncl > DEFAULT_THRESHOLD)",
        "agree = (nre > threshold) == (ncl > threshold)",
    ),
    # serialize.py
    ("ser.allow_nan", "serialize.py", "allow_nan=False", "allow_nan=True"),
    (
        "ser.kdtable_transposed",
        "serialize.py",
        "for x in t.values.reshape(-1)]",
        "for x in t.values.T.reshape(-1)]",
    ),
    (
        "ser.povm_effects_reversed",
        "serialize.py",
        "[matrix_to_json(e) for e in povm.stack]",
        "[matrix_to_json(e) for e in povm.stack[::-1]]",
    ),
    # cli.py
    ("cli.kd_table_swapped", "cli.py", "kd_table(state, first, second)", "kd_table(state, second, first)"),
    ("cli.seed_default_1", "cli.py", '"--seed", type=int, default=0,', '"--seed", type=int, default=1,'),
    # selftest.py
    (
        "st.convexity_nre_only",
        "selftest.py",
        "worst = max(worst, lhs[0] - rhs[0], lhs[1] - rhs[1])",
        "worst = max(worst, lhs[0] - rhs[0])",
    ),
    ("st.passed_if_any", "selftest.py", "return all(r.ok for r in results), results", "return any(r.ok for r in results), results"),
    # errors.py
    (
        "err.validation_not_value_error",
        "errors.py",
        "class ValidationError(KdUncertError, ValueError):",
        "class ValidationError(KdUncertError):",
    ),
    # __init__.py
    ("init.impurity_s_is_impurity_t", "__init__.py", "    impurity_s,\n", "    impurity_t as impurity_s,\n"),
)


def check_mutants() -> list:
    """One line per mutant that does not apply to the checkout's source: a repeated name, a missing file, or old_text not found exactly once."""
    problems = []
    seen = set()
    for name, file, old, _ in MUTANTS:
        if name in seen:
            problems.append(f"{name}: name used twice")
        seen.add(name)
        path = ROOT / PACKAGE / file
        if not path.is_file():
            problems.append(f"{name}: no file {path}")
            continue
        count = path.read_text().count(old)
        if count != 1:
            problems.append(f"{name}: old text occurs {count} times in {file}")
    return problems


def _run(argv, cwd):
    """The finished process, or None on timeout; the copy's src goes first on PYTHONPATH."""
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(cwd / "src"), os.environ.get("PYTHONPATH")) if p)
    try:
        return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def _tier1(copy) -> tuple:
    """(set of failed tier-1 checks, last line of pytest's output)."""
    proc = _run([sys.executable, *TIER1], copy)
    if proc is None:
        return {f"tier-1 timeout after {TIMEOUT_S} s"}, "timeout"
    failed = set()
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            node = rest.split(" - ", 1)[0].strip()
            failed.add(node if "::" in node else f"collection error: {node}")
    if proc.returncode not in (0, 1) and not failed:
        failed.add(f"pytest exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return failed, lines[-1] if lines else ""


def _selftest(copy) -> set:
    proc = _run([sys.executable, "-c", SELFTEST], copy)
    if proc is None:
        return {f"selftest timeout after {TIMEOUT_S} s"}
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return {f"selftest exit code {proc.returncode}: {lines[-1] if lines else ''}"}
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def _kills(snapshot, work, index, mutant) -> tuple:
    """(tier-1 failures, selftest failures, pytest summary, seconds) of a fresh copy of snapshot, run-<index>, with mutant applied (None: unmutated)."""
    t0 = time.time()
    copy = work / f"run-{index}"
    shutil.copytree(snapshot, copy)
    try:
        if mutant is not None:
            _, file, old, new = mutant
            path = copy / PACKAGE / file
            path.write_text(path.read_text().replace(old, new, 1))
        tier1, summary = _tier1(copy)
        return tier1, _selftest(copy), summary, time.time() - t0
    finally:
        shutil.rmtree(copy)


def main(names) -> int:
    problems = check_mutants()
    if problems:
        print("mutants that do not apply:\n  " + "\n  ".join(problems))
        return 1
    unknown = sorted(set(names) - {m[0] for m in MUTANTS})
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    start = time.time()
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", "_work")
    with tempfile.TemporaryDirectory(prefix="kduncert-mutants-") as tmp:
        work = pathlib.Path(tmp)
        snapshot = work / "snapshot"
        snapshot.mkdir()
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, snapshot / name, ignore=ignore)
            else:
                shutil.copy2(src, snapshot / name)

        properties = json.loads(_run([sys.executable, "-c", PROPERTY_NAMES], snapshot).stdout)
        with ThreadPoolExecutor(WORKERS) as pool:
            # map runs the copies in parallel and yields them in MUTANTS order, the unmutated copy first
            runs = pool.map(lambda job: _kills(snapshot, work, *job), enumerate((None, *chosen)))
            base_tier1, base_selftest, summary, _ = next(runs)
            print(f"unmutated copy: tier-1 {summary}; selftest failures: {sorted(base_selftest) or 'none'}")
            if base_tier1:
                print("tier-1 checks failing without a mutant, left out of every kill set:")
                for node in sorted(base_tier1):
                    print(f"  {node}")

            results = []
            for i, (mutant, (tier1, props, _, seconds)) in enumerate(zip(chosen, runs), 1):
                tier1 -= base_tier1
                props -= base_selftest
                results.append((mutant, sorted(tier1), sorted(props)))
                print(
                    f"[{i:2d}/{len(chosen)}] {mutant[0]:34s} {len(tier1):3d} tier-1, {len(props):2d} selftest"
                    f"  ({seconds:.0f} s)",
                    flush=True,
                )

    print("\nkill table (mutant, file: tier-1 killers | selftest properties)")
    for (name, file, _, _), tier1, props in results:
        print(f"{name} ({file}): {len(tier1)} tier-1 | {', '.join(props) or 'no property'}")
        for node in tier1:
            print(f"    {node}")

    print("\nmutants that only one tier-1 test kills:")
    sole = [(m[0], tier1[0], props) for m, tier1, props in results if len(tier1) == 1]
    for name, node, props in sole:
        print(f"  {name}: {node}" + (f" (selftest: {', '.join(props)})" if props else ""))
    if not sole:
        print("  none")

    if not names:  # a named subset leaves most properties unkilled, so the list would say nothing
        killers = {prop.split(" ")[0] for _, _, props in results for prop in props}
        idle = [name for name in properties if name not in killers]
        print(f"\nselftest properties that no mutant kills: {', '.join(idle) or 'none'}")

    survivors = [m[0] for m, tier1, props in results if not tier1 and not props]
    killed = len(results) - len(survivors)
    print(f"\nsurvivors: {', '.join(survivors) or 'none'}")
    print(
        f"kill rate: {killed}/{len(results)} = {100.0 * killed / len(results):.0f} %"
        f" in {time.time() - start:.0f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
