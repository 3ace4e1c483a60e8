"""Independent correctness checks, in plain numpy.

Each check returns a list of problems (empty when the output is right).
None of them calls into kduncert: they recompute what the program claims
from the raw matrices of the corpus.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9
BRACKET_THETAS = 64
# shortfall against the frozen seed-code NCl values that counts as a failure
NCL_SHORTFALL_TOL = 1e-9


def born(rho, effects) -> np.ndarray:
    return np.array([np.trace(m @ rho).real for m in effects])


def trace_norm(m) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def nre_quantum(rho, effects) -> float:
    """(1/2) sum_a ||[M^a, rho]||_1."""
    return 0.5 * sum(trace_norm(m @ rho - rho @ m) for m in effects)


def s_entropy(p) -> float:
    p = np.clip(p, 0.0, 1.0)
    return float(np.sqrt(p * (1.0 - p)).sum())


def impurity(rho, flavor: str) -> float:
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    if flavor == "NRe":
        return float(np.sqrt(w * (1.0 - w)).sum())
    return float(np.sqrt(w).sum() - 1.0)


def ncl_bracket(rho, effects) -> list:
    """Certified bracket of each per-effect NCl supremum, as (lower, upper) pairs.

    With K = M^a rho: lower = max over a theta grid of ||Herm(e^{-i theta} K)||_1
    (attained by that Hermitian part's eigenbasis), upper = ||K||_1.
    """
    thetas = np.pi * np.arange(BRACKET_THETAS) / BRACKET_THETAS
    phases = np.exp(-1j * thetas)[:, None, None]
    out = []
    for m in effects:
        k = m @ rho
        herm = 0.5 * (phases * k + (phases * k).conj().transpose(0, 2, 1))
        lower = float(np.abs(np.linalg.eigvalsh(herm)).sum(axis=1).max())
        out.append((lower, trace_norm(k)))
    return out


def close(a, b, tol=TOL) -> bool:
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def check_split(total, quantum, classical) -> list:
    if classical != total - quantum:
        return [f"classical {classical!r} != total - quantum {total - quantum!r}"]
    return []


def weak_value(rho, effect, u, b) -> complex:
    v = u[:, b]
    return complex(v.conj() @ effect @ rho @ v) / float((v.conj() @ rho @ v).real)


def check_witness(inst, report, threshold) -> list:
    problems = []
    nre = nre_quantum(inst.rho, inst.effects)
    if not close(report.nre, nre):
        problems.append(f"nre {report.nre!r} != closed form {nre!r}")
    bracket = ncl_bracket(inst.rho, inst.effects)
    lo = sum(x for x, _ in bracket) - 1.0
    hi = sum(y for _, y in bracket) - 1.0
    if report.ncl < lo - TOL or report.ncl > hi + TOL:
        problems.append(f"ncl {report.ncl!r} outside bracket [{lo!r}, {hi!r}]")
    if not report.flavors_agree:
        problems.append("nonreality and nonclassicality verdicts disagree")
    if inst.commuting and (report.contextual or report.witness_entry is not None):
        problems.append("commuting instance reported contextual")
    if report.contextual != (nre > threshold):
        problems.append(f"verdict {report.contextual} but closed-form nre is {nre!r}")
    entry = report.witness_entry
    if report.contextual and entry is None:
        problems.append("contextual verdict without a witness entry")
    if entry is not None:
        labels = [str(i) for i in range(len(inst.effects))]
        w = weak_value(inst.rho, inst.effects[labels.index(entry.a)], np.asarray(entry.basis.basis_unitary), entry.b)
        if not (abs(w.imag) > threshold or w.real < -threshold):
            problems.append(f"reported witness weak value {w!r} is not strange")
        if abs(w - entry.weak_value) > 1e-8 * max(1.0, abs(w)):
            problems.append(f"reported weak value {entry.weak_value!r} != recomputed {w!r}")
    return problems


def check_kd_table(out, inp) -> list:
    """KD marginals equal the Born probabilities of both measurements."""
    n_a, n_b = out["n_a"], out["n_b"]
    vals = np.array([complex(re, im) for re, im in out["values"]]).reshape(n_a, n_b)
    problems = []
    if not np.allclose(vals.sum(axis=1), born(inp.rho, inp.effects), rtol=0, atol=TOL):
        problems.append("KD row marginals differ from the POVM's Born probabilities")
    basis_probs = np.einsum("ib,ij,jb->b", inp.basis.conj(), inp.rho, inp.basis).real
    if not np.allclose(vals.sum(axis=0), basis_probs, rtol=0, atol=TOL):
        problems.append("KD column marginals differ from the basis Born probabilities")
    if not close(out["nonreality"], np.abs(vals.imag).sum()):
        problems.append("reported nonreality differs from the table's imaginary l1 mass")
    return problems


def check_nre_decomposition(out, inp) -> list:
    p = born(inp.rho, inp.effects)
    problems = check_split(out["total"], out["quantum"], out["classical"])
    if not close(out["total"], s_entropy(p)):
        problems.append(f"total {out['total']!r} != S entropy {s_entropy(p)!r}")
    nre = nre_quantum(inp.rho, inp.effects)
    if not close(out["quantum"], nre):
        problems.append(f"NRe quantum {out['quantum']!r} != (1/2) sum ||[M, rho]||_1 = {nre!r}")
    return problems


def check_infimum(out, inp, flavor) -> list:
    want = impurity(inp.rho, flavor)
    if not close(out["value"], want, 1e-7):
        return [f"{flavor} infimum {out['value']!r} != eigenvalue impurity {want!r}"]
    return []


def check_bounds(out, inp) -> list:
    problems = []
    probs = [np.einsum("ib,ij,jb->b", u.conj(), inp.rho, u).real for u in (inp.basis, inp.basis2)]
    ent = s_entropy(probs[0])
    if not close(out["s_entropy"], ent):
        problems.append(f"s_entropy {out['s_entropy']!r} != {ent!r}")
    if out["asymmetry_bound"] > ent + 1e-6:
        problems.append(f"asymmetry bound {out['asymmetry_bound']!r} exceeds entropy {ent!r}")
    s_sum = ent + s_entropy(probs[1])
    if out["relation_bound"] > s_sum + 1e-6:
        problems.append(f"relation bound {out['relation_bound']!r} exceeds entropy sum {s_sum!r}")
    return problems
