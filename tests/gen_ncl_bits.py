"""Freeze the exact output bits of the closed-form |diag| suprema on a handful of instances.

Run as a script (with src/ on PYTHONPATH) to regenerate
tests/fixtures/ncl_bits.json. Unlike derived_values.json this file holds
the package's own output: it pins every bit of the closed form (trace-norm
values and attaining bases), so a rewrite that claims to change only speed
can be checked for identical output. Before writing, the script prints each
case's old and new value and its largest per-effect increase, and it
refuses to write if any per-effect value falls by more than DROP_TOL: the
values are suprema, so a correct change can only raise them. Regenerate it
only together with a deliberate change of the results, and say so in the
change log.

The bits hold for one numpy build and one BLAS kernel: the committed file
was written with numpy 2.4.6 and its bundled OpenBLAS on the SkylakeX
kernel. numpy.show_config() names the BLAS build; OpenBLAS picks the kernel
from the CPU, and the environment variable OPENBLAS_CORETYPE overrides it.
Under another kernel every value moves by at most 1.8e-15 and the basis
bytes change, so the bit test fails there; do not regenerate the file to
make it pass.
"""

import hashlib
import json
import os

import numpy as np

import kduncert as kd

DROP_TOL = 1e-15

# (name, d, state rank, POVM outcomes or "pvm", state seed, POVM seed)
CASES = (
    ("d2-mixed-povm2", 2, 2, 2, 11, 12),
    ("d3-mixed-povm3", 3, 3, 3, 13, 14),
    ("d4-mixed-povm2", 4, 4, 2, 15, 16),
    ("d3-pure-povm2", 3, 1, 2, 17, 18),
    ("d3-rank2-pvm", 3, 2, "pvm", 19, 20),
    ("d3-mixed-povm2-unstructured", 3, 3, 2, 21, 22),
)
# the same supremum taken of K = [M, rho] / 2i, one sup_over_pvm call per effect
VARIATIONAL_CASE = ("d3-mixed-povm2-nre-variational", 3, 3, 2, 23, 24)


def build(case):
    """(state, POVM) of one case."""
    _, d, rank, outcomes, state_seed, povm_seed = case
    state = kd.random_density(d, rank, seed=state_seed)
    if outcomes == "pvm":
        povm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=povm_seed))
    else:
        povm = kd.random_povm(d, outcomes, seed=povm_seed)
    return state, povm


def variational_nonreality(state, povm):
    """Per-effect sup_over_pvm of K = [M, rho] / 2i, summed in effect order; (SupremumResult, per-effect bases)."""
    m = state.matrix
    per_effect = [kd.sup_over_pvm((e @ m - m @ e) / 2j) for e in povm.stack]
    values = tuple(r.value for r in per_effect)
    res = kd.SupremumResult(sum(values), per_effect[int(np.argmax(values))].best_basis, values)
    return res, [r.best_basis for r in per_effect]


def nonclassicality(state, povm):
    """(quantum_nonclassicality, each effect's attaining basis from sup_over_pvm(M^a rho))."""
    bases = [kd.sup_over_pvm(e @ state.matrix).best_basis for e in povm.stack]
    return kd.quantum_nonclassicality(state, povm), bases


def bits(res, bases) -> dict:
    """Exact fingerprint of a per-effect SupremumResult and its per-effect attaining bases."""
    digest = hashlib.sha256()
    for b in bases:
        digest.update(np.ascontiguousarray(b.basis_unitary).tobytes())
    return {
        "value": float(res.value).hex(),
        "per_restart_values": [float(v).hex() for v in res.per_restart_values],
        "per_effect_values": [float(v).hex() for v in res.per_effect_values],
        "iterations_used": res.iterations_used,
        "converged": res.converged,
        "per_effect_bases_sha256": digest.hexdigest(),
    }


def compute() -> dict:
    out = {}
    for case in CASES:
        out[case[0]] = bits(*nonclassicality(*build(case)))
    out[VARIATIONAL_CASE[0]] = bits(*variational_nonreality(*build(VARIATIONAL_CASE)))
    return out


def compare(old: dict, new: dict) -> list:
    """Print old/new value and largest per-effect increase per case; return the cases that drop."""
    dropped = []
    for name, fx in new.items():
        prev = old.get(name)
        if prev is None:
            print(f"{name}: new case, value {float.fromhex(fx['value'])!r}")
            continue
        deltas = [
            float.fromhex(n) - float.fromhex(o)
            for o, n in zip(prev["per_effect_values"], fx["per_effect_values"])
        ]
        print(
            f"{name}: value {float.fromhex(prev['value'])!r} -> {float.fromhex(fx['value'])!r}, "
            f"largest per-effect increase {max(deltas):.3e}"
        )
        if len(deltas) != len(fx["per_effect_values"]) or min(deltas) < -DROP_TOL:
            dropped.append(name)
    return dropped


def main():
    out = os.path.join(os.path.dirname(__file__), "fixtures", "ncl_bits.json")
    old = {}
    if os.path.exists(out):
        with open(out, "r", encoding="utf-8") as fh:
            old = json.load(fh)
    fx = compute()
    dropped = compare(old, fx)
    if dropped:
        raise SystemExit(f"refusing to write {out}: a per-effect value fell by more than {DROP_TOL:g} in {dropped}")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(fx, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} ({len(fx)} cases)")


if __name__ == "__main__":
    main()
