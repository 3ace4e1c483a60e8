"""Freeze the exact output bits of contextuality_witness on a handful of instances.

Run as a script (with src/ on PYTHONPATH) to regenerate
tests/fixtures/witness_bits.json. Like ncl_bits.json this file holds the
package's own output: every report field (verdict, both quantumness values,
flavor agreement, threshold, and the entry's label, column, weak value and
basis bytes) or the WitnessNotFoundError message, so a rewrite of the
witness that claims to change only speed can be checked for identical
output. The cases cover contextual mixed, pure and rank-deficient states
under POVMs and rank-1 PVMs, commuting pairs, and seeded-search instances
at a raised threshold whose canonical unbiased bases (and their lifts) hold
no strange entry, so the scan goes on to the per-effect nonclassicality
bases, to the Haar draws, or runs out. Regenerate it only together with a
deliberate change of the results, and say so in the change log.
"""

import hashlib
import json
import os
import warnings

import numpy as np

import kduncert as kd

# (name, d, state rank, POVM outcomes | "pvm" | "commuting", state seed, POVM seed, config, threshold)
# A "commuting" state is diagonal in the PVM basis with spectrum rank, rank-1, ..., 1 (then zeros).
# The seeds of the *-search-* cases were found by scanning seeds for a scan that passes the
# unbiased bases; the generator asserts where each one ends.
CASES = (
    ("d2-mixed-povm2", 2, 2, 2, 31, 32, {"n_restarts": 2, "seed": 0}, 1e-7),
    ("d3-mixed-povm3", 3, 3, 3, 33, 34, {"n_restarts": 2, "seed": 1}, 1e-7),
    ("d4-mixed-povm2", 4, 4, 2, 35, 36, {"n_restarts": 2, "seed": 2}, 1e-7),
    ("d3-pure-povm2", 3, 1, 2, 37, 38, {"n_restarts": 2, "seed": 3}, 1e-7),
    ("d4-rank2-povm3", 4, 2, 3, 39, 40, {"n_restarts": 2, "seed": 4}, 1e-7),
    ("d2-pure-pvm", 2, 1, "pvm", 41, 42, {"n_restarts": 2, "seed": 5}, 1e-7),
    ("d3-mixed-pvm", 3, 3, "pvm", 43, 44, {"n_restarts": 2, "seed": 6}, 1e-7),
    ("d3-commuting-full", 3, 3, "commuting", None, 45, {"n_restarts": 2, "seed": 7}, 1e-7),
    ("d4-commuting-deficient", 4, 2, "commuting", None, 46, {"n_restarts": 2, "seed": 8}, 1e-7),
    ("d2-search-ncl-basis", 2, 2, 3, 1263, 2263, {"n_restarts": 2, "seed": 0}, 0.05),
    ("d4-search-ncl-basis", 4, 4, 2, 1006, 2006, {"n_restarts": 2, "seed": 0}, 0.05),
    ("d2-search-pvm-ncl-basis", 2, 2, "pvm", 1061, 2061, {"n_restarts": 2, "seed": 0}, 0.05),
    ("d2-search-haar", 2, 2, 2, 1004, 2004, {"n_restarts": 2, "seed": 0}, 0.1),
    ("d2-search-not-found", 2, 2, 3, 1294, 2294, {"n_restarts": 2, "seed": 0}, 0.05),
)

# where the scan of each search case ends: the per-effect NCl bases, a Haar draw, or nowhere
SEARCH_ENDS = {
    "d2-search-ncl-basis": "ncl",
    "d4-search-ncl-basis": "ncl",
    "d2-search-pvm-ncl-basis": "ncl",
    "d2-search-haar": "haar",
    "d2-search-not-found": "none",
}


def build(case):
    """(state, POVM, config, threshold) of one case."""
    _, d, rank, outcomes, state_seed, povm_seed, cfg, threshold = case
    if outcomes == "commuting":
        u = kd.haar_random_unitary(d, seed=povm_seed)
        lam = np.concatenate([np.arange(rank, 0, -1, dtype=float), np.zeros(d - rank)])
        state = kd.validate_density((u * (lam / lam.sum())) @ u.conj().T)
        povm = kd.rank_one_pvm(u).as_povm()
    else:
        state = kd.random_density(d, rank, seed=state_seed)
        if outcomes == "pvm":
            povm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=povm_seed)).as_povm()
        else:
            povm = kd.random_povm(d, outcomes, seed=povm_seed)
    return state, povm, kd.OptimizerConfig(**cfg), threshold


def _basis_sha256(u) -> str:
    return hashlib.sha256(np.ascontiguousarray(u).tobytes()).hexdigest()


def bits(rep) -> dict:
    """Exact fingerprint of a WitnessReport."""
    out = {
        "contextual": rep.contextual,
        "nre": float(rep.nre).hex(),
        "ncl": float(rep.ncl).hex(),
        "flavors_agree": rep.flavors_agree,
        "threshold": float(rep.threshold).hex(),
        "entry": None,
    }
    e = rep.witness_entry
    if e is not None:
        w = complex(e.weak_value)
        out["entry"] = {
            "a": e.a,
            "b": e.b,
            "weak_value": [w.real.hex(), w.imag.hex()],
            "basis_sha256": _basis_sha256(e.basis.basis_unitary),
        }
    return out


def run(case) -> dict:
    """Bits of one case: the report, or the WitnessNotFoundError message."""
    state, povm, cfg, threshold = build(case)
    try:
        with warnings.catch_warnings():
            # at a raised threshold the two flavors may disagree; flavors_agree records it
            warnings.simplefilter("ignore", RuntimeWarning)
            return bits(kd.contextuality_witness(state, povm, cfg, threshold=threshold))
    except kd.WitnessNotFoundError as exc:
        return {"not_found": str(exc)}


def compute() -> dict:
    return {case[0]: run(case) for case in CASES}


def search_end(case, fx) -> str:
    """Which candidate group holds the entry of a case: mub, ncl, haar, none or no verdict."""
    if "not_found" in fx:
        return "none"
    if not fx["contextual"]:
        return "no verdict"
    state, povm, cfg, _ = build(case)
    sha = fx["entry"]["basis_sha256"]
    ncl_bases = kd.quantum_nonclassicality(state, povm).per_effect_bases
    if any(_basis_sha256(b.basis_unitary) == sha for b in ncl_bases):
        return "ncl"
    haar = [kd.core._haar(state.dim, np.random.default_rng([cfg.seed, 4, r])) for r in range(cfg.n_restarts)]
    if any(_basis_sha256(u) == sha for u in haar):
        return "haar"
    return "mub"


def main():
    out = os.path.join(os.path.dirname(__file__), "fixtures", "witness_bits.json")
    fx = compute()
    for case in CASES:
        want = SEARCH_ENDS.get(case[0])
        got = search_end(case, fx[case[0]])
        if want is not None and got != want:
            raise SystemExit(f"refusing to write {out}: {case[0]} ends in {got}, expected {want}")
        print(f"{case[0]}: scan ends in {got}")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(fx, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} ({len(fx)} cases)")


if __name__ == "__main__":
    main()
