"""Freeze the NCl engine's exact output bits on a handful of instances.

Run as a script (with src/ on PYTHONPATH) to regenerate
tests/fixtures/ncl_bits.json. Unlike derived_values.json this file holds
the package's own output: it pins every bit of the ascent, so a rewrite
that claims to change only speed can be checked for identical decisions.
Regenerate it only together with a deliberate change of the ascent's
results, and say so in the change log.
"""

import hashlib
import json
import os

import numpy as np

import kduncert as kd

# (name, d, state rank, POVM outcomes or "pvm", state seed, POVM seed, config)
CASES = (
    ("d2-mixed-povm2", 2, 2, 2, 11, 12, {"n_restarts": 3, "seed": 0}),
    ("d3-mixed-povm3", 3, 3, 3, 13, 14, {"n_restarts": 2, "seed": 1}),
    ("d4-mixed-povm2", 4, 4, 2, 15, 16, {"n_restarts": 2, "seed": 2}),
    ("d3-pure-povm2", 3, 1, 2, 17, 18, {"n_restarts": 2, "seed": 3}),
    ("d3-rank2-pvm", 3, 2, "pvm", 19, 20, {"n_restarts": 2, "seed": 4}),
    ("d3-mixed-povm2-unstructured", 3, 3, 2, 21, 22,
     {"n_restarts": 4, "seed": 5, "include_structured_starts": False}),
)
# the variational nonreality path runs the same ascent on K = [M, rho] / 2i
VARIATIONAL_CASE = ("d3-mixed-povm2-nre-variational", 3, 3, 2, 23, 24, {"n_restarts": 2, "seed": 6})


def build(case):
    """(state, POVM, config) of one case."""
    _, d, rank, outcomes, state_seed, povm_seed, cfg = case
    state = kd.random_density(d, rank, seed=state_seed)
    if outcomes == "pvm":
        povm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=povm_seed)).as_povm()
    else:
        povm = kd.random_povm(d, outcomes, seed=povm_seed)
    return state, povm, kd.OptimizerConfig(**cfg)


def bits(res) -> dict:
    """Exact fingerprint of a per-effect SupremumResult."""
    digest = hashlib.sha256()
    for b in res.per_effect_bases:
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
        state, povm, cfg = build(case)
        out[case[0]] = bits(kd.quantum_nonclassicality(state, povm, cfg))
    state, povm, cfg = build(VARIATIONAL_CASE)
    out[VARIATIONAL_CASE[0]] = bits(kd.quantum_nonreality_variational(state, povm, cfg))
    return out


def main():
    out = os.path.join(os.path.dirname(__file__), "fixtures", "ncl_bits.json")
    fx = compute()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(fx, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} ({len(fx)} cases)")


if __name__ == "__main__":
    main()
