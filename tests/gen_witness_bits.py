"""Freeze the exact output bits of contextuality_witness on a handful of instances.

Run as a script (with src/ on PYTHONPATH) to regenerate
tests/fixtures/witness_bits.json. Like ncl_bits.json this file holds the
package's own output: every report field (verdict, both quantumness values,
flavor agreement, threshold, and the entry's label, column, weak value and
basis bytes) or the WitnessNotFoundError message, so a rewrite of the
witness that claims to change only speed can be checked for identical
output. The cases cover contextual mixed, pure and rank-deficient states
under POVMs and rank-1 PVMs, commuting pairs, and search instances at a
raised threshold whose Fourier basis holds no strange entry, so the scan
goes on to the eigenbases of the positive margins, or no margin is
positive and the witness raises. Regenerate it only together with a
deliberate change of the results, and say so in the change log. The
script refuses to write when a case whose entry sits in the Fourier basis
(end "mub"), or a case with no verdict, changes its bits against the
committed file.

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
from kduncert import witness
from kduncert.core import _fourier

# (name, d, state rank, POVM outcomes | "pvm" | "commuting", state seed, POVM seed, threshold)
# A "commuting" state is diagonal in the PVM basis with spectrum rank, rank-1, ..., 1 (then zeros).
# The seeds of the *-search-* cases were found by scanning seeds for a scan that passes the
# Fourier basis; the generator asserts where each one ends.
CASES = (
    ("d2-mixed-povm2", 2, 2, 2, 31, 32, 1e-7),
    ("d3-mixed-povm3", 3, 3, 3, 33, 34, 1e-7),
    ("d4-mixed-povm2", 4, 4, 2, 35, 36, 1e-7),
    ("d3-pure-povm2", 3, 1, 2, 37, 38, 1e-7),
    ("d4-rank2-povm3", 4, 2, 3, 39, 40, 1e-7),
    ("d2-pure-pvm", 2, 1, "pvm", 41, 42, 1e-7),
    ("d3-mixed-pvm", 3, 3, "pvm", 43, 44, 1e-7),
    ("d3-commuting-full", 3, 3, "commuting", None, 45, 1e-7),
    ("d4-commuting-deficient", 4, 2, "commuting", None, 46, 1e-7),
    ("d2-search-margin-povm3", 2, 2, 3, 1263, 2263, 0.05),
    ("d4-search-margin-povm2", 4, 4, 2, 1006, 2006, 0.05),
    ("d2-search-margin-pvm", 2, 2, "pvm", 1061, 2061, 0.05),
    ("d2-search-margin-povm2", 2, 2, 2, 1004, 2004, 0.1),
    ("d2-search-not-found", 2, 2, 3, 1294, 2294, 0.05),
)

# where the scan of each search case ends: the eigenbasis of a positive margin, or nowhere
SEARCH_ENDS = {
    "d2-search-margin-povm3": "margin",
    "d4-search-margin-povm2": "margin",
    "d2-search-margin-pvm": "margin",
    "d2-search-margin-povm2": "margin",
    "d2-search-not-found": "none",
}

# cases whose bits no deliberate change of the search may move
_PINNED_ENDS = ("mub", "no verdict")


def build(case):
    """(state, POVM, threshold) of one case."""
    _, d, rank, outcomes, state_seed, povm_seed, threshold = case
    if outcomes == "commuting":
        u = kd.haar_random_unitary(d, seed=povm_seed)
        lam = np.concatenate([np.arange(rank, 0, -1, dtype=float), np.zeros(d - rank)])
        state = kd.validate_density((u * (lam / lam.sum())) @ u.conj().T)
        povm = kd.rank_one_pvm(u)
    else:
        state = kd.random_density(d, rank, seed=state_seed)
        if outcomes == "pvm":
            povm = kd.rank_one_pvm(kd.haar_random_unitary(d, seed=povm_seed))
        else:
            povm = kd.random_povm(d, outcomes, seed=povm_seed)
    return state, povm, threshold


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
    state, povm, threshold = build(case)
    try:
        return bits(kd.contextuality_witness(state, povm, threshold=threshold))
    except kd.WitnessNotFoundError as exc:
        return {"not_found": str(exc)}


def compute() -> dict:
    return {case[0]: run(case) for case in CASES}


def search_end(case, fx) -> str:
    """Which candidate group holds the entry of a case: mub (the Fourier basis), margin, none or no verdict."""
    if "not_found" in fx:
        return "none"
    if not fx["contextual"]:
        return "no verdict"
    state, povm, threshold = build(case)
    sha = fx["entry"]["basis_sha256"]
    if _basis_sha256(_fourier(state.dim)) == sha:
        return "mub"
    if any(_basis_sha256(u) == sha for u in np.linalg.eigh(witness._margins(state, povm, threshold))[1]):
        return "margin"
    return "unknown"


def main():
    out = os.path.join(os.path.dirname(__file__), "fixtures", "witness_bits.json")
    committed = {}
    if os.path.exists(out):
        with open(out, "r", encoding="utf-8") as fh:
            committed = json.load(fh)
    fx = compute()
    for case in CASES:
        name = case[0]
        got = search_end(case, fx[name])
        want = SEARCH_ENDS.get(name)
        if want is not None and got != want:
            raise SystemExit(f"refusing to write {out}: {name} ends in {got}, expected {want}")
        if got in _PINNED_ENDS and name in committed and fx[name] != committed[name]:
            raise SystemExit(f"refusing to write {out}: {name} ends in {got} but its bits changed")
        print(f"{name}: scan ends in {got}")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(fx, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} ({len(fx)} cases)")


if __name__ == "__main__":
    main()
