"""Freeze the exact output bits of the package on a handful of instances.

Run as a script to regenerate both bit fixtures:

    PYTHONPATH=src python tests/gen_bits.py

Unlike derived_values.json (tests/gen_fixtures.py, from the oracles) these
files hold the package's own output, so a change that claims to move only
speed can be checked for identical output. ncl_bits.json pins the
closed-form |diag| suprema: values, per-effect trace norms and the bytes of
every effect's attaining basis. witness_bits.json pins every field of the
contextuality witness report (verdict, both quantumness values, flavor
agreement, threshold, the entry's label, column, weak value and basis
bytes) or the WitnessNotFoundError message, on contextual, commuting and
search instances whose scan ends in the Fourier basis, in a positive
margin's eigenbasis, or nowhere.

Each file is {"config": ..., "cases": ...}. The bits hold for one numpy
build and one BLAS core, and config records both: numpy's version and the
core its bundled OpenBLAS runs (scipy_openblas_get_corename64_; null when
the library is not found). OpenBLAS picks the core from the CPU, and
OPENBLAS_CORETYPE overrides it. Under another core values move by at most
1.8e-15 and basis bytes change, so the bit tests fail and name both configs.

The script writes both files or neither. It refuses when a committed
file's config differs from the running one, when an NCl per-effect value
falls by more than DROP_TOL (suprema can only rise under a correct change),
when a search case does not end where SEARCH_ENDS says, or when a witness
case whose committed entry sits in the Fourier basis, or that has no
verdict, moves a bit. A file with no config counts as new. Regenerate only
with a deliberate change of the results, said in the change log; to freeze
on another machine, delete both files and run the script there.
"""

import ctypes
import glob
import hashlib
import json
import os

import numpy as np

import kduncert as kd
from kduncert import witness
from kduncert.core import _fourier

DROP_TOL = 1e-15

# (name, d, state rank, POVM outcomes | "pvm" | "commuting", state seed, POVM seed, witness threshold)
# A "commuting" state is diagonal in the PVM basis with spectrum rank, rank-1, ..., 1 (then zeros).
NCL_CASES = (
    ("d2-mixed-povm2", 2, 2, 2, 11, 12, None),
    ("d3-mixed-povm3", 3, 3, 3, 13, 14, None),
    ("d4-mixed-povm2", 4, 4, 2, 15, 16, None),
    ("d3-pure-povm2", 3, 1, 2, 17, 18, None),
    ("d3-rank2-pvm", 3, 2, "pvm", 19, 20, None),
    ("d3-mixed-povm2-unstructured", 3, 3, 2, 21, 22, None),
    ("d3-mixed-povm2-nre-variational", 3, 3, 2, 23, 24, None),
)
# the NCl case that takes the same supremum of K = [M, rho] / 2i, one sup_over_pvm call per effect
VARIATIONAL_CASE = "d3-mixed-povm2-nre-variational"

# The seeds of the *-search-* cases were found by scanning seeds for a scan that passes the
# Fourier basis; SEARCH_ENDS says where each one ends.
WITNESS_CASES = (
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
PINNED_ENDS = ("mub", "no verdict")


def machine() -> dict:
    """The config the bits hold for: numpy's version and the core its bundled OpenBLAS runs."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas64_*.so")
    core = None
    for lib in glob.glob(libs)[:1]:  # numpy wheels bundle one; other builds record null
        corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return {"numpy": np.__version__, "openblas_core": core}


def build(case):
    """(state, POVM, threshold) of one case of either table."""
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


def _sha256(*bases) -> str:
    """Hash of the bytes of the basis unitaries, in order."""
    digest = hashlib.sha256()
    for u in bases:
        digest.update(np.ascontiguousarray(u).tobytes())
    return digest.hexdigest()


def ncl_bits(case) -> dict:
    """Value, per-effect values and the per-effect attaining bases of one NCl case."""
    state, povm, _ = build(case)
    m = state.matrix
    if case[0] == VARIATIONAL_CASE:
        per_effect = [kd.sup_over_pvm((e @ m - m @ e) / 2j) for e in povm.stack]
        value, values = sum(r.value for r in per_effect), [r.value for r in per_effect]
    else:
        per_effect = [kd.sup_over_pvm(e @ m) for e in povm.stack]
        res = kd.quantum_nonclassicality(state, povm)
        value, values = res.value, res.per_effect_values
    return {
        "value": float(value).hex(),
        "per_effect_values": [float(v).hex() for v in values],
        "per_effect_bases_sha256": _sha256(*(r.best_basis.basis_unitary for r in per_effect)),
    }


def report_bits(rep) -> dict:
    """Exact fingerprint of a WitnessReport."""
    e, entry = rep.witness_entry, None
    if e is not None:
        w = complex(e.weak_value)
        entry = {"a": e.a, "b": e.b, "weak_value": [w.real.hex(), w.imag.hex()], "basis_sha256": _sha256(e.basis.basis_unitary)}
    return {
        "contextual": rep.contextual,
        "nre": float(rep.nre).hex(),
        "ncl": float(rep.ncl).hex(),
        "flavors_agree": rep.flavors_agree,
        "threshold": float(rep.threshold).hex(),
        "entry": entry,
    }


def witness_bits(case) -> dict:
    """Bits of one witness case: the report, or the WitnessNotFoundError message."""
    state, povm, threshold = build(case)
    try:
        return report_bits(kd.contextuality_witness(state, povm, threshold=threshold))
    except kd.WitnessNotFoundError as exc:
        return {"not_found": str(exc)}


# fixture name -> (cases, bits of one case)
TABLES = {"ncl": (NCL_CASES, ncl_bits), "witness": (WITNESS_CASES, witness_bits)}
PATHS = {name: os.path.join(os.path.dirname(__file__), "fixtures", f"{name}_bits.json") for name in TABLES}


def compute(name) -> dict:
    cases, bits = TABLES[name]
    return {case[0]: bits(case) for case in cases}


def search_end(case, fx) -> str:
    """Which candidate group holds the entry of a witness case: mub (the Fourier basis), margin, none or no verdict."""
    if "not_found" in fx:
        return "none"
    if not fx["contextual"]:
        return "no verdict"
    state, povm, threshold = build(case)
    sha = fx["entry"]["basis_sha256"]
    if _sha256(_fourier(state.dim)) == sha:
        return "mub"
    if any(_sha256(u) == sha for u in np.linalg.eigh(witness._margins(state, povm, threshold))[1]):
        return "margin"
    return "unknown"


def refusals(name, old, new) -> list:
    """Why the fixture file new may not replace the committed old ({} if none): one line per broken rule."""
    if "config" not in old:
        old = {"config": new["config"], "cases": {}}
    out = []
    if old["config"] != new["config"]:
        out.append(f"{name}: committed under {old['config']}, running under {new['config']}")
    cases = {case[0]: case for case in TABLES[name][0]}
    for key, fx in new["cases"].items():
        prev = old["cases"].get(key)
        if name == "ncl":
            if prev is not None:
                was, now = prev["per_effect_values"], fx["per_effect_values"]
                drops = [float.fromhex(o) - float.fromhex(n) for o, n in zip(was, now)]
                if len(was) != len(now) or max(drops) > DROP_TOL:
                    out.append(f"ncl {key}: a per-effect value fell by more than {DROP_TOL:g}")
            continue
        got, want = search_end(cases[key], fx), SEARCH_ENDS.get(key)
        if want is not None and got != want:
            out.append(f"witness {key}: ends in {got}, expected {want}")
        was = search_end(cases[key], prev) if prev is not None and prev != fx else None
        if was in PINNED_ENDS:
            out.append(f"witness {key}: ends in {was} but its bits changed")
    return out


def load(name) -> dict:
    """The committed fixture file, or {} if there is none."""
    if not os.path.exists(PATHS[name]):
        return {}
    with open(PATHS[name], "r", encoding="utf-8") as fh:
        return json.load(fh)


def main():
    config = machine()
    new = {name: {"config": config, "cases": compute(name)} for name in TABLES}
    refused = [line for name, fx in new.items() for line in refusals(name, load(name), fx)]
    if refused:
        raise SystemExit("refusing to write the bit fixtures:\n" + "\n".join(refused))
    for name, fx in new.items():
        old = load(name).get("cases", {})
        changed = sorted(key for key in fx["cases"] if old.get(key) != fx["cases"][key])
        with open(PATHS[name], "w", encoding="utf-8") as fh:
            json.dump(fx, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {PATHS[name]} ({len(fx['cases'])} cases under {config}; changed: {changed or 'none'})")


if __name__ == "__main__":
    main()
