"""JSON wire formats for every public object.

Complex numbers are always [re, im] pairs. dumps is json.dumps, so every
float is written as its repr, the shortest string that reads back to the
same double: 1.0 as `1.0`, -0.0 as `-0.0` and 0.1 as `0.1`. json.loads
reads each back with its value, its type and its sign, and identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .core import DensityMatrix, Povm, RankOnePvm, rank_one_pvm, validate_density, validate_povm
from .errors import ValidationError
from .kdtable import KdTable
from .optimize import SupremumResult
from .uncertainty import Decomposition, Flavor
from .witness import WitnessReport


def _number(x):
    """json.dumps's hook for what it cannot write: a numpy integer or floating scalar as its Python number."""
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    raise ValidationError(f"cannot serialize {type(x).__name__}")


def dumps(obj) -> str:
    """json.dumps with insertion-ordered keys and shortest round-trip floats; a non-finite float is a ValidationError."""
    try:
        return json.dumps(obj, allow_nan=False, default=_number)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:  # a key that is not a str or a number, or a non-finite float
        raise ValidationError(f"cannot serialize: {exc}") from exc


def _require(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"{where}: missing field '{key}'")
    val = obj[key]
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise ValidationError(f"{where}: field '{key}' must be an integer")
        return val
    if not isinstance(val, kind):
        raise ValidationError(f"{where}: field '{key}' must be a {kind.__name__}")
    return val


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=complex)
    return {
        "d": int(a.shape[0]),
        "re_im": [[float(x.real), float(x.imag)] for x in a.reshape(-1)],
    }


def matrix_from_json(obj, where="matrix") -> np.ndarray:
    d = _require(obj, "d", int, where)
    entries = _require(obj, "re_im", list, where)
    if d < 1 or len(entries) != d * d:
        try:
            want = str(d * d)
        except ValueError:  # d * d has more digits than int-to-str conversion allows
            want = f"d * d (d has {len(str(d))} digits)"
        raise ValidationError(f"{where}: 're_im' must hold {want} entries, got {len(entries)}")
    flat = []
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise ValidationError(f"{where}: 're_im' entry {i} must be a [re, im] pair")
        try:
            flat.append(complex(pair[0], pair[1]))
        except OverflowError as exc:  # an integer beyond float range
            raise ValidationError(f"{where}: 're_im' entry {i} is out of float range") from exc
    return np.array(flat, dtype=complex).reshape(d, d)


def density_from_json(obj) -> DensityMatrix:
    return validate_density(matrix_from_json(obj, where="state"))


def povm_to_json(povm: Povm) -> dict:
    return {
        "d": povm.dim,
        "effects": [matrix_to_json(e) for e in povm.stack],
        "labels": list(povm.labels),
    }


def povm_from_json(obj) -> Povm:
    d = _require(obj, "d", int, "povm")
    effects_json = _require(obj, "effects", list, "povm")
    effects = [matrix_from_json(e, where=f"povm effect {i}") for i, e in enumerate(effects_json)]
    for i, e in enumerate(effects):
        if e.shape[0] != d:
            raise ValidationError(f"povm effect {i}: dim {e.shape[0]} != declared d {d}")
    labels = obj.get("labels")
    if labels is not None and (
        not isinstance(labels, list)
        or not all(isinstance(x, (str, int)) and not isinstance(x, bool) for x in labels)
    ):
        raise ValidationError("povm: field 'labels' must be a list of strings or integers")
    return validate_povm(effects, labels)


def pvm_from_json(obj) -> RankOnePvm:
    return rank_one_pvm(matrix_from_json(obj, where="basis"))


def kdtable_to_json(t: KdTable) -> dict:
    return {
        "n_a": t.n_a,
        "n_b": t.n_b,
        "values": [[float(x.real), float(x.imag)] for x in t.values.reshape(-1)],
    }


def supremum_to_json(result: SupremumResult) -> dict:
    """The NCl diagnostics of decompose: the value, its attaining basis and each effect's value."""
    return {
        "value": result.value,
        "best_basis": matrix_to_json(result.best_basis.basis_unitary),
        "per_effect_values": list(result.per_effect_values),
    }


def decomposition_to_json(dec: Decomposition) -> dict:
    out = {
        "flavor": dec.flavor.value,
        "total": dec.total,
        "quantum": dec.quantum,
        "classical": dec.classical,
        "probs": list(dec.probs),
    }
    if dec.diagnostics is not None:
        out["diagnostics"] = supremum_to_json(dec.diagnostics)
    return out


def flavor_from_name(name: str) -> Flavor:
    for fl in Flavor:
        if fl.value.lower() == str(name).lower():
            return fl
    raise ValidationError(f"flavor must be 'NRe' or 'NCl', got {name!r}")


def witness_report_to_json(report: WitnessReport) -> dict:
    entry = None
    if report.witness_entry is not None:
        w = report.witness_entry
        entry = {
            "a": w.a,
            "b": w.b,
            "weak_value": [float(w.weak_value.real), float(w.weak_value.imag)],
            "basis": matrix_to_json(w.basis.basis_unitary),
        }
    return {
        "contextual": report.contextual,
        "nre": report.nre,
        "ncl": report.ncl,
        "witness": entry,
        "flavors_agree": report.flavors_agree,
        "threshold": report.threshold,
    }


def load_measurement(obj):
    """Dispatch a measurement JSON object: POVM if it has effects, else a basis unitary."""
    if isinstance(obj, dict) and "effects" in obj:
        return povm_from_json(obj)
    if isinstance(obj, dict) and "re_im" in obj:
        return pvm_from_json(obj)
    raise ValidationError("measurement: expected an object with 'effects' or 're_im'")
