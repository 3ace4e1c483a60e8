"""Digest every CLI subcommand over a fixed set of argvs, one line per argv.

Run as a script:

    PYTHONPATH=src python tests/cli_sweep.py > sweep.txt

It writes seeded inputs (states, POVMs, bases, invalid POVM files,
entries at the edge of float range and malformed JSON) to a temporary directory with plain numpy, so the inputs do
not depend on the package under test, then runs each argv in-process through
kduncert.cli.main. For each argv it prints the argv, with the temporary
directory written as <tmp>, and the sha256 of the exit code, stdout and
stderr. An exception that escapes main is recorded as the exit code
"traceback:<type>" and the sweep goes on. Warnings are shown as
"Category: message", without the file:line prefix, and every warning is
shown, not only the first per location.
Running it on two trees and diffing the outputs shows which argvs changed.
Not collected by pytest; test_cli.py runs the same argvs through _run and
checks that none ends in a traceback or a warning line.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

import numpy as np

from kduncert.cli import main

DIMS = (1, 2, 3, 4, 8)


def _matrix(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"d": m.shape[0], "re_im": [[float(x.real), float(x.imag)] for x in m.reshape(-1)]}


def _povm(effects, labels=None, d=None) -> dict:
    obj = {"d": d if d is not None else len(effects[0]), "effects": [_matrix(e) for e in effects]}
    if labels is not None:
        obj["labels"] = labels
    return obj


def _ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _state(rng, d, rank):
    g = _ginibre(rng, d, rank)
    m = g @ g.conj().T
    return m / np.trace(m).real


def _unitary(rng, d):
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _effects(rng, d, n):
    draws = [g @ g.conj().T for g in (_ginibre(rng, d, d) for _ in range(n))]
    w, v = np.linalg.eigh(sum(draws))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [inv_sqrt @ a @ inv_sqrt for a in draws]


def _projectors(u):
    return [np.outer(u[:, b], u[:, b].conj()) for b in range(u.shape[1])]


def _inputs(tmp) -> dict:
    """Write every input file; return their paths by name."""
    paths = {}

    def write(name, obj, text=None):
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text is not None else json.dumps(obj) + "\n")
        paths[name] = path

    rng = np.random.default_rng(20240)
    for d in DIMS:
        write(f"pure{d}", _matrix(_state(rng, d, 1)))
        write(f"full{d}", _matrix(_state(rng, d, d)))
        write(f"mixed{d}", _matrix(np.eye(d) / d))
        write(f"povm{d}", _povm(_effects(rng, d, 3)))
        u, v = _unitary(rng, d), _unitary(rng, d)
        write(f"basis{d}", _matrix(u))
        write(f"basis2_{d}", _matrix(v))
        write(f"pvm{d}", _povm(_projectors(u), labels=[f"e{b}" for b in range(d)]))
        write(f"eye{d}", _matrix(np.eye(d)))

    half = np.eye(2) / 2
    write("bad_empty", {"d": 2, "effects": []})
    write("bad_nonherm", _povm([np.array([[0.5, 0.1], [0.0, 0.5]]), half]))
    write("bad_nonpsd", _povm([np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])]))
    write("bad_incomplete", _povm([half, half / 2]))
    write("bad_effect_dim", _povm([half, np.eye(3) / 2]))
    write("bad_declared_d", _povm([half, half], d=3))
    write("bad_labels_type", _povm([half, half], labels="01"))
    write("bad_labels_count", _povm([half, half], labels=["a"]))
    write("bad_labels_repeat", _povm([half, half], labels=["x", "x"]))
    write("bad_labels_str_int", _povm([half, half], labels=[1, "1"]))
    write("bad_entries", {"d": 2, "effects": [{"d": 2, "re_im": [[0.5, 0.0]]}]})
    write("bad_no_effects", {"d": 2, "labels": ["a"]})
    write("bad_malformed", None, text="{nope")
    write("bad_state_trace", _matrix(np.diag([0.5, 0.6])))
    write("bad_state_nonpsd", _matrix(np.diag([1.5, -0.5])))
    # entries whose validation arithmetic overflows, or whose eigenvalues do not converge
    write("edge_basis_overflow", _matrix(1e200 * np.eye(2)))
    write("edge_effect_overflow", _povm([np.diag([1e308, 0.5]), half]))
    write("edge_effect_diverging", _povm([np.array([[1e308, 1e308, 0], [1e308, 0, 0], [0, 0, 0]]), np.eye(3)]))
    write("edge_state_diverging", _matrix([[1 / 3, 1e308, 0], [1e308, 1 / 3, 0], [0, 0, 1 / 3]]))
    write("edge_state_overflow", _matrix([[0.5, 1e308], [1e308, 0.5]]))
    write("edge_povm_overflow", _povm([np.array([[0.5, off], [off, 0.5]]) for off in (1e308, -1e308)]))
    big = complex(np.finfo(float).max, np.finfo(float).max)  # its modulus overflows
    write("edge_state_nan", _matrix([[0.5, big], [np.conj(big), 0.5]]))
    write("edge_povm_nan", _povm([np.array([[0.5, z], [np.conj(z), 0.5]]) for z in (big, -big)]))
    # U^dag U of this basis overflows to inf - inf, so its deviation from I is NaN
    write("edge_basis_nan", _matrix([[-1.79e308j, 1 + 1.79e308j], [1e308 + 1.79e308j, -1.79e308 + 1.79e308j]]))
    # files that the decoder, the JSON parser or the float conversion refuses
    with open(os.path.join(tmp, "malformed_not_utf8"), "wb") as fh:
        fh.write(b"\xff\xfe{}\n")
    paths["malformed_not_utf8"] = fh.name
    write("malformed_long_int", None, text='{"d": 1, "re_im": [[' + "1" * 4301 + ", 0]]}\n")
    write("malformed_deep", None, text="[" * 100000 + "]" * 100000 + "\n")
    write("malformed_overflow", None, text='{"d": 1, "re_im": [[1' + "0" * 400 + ", 0]]}\n")
    write("malformed_long_d", None, text='{"d": 1' + "0" * 2200 + ', "re_im": [[1, 0]]}\n')
    # a weakly coherent state: nre ~ 2e-7 is above the witness's roundoff scale, ncl ~ 2e-14 below it
    write("weak_state", _matrix([[0.6, 1e-7], [1e-7, 0.4]]))
    write("weak_zpvm", _povm(_projectors(np.eye(2))))
    # inside validation's slack, eps = 0.9e-10: a Born probability below 0, probabilities summing above 1,
    # and projectors whose eigenvectors are orthonormal within 1e-8 but not within 1e-10
    eps = 0.9e-10
    write("slack_state", _matrix(np.diag([1 + eps, -eps])))
    write("slack_povm", _povm([np.diag([-eps, 1.0]), np.diag([1 + eps, 0.0])]))
    write("slack_plus", _matrix(np.full((2, 2), 0.5)))
    write("slack_sum_povm", _povm([np.diag([1.0, 0.0]) + 0.9e-9 * np.ones((2, 2)), np.diag([0.0, 1.0])]))
    rng = np.random.default_rng(2)
    write("slack_pvm3", _povm(_projectors(_unitary(rng, 3) + 1e-10 * _ginibre(rng, 3, 3))))
    # fields of the wrong JSON type
    entries = _matrix(np.eye(2) / 2)["re_im"]
    write("typed_d_str", {"d": "2", "re_im": entries})
    write("typed_d_bool", {"d": True, "re_im": entries})
    write("typed_re_im_dict", {"d": 2, "re_im": {}})
    write("typed_effects_dict", {"d": 2, "effects": {}})
    # |0> under the Fourier PVM: the Fourier basis holds no strange entry, so the witness scans the margins
    for d in (2, 3, 4):
        m = np.arange(d)
        write(f"zero{d}", _matrix(np.diag(np.eye(d)[0])))
        write(f"fourier{d}", _matrix(np.exp(2j * np.pi * np.outer(m, m) / d) / np.sqrt(d)))
    return paths


def _argvs(p) -> list:
    argvs = []
    for d in DIMS:
        for kind in ("pure", "full"):
            st = p[f"{kind}{d}"]
            povm, pvm, basis, basis2 = p[f"povm{d}"], p[f"pvm{d}"], p[f"basis{d}"], p[f"basis2_{d}"]
            argvs += [
                ["kd-table", st, povm, basis],
                ["kd-table", st, basis, povm],
                ["kd-table", st, povm, povm],
                ["kd-table", st, pvm, basis2],
            ]
            for flavor in ("NRe", "NCl"):
                argvs += [
                    ["decompose", st, povm, "--flavor", flavor],
                    ["decompose", st, basis, "--flavor", flavor],
                    ["decompose", st, pvm, "--flavor", flavor],
                    ["infimum", st, "--flavor", flavor],
                ]
            for meas in (povm, basis, pvm):
                argvs += [["witness", st, meas]] + [
                    ["witness", st, meas, "--threshold", t] for t in ("0", "0.3")
                ]
            argvs += [
                ["bounds", st, basis],
                ["bounds", st, pvm, basis2],
                ["bounds", st, povm],
            ]
        mixed = p[f"mixed{d}"]
        argvs += [
            ["decompose", mixed, p[f"povm{d}"]],
            ["witness", mixed, p[f"povm{d}"]],
            ["infimum", mixed],
            ["bounds", mixed, p[f"eye{d}"], p[f"basis{d}"]],
        ]
        for seed in ("0", "1"):
            argvs += [
                ["random", "state", "--d", str(d), "--seed", seed],
                ["random", "state", "--d", str(d), "--rank", "1", "--seed", seed],
                ["random", "povm", "--d", str(d), "--outcomes", "3", "--seed", seed],
                ["random", "pvm", "--d", str(d), "--seed", seed],
            ]
    # input errors: every invalid POVM file through kd-table and witness, then the bad states
    for name in sorted(n for n in p if n.startswith("bad_") and not n.startswith("bad_state")):
        argvs += [["kd-table", p["full2"], p[name], p["basis2"]], ["witness", p["full2"], p[name]]]
    argvs += [
        ["decompose", p["bad_state_trace"], p["povm2"]],
        ["decompose", p["bad_state_nonpsd"], p["povm2"]],
        ["decompose", p["full2"], p["povm2"], "--flavor", "XYZ"],
        ["kd-table", p["full2"], p["povm3"], p["basis2"]],
        ["witness", p["full2"], p["povm2"], "--threshold", "nan"],
        ["witness", p["full2"], p["povm2"], "--threshold", "-1"],
        ["decompose", p["full2"], p["povm2"], "--seed", "1"],
        ["decompose", os.path.join(os.path.dirname(p["full2"]), "missing"), p["povm2"]],
        ["random", "state", "--d", "0"],
        ["random", "state", "--d", "3", "--rank", "4"],
        ["random", "pvm", "--d", "2", "--seed", "-1"],
        ["random", "state", "--d", "2", "-o", os.path.join(os.path.dirname(p["full2"]), "missing", "x.json")],
        ["bounds", p["full2"], p["edge_basis_overflow"]],
        ["decompose", p["full2"], p["edge_effect_overflow"]],
        ["kd-table", p["mixed3"], p["edge_effect_diverging"], p["edge_effect_diverging"]],
        ["infimum", p["edge_state_diverging"]],
    ]
    argvs += [
        ["selftest", "--dims", "1", "--samples", "2"],
        ["selftest", "--dims", "2,3,4", "--samples", "2", "--seed", "1"],
        ["selftest", "--dims", "8", "--samples", "1", "--seed", "2"],
        ["selftest", "--dims", "15", "--samples", "1"],
        ["selftest", "--dims", "2,,3"],
        ["selftest", "--samples", "0"],
    ]
    for name in sorted(n for n in p if n.startswith("malformed_")):
        argvs += [["infimum", p[name]], ["witness", p["full2"], p[name]]]
    # appended after the rest, so that older sweep outputs still line up argv by argv
    argvs += [
        ["kd-table", p["edge_state_overflow"], p["eye2"], p["eye2"]],
        ["decompose", p["mixed2"], p["edge_povm_overflow"]],
        ["witness", p["pure2"], p["edge_povm_overflow"]],
        ["kd-table", p["edge_state_nan"], p["eye2"], p["eye2"]],
        ["decompose", p["mixed2"], p["edge_povm_nan"]],
        ["decompose", p["pure2"], p["edge_basis_nan"]],
        ["bounds", p["pure2"], p["edge_basis_nan"]],
        ["witness", p["pure2"], p["edge_basis_nan"]],
        ["kd-table", p["pure2"], p["edge_basis_nan"], p["eye2"]],
        ["witness", p["weak_state"], p["eye2"]],
        ["witness", p["weak_state"], p["weak_zpvm"]],
        ["decompose", p["slack_state"], p["slack_povm"]],
        ["decompose", p["slack_plus"], p["slack_sum_povm"]],
        ["decompose", p["slack_plus"], p["slack_sum_povm"], "--flavor", "NCl"],
        ["bounds", p["full3"], p["slack_pvm3"]],
        # a 2-dim state against a 3-dim measurement in each slot that the kd-table argv above leaves out
        ["kd-table", p["full2"], p["povm2"], p["basis3"]],
        ["decompose", p["full2"], p["povm3"]],
        ["witness", p["full2"], p["povm3"]],
        ["bounds", p["full2"], p["basis3"]],
        ["bounds", p["full2"], p["basis2"], p["basis3"]],
        ["infimum", p["typed_d_str"]],
        ["infimum", p["typed_d_bool"]],
        ["infimum", p["typed_re_im_dict"]],
        ["witness", p["full2"], p["typed_effects_dict"]],
        ["random", "povm", "--d", "2", "--outcomes", "0"],
        ["witness", p["zero2"], p["fourier2"]],
        ["witness", p["zero3"], p["fourier3"]],
        ["witness", p["zero4"], p["fourier4"]],
    ]
    return argvs


def _show(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"{category.__name__}: {message}\n")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _show
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an input that escapes main's error mapping
            code = f"traceback:{type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def sweep():
    with tempfile.TemporaryDirectory() as tmp:
        argvs = _argvs(_inputs(tmp))
        for argv in argvs:
            code, out, err = _run(argv)
            blob = json.dumps([code, out, err.replace(tmp, "<tmp>")]).encode("utf-8")
            shown = " ".join(a.replace(tmp, "<tmp>") for a in argv)
            print(f"{hashlib.sha256(blob).hexdigest()}  {shown}")
    print(f"# {len(argvs)} argvs", file=sys.stderr)


if __name__ == "__main__":
    sweep()
