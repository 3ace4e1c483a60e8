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
checks that none ends in a traceback or a warning line and that each keeps
the refusal contract that breach() states.

With --fuzz it runs a seeded mutation fuzzer instead (stdlib random, no
other dependency):

    PYTHONPATH=src python tests/cli_sweep.py --fuzz [SEED [COUNT]]

Each of COUNT cases (default 500, seed 0) is a sweep argv with one
perturbation, half of them to the argv and half to an input file. An argv
perturbation drops a positional argument, inserts an unknown flag, gives
--d, --seed, --samples, --outcomes, --rank or --threshold a non-numeric or
negative value, or names an unknown subcommand. A file perturbation
changes one valid state, POVM or basis file of an argv that reads only
valid files: an entry set to 1e308, 1e-320 or 2**53 + 1, a key dropped, a
field given a wrong type, re_im one pair too long or too short, or an
off-diagonal shifted to just inside or just outside HERM_ATOL. The
perturbed file is then also read in every subcommand slot that takes its
kind, next to valid files of its dimension. Each run must keep the refusal
contract with an exit code of 0, 2, 3 or 4; and when one slot refuses the
file with exit 2, every slot must give the same exit code and stderr,
except for bounds' own refusals (not a rank-1 PVM, d above its cap). Each
case that breaks a rule is printed with its perturbation, and the exit
status is 1 if any did.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import warnings

import numpy as np

from kduncert.cli import main
from kduncert.core import HERM_ATOL

DIMS = (1, 2, 3, 4, 8)
# the fuzzer's inputs: every valid state, POVM and basis file of the sweep, and what it writes into them
STATE_KINDS = ("pure", "full", "mixed")
VALID = {f"{kind}{d}" for kind in STATE_KINDS + ("povm", "basis", "basis2_", "pvm", "eye") for d in DIMS}
EDGE_VALUES = (1e308, 1e-320, 2**53 + 1)
WRONG_TYPES = ("1", [], {}, None, True, 1.5)
PERTURBATIONS = ("edge", "drop", "type", "length", "hermitian")
# and what it does to an argv
ARGV_PERTURBATIONS = ("positional", "flag", "value", "subcommand")
UNKNOWN_FLAGS = ("--bogus", "--max-iters", "-x")
NUMERIC_FLAGS = ("--d", "--seed", "--samples", "--outcomes", "--rank", "--threshold")
BAD_VALUES = ("x", "", "1,5", "-1", "-3", "-0.5")
UNKNOWN_SUBCOMMANDS = ("bogus", "kd_table", "Decompose", "")
# bounds refuses these files where the other subcommands take them
BOUNDS_REFUSALS = ("expected a rank-1 PVM", "sign corners and accepts d <=")


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
    # a dimension below 1, whose re_im of d * d = 0 pairs is the right length
    write("range_d_zero", {"d": 0, "re_im": []})
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
        ["infimum", p["range_d_zero"]],
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


def breach(argv, code, out, err):
    """How one run breaks the refusal contract, or None.

    The exit code is one of 0-5; outside selftest, exit 0 leaves stderr
    empty; any other exit leaves stdout empty and stderr one line that
    starts with "error: ". So a selftest that fails, exit 1 with its
    report, breaks it too.
    """
    if code not in (0, 1, 2, 3, 4, 5):
        return f"exit {code}"
    if code == 0:
        return "stderr on exit 0" if err and argv[:1] != ["selftest"] else None
    if out:
        return f"stdout on exit {code}"
    if not err.startswith("error: ") or err.count("\n") != 1 or not err.endswith("\n"):
        return f"exit {code} without one error line"
    return None


def sweep():
    with tempfile.TemporaryDirectory() as tmp:
        argvs = _argvs(_inputs(tmp))
        for argv in argvs:
            code, out, err = _run(argv)
            blob = json.dumps([code, out, err.replace(tmp, "<tmp>")]).encode("utf-8")
            shown = " ".join(a.replace(tmp, "<tmp>") for a in argv)
            print(f"{hashlib.sha256(blob).hexdigest()}  {shown}")
    print(f"# {len(argvs)} argvs", file=sys.stderr)


def _perturb(rng, obj) -> str:
    """Apply one random perturbation to a valid state, POVM or basis object, in place; describe it."""
    m = rng.choice(obj["effects"]) if "effects" in obj else obj
    pairs = m["re_im"]
    kind = rng.choice(PERTURBATIONS if m["d"] > 1 else PERTURBATIONS[:-1])  # d = 1 has no off-diagonal
    if kind == "edge":
        i, part, value = rng.randrange(len(pairs)), rng.randrange(2), rng.choice(EDGE_VALUES)
        pairs[i][part] = value
        return f"re_im[{i}][{part}] = {value!r}"
    if kind in ("drop", "type"):
        target = rng.choice((obj, m))
        key = rng.choice(sorted(target))
        if kind == "drop":
            del target[key]
            return f"{key} dropped"
        target[key] = rng.choice(WRONG_TYPES)
        return f"{key} = {target[key]!r}"
    if kind == "length":
        if rng.random() < 0.5:
            pairs.append([0.0, 0.0])
        else:
            pairs.pop()
        return f"re_im has {len(pairs)} pairs"
    d = m["d"]
    i, j = rng.sample(range(d), 2)
    part, scale = rng.randrange(2), rng.choice((0.9, 1.1))
    pairs[i * d + j][part] += scale * HERM_ATOL
    return f"re_im[{i * d + j}][{part}] += {scale} * HERM_ATOL"


def _positionals(argv) -> list:
    """Indexes of argv's positional arguments after the subcommand; every flag of the sweep takes a value."""
    found, i = [], 1
    while i < len(argv):
        if argv[i].startswith("-"):
            i += 2
        else:
            found.append(i)
            i += 1
    return found


def _perturb_argv(rng, argv) -> str:
    """Apply one random perturbation to an argv, in place; describe it."""
    positionals = _positionals(argv)
    kind = rng.choice(ARGV_PERTURBATIONS if positionals else ARGV_PERTURBATIONS[1:])
    if kind == "positional":
        i = rng.choice(positionals)
        del argv[i]
        return f"argument {i} dropped"
    if kind == "flag":
        flag = rng.choice(UNKNOWN_FLAGS)
        argv.insert(rng.randrange(1, len(argv) + 1), flag)
        return f"{flag} inserted"
    if kind == "value":
        flag, value = rng.choice(NUMERIC_FLAGS), rng.choice(BAD_VALUES)
        argv += [flag, value]
        return f"{flag} {value!r} appended"
    argv[0] = rng.choice(UNKNOWN_SUBCOMMANDS)
    return f"subcommand {argv[0]!r}"


def _slots(paths, name, path) -> list:
    """An argv for each subcommand slot that reads a file of name's kind, with path in that slot."""
    kind = name.rstrip("0123456789")
    d = name[len(kind):]
    if kind in STATE_KINDS:
        povm, basis = paths[f"povm{d}"], paths[f"basis{d}"]
        return [
            ["kd-table", path, povm, basis],
            ["decompose", path, povm],
            ["witness", path, povm],
            ["infimum", path],
            ["bounds", path, basis],
        ]
    state, basis = paths[f"full{d}"], paths[f"basis{d}"]
    return [
        ["kd-table", state, path, basis],
        ["kd-table", state, basis, path],
        ["decompose", state, path],
        ["witness", state, path],
        ["bounds", state, path],
        ["bounds", state, basis, path],
    ]


def _slot_breach(answers):
    """How the answers (argv, code, stderr) of one file's slots break "an exit 2 from one is the answer of all", or None."""
    judged = [
        (code, err) for argv, code, err in answers
        if not (argv[0] == "bounds" and any(r in err for r in BOUNDS_REFUSALS))
    ]
    if any(code == 2 for code, _ in judged) and len(set(judged)) > 1:
        return "slots answer differently: " + "; ".join(
            f"{argv[0]} exit {code} {err.strip()!r}" for argv, code, err in answers
        )
    return None


def fuzz(seed=0, count=500) -> int:
    """Run count perturbed sweep argvs; print each case that breaks a rule; return how many did."""
    rng = random.Random(seed)
    broken = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = _inputs(tmp)
        names = {path: name for name, path in paths.items()}
        valid = {paths[name] for name in VALID}
        argvs = _argvs(paths)
        # the argvs whose files a perturbation may change: they read only valid files, at least one
        readers = [a for a in argvs if any(x in valid for x in a) and all(x in valid for x in a if x in names)]
        for k in range(count):
            if rng.random() < 0.5:
                argv = list(rng.choice(argvs))
                what = _perturb_argv(rng, argv)
                slots = []
            else:
                argv = list(rng.choice(readers))
                i = rng.choice([i for i, x in enumerate(argv) if x in valid])
                with open(argv[i], "r", encoding="utf-8") as fh:
                    obj = json.load(fh)
                what = f"{names[argv[i]]}: {_perturb(rng, obj)}"
                path = os.path.join(tmp, f"fuzz{k}")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(obj) + "\n")
                slots = _slots(paths, names[argv[i]], path)
                argv[i] = path
            answers, problems = [], []
            for a in [argv] + slots:
                code, out, err = _run(a)
                answers.append((a, code, err))
                problem = f"exit {code}" if code in (1, 5) else breach(a, code, out, err)
                if problem is not None:
                    problems.append((a, f"{problem}, stderr {err!r}"))
            if slots:
                problem = _slot_breach(answers[1:])
                if problem is not None:
                    problems.append((argv, problem))
            broken += bool(problems)
            for a, problem in problems:
                shown = " ".join(x.replace(tmp, "<tmp>") for x in a)
                print(f"{shown}  [{what}]  {problem.replace(tmp, '<tmp>')}")
    print(f"# {count} fuzzed cases, seed {seed}: {broken} broke a rule", file=sys.stderr)
    return broken


if __name__ == "__main__":
    if sys.argv[1:2] == ["--fuzz"]:
        sys.exit(1 if fuzz(*map(int, sys.argv[2:])) else 0)
    sweep()
