"""Command-line front end: JSON in, JSON out, deterministic under a fixed seed.

Exit codes: 0 success, 1 selftest failure, 2 validation error, 3 dimension
mismatch, 4 no witness, 5 internal check failure (any other KdUncertError);
argparse's own usage errors, such as an unknown flag, and a MemoryError
from a subcommand also exit 2. Exit 4's message states the witness's
largest margin, and a margin <= 0 certifies that no postselection basis
holds a weak value strange at the threshold.
Only random and selftest take a seed, --seed, whose default is 0; a
negative seed is a validation error. No environment variable is read, so
stdout depends only on the argv and the input files.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .core import RankOnePvm, _povm_basis, _pvm_unchecked, haar_random_unitary, random_density, random_povm
from .errors import DimMismatchError, KdUncertError, ValidationError, WitnessNotFoundError
from .kdtable import kd_table, table_nonclassicality, table_nonreality
from .uncertainty import (
    Flavor, bound_asymmetry, decompose, infimum_total, total_uncertainty, uncertainty_relation_bound,
)
from .witness import DEFAULT_THRESHOLD, contextuality_witness

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_VALIDATION = 2
EXIT_DIM_MISMATCH = 3
EXIT_NO_WITNESS = 4
EXIT_INTERNAL = 5


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON ({exc.msg} at line {exc.lineno})") from exc
    except ValueError as exc:  # an integer literal past the interpreter's int-to-str digit limit
        raise ValidationError(f"{path}: unreadable JSON (an integer literal has too many digits)") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path}: unreadable JSON (nested too deeply)") from exc


def _write_output(obj, path):
    text = serialize.dumps(obj) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _seed(args) -> int:
    """--seed; a negative seed raises ValidationError."""
    if args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def _load_measurement(path: str):
    return serialize.load_measurement(_read_json(path))


def _as_pvm(measurement, which: str) -> RankOnePvm:
    """The measurement as a RankOnePvm; a POVM's basis is taken as _povm_basis certifies it, within 1e-8."""
    if isinstance(measurement, RankOnePvm):
        return measurement
    u = _povm_basis(measurement)
    if u is None:
        d = measurement.dim
        raise ValidationError(
            f"{which}: expected a rank-1 PVM, got {measurement.n_outcomes} effects in dim {d} "
            f"that are not {d} orthogonal rank-1 projectors"
        )
    return _pvm_unchecked(u)


def cmd_kd_table(args) -> int:
    state = serialize.density_from_json(_read_json(args.state))
    first = _load_measurement(args.povm)
    second = _load_measurement(args.basis)
    table = kd_table(state, first, second)
    out = serialize.kdtable_to_json(table)
    out["nonreality"] = table_nonreality(table)
    out["nonclassicality"] = table_nonclassicality(table)
    _write_output(out, args.output)
    return EXIT_OK


def cmd_decompose(args) -> int:
    state = serialize.density_from_json(_read_json(args.state))
    povm = _load_measurement(args.povm)
    flavor = serialize.flavor_from_name(args.flavor)
    dec = decompose(state, povm, flavor)
    _write_output(serialize.decomposition_to_json(dec), args.output)
    return EXIT_OK


def cmd_witness(args) -> int:
    state = serialize.density_from_json(_read_json(args.state))
    povm = _load_measurement(args.povm)
    report = contextuality_witness(state, povm, threshold=args.threshold)
    _write_output(serialize.witness_report_to_json(report), args.output)
    return EXIT_OK


def cmd_infimum(args) -> int:
    state = serialize.density_from_json(_read_json(args.state))
    flavor = serialize.flavor_from_name(args.flavor)
    value, achieving = infimum_total(state, flavor)
    out = {"value": value, "achieving_povm": serialize.povm_to_json(achieving)}
    _write_output(out, args.output)
    return EXIT_OK


def cmd_bounds(args) -> int:
    state = serialize.density_from_json(_read_json(args.state))
    pvm = _as_pvm(_load_measurement(args.pvm), "pvm")
    ent = total_uncertainty(state, pvm, Flavor.NRE)
    bound = bound_asymmetry(state, pvm)
    out = {
        "asymmetry_bound": bound,
        "s_entropy": ent,
        "asymmetry_margin": ent - bound,
    }
    if bound > ent + 1e-6:
        raise KdUncertError(f"asymmetry bound {bound!r} exceeds entropy {ent!r}")
    if args.pvm2 is not None:
        pvm2 = _as_pvm(_load_measurement(args.pvm2), "pvm2")
        rel = uncertainty_relation_bound(state, pvm, pvm2)
        s_sum = ent + total_uncertainty(state, pvm2, Flavor.NRE)
        if rel > s_sum + 1e-6:
            raise KdUncertError(f"relation bound {rel!r} exceeds entropy sum {s_sum!r}")
        out["relation_bound"] = rel
        out["s_sum"] = s_sum
        out["relation_margin"] = s_sum - rel
    _write_output(out, args.output)
    return EXIT_OK


def cmd_random(args) -> int:
    seed = _seed(args)
    if args.d < 1:
        raise ValidationError(f"--d must be >= 1, got {args.d}")
    if args.kind == "state":
        rank = args.rank if args.rank is not None else args.d
        if not 1 <= rank <= args.d:
            raise ValidationError(f"--rank must be in [1, {args.d}], got {rank}")
        obj = serialize.matrix_to_json(random_density(args.d, rank, seed).matrix)
    elif args.kind == "povm":
        if args.outcomes < 1:
            raise ValidationError(f"--outcomes must be >= 1, got {args.outcomes}")
        obj = serialize.povm_to_json(random_povm(args.d, args.outcomes, seed))
    else:
        obj = serialize.matrix_to_json(haar_random_unitary(args.d, seed))
    _write_output(obj, args.output)
    return EXIT_OK


def _parse_dims(text: str) -> tuple:
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"--dims must be comma-separated integers, got {text!r}") from exc
    if any(d < 1 for d in dims):
        raise ValidationError(f"--dims entries must be >= 1, got {text!r}")
    return dims


def cmd_selftest(args) -> int:
    from .selftest import run_selftest  # imported here: no other subcommand needs the property suite

    dims = _parse_dims(args.dims)
    if args.samples < 1:
        raise ValidationError(f"--samples must be >= 1, got {args.samples}")
    seed = _seed(args)
    passed, results = run_selftest(dims=dims, samples=args.samples, seed=seed)
    for r in results:
        sys.stderr.write(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}\n")
    out = {
        "passed": passed,
        "failed": [r.name for r in results if not r.ok],
        "results": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
    }
    _write_output(out, args.output)
    return EXIT_OK if passed else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kduncert",
        description="Kirkwood-Dirac quasiprobabilities and measurement-uncertainty decomposition.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--output", "-o", default=None, help="output path (default stdout)")

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0, help="seed >= 0 (default 0)")

    p = sub.add_parser("kd-table", help="quasiprobability table and its quantumness functionals")
    p.add_argument("state")
    p.add_argument("povm")
    p.add_argument("basis")
    add_common(p)
    p.set_defaults(fn=cmd_kd_table)

    p = sub.add_parser("decompose", help="total/quantum/classical uncertainty decomposition")
    p.add_argument("state")
    p.add_argument("povm")
    p.add_argument("--flavor", default="NRe", help="NRe or NCl")
    add_common(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("witness", help="contextuality witness via strange weak values")
    p.add_argument("state")
    p.add_argument("povm")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    add_common(p)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("infimum", help="minimum total uncertainty over all measurements")
    p.add_argument("state")
    p.add_argument("--flavor", default="NRe")
    add_common(p)
    p.set_defaults(fn=cmd_infimum)

    p = sub.add_parser("bounds", help="asymmetry lower bound and entropic uncertainty relation")
    p.add_argument("state")
    p.add_argument("pvm")
    p.add_argument("pvm2", nargs="?", default=None)
    add_common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("random", help="emit random state/povm/pvm fixtures")
    p.add_argument("kind", choices=("state", "povm", "pvm"))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rank", type=int, default=None, help="state rank (default d)")
    p.add_argument("--outcomes", type=int, default=2, help="POVM outcome count")
    add_common(p)
    add_seed(p)
    p.set_defaults(fn=cmd_random)

    p = sub.add_parser("selftest", help="run the full property suite")
    p.add_argument("--dims", default="2,3,4")
    p.add_argument("--samples", type=int, default=8)
    add_common(p)
    add_seed(p)
    p.set_defaults(fn=cmd_selftest)

    return parser


def _run(args) -> int:
    """Run the subcommand; a failed allocation (e.g. --d 100000) is a ValidationError with numpy's message."""
    try:
        return args.fn(args)
    except MemoryError as exc:
        raise ValidationError(f"out of memory: {exc}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except DimMismatchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DIM_MISMATCH
    except WitnessNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_WITNESS
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except KdUncertError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
