"""The workloads as lists of operations.

An operation is one call a user waits for. `run` does the work and is the
only part timed; `check` recomputes what the output claims (see checks.py);
`signature` is compared across repeats of the operation to catch
nondeterminism; `ncl` extracts the NCl value that the frozen reference
gates.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import checks
import corpus

WITNESS_THRESHOLD = 1e-7  # the CLI and library default
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    key: str
    run: Callable
    check: Callable
    signature: Callable
    ncl: Callable | None = None
    ref: float | None = None


def _ref_for(refs: dict, inst) -> float | None:
    """Frozen seed-code value of this instance, if the reference covers it unchanged."""
    entry = refs.get(inst.label)
    if entry is None or entry[0] != corpus.fingerprint(inst):
        return None
    return entry[1]


def _validated(kd, inst):
    return kd.validate_density(inst.rho), kd.validate_povm(list(inst.effects))


def witness_ops(kd, seed: int, refs: dict) -> list:
    """contextuality_witness(state, povm, OptimizerConfig(n_restarts=2, seed)) per instance."""
    cfg = kd.OptimizerConfig(n_restarts=corpus.NCL_RESTARTS, seed=seed)
    ops = []
    for inst in _spread(corpus.witness_corpus(seed)):
        state, povm = _validated(kd, inst)
        ops.append(Op(
            key=inst.label,
            run=lambda s=state, p=povm: kd.contextuality_witness(s, p, cfg, threshold=WITNESS_THRESHOLD),
            check=lambda rep, i=inst: checks.check_witness(i, rep, WITNESS_THRESHOLD),
            signature=_witness_signature,
            ncl=lambda rep: rep.ncl,
            ref=_ref_for(refs, inst),
        ))
    return ops


def _spread(instances) -> list:
    """Order instances so that every stretch of a pass holds each class in its corpus share.

    A class is a label without its draw index. Runs stop on time, not at the
    end of a pass, so the operations of a partial pass are then a fair sample
    of the corpus rather than its first classes.
    """
    classes = [inst.label.rsplit("-", 1)[0] if inst.label[-1].isdigit() else inst.label for inst in instances]
    sizes = Counter(classes)
    seen = Counter()
    keys = []
    for c in classes:
        seen[c] += 1
        keys.append((seen[c] - 0.5) / sizes[c])
    order = sorted(range(len(instances)), key=lambda i: (keys[i], i))
    return [instances[i] for i in order]


def _witness_signature(rep):
    e = rep.witness_entry
    entry = None if e is None else (e.a, e.b, e.weak_value, e.basis.basis_unitary.tobytes())
    return (rep.contextual, rep.nre, rep.ncl, rep.flavors_agree, entry)


def write_cli_inputs(seed: int, workdir: str) -> list:
    """Write each dimension's JSON inputs; return (inputs, file paths) pairs."""
    os.makedirs(workdir, exist_ok=True)
    out = []
    for inp in corpus.cli_corpus(seed):
        files = {
            "state": corpus.matrix_json(inp.rho),
            "povm": corpus.povm_json(inp.effects),
            "basis": corpus.matrix_json(inp.basis),
            "basis2": corpus.matrix_json(inp.basis2),
        }
        paths = {}
        for name, obj in files.items():
            paths[name] = os.path.join(workdir, f"d{inp.d}-{name}.json")
            corpus.write_json(paths[name], obj)
        out.append((inp, paths))
    return out


def _cli_commands(inp, paths):
    """(key, argv, check) for the exact-path subcommands at one dimension."""
    st, pv, ba, b2 = paths["state"], paths["povm"], paths["basis"], paths["basis2"]
    d = inp.d
    return [
        (f"d{d}-kd-table", ["kd-table", st, pv, ba], checks.check_kd_table),
        (f"d{d}-decompose-NRe", ["decompose", st, pv, "--flavor", "NRe"], checks.check_nre_decomposition),
        (f"d{d}-infimum-NRe", ["infimum", st, "--flavor", "NRe"], lambda o, i: checks.check_infimum(o, i, "NRe")),
        (f"d{d}-infimum-NCl", ["infimum", st, "--flavor", "NCl"], lambda o, i: checks.check_infimum(o, i, "NCl")),
        (f"d{d}-bounds", ["bounds", st, ba, b2], checks.check_bounds),
    ]


def _check_cli(result, inp, check):
    code, stdout, stderr = result
    if code != 0:
        return [f"exit code {code}: {stderr.decode(errors='replace').strip()[-300:]}"]
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    return check(out, inp)


def cli_ops(seed: int, workdir: str, root: str, in_process: bool) -> list:
    """Subprocess `python -m kduncert.cli ...` calls, or the same argv through cli.main."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    ops = []
    for inp, paths in write_cli_inputs(seed, workdir):
        for key, argv, check in _cli_commands(inp, paths):
            if in_process:
                run = lambda a=argv: _cli_in_process(a)
            else:
                run = lambda a=argv: _cli_subprocess(a, env, root)
            ops.append(Op(
                key=key,
                run=run,
                check=lambda r, i=inp, c=check: _check_cli(r, i, c),
                signature=lambda r: r[:2],
            ))
    return ops


def _cli_subprocess(argv, env, root):
    p = subprocess.run(
        [sys.executable, "-m", "kduncert.cli"] + argv,
        capture_output=True, env=env, cwd=root, timeout=CLI_TIMEOUT_S, check=False,
    )
    return p.returncode, p.stdout, p.stderr


def _cli_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["kduncert.cli"].main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()
