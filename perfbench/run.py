"""kduncert benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory. Every workload is a closed loop: one client in one
process runs one operation at a time over a corpus made from --seed, pass
after pass, until --seconds of wall time have passed. BLAS is pinned to
one thread in this process and in every child.

Workloads:
  witness-verdict  library contextuality_witness, 114 instances at d = 2..4,
                   commuting (non-contextual) ones included; nearly all of
                   its time is the NCl ascent in `optimize`.
  cli-exact        `python -m kduncert.cli` subprocesses on the exact paths
                   (kd-table, decompose NRe, infimum, bounds) at d = 2, 4, 8;
                   it never enters the NCl engine.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 a
separate pass wraps the program's public functions (see tracing.py) and the
result holds per-layer metrics. cli-exact's traced pass runs the same argv
in-process through kduncert.cli.main. The line before the result is a JSON
record of the run: versions, BLAS settings, counts, the median and (where
at least 100 operations ran) p90 operation time, failures and the NCl
shortfall against the frozen reference.

The frozen reference (ncl_reference.json) holds the seed code's NCl values
for seeds 0-31 and is regenerated with:  python3 perfbench/freeze.py --seeds 0-31
On another seed the run warns on stderr, counts the instances without a
reference in the run record, and skips the shortfall gate for them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOADS = ("witness-verdict", "cli-exact")


def prepare() -> None:
    """Pin BLAS threads before numpy loads and put the checkout's source first on the path."""
    os.environ.update(THREAD_ENV)
    if not (SRC / "kduncert" / "__init__.py").is_file():
        raise SystemExit(f"error: no kduncert source at {SRC}")
    sys.path.insert(0, str(SRC))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="kduncert benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument(
        "--seed", type=int, required=True,
        help="corpus seed; the frozen NCl reference covers seeds 0-31, other seeds skip the shortfall gate",
    )
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare()
    import harness

    workdir = BENCH / "_work" / str(os.getpid())
    try:
        if args.setup_only:
            harness.setup_probe(args.workload, args.seed, workdir)
            return 0
        record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still has its directory there
    result = record.pop("result")
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
