"""Regenerate ncl_reference.json, the frozen NCl values behind ncl_shortfall_max.

    python3 perfbench/freeze.py --seeds 0-31

Run it from the root of a checkout of the code whose values are to be
frozen. For every seed it computes the NCl value of each witness-verdict
instance with the benchmark's own settings, and stores it under the
instance label with a fingerprint of the instance's inputs. A run
whose inputs no longer match a fingerprint gets no reference for that
instance, so a changed corpus never compares against stale values. The
file is rewritten whole; seeds outside the range get no reference.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import BENCH, prepare


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = p.parse_args(argv)
    prepare()
    import kduncert as kd

    import corpus
    import workloads as wl

    out = {}
    for seed in parse_seeds(args.seeds):
        insts = {inst.label: inst for inst in corpus.witness_corpus(seed)}
        out[str(seed)] = {
            op.key: [corpus.fingerprint(insts[op.key]), float(op.ncl(op.run()))] for op in wl.witness_ops(kd, seed, {})
        }
        sys.stderr.write(f"seed {seed} done\n")
    with open(BENCH / "ncl_reference.json", "w", encoding="utf-8") as fh:
        json.dump({"witness-verdict": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
