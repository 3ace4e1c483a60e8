"""Measurement loop, set-up probes and the run record behind run.py."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "ncl_reference.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NCL_WORKLOADS = ("witness-verdict",)
SETUP_PROBES = 7
IMPORT_PROBES = 7
P90_MIN_OPS = 100
MAX_REPORTED_PROBLEMS = 20


def load_reference(workload: str) -> dict:
    """Frozen seed-code NCl values of a workload, by seed; empty for workloads without NCl."""
    if workload not in NCL_WORKLOADS:
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def build_ops(workload: str, seed: int, workdir: Path, in_process_cli: bool, refs: dict) -> list:
    """Import the program and make the corpus; `refs` are the frozen NCl values of this seed."""
    if workload == "cli-exact":
        if in_process_cli:
            import kduncert.cli  # noqa: F401
        return wl.cli_ops(seed, str(workdir), str(ROOT), in_process_cli)
    import kduncert as kd

    return wl.witness_ops(kd, seed, refs)


def setup_probe(workload: str, seed: int, workdir: Path) -> None:
    """What a fresh client pays before its first timed operation: import, corpus, warm-up."""
    build_ops(workload, seed, workdir, in_process_cli=False, refs={})[0].run()


def _child_seconds(argv, env=None) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports, builds the corpus and warms up."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    return _child_seconds(argv)


def import_seconds() -> float:
    """Median fresh `import kduncert.cli` minus median bare interpreter start."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def median_of(code):
        return statistics.median(_child_seconds([sys.executable, "-c", code], env) for _ in range(IMPORT_PROBES))

    return median_of("import kduncert.cli") - median_of("pass")


class Runner:
    """Runs operations, checks each output and keeps the counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.shortfall = 0.0
        self.refs_used = set()
        self.problems = []
        self._signatures = {}

    def execute(self, op) -> float:
        """Run one operation, check its output and return its wall time."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
        except (Exception, SystemExit):  # a failing operation is counted, not fatal
            dt = time.perf_counter() - t0
            self._fail(op.key, traceback.format_exc())
            return dt
        dt = time.perf_counter() - t0
        try:
            problems = self._verify(op, out)
        except Exception:  # malformed output is a failed check
            problems = [traceback.format_exc()]
        if problems:
            self._fail(op.key, "; ".join(problems))
        return dt

    def _verify(self, op, out) -> list:
        problems = op.check(out)
        sig = op.signature(out)
        if self._signatures.setdefault(op.key, sig) != sig:
            problems.append("output differs from an earlier run of the same operation")
        if op.ref is not None:
            self.refs_used.add(op.key)
            short = max(0.0, op.ref - op.ncl(out))
            self.shortfall = max(self.shortfall, short)
            if short > checks.NCL_SHORTFALL_TOL:
                problems.append(f"NCl value is {short!r} below the frozen reference {op.ref!r}")
        return problems

    def _fail(self, key, message):
        self.failed += 1
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(f"{key}: {message}")


def measure(runner: Runner, ops: list, seconds: float, probe) -> tuple:
    """Operations in corpus order, pass after pass, until `seconds` of wall time have passed.

    The run stops on time, not at the end of a pass, so it lasts `seconds`
    plus at most one operation. The SETUP_PROBES set-up probes run between
    operations, one per `seconds / SETUP_PROBES` of the run, so that their
    median, like the operation times, spans the run rather than the few
    seconds before it: the host's speed changes on that scale.
    """
    times, setups = [], []
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds:
        if len(setups) < SETUP_PROBES and elapsed >= len(setups) * seconds / SETUP_PROBES:
            setups.append(probe())
        times.append(runner.execute(ops[len(times) % len(ops)]))
    setups.extend(probe() for _ in range(SETUP_PROBES - len(setups)))
    return times, setups


def measure_traced(runner: Runner, tracer, ops: list, seconds: float) -> tuple:
    """Each operation runs once traced and once untraced, alternating which goes first."""
    traced, untraced = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        for on in ((True, False) if (i + i // len(ops)) % 2 == 0 else (False, True)):
            if on:
                tracer.install()
                try:
                    traced.append(runner.execute(op))
                finally:
                    tracer.uninstall()
            else:
                untraced.append(runner.execute(op))
        i += 1
    return traced, untraced


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
        sha = p.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _seed_range(references: dict) -> str:
    seeds = sorted(int(k) for k in references)
    return f"{seeds[0]}-{seeds[-1]}" if seeds else "none"


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def run(workload: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    """One benchmark run; returns the run record with the result under "result"."""
    setups = []
    cli_import = import_seconds() if traced and workload == "cli-exact" else 0.0
    references = load_reference(workload)
    ops = build_ops(workload, seed, workdir, traced, references.get(str(seed), {}))
    unreferenced = [op.key for op in ops if op.ncl is not None and op.ref is None]
    if unreferenced:
        sys.stderr.write(
            f"warning: {len(unreferenced)} of {len(ops)} {workload} instances of seed {seed} have no frozen NCl"
            f" reference (it covers seeds {_seed_range(references)}); the shortfall gate skips them\n"
        )
    runner = Runner()
    runner.execute(ops[0])  # warm-up: checked, and its output is what later repeats must match
    if traced:
        tracer = tracing.Tracer()
        times, untraced = measure_traced(runner, tracer, ops, seconds)
        metrics = tracer.metrics(len(times), sum(times), sum(untraced), cli_import)
    else:
        times, setups = measure(runner, ops, seconds, lambda: setup_seconds(workload, seed))
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric(len(times) / sum(times), "1/s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
        }
    for line in runner.problems:
        sys.stderr.write(f"check failed: {line}\n")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": environment(),
        "corpus_size": len(ops),
        "passes": len(times) / len(ops),
        "timed_ops": len(times),
        "op_s_p50": statistics.median(times),
        "op_s_p90": statistics.quantiles(times, n=10)[-1] if len(times) >= P90_MIN_OPS else None,
        "setup_samples_s": setups,
        "failed_frac": runner.failed / runner.attempted,
        "ncl_shortfall_max": runner.shortfall,
        "ncl_reference_instances": len(runner.refs_used),
        "ncl_reference_missing": len(unreferenced),
        "ncl_reference_seeds": _seed_range(references),
        "problems": runner.problems,
        "result": {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        },
    }
