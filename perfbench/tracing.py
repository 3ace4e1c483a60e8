"""Spans around kduncert's public functions, installed from outside the program.

A traced function is replaced, in every kduncert module namespace that
holds it, by a wrapper that times the call. Callers look names up in their
own module's globals at call time, so patching each namespace catches calls
between modules (uncertainty -> optimize) and within one (witness's scan ->
weak_values). The program's files are never edited.

Self time is a span's duration minus the time covered by its child spans,
so the self times of all spans add up to the time spent inside the
outermost ones.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# "module.function" of every traced function; the module is the span's layer
SPANS = (
    "cli.main",
    "serialize.density_from_json",
    "serialize.load_measurement",
    "serialize.dumps",
    "serialize.kdtable_to_json",
    "serialize.povm_to_json",
    "serialize.decomposition_to_json",
    "core.validate_density",
    "core.validate_povm",
    "core.rank_one_pvm",
    "kdtable.kd_table",
    "kdtable.table_nonreality",
    "kdtable.table_nonclassicality",
    "optimize.quantum_nonreality",
    "optimize.quantum_nonclassicality",
    "uncertainty.decompose",
    "uncertainty.outcome_probs",
    "uncertainty.s_entropy",
    "uncertainty.t_entropy",
    "uncertainty.infimum_total",
    "uncertainty.bound_asymmetry",
    "uncertainty.uncertainty_relation_bound",
    "witness.contextuality_witness",
    "witness.weak_values",
)


class Tracer:
    """Aggregates calls, inclusive and self time per span name, plus NCl counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.ncl_effects = 0
        self.ncl_starts = 0
        self.ncl_converged = 0
        self.ncl_iterations_max = 0
        self._stack = []
        self._patches = self._find_patches()

    def _find_patches(self):
        """(namespace, name, original, wrapper) for every reference to a traced function."""
        modules = [m for name, m in sys.modules.items() if name == "kduncert" or name.startswith("kduncert.")]
        patches = []
        for span in SPANS:
            mod, attr = span.split(".")
            if f"kduncert.{mod}" not in sys.modules:
                continue  # a module the workload never loads has no calls to trace
            original = getattr(sys.modules[f"kduncert.{mod}"], attr)
            wrapper = self._wrap(span, original)
            for m in modules:
                patches.extend((m, name, original, wrapper) for name, value in vars(m).items() if value is original)
        return patches

    def install(self):
        for m, name, _, wrapper in self._patches:
            setattr(m, name, wrapper)

    def uninstall(self):
        for m, name, original, _ in self._patches:
            setattr(m, name, original)

    def _wrap(self, span, fn):
        stack = self._stack
        on_ncl = span == "optimize.quantum_nonclassicality"

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                self.calls[span] += 1
                self.incl[span] += dt
                self.self_time[span] += dt - children
                if stack:
                    stack[-1] += dt
            if on_ncl:
                self._count_ncl(result)
            return result

        return traced

    def _count_ncl(self, result):
        effects = len(result.per_effect_values)
        self.ncl_effects += effects
        self.ncl_starts += effects * len(result.per_restart_values)
        self.ncl_converged += bool(result.converged)
        self.ncl_iterations_max = max(self.ncl_iterations_max, int(result.iterations_used))

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.split(".")[0] == layer)

    def metrics(self, n_ops: int, traced_s: float, untraced_s: float, import_s: float) -> dict:
        """Per-layer metrics, time and counts given per operation."""
        per_op = 1.0 / n_ops
        ncl_s = self.incl["optimize.quantum_nonclassicality"]
        ncl_calls = self.calls["optimize.quantum_nonclassicality"]
        witness_s = self.incl["witness.contextuality_witness"]
        parse = ("serialize.density_from_json", "serialize.load_measurement")
        encode = ("serialize.dumps", "serialize.kdtable_to_json", "serialize.povm_to_json",
                  "serialize.decomposition_to_json")
        validate = ("core.validate_density", "core.validate_povm", "core.rank_one_pvm")
        m = {
            "traced_op_s": (traced_s * per_op, "s/op"),
            "trace_overhead_frac": (traced_s / untraced_s - 1.0, "fraction"),
            "cli.import_s": (import_s, "s"),
            "cli.main_self_s": (self.self_time["cli.main"] * per_op, "s/op"),
            "serialize.parse_s": (sum(self.self_time[k] for k in parse) * per_op, "s/op"),
            "serialize.dumps_s": (sum(self.self_time[k] for k in encode) * per_op, "s/op"),
            "core.validate_s": (sum(self.self_time[k] for k in validate) * per_op, "s/op"),
            "kdtable.kd_table_s": (self.incl["kdtable.kd_table"] * per_op, "s/op"),
            "optimize.nre_s": (self.incl["optimize.quantum_nonreality"] * per_op, "s/op"),
            "optimize.ncl_s": (ncl_s * per_op, "s/op"),
            "optimize.ncl_s_per_effect_start": (ncl_s / self.ncl_starts if self.ncl_starts else 0.0, "s"),
            "optimize.ncl_starts": (self.ncl_starts * per_op, "count/op"),
            "optimize.ncl_effects": (self.ncl_effects * per_op, "count/op"),
            "optimize.ncl_iterations_max": (self.ncl_iterations_max, "count"),
            "optimize.ncl_converged_frac": (self.ncl_converged / ncl_calls if ncl_calls else 0.0, "fraction"),
            "uncertainty.decompose_self_s": (self.self_time["uncertainty.decompose"] * per_op, "s/op"),
            "uncertainty.infimum_s": (self.incl["uncertainty.infimum_total"] * per_op, "s/op"),
            "uncertainty.bound_asymmetry_s": (self.incl["uncertainty.bound_asymmetry"] * per_op, "s/op"),
            "uncertainty.relation_bound_s": (self.incl["uncertainty.uncertainty_relation_bound"] * per_op, "s/op"),
            "witness.witness_self_s": (self.self_time["witness.contextuality_witness"] * per_op, "s/op"),
            "witness.weak_values_s": (self.incl["witness.weak_values"] * per_op, "s/op"),
            "witness.bases_scanned": (self.calls["witness.weak_values"] * per_op, "count/op"),
            "witness.ncl_share": (ncl_s / witness_s if witness_s else 0.0, "fraction"),
        }
        m["uncertainty.self_s"] = (self.layer_self("uncertainty") * per_op, "s/op")
        m["layers_self_sum_s"] = (sum(self.self_time.values()) * per_op, "s/op")
        return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}
