"""In-memory spans around calls into otrigid's modules, and the per-layer sums.

A traced run swaps each module attribute listed in PATCHES for a wrapper that
records a span, and puts the originals back afterwards. An untraced run
installs nothing, so both runs execute the same item code. Spans are kept in
memory and written out once, when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager, nullcontext

# Span name -> the "module:attribute" names that callers resolve. A function
# imported into a second module is listed there too, because run_seed calls
# it through that module. A name missing from a later version of the package
# is skipped, so planned deletions do not break the benchmark. The solve that
# gcd_construct makes internally is deliberately not wrapped: it belongs to
# constructions.gcd, and solver.solve counts only the direct solves.
PATCHES = {
    "instance.build": [
        "otrigid.instance:gen_points",
        "otrigid.instance:cost_from_points",
        "otrigid.instance:gen_random_costs",
    ],
    "instance.genericity": [
        "otrigid.instance:genericity_check",
        "otrigid.experiments:genericity_check",
    ],
    "instance.perturb": ["otrigid.instance:perturb", "otrigid.experiments:perturb"],
    "solver.solve": ["otrigid.solver:solve", "otrigid.experiments:solve"],
    "solver.certify": ["otrigid.solver:verify_optimality"],
    "solver.crossings": ["otrigid.solver:find_crossings", "otrigid.io:find_crossings"],
    "solver.uncross": ["otrigid.solver:uncross"],
    "analysis.rigidity": [
        "otrigid.analysis:rigidity_report",
        "otrigid.io:rigidity_report",
    ],
    "analysis.pair_counts": ["otrigid.analysis:pair_counts"],
    "io.stats": ["otrigid.io:stats_dict", "otrigid.experiments:stats_dict"],
    "io.emit": [
        "otrigid.io:save_plan_csv",
        "otrigid.io:save_stats_json",
        "otrigid.experiments:save_plan_csv",
        "otrigid.experiments:save_stats_json",
    ],
    "io.load": ["otrigid.io:load_plan_csv"],
    "svg.emit": ["otrigid.svg:emit_svg", "otrigid.experiments:emit_svg"],
    "constructions.gcd": ["otrigid.constructions:gcd_construct"],
    "constructions.birkhoff": ["otrigid.constructions:birkhoff_decompose"],
    "oracle.brute_force": ["otrigid.oracle:brute_force_solve"],
    "experiments.run_seed": ["otrigid.experiments:run_seed"],
}

ITEM_SPAN = "experiments.item"

# Per-layer metrics. Times are inclusive span seconds per traced item, so a
# span nested in another (analysis.rigidity inside io.stats) counts in both.
# Counts are totals per traced item, taken from a span's calls or from a
# counter the item code records.
LAYER_TIMES = [
    "instance.build",
    "instance.genericity",
    "solver.solve",
    "solver.certify",
    "solver.crossings",
    "solver.uncross",
    "analysis.rigidity",
    "analysis.pair_counts",
    "io.stats",
    "io.emit",
    "io.load",
    "svg.emit",
    "constructions.gcd",
    "constructions.birkhoff",
    "oracle.brute_force",
]
LAYER_COUNTS = [  # (metric, span or counter, unit)
    ("instance.perturb_calls", "instance.perturb", "count/item"),
    ("solver.solve_calls", "solver.solve", "count/item"),
    ("solver.certify_fail", "solver.certify_fail", "count/item"),
    ("solver.uncross_support_removed", "solver.uncross_support_removed", "count/item"),
    ("io.bytes_written", "io.bytes_written", "B/item"),
    ("svg.bytes_written", "svg.bytes_written", "B/item"),
    ("constructions.birkhoff_terms", "constructions.birkhoff_terms", "count/item"),
    ("oracle.plans_enumerated", "oracle.plans_enumerated", "count/item"),
]


class NullTracer:
    """What untraced runs pass around: records nothing."""

    _null = nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, k=1):
        pass


class Tracer:
    """Records spans (name, item, parent, start, end) and named counters."""

    def __init__(self):
        self.spans = []  # [name, item, parent index or -1, start, end]
        self.counts = {}
        self.item = -1
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, self.item, self._open[-1] if self._open else -1, 0.0, 0.0]
        self.spans.append(record)
        self._open.append(index)
        record[3] = time.perf_counter()
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def layer_metrics(self, items: int) -> dict:
        """Per-item layer times and counts, plus the item time no layer covers."""
        time_by_name = {}
        calls_by_name = {}
        for name, _, _, start, end in self.spans:
            time_by_name[name] = time_by_name.get(name, 0.0) + (end - start)
            calls_by_name[name] = calls_by_name.get(name, 0) + 1
        out = {}
        for name in LAYER_TIMES:
            out[f"{name}_s"] = (time_by_name.get(name, 0.0) / items, "s/item")
        for metric, source, unit in LAYER_COUNTS:
            total = calls_by_name.get(source, self.counts.get(source, 0))
            out[metric] = (total / items, unit)
        out["experiments.self_s"] = (self._experiments_self() / items, "s/item")
        return out

    def _experiments_self(self) -> float:
        """Time inside experiments.* spans not covered by any other layer."""
        own = 0.0
        covered = 0.0
        for name, _, parent, start, end in self.spans:
            if name == ITEM_SPAN:
                own += end - start
            elif not name.startswith("experiments.") and not self._inside_layer(parent):
                covered += end - start
        return own - covered

    def _inside_layer(self, index):
        while index >= 0:
            if not self.spans[index][0].startswith("experiments."):
                return True
            index = self.spans[index][2]
        return False

    def dump(self, path, meta: dict):
        data = {
            "meta": meta,
            "counts": self.counts,
            "spans": [
                {"name": n, "item": it, "parent": p, "start": s, "end": e}
                for n, it, p, s, e in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
            fh.write("\n")


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every call listed in PATCHES through a span of ``tracer``."""
    saved = []
    wrappers = {}
    try:
        for name, targets in PATCHES.items():
            for target in targets:
                modname, attr = target.split(":")
                module = importlib.import_module(modname)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = wrappers[id(original)] = _wrap(tracer, name, original)
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
