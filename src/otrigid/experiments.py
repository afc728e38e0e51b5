"""Experiment presets and the per-seed pipeline behind the CLI.

Presets:
  fig1  - m = 2*ell uniform sources to n = 3*ell uniform targets, W1 cost.
  fig2  - 50 sources to 2222 targets, uniform or gaussian 2D points, W2 cost.
  sec22 - 7 sources to 2000 targets with iid uniform random costs.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Optional

from . import instance as inst_mod
from .instance import Instance, genericity_check, perturb
from .io import save_plan_csv, stats_dict, write_stats_json
from .solver import solve
from .svg import emit_svg

@dataclass(frozen=True)
class ExperimentSpec:
    preset: str
    out_dir: str
    ell: int = 10
    m: int = 0
    n: int = 0
    dist: str = "uniform-square"
    p: float = 2.0
    random_costs: bool = False
    seeds: tuple = tuple(range(10))

    def resolved(self) -> "ExperimentSpec":
        """Apply the preset's forced parameters."""
        if self.preset == "fig1":
            return replace(self, m=2 * self.ell, n=3 * self.ell, p=1.0,
                           dist="uniform-square", random_costs=False)
        if self.preset == "fig2":
            return replace(self, m=50, n=2222, p=2.0, random_costs=False)
        if self.preset == "sec22":
            return replace(self, m=7, n=2000, random_costs=True)
        if self.preset == "custom":
            if self.m < 1 or self.n < 1:
                raise ValueError("custom preset requires explicit m and n")
            return self
        raise ValueError(f"unknown preset {self.preset!r}")


def build_instance(spec: ExperimentSpec, seed: int) -> Instance:
    if spec.random_costs:
        return inst_mod.gen_random_costs(spec.m, spec.n, seed)
    return inst_mod.gen_point_instance(spec.dist, spec.m, spec.n, spec.p, seed)


def run_seed(spec: ExperimentSpec, seed: int, out_dir: Optional[str] = None) -> dict:
    """Generate, check genericity (perturb once on violation), solve, emit."""
    inst = build_instance(spec, seed)
    report = genericity_check(inst)
    perturbed = False
    if not report.generic:
        inst = perturb(inst, inst_mod.DEFAULT_PERTURB_ETA, seed)
        perturbed = True
        report = genericity_check(inst)
    plan = solve(inst)
    stats = stats_dict(plan)
    record = {
        "seed": seed,
        "perturbed": perturbed,
        "generic": report.generic,
        "stats": stats,
    }
    if out_dir is not None:
        save_plan_csv(plan, os.path.join(out_dir, f"seed{seed:04d}_plan.csv"))
        write_stats_json(stats, os.path.join(out_dir, f"seed{seed:04d}_stats.json"))
        if inst.geometry is not None:
            emit_svg(inst, plan, os.path.join(out_dir, f"seed{seed:04d}.svg"))
    return record


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run every seed, write artifacts, and aggregate the fanout-excess histogram."""
    spec = spec.resolved()
    os.makedirs(spec.out_dir, exist_ok=True)
    records = [run_seed(spec, seed, spec.out_dir) for seed in spec.seeds]
    lower = -(-spec.n // spec.m)
    excess_hist: dict = {}
    for rec in records:
        excess = rec["stats"]["t_max"] - lower
        excess_hist[excess] = excess_hist.get(excess, 0) + 1
    summary = {
        "preset": spec.preset,
        "m": spec.m,
        "n": spec.n,
        "p": spec.p,
        "dist": "random-costs" if spec.random_costs else spec.dist,
        "seeds": list(spec.seeds),
        "fanout_lower_bound": lower,
        "t_max_excess_histogram": {str(k): v for k, v in sorted(excess_hist.items())},
        "perturbed_seeds": [r["seed"] for r in records if r["perturbed"]],
        "records": records,
    }
    with open(os.path.join(spec.out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return summary
