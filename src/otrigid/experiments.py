"""Experiment presets and the per-seed pipeline behind the CLI.

Presets:
  fig1  - m = 2*ell uniform sources to n = 3*ell uniform targets, W1 cost.
  fig2  - 50 sources to 2222 targets, uniform 2D points, W2 cost.
  sec22 - 7 sources to 2000 targets with iid uniform random costs.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

from . import instance as inst_mod
from .instance import Instance, genericity_check, perturb
from .io import save_plan_csv, save_stats_json, stats_dict
from .solver import solve
from .svg import emit_svg

@dataclass(frozen=True)
class ExperimentSpec:
    """A preset run over seeds.

    Also holds the preset's ``m``, ``n``, ``p`` and ``random_costs``; they are
    not fields.  A preset other than fig1, fig2 or sec22, or fig1 with
    ``ell < 1``, raises ValueError before anything is written.
    """

    preset: str
    out_dir: str
    ell: int = 10
    seeds: tuple = tuple(range(10))

    def __post_init__(self):
        if self.preset == "fig1":
            if self.ell < 1:
                raise ValueError(f"ell must be at least 1, got {self.ell}")
            shape = (2 * self.ell, 3 * self.ell, 1.0, False)
        elif self.preset == "fig2":
            shape = (50, 2222, 2.0, False)
        elif self.preset == "sec22":
            shape = (7, 2000, 2.0, True)
        else:
            raise ValueError(f"unknown preset {self.preset!r}")
        for name, value in zip(("m", "n", "p", "random_costs"), shape):
            object.__setattr__(self, name, value)

    def resolved(self) -> "ExperimentSpec":
        # the preset's values are set at construction; kept for
        # bench/workloads.py, which still calls it
        return self


def build_instance(spec: ExperimentSpec, seed: int) -> Instance:
    if spec.random_costs:
        return inst_mod.gen_random_costs(spec.m, spec.n, seed)
    return inst_mod.gen_point_instance("uniform-square", spec.m, spec.n, spec.p, seed)


def run_seed(spec: ExperimentSpec, seed: int, out_dir: str) -> dict:
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
    save_plan_csv(plan, os.path.join(out_dir, f"seed{seed:04d}_plan.csv"))
    save_stats_json(stats, os.path.join(out_dir, f"seed{seed:04d}_stats.json"))
    if inst.geometry is not None:
        emit_svg(inst, plan, os.path.join(out_dir, f"seed{seed:04d}.svg"))
    return record


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run every seed, write artifacts, and aggregate the fanout-excess histogram."""
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
        "dist": "random-costs" if spec.random_costs else "uniform-square",
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
