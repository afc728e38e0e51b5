"""Command-line interface.

Exit codes: 0 success, 1 validation error (a malformed command line
included), 2 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import instance as inst_mod
from .analysis import pair_counts
from .constructions import birkhoff_decompose
from .experiments import ExperimentSpec, run_experiment
from .io import (
    load_instance,
    load_plan_csv,
    save_decomposition_json,
    save_instance,
    save_plan_csv,
    save_stats_json,
    stats_dict,
    stats_json_text,
)
from .oracle import brute_force_solve, DEFAULT_CAP
from .solver import objective, solve, uncross
from .svg import emit_svg


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, not argparse's 2, which is the I/O-error code.

    Subparsers are made with the parser's own class, so they exit 1 too.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    ap = _Parser(prog="otrigid",
                 description="Exact discrete optimal transport and rigidity analysis")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance exactly")
    p.add_argument("--instance", required=True)
    p.add_argument("--out-plan")
    p.add_argument("--out-stats")

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--dist", choices=["uniform", "gaussian"], default="uniform")
    p.add_argument("--random-costs", action="store_true")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("genericity", help="scan for cost quadruple near-ties")
    p.add_argument("--instance", required=True)

    p = sub.add_parser("perturb", help="jitter the costs to restore genericity")
    p.add_argument("--instance", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("analyze", help="rigidity stats for an instance/plan pair")
    p.add_argument("--instance", required=True)
    p.add_argument("--plan", required=True)

    p = sub.add_parser("uncross", help="repair crossings without increasing cost")
    p.add_argument("--instance", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("birkhoff", help="decompose a square plan into permutations")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="brute-force minimum over all integral plans")
    p.add_argument("--instance", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("experiment", help="run a preset experiment over seeds")
    p.add_argument("--preset", choices=["fig1", "fig2", "sec22"], required=True)
    p.add_argument("--ell", type=int, default=10)
    p.add_argument("--seeds", type=int, default=10, help="run seeds 0..K-1")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("plot", help="render instance + plan as SVG")
    p.add_argument("--instance", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)

    return ap


def _run(args) -> int:
    cmd = args.command
    if cmd == "solve":
        inst = load_instance(args.instance)
        plan = solve(inst)
        if args.out_plan:
            save_plan_csv(plan, args.out_plan)
        if args.out_stats:
            save_stats_json(stats_dict(plan), args.out_stats)
        print(json.dumps({"objective": objective(inst, plan),
                          "support_size": plan.support_size,
                          "scale": plan.scale}))
        return 0
    if cmd == "gen":
        if args.random_costs:
            inst = inst_mod.gen_random_costs(args.m, args.n, args.seed)
        else:
            dist = "uniform-square" if args.dist == "uniform" else "gaussian"
            inst = inst_mod.gen_point_instance(dist, args.m, args.n, args.p, args.seed)
        save_instance(inst, args.out)
        return 0
    if cmd == "genericity":
        inst = load_instance(args.instance)
        rep = inst_mod.genericity_check(inst)
        print(json.dumps({"generic": rep.generic,
                          "violations": [list(v) for v in rep.violations[:100]],
                          "violation_count": len(rep.violations),
                          "truncated": rep.truncated}))
        return 0
    if cmd == "perturb":
        inst = load_instance(args.instance)
        save_instance(inst_mod.perturb(inst, args.eta, args.seed), args.out)
        return 0
    if cmd == "analyze":
        inst = load_instance(args.instance)
        plan = load_plan_csv(args.plan, m=inst.m, n=inst.n)
        sys.stdout.write(stats_json_text(stats_dict(plan)))
        return 0
    if cmd == "uncross":
        inst = load_instance(args.instance)
        plan = load_plan_csv(args.plan, m=inst.m, n=inst.n)
        repaired = uncross(inst, plan)
        save_plan_csv(repaired, args.out)
        print(json.dumps({"objective_before": objective(inst, plan),
                          "objective_after": objective(inst, repaired),
                          "crossings_removed": pair_counts(plan).crossings}))
        return 0
    if cmd == "birkhoff":
        plan = load_plan_csv(args.plan)
        dec = birkhoff_decompose(plan)
        save_decomposition_json(dec, args.out)
        print(json.dumps({"terms": len(dec.terms)}))
        return 0
    if cmd == "oracle":
        inst = load_instance(args.instance)
        res = brute_force_solve(inst, cap=args.cap)
        print(json.dumps({"min_cost": res.min_cost,
                          "optimal_count": len(res.optimal_plans),
                          "enumerated": res.enumerated_count}))
        return 0
    if cmd == "experiment":
        spec = ExperimentSpec(preset=args.preset, out_dir=args.out_dir,
                              ell=args.ell, seeds=tuple(range(args.seeds)))
        summary = run_experiment(spec)
        print(json.dumps({k: summary[k] for k in
                          ("preset", "m", "n", "fanout_lower_bound",
                           "t_max_excess_histogram", "perturbed_seeds")}))
        return 0
    if cmd == "plot":
        inst = load_instance(args.instance)
        plan = load_plan_csv(args.plan, m=inst.m, n=inst.n)
        emit_svg(inst, plan, args.out)
        return 0
    raise AssertionError(f"unhandled command {cmd}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
