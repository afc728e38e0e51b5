"""Command-line interface.

Exit codes: 0 success, 1 validation error (a malformed command line
included) or a RuntimeError: ``oracle`` past ``--cap`` (OracleCapExceeded)
or ``solve`` past its pivot limit; 2 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import instance as inst_mod
from .analysis import pair_counts
from .constructions import birkhoff_decompose
from .experiments import ExperimentSpec, run_experiment, solve_and_save
from .io import (
    load_instance,
    load_plan_csv,
    save_decomposition_json,
    save_instance,
    save_plan_csv,
    stats_dict,
    stats_json_text,
)
from .oracle import brute_force_solve, DEFAULT_CAP
from .solver import objective, uncross
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
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--instance", required=True)
    plan = argparse.ArgumentParser(add_help=False)
    plan.add_argument("--plan", required=True)

    p = sub.add_parser("solve", help="solve an instance exactly", parents=[instance])
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

    sub.add_parser("genericity", help="scan for cost quadruple near-ties", parents=[instance])

    p = sub.add_parser("perturb", help="jitter the costs to restore genericity",
                       parents=[instance])
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    sub.add_parser("analyze", help="rigidity stats for an instance/plan pair",
                   parents=[instance, plan])

    p = sub.add_parser("uncross", help="repair crossings without increasing cost",
                       parents=[instance, plan])
    p.add_argument("--out", required=True)

    p = sub.add_parser("birkhoff", help="decompose a square plan into permutations",
                       parents=[plan])
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="brute-force minimum over all integral plans",
                       parents=[instance])
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("experiment", help="run a preset experiment over seeds")
    p.add_argument("--preset", choices=["fig1", "fig2", "sec22"], required=True)
    p.add_argument("--ell", type=int, default=10)
    p.add_argument("--seeds", type=int, default=10, help="run seeds 0..K-1")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("plot", help="render instance + plan as SVG", parents=[instance, plan])
    p.add_argument("--out", required=True)

    return ap


def _run(args) -> int:
    cmd = args.command
    # checked here so that the message names the option, not numpy's argument
    for opt, least in (("m", 1), ("n", 1), ("seed", 0)):
        value = getattr(args, opt, least)
        if value < least:
            raise ValueError(f"--{opt} must be at least {least}, got {value}")
    # the instance is read first, so a missing one is the I/O error even
    # beside a bad plan; without one (birkhoff) the plan's shape is inferred
    inst = plan = None
    if "instance" in args:
        inst = load_instance(args.instance)
    if "plan" in args:
        shape = {} if inst is None else {"m": inst.m, "n": inst.n}
        plan = load_plan_csv(args.plan, **shape)
    if cmd == "solve":
        plan, _ = solve_and_save(inst, args.out_plan, args.out_stats)
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
        rep = inst_mod.genericity_check(inst)
        print(json.dumps({"generic": rep.generic,
                          "violations": [list(v) for v in rep.violations[:100]],
                          "violation_count": len(rep.violations),
                          "truncated": rep.truncated}))
        return 0
    if cmd == "perturb":
        save_instance(inst_mod.perturb(inst, args.eta, args.seed), args.out)
        return 0
    if cmd == "analyze":
        sys.stdout.write(stats_json_text(stats_dict(plan)))
        return 0
    if cmd == "uncross":
        repaired = uncross(inst, plan)
        save_plan_csv(repaired, args.out)
        print(json.dumps({"objective_before": objective(inst, plan),
                          "objective_after": objective(inst, repaired),
                          "crossings_removed": pair_counts(plan).crossings}))
        return 0
    if cmd == "birkhoff":
        dec = birkhoff_decompose(plan)
        save_decomposition_json(dec, args.out)
        print(json.dumps({"terms": len(dec.terms)}))
        return 0
    if cmd == "oracle":
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
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
