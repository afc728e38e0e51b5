"""The benchmark's workloads: seeded sets of items, the calls an item makes into
otrigid, and the gate that checks each item's outputs.

Every call into the package goes through a module attribute (``solver.solve``,
not a name imported here), so a traced run can wrap it in a span.
"""
from __future__ import annotations

import hashlib
import math
import os
import shutil
from fractions import Fraction

from otrigid import analysis, constructions, experiments, instance, io, oracle, solver

# Experiment seeds of one run are SEED_STRIDE * seed + k for item k, so runs
# with different --seed values never share an item.
SEED_STRIDE = 10**9

# Distinct items of one run. A run takes them round after round until its
# time is up, so each item is timed several times; see run.py.
EXPERIMENT_ITEMS = 16
AUDIT_COPIES = 12  # seeded copies of every tiny-audit shape

# Tiny-audit shapes.
ORACLE_SHAPES = [(m, n) for m in (2, 3) for n in (2, 3, 4)]
UNCROSS_SIZES = range(2, 30)  # n x (n+1) product couplings
BIRKHOFF_SIZES = range(2, 14)  # n x n solves
COPY_STRIDE = 100  # item seeds per copy, more than the shapes in one

OBJECTIVE_REL_TOL = 1e-9

# Bound before any span wrapper is installed: re-applying run_seed's
# perturbation for the checks must not count as a perturb call of the program.
_perturb = instance.perturb


def certify(inst, plan, what, fails, tr):
    """Gate for a plan claimed optimal: exact feasibility and a dual certificate."""
    try:
        plan.validate()
    except ValueError as exc:
        fails.append(f"{what}: infeasible plan: {exc}")
        return
    try:
        cert = solver.verify_optimality(inst, plan)
    except solver.SupportCycleError as exc:
        cert = None
        fails.append(f"{what}: support is not a forest: {exc}")
    if cert is None:
        tr.count("solver.certify_fail")
        fails.append(f"{what}: no optimality certificate")


def plan_digest(plan) -> str:
    return hashlib.sha256(("\n".join(io.plan_csv_lines(plan)) + "\n").encode()).hexdigest()


class ExperimentWorkload:
    """One item is run_seed on a preset, then the emitted plan is reloaded and
    certified, and gcd_construct runs on the same instance.

    An item is its experiment seed and the instance the checks use. run_seed
    builds the same instance again inside the timed call; this copy is made
    in set-up, so the checks add nothing to instance.build.
    """

    def __init__(self, seed, preset, ell):
        self.spec = experiments.ExperimentSpec(preset, out_dir="", ell=ell).resolved()
        self.items = [
            (exp_seed, experiments.build_instance(self.spec, exp_seed))
            for exp_seed in range(SEED_STRIDE * seed, SEED_STRIDE * seed + EXPERIMENT_ITEMS)
        ]

    def run(self, item, workdir, tr):
        exp_seed, inst = item
        out = os.path.join(workdir, f"item{exp_seed}")
        os.makedirs(out)
        try:
            return self._run(exp_seed, inst, out, tr)
        finally:
            shutil.rmtree(out)

    def _run(self, exp_seed, inst, out, tr):
        fails = []
        record = experiments.run_seed(self.spec, exp_seed, out)
        if record["perturbed"]:
            inst = _perturb(inst, instance.DEFAULT_PERTURB_ETA, exp_seed)
        csv_paths = []
        for fname in sorted(os.listdir(out)):
            path = os.path.join(out, fname)
            size = os.path.getsize(path)
            tr.count("svg.bytes_written" if fname.endswith(".svg") else "io.bytes_written", size)
            if fname.endswith(".csv"):
                csv_paths.append(path)
        if len(csv_paths) != 1:
            fails.append(f"expected one plan CSV, found {len(csv_paths)}")
            return None, fails
        with open(csv_paths[0], "rb") as fh:
            digest = hashlib.sha256(fh.read())
        plan = io.load_plan_csv(csv_paths[0], inst.m, inst.n, inst.scale)
        certify(inst, plan, "solve", fails, tr)
        if record["stats"]["support_size"] != plan.support_size:
            fails.append("stats support_size disagrees with the emitted plan")
        gplan = self._check_gcd(inst, plan, fails, tr)
        digest.update(plan_digest(gplan).encode())
        return digest.hexdigest(), fails

    def _check_gcd(self, inst, plan, fails, tr):
        gplan = constructions.gcd_construct(inst)
        certify(inst, gplan, "gcd_construct", fails, tr)
        want = solver.objective(inst, plan)
        got = solver.objective(inst, gplan)
        if not math.isclose(got, want, rel_tol=OBJECTIVE_REL_TOL, abs_tol=OBJECTIVE_REL_TOL):
            fails.append(f"gcd objective {got!r} differs from solve objective {want!r}")
        g = math.gcd(inst.m, inst.n)
        rep = analysis.rigidity_report(gplan)
        if rep.t_max > inst.n // g or max(rep.ell) > inst.m // g:
            fails.append(
                f"gcd bounds broken: fanout {rep.t_max} > {inst.n // g} "
                f"or fanin {max(rep.ell)} > {inst.m // g}"
            )
        return gplan


class TinyAuditWorkload:
    """Tiny items, AUDIT_COPIES seeded copies of every shape: solve checked
    against the brute-force oracle, uncross of the product coupling, and
    Birkhoff decomposition of square solves. An item is a label (kind, m, n,
    item seed) and its instance."""

    def __init__(self, seed):
        shapes = [("oracle", m, n) for m, n in ORACLE_SHAPES]
        shapes += [("uncross", n, n + 1) for n in UNCROSS_SIZES]
        shapes += [("birkhoff", n, n) for n in BIRKHOFF_SIZES]
        self.items = []
        for copy in range(AUDIT_COPIES):
            base = SEED_STRIDE * seed + COPY_STRIDE * copy
            self.items += [
                ((kind, m, n, base + k), instance.gen_random_costs(m, n, base + k))
                for k, (kind, m, n) in enumerate(shapes)
            ]

    def run(self, item, workdir, tr):
        fails = []
        (kind, _, _, _), inst = item
        if kind == "oracle":
            plan = solver.solve(inst)
            certify(inst, plan, "solve", fails, tr)
            truth = oracle.brute_force_solve(inst)
            tr.count("oracle.plans_enumerated", truth.enumerated_count)
            if plan not in truth.optimal_plans:
                fails.append("solve plan is not among the oracle's optimal plans")
        elif kind == "uncross":
            plan = self._check_uncross(inst, fails, tr)
        else:
            plan = solver.solve(inst)
            certify(inst, plan, "solve", fails, tr)
            dec = constructions.birkhoff_decompose(plan)
            tr.count("constructions.birkhoff_terms", len(dec.terms))
            self._check_birkhoff(plan, dec, fails)
        return plan_digest(plan), fails

    @staticmethod
    def _check_uncross(inst, fails, tr):
        m, n = inst.m, inst.n
        product = solver.TransportPlan(
            m, n, inst.scale, tuple((i, j, inst.scale // (m * n)) for i in range(m) for j in range(n))
        )
        plan = solver.uncross(inst, product)
        try:
            plan.validate()
        except ValueError as exc:
            fails.append(f"uncross: infeasible plan: {exc}")
        tr.count("solver.uncross_support_removed", product.support_size - plan.support_size)
        if solver.find_crossings(plan):
            fails.append("uncross output still has crossings")
        before = solver.scaled_objective(inst, product)
        after = solver.scaled_objective(inst, plan)
        if after > before + OBJECTIVE_REL_TOL * max(abs(before), 1.0):
            fails.append(f"uncross raised the cost from {before!r} to {after!r}")
        # a crossing-free plan has at most one common target per source pair
        if analysis.pair_counts(plan).max_pair_count > 1:
            fails.append("pair_counts finds a source pair sharing two targets")
        return plan

    @staticmethod
    def _check_birkhoff(plan, dec, fails):
        unit = plan.scale // plan.n
        dense = dec.recombine()
        want = {(i, j): Fraction(f, unit) for i, j, f in plan.flows}
        for i in range(plan.n):
            for j in range(plan.n):
                if dense[i, j] != want.get((i, j), 0):
                    fails.append(f"Birkhoff terms do not recombine at ({i},{j})")
                    return


WORKLOADS = {
    "fig1-gcd": lambda seed: ExperimentWorkload(seed, "fig1", ell=20),
    "tiny-audit": TinyAuditWorkload,
}
