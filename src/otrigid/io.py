"""File formats: instance JSON, plan CSV, stats JSON, decomposition JSON.

All emitters are deterministic: identical inputs produce byte-identical
files.
"""
from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

from .analysis import pair_counts, rigidity_report
from .constructions import PermutationDecomposition
from .instance import CostMatrix, Geometry, Instance, PointCloud
from .solver import TransportPlan


def instance_to_dict(inst: Instance) -> dict:
    out = {"m": inst.m, "n": inst.n, "costs": inst.costs.c.tolist()}
    if inst.geometry is not None:
        out["geometry"] = {
            "sources": inst.geometry.sources.points.tolist(),
            "targets": inst.geometry.targets.points.tolist(),
            "p": inst.geometry.p,
        }
    return out


def instance_from_dict(data: dict) -> Instance:
    if not isinstance(data, dict) or not {"m", "n", "costs"} <= data.keys():
        raise ValueError("instance JSON must be an object with keys m, n and costs")
    costs = CostMatrix(data["costs"])
    if costs.m != data["m"] or costs.n != data["n"]:
        raise ValueError("declared m, n do not match the cost matrix shape")
    geometry = None
    if data.get("geometry") is not None:
        g = data["geometry"]
        if not isinstance(g, dict) or not {"sources", "targets", "p"} <= g.keys():
            raise ValueError("instance geometry must be an object with keys "
                             "sources, targets and p")
        geometry = Geometry(
            PointCloud(g["sources"]), PointCloud(g["targets"]), float(g["p"])
        )
    return Instance(costs, geometry)


def save_instance(inst: Instance, path):
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh)
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def plan_csv_lines(plan: TransportPlan):
    """Rows 'i,j,num,den' in (i asc, j asc) order, mass in lowest terms."""
    S = plan.scale
    lines = ["i,j,num,den"]
    for i, j, f in plan.flows:
        g = math.gcd(f, S)
        lines.append(f"{i},{j},{f // g},{S // g}")
    return lines


def save_plan_csv(plan: TransportPlan, path):
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(plan_csv_lines(plan)) + "\n")


def load_plan_csv(path, m=None, n=None, scale=None) -> TransportPlan:
    """Rebuild a plan from CSV; m, n, scale are inferred when omitted.

    m and n are one past the largest indices, and the scale is the smallest
    integer making all masses and both marginals integral.  The plan checks
    its own feasibility, so an infeasible file raises ValueError here.
    """
    masses = []
    with open(path) as fh:
        reader = csv.DictReader(fh)
        if not {"i", "j", "num", "den"} <= set(reader.fieldnames or ()):
            raise ValueError("plan CSV header must name the columns i, j, num and den")
        for row in reader:
            try:
                i, j = int(row["i"]), int(row["j"])
                num, den = int(row["num"]), int(row["den"])
            except (TypeError, ValueError):
                raise ValueError(
                    f"plan CSV line {reader.line_num}: i, j, num, den must be integers"
                ) from None
            if not den:
                raise ValueError(f"plan CSV line {reader.line_num}: den is 0")
            masses.append((i, j, num, den))
    if not masses:
        raise ValueError("plan CSV has no support entries")
    if m is None:
        m = max(i for i, _, _, _ in masses) + 1
    if n is None:
        n = max(j for _, j, _, _ in masses) + 1
    if scale is None:  # lcm of m, n and the lowest-terms denominators
        scale = math.lcm(math.lcm(m, n),
                         *(abs(den) // math.gcd(num, den) for _, _, num, den in masses))
    flows = []
    for i, j, num, den in masses:
        if num * scale % den:
            raise ValueError(f"mass at ({i},{j}) is not integral at scale {scale}")
        flows.append((i, j, num * scale // den))
    return TransportPlan(m, n, scale, tuple(flows))


def stats_dict(plan: TransportPlan) -> dict:
    """The stats JSON payload for a plan."""
    rep = rigidity_report(plan)
    return {
        "m": plan.m,
        "n": plan.n,
        "support_size": rep.support_size,
        "t": list(rep.t),
        "ell": list(rep.ell),
        "t_min": rep.t_min,
        "t_max": rep.t_max,
        "t_mean": rep.support_size / plan.m,
        "ell_mean": rep.support_size / plan.n,
        "bounds": {"b1": rep.bound1_ok, "b2": rep.bound2_ok},
        "crossings": pair_counts(plan).crossings,
    }


def save_stats_json(stats: dict, path):
    """Write a ``stats_dict`` payload as the stats JSON file."""
    with open(path, "w") as fh:
        json.dump(stats, fh, sort_keys=True)
        fh.write("\n")


def decomposition_to_dict(dec: PermutationDecomposition) -> dict:
    return {
        "terms": [
            {"perm": list(sigma), "num": w.numerator, "den": w.denominator}
            for sigma, w in dec.terms
        ]
    }


def decomposition_from_dict(data: dict) -> PermutationDecomposition:
    """Rebuild a decomposition; raises ValueError naming what is malformed."""
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list) or not data["terms"]:
        raise ValueError("decomposition JSON must be an object with a non-empty list terms")
    terms = []
    for k, t in enumerate(data["terms"]):
        if not isinstance(t, dict) or not {"perm", "num", "den"} <= t.keys():
            raise ValueError(f"decomposition term {k} must be an object with keys "
                             "perm, num and den")
        perm, num, den = t["perm"], t["num"], t["den"]
        if not isinstance(perm, list) or type(num) is not int or type(den) is not int or not den:
            raise ValueError(f"decomposition term {k}: perm must be a list, "
                             "num and den ints with den != 0")
        terms.append((tuple(perm), Fraction(num, den)))
    return PermutationDecomposition(n=len(terms[0][0]), terms=tuple(terms))


def save_decomposition_json(dec: PermutationDecomposition, path):
    with open(path, "w") as fh:
        json.dump(decomposition_to_dict(dec), fh)
        fh.write("\n")
