"""File formats: instance JSON, plan CSV, stats JSON, decomposition JSON (written only).

All emitters are deterministic: identical inputs produce byte-identical
files.
"""
from __future__ import annotations

import csv
import json
import math

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
    shape = (data["m"], data["n"])
    if (costs.m, costs.n) != shape or bool in map(type, shape):  # JSON true == 1
        raise ValueError("declared m, n do not match the cost matrix shape")
    geometry = None
    if data.get("geometry") is not None:
        g = data["geometry"]
        if not isinstance(g, dict) or not {"sources", "targets", "p"} <= g.keys():
            raise ValueError("instance geometry must be an object with keys "
                             "sources, targets and p")
        geometry = Geometry(PointCloud(g["sources"]), PointCloud(g["targets"]), g["p"])
    return Instance(costs, geometry)


def save_instance(inst: Instance, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(instance_to_dict(inst)) + "\n")


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
        reader = csv.reader(fh)
        header = next(reader, ())
        if not {"i", "j", "num", "den"} <= set(header):
            raise ValueError("plan CSV header must name the columns i, j, num and den")
        # a repeated column name means its last column
        col = {name: k for k, name in enumerate(header)}
        ci, cj, cnum, cden = col["i"], col["j"], col["num"], col["den"]
        for row in reader:
            if not row:
                continue  # a blank line
            try:
                i, j = int(row[ci]), int(row[cj])
                num, den = int(row[cnum]), int(row[cden])
            except (IndexError, ValueError):  # IndexError: a short row
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


def stats_json_text(stats: dict) -> str:
    """A ``stats_dict`` payload as the stats JSON text: one line, keys sorted."""
    return json.dumps(stats, sort_keys=True) + "\n"


def save_stats_json(stats: dict, path):
    """Write a ``stats_dict`` payload as the stats JSON file."""
    with open(path, "w") as fh:
        fh.write(stats_json_text(stats))


def decomposition_to_dict(dec: PermutationDecomposition) -> dict:
    return {
        "terms": [
            {"perm": list(sigma), "num": w.numerator, "den": w.denominator}
            for sigma, w in dec.terms
        ]
    }


def save_decomposition_json(dec: PermutationDecomposition, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(decomposition_to_dict(dec)) + "\n")
