import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from otrigid import (
    CostMatrix,
    ExperimentSpec,
    Instance,
    PermutationDecomposition,
    TransportPlan,
    cost_from_points,
    gen_points,
    gen_random_costs,
    load_instance,
    load_plan_csv,
    objective,
    pair_counts,
    perturb,
    run_experiment,
    save_instance,
    save_plan_csv,
    solve,
    stats_dict,
)
from otrigid.cli import main
from otrigid.experiments import build_instance
from otrigid.io import (
    plan_csv_lines,
    save_stats_json,
)
from otrigid.svg import emit_svg, svg_document


def test_instance_json_roundtrip(tmp_path):
    x = gen_points("uniform-square", 3, 2, 0)
    y = gen_points("gaussian", 4, 2, 1)
    inst = cost_from_points(x, y, 2.0)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert np.array_equal(back.costs.c, inst.costs.c)
    assert back.geometry.p == 2.0
    assert np.array_equal(back.geometry.sources.points, x.points)


def test_instance_json_schema(tmp_path):
    inst = gen_random_costs(2, 3, 0)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    data = json.loads(path.read_text())
    assert data["m"] == 2 and data["n"] == 3
    assert len(data["costs"]) == 2 and len(data["costs"][0]) == 3
    assert data.get("geometry") is None


def test_plan_csv_format_and_roundtrip(tmp_path):
    inst = Instance(CostMatrix(np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]])))
    plan = solve(inst)
    lines = plan_csv_lines(plan)
    assert lines[0] == "i,j,num,den"
    assert lines[1] == "0,0,1,3"  # mass 2/6 in lowest terms
    path = tmp_path / "plan.csv"
    save_plan_csv(plan, path)
    back = load_plan_csv(path, m=2, n=3, scale=6)
    assert back == plan
    inferred = load_plan_csv(path)
    assert inferred.flows == plan.flows and inferred.scale == plan.scale


def test_plan_csv_load_reduces_masses(tmp_path):
    # masses need not be in lowest terms, and a negative den moves the sign
    # to the mass, as a Fraction would
    path = tmp_path / "plan.csv"
    path.write_text("i,j,num,den\n0,0,2,8\n0,1,-1,-4\n1,0,3,36\n1,1,-1,-12\n1,2,1,3\n")
    plan = load_plan_csv(path)
    assert plan.scale == 12
    assert plan.flows == ((0, 0, 3), (0, 1, 3), (1, 0, 1), (1, 1, 1), (1, 2, 4))
    with pytest.raises(ValueError, match=r"mass at \(0,0\) is not integral at scale 6"):
        load_plan_csv(path, m=2, n=3, scale=6)
    # a zero mass, or one made negative by its den, is no support entry
    for body in ("i,j,num,den\n0,0,1,2\n0,1,0,5\n1,1,1,2\n",
                 "i,j,num,den\n0,0,1,-2\n1,1,1,2\n"):
        path.write_text(body)
        with pytest.raises(ValueError, match="must be a positive integer"):
            load_plan_csv(path)


def test_plan_csv_load_rejects_infeasible(tmp_path):
    # the plan checks its own feasibility, so a bad file fails at load
    path = tmp_path / "plan.csv"
    for body, match in (("i,j,num,den\n0,0,1,2\n1,1,1,4\n1,0,1,4\n", "not exactly"),
                        ("i,j,num,den\n0,0,1,4\n0,0,1,4\n1,1,1,2\n", "duplicate"),
                        ("i,j,num,den\n-1,-1,1,1\n", "at least 1"),
                        ("i,j,num\n0,0,1\n", "columns i, j, num and den")):
        path.write_text(body)
        with pytest.raises(ValueError, match=match):
            load_plan_csv(path)
    path.write_text("i,j,num,den\n0,1,1,1\n")
    with pytest.raises(ValueError, match="out of range"):
        load_plan_csv(path, m=1, n=1)


def _load_plan_csv_dictreader(path, m=None, n=None, scale=None):
    # the csv.DictReader reader that load_plan_csv must match, message and
    # line number included
    import csv

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
    if scale is None:
        scale = math.lcm(math.lcm(m, n),
                         *(abs(den) // math.gcd(num, den) for _, _, num, den in masses))
    flows = []
    for i, j, num, den in masses:
        if num * scale % den:
            raise ValueError(f"mass at ({i},{j}) is not integral at scale {scale}")
        flows.append((i, j, num * scale // den))
    return TransportPlan(m, n, scale, tuple(flows))


PLAN_CSV_EDGE_CASES = {
    "plain": "i,j,num,den\n0,0,1,2\n1,1,1,2\n",
    "blank lines": "i,j,num,den\n\n0,0,1,2\n\n\n1,1,1,2\n\n",
    "blank lines, then a short row": "i,j,num,den\n0,0,1,2\n\n\n1,1,1\n",
    "blank lines, then den 0": "i,j,num,den\n0,0,1,2\n\n1,1,1,0\n",
    "crlf": "i,j,num,den\r\n0,0,1,2\r\n\r\n1,1,1,2\r\n",
    "reordered and extra columns": "den,x,j,num,i\n2,a,0,1,0\n2,b,1,1,1\n",
    "extra column, short row": "i,j,num,den,x\n0,0,1,2\n1,1,1,2,z,extra\n",
    "duplicated column": "i,j,num,den,j\n0,5,1,2,0\n1,5,1,2,1\n",
    "duplicated column, short row": "i,j,num,den,i\n0,0,1,2,0\n1,1,1,2\n",
    "short row": "i,j,num,den\n0,0,1,2\n1,1\n",
    "header only": "i,j,num,den\n",
    "empty file": "",
    "blank header": "\ni,j,num,den\n0,0,1,1\n",
    "quoted numbers": 'i,j,num,den\n"0","0","1","2"\n1,1,"1",2\n',
    "quoted field over two lines": 'i,j,num,den\n0,0,1,"2\n"\n1,x,1,2\n',
    "not a number": "i,j,num,den\n0,0,1,2\n1,1,one,2\n",
}


@pytest.mark.parametrize("body", PLAN_CSV_EDGE_CASES.values(), ids=PLAN_CSV_EDGE_CASES.keys())
def test_plan_csv_load_matches_dictreader(tmp_path, body):
    path = tmp_path / "plan.csv"
    path.write_bytes(body.encode())
    results = []
    for load in (load_plan_csv, _load_plan_csv_dictreader):
        try:
            results.append(load(path))
        except ValueError as exc:
            results.append(str(exc))
    assert results[0] == results[1]


def test_plan_csv_reread_marginals(tmp_path):
    inst = gen_random_costs(4, 10, 5)
    plan = solve(inst)
    path = tmp_path / "plan.csv"
    save_plan_csv(plan, path)
    # independent re-reader: sum num/den per row and column
    from fractions import Fraction

    rows = {}
    cols = {}
    for line in path.read_text().splitlines()[1:]:
        i, j, num, den = map(int, line.split(","))
        rows[i] = rows.get(i, Fraction(0)) + Fraction(num, den)
        cols[j] = cols.get(j, Fraction(0)) + Fraction(num, den)
    assert all(rows[i] == Fraction(1, 4) for i in range(4))
    assert all(cols[j] == Fraction(1, 10) for j in range(10))


def test_stats_json_roundtrip(tmp_path):
    plan = solve(gen_random_costs(3, 8, 1))
    path = tmp_path / "stats.json"
    save_stats_json(stats_dict(plan), path)
    first = path.read_bytes()
    data = json.loads(first)
    assert data["m"] == 3 and data["n"] == 8
    assert sum(data["t"]) == data["support_size"] == sum(data["ell"])
    assert set(data) == {"m", "n", "support_size", "t", "ell", "t_min", "t_max",
                         "t_mean", "ell_mean", "split_targets", "max_split"}
    # re-emit from parsed values must be byte-identical
    reemitted = (json.dumps(data, sort_keys=True) + "\n").encode()
    assert reemitted == first


def test_decomposition_rejects_non_permutations():
    half = Fraction(1, 2)
    for n, terms in ((0, ()), (2.0, (((0, 1), Fraction(1)),)), (2, (((0, 1), 1),)),
                     (2, (((0, 1), half), ((0, 0), half))),
                     (2, (((0, 5), Fraction(1)),)), (2, (((0.0, 1), Fraction(1)),)),
                     (2, (((0, 1), Fraction(3, 2)), ((1, 0), -half))),
                     (2, (((0, 1), half),))):
        with pytest.raises(ValueError):
            PermutationDecomposition(n=n, terms=terms)
    dec = PermutationDecomposition(2, (((0, 1), Fraction(1, 2)), ((1, 0), Fraction(1, 2))))
    assert (dec.recombine().sum(axis=0) == 1).all()


def test_svg_1x1():
    x = cost_from_points(
        gen_points("uniform-square", 1, 2, 0), gen_points("uniform-square", 1, 2, 1), 1.0
    )
    plan = solve(x)
    doc = svg_document(x, plan)
    assert doc.count("<line") == 1
    assert 'stroke-width="4.000"' in doc
    assert doc.count('fill="red"') == 1
    assert doc.count('fill="blue"') == 1


def test_svg_deterministic(tmp_path):
    x = gen_points("uniform-square", 5, 2, 3)
    y = gen_points("uniform-square", 8, 2, 4)
    inst = cost_from_points(x, y, 2.0)
    plan = solve(inst)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg(inst, plan, p1)
    emit_svg(inst, plan, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert svg_document(inst, plan).count("<line") == plan.support_size


# sha256 over svg_document of the fig1 ell=10 s0-9 plans, in seed order,
# recorded from the per-point mapping; the SVG bytes must not change
SVG_DIGEST = "ffdca4d0d1ac8493b901b8427dea4e1cf136e120d4df7192850d14d33f26afb9"


def test_svg_digest():
    spec = ExperimentSpec("fig1", out_dir="", ell=10)
    h = hashlib.sha256()
    for seed in range(10):
        inst = build_instance(spec, seed)
        h.update(svg_document(inst, solve(inst)).encode())
    assert h.hexdigest() == SVG_DIGEST


# sha256 over the files run_experiment writes for fig1 ell=10 s0-9 (plan CSVs,
# stats JSON, SVGs and summary.json), each as name, NUL, bytes, in name order;
# the emitted bytes must not change
EXPERIMENT_DIGEST = "9007d498b90e8b46c787a56d110441e7852ef3794020464c86ae42b77441795f"


# The same over the files run_experiment writes for sec22 s0-2 (plan CSVs,
# stats JSON and summary.json; random costs have no SVG)
SEC22_EXPERIMENT_DIGEST = "bef7cd2cb3e1b14eb6865a365472b1b6b31230662fa4e6c65d9af6de8c9a53c5"


def _output_digest(out_dir):
    h = hashlib.sha256()
    files = sorted(out_dir.iterdir())
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return len(files), h.hexdigest()


def test_experiment_output_digest(tmp_path):
    run_experiment(ExperimentSpec("fig1", out_dir=str(tmp_path), ell=10))
    assert _output_digest(tmp_path) == (31, EXPERIMENT_DIGEST)


def test_experiment_output_digest_sec22(tmp_path):
    run_experiment(ExperimentSpec("sec22", out_dir=str(tmp_path), seeds=(0, 1, 2)))
    assert _output_digest(tmp_path) == (7, SEC22_EXPERIMENT_DIGEST)


# fig1 ell=10 seed 0's stats JSON, byte for byte: the payload it had with
# "bounds": {"b1": true, "b2": true, "b3": true}, less that block, and with
# "split_targets" and "max_split" in place of "crossings": 0
FIG1_S0_STATS = (
    '{"ell": [1, 2, 1, 1, 2, 1, 1, 1, 1, 1, 2, 1, 2, 1, 2, 1, 2, 2, 1, 1, '
    '2, 1, 1, 1, 1, 2, 1, 2, 1, 2], "ell_mean": 1.3666666666666667, "m": '
    '20, "max_split": 3, "n": 30, "split_targets": 11, "support_size": 41, '
    '"t": [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 2, 2, 2, 2, 2], '
    '"t_max": 3, "t_mean": 2.05, "t_min": 2}\n'
)


def test_stats_json_is_old_payload_without_b3(tmp_path):
    run_experiment(ExperimentSpec("fig1", out_dir=str(tmp_path), ell=10, seeds=(0,)))
    assert (tmp_path / "seed0000_stats.json").read_text() == FIG1_S0_STATS


def test_svg_requires_2d_geometry():
    inst = gen_random_costs(2, 2, 0)
    with pytest.raises(ValueError):
        svg_document(inst, solve(inst))
    x = gen_points("uniform-square", 2, 3, 0)
    inst3 = cost_from_points(x, gen_points("uniform-square", 2, 3, 1), 2.0)
    with pytest.raises(ValueError):
        svg_document(inst3, solve(inst3))


def test_experiment_fig1_record(tmp_path):
    spec = ExperimentSpec(preset="fig1", out_dir=str(tmp_path / "fig1"),
                          ell=10, seeds=(0,))
    summary = run_experiment(spec)
    assert summary["m"] == 20 and summary["n"] == 30
    rec = summary["records"][0]
    assert rec["stats"]["support_size"] <= 20 + 30 - 1  # a vertex plan's forest
    out = tmp_path / "fig1"
    assert (out / "seed0000_plan.csv").exists()
    assert (out / "seed0000_stats.json").exists()
    assert (out / "seed0000.svg").exists()
    assert (out / "summary.json").exists()


def test_experiment_deterministic(tmp_path):
    spec_a = ExperimentSpec(preset="fig1", out_dir=str(tmp_path / "a"),
                            ell=3, seeds=(0, 1))
    spec_b = ExperimentSpec(preset="fig1", out_dir=str(tmp_path / "b"),
                            ell=3, seeds=(0, 1))
    sa = run_experiment(spec_a)
    sb = run_experiment(spec_b)
    assert json.dumps(sa, sort_keys=True) == json.dumps(sb, sort_keys=True)
    for name in ("seed0000_plan.csv", "seed0001_stats.json", "seed0000.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_seed_computes_stats_once(tmp_path, monkeypatch):
    from otrigid import experiments, io

    calls = []
    real = io.rigidity_report

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(io, "rigidity_report", counted)
    spec = ExperimentSpec(preset="fig1", out_dir=str(tmp_path), ell=3)
    record = experiments.run_seed(spec, 0, spec.out_dir)
    assert len(calls) == 1
    stats = json.loads((tmp_path / "seed0000_stats.json").read_text())
    assert stats == record["stats"]


def test_experiment_spec_rejects_other_presets():
    for preset in ("custom", "fig3"):
        with pytest.raises(ValueError, match="unknown preset"):
            ExperimentSpec(preset, out_dir="")


def test_experiment_spec_preset_shapes():
    # the presets fix their own sizes; nothing is solved here
    def shape(spec):
        return spec.m, spec.n, spec.p, spec.random_costs

    assert shape(ExperimentSpec("fig2", out_dir="")) == (50, 2222, 2.0, False)
    assert shape(ExperimentSpec("sec22", out_dir="")) == (7, 2000, 2.0, True)
    assert shape(ExperimentSpec("fig1", out_dir="", ell=4)) == (8, 12, 1.0, False)


def test_experiment_perturbs_on_genericity_violation(tmp_path, monkeypatch):
    # all-zero costs tie every quadruple
    spec = ExperimentSpec(preset="fig1", out_dir=str(tmp_path / "d"),
                          ell=2, seeds=(0,))
    from otrigid import experiments

    def degenerate(spec_, seed):
        return Instance(CostMatrix(np.zeros((spec_.m, spec_.n))))

    monkeypatch.setattr(experiments, "build_instance", degenerate)
    summary = run_experiment(spec)
    assert summary["perturbed_seeds"] == [0]
    assert summary["records"][0]["generic"]


def test_cli_end_to_end(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    plan_path = tmp_path / "plan.csv"
    stats_path = tmp_path / "stats.json"
    assert main(["gen", "--dist", "uniform", "--m", "4", "--n", "6",
                 "--p", "1", "--seed", "3", "--out", str(inst_path)]) == 0
    assert main(["solve", "--instance", str(inst_path),
                 "--out-plan", str(plan_path), "--out-stats", str(stats_path)]) == 0
    solved = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert solved["scale"] == 12
    assert main(["genericity", "--instance", str(inst_path)]) == 0
    scan = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert scan["truncated"] is False
    assert list(scan) == ["generic", "violations", "violation_count", "truncated"]
    assert main(["analyze", "--instance", str(inst_path), "--plan", str(plan_path)]) == 0
    # analyze prints the bytes that solve --out-stats writes
    assert capsys.readouterr().out == stats_path.read_text()
    svg_path = tmp_path / "out.svg"
    assert main(["plot", "--instance", str(inst_path), "--plan", str(plan_path),
                 "--out", str(svg_path)]) == 0
    assert svg_path.read_text().startswith("<svg")
    out_path = tmp_path / "uncrossed.csv"
    assert main(["uncross", "--instance", str(inst_path), "--plan", str(plan_path),
                 "--out", str(out_path)]) == 0


def _product_plan(m, n):
    return TransportPlan(m, n, m * n, tuple((i, j, 1) for i in range(m) for j in range(n)))


def test_pair_counts_counts_crossings_without_listing_them():
    # the all-ones 40x41 plan has C(40,2) * C(41,2) crossings; listing them
    # peaked at ~74 MB, counting them from the source pairs takes under 1
    plan = _product_plan(40, 41)
    tracemalloc.start()
    try:
        crossings = pair_counts(plan).crossings
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert crossings == math.comb(40, 2) * math.comb(41, 2) == 639600
    assert peak < 10 * 2**20


def test_cli_on_dense_product_plan(tmp_path, capsys):
    inst = gen_random_costs(40, 41, 3)
    plan = _product_plan(40, 41)
    inst_path, plan_path = tmp_path / "inst.json", tmp_path / "plan.csv"
    save_instance(inst, inst_path)
    save_plan_csv(plan, plan_path)
    assert main(["analyze", "--instance", str(inst_path), "--plan", str(plan_path)]) == 0
    # every target is split, and every source shares all 41 of them
    assert capsys.readouterr().out == json.dumps({
        "ell": [40] * 41, "ell_mean": 40.0, "m": 40, "max_split": 41, "n": 41,
        "split_targets": 41, "support_size": 1640,
        "t": [41] * 40, "t_max": 41, "t_mean": 41.0, "t_min": 41,
    }) + "\n"
    out_path = tmp_path / "uncrossed.csv"
    assert main(["uncross", "--instance", str(inst_path), "--plan", str(plan_path),
                 "--out", str(out_path)]) == 0
    repaired = load_plan_csv(out_path, m=40, n=41)
    assert capsys.readouterr().out == json.dumps({
        "objective_before": objective(inst, plan),
        "objective_after": objective(inst, repaired),
        "crossings_removed": 639600,
    }) + "\n"


def test_cli_birkhoff_and_oracle(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    plan_path = tmp_path / "plan.csv"
    dec_path = tmp_path / "dec.json"
    assert main(["gen", "--random-costs", "--m", "3", "--n", "3",
                 "--seed", "1", "--out", str(inst_path)]) == 0
    assert main(["solve", "--instance", str(inst_path),
                 "--out-plan", str(plan_path)]) == 0
    assert main(["birkhoff", "--plan", str(plan_path), "--out", str(dec_path)]) == 0
    dec = json.loads(dec_path.read_text())
    assert len(dec["terms"]) == 1
    assert main(["oracle", "--instance", str(inst_path)]) == 0
    res = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert res["enumerated"] == 6  # 3x3 permutations


def test_cli_experiment(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--preset", "fig1", "--ell", "2",
                 "--seeds", "2", "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["m"] == 4 and summary["n"] == 6
    assert len(summary["records"]) == 2


def test_cli_experiment_rejects_ell_below_one(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    for ell in ("0", "-3"):
        assert main(["experiment", "--preset", "fig1", "--ell", ell,
                     "--seeds", "1", "--out-dir", str(out_dir)]) == 1
        assert "ell must be at least 1" in capsys.readouterr().err
        assert not out_dir.exists()


def test_cli_experiment_rejects_empty_or_negative_seeds(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    for seeds in ("0", "-2"):
        assert main(["experiment", "--preset", "fig1", "--ell", "1",
                     "--seeds", seeds, "--out-dir", str(out_dir)]) == 1
        assert "seeds must not be empty" in capsys.readouterr().err
        assert not out_dir.exists()
    # seed 0 comes first, so nothing may be written before -1 is refused
    with pytest.raises(ValueError, match="seeds must be non-negative, got -1"):
        run_experiment(ExperimentSpec("fig1", out_dir=str(out_dir), ell=1, seeds=(0, -1)))
    assert not out_dir.exists()


def test_cli_oracle_cap_counts_tables(tmp_path, capsys):
    # a 3x4 instance has exactly 415 integral plans
    inst_path = tmp_path / "x.json"
    assert main(["gen", "--random-costs", "--m", "3", "--n", "4",
                 "--out", str(inst_path)]) == 0
    assert main(["oracle", "--instance", str(inst_path), "--cap", "415"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["enumerated"] == 415
    assert main(["oracle", "--instance", str(inst_path), "--cap", "414"]) == 1
    assert "more than 414 integral plans" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["solve", "--instance", str(tmp_path / "missing.json")]) == 2
    inst_path = tmp_path / "inst.json"
    # m = 0: validation error
    assert main(["gen", "--random-costs", "--m", "0", "--n", "7",
                 "--seed", "0", "--out", str(inst_path)]) == 1
    assert not inst_path.exists()
    # costs beyond MAX_ABS_COST: validation error, not a silent wrong verdict
    huge_path = tmp_path / "huge.json"
    huge_path.write_text(json.dumps({"m": 2, "n": 2,
                                     "costs": [[1e308, 1e308], [-1e308, -1e308]]}))
    for cmd in ("genericity", "solve"):
        assert main([cmd, "--instance", str(huge_path)]) == 1
    # malformed plan CSV rows: validation error, not a traceback
    inst_path = tmp_path / "one.json"
    save_instance(Instance(CostMatrix(np.zeros((1, 1)))), inst_path)
    for name, body in (("zero_den", "i,j,num,den\n0,0,1,0\n"),
                       ("short_row", "i,j,num,den\n0,0,1\n"),
                       ("not_int", "i,j,num,den\n0,0,x,1\n")):
        plan_path = tmp_path / f"{name}.csv"
        plan_path.write_text(body)
        out = str(tmp_path / f"{name}.out")
        assert main(["birkhoff", "--plan", str(plan_path), "--out", out]) == 1
        assert main(["analyze", "--instance", str(inst_path),
                     "--plan", str(plan_path)]) == 1
        assert main(["uncross", "--instance", str(inst_path),
                     "--plan", str(plan_path), "--out", out]) == 1
        assert not os.path.exists(out)
    # a plan of no source and no target, an infeasible plan and a header
    # without den: a message that names the problem, not a traceback
    for name, body, says in (("empty_shape", "i,j,num,den\n-1,-1,1,1\n", "at least 1"),
                             ("infeasible", "i,j,num,den\n0,0,1,2\n", "not exactly"),
                             ("no_den", "i,j,num\n0,0,1\n", "columns i, j, num and den")):
        plan_path = tmp_path / f"{name}.csv"
        plan_path.write_text(body)
        out = str(tmp_path / f"{name}.out")
        capsys.readouterr()
        assert main(["birkhoff", "--plan", str(plan_path), "--out", out]) == 1
        assert says in capsys.readouterr().err
        assert main(["analyze", "--instance", str(inst_path), "--plan", str(plan_path)]) == 1
        assert not os.path.exists(out)
    # a malformed instance JSON: not an object, a geometry that is not one,
    # p that is not a number, costs or points that are not numbers (JSON
    # strings and booleans included), or clouds of different dimensions
    def with_geometry(p=2.0, sources=((0.0, 0.0),)):
        return {"m": 1, "n": 1, "costs": [[0.0]],
                "geometry": {"sources": sources, "targets": [[0.0, 0.0]], "p": p}}

    for name, data, says in (
            ("null", None, "must be an object"),
            ("list", [], "must be an object"),
            ("geometry", {"m": 1, "n": 1, "costs": [[0.0]], "geometry": 5},
             "must be an object"),
            ("p_null", with_geometry(p=None), "exponent p"),
            ("p_list", with_geometry(p=[2]), "exponent p"),
            ("p_true", with_geometry(p=True), "exponent p"),
            ("cost_objects", {"m": 1, "n": 1, "costs": [[{}]]}, "must be numbers"),
            ("cost_str_bool", {"m": 1, "n": 2, "costs": [["0.5", True]]}, "must be numbers"),
            ("cost_null", {"m": 1, "n": 1, "costs": [[None]]}, "must be numbers"),
            ("m_true", {"m": True, "n": 1, "costs": [[0.5]]}, "declared m, n"),
            ("point_strings", with_geometry(sources=[["0", "0"]]), "must be numbers"),
            ("point_bool", with_geometry(sources=[[True, 0]]), "must be numbers"),
            ("dim_3_2", with_geometry(sources=[[0.0, 0.0, 0.0]]), "dimension mismatch")):
        bad_path = tmp_path / f"{name}.json"
        bad_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["solve", "--instance", str(bad_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and says in err, err
    # a malformed command line is a validation error too, not the I/O code;
    # genericity has no --tol, its cut is the instance's costs.tie
    for argv in (["genericity", "--instance", str(inst_path), "--tol", "1e-12"],
                 ["solve", "--out-plan", str(tmp_path / "never.csv")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
    assert not (tmp_path / "never.csv").exists()
    # plan indices outside the instance: validation error, not a wrong
    # drawing (i = -1) or a traceback (i >= m)
    geo_path = tmp_path / "geo.json"
    save_instance(cost_from_points(gen_points("uniform-square", 2, 2, 0),
                                   gen_points("uniform-square", 3, 2, 1), 1.0), geo_path)
    for name, body in (("negative_i", "i,j,num,den\n-1,0,1,2\n1,1,1,2\n"),
                       ("i_too_big", "i,j,num,den\n0,0,1,2\n2,1,1,2\n")):
        plan_path = tmp_path / f"{name}.csv"
        plan_path.write_text(body)
        out = str(tmp_path / f"{name}.svg")
        assert main(["plot", "--instance", str(geo_path),
                     "--plan", str(plan_path), "--out", out]) == 1
        assert not os.path.exists(out)


def test_cli_perturb_at_cost_bound(tmp_path):
    inst_path = tmp_path / "inst.json"
    out_path = tmp_path / "perturbed.json"
    save_instance(Instance(CostMatrix(np.full((2, 2), 2.0**996))), inst_path)
    assert main(["perturb", "--instance", str(inst_path), "--eta", "1e-9",
                 "--seed", "0", "--out", str(out_path)]) == 0
    costs = load_instance(out_path).costs.c
    assert np.all(costs <= 2.0**996) and len(np.unique(costs)) == 4


def test_perturb_rejects_eta_not_positive_and_finite(tmp_path, capsys):
    inst = gen_random_costs(2, 3, 0)
    for eta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            perturb(inst, eta, 0)
    inst_path, out_path = tmp_path / "inst.json", tmp_path / "perturbed.json"
    save_instance(inst, inst_path)
    assert main(["perturb", "--instance", str(inst_path), "--eta", "nan",
                 "--out", str(out_path)]) == 1
    assert capsys.readouterr().err == "error: eta must be positive and finite\n"
    assert not out_path.exists()


def test_cli_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["gen", "--dist", "gaussian", "--m", "3", "--n", "5",
                     "--p", "2", "--seed", "9", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_star_import_resolves_all():
    import otrigid

    namespace = {}
    exec("from otrigid import *", namespace)
    for name in otrigid.__all__:
        assert namespace[name] is getattr(otrigid, name)


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((REPO / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
