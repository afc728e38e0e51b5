"""Solve a small transport instance exactly and inspect the plan.

20 uniform sources, 30 uniform targets, W1 cost. The optimal plan lives at
integer scale S = lcm(20, 30) = 60: each source ships 3 units, each target
absorbs 2.
"""
import otrigid as ot

x = ot.gen_points("uniform-square", 20, 2, seed=0)
y = ot.gen_points("uniform-square", 30, 2, seed=1)
inst = ot.cost_from_points(x, y, p=1.0)

plan = ot.solve(inst)
print(f"scale S = {plan.scale}, support size = {plan.support_size} "
      f"(<= m + n - 1 = {inst.m + inst.n - 1})")
print(f"objective = {ot.objective(inst, plan):.6f}")

# every support entry is an integer number of units
for i, j, f in plan.flows[:5]:
    print(f"  source {i} -> target {j}: {f}/60 of total mass")
print("  ...")

# the solver's answer carries an LP dual certificate
cert = ot.verify_optimality(inst, plan)
print("optimality certified:", cert is not None)

# and, being optimal under generic costs, it contains no crossing:
# no two sources both send mass to the same two targets
print("crossings:", ot.pair_counts(plan).crossings)

ot.emit_svg(inst, plan, "demo_plan.svg")
print("wrote demo_plan.svg")
