"""How rigid is the optimal plan's fanout?

Each of the m sources must feed at least ceil(n/m) targets. Empirically the
true fanout hugs that lower bound: here 7 sources feed 2000 targets with
random costs, and every fanout lands within a couple of units of
ceil(2000/7) = 286, far below the worst-case bound floor(n/m) + m - 1 = 291.
"""
import math

import otrigid as ot

for seed in range(3):
    inst = ot.gen_random_costs(7, 2000, seed)
    plan = ot.solve(inst)
    rep = ot.rigidity_report(plan)
    print(f"seed {seed}: fanouts {rep.t}  (lower bound {rep.lower}, "
          f"hard upper bound {rep.upper1}, excess over lower {rep.excess})")
    assert rep.bound1_ok and rep.bound2_ok

# the mean fanin bound 1 + m/sqrt(n): most targets hear from a single source
inst = ot.gen_random_costs(7, 2000, 0)
plan = ot.solve(inst)
rep = ot.rigidity_report(plan)
mean_fanin = rep.support_size / inst.n
print(f"\nmean fanin = {mean_fanin:.4f} <= {1 + inst.m / math.sqrt(inst.n):.4f}")
shared = sum(1 for l in rep.ell if l > 1)
print(f"targets fed by more than one source: {shared} of {inst.n}")

# pair counting behind that bound: a source pair shares at most one target
pc = ot.pair_counts(plan)
print(f"max common targets over source pairs: {pc.max_pair_count} "
      f"(total {pc.total} <= C(m,2) = {pc.pair_bound})")
