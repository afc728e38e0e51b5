"""Square plans are permutations; rectangular ones are still nearly so.

With m = n the exact solver returns a bijection outright. With m != n every
integral plan at scale lcm(m, n) has fanout <= n/gcd(m,n) and fanin
<= m/gcd(m,n), because each source ships n/gcd units, each target takes m/gcd
and every positive flow is at least one unit; gcd_construct is solve plus a
check of those bounds.
"""
from fractions import Fraction

import otrigid as ot

# m = n: the optimum is a single permutation
inst = ot.gen_random_costs(8, 8, seed=4)
plan = ot.solve(inst)
dec = ot.birkhoff_decompose(plan)
print("square optimum is a permutation:", len(dec.terms) == 1, dec.terms[0][0])

# a deliberately split plan decomposes into several permutations
mixed = ot.TransportPlan(2, 2, 4, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
dec = ot.birkhoff_decompose(mixed)
print("uniform 2x2 plan =",
      " + ".join(f"{w} * perm{sigma}" for sigma, w in dec.terms))
assert sum(w for _, w in dec.terms) == Fraction(1)

# m = 20, n = 30: gcd = 10, so some optimal plan has fanout <= 3, fanin <= 2
x = ot.gen_points("uniform-square", 20, 2, seed=0)
y = ot.gen_points("uniform-square", 30, 2, seed=1)
inst = ot.cost_from_points(x, y, p=1.0)
bounded = ot.gcd_construct(inst)
rep = ot.rigidity_report(bounded)
print(f"gcd construction: max fanout {rep.t_max} (<= 3), "
      f"max fanin {max(rep.ell)} (<= 2)")
print("same cost as the direct solve:",
      abs(ot.objective(inst, bounded) - ot.objective(inst, ot.solve(inst))) < 1e-12)
