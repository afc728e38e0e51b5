"""Crossings (two sources feeding the same two targets) and their repair.

An optimal plan under generic costs never contains a crossing: pushing flow
around the 4-cycle in one of the two directions would lower the cost.
`uncross` applies exactly that push to a crossing plan until none remain.
"""
import numpy as np

import otrigid as ot

# build a deliberately crossing plan by averaging two permutations: the
# identity and the reversal share every target pair {i, n-1-i}
n = 10
p1 = np.arange(n)
p2 = p1[::-1]
flows = {}
for i in range(n):
    for p in (p1, p2):
        flows[(i, int(p[i]))] = flows.get((i, int(p[i])), 0) + 1
plan = ot.TransportPlan(n, n, 2 * n, tuple((i, j, f) for (i, j), f in flows.items()))

inst = ot.gen_random_costs(n, n, seed=0)
print("crossings before:", ot.pair_counts(plan).crossings)
print("objective before:", ot.objective(inst, plan))

repaired = ot.uncross(inst, plan)
print("crossings after: ", ot.pair_counts(repaired).crossings)
print("objective after: ", ot.objective(inst, repaired))
assert ot.objective(inst, repaired) <= ot.objective(inst, plan)

# the brute-force oracle confirms the lemma on a tiny instance: every
# integral optimum is crossing-free
tiny = ot.gen_random_costs(3, 4, seed=1)
res = ot.brute_force_solve(tiny)
print(f"\n3x4 oracle: {res.enumerated_count} integral plans, "
      f"{len(res.optimal_plans)} optimal, "
      f"crossings in optima: {sum(ot.pair_counts(p).crossings for p in res.optimal_plans)}")
