"""How rigid is the optimal plan's fanout?

Each of the m sources must feed at least ceil(n/m) targets. Empirically the
true fanout hugs that lower bound: here 7 sources feed 2000 targets with
random costs, and every fanout lands within a couple of units of
ceil(2000/7) = 286, far below the worst-case bound floor(n/m) + m - 1 = 291.

That upper bound needs no check: ``solve`` returns a vertex plan, whose
support is a forest, so at most m - 1 arcs go to targets beyond their first
source, and a source shares at most m - 1 targets (see ``otrigid.analysis``).
What varies is how many of those m - 1 split arcs a plan uses, and how many
split targets the busiest source shares: that is the paper's constant c.
"""
import otrigid as ot

for seed in range(3):
    inst = ot.gen_random_costs(7, 2000, seed)
    plan = ot.solve(inst)
    rep, stats = ot.rigidity_report(plan), ot.stats_dict(plan)
    m, n = inst.m, inst.n
    print(f"seed {seed}: fanouts {rep.t}  (lower bound {rep.lower}, "
          f"hard upper bound n // m + m - 1 = {n // m + m - 1}, "
          f"excess over lower {rep.excess})")
    print(f"  split targets: {stats['split_targets']} of {n} "
          f"(at most m - 1 = {m - 1}); most shared by one source: {stats['max_split']}")
