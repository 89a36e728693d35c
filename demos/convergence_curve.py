"""Train on the standard synthetic dataset and print the loss trajectory.

Writes the full per-iteration breakdown to convergence_curve.csv next to
this script; the printed table samples every 20 iterations.
"""

import os

from convtransfer.dataset import SynthSpec, build_neighbor_graph, generate_synthetic, split_target
from convtransfer.objective import TrainConfig, train, write_trajectory_csv

ds = generate_synthetic(SynthSpec(), seed=2)
split_target(ds, seed=2)
graph = build_neighbor_graph(ds.target_train_points(), 5)

# a deliberately small model (one filter per branch) reaches its capacity
# floor well within the budget, giving a clean monotone curve
cfg = TrainConfig(c1=0.05, c2=0.05, c3=0.05, tau=3e-4, init_range=0.5,
                  max_iters=200, seed=2, m0=1, mt=1, ma=1)
params, rows = train(ds, graph, cfg)

out = os.path.join(os.path.dirname(__file__) or ".", "convergence_curve.csv")
write_trajectory_csv(rows, out)

print(f"{'iter':>5} {'total':>12} {'aux_cls':>10} {'tgt_cls':>10} {'accuracy':>9}")
for r in rows:
    if r.iteration % 20 == 0 or r.iteration == rows[-1].iteration:
        b = r.breakdown
        print(f"{r.iteration:>5} {b.total:>12.4f} {b.aux_cls:>10.4f} "
              f"{b.tgt_cls:>10.4f} {r.accuracy:>9.3f}")

drops = sum(1 for a, b in zip(rows, rows[1:])
            if b.breakdown.total <= a.breakdown.total)
print(f"\nnon-increasing steps: {drops}/{len(rows) - 1}")
print(f"curve written to {out}")
