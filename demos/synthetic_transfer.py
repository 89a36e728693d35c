"""Compare the full multi-domain model against a target-only baseline.

Both models see the same labeled target points. The full model additionally
trains on the auxiliary domains and the three coupling terms (attribute map,
domain matching, neighbor smoothness); the baseline turns all of that off.
"""

from convtransfer.dataset import (
    MultiDomainDataset,
    SynthSpec,
    build_neighbor_graph,
    generate_synthetic,
    split_target,
)
from convtransfer.objective import TrainConfig, train

SEEDS = range(10)  # per-seed test sets are tiny, so average over many
# a label-starved target: 8 points/domain leaves the baseline with only
# two labeled target points, while the auxiliary domains stay fully labeled
spec = SynthSpec(points_per_domain=8, noise=2.0, shift=0.5)

full_accs, base_accs = [], []
for seed in SEEDS:
    ds = generate_synthetic(spec, seed=seed)
    split_target(ds, seed=seed)
    graph = build_neighbor_graph(ds.target_train_points(), 2)

    cfg = TrainConfig(c1=0.1, c2=0.1, c3=0.1, tau=2e-4,
                      max_iters=300, seed=seed)
    _, rows = train(ds, graph, cfg)
    full_accs.append(rows[-1].accuracy)

    target_only = MultiDomainDataset(ds.d, ds.a_dim, ds.y_dim, [ds.domains[-1]])
    base_cfg = TrainConfig(c1=0.0, c2=0.0, c3=0.0, tau=2e-4,
                           max_iters=300, seed=seed)
    _, rows = train(target_only, graph, base_cfg)
    base_accs.append(rows[-1].accuracy)

    print(f"seed {seed}: full model {full_accs[-1]:.3f}  "
          f"target-only baseline {base_accs[-1]:.3f}")

mean_full = sum(full_accs) / len(full_accs)
mean_base = sum(base_accs) / len(base_accs)
print(f"\nmean over {len(full_accs)} seeds: "
      f"full {mean_full:.3f} vs baseline {mean_base:.3f} "
      f"(+{100 * (mean_full - mean_base):.1f} accuracy points)")
