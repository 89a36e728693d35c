"""Validate the analytic gradient against central finite differences.

Instances are resampled until every max-pooling winner is strict and every
winning pre-activation is away from the ReLU kink, so the objective is
differentiable at the evaluation point and the comparison is meaningful.
"""

from convtransfer.gradcheck import gradient_check, random_smooth_instance

for seed in range(3):
    params, ds, graph, cfg = random_smooth_instance(seed)
    errors = gradient_check(params, ds, graph, cfg)
    worst = max(errors.values())
    print(f"instance {seed}:")
    for block, err in errors.items():
        print(f"  {block:>6}: max relative error {err:.3e}")
    print(f"  worst block error {worst:.3e}\n")
