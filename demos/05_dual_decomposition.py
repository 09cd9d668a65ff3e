"""Solve the dual of a linearly constrained strongly convex primal.

The primal couples scalar parts through a column-linked block-angular
constraint matrix: one primal variable appears in every constraint, the
rest in one constraint each.  The dual then has one wide smooth component
and many narrow ones over nonnegative multipliers -- light per-block
coupling, so sampled block updates parallelize naturally.

After solving the dual, the primal point recovered from the multipliers
certifies the solution: it is feasible, complementary slackness holds, and
the duality gap vanishes.
"""

import numpy as np

from pbcd import SamplerConfig, SolverConfig, generate_dual, run

gen = generate_dual(num_parts=12, seed=4)
problem = gen.problem
print(f"dual blocks: {problem.num_blocks}; components: "
      f"{problem.num_components}")
print(f"widest component touches {problem.max_blocks_per_component} "
      f"blocks; each block sits in at most "
      f"{problem.max_components_per_block}")

config = SolverConfig(mode="rcd", sampler=SamplerConfig(batch_size=4, seed=9),
                      max_iters=400000, eps_mapping=1e-10, check_stride=30)
result = run(problem, config, np.zeros(problem.n))
print(f"\nsolver: {result.status} after {result.iterations} iterations")
x = result.x
print(f"multipliers: {np.count_nonzero(x > 1e-12)} active of {x.size}")

# recover the primal point: each part minimizes its augmented term given x
dense = gen.matrix.to_dense()
sigmas = gen.extras["sigmas"]
centers = np.concatenate(gen.extras["centers"])
u = centers - (dense.T @ x) / sigmas
primal_value = 0.5 * float(sigmas @ (u - centers) ** 2)
slack = gen.rhs - dense @ u

print(f"\nprimal recovery:")
print(f"  worst constraint violation: {max(0.0, float(-slack.min())):.3e}")
print(f"  complementary slackness |x . slack|: {abs(float(x @ slack)):.3e}")
print(f"  primal value:        {primal_value:.10f}")
print(f"  negated dual value:  {-result.objective:.10f}")
print(f"  duality gap:         {abs(primal_value + result.objective):.3e}")
