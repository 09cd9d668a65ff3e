"""Build a box-constrained lasso problem and solve it with sampled
block-coordinate descent.

Walks through the core objects: the generated sparse instance and its
separability measures, the per-block step weights, and a solver run with a
fixed seed, checking the monotone objective decrease along the way.
"""

import numpy as np

from pbcd import (SamplerConfig, SolverConfig, generate_lasso,
                  reference_solution, run)

gen = generate_lasso(m=120, n=150, sparsity=0.05, lam=1.0, box=(-2.0, 2.0),
                     seed=7)
problem = gen.problem

print("instance")
print(f"  rows (smooth components): {gen.matrix.rows}")
print(f"  variables / blocks:       {problem.n}")
print(f"  nonzeros:                 {gen.matrix.nnz}")
print(f"  widest component (blocks per row):     {problem.max_blocks_per_component}")
print(f"  busiest block (rows per coordinate):   {problem.max_components_per_block}")
print(f"  step weight range: [{problem.weights.min():.3f}, "
      f"{problem.weights.max():.3f}]")

xstar, fstar, ok = reference_solution(problem, tol=1e-10)
print(f"\nreference optimum F* = {fstar:.10f} (converged: {ok})")

x0 = np.zeros(problem.n)
config = SolverConfig(mode="rcd", sampler=SamplerConfig(batch_size=10, seed=3),
                      max_iters=2000, eps_gap=1e-8, fstar=fstar,
                      trace_stride=1)
result = run(problem, config, x0)

f = np.array(result.trace.objectives)
drops = f[1:] - f[:-1]
print(f"\nsolver: {result.status} after {result.iterations} iterations "
      f"({result.coordinate_updates} coordinate updates)")
print(f"  final gap F - F*: {result.objective - fstar:.3e}")
print(f"  largest objective increase along the run: {drops.max():.3e} "
      "(must not exceed rounding)")

print("\ngap every 200 iterations:")
for k in range(0, len(f), 200):
    print(f"  k = {k:5d}   F - F* = {f[k] - fstar:.6e}")
