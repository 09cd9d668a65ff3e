"""Compare the two stepsize rules on an instance with wide rows but light
per-coordinate coupling.

The aggregated rule weighs each block by the sum of the Lipschitz constants
of the rows that actually touch it.  The reference rule scales per-block
coordinate constants by min(widest row, batch size), which over-damps every
coordinate when a few wide rows coexist with many narrow ones.  The gap in
normalized coordinate updates to reach the same accuracy makes the
difference concrete.
"""

import numpy as np

from pbcd import (SamplerConfig, SolverConfig, coordwise_weights,
                  lasso_from_matrix, reference_solution, run)
from pbcd.matrixio import MatrixFile


def overlap_instance(seed, n=80, wide_rows=4, width=30):
    rng = np.random.Generator(np.random.Philox(seed))
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(float(rng.uniform(0.8, 1.4)))
    r = n
    for _ in range(wide_rows):
        support = np.sort(rng.choice(n, width, replace=False))
        for c in support:
            rows.append(r)
            cols.append(int(c))
            vals.append(float(rng.normal()))
        r += 1
    mat = MatrixFile(rows=r, cols=n, row_idx=rows, col_idx=cols, values=vals)
    return lasso_from_matrix(mat, rng.normal(size=r), lam=0.5)


problem = overlap_instance(seed=5)
batch = 40
print(f"widest row touches {problem.max_blocks_per_component} blocks;"
      f" busiest block sits in {problem.max_components_per_block} rows")
agg = problem.weights
ref = coordwise_weights(problem, batch)
print(f"aggregated weights:      median {np.median(agg):8.3f}  max {agg.max():8.3f}")
print(f"scaled coordinate rule:  median {np.median(ref):8.3f}  max {ref.max():8.3f}")

xstar, fstar, _ = reference_solution(problem, tol=1e-10)
x0 = np.zeros(problem.n)
gap0 = problem.objective(x0) - fstar

print(f"\ntarget: F - F* <= 1e-4 * initial gap ({1e-4 * gap0:.3e})")
for mode in ("rcd", "rcd-coordwise"):
    config = SolverConfig(mode=mode, sampler=SamplerConfig(batch, seed=11),
                          max_iters=300000, eps_gap=1e-4 * gap0, fstar=fstar)
    result = run(problem, config, x0)
    print(f"  {mode:15s} {result.status:18s} normalized updates "
          f"{result.coordinate_updates / problem.n:8.1f}")
