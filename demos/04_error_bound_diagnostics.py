"""Generalized error bound diagnostics.

Part 1 revisits a two-variable corner problem where the classical
single-constant error bound fails: along the diagonal ray the ratio of
distance-to-optimum over residual-mapping norm grows without bound.  Adding
a quadratic term fixes it; the fitter finds a small two-coefficient
description, and the resulting linear-rate constant is evaluated.

Part 2 fits coefficients on a strongly convex instance, where theory says a
constant of twice the inverse modulus (and no quadratic term) suffices.
"""

import numpy as np

from pbcd import (CompositeProblem, MatrixFile, RateBundle, dual_from_data,
                  estimate_strong_convexity, fit_error_bound_constants,
                  generate_lasso, iters_to_confidence_error_bound,
                  linear_rate_error_bound, reference_solution)

print("== part 1: corner problem, classical bound fails ==")
# dual of min u^2/2 s.t. u <= 1, -u <= 1: one dual component with column
# (1, -1) and linear term x0 + x1 on the nonnegative quadrant; unit weights
# replace the aggregated (2, 2)
dual = dual_from_data(MatrixFile(2, 1, [0, 1], [0, 0], [1.0, -1.0]),
                      [1.0, 1.0], [1.0], [[0.0]])
problem = CompositeProblem(dual.partition, dual.smooth, dual.lam, dual.lb,
                           dual.ub, weights=[1.0, 1.0])
print("objective: (x0 - x1)^2 / 2 + x0 + x1 over the nonnegative quadrant; "
      "optimum at the origin")

ts = np.arange(1, 101, dtype=float)
fit = fit_error_bound_constants(problem, np.zeros(2),
                                [np.array([t, t]) for t in ts])
print("distance/residual ratio along x = (t, t):",
      ", ".join(f"t={int(t)}: {r:.1f}" for t, r in
                zip(ts[[0, 9, 49, 99]], fit.classical_ratios[[0, 9, 49, 99]])))
print("  -> no single constant can cover the ray")
print(f"two-coefficient fit: const={fit.const_coeff:.4f} "
      f"quad={fit.quad_coeff:.4f}, max violation {fit.max_violation:.1e}")

# rate constants for runs started inside a moderate sublevel set: the
# distance bound enters through the quadratic coefficient, so wider starts
# imply weaker guaranteed contraction
start = np.array([3.0, 3.0])
bundle = RateBundle(num_blocks=2, batch_size=1,
                    radius=problem.norm_w(start),
                    initial_gap=problem.objective(start),
                    eb_const=fit.const_coeff, eb_quad=fit.quad_coeff)
theta = linear_rate_error_bound(bundle)
k_eps = iters_to_confidence_error_bound(bundle, eps=1e-3, rho=0.05)
print(f"for starts within weighted radius {bundle.radius:.2f}: contraction "
      f"{theta:.6f}, iterations for a 1e-3 gap at 95% confidence: {k_eps}")

print("\n== part 2: strongly convex instance ==")
gen = generate_lasso(m=40, n=30, sparsity=0.4, lam=0.3, seed=13)
problem = gen.problem
sigma = estimate_strong_convexity(problem)
xstar, fstar, _ = reference_solution(problem, tol=1e-12, max_iters=10 ** 6)
rng = np.random.Generator(np.random.Philox(1)
                          )
points = []
for _ in range(80):
    raw = rng.normal(size=problem.n)
    points.append(xstar + raw * (float(rng.uniform(0.05, 0.9))
                                 / problem.norm_w(raw)))
fit = fit_error_bound_constants(problem, xstar, points)
print(f"modulus {sigma:.4f}; theory guarantees a constant of "
      f"{2.0 / sigma:.3f} with no quadratic term")
print(f"fitted: const={fit.const_coeff:.4f} quad={fit.quad_coeff:.1e}, "
      f"max violation {fit.max_violation:.1e}")
