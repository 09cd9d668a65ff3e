"""The reference solve: FISTA with adaptive restart against plain proximal
gradient (the oracle), iteration budgets plain proximal gradient cannot meet,
and a duality-gap certificate of F* on lasso instances."""

import numpy as np
import pytest

from oracles import lasso_duality_gap, proximal_gradient_reference
from pbcd.experiment import reference_solution
from pbcd.generators import generate_dual, generate_lasso, generate_logistic
from test_smooth import split_dual

TOL = 1e-10


def logistic(lam_fraction):
    """Bench logistic data (block size 3) at a fraction of lam_max, the
    smallest l1 weight at which x = 0 is optimal."""
    gen = generate_logistic(200, 60, 0.05, seed=1, block_size=3)
    p = gen.problem
    lam_max = float(np.max(np.abs(p.smooth_gradient(np.zeros(p.n)))))
    return generate_logistic(200, 60, 0.05, lam=lam_fraction * lam_max, seed=1,
                             block_size=3).problem


INSTANCES = {
    "readme-lasso": lambda: generate_lasso(180, 200, 0.02, lam=1.0, seed=0).problem,
    "bench-lasso": lambda: generate_lasso(900, 1000, 0.002, lam=10.0, seed=1).problem,
    "box-lasso": lambda: generate_lasso(180, 200, 0.02, lam=1.0, seed=0,
                                        box=(-0.3, 0.3)).problem,
    "logistic-block-3": lambda: logistic(0.5),
    "logistic-over-lam-max": lambda: logistic(1.5),
    "dual": lambda: generate_dual(40, seed=1).problem,
    "dual-block-2": lambda: generate_dual(40, seed=3, block_size=2).problem,
    "split-dual": split_dual,
}


@pytest.mark.parametrize("name", INSTANCES)
def test_reference_matches_proximal_gradient_oracle(name):
    problem = INSTANCES[name]()
    x, fstar, ok = reference_solution(problem, tol=TOL)
    _, want, want_ok = proximal_gradient_reference(problem, tol=TOL)
    assert ok and want_ok
    assert abs(fstar - want) <= 1e-12 * (1.0 + abs(fstar))
    assert fstar == problem.objective(x)
    assert problem.prox_grad_mapping(x)[1] <= TOL
    if name == "logistic-over-lam-max":
        assert np.all(x == 0.0)


@pytest.mark.parametrize("seed, block_size, budget", [(1, 1, 400), (3, 2, 1500)],
                         ids=["dual", "dual-block-2"])
def test_reference_converges_within_budget_proximal_gradient_misses(
        seed, block_size, budget):
    # plain proximal gradient needs 2704 and 45663 iterations
    problem = generate_dual(40, seed=seed, block_size=block_size).problem
    assert not proximal_gradient_reference(problem, tol=TOL, max_iters=budget)[2]
    x, _, ok = reference_solution(problem, tol=TOL, max_iters=budget)
    assert ok
    assert problem.prox_grad_mapping(x)[1] <= TOL


def test_reference_stops_at_max_iters():
    problem = generate_dual(40, seed=1).problem
    x, fstar, ok = reference_solution(problem, tol=TOL, max_iters=5)
    assert not ok
    assert fstar == problem.objective(x)
    assert np.all(x >= 0.0)


@pytest.mark.parametrize("block_size, m, n, sparsity, lam, seed", [
    (1, 180, 200, 0.02, 1.0, 0),
    (1, 900, 1000, 0.002, 10.0, 1),
    (3, 120, 90, 0.05, 0.5, 2),
], ids=["readme-lasso", "bench-lasso", "lasso-block-3"])
def test_lasso_reference_has_certified_gap(block_size, m, n, sparsity, lam, seed):
    gen = generate_lasso(m, n, sparsity, lam=lam, seed=seed, block_size=block_size)
    x, fstar, ok = reference_solution(gen.problem, tol=TOL)
    assert ok
    mat, rhs = gen.matrix.to_dense(), gen.rhs
    gap = lasso_duality_gap(mat, rhs, 1.0, lam, x)
    assert -1e-12 * (1.0 + abs(fstar)) <= gap <= 1e-7 * (1.0 + abs(fstar))
    # the certificate tells a point off the optimum apart
    off = x + 1e-3 * np.random.default_rng(seed).normal(size=x.size)
    assert lasso_duality_gap(mat, rhs, 1.0, lam, off) > 1e-6 * (1.0 + abs(fstar))
