import numpy as np
import pytest

from pbcd.errors import InputError
from pbcd.generators import (dual_from_data, generate_dual, generate_lasso,
                             generate_logistic, lasso_from_matrix)
from pbcd.matrixio import MatrixFile
from pbcd.smooth import LOGISTIC
from pbcd.solver import SolverConfig, run

from oracles import solve_tiny_qp


def test_lasso_dense_incidence():
    gen = generate_lasso(m=4, n=3, sparsity=1.0, lam=0.5, seed=0)
    assert gen.problem.max_blocks_per_component == 3
    assert gen.problem.max_components_per_block == 4


def test_lasso_diagonal_incidence():
    mat = MatrixFile(rows=3, cols=3, row_idx=[0, 1, 2], col_idx=[0, 1, 2],
                     values=[1.0, 2.0, 3.0])
    prob = lasso_from_matrix(mat, np.zeros(3), lam=0.1)
    assert prob.max_blocks_per_component == 1
    assert prob.max_components_per_block == 1


def test_lasso_rejects_infeasible_sparsity():
    with pytest.raises(InputError):
        generate_lasso(m=5, n=10, sparsity=0.05, seed=0)


def test_lasso_rejects_zero_row():
    mat = MatrixFile(rows=2, cols=2, row_idx=[0], col_idx=[0], values=[1.0])
    with pytest.raises(InputError, match="row 2"):
        lasso_from_matrix(mat, np.zeros(2), lam=0.1)


def test_lasso_objective_matches_dense_formula():
    gen = generate_lasso(m=12, n=9, sparsity=0.4, lam=0.7, seed=3)
    dense = gen.matrix.to_dense()
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=9)
        want = 0.5 * np.sum((dense @ x - gen.rhs) ** 2) + 0.7 * np.abs(x).sum()
        assert gen.problem.objective(x) == pytest.approx(want, rel=1e-12)


def test_lasso_box_constraints_applied():
    gen = generate_lasso(m=6, n=5, sparsity=0.5, lam=0.3, box=(-1.0, 1.0),
                         seed=1)
    prob = gen.problem
    assert np.all(prob.lam == 0.3)
    assert np.all(prob.lb == -1.0) and np.all(prob.ub == 1.0)
    assert gen.problem.objective(np.full(5, 2.0)) == np.inf


def test_lasso_weights_match_row_norms():
    gen = generate_lasso(m=10, n=8, sparsity=0.4, lam=0.2, seed=5)
    dense = gen.matrix.to_dense()
    for i in range(8):
        rows = np.nonzero(dense[:, i])[0]
        want = sum(np.sum(dense[j] ** 2) for j in rows)
        assert gen.problem.weights[i] == pytest.approx(want, rel=1e-12)


def test_lasso_desk_scale_realized_degrees():
    # at benchmark scale the realized separability measures land in the tens
    gen = generate_lasso(m=900, n=1000, sparsity=0.02, lam=1.0, seed=7)
    assert 10 <= gen.problem.max_blocks_per_component <= 60
    assert 10 <= gen.problem.max_components_per_block <= 60


def test_logistic_single_sample_unit_vector():
    from pbcd.generators import logistic_from_matrix
    mat = MatrixFile(rows=1, cols=1, row_idx=[0], col_idx=[0], values=[1.0])
    prob = logistic_from_matrix(mat, [1], lam=0.0)
    assert prob.max_blocks_per_component == 1


def test_logistic_zero_lam_gives_pure_smooth():
    gen = generate_logistic(num_samples=5, n=6, sparsity=0.5, lam=0.0, seed=2)
    prob = gen.problem
    assert np.all(prob.lam == 0.0)
    assert np.all(prob.lb == -np.inf) and np.all(prob.ub == np.inf)


def test_logistic_weights_recomputed_from_samples():
    gen = generate_logistic(num_samples=8, n=6, sparsity=0.5, lam=0.1, seed=4)
    dense = gen.matrix.to_dense()
    nbar = 8
    for i in range(6):
        rows = np.nonzero(dense[:, i])[0]
        want = sum(np.sum(dense[j] ** 2) / 4.0 / nbar for j in rows)
        assert gen.problem.weights[i] == pytest.approx(want, rel=1e-12)
    assert np.all(gen.problem.smooth.family == LOGISTIC)


def test_dual_block_angular_degrees():
    gen = generate_dual(num_parts=6, seed=0)
    assert gen.problem.max_components_per_block == 2
    assert gen.problem.max_blocks_per_component == 6
    prob = gen.problem
    assert np.all(prob.lam == 0.0)
    assert np.all(prob.lb == 0.0) and np.all(prob.ub == np.inf)


def test_dual_sigma_scaling():
    base = generate_dual(num_parts=4, seed=3, sigma_range=(1.0, 1.0))
    halved = generate_dual(num_parts=4, seed=3, sigma_range=(2.0, 2.0))
    assert np.allclose(halved.problem.smooth.lipschitz,
                       base.problem.smooth.lipschitz / 2.0, rtol=1e-12)


def test_dual_optimum_matches_primal_qp_oracle():
    # strong duality: the dual minimum equals the negated primal optimum
    gen = generate_dual(num_parts=3, seed=11)
    dense = gen.matrix.to_dense()
    sigmas = gen.extras["sigmas"]
    centers = np.concatenate(gen.extras["centers"])
    _, primal_val = solve_tiny_qp(sigmas, centers, dense, gen.rhs)
    res = run(gen.problem, SolverConfig(mode="full", max_iters=200000,
                                        eps_mapping=1e-12, check_stride=10),
              np.zeros(gen.problem.n))
    assert res.converged
    assert res.objective == pytest.approx(-primal_val, abs=1e-8)


def test_dual_linear_term_tiles_rhs():
    gen = generate_dual(num_parts=5, seed=6)
    rng = np.random.default_rng(0)
    prob = gen.problem
    for _ in range(5):
        x = np.abs(rng.normal(size=prob.n))
        op = prob.smooth
        linear = prob.smooth_value(x) - float(np.sum(op.values(op.matrix @ x)))
        assert linear == pytest.approx(float(gen.rhs @ x), rel=1e-12)


def test_dual_from_data_validation():
    mat = MatrixFile(rows=2, cols=2, row_idx=[0, 1], col_idx=[0, 1],
                     values=[1.0, 1.0])
    with pytest.raises(InputError):
        dual_from_data(mat, np.zeros(1), [1.0, 1.0], [[0.0], [0.0]])
    with pytest.raises(InputError):
        dual_from_data(mat, np.zeros(2), [1.0], [[0.0]])


def test_generators_deterministic_per_seed():
    a = generate_lasso(m=8, n=6, sparsity=0.4, seed=9)
    b = generate_lasso(m=8, n=6, sparsity=0.4, seed=9)
    assert np.array_equal(a.matrix.values, b.matrix.values)
    assert np.array_equal(a.rhs, b.rhs)
    c = generate_lasso(m=8, n=6, sparsity=0.4, seed=10)
    assert not np.array_equal(a.matrix.values, c.matrix.values)


def test_benchmark_scale_degrees_in_the_tens():
    gen = generate_lasso(m=9000, n=10000, sparsity=2e-3, lam=10.0, seed=81)
    assert 15 <= gen.problem.max_blocks_per_component <= 80
    assert 15 <= gen.problem.max_components_per_block <= 80
