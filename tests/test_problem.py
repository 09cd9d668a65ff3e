import numpy as np
import pytest

from pbcd.blocks import BlockPartition
from pbcd.errors import InputError
from pbcd.generators import dual_from_data, lasso_from_matrix, logistic_from_matrix
from pbcd.matrixio import MatrixFile
from pbcd.problem import CompositeProblem
from pbcd.smooth import DUAL, LOGISTIC, RESIDUAL

from oracles import central_diff_gradient, dense_operator, value_and_gradient


def component_values(prob, x):
    """f_j(x) per component: the row values phi_r((Mx)_r) summed by component."""
    op = prob.smooth
    return np.bincount(op.component, weights=op.values(op.matrix @ x),
                       minlength=prob.num_components)


def scalar_lasso(coeff, lam, box=None):
    """0.5 * (coeff * x)^2 + lam |x| on one coordinate."""
    return lasso_from_matrix(MatrixFile(1, 1, [0], [0], [coeff]), [0.0], lam,
                             box=box)


def identity_lasso(lam=1.0, rhs=(0.0, 0.0)):
    return lasso_from_matrix(MatrixFile(2, 2, [0, 1], [0, 1], [1.0, 1.0]),
                             list(rhs), lam)


def corner_problem():
    """Two nonnegative scalars, f = (x0 - x1)^2 / 2 + x0 + x1, unit weights.

    The smooth part is a single dual-family component (column (1, -1),
    quadratic conjugate) whose linear term supplies x0 + x1.  Unit weights
    are an explicit override; the aggregated rule would give (2, 2).
    """
    dual = dual_from_data(MatrixFile(2, 1, [0, 1], [0, 0], [1.0, -1.0]),
                          [1.0, 1.0], [1.0], [[0.0]])
    return CompositeProblem(dual.partition, dual.smooth, dual.lam, dual.lb,
                            dual.ub, weights=[1.0, 1.0])


def random_lasso(rng, n=8, m=10, lam=0.5, block_sizes=None):
    """m residual rows, each on a random set of blocks of the partition."""
    part = BlockPartition.from_sizes(block_sizes or [1] * n)
    comps = []
    for _ in range(m):
        nblocks = int(rng.integers(1, part.num_blocks + 1))
        row = np.zeros(part.n)
        for i in np.sort(rng.choice(part.num_blocks, nblocks, replace=False)):
            row[part.slice(i)] = rng.normal(size=int(part.block_sizes[i]))
        comps.append((RESIDUAL, row, [float(rng.normal())], 1.0))
    return CompositeProblem(part, dense_operator(comps, np.zeros(part.n)), lam)


def test_objective_identity_lasso_hand_value():
    prob = identity_lasso()
    # 0.5*(1^2 + 1^2) + |1| + |-1| = 1 + 2
    assert prob.objective(np.array([1.0, -1.0])) == pytest.approx(3.0, abs=1e-15)


def test_objective_at_known_minimizer():
    prob = identity_lasso(lam=0.0, rhs=(2.0, -1.0))
    xstar = np.array([2.0, -1.0])
    assert prob.objective(xstar) == 0.0
    assert np.allclose(prob.smooth_gradient(xstar), 0.0, atol=1e-15)


def test_objective_indicator_violation_is_inf():
    prob = scalar_lasso(1.0, 0.0, box=(0.0, 1.0))
    assert prob.objective(np.array([2.0])) == np.inf


def test_objective_rejects_nan():
    prob = identity_lasso()
    with pytest.raises(InputError):
        prob.objective(np.array([np.nan, 0.0]))
    with pytest.raises(InputError):
        prob.partial_gradient(np.array([np.inf, 0.0]), 0)


def test_partial_gradient_hand_value():
    prob = identity_lasso(lam=0.0)
    assert prob.partial_gradient(np.array([3.0, 5.0]), 0)[0] == 3.0


def test_partial_gradient_logistic_at_origin():
    for m in (1, 4):
        prob = logistic_from_matrix(MatrixFile(1, 1, [0], [0], [1.0]), [1],
                                    0.0, num_samples=m)
        g = prob.partial_gradient(np.zeros(1), 0)
        assert g[0] == pytest.approx(-1.0 / (2.0 * m), rel=1e-14)


def test_full_gradient_is_concatenated_partials():
    rng = np.random.default_rng(0)
    prob = random_lasso(rng, block_sizes=[2, 1, 3, 2])
    for _ in range(5):
        x = rng.normal(size=prob.n)
        full = prob.smooth_gradient(x)
        parts = np.concatenate([prob.partial_gradient(x, i)
                                for i in range(prob.num_blocks)])
        assert np.array_equal(full, parts)


def test_fast_gradient_matches_definitional():
    rng = np.random.default_rng(1)
    # blocks {0, 1}, {2}, {3, 4}: a residual row on blocks 0 and 2, a
    # logistic sample on blocks 0 and 1, and a two-row dual component on
    # blocks 1 and 2 whose linear term lives there too
    part = BlockPartition.from_sizes([2, 1, 2])
    res, logi, dual, lin = (np.zeros((1, 5)), np.zeros((1, 5)),
                            np.zeros((2, 5)), np.zeros(5))
    res[0, [0, 1, 3, 4]] = np.r_[rng.normal(size=2), rng.normal(size=2)]
    logi[0, :3] = np.r_[rng.normal(size=2), rng.normal(size=1)]
    dual[:, 2:] = np.vstack([rng.normal(size=(1, 2)), rng.normal(size=(2, 2))]).T
    center = rng.normal(size=2)
    lin[2:] = np.r_[rng.normal(size=1), rng.normal(size=2)]
    comps = [(RESIDUAL, res, np.array([0.3]), 1.0),
             (LOGISTIC, logi, np.array([-1.0]), 2.0), (DUAL, dual, center, 1.3)]
    prob = CompositeProblem(part, dense_operator(comps, lin))
    for _ in range(10):
        x = rng.normal(size=prob.n)
        va, a = value_and_gradient(comps, lin, x)
        b = prob.smooth_gradient(x)
        assert np.allclose(a, b, rtol=0, atol=1e-12 * (1 + np.abs(a).max()))
        vb = prob.smooth_value(x)
        assert vb == pytest.approx(va, rel=1e-12)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(2)
    prob = random_lasso(rng, block_sizes=[1, 2, 1, 1, 2])
    for _ in range(20):
        x = rng.normal(size=prob.n)
        fd = central_diff_gradient(prob.smooth_value, x)
        g = prob.smooth_gradient(x)
        assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)) < 1e-5


def test_locality_of_block_perturbation():
    rng = np.random.default_rng(3)
    prob = random_lasso(rng, n=6, m=8)
    x = rng.normal(size=prob.n)
    for i in range(prob.num_blocks):
        y = x.copy()
        y[prob.partition.slice(i)] += 1.0
        block_entries = prob.smooth.matrix[:, prob.partition.slice(i)]
        touched = set(prob.smooth.component[block_entries.indices].tolist())
        vx, vy = component_values(prob, x), component_values(prob, y)
        for j in range(prob.num_components):
            if j not in touched:
                assert vx[j] == vy[j]


def test_descent_inequality_random_pairs():
    rng = np.random.default_rng(4)
    prob = random_lasso(rng, n=7, m=9)
    for _ in range(300):
        x = rng.normal(size=prob.n) * 2.0
        y = rng.normal(size=prob.n)
        y *= min(1.0, 1.0 / np.linalg.norm(y))
        fx = prob.smooth_value(x)
        lhs = prob.smooth_value(x + y)
        rhs = fx + float(prob.smooth_gradient(x) @ y) + 0.5 * prob.norm_w(y) ** 2
        assert lhs <= rhs + 1e-10 * (1.0 + abs(fx))


def test_weighted_gradient_lipschitz_random_pairs():
    rng = np.random.default_rng(5)
    prob = random_lasso(rng, n=7, m=9)
    for _ in range(300):
        x = rng.normal(size=prob.n) * 2.0
        y = rng.normal(size=prob.n) * 2.0
        lhs = prob.norm_w_inv(prob.smooth_gradient(x) - prob.smooth_gradient(y))
        assert lhs <= prob.norm_w(x - y) + 1e-9


def test_prox_nonexpansive_in_weighted_norm():
    rng = np.random.default_rng(6)
    # blocks {0}, {1, 2}, {3}: l1, a box and the nonnegative orthant
    part = BlockPartition.from_sizes([1, 2, 1])
    op = dense_operator([(RESIDUAL, rng.normal(size=4), [0.1], 1.0)], np.zeros(4))
    prob = CompositeProblem(part, op, [0.7, 0.0, 0.0, 0.0],
                            [-np.inf, -0.5, -0.5, 0.0], [np.inf, 0.5, 0.5, np.inf])
    for _ in range(300):
        a = rng.normal(size=prob.n) * 3.0
        b = rng.normal(size=prob.n) * 3.0
        lhs = prob.norm_w(prob.prox(a) - prob.prox(b))
        assert lhs <= prob.norm_w(a - b) * (1.0 + 1e-12) + 1e-14


def test_proximal_step_hand_values():
    # quadratic with matched weight reaches the minimizer in one step
    prob = scalar_lasso(2.0, 0.0)
    assert prob.weights[0] == 4.0
    assert prob.proximal_step(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-16)
    # scalar lasso: gradient step lands at 0, threshold keeps it there
    lasso = scalar_lasso(1.0, 1.0)
    assert lasso.proximal_step(np.array([3.0]))[0] == 0.0


def test_proximal_step_fixed_point_at_optimum():
    prob = identity_lasso(lam=0.5, rhs=(2.0, -3.0))
    xstar = np.array([1.5, -2.5])  # soft threshold of the rhs at 0.5
    step = prob.proximal_step(xstar)
    assert np.allclose(step, xstar, atol=1e-15)
    _, gnorm = prob.prox_grad_mapping(xstar)
    assert gnorm < 1e-14


def test_mapping_on_corner_problem_ray():
    prob = corner_problem()
    for t in (1.0, 2.5, 40.0):
        m, gnorm = prob.prox_grad_mapping(np.array([t, t]))
        assert np.allclose(m, [1.0, 1.0], atol=1e-14)
        assert gnorm == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_corner_problem_objective():
    prob = corner_problem()
    x = np.array([2.0, 1.0])
    assert prob.objective(x) == pytest.approx(0.5 + 3.0, rel=1e-15)
    assert prob.objective(np.array([-0.1, 0.0])) == np.inf


def test_mapping_is_three_lipschitz_in_weighted_norm():
    rng = np.random.default_rng(7)
    prob = random_lasso(rng, n=6, m=8)
    for _ in range(300):
        x = rng.normal(size=prob.n) * 2.0
        y = rng.normal(size=prob.n) * 2.0
        mx, _ = prob.prox_grad_mapping(x)
        my, _ = prob.prox_grad_mapping(y)
        assert prob.norm_w(mx - my) <= 3.0 * prob.norm_w(x - y) + 1e-12


def test_sufficient_decrease_of_upper_model():
    rng = np.random.default_rng(8)
    prob = random_lasso(rng, n=6, m=8)
    for _ in range(200):
        x = rng.normal(size=prob.n) * 2.0
        t = prob.proximal_step(x)
        lhs = prob.objective(x) - prob.upper_model(x, t)
        assert lhs >= 0.5 * prob.norm_w(x - t) ** 2 - 1e-10


def test_proximal_step_optimality_inclusion():
    rng = np.random.default_rng(9)
    prob = random_lasso(rng, n=6, m=8, lam=0.8)
    lam = 0.8
    for _ in range(50):
        x = rng.normal(size=prob.n) * 2.0
        t = prob.proximal_step(x)
        g = prob.smooth_gradient(x)
        w = prob.coord_weights
        resid = g + w * (t - x)
        for c in range(prob.n):
            if abs(t[c]) > 1e-12:
                assert abs(resid[c] + lam * np.sign(t[c])) <= 1e-10
            else:
                assert abs(resid[c]) <= lam + 1e-10


def test_weight_override_validation():
    base = identity_lasso(lam=0.0)
    with pytest.raises(InputError):
        CompositeProblem(base.partition, base.smooth, weights=[1.0])
    with pytest.raises(InputError):
        CompositeProblem(base.partition, base.smooth, weights=[1.0, 0.0])
    prob = CompositeProblem(base.partition, base.smooth, weights=[3.0, 5.0])
    assert np.array_equal(prob.weights, [3.0, 5.0])


@pytest.mark.parametrize("arrays", [
    {"lam": [1.0, 2.0]}, {"lb": [0.0, 1.0]}, {"ub": np.ones(5)},
    {"lam": np.nan}, {"lam": np.inf}, {"lam": -0.1},
    {"lb": np.nan}, {"ub": [0.0, np.nan, 0.0, 0.0]},
    {"lb": np.inf}, {"ub": -np.inf},
    {"lb": 1.0, "ub": 0.0}, {"lb": [0.0, 2.0, 0.0, 0.0], "ub": 1.0},
], ids=["lam-length", "lb-length", "ub-length", "lam-nan", "lam-inf",
        "lam-negative", "lb-nan", "ub-nan",
        "lb-plus-inf", "ub-minus-inf", "lb-above-ub", "lb-above-ub-coordinate"])
def test_regularizer_arrays_validated(arrays):
    base = random_lasso(np.random.default_rng(10), n=4, m=5)
    with pytest.raises(InputError):
        CompositeProblem(base.partition, base.smooth, **arrays)


def test_project_domain():
    # a box, the nonnegative orthant and a plain l1 term
    op = dense_operator([(RESIDUAL, np.ones(3), [0.0], 1.0)], np.zeros(3))
    prob = CompositeProblem(BlockPartition.from_sizes([1, 1, 1]), op,
                            [0.0, 0.0, 1.0], [0.0, 0.0, -np.inf],
                            [1.0, np.inf, np.inf])
    got = prob.project_domain(np.array([5.0, -2.0, -7.0]))
    assert np.array_equal(got, [1.0, 0.0, -7.0])
