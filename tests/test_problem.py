import numpy as np
import pytest

from pbcd.blocks import BlockPartition
from pbcd.errors import InputError
from pbcd.problem import assemble_problem
from pbcd.regularizers import Box, L1, NonnegOrthant, Zero
from pbcd.smooth import (make_logistic, make_quadratic_conjugate_dual,
                         make_quadratic_residual)

from oracles import central_diff_gradient, dense_components, value_and_gradient


def component_values(prob, x):
    """f_j(x) per component: the row values phi_r((Mx)_r) summed by component."""
    op = prob.smooth
    return np.bincount(op.component, weights=op.values(op.matrix @ x),
                       minlength=prob.num_components)


def identity_lasso(lam=1.0, rhs=(0.0, 0.0)):
    part = BlockPartition.from_sizes([1, 1])
    smooth = [make_quadratic_residual([0], [[1.0]], rhs[0]),
              make_quadratic_residual([1], [[1.0]], rhs[1])]
    return assemble_problem(part, smooth, [L1(lam), L1(lam)])


def corner_problem():
    """Two nonnegative scalars, f = (x0 - x1)^2 / 2 + x0 + x1, unit weights.

    The smooth part is a single dual-family component (column (1, -1),
    quadratic conjugate) whose linear term supplies x0 + x1.  Unit weights
    are an explicit override; the aggregated rule would give (2, 2).
    """
    part = BlockPartition.from_sizes([1, 1])
    comp = make_quadratic_conjugate_dual(
        [0, 1], mats=[[[1.0]], [[-1.0]]], sigma=1.0, center=[0.0],
        rhs_parts=[[1.0], [1.0]])
    return assemble_problem(part, [comp], [NonnegOrthant(), NonnegOrthant()],
                            weights=[1.0, 1.0])


def random_lasso(rng, n=8, m=10, lam=0.5, block_sizes=None):
    part = BlockPartition.from_sizes(block_sizes or [1] * n)
    smooth = []
    for _ in range(m):
        nblocks = int(rng.integers(1, part.num_blocks + 1))
        blocks = np.sort(rng.choice(part.num_blocks, nblocks, replace=False))
        coeffs = [rng.normal(size=int(part.block_sizes[i])) for i in blocks]
        if all(np.all(c == 0.0) for c in coeffs):
            continue
        smooth.append(make_quadratic_residual(blocks, coeffs, float(rng.normal())))
    regs = [L1(lam) for _ in range(part.num_blocks)]
    return assemble_problem(part, smooth, regs)


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
    part = BlockPartition.from_sizes([1])
    prob = assemble_problem(part, [make_quadratic_residual([0], [[1.0]], 0.0)],
                            [Box(0.0, 1.0)])
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
    part = BlockPartition.from_sizes([1, 1])
    for m in (1, 4):
        prob = assemble_problem(
            part, [make_logistic([0], [[1.0]], 1, num_samples=m)],
            [Zero(), Zero()], weights=[1.0, 1.0])
        g = prob.partial_gradient(np.zeros(2), 0)
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
    part = BlockPartition.from_sizes([2, 1, 2])
    smooth = [
        make_quadratic_residual([0, 2], [rng.normal(size=2), rng.normal(size=2)],
                                0.3),
        make_logistic([0, 1], [rng.normal(size=2), rng.normal(size=1)], -1, 2),
        make_quadratic_conjugate_dual(
            [1, 2], mats=[rng.normal(size=(1, 2)), rng.normal(size=(2, 2))],
            sigma=1.3, center=rng.normal(size=2),
            rhs_parts=[rng.normal(size=1), rng.normal(size=2)]),
    ]
    prob = assemble_problem(part, smooth, [Zero()] * 3)
    for _ in range(10):
        x = rng.normal(size=prob.n)
        va, a = value_and_gradient(*dense_components(smooth, part), x)
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
    part = BlockPartition.from_sizes([1, 2, 1])
    smooth = [make_quadratic_residual([0, 1, 2],
                                      [rng.normal(size=1), rng.normal(size=2),
                                       rng.normal(size=1)], 0.1)]
    prob = assemble_problem(part, smooth,
                            [L1(0.7), Box(-0.5, 0.5), NonnegOrthant()])
    for _ in range(300):
        a = rng.normal(size=prob.n) * 3.0
        b = rng.normal(size=prob.n) * 3.0
        lhs = prob.norm_w(prob.prox(a) - prob.prox(b))
        assert lhs <= prob.norm_w(a - b) * (1.0 + 1e-12) + 1e-14


def test_proximal_step_hand_values():
    # quadratic with matched weight reaches the minimizer in one step
    part = BlockPartition.from_sizes([1])
    prob = assemble_problem(part, [make_quadratic_residual([0], [[2.0]], 0.0)],
                            [Zero()])
    assert prob.weights[0] == 4.0
    assert prob.proximal_step(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-16)
    # scalar lasso: gradient step lands at 0, threshold keeps it there
    part1 = BlockPartition.from_sizes([1])
    lasso = assemble_problem(part1, [make_quadratic_residual([0], [[1.0]], 0.0)],
                             [L1(1.0)])
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
    part = BlockPartition.from_sizes([1, 1])
    smooth = [make_quadratic_residual([0], [[1.0]], 0.0),
              make_quadratic_residual([1], [[1.0]], 0.0)]
    with pytest.raises(InputError):
        assemble_problem(part, smooth, [Zero(), Zero()], weights=[1.0])
    with pytest.raises(InputError):
        assemble_problem(part, smooth, [Zero(), Zero()], weights=[1.0, 0.0])
    prob = assemble_problem(part, smooth, [Zero(), Zero()], weights=[3.0, 5.0])
    assert np.array_equal(prob.weights, [3.0, 5.0])


def test_project_domain():
    part = BlockPartition.from_sizes([1, 1, 1])
    smooth = [make_quadratic_residual([0, 1, 2], [[1.0], [1.0], [1.0]], 0.0)]
    prob = assemble_problem(part, smooth,
                            [Box(0.0, 1.0), NonnegOrthant(), L1(1.0)])
    got = prob.project_domain(np.array([5.0, -2.0, -7.0]))
    assert np.array_equal(got, [1.0, 0.0, -7.0])
