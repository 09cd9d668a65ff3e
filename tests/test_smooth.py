import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbcd.blocks import BlockPartition
from pbcd.errors import InputError
from pbcd.experiment import reference_solution
from pbcd.generators import dual_from_data
from pbcd.matrixio import MatrixFile
from pbcd.problem import CompositeProblem
from pbcd.smooth import (DUAL, LOGISTIC, RESIDUAL, SmoothOperator,
                         spectral_norm_sq)
from pbcd.solver import SolverConfig, init_solver_state, run, step

from oracles import central_diff_gradient, dense_operator


def comp_problem(comp, lin=None):
    """Problem of one component (family, rows x n matrix, parameters, scale)
    over scalar blocks, unit weights."""
    n = np.atleast_2d(comp[1]).shape[1]
    lin = np.zeros(n) if lin is None else np.asarray(lin, dtype=float)
    return CompositeProblem(BlockPartition.from_sizes([1] * n),
                            dense_operator([comp], lin), weights=np.ones(n))


def comp_value(comp, x, lin=None):
    return comp_problem(comp, lin).smooth_value(np.asarray(x, dtype=float))


def comp_grad(comp, x, lin=None):
    return comp_problem(comp, lin).smooth_gradient(np.asarray(x, dtype=float))


def lipschitz(comp):
    return float(comp_problem(comp).smooth.lipschitz[0])


def one_entry_operator(family, val, param, scale):
    """A one-row, one-column operator built straight from its entry."""
    return SmoothOperator.from_entries(1, [0], [0], [val], [family], [param],
                                       [scale], [0])


def one(v):
    return np.array([float(v)])


# -- quadratic residual -------------------------------------------------------

def test_quadratic_residual_constants():
    assert lipschitz((RESIDUAL, [[2.0]], one(0.0), 1.0)) == 4.0
    assert lipschitz((RESIDUAL, [[3.0, 4.0]], one(0.0), 1.0)) == 25.0


def test_quadratic_residual_zero_at_fit():
    comp = (RESIDUAL, [[1.0, 1.0]], one(1.0), 1.0)
    assert comp_value(comp, [1.0, 0.0]) == 0.0
    assert np.all(comp_grad(comp, [1.0, 0.0]) == 0.0)


def test_quadratic_residual_rejects_zero_row():
    # an explicit zero entry reads block 0 but gives no curvature
    op = one_entry_operator(RESIDUAL, 0.0, 1.0, 1.0)
    with pytest.raises(InputError, match="Lipschitz constant 0.0"):
        CompositeProblem(BlockPartition.from_sizes([1]), op)


# -- logistic -----------------------------------------------------------------

def test_logistic_constant_with_averaging():
    comp = (LOGISTIC, [[2.0, 0.0]], one(1.0), 1.0)
    assert lipschitz(comp) == pytest.approx(1.0, rel=1e-15)
    comp4 = (LOGISTIC, [[2.0, 0.0]], one(1.0), 4.0)
    assert lipschitz(comp4) == pytest.approx(0.25, rel=1e-15)


def test_logistic_value_at_origin():
    for m in (1, 5):
        comp = (LOGISTIC, [[1.0, -2.0]], one(-1.0), float(m))
        assert comp_value(comp, [0.0, 0.0]) == pytest.approx(np.log(2.0) / m,
                                                             rel=1e-14)


def test_logistic_saturation():
    comp = (LOGISTIC, [[1.0]], one(1.0), 1.0)
    assert comp_value(comp, [40.0]) == pytest.approx(0.0, abs=1e-15)
    assert abs(comp_grad(comp, [40.0])[0]) < 1e-15


def test_logistic_rejects_bad_label():
    with pytest.raises(InputError, match="label"):
        one_entry_operator(LOGISTIC, 1.0, 0.0, 1.0)


# -- quadratic conjugate dual -------------------------------------------------

def test_dual_value_single_column():
    # one column with a single unit entry on the first coordinate
    comp = (DUAL, [[1.0, 0.0]], one(0.0), 1.0)
    for t in (0.5, 2.0, -3.0):
        assert comp_value(comp, [t, 9.0]) == pytest.approx(0.5 * t * t,
                                                           rel=1e-15)


def test_dual_value_and_gradient_at_origin():
    rhs = np.array([0.7, -0.3])
    comp = (DUAL, [[1.0, 2.0]], one(0.0), 1.5)
    assert comp_value(comp, [0.0, 0.0], lin=rhs) == 0.0
    # minimization form: the constraint right-hand side enters with +
    assert np.allclose(comp_grad(comp, [0.0, 0.0], lin=rhs), rhs, atol=1e-15)


def test_dual_center_shifts_gradient_at_origin():
    mat = np.array([[1.0], [2.0]])
    comp = (DUAL, mat.T, one(0.5), 1.0)
    g = comp_grad(comp, [0.0, 0.0])
    assert np.allclose(g, -mat @ np.array([0.5]), atol=1e-15)


def test_dual_sigma_scales_constant():
    mat = np.array([[1.0, 2.0], [0.5, -1.0]])
    one_sigma = (DUAL, mat, np.zeros(2), 1.0)
    two_sigma = (DUAL, mat, np.zeros(2), 2.0)
    assert lipschitz(two_sigma) == pytest.approx(lipschitz(one_sigma) / 2.0,
                                                 rel=1e-12)


def test_dual_rejects_bad_sigma():
    with pytest.raises(InputError, match="scale > 0"):
        one_entry_operator(DUAL, 1.0, 0.0, 0.0)


def test_spectral_norm_sq_matches_svd():
    rng = np.random.default_rng(11)
    for _ in range(25):
        mat = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        if np.linalg.norm(mat) == 0.0:
            continue
        want = np.linalg.norm(mat, 2) ** 2
        assert spectral_norm_sq(mat) == pytest.approx(want, rel=1e-12)


SPLIT = np.array([[1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])


def test_spectral_norm_sq_sign_cancelling_and_rank_deficient():
    # an all-ones start is orthogonal to the top singular vector of both
    assert spectral_norm_sq([[1.0, -1.0]] * 3) == pytest.approx(6.0, rel=1e-12)
    assert spectral_norm_sq(SPLIT) == pytest.approx(4.0, rel=1e-12)


def split_dual(rhs=(-0.5, 0.0, 0.0), sigma=1.0):
    """Dual of min sigma/2 ||u||^2 s.t. SPLIT u <= rhs, one component."""
    rows, cols = np.nonzero(SPLIT)
    mat = MatrixFile(rows=3, cols=3, row_idx=rows, col_idx=cols,
                     values=SPLIT[rows, cols])
    return dual_from_data(mat, np.asarray(rhs), [sigma], [np.zeros(3)])


def test_split_dual_weights_and_reference_optimum():
    # primal optimum u = (-1/4, 1/4, 0) with value 1/16, so the dual
    # minimum is -1/16
    prob = split_dual()
    assert prob.smooth.lipschitz[0] == pytest.approx(4.0, rel=1e-12)
    _, fstar, ok = reference_solution(prob, tol=1e-10, max_iters=2000)
    assert ok
    assert fstar == pytest.approx(-0.0625, abs=1e-12)


@st.composite
def cancelling_matrices(draw):
    """Small integer matrices whose rows repeat a few base rows up to sign:
    rank deficient, and with every row summing to zero when the base rows
    are mirrored as (b, -b)."""
    cols = draw(st.integers(1, 3))
    base = draw(st.lists(st.lists(st.integers(-2, 2), min_size=cols,
                                  max_size=cols).filter(any),
                         min_size=1, max_size=2))
    if draw(st.booleans()):
        base = [b + [-v for v in b] for b in base]
    picks = draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                    st.sampled_from((-1, 1))),
                          min_size=1, max_size=4))
    mat = np.array([[sign * v for v in base[k]] for k, sign in picks], float)
    return mat[:, np.any(mat != 0.0, axis=0)]


@settings(max_examples=60, deadline=None)
@given(mat=cancelling_matrices(), sigma=st.sampled_from((0.5, 1.0, 3.0)),
       block=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
@example(mat=np.array([[1.0, -1.0]] * 3), sigma=1.0, block=0, seed=0)
@example(mat=SPLIT, sigma=1.0, block=0, seed=0)
def test_dual_constants_bound_curvature(mat, sigma, block, seed):
    exact = float(np.linalg.eigvalsh(mat @ mat.T)[-1])
    assert spectral_norm_sq(mat) >= exact * (1.0 - 1e-12)
    assert spectral_norm_sq(mat.T) >= exact * (1.0 - 1e-12)
    # the dual of min sigma/2 ||u - c||^2 s.t. A u <= rhs with A = mat':
    # its operator is M = mat, one component, one dual block per row of A
    a = mat.T
    rows, cols = np.nonzero(a)
    file = MatrixFile(rows=a.shape[0], cols=a.shape[1], row_idx=rows,
                      col_idx=cols, values=a[rows, cols])
    rng = np.random.default_rng(seed)
    prob = dual_from_data(file, rng.normal(size=a.shape[0]), [sigma],
                          [rng.normal(size=a.shape[1])])
    assert prob.smooth.lipschitz[0] >= exact / sigma * (1.0 - 1e-12)
    # one block step satisfies the descent inequality with that weight
    x = np.abs(rng.normal(size=prob.n))
    i = block % prob.num_blocks
    g = prob.smooth_gradient(x)
    state = init_solver_state(prob, x)
    step(prob, state, [i])
    d = state.x - x
    bound = (prob.smooth_value(x) + float(g @ d)
             + 0.5 * prob.weights[i] * float(d @ d))
    assert prob.smooth_value(state.x) <= bound + 1e-9 * (1.0 + abs(bound))


def residual_problem(mat, param, scale):
    """One residual component per row of `mat`, one coordinate per block."""
    rows, cols = np.nonzero(mat)
    op = SmoothOperator.from_entries(
        mat.shape[1], rows, cols, mat[rows, cols], np.full(mat.shape[0], RESIDUAL),
        param, scale, np.arange(mat.shape[0]))
    return CompositeProblem(BlockPartition.uniform(mat.shape[1], 1), op)


def test_scaled_residual_row_solves_in_full_mode():
    # f(x) = (x1 + x2 - 1)^2 / 8: curvature 2/4 along (1, 1), which the
    # constant must bound, or full mode overshoots and raises
    prob = residual_problem(np.array([[1.0, 1.0]]), [1.0], [4.0])
    assert prob.smooth.lipschitz[0] == 0.5
    z = np.array([3.0])
    assert prob.smooth.values(z)[0] == 0.5 and prob.smooth.derivs(z)[0] == 0.5
    res = run(prob, SolverConfig(mode="full", max_iters=50), np.zeros(2))
    assert res.objective < 1e-12


@settings(max_examples=60, deadline=None)
@given(mat=cancelling_matrices(),
       scales=st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4),
       block=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
@example(mat=np.array([[1.0, 1.0]]), scales=[4.0] * 4, block=0, seed=0)
def test_scaled_residual_constants_bound_curvature(mat, scales, block, seed):
    rng = np.random.default_rng(seed)
    prob = residual_problem(mat, rng.normal(size=mat.shape[0]),
                            scales[:mat.shape[0]])
    # one block step satisfies the descent inequality with the block weight
    x = rng.normal(size=prob.n)
    i = block % prob.num_blocks
    g = prob.smooth_gradient(x)
    state = init_solver_state(prob, x)
    step(prob, state, [i])
    d = state.x - x
    bound = (prob.smooth_value(x) + float(g @ d)
             + 0.5 * prob.weights[i] * float(d @ d))
    assert prob.smooth_value(state.x) <= bound + 1e-9 * (1.0 + abs(bound))
    # and full mode, which checks its own descent, runs through
    run(prob, SolverConfig(mode="full", max_iters=20), x)


# -- shared properties --------------------------------------------------------

def _random_components(rng):
    """(component, linear term) pairs over blocks {0, 1}, {2}, {3, 4, 5}: a
    residual row on every block, a logistic sample on the first and last
    block, and a two-row dual component with its linear term on the last
    two blocks."""
    n = 6
    logi, dual, lin = np.zeros((1, n)), np.zeros((2, n)), np.zeros(n)
    res = (RESIDUAL, rng.normal(size=(1, n)), rng.normal(size=1), 1.0)
    logi[0, [0, 1, 3, 4, 5]] = rng.normal(size=5)
    label = one(1.0 if rng.random() < 0.5 else -1.0)
    dual[:, 2:] = rng.normal(size=(2, 4))
    lin[2:] = rng.normal(size=4)
    sigma = float(rng.uniform(0.5, 2.0))
    return [(res, np.zeros(n)), ((LOGISTIC, logi, label, 3.0), np.zeros(n)),
            ((DUAL, dual, rng.normal(size=2), sigma), lin)]


def restricted(comp, lin):
    """Value and gradient of one component as functions of the coordinates
    its rows read, their count and the component's constant."""
    prob = comp_problem(comp, lin)
    cols = np.flatnonzero(np.any(comp[1] != 0.0, axis=0))

    def embed(v):
        x = np.zeros(prob.n)
        x[cols] = v
        return x

    return (lambda v: prob.smooth_value(embed(v)),
            lambda v: prob.smooth_gradient(embed(v))[cols],
            cols.size, float(prob.smooth.lipschitz[0]))


def test_gradients_match_central_differences():
    rng = np.random.default_rng(5)
    for comp, lin in _random_components(rng):
        value, grad_of, dim, _ = restricted(comp, lin)
        for _ in range(20):
            flat = rng.normal(size=dim)
            grad = grad_of(flat)
            fd = central_diff_gradient(value, flat)
            denom = max(1.0, float(np.linalg.norm(grad)))
            assert np.linalg.norm(grad - fd) / denom < 1e-5


def test_sampled_lipschitz_bound():
    rng = np.random.default_rng(6)
    for comp, lin in _random_components(rng):
        _, grad_of, dim, lip = restricted(comp, lin)
        for _ in range(200):
            a = rng.normal(size=dim) * 2.0
            b = rng.normal(size=dim) * 2.0
            lhs = np.linalg.norm(grad_of(a) - grad_of(b))
            rhs = lip * np.linalg.norm(a - b)
            assert lhs <= rhs * (1.0 + 1e-9) + 1e-12


def test_midpoint_convexity():
    rng = np.random.default_rng(8)
    for comp, lin in _random_components(rng):
        value, _, dim, _ = restricted(comp, lin)
        for _ in range(200):
            a = rng.normal(size=dim) * 3.0
            b = rng.normal(size=dim) * 3.0
            fm = value(0.5 * (a + b))
            assert fm <= 0.5 * value(a) + 0.5 * value(b) + 1e-12
