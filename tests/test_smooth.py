import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbcd.blocks import BlockPartition
from pbcd.errors import InputError
from pbcd.experiment import reference_solution
from pbcd.generators import dual_from_data
from pbcd.matrixio import MatrixFile
from pbcd.problem import assemble_problem
from pbcd.regularizers import Zero
from pbcd.smooth import (make_logistic, make_quadratic_conjugate_dual,
                         make_quadratic_residual, spectral_norm_sq)
from pbcd.solver import init_solver_state, step

from oracles import central_diff_gradient


def comp_problem(comp):
    """One-component problem over the component's blocks, unit weights."""
    sizes = np.ones(int(comp.blocks[-1]) + 1, dtype=int)
    sizes[comp.blocks] = [p.shape[0] for p in comp.parts]
    nb = sizes.size
    return assemble_problem(BlockPartition.from_sizes(sizes), [comp],
                            [Zero()] * nb, weights=np.ones(nb))


def _embed(prob, comp, parts):
    x = np.zeros(prob.n)
    for i, p in zip(comp.blocks, parts):
        x[prob.partition.slice(i)] = p
    return x


def comp_value(comp, parts):
    prob = comp_problem(comp)
    return prob.smooth_value(_embed(prob, comp, parts))


def comp_grad(comp, parts):
    prob = comp_problem(comp)
    x = _embed(prob, comp, parts)
    return [prob.partial_gradient(x, int(i)) for i in comp.blocks]


def lipschitz(comp):
    return float(comp_problem(comp).smooth.lipschitz[0])


# -- quadratic residual -------------------------------------------------------

def test_quadratic_residual_constants():
    assert lipschitz(make_quadratic_residual([0], [[2.0]], 0.0)) == 4.0
    assert lipschitz(make_quadratic_residual([0, 1], [[3.0], [4.0]], 0.0)) == 25.0


def test_quadratic_residual_zero_at_fit():
    comp = make_quadratic_residual([0, 1], [[1.0], [1.0]], 1.0)
    assert comp_value(comp, [[1.0], [0.0]]) == 0.0
    for g in comp_grad(comp, [[1.0], [0.0]]):
        assert np.all(g == 0.0)


def test_quadratic_residual_rejects_zero_row():
    with pytest.raises(InputError):
        make_quadratic_residual([0], [[0.0]], 1.0)


# -- logistic -----------------------------------------------------------------

def test_logistic_constant_with_averaging():
    comp = make_logistic([0], [[2.0, 0.0]], 1, num_samples=1)
    assert lipschitz(comp) == pytest.approx(1.0, rel=1e-15)
    comp4 = make_logistic([0], [[2.0, 0.0]], 1, num_samples=4)
    assert lipschitz(comp4) == pytest.approx(0.25, rel=1e-15)


def test_logistic_value_at_origin():
    for m in (1, 5):
        comp = make_logistic([0], [[1.0, -2.0]], -1, num_samples=m)
        assert comp_value(comp, [[0.0, 0.0]]) == pytest.approx(np.log(2.0) / m,
                                                               rel=1e-14)


def test_logistic_saturation():
    comp = make_logistic([0], [[1.0]], 1, num_samples=1)
    assert comp_value(comp, [[40.0]]) == pytest.approx(0.0, abs=1e-15)
    g, = comp_grad(comp, [[40.0]])
    assert abs(g[0]) < 1e-15


def test_logistic_rejects_bad_label():
    with pytest.raises(InputError):
        make_logistic([0], [[1.0]], 0, num_samples=1)


# -- quadratic conjugate dual -------------------------------------------------

def test_dual_value_single_column():
    # one column with a single unit entry on the first coordinate
    comp = make_quadratic_conjugate_dual(
        [0], mats=[[[1.0], [0.0]]], sigma=1.0, center=[0.0],
        rhs_parts=[[0.0, 0.0]])
    for t in (0.5, 2.0, -3.0):
        assert comp_value(comp, [[t, 9.0]]) == pytest.approx(0.5 * t * t,
                                                             rel=1e-15)


def test_dual_value_and_gradient_at_origin():
    rhs = np.array([0.7, -0.3])
    comp = make_quadratic_conjugate_dual(
        [0], mats=[[[1.0], [2.0]]], sigma=1.5, center=[0.0], rhs_parts=[rhs])
    assert comp_value(comp, [[0.0, 0.0]]) == 0.0
    g, = comp_grad(comp, [[0.0, 0.0]])
    # minimization form: the constraint right-hand side share enters with +
    assert np.allclose(g, rhs, atol=1e-15)


def test_dual_center_shifts_gradient_at_origin():
    comp = make_quadratic_conjugate_dual(
        [0], mats=[[[1.0], [2.0]]], sigma=1.0, center=[0.5],
        rhs_parts=[[0.0, 0.0]])
    g, = comp_grad(comp, [[0.0, 0.0]])
    mat = np.array([[1.0], [2.0]])
    assert np.allclose(g, -mat @ np.array([0.5]), atol=1e-15)


def test_dual_sigma_scales_constant():
    mats = [[[1.0, 0.5], [2.0, -1.0]]]
    one = make_quadratic_conjugate_dual([0], mats, 1.0, [0.0, 0.0],
                                        [[0.0, 0.0]])
    two = make_quadratic_conjugate_dual([0], mats, 2.0, [0.0, 0.0],
                                        [[0.0, 0.0]])
    assert lipschitz(two) == pytest.approx(lipschitz(one) / 2.0, rel=1e-12)


def test_dual_rejects_bad_sigma():
    with pytest.raises(InputError):
        make_quadratic_conjugate_dual([0], [[[1.0]]], 0.0, [0.0], [[0.0]])


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


# -- shared properties --------------------------------------------------------

def _random_components(rng):
    comps = []
    sizes = [2, 1, 3]
    coeffs = [rng.normal(size=s) for s in sizes]
    comps.append(make_quadratic_residual([0, 1, 2], coeffs, rng.normal()))
    comps.append(make_logistic([0, 2], [rng.normal(size=2), rng.normal(size=3)],
                               1 if rng.random() < 0.5 else -1, num_samples=3))
    comps.append(make_quadratic_conjugate_dual(
        [1, 2], mats=[rng.normal(size=(1, 2)), rng.normal(size=(3, 2))],
        sigma=float(rng.uniform(0.5, 2.0)), center=rng.normal(size=2),
        rhs_parts=[rng.normal(size=1), rng.normal(size=3)]))
    return comps, sizes


def test_gradients_match_central_differences():
    rng = np.random.default_rng(5)
    comps, sizes = _random_components(rng)
    for comp in comps:
        dims = [sizes[int(i)] for i in comp.blocks]
        total = sum(dims)
        splits = np.cumsum(dims)[:-1]

        def func(flat, comp=comp, splits=splits):
            return comp_value(comp, np.split(flat, splits))

        for _ in range(20):
            flat = rng.normal(size=total)
            grad = np.concatenate(comp_grad(comp, np.split(flat, splits)))
            fd = central_diff_gradient(func, flat)
            denom = max(1.0, float(np.linalg.norm(grad)))
            assert np.linalg.norm(grad - fd) / denom < 1e-5


def test_sampled_lipschitz_bound():
    rng = np.random.default_rng(6)
    comps, sizes = _random_components(rng)
    for comp in comps:
        dims = [sizes[int(i)] for i in comp.blocks]
        total = sum(dims)
        splits = np.cumsum(dims)[:-1]
        for _ in range(200):
            a = rng.normal(size=total) * 2.0
            b = rng.normal(size=total) * 2.0
            ga = np.concatenate(comp_grad(comp, np.split(a, splits)))
            gb = np.concatenate(comp_grad(comp, np.split(b, splits)))
            lhs = np.linalg.norm(ga - gb)
            rhs = lipschitz(comp) * np.linalg.norm(a - b)
            assert lhs <= rhs * (1.0 + 1e-9) + 1e-12


def test_midpoint_convexity():
    rng = np.random.default_rng(8)
    comps, sizes = _random_components(rng)
    for comp in comps:
        dims = [sizes[int(i)] for i in comp.blocks]
        total = sum(dims)
        splits = np.cumsum(dims)[:-1]
        for _ in range(200):
            a = rng.normal(size=total) * 3.0
            b = rng.normal(size=total) * 3.0
            fm = comp_value(comp, np.split(0.5 * (a + b), splits))
            fa = comp_value(comp, np.split(a, splits))
            fb = comp_value(comp, np.split(b, splits))
            assert fm <= 0.5 * fa + 0.5 * fb + 1e-12
