import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse.csgraph import structural_rank

from pbcd.analysis import (RateBundle, _min_sum_two_var_lp, bundle_from_reference,
                           error_bound_chain, estimate_strong_convexity,
                           fit_error_bound_constants,
                           iters_to_confidence_error_bound,
                           iters_to_confidence_sublinear,
                           linear_rate_error_bound,
                           linear_rate_strongly_convex, sublinear_gap_bound)
from pbcd.blocks import BlockPartition
from pbcd.errors import ErrorBoundWitnessError, InputError
from pbcd.generators import (dual_from_data, generate_dual, generate_lasso,
                             generate_logistic, lasso_from_matrix,
                             logistic_from_matrix)
from pbcd.matrixio import MatrixFile
from pbcd.problem import CompositeProblem
from pbcd.smooth import DUAL, RESIDUAL, SmoothOperator
from pbcd.solver import SolverConfig, run

from oracles import min_sum_two_var_lp, normalized_hessian_min_eig
from test_problem import (corner_problem, mixed_problem, traced_peak,
                          use_chunk_rows, wide_lasso)


def bundle(N, tau, **kw):
    return RateBundle(num_blocks=N, batch_size=tau, **kw)


# Expected values frozen from independent cell-by-cell evaluations.
SUBLINEAR_CASES = [
    ((10, 2, 1.0, 1.0), 0, 1.5),
    ((10, 10, 2.0, 3.0), 7, 0.625),
    ((100, 7, 0.5, 2.5), 123, 0.27315296566077),
    ((3, 1, 4.0, 0.25), 9, 2.0625),
    ((50, 5, 1.5, 9.0), 1000, 0.10024752475247525),
]


@pytest.mark.parametrize("params,k,want", SUBLINEAR_CASES)
def test_sublinear_bound_hand_values(params, k, want):
    N, tau, r, d0 = params
    got = sublinear_gap_bound(bundle(N, tau, radius=r, initial_gap=d0), k)
    assert got == pytest.approx(want, rel=1e-12)


def test_sublinear_bound_structure():
    b = bundle(10, 2, radius=1.0, initial_gap=1.0)
    vals = [sublinear_gap_bound(b, k) for k in range(0, 200, 10)]
    assert all(a >= c for a, c in zip(vals, vals[1:]))
    assert sublinear_gap_bound(b, 10 ** 9) < 1e-6
    # full batch: bound reduces to (R^2/2 + gap) / (k + 1)
    fb = bundle(10, 10, radius=2.0, initial_gap=3.0)
    for k in (0, 1, 5, 33):
        assert sublinear_gap_bound(fb, k) == pytest.approx(5.0 / (k + 1),
                                                           rel=1e-14)


CONFIDENCE_CASES = [
    ((10, 2, 1.0, 1.0), 0.01, 0.1, 2314),
    ((100, 10, 2.0, 5.0), 0.5, 0.05, 492),
    ((4, 4, 1.0, 2.0), 0.2, 0.5, 9),
    ((50, 1, 3.0, 10.0), 0.001, 0.01, 4590392),
    ((20, 5, 0.3, 0.8), 0.1, 0.25, 50),
]


@pytest.mark.parametrize("params,eps,rho,want", CONFIDENCE_CASES)
def test_sublinear_confidence_hand_values(params, eps, rho, want):
    N, tau, r, d0 = params
    got = iters_to_confidence_sublinear(
        bundle(N, tau, radius=r, initial_gap=d0), eps, rho)
    assert got == want


def test_sublinear_confidence_monotone_and_log_increment():
    b = bundle(10, 2, radius=1.0, initial_gap=1.0)
    k1 = iters_to_confidence_sublinear(b, 0.01, 0.1)
    assert iters_to_confidence_sublinear(b, 0.02, 0.1) <= k1
    assert iters_to_confidence_sublinear(b, 0.01, 0.2) <= k1
    # halving rho adds (c / eps) * log 2 before rounding
    from pbcd.analysis import _sublinear_confidence_rhs
    c = 2.0 * (10 / 2) * max(1.0, 1.0)
    inc = (_sublinear_confidence_rhs(b, 0.01, 0.05)
           - _sublinear_confidence_rhs(b, 0.01, 0.1))
    assert inc == pytest.approx((c / 0.01) * np.log(2.0), rel=1e-12)


def test_sublinear_confidence_validation():
    b = bundle(10, 2, radius=1.0, initial_gap=1.0)
    with pytest.raises(InputError):
        iters_to_confidence_sublinear(b, 1.0, 0.1)   # eps >= gap
    with pytest.raises(InputError):
        iters_to_confidence_sublinear(b, 0.1, 0.0)
    with pytest.raises(InputError):
        iters_to_confidence_sublinear(b, 0.1, 1.0)
    with pytest.raises(InputError):
        iters_to_confidence_sublinear(b, -0.1, 0.5)


SC_CASES = [
    ((10, 1), 0.5, 0.95),
    ((10, 10), 1.0, 0.0),
    ((7, 3), 0.2, 0.9142857142857143),
    ((100, 25), 0.9, 0.775),
    ((2, 1), 1.0, 0.5),
]


@pytest.mark.parametrize("params,s,want", SC_CASES)
def test_strongly_convex_factor_hand_values(params, s, want):
    N, tau = params
    got = linear_rate_strongly_convex(bundle(N, tau, strong_convexity=s))
    assert got == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_strongly_convex_factor_range_and_validation():
    rng = np.random.default_rng(0)
    for _ in range(100):
        N = int(rng.integers(1, 50))
        tau = int(rng.integers(1, N + 1))
        s = float(rng.uniform(1e-6, 1.0))
        f = linear_rate_strongly_convex(bundle(N, tau, strong_convexity=s))
        assert 0.0 <= f < 1.0
    with pytest.raises(InputError):
        linear_rate_strongly_convex(bundle(10, 1, strong_convexity=0.0))
    with pytest.raises(InputError):
        linear_rate_strongly_convex(bundle(10, 1, strong_convexity=1.5))


EB_CASES = [
    ((1, 1, 1.0, 0.0, 0.0),
     (1.0, 2.0, 3.0, 6.0, 0.8571428571428571)),
    ((10, 2, 2.0, 0.0, 0.0),
     (4.47213595499958, 5.47213595499958, 15.472135954999581,
      158.7213595499958, 0.9937390966191533)),
    ((10, 2, 1.0, 1.0, 2.0),
     (11.180339887498949, 12.180339887498949, 67.18033988749896,
      675.8033988749896, 0.9985224660489852)),
    ((40, 10, 0.5, 0.25, 3.0),
     (5.5, 6.5, 20.59375, 167.75, 0.9940740740740741)),
    ((6, 6, 3.0, 2.0, 1.0),
     (5.0, 6.0, 11.0, 22.0, 0.9565217391304348)),
]


@pytest.mark.parametrize("params,want", EB_CASES)
def test_error_bound_chain_hand_values(params, want):
    N, tau, k1, k2, r = params
    chain = error_bound_chain(
        bundle(N, tau, eb_const=k1, eb_quad=k2, radius=r))
    for got, expect in zip(chain, want):
        assert got == pytest.approx(expect, rel=1e-12)


def test_error_bound_rate_below_one_and_monotone():
    rng = np.random.default_rng(1)
    for _ in range(200):
        N = int(rng.integers(1, 60))
        tau = int(rng.integers(1, N + 1))
        b = bundle(N, tau, eb_const=float(rng.uniform(0, 10)),
                   eb_quad=float(rng.uniform(0, 10)) + 1e-9,
                   radius=float(rng.uniform(0, 5)))
        assert 0.0 < linear_rate_error_bound(b) < 1.0
    # monotone: increasing either coefficient or the radius raises the rate,
    # increasing the batch lowers it
    base = dict(eb_const=1.0, eb_quad=0.5, radius=2.0)
    t0 = linear_rate_error_bound(bundle(20, 4, **base))
    assert linear_rate_error_bound(bundle(20, 4, **{**base, "eb_const": 2.0})) > t0
    assert linear_rate_error_bound(bundle(20, 4, **{**base, "eb_quad": 1.0})) > t0
    assert linear_rate_error_bound(bundle(20, 4, **{**base, "radius": 3.0})) > t0
    assert linear_rate_error_bound(bundle(20, 8, **base)) < t0


EB_CONF_CASES = [
    ((1, 1, 1.0, 0.0, 0.0, 2.0), 0.1, 0.2, 33),
    ((10, 2, 2.0, 0.0, 0.0, 5.0), 0.05, 0.1, 1104),
    ((10, 2, 1.0, 1.0, 2.0, 1.0), 0.01, 0.5, 3586),
    ((40, 10, 0.5, 0.25, 3.0, 8.0), 0.4, 0.02, 1166),
    ((6, 6, 3.0, 2.0, 1.0, 3.0), 0.003, 0.9, 162),
]


@pytest.mark.parametrize("params,eps,rho,want", EB_CONF_CASES)
def test_error_bound_confidence_hand_values(params, eps, rho, want):
    N, tau, k1, k2, r, d0 = params
    b = bundle(N, tau, eb_const=k1, eb_quad=k2, radius=r, initial_gap=d0)
    assert iters_to_confidence_error_bound(b, eps, rho) == want


def test_error_bound_confidence_halving_eps_increment():
    b = bundle(10, 2, eb_const=2.0, eb_quad=0.0, initial_gap=5.0)
    theta = linear_rate_error_bound(b)
    import math
    r1 = math.log(5.0 / (0.1 * 0.2)) / (1 - theta)
    r2 = math.log(5.0 / (0.05 * 0.2)) / (1 - theta)
    assert r2 - r1 == pytest.approx(math.log(2.0) / (1 - theta), rel=1e-12)


def test_error_bound_chain_validation():
    with pytest.raises(InputError):
        error_bound_chain(bundle(10, 2, eb_const=0.0, eb_quad=0.0))
    with pytest.raises(InputError):
        error_bound_chain(bundle(10, 2, eb_const=-1.0, eb_quad=0.0))
    with pytest.raises(InputError):
        error_bound_chain(bundle(10, 2, eb_const=1.0, eb_quad=1.0))  # no radius


# -- strong convexity estimation ----------------------------------------------

def quad_problem(mat, lam=0.0, block_size=1):
    """0.5 ||mat x||^2 + lam ||x||_1, one residual row per row of mat."""
    rows, cols = np.nonzero(mat)
    file = MatrixFile(mat.shape[0], mat.shape[1], rows, cols, mat[rows, cols])
    return lasso_from_matrix(file, np.zeros(mat.shape[0]), lam,
                             block_size=block_size)


def residual_rows(mat):
    return [(RESIDUAL, row[None, :], np.zeros(1), 1.0) for row in mat]


def test_strong_convexity_matches_dense_eigensolve():
    rng = np.random.default_rng(2)
    for _ in range(5):
        mat = rng.normal(size=(9, 6)) + np.vstack([np.eye(6) * 2.0,
                                                   np.zeros((3, 6))])
        prob = quad_problem(mat)
        want = normalized_hessian_min_eig(residual_rows(mat), prob.coord_weights)
        got = estimate_strong_convexity(prob)
        assert got == pytest.approx(want, rel=1e-8)


def test_strong_convexity_block_size_3_lasso_matches_oracle():
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(14, 9)) * (rng.random((14, 9)) < 0.6)
    mat[np.arange(9), np.arange(9)] += 1.5
    prob = quad_problem(mat, lam=0.2, block_size=3)
    assert prob.num_blocks == 3
    want = normalized_hessian_min_eig(residual_rows(mat), prob.coord_weights)
    assert want > 1e-3
    assert estimate_strong_convexity(prob) == pytest.approx(want, rel=1e-8)


def test_strong_convexity_dual_matches_oracle():
    # constraint matrix A (4 x 6) over primal parts of widths 2, 3, 1; the
    # dual's Hessian is sum_j A_j A_j' / sigma_j
    a_mat = np.array([[1.0, 0.0, 2.0, 0.0, -1.0, 0.0],
                      [0.0, 1.5, 0.0, 1.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0, 0.5, 0.0, 2.0],
                      [0.0, -1.0, 1.0, 0.0, 1.0, 1.0]])
    parts = [[0, 1], [2, 3, 4], [5]]
    sigmas = [0.5, 2.0, 1.0]
    centers = [np.zeros(len(p)) for p in parts]
    rows, cols = np.nonzero(a_mat)
    prob = dual_from_data(MatrixFile(4, 6, rows, cols, a_mat[rows, cols]),
                          np.ones(4), sigmas, centers)
    comps = [(DUAL, a_mat[:, p].T, c, s)
             for p, c, s in zip(parts, centers, sigmas)]
    want = normalized_hessian_min_eig(comps, prob.coord_weights)
    assert want > 1e-3
    assert estimate_strong_convexity(prob) == pytest.approx(want, rel=1e-8)


def test_strong_convexity_generated_dual_matches_oracle():
    gen = generate_dual(40, seed=1)
    mat = gen.matrix
    dense = np.zeros((mat.rows, mat.cols))
    dense[mat.row_idx, mat.col_idx] = mat.values
    comps = [(DUAL, dense[:, [j]].T, c, s) for j, (c, s) in
             enumerate(zip(gen.extras["centers"], gen.extras["sigmas"]))]
    want = normalized_hessian_min_eig(comps, gen.problem.coord_weights)
    assert want > 0.0
    assert estimate_strong_convexity(gen.problem) == pytest.approx(want, rel=1e-8)


def test_strong_convexity_singular_returns_zero():
    mat = np.array([[1.0, 1.0], [2.0, 2.0]])  # rank 1
    prob = quad_problem(mat)
    assert estimate_strong_convexity(prob) == 0.0


def test_strong_convexity_wide_operator_returns_zero():
    mat = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])
    assert estimate_strong_convexity(quad_problem(mat)) == 0.0


def test_strong_convexity_structurally_deficient_tall_operator_returns_zero():
    # columns 0 and 1 only ever share row 0, so at most one of them can be
    # matched to a row: structural rank 2 < n = 3 on a 4 x 3 operator
    mat = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.5],
                    [0.0, 0.0, 0.5]])
    prob = quad_problem(mat)
    assert structural_rank(prob.smooth.matrix) == 2
    assert estimate_strong_convexity(prob) == 0.0


def test_strong_convexity_numerically_singular_returns_zero():
    # a dense 5 x 4 operator whose last column mixes the first two: full
    # structural rank, a singular Hessian, and a smallest computed
    # eigenvalue that rounding leaves around 1e-16 instead of zero
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(5, 3))
    mat = np.hstack([mat, 0.7 * mat[:, :1] + 0.3 * mat[:, 1:2]])
    prob = quad_problem(mat)
    assert structural_rank(prob.smooth.matrix) == 4
    assert estimate_strong_convexity(prob) == 0.0


@pytest.mark.parametrize("rows", [900, 1200], ids=["wide", "tall"])
def test_strong_convexity_allocates_no_dense_copy(rows):
    # the README lasso (900 x 1000) and a tall variant (1200 x 1000) have
    # structural rank 833 and 968 < n, so the estimate must return before
    # any rows x n or n x n array exists
    prob = generate_lasso(rows, 1000, 0.002, lam=10.0, seed=1).problem
    prob.coord_weights, prob.smooth.entry_cols  # warm the cached arrays
    tracemalloc.start()
    try:
        sigma = estimate_strong_convexity(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sigma == 0.0
    assert peak < 1_000_000


@st.composite
def quadratic_operators(draw):
    """Small residual and dual operators, tall, square or wide, as dense
    per-component tuples plus the partition and the operator built from
    them.  Stored entries may hold explicit zeros, rows may be duplicated,
    and every row keeps a nonzero and every column a stored entry."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    vals = st.sampled_from((0.0, 1.0, -1.0, 2.0, 0.5, -1.5))
    dense = np.array(draw(st.lists(st.lists(vals, min_size=n, max_size=n),
                                   min_size=m, max_size=m)))
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    stored = (dense != 0.0) | np.array(draw(st.lists(flags, min_size=m,
                                                     max_size=m)))
    if m > 1 and draw(st.booleans()):
        src, dst = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        dense[dst], stored[dst] = dense[src], stored[src]
    for r in np.flatnonzero(~dense.any(axis=1)):
        dense[r, r % n], stored[r, r % n] = 1.0, True
    for c in np.flatnonzero(~stored.any(axis=0)):
        stored[c % m, c] = True
    sizes = []
    while sum(sizes) < m:
        sizes.append(min(draw(st.integers(1, 2)), m - sum(sizes)))
    family = draw(st.lists(st.sampled_from((RESIDUAL, DUAL)),
                           min_size=len(sizes), max_size=len(sizes)))
    scale = [1.0 if f == RESIDUAL else draw(st.sampled_from((0.5, 1.0, 3.0)))
             for f in family]
    bounds = np.cumsum([0] + sizes)
    comps = [(f, dense[lo:hi], np.zeros(hi - lo), s)
             for f, s, lo, hi in zip(family, scale, bounds[:-1], bounds[1:])]
    rows, cols = np.nonzero(stored)
    op = SmoothOperator.from_entries(
        n, rows, cols, dense[rows, cols], np.repeat(family, sizes),
        np.zeros(m), np.repeat(scale, sizes), np.repeat(np.arange(len(sizes)), sizes))
    part = BlockPartition.uniform(n, draw(st.integers(1, 3)))
    return part, op, comps


@settings(max_examples=300, deadline=None)
@given(case=quadratic_operators())
def test_strong_convexity_matches_oracle_property(case):
    part, op, comps = case
    prob = CompositeProblem(part, op)
    want = normalized_hessian_min_eig(comps, prob.coord_weights)
    got = estimate_strong_convexity(prob)
    assert got == pytest.approx(want, rel=1e-8, abs=1e-12)
    if op.matrix.shape[0] < op.matrix.shape[1]:
        assert got == 0.0


def test_strong_convexity_rejects_logistic():
    prob = logistic_from_matrix(MatrixFile(1, 1, [0], [0], [1.0]), [1], 0.0)
    with pytest.raises(InputError):
        estimate_strong_convexity(prob)


# -- error bound fitting -------------------------------------------------------

def test_fit_on_strongly_convex_quadratic_respects_theory():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(8, 5)) + np.vstack([np.eye(5) * 1.5,
                                               np.zeros((3, 5))])
    prob = quad_problem(mat, lam=0.3)
    ref = run(prob, SolverConfig(mode="full", max_iters=20000,
                                 eps_mapping=1e-12, check_stride=1),
              np.zeros(prob.n))
    assert ref.converged
    xstar = ref.x
    sigma = estimate_strong_convexity(prob)
    # sample inside the unit weighted ball around the optimum, where the
    # single-constant description is the cheapest feasible fit
    points = []
    for raw in rng.normal(size=(60, prob.n)):
        scale = float(rng.uniform(0.05, 0.9)) / prob.norm_w(raw)
        points.append(xstar + raw * scale)
    fit = fit_error_bound_constants(prob, xstar, points)
    assert fit.max_violation <= 1e-9
    assert fit.quad_coeff <= 1e-8
    assert fit.const_coeff <= 2.0 / sigma * (1.0 + 1e-6)


# -- the two-variable LP behind the fit -----------------------------------------

_COEF = st.floats(0.01, 100.0)
_OR_ZERO = st.one_of(st.just(0.0), _COEF)


@st.composite
def lp_rows(draw):
    """a > 0, b and c >= 0 with zeros, plus repeated rows and rows parallel
    to an earlier one (the same a : b, scaled by a power of two, own c)."""
    rows = draw(st.lists(st.tuples(_COEF, _OR_ZERO, _OR_ZERO), min_size=1,
                         max_size=30))
    for _ in range(draw(st.integers(0, 10))):
        a, b, c = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            k = draw(st.sampled_from((0.5, 1.0, 2.0, 4.0)))
            a, b, c = k * a, k * b, draw(_OR_ZERO)
        rows.append((a, b, c))
    return tuple(np.array(col) for col in zip(*rows))


def _assert_lp_matches(a, b, c):
    p, q = _min_sum_two_var_lp(a, b, c)
    po, qo, feas_tol = min_sum_two_var_lp(a, b, c)
    assert p >= 0.0 and q >= 0.0
    assert np.all(a * p + b * q >= c - feas_tol)
    assert abs((p + q) - (po + qo)) <= 1e-12 * (po + qo)
    return p, q


@settings(max_examples=400, deadline=None)
@given(rows=lp_rows())
# one steep row: q taken from it at the rounded p would read 2e-14, not 0
@example(rows=(np.array([98.0, 49.0]), np.array([0.01, 0.005]), np.array([0.0, 1.0])))
def test_lp_matches_enumeration_and_highs(rows):
    a, b, c = rows
    p, q = _assert_lp_matches(a, b, c)
    lp = linprog([1.0, 1.0], A_ub=-np.column_stack([a, b]), b_ub=-c,
                 bounds=[(0.0, None)] * 2, method="highs")
    assert lp.status == 0
    assert abs((p + q) - lp.fun) <= 1e-12 * abs(lp.fun)


@pytest.mark.parametrize("a, b, c, want", [
    ([], [], [], (0.0, 0.0)),
    ([1.0, 2.0], [3.0, 0.0], [0.0, 0.0], (0.0, 0.0)),
    ([2.0], [1.0], [4.0], (2.0, 0.0)),
    ([1.0, 2.0], [0.0, 0.0], [3.0, 2.0], (3.0, 0.0)),
    # q >= 4 - 3p, then q >= 2 - p: the envelope has slope -1 on [1, 2],
    # where p + q = 2 throughout; the solver takes the segment's start
    ([3.0, 1.0], [1.0, 1.0], [4.0, 2.0], (1.0, 1.0)),
    # a row with a = b = 0 and c > 0 has no cover: the largest c / a
    ([0.0, 2.0], [0.0, 0.0], [1.0, 4.0], (2.0, 0.0)),
], ids=["empty", "all-c-zero", "one-row", "all-b-zero", "slope-minus-one",
        "uncoverable-row"])
def test_lp_fixed_cases(a, b, c, want):
    a, b, c = (np.array(v, dtype=float) for v in (a, b, c))
    assert _min_sum_two_var_lp(a, b, c) == want
    # the oracle may end elsewhere on the slope -1 segment
    assert sum(min_sum_two_var_lp(a, b, c)[:2]) == sum(want)


def test_fit_on_corner_problem_ray():
    prob = corner_problem()
    pts = [np.array([t, t], dtype=float) for t in range(1, 101)]
    fit = fit_error_bound_constants(prob, np.zeros(2), pts)
    ratios = fit.classical_ratios
    assert np.allclose(ratios, np.arange(1, 101), atol=1e-9)
    assert fit.max_violation <= 1e-9
    # the single-constant (classical) description needs a constant >= max t,
    # while the two-coefficient fit stays small
    assert fit.const_coeff + fit.quad_coeff < 2.0
    # the pair (1, 1) must be feasible for every sample
    d, g = fit.distances, fit.residual_norms
    assert np.all(d <= (1.0 + d ** 2) * g + 1e-9)


def test_fit_reports_witness_for_zero_mapping_positive_distance():
    prob = corner_problem()

    def fake_projection(_x):
        return np.array([5.0, 5.0])

    # at the true optimum the mapping is zero; pretending the optimal set is
    # elsewhere must surface as a witness, not as a fit
    with pytest.raises(ErrorBoundWitnessError):
        fit_error_bound_constants(prob, fake_projection, [np.zeros(2)])


def family_problems():
    """One problem per row family plus the mixed operator, with l1 weights,
    a block size of 3 and the dual's nonnegativity bounds among them."""
    return {
        "lasso": generate_lasso(30, 40, 0.2, lam=0.5, seed=2).problem,
        "logistic-block-3": generate_logistic(40, 24, 0.2, lam=0.02, seed=3,
                                              block_size=3).problem,
        "dual": generate_dual(6, seed=4).problem,
        "mixed": mixed_problem(np.random.default_rng(1))[0],
    }


@pytest.mark.parametrize("name", list(family_problems()))
@pytest.mark.parametrize("by_point", [False, True], ids=["array", "callable"])
def test_fit_takes_the_per_point_norms_and_solves_the_lp(name, by_point):
    # the fit's norms are the per-point calls' own, and its coefficients
    # match the enumeration oracle on them
    prob = family_problems()[name]
    rng = np.random.default_rng(6)
    center = prob.project_domain(rng.normal(size=prob.n))
    points = [prob.project_domain(center + rng.normal(size=prob.n)
                                  * rng.uniform(0.05, 0.9)) for _ in range(40)]
    fit = fit_error_bound_constants(
        prob, (lambda _x: center) if by_point else center, points)
    assert np.array_equal(fit.distances, [prob.norm_w(x - center) for x in points])
    assert np.array_equal(fit.residual_norms,
                          [prob.prox_grad_mapping(x)[1] for x in points])
    d, g = fit.distances, fit.residual_norms
    po, qo, _ = min_sum_two_var_lp(g, d ** 2 * g, d)
    assert abs(fit.const_coeff + fit.quad_coeff - (po + qo)) <= 1e-12 * (po + qo)


@pytest.mark.parametrize("points", [
    [np.zeros(2), np.array([np.nan, 1.0])],
    [np.zeros(2), np.zeros(3)],
    [np.zeros(3)],
    [1.0, 2.0],
    [np.zeros((2, 2))],
], ids=["nan", "ragged", "wrong-length", "scalars", "matrix-point"])
def test_fit_rejects_bad_points(points):
    with pytest.raises(InputError):
        fit_error_bound_constants(corner_problem(), np.zeros(2), points)


def test_fit_rejects_bad_points_from_a_generator():
    points = (x for x in [np.zeros(2), np.ones(2), np.array([1.0, np.inf])])
    with pytest.raises(InputError, match="sample point 2"):
        fit_error_bound_constants(corner_problem(), np.zeros(2), points)


@pytest.mark.parametrize("rows", [None, 1, 3])
def test_fit_reads_a_generator_as_it_reads_a_list(monkeypatch, rows):
    prob = family_problems()["logistic-block-3"]
    use_chunk_rows(monkeypatch, prob, rows)
    rng = np.random.default_rng(8)
    center = rng.normal(size=prob.n)
    points = [center + rng.normal(size=prob.n) * rng.uniform(0.05, 0.9)
              for _ in range(23)]
    want = fit_error_bound_constants(prob, center, points)
    got = fit_error_bound_constants(prob, center, iter(points))
    assert (got.const_coeff, got.quad_coeff, got.max_violation) \
        == (want.const_coeff, want.quad_coeff, want.max_violation)
    assert np.array_equal(got.distances, want.distances)
    assert np.array_equal(got.residual_norms, want.residual_norms)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("name", list(family_problems()))
@pytest.mark.parametrize("by_point", [False, True], ids=["array", "callable"])
def test_fit_takes_the_per_point_norms_across_small_chunks(monkeypatch, rows, name,
                                                           by_point):
    use_chunk_rows(monkeypatch, family_problems()[name], rows)
    test_fit_takes_the_per_point_norms_and_solves_the_lp(name, by_point)


def test_fit_memory_is_one_chunk_for_a_generator():
    prob = wide_lasso()
    rows, width = prob.chunk_rows, max(prob.smooth.matrix.shape[0], prob.n)
    center = np.zeros(prob.n)
    prob.mapping_norms(center[None, :])          # warm the cached operators

    def points():
        rng = np.random.default_rng(4)
        for _ in range(50):
            yield center + rng.normal(size=prob.n)

    fit, peak = traced_peak(fit_error_bound_constants, prob, center, points())
    assert fit.distances.shape == fit.residual_norms.shape == (50,)
    # the buffer and a few (rows, width) temporaries; the 50 points would
    # take 8 MB
    assert peak <= 10 * rows * width * 8 < 50 * prob.n * 8


def test_fit_of_no_points_is_zero():
    fit = fit_error_bound_constants(corner_problem(), np.zeros(2), [])
    assert (fit.const_coeff, fit.quad_coeff, fit.max_violation) == (0.0, 0.0, 0.0)
    assert fit.distances.shape == fit.residual_norms.shape == (0,)


def test_fit_accepts_samples_at_optimum():
    prob = corner_problem()
    fit = fit_error_bound_constants(prob, np.zeros(2),
                                    [np.zeros(2), np.array([1.0, 1.0])])
    assert fit.max_violation <= 1e-9


def test_bundle_from_reference_uses_weighted_distance():
    prob = quad_problem(np.eye(3) * 2.0)
    x0 = np.array([1.0, 1.0, 1.0])
    b = bundle_from_reference(prob, x0, np.zeros(3), 0.0, batch_size=2)
    assert b.radius == pytest.approx(prob.norm_w(x0), rel=1e-14)
    assert b.initial_gap == pytest.approx(prob.objective(x0), rel=1e-14)
    assert b.num_blocks == 3 and b.batch_size == 2
