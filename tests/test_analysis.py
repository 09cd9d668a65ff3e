import numpy as np
import pytest

from pbcd.analysis import (RateBundle, bundle_from_reference,
                           error_bound_chain, estimate_strong_convexity,
                           fit_error_bound_constants,
                           iters_to_confidence_error_bound,
                           iters_to_confidence_sublinear,
                           linear_rate_error_bound,
                           linear_rate_strongly_convex, sublinear_gap_bound)
from pbcd.errors import ErrorBoundWitnessError, InputError
from pbcd.generators import lasso_from_matrix, logistic_from_matrix
from pbcd.matrixio import MatrixFile
from pbcd.solver import SolverConfig, run

from test_problem import corner_problem


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

def quad_problem(mat, lam=0.0):
    """0.5 ||mat x||^2 + lam ||x||_1, one residual row per row of mat."""
    rows, cols = np.nonzero(mat)
    file = MatrixFile(mat.shape[0], mat.shape[1], rows, cols, mat[rows, cols])
    return lasso_from_matrix(file, np.zeros(mat.shape[0]), lam)


def test_strong_convexity_matches_dense_eigensolve():
    rng = np.random.default_rng(2)
    for _ in range(5):
        mat = rng.normal(size=(9, 6)) + np.vstack([np.eye(6) * 2.0,
                                                   np.zeros((3, 6))])
        prob = quad_problem(mat)
        hess = mat.T @ mat
        scale = 1.0 / np.sqrt(prob.coord_weights)
        want = np.linalg.eigvalsh(scale[:, None] * hess * scale[None, :])[0]
        got = estimate_strong_convexity(prob)
        assert got == pytest.approx(min(max(want, 0.0), 1.0), rel=1e-8)


def test_strong_convexity_singular_returns_zero():
    mat = np.array([[1.0, 1.0], [2.0, 2.0]])  # rank 1
    prob = quad_problem(mat)
    assert estimate_strong_convexity(prob) == 0.0


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
