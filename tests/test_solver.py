import copy

import numpy as np
import pytest

from oracles import run_component_oracle

from pbcd.errors import CacheConsistencyError, InputError
from pbcd.generators import (generate_dual, generate_lasso, generate_logistic,
                             lasso_from_matrix)
from pbcd.matrixio import MatrixFile
from pbcd.sampling import BlockSampler, SamplerConfig
from pbcd.smooth import DUAL, LOGISTIC, RESIDUAL
from pbcd.solver import (SolverConfig, coordwise_weights, init_solver_state,
                         run, step, verify_and_refresh_caches)


def diag_quadratic(weights_roots):
    """f = sum_i 0.5 * (d_i x_i)^2 with scalar blocks, no regularizer."""
    n = len(weights_roots)
    return lasso_from_matrix(MatrixFile(n, n, range(n), range(n), weights_roots),
                             np.zeros(n), 0.0)


def random_sparse_lasso(rng, n=12, m=16, lam=0.4):
    """One row per coordinate, then m - n rows on 1 to 3 coordinates each."""
    rows, cols, vals, rhs = [], [], [], []
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(float(rng.uniform(0.5, 1.5)))
        rhs.append(float(rng.normal()))
    for r in range(n, m):
        k = int(rng.integers(1, 4))
        for c in np.sort(rng.choice(n, k, replace=False)):
            rows.append(r)
            cols.append(int(c))
            vals.append(float(rng.normal()) + 0.1)
        rhs.append(float(rng.normal()))
    return lasso_from_matrix(MatrixFile(m, n, rows, cols, vals), rhs, lam)


def test_step_empty_set_is_noop():
    prob = diag_quadratic([2.0, 3.0])
    state = init_solver_state(prob, np.array([1.0, -1.0]))
    before = copy.deepcopy(state)
    step(prob, state, np.array([], dtype=int))
    assert np.array_equal(state.x, before.x)
    assert state.f_value == before.f_value


def test_step_full_batch_matched_quadratic_solves_exactly():
    prob = diag_quadratic([2.0, 3.0, 0.5])
    state = init_solver_state(prob, np.array([1.0, -2.0, 4.0]))
    step(prob, state, np.arange(3))
    assert np.allclose(state.x, 0.0, atol=1e-16)


def test_step_scalar_lasso_one_shot():
    prob = lasso_from_matrix(MatrixFile(1, 1, [0], [0], [1.0]), [0.0], 1.0)
    state = init_solver_state(prob, np.array([3.0]))
    step(prob, state, np.array([0]))
    assert state.x[0] == 0.0


def test_step_out_of_range_rejected():
    prob = diag_quadratic([1.0, 1.0])
    state = init_solver_state(prob, np.zeros(2))
    with pytest.raises(InputError):
        step(prob, state, np.array([5]))


def test_step_updates_only_selected_blocks():
    rng = np.random.default_rng(0)
    prob = random_sparse_lasso(rng)
    x0 = rng.normal(size=prob.n)
    state = init_solver_state(prob, x0)
    step(prob, state, np.array([2, 5]))
    untouched = [i for i in range(prob.n) if i not in (2, 5)]
    assert np.array_equal(state.x[untouched], x0[untouched])


def test_step_incremental_objective_matches_scratch():
    rng = np.random.default_rng(1)
    prob = random_sparse_lasso(rng)
    state = init_solver_state(prob, rng.normal(size=prob.n))
    for _ in range(30):
        idx = np.sort(rng.choice(prob.n, 4, replace=False))
        step(prob, state, idx)
        assert state.f_value == pytest.approx(prob.objective(state.x), rel=1e-10)


def test_step_permuted_index_order_same_iterate():
    rng = np.random.default_rng(3)
    prob = random_sparse_lasso(rng, n=15, m=20)
    x0 = rng.normal(size=prob.n)
    idx = np.sort(rng.choice(prob.n, 8, replace=False))
    ref = init_solver_state(prob, x0)
    step(prob, ref, idx)
    for _ in range(5):
        perm = rng.permutation(idx)
        state = init_solver_state(prob, x0)
        step(prob, state, perm)
        assert np.allclose(state.x, ref.x, rtol=0, atol=1e-12)
        assert state.f_value == pytest.approx(ref.f_value, rel=1e-12)


def test_monotone_descent_along_run():
    rng = np.random.default_rng(4)
    prob = random_sparse_lasso(rng)
    cfg = SolverConfig(mode="rcd", sampler=SamplerConfig(3, seed=9),
                       max_iters=150, trace_stride=1)
    res = run(prob, cfg, rng.normal(size=prob.n))
    f = np.array(res.trace.objectives)
    assert np.all(f[1:] <= f[:-1] + 1e-10 * (1.0 + np.abs(f[:-1])))


def test_exact_decrease_identity_without_regularizer():
    rng = np.random.default_rng(5)
    prob = diag_quadratic(list(rng.uniform(0.5, 2.0, size=10)))
    state = init_solver_state(prob, rng.normal(size=10))
    for _ in range(40):
        idx = np.sort(rng.choice(10, 3, replace=False))
        x_before = state.x.copy()
        f_before = state.f_value
        step(prob, state, idx)
        drop = f_before - state.f_value
        half_sq = 0.5 * prob.norm_w(state.x - x_before) ** 2
        assert drop >= half_sq - 1e-10


def test_coordinate_update_accounting():
    rng = np.random.default_rng(6)
    prob = random_sparse_lasso(rng)
    cfg = SolverConfig(mode="rcd", sampler=SamplerConfig(5, seed=3),
                       max_iters=37)
    res = run(prob, cfg, np.zeros(prob.n))
    assert res.coordinate_updates == 37 * 5
    assert res.iterations == 37


def test_full_mode_equals_full_batch_sampled_mode_bitwise():
    rng = np.random.default_rng(7)
    prob = random_sparse_lasso(rng)
    x0 = rng.normal(size=prob.n)
    full = run(prob, SolverConfig(mode="full", max_iters=60), x0)
    sampled = run(prob, SolverConfig(
        mode="rcd", sampler=SamplerConfig(prob.num_blocks, seed=123),
        max_iters=60), x0)
    assert np.array_equal(full.x, sampled.x)
    assert full.trace.objectives == sampled.trace.objectives


def test_same_seed_identical_traces():
    rng = np.random.default_rng(8)
    prob = random_sparse_lasso(rng)
    x0 = rng.normal(size=prob.n)
    cfg = SolverConfig(mode="rcd", sampler=SamplerConfig(4, seed=77),
                       max_iters=80, trace_stride=1)
    a = run(prob, cfg, x0)
    b = run(prob, cfg, x0)
    assert a.trace.objectives == b.trace.objectives
    assert np.array_equal(a.x, b.x)


def test_full_mode_reaches_tight_mapping_tolerance():
    prob = diag_quadratic([1.5, 0.7, 2.0])
    cfg = SolverConfig(mode="full", max_iters=500, eps_mapping=1e-10,
                       check_stride=1)
    res = run(prob, cfg, np.array([4.0, -2.0, 1.0]))
    assert res.converged and res.status == "converged:mapping-norm"
    assert prob.prox_grad_mapping(res.x)[1] <= 1e-10


def test_gap_stop_rule():
    rng = np.random.default_rng(9)
    prob = random_sparse_lasso(rng)
    ref = run(prob, SolverConfig(mode="full", max_iters=4000,
                                 eps_mapping=1e-12, check_stride=1),
              np.zeros(prob.n))
    fstar = ref.objective
    cfg = SolverConfig(mode="rcd", sampler=SamplerConfig(4, seed=5),
                       max_iters=100000, eps_gap=1e-8, fstar=fstar)
    res = run(prob, cfg, np.zeros(prob.n))
    assert res.converged and res.status == "converged:gap"
    assert res.objective - fstar <= 1e-8


def test_max_iters_reports_nonconverged_status():
    rng = np.random.default_rng(10)
    prob = random_sparse_lasso(rng)
    cfg = SolverConfig(mode="rcd", sampler=SamplerConfig(2, seed=1),
                       max_iters=3, eps_mapping=1e-14)
    res = run(prob, cfg, np.ones(prob.n))
    assert not res.converged
    assert res.status == "max-iters"


def test_infeasible_start_projected():
    prob = lasso_from_matrix(MatrixFile(1, 2, [0, 0], [0, 1], [1.0, 1.0]),
                             [1.0], 0.0, box=(0.0, np.inf))
    res = run(prob, SolverConfig(mode="full", max_iters=5), np.array([-5.0, -1.0]))
    assert np.isfinite(res.trace.objectives[0])
    assert np.all(res.x >= 0.0)


def test_coordwise_reference_weights_exceed_aggregated_on_overlap():
    # one wide row plus diagonal rows: the reference rule multiplies every
    # coordinate constant by the overlap, the aggregated rule does not
    n = 6
    rows = [0] * n + list(range(1, n + 1))
    mat = MatrixFile(n + 1, n, rows, list(range(n)) * 2, [1.0] * (2 * n))
    prob = lasso_from_matrix(mat, np.zeros(n + 1), 0.0)
    cw = coordwise_weights(prob, batch_size=n)
    assert np.all(cw > prob.weights)


def test_coordwise_weights_coincide_for_diagonal_problems():
    prob = diag_quadratic([1.0, 2.0, 3.0])
    for batch in (1, 2, 3):
        assert np.allclose(coordwise_weights(prob, batch), prob.weights,
                           rtol=1e-14)


def test_coordwise_mode_matches_rcd_on_diagonal_problem():
    prob = diag_quadratic([1.0, 2.0, 3.0])
    x0 = np.array([2.0, -1.0, 0.5])
    a = run(prob, SolverConfig(mode="rcd", sampler=SamplerConfig(2, seed=3),
                               max_iters=25), x0)
    b = run(prob, SolverConfig(mode="rcd-coordwise",
                               sampler=SamplerConfig(2, seed=3),
                               max_iters=25), x0)
    assert np.array_equal(a.x, b.x)


def test_cache_verification_passes_and_detects_corruption():
    rng = np.random.default_rng(11)
    prob = random_sparse_lasso(rng)
    state = init_solver_state(prob, rng.normal(size=prob.n))
    for _ in range(25):
        step(prob, state, np.sort(rng.choice(prob.n, 3, replace=False)))
    verify_and_refresh_caches(prob, state)
    state.z[2] += 1.0
    with pytest.raises(CacheConsistencyError) as err:
        verify_and_refresh_caches(prob, state)
    assert err.value.diagnostics["worst_row"] == 2
    assert err.value.diagnostics["worst_component"] == 2


def test_config_validation():
    prob = diag_quadratic([1.0])
    with pytest.raises(InputError):
        run(prob, SolverConfig(mode="bogus"), np.zeros(1))
    with pytest.raises(InputError):
        run(prob, SolverConfig(mode="rcd"), np.zeros(1))
    with pytest.raises(InputError):
        run(prob, SolverConfig(mode="full", eps_mapping=1.0, eps_gap=1.0,
                               fstar=0.0), np.zeros(1))
    with pytest.raises(InputError):
        run(prob, SolverConfig(mode="full", eps_gap=1.0), np.zeros(1))


@pytest.mark.parametrize("mode", ["rcd", "full"])
@pytest.mark.parametrize("stride", [0, -3])
def test_trace_stride_must_be_positive(mode, stride):
    prob = diag_quadratic([1.0, 2.0])
    sampler = SamplerConfig(1, seed=0) if mode == "rcd" else None
    cfg = SolverConfig(mode=mode, sampler=sampler, max_iters=5,
                       trace_stride=stride)
    with pytest.raises(InputError, match="trace_stride"):
        run(prob, cfg, np.zeros(2))


def test_trace_iterations_strictly_increasing():
    rng = np.random.default_rng(12)
    prob = random_sparse_lasso(rng)
    cfg = SolverConfig(mode="rcd", sampler=SamplerConfig(3, seed=2),
                       max_iters=50, trace_stride=7)
    res = run(prob, cfg, np.zeros(prob.n))
    ks = np.array(res.trace.ks)
    assert np.all(np.diff(ks) > 0)
    assert ks[0] == 0 and ks[-1] == 50


def test_run_with_shuffle_partition_scheme():
    rng = np.random.default_rng(13)
    prob = random_sparse_lasso(rng)  # 12 blocks
    cfg = SolverConfig(mode="rcd",
                       sampler=SamplerConfig(3, "shuffle-partition", seed=4),
                       max_iters=80, trace_stride=1)
    res = run(prob, cfg, np.zeros(prob.n))
    f = np.array(res.trace.objectives)
    assert np.all(f[1:] <= f[:-1] + 1e-10 * (1.0 + np.abs(f[:-1])))
    assert res.coordinate_updates == 80 * 3


# -- the vectorized step against the per-component oracle ---------------------

def _oracle_instance(kind):
    """A generated problem and its per-component view from the raw data."""
    if kind == "lasso":
        gen = generate_lasso(m=40, n=30, sparsity=0.15, lam=0.3,
                             box=(-1.0, 1.0), seed=21)
        dense = gen.matrix.to_dense()
        comps = [(RESIDUAL, dense[j:j + 1], gen.rhs[j:j + 1], 1.0)
                 for j in range(dense.shape[0])]
        return gen.problem, comps, np.zeros(dense.shape[1])
    if kind == "logistic":
        gen = generate_logistic(num_samples=36, n=24, sparsity=0.2, lam=0.02,
                                seed=22, block_size=3)
        dense = gen.matrix.to_dense()
        comps = [(LOGISTIC, dense[j:j + 1], gen.rhs[j:j + 1], float(dense.shape[0]))
                 for j in range(dense.shape[0])]
        return gen.problem, comps, np.zeros(dense.shape[1])
    gen = generate_dual(num_parts=10, seed=23)
    dense = gen.matrix.to_dense()
    sigmas, centers = gen.extras["sigmas"], gen.extras["centers"]
    comps = [(DUAL, dense[:, j:j + 1].T, centers[j], float(sigmas[j]))
             for j in range(dense.shape[1])]
    return gen.problem, comps, gen.rhs


@pytest.mark.parametrize("kind", ["lasso", "logistic", "dual"])
@pytest.mark.parametrize("mode", ["rcd", "rcd-coordwise", "full"])
def test_vectorized_step_matches_per_component_oracle(kind, mode):
    # fixed seed and iteration count, no stop rule; the tolerance covers
    # float64 summation-order differences only
    prob, comps, lin = _oracle_instance(kind)
    iters, batch = 60, 4
    sampler = None if mode == "full" else SamplerConfig(batch, seed=5)
    res = run(prob, SolverConfig(mode=mode, sampler=sampler, max_iters=iters),
              np.zeros(prob.n))
    if mode == "full":
        draws = [np.arange(prob.num_blocks)] * iters
    else:
        blocks = BlockSampler(sampler, prob.num_blocks)
        draws = [blocks.draw() for _ in range(iters)]
    weights = coordwise_weights(prob, batch) if mode == "rcd-coordwise" \
        else prob.weights
    x, trace = run_component_oracle(comps, lin, (prob.lam, prob.lb, prob.ub),
                                    prob.partition, weights, draws,
                                    np.zeros(prob.n))
    got, want = np.array(res.trace.objectives), np.array(trace)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))
    assert prob.norm_w(res.x - x) <= 1e-10 * max(1.0, prob.norm_w(x))
