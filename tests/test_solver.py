import copy

import numpy as np
import pytest

from oracles import per_draw_run, per_draw_step, run_component_oracle
from test_problem import use_chunk_rows

from pbcd.blocks import BlockPartition
from pbcd.errors import CacheConsistencyError, DescentViolationError, InputError
from pbcd.experiment import reference_solution
from pbcd.generators import (generate_dual, generate_lasso, generate_logistic,
                             lasso_from_matrix)
from pbcd.matrixio import MatrixFile
from pbcd.problem import CompositeProblem
from pbcd.sampling import BlockSampler, SamplerConfig
from pbcd.smooth import DUAL, LOGISTIC, RESIDUAL, SmoothOperator
from pbcd.solver import (RECOMPUTE_STRIDE, SolverConfig, coordwise_weights,
                         init_solver_state, run, step, verify_and_refresh_caches)


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


# -- the run loop that gathers once per chunk, against the per-draw oracle ----

def mixed_operator_problem(block_size):
    """Residual, logistic and dual rows in one operator from from_entries.

    35 coordinates, each with its own residual row, then six logistic
    samples and two three-row dual components on random coordinates, a
    linear term on the coordinates those rows read, l1 weights and a box.
    """
    rng = np.random.default_rng(31)
    n = 35
    rows, cols, vals = list(range(n)), list(range(n)), list(rng.uniform(0.5, 1.5, n))
    family, scale, comp = [RESIDUAL] * n, [1.0] * n, list(range(n))
    param = list(rng.normal(size=n))
    for kind, height in [(LOGISTIC, 1)] * 6 + [(DUAL, 3)] * 2:
        c = comp[-1] + 1
        sigma = float(rng.uniform(0.5, 2.0))
        for _ in range(height):
            r = len(family)
            for j in np.sort(rng.choice(n, 3, replace=False)):
                rows.append(r)
                cols.append(int(j))
                vals.append(float(rng.normal()))
            family.append(kind)
            param.append(float(rng.choice([-1.0, 1.0])) if kind == LOGISTIC
                         else float(rng.normal()))
            scale.append(6.0 if kind == LOGISTIC else sigma)
            comp.append(c)
    lin = np.where(np.isin(np.arange(n), cols[n:]), rng.normal(size=n), 0.0)
    op = SmoothOperator.from_entries(n, rows, cols, vals, family, param, scale,
                                     comp, lin)
    assert set(op.codes) == {RESIDUAL, LOGISTIC, DUAL}
    return CompositeProblem(BlockPartition.uniform(n, block_size), op, 0.05,
                            -2.0, 2.0)


def chunk_instance(kind, block_size):
    """35 coordinates (a short trailing block at size 3), or the 12-part dual."""
    if kind == "lasso":
        return generate_lasso(m=40, n=35, sparsity=0.15, lam=0.3, box=(-1.0, 1.0),
                              seed=21, block_size=block_size).problem
    if kind == "logistic":
        return generate_logistic(num_samples=36, n=35, sparsity=0.2, lam=0.02,
                                 seed=22, block_size=block_size).problem
    if kind == "dual":
        return generate_dual(num_parts=12, seed=23, block_size=block_size).problem
    return mixed_operator_problem(block_size)


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def assert_same_run(got, want):
    """Bitwise equal x, z, F and trace columns (all but elapsed), same counts."""
    assert np.array_equal(bits(got.x), bits(want.x))
    assert np.array_equal(bits(got.state.z), bits(want.state.z))
    assert bits(got.state.f_value) == bits(want.state.f_value)
    assert bits(got.objective) == bits(want.objective)
    assert got.trace.ks == want.trace.ks
    assert np.array_equal(bits(got.trace.objectives), bits(want.trace.objectives))
    assert np.array_equal(bits(got.trace.mapping_norms),
                          bits(want.trace.mapping_norms))
    assert got.trace.batch_sizes == want.trace.batch_sizes
    assert (got.iterations, got.coordinate_updates, got.status, got.converged) \
        == (want.iterations, want.coordinate_updates, want.status, want.converged)


CHUNK_MODES = [("rcd", "uniform-subset"), ("rcd", "shuffle-partition"),
               ("rcd-coordwise", "uniform-subset"),
               ("rcd-coordwise", "shuffle-partition"), ("full", None)]


@pytest.mark.parametrize("kind", ["lasso", "logistic", "dual", "mixed"])
@pytest.mark.parametrize("block_size", [1, 3])
@pytest.mark.parametrize("mode,scheme", CHUNK_MODES)
def test_run_equals_per_draw_steps_bitwise(kind, block_size, mode, scheme):
    prob = chunk_instance(kind, block_size)
    tau = 5 if prob.num_blocks % 5 == 0 else 4
    sampler = None if mode == "full" else SamplerConfig(tau, scheme, seed=3)
    cfg = SolverConfig(mode=mode, sampler=sampler, max_iters=120, trace_stride=2,
                       trace_mapping_norm=True)
    x0 = np.random.default_rng(4).uniform(-0.5, 0.5, prob.n)
    assert_same_run(run(prob, cfg, x0), per_draw_run(prob, cfg, x0))


def test_run_equals_per_draw_steps_across_cache_refresh():
    prob = chunk_instance("logistic", 3)
    cfg = SolverConfig(mode="rcd", sampler=SamplerConfig(4, seed=8),
                       max_iters=RECOMPUTE_STRIDE + 7, trace_stride=50)
    assert_same_run(run(prob, cfg, np.zeros(prob.n)),
                    per_draw_run(prob, cfg, np.zeros(prob.n)))


@pytest.mark.parametrize("scheme", ["uniform-subset", "shuffle-partition"])
def test_gap_stop_mid_chunk_equals_per_draw_steps(scheme):
    prob = chunk_instance("lasso", 1)          # 35 blocks: 7 draws per chunk
    _, fstar, ok = reference_solution(prob)
    assert ok
    gap0 = prob.objective(np.zeros(prob.n)) - fstar
    cfg = SolverConfig(mode="rcd", sampler=SamplerConfig(5, scheme, seed=3),
                       max_iters=100000, eps_gap=1e-3 * gap0, fstar=fstar)
    got = run(prob, cfg, np.zeros(prob.n))
    assert got.status == "converged:gap" and got.iterations % 7 != 0
    assert_same_run(got, per_draw_run(prob, cfg, np.zeros(prob.n)))


def test_public_step_equals_per_draw_step_bitwise():
    prob = chunk_instance("mixed", 3)
    rng = np.random.default_rng(6)
    weights = coordwise_weights(prob, 4)
    x0 = rng.uniform(-0.5, 0.5, prob.n)
    a, b = init_solver_state(prob, x0), init_solver_state(prob, x0)
    for k in range(40):
        idx = rng.choice(prob.num_blocks, 4, replace=False)   # unsorted too
        w = None if k % 2 else weights
        step(prob, a, idx, weights=w, enforce_descent=False)
        per_draw_step(prob, b, idx, weights=w, enforce_descent=False)
        assert np.array_equal(bits(a.x), bits(b.x))
        assert np.array_equal(bits(a.z), bits(b.z))
        assert bits(a.f_value) == bits(b.f_value)


@pytest.mark.parametrize("mode,scheme,tau,iters,gathers", [
    ("full", None, None, 23, 1),
    # 12 blocks at batch 3: four cells per epoch, one gather per epoch
    ("rcd", "shuffle-partition", 3, 10, 3),
    ("rcd", "shuffle-partition", 3, 12, 3),
    ("rcd-coordwise", "shuffle-partition", 6, 9, 5),
    # 12 blocks at batch 5: chunks of ceil(12 / 5) = 3 draws
    ("rcd", "uniform-subset", 5, 10, 4),
    ("rcd", "uniform-subset", 5, 9, 3),
    ("rcd-coordwise", "uniform-subset", 1, 30, 3),
])
def test_run_gathers_once_per_chunk(monkeypatch, mode, scheme, tau, iters, gathers):
    prob = chunk_instance("dual", 1)
    calls = []
    columns = SmoothOperator.columns

    def counted(self, cols):
        calls.append(cols.size)
        return columns(self, cols)

    monkeypatch.setattr(SmoothOperator, "columns", counted)
    sampler = None if mode == "full" else SamplerConfig(tau, scheme, seed=2)
    run(prob, SolverConfig(mode=mode, sampler=sampler, max_iters=iters,
                           trace_mapping_norm=True, eps_mapping=0.0, check_stride=1),
        np.zeros(prob.n))
    assert len(calls) == gathers


# -- the descent guard ---------------------------------------------------------

DESCENT_MESSAGE = r"^objective rose from .+ to .+ in a descent-guaranteed mode$"


def underweighted_lasso():
    """A lasso whose step weights are a tenth of the aggregated weights."""
    prob = random_sparse_lasso(np.random.default_rng(14))
    return CompositeProblem(prob.partition, prob.smooth, prob.lam, prob.lb,
                            prob.ub, weights=0.1 * prob.weights)


def test_descent_guard_fires_in_rcd_run():
    prob = underweighted_lasso()
    x0 = np.random.default_rng(15).normal(size=prob.n)
    cfg = SolverConfig(mode="rcd", sampler=SamplerConfig(3, seed=1), max_iters=50)
    with pytest.raises(DescentViolationError, match=DESCENT_MESSAGE):
        run(prob, cfg, x0)


def test_descent_guard_fires_in_public_step():
    prob = underweighted_lasso()
    state = init_solver_state(prob, np.random.default_rng(15).normal(size=prob.n))
    with pytest.raises(DescentViolationError, match=DESCENT_MESSAGE):
        step(prob, state, np.arange(prob.num_blocks))


def test_descent_guard_is_off_in_coordwise_mode():
    prob = underweighted_lasso()
    x0 = np.random.default_rng(15).normal(size=prob.n)
    cfg = SolverConfig(mode="rcd-coordwise", sampler=SamplerConfig(3, seed=1),
                       max_iters=50)
    assert run(prob, cfg, x0).iterations == 50


# -- the trace's mapping norms, taken in stacked passes -------------------------

def count_norms(monkeypatch):
    """Count the mapping norms evaluated: stacked rows and single calls."""
    counts = {"stacked": 0, "single": 0}
    stacked, single = CompositeProblem.mapping_norms, CompositeProblem.prox_grad_mapping

    def stacked_counted(self, xs):
        counts["stacked"] += len(xs)
        return stacked(self, xs)

    def single_counted(self, x):
        counts["single"] += 1
        return single(self, x)

    monkeypatch.setattr(CompositeProblem, "mapping_norms", stacked_counted)
    monkeypatch.setattr(CompositeProblem, "prox_grad_mapping", single_counted)
    return counts


SMALL_CHUNKS = [1, 3]


@pytest.mark.parametrize("rows", SMALL_CHUNKS)
@pytest.mark.parametrize("kind", ["lasso", "logistic", "dual", "mixed"])
@pytest.mark.parametrize("block_size", [1, 3])
@pytest.mark.parametrize("mode,scheme", CHUNK_MODES)
def test_run_equals_per_draw_steps_flushing_small_chunks(monkeypatch, rows, kind,
                                                         block_size, mode, scheme):
    use_chunk_rows(monkeypatch, chunk_instance(kind, block_size), rows)
    test_run_equals_per_draw_steps_bitwise(kind, block_size, mode, scheme)


@pytest.mark.parametrize("rows", [None] + SMALL_CHUNKS)
@pytest.mark.parametrize("scheme", ["uniform-subset", "shuffle-partition"])
def test_gap_stop_with_mapping_norms_equals_per_draw_steps(monkeypatch, rows, scheme):
    prob = chunk_instance("lasso", 1)          # 35 blocks: 7 draws per chunk
    use_chunk_rows(monkeypatch, prob, rows)
    _, fstar, ok = reference_solution(prob)
    assert ok
    gap0 = prob.objective(np.zeros(prob.n)) - fstar
    cfg = SolverConfig(mode="rcd", sampler=SamplerConfig(5, scheme, seed=3),
                       max_iters=100000, eps_gap=1e-3 * gap0, fstar=fstar,
                       trace_mapping_norm=True)
    got = run(prob, cfg, np.zeros(prob.n))
    assert got.status == "converged:gap" and got.iterations % 7 != 0
    assert_same_run(got, per_draw_run(prob, cfg, np.zeros(prob.n)))


@pytest.mark.parametrize("rows", [None] + SMALL_CHUNKS)
def test_cache_refresh_with_mapping_norms_equals_per_draw_steps(monkeypatch, rows):
    prob = chunk_instance("logistic", 3)
    use_chunk_rows(monkeypatch, prob, rows)
    cfg = SolverConfig(mode="rcd", sampler=SamplerConfig(4, seed=8),
                       max_iters=RECOMPUTE_STRIDE + 7, trace_stride=50,
                       trace_mapping_norm=True)
    assert_same_run(run(prob, cfg, np.zeros(prob.n)),
                    per_draw_run(prob, cfg, np.zeros(prob.n)))


@pytest.mark.parametrize("rows", [None] + SMALL_CHUNKS)
@pytest.mark.parametrize("trace_stride,mapping_column", [(1, True), (2, True),
                                                         (2, False)])
def test_mapping_stop_equals_per_draw_steps(monkeypatch, rows, trace_stride,
                                            mapping_column):
    # checks every third iteration: on recorded iterates the check reads the
    # trace row's norm, elsewhere it evaluates its own
    prob = chunk_instance("mixed", 1)
    use_chunk_rows(monkeypatch, prob, rows)
    eps = 1e-3 * prob.prox_grad_mapping(np.zeros(prob.n))[1]
    cfg = SolverConfig(mode="rcd", sampler=SamplerConfig(5, seed=4),
                       max_iters=100000, eps_mapping=eps, check_stride=3,
                       trace_stride=trace_stride, trace_mapping_norm=mapping_column)
    got = run(prob, cfg, np.zeros(prob.n))
    assert got.status == "converged:mapping-norm"
    assert_same_run(got, per_draw_run(prob, cfg, np.zeros(prob.n)))


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("stop", ["gap", "mapping-norm", "max-iters"])
@pytest.mark.parametrize("trace_stride", [1, 4])
def test_each_trace_row_norm_is_evaluated_once(monkeypatch, rows, stop, trace_stride):
    # at stride 1 the loop records the last iteration, so the final record
    # adds no row; a mapping check on a recorded iterate reads that row
    prob = chunk_instance("lasso", 1)
    use_chunk_rows(monkeypatch, prob, rows)
    _, fstar, _ = reference_solution(prob)
    gap0 = prob.objective(np.zeros(prob.n)) - fstar
    stop_rule = {"gap": dict(eps_gap=1e-3 * gap0, fstar=fstar),
                 "mapping-norm": dict(eps_mapping=1e-3, check_stride=trace_stride),
                 "max-iters": {}}[stop]
    cfg = SolverConfig(mode="rcd", sampler=SamplerConfig(5, seed=3),
                       max_iters=2000 if stop != "max-iters" else 61,
                       trace_stride=trace_stride, trace_mapping_norm=True,
                       **stop_rule)
    counts = count_norms(monkeypatch)
    res = run(prob, cfg, np.zeros(prob.n))
    assert res.status.endswith(stop)
    assert counts == {"stacked": len(res.trace), "single": 0}
    assert np.all(np.isfinite(res.trace.mapping_norms))
