"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see the
lines as they complete).

Expected values follow the oracle-first discipline: hand evaluations and
independent numerical oracles (finite differences, golden-section search,
subset enumeration, exhaustive QP active sets) produce the targets that the
library paths are checked against.
"""

import numpy as np

from pbcd.analysis import (RateBundle, bundle_from_reference,
                           fit_error_bound_constants,
                           iters_to_confidence_error_bound,
                           iters_to_confidence_sublinear,
                           linear_rate_error_bound,
                           linear_rate_strongly_convex, sublinear_gap_bound)
from pbcd.experiment import reference_solution
from pbcd.generators import (generate_dual, generate_lasso, generate_logistic,
                             lasso_from_matrix)
from pbcd.matrixio import MatrixFile
from pbcd.regularizers import prox
from pbcd.sampling import BlockSampler, SamplerConfig
from pbcd.solver import SolverConfig, init_solver_state, run, step

from oracles import central_diff_gradient, scalar_prox_oracle
from test_problem import corner_problem

DESCENT_TOL = 1e-10


def check(num, desc, cond, detail=""):
    status = "PASS" if cond else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status} - {desc}{suffix}")
    assert cond, f"criterion {num}: {desc}{suffix}"


def instance_pool():
    """20 small instances across the three problem shapes."""
    pool = []
    for s in range(8):
        pool.append(generate_lasso(m=22 + s, n=18 + s, sparsity=0.25,
                                   lam=0.3 + 0.1 * s,
                                   box=(-1.0, 1.0) if s % 2 else None,
                                   seed=100 + s).problem)
    for s in range(6):
        pool.append(generate_logistic(num_samples=16 + s, n=14 + s,
                                      sparsity=0.3, lam=0.05 * (s + 1),
                                      seed=200 + s).problem)
    for s in range(6):
        pool.append(generate_dual(num_parts=8 + s, seed=300 + s).problem)
    return pool


def strongly_convex_instance(seed=0, n=24, lam=0.3):
    """Quadratic-plus-l1 with full-column-rank data and a computable
    strong convexity modulus in the weighted norm."""
    rng = np.random.Generator(np.random.Philox(seed))
    rows, cols, vals = [], [], []
    diag = rng.uniform(0.8, 1.6, size=n)
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(float(diag[i]))
    r = n
    for _ in range(max(6, n // 3)):
        support = np.sort(rng.choice(n, 4, replace=False))
        for c in support:
            rows.append(r)
            cols.append(int(c))
            vals.append(float(0.35 * rng.normal()))
        r += 1
    mat = MatrixFile(rows=r, cols=n, row_idx=rows, col_idx=cols, values=vals)
    rhs = mat.to_dense() @ (0.5 * rng.normal(size=n)) + 0.05 * rng.normal(size=r)
    problem = lasso_from_matrix(mat, rhs, lam)
    dense = mat.to_dense()
    hess = dense.T @ dense
    scale = 1.0 / np.sqrt(problem.coord_weights)
    sigma = float(np.linalg.eigvalsh(scale[:, None] * hess * scale[None, :])[0])
    return problem, min(max(sigma, 0.0), 1.0)


def test_criterion_01_monotone_descent():
    pool = instance_pool()
    worst = 0.0
    for problem in pool:
        nb = problem.num_blocks
        for batch in (1, int(np.ceil(nb / 4)), nb):
            for seed in range(5):
                cfg = SolverConfig(mode="rcd",
                                   sampler=SamplerConfig(batch, seed=seed),
                                   max_iters=50, trace_stride=1)
                res = run(problem, cfg, np.zeros(problem.n))
                f = np.array(res.trace.objectives)
                slack = np.max(f[1:] - f[:-1] - DESCENT_TOL * (1 + np.abs(f[:-1])))
                worst = max(worst, float(slack))
    check(1, "monotone descent on 20 instances x 5 seeds x 3 batch sizes",
          worst <= 0.0, f"worst slack {worst:.3e}")


def test_criterion_02_full_batch_equals_deterministic_full_pass():
    worst = 0.0
    for s in range(5):
        problem = generate_lasso(m=18, n=15, sparsity=0.3, lam=0.4,
                                 seed=400 + s).problem
        nb = problem.num_blocks
        x0 = np.zeros(problem.n)
        state_a = init_solver_state(problem, problem.project_domain(x0))
        state_b = init_solver_state(problem, problem.project_domain(x0))
        sampler = BlockSampler(SamplerConfig(nb, seed=s), nb)
        full = np.arange(nb)
        for _ in range(200):
            step(problem, state_a, full)
            step(problem, state_b, sampler.draw())
            worst = max(worst, float(np.max(np.abs(state_a.x - state_b.x))))
    check(2, "full-batch sampling reproduces the deterministic full pass "
             "for 200 iterations on 5 instances",
          worst <= 1e-12, f"worst componentwise gap {worst:.3e}")


def test_criterion_03_descent_lemma_and_weighted_lipschitz():
    instances = {
        "quadratic-residual": generate_lasso(m=14, n=10, sparsity=0.4,
                                             lam=0.2, seed=500).problem,
        "logistic": generate_logistic(num_samples=12, n=9, sparsity=0.45,
                                      lam=0.1, seed=501).problem,
        "conjugate-dual": generate_dual(num_parts=7, seed=502).problem,
    }
    rng = np.random.default_rng(7)
    worst_lemma = -np.inf
    worst_lip = -np.inf
    for name, problem in instances.items():
        for _ in range(10000):
            x = rng.normal(size=problem.n) * 2.0
            y = rng.normal(size=problem.n)
            nrm = np.linalg.norm(y)
            if nrm > 1.0:
                y /= nrm
            fx = problem.smooth_value(x)
            gx = problem.smooth_gradient(x)
            lhs = problem.smooth_value(x + y)
            rhs = fx + float(gx @ y) + 0.5 * problem.norm_w(y) ** 2
            worst_lemma = max(worst_lemma, lhs - rhs)
            z = rng.normal(size=problem.n) * 2.0
            gz = problem.smooth_gradient(z)
            lip_slack = problem.norm_w(x - z) - problem.norm_w_inv(gx - gz)
            worst_lip = max(worst_lip, -lip_slack)
    ok = worst_lemma <= 1e-9 and worst_lip <= 1e-9
    check(3, "descent inequality and weighted gradient Lipschitz bound on "
             "10^4 random pairs per family",
          ok, f"lemma slack {worst_lemma:.3e}, lipschitz slack {worst_lip:.3e}")


def test_criterion_04_partial_gradients_match_finite_differences():
    pool = [generate_lasso(m=13, n=10, sparsity=0.4, lam=0.2, seed=600).problem,
            generate_lasso(m=16, n=12, sparsity=0.35, lam=0.5, seed=601,
                           block_size=2).problem,
            generate_logistic(num_samples=11, n=9, sparsity=0.5, lam=0.1,
                              seed=602).problem,
            generate_logistic(num_samples=13, n=10, sparsity=0.4, lam=0.0,
                              seed=603, block_size=3).problem,
            generate_dual(num_parts=6, seed=604).problem,
            generate_dual(num_parts=5, seed=605, block_size=2).problem]
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        problem = pool[int(rng.integers(len(pool)))]
        i = int(rng.integers(problem.num_blocks))
        x = rng.normal(size=problem.n)
        sl = problem.partition.slice(i)

        def smooth_on_block(xi, problem=problem, x=x, sl=sl):
            z = x.copy()
            z[sl] = xi
            return problem.smooth_value(z)

        fd = central_diff_gradient(smooth_on_block, x[sl])
        grad = problem.partial_gradient(x, i)
        rel = np.linalg.norm(grad - fd) / max(1.0, float(np.linalg.norm(grad)))
        worst = max(worst, float(rel))
    check(4, "central differences match block gradients on 10^3 triples",
          worst <= 1e-5, f"worst relative error {worst:.3e}")


def test_criterion_05_prox_matches_golden_section_oracle():
    rng = np.random.default_rng(10)
    kinds = ["zero", "l1", "box", "nonneg", "l1box"]
    worst = 0.0
    for kind in kinds:
        for _ in range(1000):
            lam = float(rng.uniform(0.0, 2.0))
            lo = float(rng.uniform(-2.0, 0.5))
            hi = lo + float(rng.uniform(0.1, 2.5))
            v = float(rng.uniform(-3.0, 3.0))
            w = float(rng.uniform(0.25, 4.0))
            if kind == "zero":
                lam, lo, hi = 0.0, -np.inf, np.inf
            elif kind == "l1":
                lo, hi = -np.inf, np.inf
            elif kind == "box":
                lam = 0.0
            elif kind == "nonneg":
                lam, lo, hi = 0.0, 0.0, np.inf
            got = prox(np.array([v]), lam, lo, hi, w)[0]
            want = scalar_prox_oracle(lam, lo, hi, v, w)
            worst = max(worst, abs(got - want))
    check(5, "closed-form prox equals golden-section oracle on 10^3 "
             "instances per kind",
          worst <= 1e-8, f"worst |difference| {worst:.3e}")


def test_criterion_06_sublinear_envelope():
    gen = generate_lasso(m=180, n=200, sparsity=0.02, lam=1.0, seed=8112)
    problem = gen.problem
    xstar, fstar, ok = reference_solution(problem, tol=1e-10)
    assert ok, "reference solve must reach tolerance"
    x0 = np.zeros(problem.n)
    horizons = {1: 1500, 10: 400, 50: 150}
    worst_ratio = 0.0
    for batch, kmax in horizons.items():
        gaps = []
        for seed in range(50):
            cfg = SolverConfig(mode="rcd",
                               sampler=SamplerConfig(batch, seed=seed),
                               max_iters=kmax, trace_stride=1)
            res = run(problem, cfg, x0)
            gaps.append(np.array(res.trace.objectives) - fstar)
        mean_gap = np.mean(gaps, axis=0)
        bundle = bundle_from_reference(problem, x0, xstar, fstar, batch)
        ks = np.arange(kmax + 1)
        bound = np.array([sublinear_gap_bound(bundle, int(k)) for k in ks])
        ratio = float(np.max(mean_gap / bound))
        worst_ratio = max(worst_ratio, ratio)
    check(6, "ensemble mean gap under the sublinear envelope (x1.05) for "
             "batch sizes {1, 10, 50}",
          worst_ratio <= 1.05, f"worst mean/bound ratio {worst_ratio:.4f}")


def test_criterion_07_strongly_convex_envelope():
    problem, sigma = strongly_convex_instance(seed=4, n=30)
    assert sigma > 0.0
    xstar, fstar, ok = reference_solution(problem, tol=1e-11)
    assert ok
    x0 = np.ones(problem.n)
    gap0 = problem.objective(x0) - fstar
    nb = problem.num_blocks
    worst_ratio = 0.0
    for batch in (1, max(1, nb // 4)):
        factor = linear_rate_strongly_convex(
            RateBundle(num_blocks=nb, batch_size=batch,
                       strong_convexity=sigma))
        gaps = []
        for seed in range(50):
            cfg = SolverConfig(mode="rcd",
                               sampler=SamplerConfig(batch, seed=seed),
                               max_iters=500, trace_stride=1)
            res = run(problem, cfg, x0)
            gaps.append(np.array(res.trace.objectives) - fstar)
        mean_gap = np.mean(gaps, axis=0)
        bound = gap0 * factor ** np.arange(501)
        worst_ratio = max(worst_ratio, float(np.max(mean_gap / bound)))
    check(7, "ensemble mean gap under the strongly convex linear envelope "
             "(x1.05) for k <= 500",
          worst_ratio <= 1.05, f"worst mean/bound ratio {worst_ratio:.4f}")


def test_criterion_08_classical_error_bound_counterexample():
    problem = corner_problem()
    ts = np.arange(1, 101, dtype=float)
    points = [np.array([t, t]) for t in ts]
    fit = fit_error_bound_constants(problem, np.zeros(2), points)
    ratio_err = float(np.max(np.abs(fit.classical_ratios - ts)))
    pair_feasible = bool(np.all(
        fit.distances <= (1.0 + fit.distances ** 2) * fit.residual_norms + 1e-9))
    ok = ratio_err <= 1e-9 and fit.max_violation <= 1e-9 and pair_feasible
    check(8, "classical ratio grows linearly along the diagonal ray while "
             "the two-coefficient fit and the pair (1, 1) stay feasible",
          ok, f"max ratio error {ratio_err:.3e}, fit violation "
              f"{fit.max_violation:.3e}, coefficients "
              f"({fit.const_coeff:.6g}, {fit.quad_coeff:.6g})")


def test_criterion_09_strongly_convex_coefficient_bound():
    rng = np.random.default_rng(12)
    worst_const = 0.0
    worst_quad = 0.0
    for s in range(10):
        problem, sigma = strongly_convex_instance(seed=700 + s,
                                                  n=int(rng.integers(10, 18)),
                                                  lam=0.2)
        xstar, fstar, ok = reference_solution(problem, tol=1e-12,
                                              max_iters=10 ** 6)
        assert ok
        points = []
        for _ in range(50):
            raw = rng.normal(size=problem.n)
            scale = float(rng.uniform(0.05, 0.9)) / problem.norm_w(raw)
            points.append(xstar + raw * scale)
        fit = fit_error_bound_constants(problem, xstar, points)
        worst_const = max(worst_const,
                          fit.const_coeff / (2.0 / sigma * (1.0 + 1e-6)))
        worst_quad = max(worst_quad, fit.quad_coeff)
    ok = worst_const <= 1.0 and worst_quad <= 1e-8
    check(9, "fitted constants on 10 strongly convex instances respect the "
             "2/modulus bound with vanishing quadratic coefficient",
          ok, f"worst const ratio {worst_const:.6f}, worst quad "
              f"{worst_quad:.3e}")


def overlap_instance(seed):
    """Diagonal rows plus a few wide rows: low per-coordinate coupling, high
    per-row width; the regime separating the two stepsize rules."""
    rng = np.random.Generator(np.random.Philox(seed))
    n = 60
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(float(rng.uniform(0.8, 1.4)))
    r = n
    for w in range(3):
        support = np.sort(rng.choice(n, 25, replace=False))
        for c in support:
            rows.append(r)
            cols.append(int(c))
            vals.append(float(rng.normal()))
        r += 1
    mat = MatrixFile(rows=r, cols=n, row_idx=rows, col_idx=cols, values=vals)
    rhs = rng.normal(size=r)
    return lasso_from_matrix(mat, rhs, lam=0.5)


def test_criterion_10_stepsize_rule_trend():
    wins = 0
    details = []
    for s in range(5):
        problem = overlap_instance(900 + s)
        wide = problem.max_blocks_per_component
        percoord = problem.max_components_per_block
        assert percoord <= 5 < wide
        batch = 30
        assert batch >= wide
        xstar, fstar, ok = reference_solution(problem, tol=1e-10)
        assert ok
        x0 = np.zeros(problem.n)
        gap0 = problem.objective(x0) - fstar
        updates = {}
        for mode in ("rcd", "rcd-coordwise"):
            cfg = SolverConfig(mode=mode,
                               sampler=SamplerConfig(batch, seed=17),
                               max_iters=400000, eps_gap=1e-4 * gap0,
                               fstar=fstar)
            res = run(problem, cfg, x0)
            assert res.converged, f"{mode} failed to reach the gap target"
            updates[mode] = res.coordinate_updates / problem.n
        details.append((updates["rcd"], updates["rcd-coordwise"]))
        if updates["rcd"] <= updates["rcd-coordwise"]:
            wins += 1
    check(10, "aggregated weights need no more normalized updates than the "
              "scaled coordinate-wise rule on at least 4 of 5 instances",
          wins >= 4, f"wins {wins}/5, updates per dim {details}")


def test_criterion_11_sampler_statistics():
    n, batch, draws = 20, 5, 100000
    sampler = BlockSampler(SamplerConfig(batch, seed=2024), n)
    counts = np.zeros(n)
    for _ in range(draws):
        counts[sampler.draw()] += 1
    p = batch / n
    sigma = np.sqrt(p * (1.0 - p) / draws)
    dev = np.max(np.abs(counts / draws - p))
    again = BlockSampler(SamplerConfig(batch, seed=2024), n)
    repeat = all(np.array_equal(again.draw(),
                                BlockSampler(SamplerConfig(batch, seed=2024), n).draw())
                 for _ in range(1))
    sa = BlockSampler(SamplerConfig(batch, seed=31), n)
    sb = BlockSampler(SamplerConfig(batch, seed=31), n)
    identical = all(np.array_equal(sa.draw(), sb.draw()) for _ in range(1000))
    ok = dev <= 3.0 * sigma and identical and repeat
    check(11, "empirical inclusion frequencies within 3 binomial deviations "
              "and seed-reproducible draw sequences",
          ok, f"max |freq - p| {dev:.5f} vs 3 sigma {3 * sigma:.5f}")


def test_criterion_12_bound_evaluators_match_hand_calculations():
    # frozen from independent cell-by-cell evaluations of the formulas
    sub_cases = [
        ((10, 2, 1.0, 1.0), 0, 1.5),
        ((10, 10, 2.0, 3.0), 7, 0.625),
        ((100, 7, 0.5, 2.5), 123, 0.27315296566077),
        ((3, 1, 4.0, 0.25), 9, 2.0625),
        ((50, 5, 1.5, 9.0), 1000, 0.10024752475247525),
    ]
    conf_cases = [
        ((10, 2, 1.0, 1.0), 0.01, 0.1, 2314),
        ((100, 10, 2.0, 5.0), 0.5, 0.05, 492),
        ((4, 4, 1.0, 2.0), 0.2, 0.5, 9),
        ((50, 1, 3.0, 10.0), 0.001, 0.01, 4590392),
        ((20, 5, 0.3, 0.8), 0.1, 0.25, 50),
    ]
    sc_cases = [
        ((10, 1), 0.5, 0.95),
        ((10, 10), 1.0, 0.0),
        ((7, 3), 0.2, 0.9142857142857143),
        ((100, 25), 0.9, 0.775),
        ((2, 1), 1.0, 0.5),
    ]
    eb_cases = [
        ((1, 1, 1.0, 0.0, 0.0), 0.8571428571428571),
        ((10, 2, 2.0, 0.0, 0.0), 0.9937390966191533),
        ((10, 2, 1.0, 1.0, 2.0), 0.9985224660489852),
        ((40, 10, 0.5, 0.25, 3.0), 0.9940740740740741),
        ((6, 6, 3.0, 2.0, 1.0), 0.9565217391304348),
    ]
    eb_conf_cases = [
        ((1, 1, 1.0, 0.0, 0.0, 2.0), 0.1, 0.2, 33),
        ((10, 2, 2.0, 0.0, 0.0, 5.0), 0.05, 0.1, 1104),
        ((10, 2, 1.0, 1.0, 2.0, 1.0), 0.01, 0.5, 3586),
        ((40, 10, 0.5, 0.25, 3.0, 8.0), 0.4, 0.02, 1166),
        ((6, 6, 3.0, 2.0, 1.0, 3.0), 0.003, 0.9, 162),
    ]
    worst = 0.0
    for (N, b, r, d0), k, want in sub_cases:
        got = sublinear_gap_bound(RateBundle(N, b, radius=r, initial_gap=d0), k)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    for (N, b, r, d0), eps, rho, want in conf_cases:
        got = iters_to_confidence_sublinear(
            RateBundle(N, b, radius=r, initial_gap=d0), eps, rho)
        worst = max(worst, abs(got - want))
    for (N, b), s, want in sc_cases:
        got = linear_rate_strongly_convex(RateBundle(N, b, strong_convexity=s))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    for (N, b, k1, k2, r), want in eb_cases:
        got = linear_rate_error_bound(
            RateBundle(N, b, eb_const=k1, eb_quad=k2, radius=r))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    for (N, b, k1, k2, r, d0), eps, rho, want in eb_conf_cases:
        got = iters_to_confidence_error_bound(
            RateBundle(N, b, eb_const=k1, eb_quad=k2, radius=r,
                       initial_gap=d0), eps, rho)
        worst = max(worst, abs(got - want))
    check(12, "five bound evaluators match independent hand evaluations on "
              "5 parameter sets each",
          worst <= 1e-12, f"worst deviation {worst:.3e}")
