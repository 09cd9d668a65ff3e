"""The three benchmark workloads.

Each workload mirrors a command-line path of pbcd and calls its public
functions through their modules (``solver.run``, not a bound import), so the
traced run can wrap exactly the names pbcd's own code looks up.  Problem
data is fixed per workload; the workload seed drives the sampler streams
and the error-bound sample points.  README.md explains why.

A workload has four phases:

* ``prepare``   -- write the input files and build the raw-data models the
                   checks use (untimed, once);
* ``setup``     -- inputs to an assembled problem with weights (timed, and
                   repeated by the runner);
* ``run_round`` -- one round of operations: reference solves, solver cells
                   and diagnostics calls, each timed;
* ``check``     -- compare round outputs with the raw-data computations and
                   confirm that every check rejects a perturbed output.
"""

import dataclasses
import time

import numpy as np

import calibration
import checks
import pbcd.analysis as analysis
import pbcd.experiment as experiment
import pbcd.generators as generators
import pbcd.matrixio as matrixio
import pbcd.sampling as sampling
import pbcd.smooth as smooth
import pbcd.solver as solver

REF_TOL = 1e-10
REF_MAX_ITERS = 500000
CELL_MAX_ITERS = 200000
BOUND_KS = (0, 10, 100, 1000)
CONF_RHO = 0.05
MODES = ("rcd", "rcd-coordwise", "full")


@dataclasses.dataclass
class Round:
    """One round of operations.

    `segments` lists (category, [seconds, ...]) in a fixed order, so segment i
    is the same piece of work in every round: one sample per run of a
    repeated call, and one segment per iteration of a solver cell (from the
    cell's trace).  The runner keeps each segment's fastest sample over the
    rounds, which filters out interference from other load on the machine.
    A round holds 1.5-2.5 s of work on a quiet host, so a 30 s run gives
    each segment 10-20 samples spread over the whole run.  A calibration tick precedes
    every operation (calibration.py); the runner subtracts its time.
    """

    segments: list = dataclasses.field(default_factory=list)
    wall_s: float = 0.0
    traced: bool = False
    sig: str = ""
    block_updates: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)
    updates: dict = dataclasses.field(default_factory=lambda: {m: [] for m in MODES})
    out: dict = dataclasses.field(default_factory=dict)

    def signature(self):
        """Deterministic outputs; every round must reproduce round 0's."""
        return repr(self.out.get("signature"))

    def shape(self):
        return [(cat, len(samples)) for cat, samples in self.segments]

    def new_segments(self, *categories):
        """Empty segments that repeated calls add their samples to."""
        out = []
        for category in categories:
            out.append([])
            self.segments.append((category, out[-1]))
        return out


def _sample(rnd, samples, fn, *args, **kwargs):
    """One timed operation, added to a segment of repeated calls."""
    calibration.tick()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    samples.append(time.perf_counter() - start)
    rnd.attempted += 1
    return result


def _cell_segments(rnd, trace, total=None):
    """Per-iteration segments from a trace's elapsed column.

    `total` is the run() wall time; its part before the first record and
    after the last one joins the first segment.
    """
    el = trace.elapsed
    head = el[0] if total is None else total - el[-1] + el[0]
    rnd.segments.append(("solve", [head]))
    rnd.segments.extend(("solve", [b - a]) for a, b in zip(el, el[1:]))


def _warm(problem):
    """First evaluations at x0; they build the lazily cached operators."""
    x0 = np.zeros(problem.n)
    problem.objective(x0)
    problem.prox_grad_mapping(x0)
    problem.partial_gradient(x0, 0)


def _sampler(batch, scheme, seed):
    return sampling.SamplerConfig(batch_size=batch, scheme=scheme, seed=seed)


def _sample_points(model, center, count, seed, tag):
    """Points around x* at weighted radius up to 0.9, as `pbcd gebp-fit` draws them."""
    rng = np.random.default_rng([seed, tag])
    points = []
    for _ in range(count):
        raw = rng.normal(size=center.size)
        scale = float(rng.uniform(0.05, 0.9))
        points.append(model.project(center + raw * (scale / model.norm_w(raw))))
    return points


def _reference(rnd, problem, samples=None, max_iters=REF_MAX_ITERS):
    if samples is None:
        samples, = rnd.new_segments("reference")
    return _sample(rnd, samples, experiment.reference_solution, problem,
                   tol=REF_TOL, max_iters=max_iters)


def _cell(rnd, problem, x0, mode, batch=None, scheme=None, seed=0, eps_gap=None,
          fstar=None, max_iters=CELL_MAX_ITERS, block_size=1, mapping_norm=True):
    """One solver cell; counts toward updates-to-tolerance only with a gap stop."""
    cfg = solver.SolverConfig(
        mode=mode, sampler=None if mode == "full" else _sampler(batch, scheme, seed),
        max_iters=max_iters, eps_gap=eps_gap, fstar=fstar, trace_mapping_norm=mapping_norm)
    calibration.tick()
    start = time.perf_counter()
    res = solver.run(problem, cfg, x0)
    _cell_segments(rnd, res.trace, time.perf_counter() - start)
    rnd.block_updates += res.coordinate_updates
    rnd.attempted += 1
    if eps_gap is not None:
        rnd.updates[mode].append(res.coordinate_updates * block_size / problem.n)
    return res


def _write_trace(path, res, fstar, problem, batch):
    """Trace CSV with the columns `pbcd solve` writes."""
    eff = problem.num_blocks if batch is None else batch
    tr = res.trace
    rows = [(k, k * eff / problem.n, f - fstar, g, s, el)
            for k, f, g, s, el in zip(tr.ks, tr.objectives, tr.mapping_norms,
                                      tr.batch_sizes, tr.elapsed)]
    experiment.write_csv(str(path), ("k", "updates_per_dim", "gap", "mapping_norm",
                                     "batch", "elapsed_s"), rows)


def _bounds(problem, x0, xstar, fstar, batch, sc, fit):
    """Every rate-bound evaluator, on the bundle built from the reference."""
    extra = {"strong_convexity": sc} if sc is not None and 0.0 < sc <= 1.0 else {}
    bundle = analysis.bundle_from_reference(problem, x0, xstar, fstar, batch,
                                            eb_const=fit.const_coeff,
                                            eb_quad=fit.quad_coeff, **extra)
    eps = 1e-3 * bundle.initial_gap
    bounds = {f"sublinear@{k}": analysis.sublinear_gap_bound(bundle, k) for k in BOUND_KS}
    bounds["iters_sublinear"] = analysis.iters_to_confidence_sublinear(bundle, eps, CONF_RHO)
    if extra:
        bounds["linear_strongly_convex"] = analysis.linear_rate_strongly_convex(bundle)
    chain = analysis.error_bound_chain(bundle)
    bounds.update(zip(("eb_coupling", "eb_c1", "eb_c2", "eb_c3", "eb_theta"), chain))
    bounds["iters_error_bound"] = analysis.iters_to_confidence_error_bound(bundle, eps, CONF_RHO)
    return bounds, eps


def _diagnostics(rnd, problem, x0, xstar, fstar, points, batch, segments=None,
                 strong=True):
    """Strong convexity (quadratic families only), error-bound fit, rate bounds."""
    if segments is None:
        segments = rnd.new_segments(*["diagnostics"] * (3 if strong else 2))
    sc = None
    if strong:
        sc = _sample(rnd, segments[0], analysis.estimate_strong_convexity, problem)
    fit = _sample(rnd, segments[-2], analysis.fit_error_bound_constants, problem, xstar,
                  points)
    bounds, eps = _sample(rnd, segments[-1], _bounds, problem, x0, xstar, fstar, batch,
                          sc, fit)
    return {"sc": sc, "fit": fit, "bounds": bounds, "eps": eps, "batch": batch,
            "num_blocks": problem.num_blocks, "points": points}


# -- checks shared by the workloads ----------------------------------------------


def _must_reject(label, errors):
    return [] if errors else [f"self-test: the {label} check accepted a perturbed output"]


def _check_cells(model, cells, fstar, gap0, gap_rtol):
    """cells: (label, result, gap_stop, descent) for each solver cell."""
    errors = []
    x0 = np.zeros(model.n)
    for label, res, gap_stop, descent in cells:
        errs = checks.cell_result(model, res.x, res.objective, fstar, gap0,
                                  gap_rtol if gap_stop else None)
        if gap_stop and not res.converged:
            errs.append(f"stopped with status {res.status}")
        if descent:
            errs += checks.monotone(res.trace.objectives)
        errors += [f"{label}: {e}" for e in errs]
    # self-tests: each check must reject a perturbed output
    label, res, _, _ = next(c for c in cells if c[3])
    errors += _must_reject("objective", checks.cell_result(
        model, res.x, res.objective + 1e-6, fstar, gap0, gap_rtol))
    errors += _must_reject("tolerance", checks.cell_result(
        model, x0, model.value(x0), fstar, gap0, gap_rtol))
    bumped = list(res.trace.objectives)
    mid = max(1, len(bumped) // 2)
    bumped[mid] = bumped[mid - 1] + 1e-6 * (1.0 + abs(bumped[mid - 1]))
    errors += _must_reject("monotone-trace", checks.monotone(bumped))
    return errors


def _check_diagnostics(model, diag, xstar, fstar):
    errors = []
    if diag["sc"] is not None:
        errors += checks.strong_convexity(model, diag["sc"])
    fit = diag["fit"]
    errors += checks.error_bound_fit(model, xstar, diag["points"], fit)
    x0 = np.zeros(model.n)
    sc = diag["sc"]
    expected = checks.closed_form_bounds(
        diag["num_blocks"], diag["batch"], model.norm_w(x0 - xstar),
        model.value(x0) - fstar, diag["eps"], CONF_RHO, BOUND_KS,
        strong=sc if sc is not None and 0.0 < sc <= 1.0 else None,
        eb=(fit.const_coeff, fit.quad_coeff))
    errors += checks.bounds_match(diag["bounds"], expected)
    if sc is not None:
        errors += _must_reject("strong-convexity",
                               checks.strong_convexity(model, 0.9 * sc + 1e-6))
    scaled = dataclasses.replace(fit, const_coeff=0.9 * fit.const_coeff,
                                 quad_coeff=0.9 * fit.quad_coeff)
    errors += _must_reject("error-bound-fit",
                           checks.error_bound_fit(model, xstar, diag["points"], scaled))
    off = dict(diag["bounds"])
    off["sublinear@10"] *= 1.0 + 1e-6
    errors += _must_reject("rate-bound", checks.bounds_match(off, expected))
    return errors


def _check_l1_reference(model, xstar, fstar, ok):
    errors = [] if ok else ["reference solve did not converge"]
    errors += checks.kkt_l1(model, xstar) + checks.reference_value(model, xstar, fstar)
    errors += _must_reject("KKT", checks.kkt_l1(model, xstar + 1e-3))
    errors += _must_reject("reference-value",
                           checks.reference_value(model, xstar, fstar + 1e-6))
    return errors


# -- lasso-solve -------------------------------------------------------------------


class LassoSolve:
    """`pbcd solve` on the README lasso, read back from its matrix/vector files."""

    name = "lasso-solve"
    M, N, SPARSITY, LAM, PROBLEM_SEED = 900, 1000, 0.002, 10.0, 1
    GAP_RTOL = 1e-4
    # To-tolerance cells (mode, batch).  rcd-coordwise runs at the large
    # batch only: it needs ~40 updates per dimension, and at batch 10 its
    # ~4000 iterations alone would take longer than the rest of the round.
    # rcd's count to tolerance varies ~7% between sampler seeds, so three
    # cells average it; rcd-coordwise's varies under 2%.
    CELLS = (("rcd", 10), ("rcd", 200), ("rcd", 200), ("rcd-coordwise", 200))
    # rcd with the default uniform-subset sampler for a fixed iteration count:
    # exercises BlockSampler.draw at a large batch with an exact workload.
    SAMPLER_CELLS = ((200, 20),)
    DIAG_BATCH = 10
    FIT_POINTS = 60

    def __init__(self, seed, work):
        self.seed, self.work = seed, work

    def prepare(self):
        gen = generators.generate_lasso(self.M, self.N, self.SPARSITY, lam=self.LAM,
                                        seed=self.PROBLEM_SEED)
        self.mtx, self.vec = self.work / "matrix.mtx", self.work / "rhs.vec"
        matrixio.save_matrix(str(self.mtx), gen.matrix)
        matrixio.save_vector(str(self.vec), gen.rhs)
        mat = gen.matrix
        self.model = checks.LassoModel(mat.row_idx, mat.col_idx, mat.values,
                                       (mat.rows, mat.cols), gen.rhs, self.LAM)

    def setup(self):
        mat = matrixio.load_matrix(str(self.mtx))
        rhs = matrixio.load_vector(str(self.vec))
        problem = generators.lasso_from_matrix(mat, rhs, self.LAM)
        _warm(problem)
        return problem

    def inputs(self, problem):
        xstar = experiment.reference_solution(problem, tol=REF_TOL)[0]
        self.points = _sample_points(self.model, xstar, self.FIT_POINTS, self.seed, 1)

    def run_round(self, problem):
        rnd = Round()
        x0 = np.zeros(problem.n)
        # The reference solve and the diagnostics calls are single calls of
        # 1-30 ms, so each one's best time is the minimum of few samples:
        # they run at the start and after every to-tolerance cell, five
        # samples per round spread over the run.
        short = rnd.new_segments("reference", "diagnostics", "diagnostics", "diagnostics")

        def short_calls():
            xstar, fstar, ok = _reference(rnd, problem, short[0])
            diag = _diagnostics(rnd, problem, x0, xstar, fstar, self.points,
                                self.DIAG_BATCH, short[1:])
            return xstar, fstar, ok, diag

        xstar, fstar, ok, diag = short_calls()
        gap0 = problem.objective(x0) - fstar
        eps = self.GAP_RTOL * max(gap0, 1e-300)
        cells = []
        for i, (mode, batch) in enumerate(self.CELLS):
            res = _cell(rnd, problem, x0, mode, batch, "shuffle-partition",
                        seed=1000 * self.seed + i, eps_gap=eps, fstar=fstar)
            _write_trace(self.work / f"trace_{i}_{mode}_b{batch}.csv", res, fstar, problem,
                         batch)
            cells.append((f"{mode} b{batch} #{i}", res, True, mode == "rcd"))
            short_calls()
        for batch, iters in self.SAMPLER_CELLS:
            res = _cell(rnd, problem, x0, "rcd", batch, "uniform-subset",
                        seed=1000 * self.seed + 10 + batch, max_iters=iters)
            _write_trace(self.work / f"trace_uniform_b{batch}.csv", res, fstar, problem, batch)
            cells.append((f"rcd uniform b{batch} x{iters}", res, False, True))
        res = _cell(rnd, problem, x0, "full", eps_gap=eps, fstar=fstar)
        cells.append(("full", res, True, True))
        rnd.out = {"xstar": xstar, "fstar": fstar, "ok": ok, "cells": cells, "diag": diag,
                   "signature": (fstar, [(c[1].iterations, c[1].objective) for c in cells],
                                 diag["fit"].const_coeff, diag["fit"].quad_coeff)}
        return rnd

    def check(self, rnd, problem):
        o, model = rnd.out, self.model
        gap0 = model.value(np.zeros(model.n)) - o["fstar"]
        return (_check_l1_reference(model, o["xstar"], o["fstar"], o["ok"])
                + _check_cells(model, o["cells"], o["fstar"], gap0, self.GAP_RTOL)
                + _check_diagnostics(model, o["diag"], o["xstar"], o["fstar"]))


# -- logistic-compare ----------------------------------------------------------------


class LogisticCompare:
    """`pbcd compare` (run_experiment) on sparse logistic regression, block size 3."""

    name = "logistic-compare"
    SAMPLES, N, SPARSITY, BLOCK, PROBLEM_SEED = 200, 60, 0.05, 3, 1
    LAM_FRACTION = 0.5            # of the lam at which x = 0 becomes optimal
    GAP_RTOL = 1e-4
    BATCHES = (2, 10)
    FIT_POINTS = 100
    # Kept failing operation: lam above lam_max makes x0 = 0 optimal, but
    # F(x0) summed per component sits ~3e-15 above F* from the vectorized
    # path, so the gap tolerance (1e-4 of that) is never met.
    OVER_LAM_FRACTION = 1.5
    OVER_LAM_MAX_ITERS = 50

    def __init__(self, seed, work):
        self.seed, self.work = seed, work

    def _generate(self, lam):
        return generators.generate_logistic(self.SAMPLES, self.N, self.SPARSITY, lam=lam,
                                            seed=self.PROBLEM_SEED, block_size=self.BLOCK)

    def prepare(self):
        mat = self._generate(0.0)
        data = (mat.matrix.row_idx, mat.matrix.col_idx, mat.matrix.values,
                (mat.matrix.rows, mat.matrix.cols), mat.rhs)
        lam_max = checks.LogisticModel(*data, 0.0, self.BLOCK).lam_max()
        self.lam = self.LAM_FRACTION * lam_max
        self.over_lam = self.OVER_LAM_FRACTION * lam_max
        self.model = checks.LogisticModel(*data, self.lam, self.BLOCK)
        self.over_model = checks.LogisticModel(*data, self.over_lam, self.BLOCK)

    def setup(self):
        problem = self._generate(self.lam).problem
        _warm(problem)
        return problem

    def inputs(self, problem):
        xstar = experiment.reference_solution(problem, tol=REF_TOL)[0]
        self.points = _sample_points(self.model, xstar, self.FIT_POINTS, self.seed, 2)

    def _config(self, lam, outdir, **kw):
        return experiment.ExperimentConfig(
            source="generate-logistic", num_samples=self.SAMPLES, n=self.N,
            sparsity=self.SPARSITY, block_size=self.BLOCK, lam=lam,
            problem_seed=self.PROBLEM_SEED, scheme="shuffle-partition",
            gap_rtol=self.GAP_RTOL, ref_tol=REF_TOL, outdir=str(self.work / outdir), **kw)

    def run_round(self, problem):
        rnd = Round()
        x0 = np.zeros(problem.n)
        # short calls between the long ones, four per round, as in LassoSolve
        short = rnd.new_segments("reference", "diagnostics", "diagnostics")

        def short_calls():
            xstar, fstar, ok = _reference(rnd, problem, short[0])
            diag = _diagnostics(rnd, problem, x0, xstar, fstar, self.points,
                                self.BATCHES[0], short[1:], strong=False)
            return xstar, fstar, ok, diag

        xstar, fstar, ok, diag = short_calls()
        cfg = self._config(self.lam, "compare", modes=("rcd", "rcd-coordwise"),
                           batch_sizes=self.BATCHES, seeds=(1000 * self.seed,))
        calibration.tick()
        start = time.perf_counter()
        result = experiment.run_experiment(cfg)
        total = time.perf_counter() - start
        rnd.attempted += 1 + len(result.cells)
        for cell in result.cells:
            _cell_segments(rnd, cell.trace)
            rnd.block_updates += cell.coordinate_updates
            rnd.updates[cell.mode].append(cell.coordinate_updates * self.BLOCK / problem.n)
        # the rest of run_experiment: problem build, reference solve, CSV output
        rnd.segments.append(
            ("compare", [total - sum(c.trace.elapsed[-1] for c in result.cells)]))
        short_calls()
        gap0 = problem.objective(x0) - fstar
        full = _cell(rnd, problem, x0, "full", eps_gap=self.GAP_RTOL * gap0, fstar=fstar,
                     block_size=self.BLOCK)
        short_calls()
        calibration.tick()
        over = experiment.run_experiment(self._config(
            self.over_lam, "over_lam", modes=("rcd",), batch_sizes=(self.BATCHES[0],),
            seeds=(0,), max_iters=self.OVER_LAM_MAX_ITERS))
        rnd.attempted += 2
        cell = over.cells[0]
        if not cell.converged:
            rnd.failed += 1
            rnd.failures.append(
                f"lam above lam_max: cell stopped {cell.status} after {cell.iterations} "
                f"iterations; initial gap {over.initial_gap!r} is rounding between the "
                "per-component and vectorized objective paths, so the gap tolerance "
                f"{over.initial_gap * self.GAP_RTOL!r} is never met")
        short_calls()
        rnd.out = {"xstar": xstar, "fstar": fstar, "ok": ok, "result": result, "cfg": cfg,
                   "full": full, "diag": diag, "over": over,
                   "signature": (fstar, result.fstar,
                                 [(c.iterations, c.final_gap) for c in result.cells],
                                 full.iterations, full.objective, diag["fit"].const_coeff,
                                 diag["fit"].quad_coeff, over.fstar, cell.iterations)}
        return rnd

    def _rerun(self, problem, cfg, cell, eps_gap, fstar):
        """Repeat a compare cell through solver.run to get its final iterate."""
        scfg = solver.SolverConfig(
            mode=cell.mode, sampler=_sampler(cell.batch_size, cfg.scheme, cell.seed),
            max_iters=cfg.max_iters, eps_gap=eps_gap, fstar=fstar,
            trace_mapping_norm=cfg.trace_mapping_norm)
        return solver.run(problem, scfg, np.zeros(problem.n))

    def check(self, rnd, problem):
        o, model = rnd.out, self.model
        result, cfg = o["result"], o["cfg"]
        errors = _check_l1_reference(model, o["xstar"], o["fstar"], o["ok"])
        errors += checks.reference_value(model, o["xstar"], result.fstar)
        gap0 = model.value(np.zeros(model.n)) - result.fstar
        eps_gap = cfg.gap_rtol * max(result.initial_gap, 1e-300)
        cells = []
        for cell in result.cells:
            res = self._rerun(problem, cfg, cell, eps_gap, result.fstar)
            label = f"{cell.mode} b{cell.batch_size} s{cell.seed}"
            if (res.iterations, res.objective - result.fstar) != (cell.iterations, cell.final_gap):
                errors.append(f"{label}: compare cell and solver.run disagree")
            if res.trace.objectives != cell.trace.objectives:
                errors.append(f"{label}: compare trace differs from solver.run trace")
            cells.append((label, res, True, cell.mode == "rcd"))
        cells.append(("full", o["full"], True, True))
        errors += _check_cells(model, cells, o["fstar"], gap0, self.GAP_RTOL)
        expected_files = len(result.cells) + len(cfg.batch_sizes) + 1
        if len(result.files) != expected_files:
            errors.append(f"compare wrote {len(result.files)} files, expected {expected_files}")
        for cell, path in zip(result.cells, result.files):
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if rows.shape[0] != len(cell.trace.ks) or not np.array_equal(rows[:, 0], cell.trace.ks):
                errors.append(f"{path}: rows do not match the cell trace")
        errors += _check_diagnostics(model, o["diag"], o["xstar"], o["fstar"])
        over = o["over"]
        zero = np.zeros(model.n)
        errors += [f"lam above lam_max: {e}" for e in
                   checks.kkt_l1(self.over_model, zero)
                   + checks.reference_value(self.over_model, zero, over.fstar)]
        if not over.cells[0].converged and not 0.0 < over.initial_gap < 1e-12:
            errors.append("lam above lam_max: the cell failed, but not for the rounding-level "
                          f"initial gap (gap {over.initial_gap!r})")
        return errors


# -- dual-diagnostics ----------------------------------------------------------------


class DualDiagnostics:
    """Dual instances: reference solves, a deterministic full pass, small-batch
    sampled cells, then strong convexity, error-bound fit and rate bounds.

    The cells leave out the mapping-norm column (SolverConfig's default), so
    the vectorized mapping costs nothing here and the reference solve and
    the analysis calls weigh more.  One generated instance keeps a round
    near 2 s; PROBLEM_SEEDS takes more.
    """

    name = "dual-diagnostics"
    PARTS, PROBLEM_SEEDS = 40, (1,)
    GAP_RTOL = 1e-3
    BATCH = 4
    # rcd-coordwise's count to tolerance varies by a few percent between
    # sampler seeds, so two cells average it; rcd's varies under 1%.
    MODES = ("rcd", "rcd-coordwise", "rcd-coordwise")
    FIT_POINTS = 200
    # Kept failing operation: a 3-block dual whose single component stacks
    # to this matrix.  spectral_norm_sq starts its power iteration from all
    # ones, orthogonal to the top singular vector, and returns 1.0 for 4.0;
    # the reference solve then oscillates and ends at F* = 0.0, above the
    # true optimum -0.0625.
    SPLIT = np.array([[1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    SPLIT_RHS = np.array([-0.5, 0.0, 0.0])
    SPLIT_MAX_ITERS = 2000

    def __init__(self, seed, work):
        self.seed, self.work = seed, work

    def prepare(self):
        self.models = []
        for s in self.PROBLEM_SEEDS:
            gen = generators.generate_dual(self.PARTS, seed=s)
            mat = gen.matrix
            dense = np.zeros((mat.rows, mat.cols))
            dense[mat.row_idx, mat.col_idx] = mat.values
            self.models.append(checks.DualModel(dense, gen.rhs, gen.extras["sigmas"],
                                                gen.extras["centers"],
                                                [[j] for j in range(mat.cols)]))
        self.split_model = checks.DualModel(self.SPLIT, self.SPLIT_RHS, [1.0],
                                            [np.zeros(3)], [[0, 1, 2]])
        self.split_min = self.split_model.min_value()

    def setup(self):
        problems = [generators.generate_dual(self.PARTS, seed=s).problem
                    for s in self.PROBLEM_SEEDS]
        rows, cols = np.nonzero(self.SPLIT)
        mat = matrixio.MatrixFile(rows=3, cols=3, row_idx=rows, col_idx=cols,
                                  values=self.SPLIT[rows, cols])
        problems.append(generators.dual_from_data(mat, self.SPLIT_RHS, [1.0], [np.zeros(3)]))
        for p in problems:
            _warm(p)
        return problems

    def inputs(self, problems):
        self.points = []
        for i, (model, problem) in enumerate(zip(self.models, problems)):
            xstar = experiment.reference_solution(problem, tol=REF_TOL)[0]
            self.points.append(_sample_points(model, xstar, self.FIT_POINTS, self.seed, 3 + i))

    def run_round(self, problems):
        rnd = Round()
        instances = []
        for i, problem in enumerate(problems[:-1]):
            x0 = np.zeros(problem.n)
            # the reference solve and diagnostics run before, between and
            # after the cells: three samples per round of each long call
            short = rnd.new_segments("reference", "diagnostics", "diagnostics", "diagnostics")

            def short_calls():
                xstar, fstar, ok = _reference(rnd, problem, short[0])
                diag = _diagnostics(rnd, problem, x0, xstar, fstar, self.points[i],
                                    self.BATCH, short[1:])
                return xstar, fstar, ok, diag

            xstar, fstar, ok, diag = short_calls()
            eps = self.GAP_RTOL * (problem.objective(x0) - fstar)
            cells = [("full", _cell(rnd, problem, x0, "full", eps_gap=eps, fstar=fstar,
                                    mapping_norm=False), True, True)]
            short_calls()
            for j, mode in enumerate(self.MODES):
                res = _cell(rnd, problem, x0, mode, self.BATCH, "shuffle-partition",
                            seed=1000 * self.seed + 10 * i + j, eps_gap=eps, fstar=fstar,
                            mapping_norm=False)
                _write_trace(self.work / f"trace_{i}_{j}_{mode}.csv", res, fstar, problem,
                             self.BATCH)
                cells.append((f"{mode} b{self.BATCH} #{j}", res, True, mode == "rcd"))
            short_calls()
            instances.append({"xstar": xstar, "fstar": fstar, "ok": ok, "cells": cells,
                              "diag": diag})
        _, split_fstar, _ = _reference(rnd, problems[-1], max_iters=self.SPLIT_MAX_ITERS)
        if split_fstar - self.split_min > 1e-6:
            rnd.failed += 1
            lip = smooth.spectral_norm_sq(self.SPLIT)
            rnd.failures.append(
                f"split dual: reference F* {split_fstar!r} above the bounded-QP optimum "
                f"{self.split_min!r}; spectral_norm_sq gives {lip!r}, exact "
                f"{float(np.linalg.norm(self.SPLIT, 2)) ** 2!r}")
        rnd.out = {"instances": instances, "split_fstar": split_fstar,
                   "signature": ([(d["fstar"], [(c[1].iterations, c[1].objective)
                                                for c in d["cells"]],
                                   d["diag"]["fit"].const_coeff, d["diag"]["sc"])
                                  for d in instances], split_fstar)}
        return rnd

    def check(self, rnd, problems):
        errors = []
        for i, (model, d) in enumerate(zip(self.models, rnd.out["instances"])):
            xstar, fstar = d["xstar"], d["fstar"]
            errs = [] if d["ok"] else ["reference solve did not converge"]
            errs += checks.dual_certificate(model, xstar, fstar)
            errs += checks.reference_value(model, xstar, fstar)
            gap0 = model.value(np.zeros(model.n)) - fstar
            errs += _check_cells(model, d["cells"], fstar, gap0, self.GAP_RTOL)
            errs += _check_diagnostics(model, d["diag"], xstar, fstar)
            flipped = xstar.copy()
            flipped[int(np.argmax(xstar))] *= -1.0
            errs += _must_reject("dual-certificate",
                                 checks.dual_certificate(model, flipped, fstar))
            errs += _must_reject("reference-value",
                                 checks.reference_value(model, xstar, fstar + 1e-6))
            errors += [f"instance {self.PROBLEM_SEEDS[i]}: {e}" for e in errs]
        split_fstar = rnd.out["split_fstar"]
        if split_fstar < self.split_min - 1e-6:
            errors.append(f"split dual: F* {split_fstar!r} below the feasible minimum "
                          f"{self.split_min!r}")
        if rnd.failed and np.isclose(smooth.spectral_norm_sq(self.SPLIT), 4.0):
            errors.append("split dual failed although spectral_norm_sq is exact")
        return errors


WORKLOADS = {w.name: w for w in (LassoSolve, LogisticCompare, DualDiagnostics)}
