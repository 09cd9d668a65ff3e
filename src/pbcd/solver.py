"""Randomized block-coordinate descent with incremental state maintenance.

One iteration draws an index set S of blocks and updates all of them at
once from the iteration-start snapshot (synchronous model: no block reads
another's fresh value within an iteration).  The solver keeps z = M x, the
row values of the smooth operator, and F(x) as incremental caches.  One
step gathers the gradient M[:, S]' phi'(z) straight from M's CSC arrays,
takes one vectorized prox, accumulates the change of z in one pass over the
rows, and re-evaluates phi only on the rows whose value changed.
Parallelism is array-level; a fixed seed reproduces a run bit-for-bit.

Modes
-----
* "rcd"            sampled blocks, aggregated per-block weights (the rule
                   whose descent inequality guarantees monotone progress)
* "rcd-coordwise"  same sampling, reference stepsize rule: coordinate-wise
                   constants scaled by min(max blocks per component, batch)
* "full"           deterministic full pass (every block, every iteration)
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import regularizers as reg
from .errors import (CacheConsistencyError, DescentViolationError, InputError)
from .sampling import BlockSampler, SamplerConfig
from .smooth import coordinatewise_constants

MODES = ("rcd", "rcd-coordwise", "full")

# Tolerances for the solver's own self-checks.
DESCENT_TOL = 1e-10
CACHE_RTOL = 1e-8
# Iterations between full recomputations of the incremental caches.
RECOMPUTE_STRIDE = 1000


@dataclass
class SolverConfig:
    mode: str = "rcd"
    sampler: SamplerConfig = None
    max_iters: int = 1000
    eps_mapping: float = None
    eps_gap: float = None
    fstar: float = None
    trace_stride: int = 1
    trace_mapping_norm: bool = False
    check_stride: int = None


class Trace:
    """Append-only per-iteration record (k, F, mapping norm, |S|, elapsed)."""

    def __init__(self):
        self.ks = []
        self.objectives = []
        self.mapping_norms = []
        self.batch_sizes = []
        self.elapsed = []

    def record(self, k, objective, mapping_norm, batch_size, elapsed):
        if self.ks and k <= self.ks[-1]:
            return
        self.ks.append(int(k))
        self.objectives.append(float(objective))
        self.mapping_norms.append(float(mapping_norm))
        self.batch_sizes.append(int(batch_size))
        self.elapsed.append(float(elapsed))

    def __len__(self):
        return len(self.ks)


@dataclass
class SolverState:
    """Mutable iterate plus incremental caches.

    z caches M x, one value per row of the smooth operator; f_value caches
    F(x).
    """

    x: np.ndarray
    z: np.ndarray
    f_value: float
    k: int = 0
    coordinate_updates: int = 0


@dataclass
class SolveResult:
    """Outcome of run().

    coordinate_updates counts block updates: the number of blocks drawn,
    summed over iterations.  On a partition into blocks of size b it is
    the coordinate-update count divided by b.
    """

    x: np.ndarray
    objective: float
    trace: Trace
    converged: bool
    status: str
    iterations: int
    coordinate_updates: int
    state: SolverState = field(repr=False, default=None)


def init_solver_state(problem, x0):
    """Build caches for a feasible starting point."""
    x = np.asarray(x0, dtype=float).copy()
    f = problem.objective(x)
    if f == np.inf:
        raise InputError("starting point violates an indicator constraint")
    return SolverState(x=x, z=problem.smooth.matrix @ x, f_value=float(f))


def coordwise_weights(problem, batch_size):
    """Reference per-block weights: min(max blocks per component, batch) * L_i."""
    beta = min(problem.max_blocks_per_component, int(batch_size))
    return float(beta) * coordinatewise_constants(problem)


def step(problem, state, idx, weights=None, enforce_descent=True):
    """One iteration over the distinct blocks `idx` (updates `state` in place).

    Blocks outside `idx` are untouched.  Every selected coordinate takes its
    proximal step from the pre-step snapshot z = M x:

        g = M[:, S]' phi'(z) + lin[S],  x_S <- prox(x_S - g / w_S),

    then z and F are updated over the rows whose value changed.
    """
    idx = np.asarray(idx, dtype=np.int64).ravel()
    if idx.size == 0:
        return state
    if int(idx.min()) < 0 or int(idx.max()) >= problem.num_blocks:
        raise InputError("block index out of range in update set")
    wdiag = problem.weights if weights is None else weights
    part, op = problem.partition, problem.smooth
    cols = part.coords(idx)
    g, rows, vals, local = problem.columns_gradient(state.z, cols)
    old = state.x[cols]
    w = np.repeat(wdiag[idx], part.block_sizes[idx])
    lam = problem.lam[cols]
    new = reg.prox(old - g / w, lam, problem.lb[cols], problem.ub[cols], w)
    dx = new - old
    dz = np.bincount(rows, weights=vals * dx[local], minlength=state.z.size)
    touched = dz.nonzero()[0]
    z_old = state.z[touched]
    z_new = z_old + dz[touched]
    delta = float(np.sum(op.values(z_new, touched) - op.values(z_old, touched)))
    delta += float(op.lin[cols] @ dx) + float(lam @ (np.abs(new) - np.abs(old)))
    f_old = state.f_value
    state.x[cols] = new
    state.z[touched] = z_new
    state.f_value = f_old + delta
    if enforce_descent and not (state.f_value
                                <= f_old + DESCENT_TOL * (1.0 + abs(f_old))):
        raise DescentViolationError(
            f"objective rose from {f_old!r} to {state.f_value!r} in a "
            "descent-guaranteed mode")
    return state


def verify_and_refresh_caches(problem, state, rtol=CACHE_RTOL):
    """Recompute all caches from x; raise on drift beyond `rtol` relative."""
    fresh = problem.smooth.matrix @ state.x
    rel = np.abs(state.z - fresh) / (1.0 + np.abs(fresh))
    worst = int(np.argmax(rel))
    err = float(rel[worst])
    fresh_f = problem.objective(state.x)
    f_err = abs(state.f_value - fresh_f) / (1.0 + abs(fresh_f))
    if err > rtol or f_err > rtol:
        raise CacheConsistencyError(
            "incremental caches drifted beyond tolerance",
            diagnostics={
                "iteration": state.k,
                "worst_row": worst,
                "worst_component": int(problem.smooth.component[worst]),
                "worst_state_rel_err": err,
                "objective_rel_err": f_err,
                "cached_objective": state.f_value,
                "recomputed_objective": fresh_f,
            })
    state.z = fresh
    state.f_value = float(fresh_f)
    return state


def run(problem, config, x0):
    """Iterate draw/update until a stop rule fires or max_iters is reached.

    The starting point is projected blockwise onto the regularizer domains
    so the initial objective is finite.  Non-convergence within max_iters is
    reported through the returned status, not raised.
    """
    if config.mode not in MODES:
        raise InputError(f"unknown solver mode {config.mode!r}")
    if config.eps_mapping is not None and config.eps_gap is not None:
        raise InputError("choose a single primary stop rule (mapping or gap)")
    if config.eps_gap is not None and config.fstar is None:
        raise InputError("gap stop rule needs the reference optimal value")
    if config.mode != "full" and config.sampler is None:
        raise InputError(f"mode {config.mode!r} needs a sampler config")

    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.n,) or not np.all(np.isfinite(x0)):
        raise InputError("starting point must be a finite vector of length n")
    state = init_solver_state(problem, problem.project_domain(x0))

    num_blocks = problem.num_blocks
    full_set = np.arange(num_blocks, dtype=np.int64)
    if config.mode == "full":
        sampler = None
        batch = num_blocks
    else:
        sampler = BlockSampler(config.sampler, num_blocks)
        batch = config.sampler.batch_size
    if config.mode == "rcd-coordwise":
        weights = coordwise_weights(problem, batch)
        enforce = False
    else:
        weights = problem.weights
        enforce = True
    check_stride = config.check_stride
    if check_stride is None:
        check_stride = max(1, int(np.ceil(10.0 * num_blocks / batch)))

    trace = Trace()
    start = time.perf_counter()

    def mapping_norm():
        return problem.prox_grad_mapping(state.x)[1]

    def record(k, s_size):
        g = mapping_norm() if config.trace_mapping_norm else np.nan
        trace.record(k, state.f_value, g, s_size, time.perf_counter() - start)

    record(0, 0)
    converged = False
    status = "max-iters"
    while state.k < config.max_iters:
        idx = full_set if sampler is None else sampler.draw()
        step(problem, state, idx, weights=weights, enforce_descent=enforce)
        state.k += 1
        state.coordinate_updates += int(idx.size)
        if state.k % RECOMPUTE_STRIDE == 0:
            verify_and_refresh_caches(problem, state)
        if state.k % config.trace_stride == 0 or state.k == config.max_iters:
            record(state.k, idx.size)
        if config.eps_gap is not None \
                and state.f_value - config.fstar <= config.eps_gap:
            converged, status = True, "converged:gap"
            break
        if config.eps_mapping is not None \
                and state.k % check_stride == 0 \
                and mapping_norm() <= config.eps_mapping:
            converged, status = True, "converged:mapping-norm"
            break
    record(state.k, batch if state.k else 0)
    return SolveResult(x=state.x.copy(), objective=state.f_value, trace=trace,
                       converged=converged, status=status,
                       iterations=state.k,
                       coordinate_updates=state.coordinate_updates,
                       state=state)
