"""Randomized block-coordinate descent with incremental state maintenance.

One iteration draws an index set S of blocks and updates all of them at
once from the iteration-start snapshot (synchronous model: no block reads
another's fresh value within an iteration).  The solver keeps z = M x, the
row values of the smooth operator, and F(x) as incremental caches.  What a
step reads besides x and z depends only on which blocks were drawn, so run
gathers it once per sampler chunk into a GatherPlan: the coordinates of the
chunk's draws, the CSC entries of M in their columns, and the step weight,
l1 weight, bounds and linear term of each coordinate (a full-mode run
builds one plan and reuses it).  A step then slices its draw out of the
plan, forms the gradient M[:, S]' phi'(z) from the sliced entries, takes
one vectorized prox, accumulates the change of z in one pass over the rows,
and re-evaluates phi only on the rows whose value changed.  Parallelism is
array-level; a fixed seed reproduces a run bit-for-bit.

The trace's mapping_norm column is filled in stacked passes: each trace row
copies its iterate into one buffer of CompositeProblem.chunk_rows rows, and
CompositeProblem.mapping_norms fills the buffered rows' norms when the
buffer is full and before run returns.  A row's elapsed time therefore
leaves out its own norm, except that the row which ends a pass carries that
pass's time.  The eps_mapping stop check takes the norm at its own iterate,
from the iterate's trace row when it has one.

Modes
-----
* "rcd"            sampled blocks, aggregated per-block weights (the rule
                   whose descent inequality guarantees monotone progress)
* "rcd-coordwise"  same sampling, reference stepsize rule: coordinate-wise
                   constants scaled by min(max blocks per component, batch)
* "full"           deterministic full pass (every block, every iteration)
"""

import itertools
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


class GatherPlan:
    """Everything a chunk of draws reads that does not depend on the iterate.

    `draws` is a (C, tau) array of block index sets, `coord_weights` the
    per-coordinate step weights.  The coordinates of all draws are stored
    one draw after another, with the CSC entries of M in their columns; an
    entry's local id is its coordinate's position within its own draw.
    row(c) is draw c's part, as slices.
    """

    def __init__(self, problem, draws, coord_weights):
        part, op = problem.partition, problem.smooth
        cols = part.coords(draws.ravel())
        coord_offsets = np.zeros(len(draws) + 1, dtype=np.int64)
        np.cumsum(part.block_sizes[draws].sum(axis=1), out=coord_offsets[1:])
        rows, vals, local = op.columns(cols)
        entry_offsets = np.searchsorted(local, coord_offsets)
        local -= coord_offsets[:-1].repeat(np.diff(entry_offsets))
        self.coord_offsets = coord_offsets.tolist()
        self.entry_offsets = entry_offsets.tolist()
        self.entries = (rows, vals, local)
        self.coords = (cols, coord_weights[cols], problem.lam[cols],
                       problem.lb[cols], problem.ub[cols], op.lin[cols])

    def row(self, c):
        """Draw c's part: (cols, rows, vals, local, w, lam, lb, ub, lin), its
        coordinates, the entries of M in their columns, and the coordinates'
        step weights, l1 weights, bounds and linear term."""
        cs = slice(self.coord_offsets[c], self.coord_offsets[c + 1])
        es = slice(self.entry_offsets[c], self.entry_offsets[c + 1])
        cols, w, lam, lb, ub, lin = self.coords
        rows, vals, local = self.entries
        return (cols[cs], rows[es], vals[es], local[es], w[cs], lam[cs], lb[cs],
                ub[cs], lin[cs])


def step(problem, state, idx, weights=None, enforce_descent=True, *, plan=None):
    """One iteration over the distinct blocks `idx` (updates `state` in place).

    Blocks outside `idx` are untouched.  Every selected coordinate takes its
    proximal step from the pre-step snapshot z = M x:

        g = M[:, S]' phi'(z) + lin[S],  x_S <- prox(x_S - g / w_S),

    then z and F are updated over the rows whose value changed.  `plan` is
    the GatherPlan row of idx, built with the coordinate weights of
    `weights`, as run passes it; without it idx is checked and gathered
    here.
    """
    if plan is None:
        idx = np.asarray(idx, dtype=np.int64).ravel()
        if idx.size == 0:
            return state
        if int(idx.min()) < 0 or int(idx.max()) >= problem.num_blocks:
            raise InputError("block index out of range in update set")
        cw = problem.coord_weights if weights is None \
            else problem.partition.expand(weights)
        plan = GatherPlan(problem, idx[None, :], cw).row(0)
    op = problem.smooth
    cols, rows, vals, local, w, lam, lb, ub, lin = plan
    g = problem.gathered_gradient(state.z, rows, vals, local, lin)
    old = state.x[cols]
    new = reg.prox(old - g / w, lam, lb, ub, w)
    dx = new - old
    dz = np.bincount(rows, weights=vals * dx[local], minlength=state.z.size)
    touched = dz.nonzero()[0]
    z_old = state.z[touched]
    z_new = z_old + dz[touched]
    delta = float(np.sum(op.values(z_new, touched) - op.values(z_old, touched)))
    delta += float(lin @ dx) + float(lam @ (np.abs(new) - np.abs(old)))
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


def _draws(problem, sampler, coord_weights):
    """Endless (index set, GatherPlan row) pairs: one plan per sampler chunk,
    or in full mode (no sampler) one plan for the every-block set."""
    if sampler is None:
        full = np.arange(problem.num_blocks, dtype=np.int64)[None, :]
        yield from itertools.repeat(
            (full[0], GatherPlan(problem, full, coord_weights).row(0)))
    while True:
        chunk = sampler.draw_chunk()
        plan = GatherPlan(problem, chunk, coord_weights)
        for c in range(len(chunk)):
            yield chunk[c], plan.row(c)


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
    if not config.trace_stride >= 1:
        raise InputError("trace_stride must be >= 1")

    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.n,) or not np.all(np.isfinite(x0)):
        raise InputError("starting point must be a finite vector of length n")
    state = init_solver_state(problem, problem.project_domain(x0))

    num_blocks = problem.num_blocks
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
    # iterates of the trace rows whose mapping norms are not taken yet
    buf = np.empty((problem.chunk_rows, problem.n)) \
        if config.trace_mapping_norm else None
    pending = 0
    start = time.perf_counter()

    def flush():
        """Fill the buffered rows' norms in one stacked pass; the last row's
        elapsed time then includes the pass."""
        nonlocal pending
        norms = problem.mapping_norms(buf[:pending])
        trace.mapping_norms[-pending:] = norms.tolist()
        pending = 0
        trace.elapsed[-1] = time.perf_counter() - start

    def record(k, s_size):
        nonlocal pending
        trace.record(k, state.f_value, np.nan, s_size, time.perf_counter() - start)
        if buf is not None:
            buf[pending] = state.x
            pending += 1
            if pending == len(buf):
                flush()

    def mapping_norm():
        """The current iterate's norm, read from its trace row if it has one."""
        if buf is None or trace.ks[-1] != state.k:
            return problem.prox_grad_mapping(state.x)[1]
        if pending:
            flush()
        return trace.mapping_norms[-1]

    record(0, 0)
    converged = False
    status = "max-iters"
    draws = _draws(problem, sampler, problem.partition.expand(weights))
    while state.k < config.max_iters:
        idx, plan = next(draws)
        step(problem, state, idx, weights=weights, enforce_descent=enforce,
             plan=plan)
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
    if state.k > trace.ks[-1]:
        record(state.k, batch)
    if pending:
        flush()
    return SolveResult(x=state.x.copy(), objective=state.f_value, trace=trace,
                       converged=converged, status=status,
                       iterations=state.k,
                       coordinate_updates=state.coordinate_updates,
                       state=state)
