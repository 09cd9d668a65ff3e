"""Independent numerical oracles used by the test suite.

These deliberately avoid the closed forms under test: gradients come from
central differences, scalar proximal values from golden-section search,
tiny constrained quadratic programs from exhaustive active-set enumeration,
the two-variable error-bound LP from exhaustive vertex enumeration, the
reference optimum from plain proximal gradient and, on lasso, a duality gap,
the strong convexity modulus from a dense symmetric eigensolve,
the smooth part and the sampled step from a per-component evaluation that
keeps one cache per component, and the block incidence from a dense
component x block table filled one stored entry at a time.  The chunked
sampler and the run loop that gathers once per chunk are held against the
earlier one-call-per-draw sampler and per-draw step, kept here unchanged.
Each test writes
its per-component tuples itself; dense_operator turns them into the operator
under test, and the value, gradient and step oracles never read that
operator back.
"""

import itertools
import math

import numpy as np

from pbcd import regularizers as reg
from pbcd.errors import DescentViolationError, InputError
from pbcd.smooth import LOGISTIC, RESIDUAL, SmoothOperator
from pbcd.solver import (DESCENT_TOL, RECOMPUTE_STRIDE, SolveResult, Trace,
                         coordwise_weights, init_solver_state,
                         verify_and_refresh_caches)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def central_diff_gradient(func, x, scale=1e-6):
    """Central finite differences with per-coordinate step scale*(1+|x_i|)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        h = scale * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (func(xp) - func(xm)) / (2.0 * h)
    return g


def golden_minimize(func, lo, hi, width):
    """Golden-section search for the minimizer of a unimodal function."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = func(c), func(d)
    while b - a > width:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = func(d)
    return 0.5 * (a + b)


def scalar_prox_oracle(lam, lb, ub, v, w):
    """Minimize lam*|u| + w/2*(u-v)^2 over [lb, ub] by golden section.

    Two stages: a coarse pass on the raw objective, then a fine pass on the
    objective recentered at the coarse minimizer (rewritten so nearby values
    are computed without catastrophic cancellation), which pushes the
    localization error far below 1e-10.
    """
    span = abs(v) + lam / w + 10.0
    lo = lb if np.isfinite(lb) else -span
    hi = ub if np.isfinite(ub) else span
    if lo >= hi:
        return lo

    def phi(u):
        return lam * abs(u) + 0.5 * w * (u - v) ** 2

    u0 = golden_minimize(phi, lo, hi, 1e-6)

    def recentered(u):
        return lam * (abs(u) - abs(u0)) + 0.5 * w * (u - u0) * (u + u0 - 2.0 * v)

    lo2 = max(lo, u0 - 2e-6)
    hi2 = min(hi, u0 + 2e-6)
    return golden_minimize(recentered, lo2, hi2, 1e-13)


def dense_incidence(op, partition):
    """Component x block table: (j, i) is True when a row of component j has
    a stored entry of M (explicit zeros included) in a column of block i."""
    inc = np.zeros((op.num_components, partition.num_blocks), dtype=bool)
    mat = op.matrix
    for i in range(partition.num_blocks):
        for c in range(partition.offsets[i], partition.offsets[i + 1]):
            for k in range(mat.indptr[c], mat.indptr[c + 1]):
                inc[op.component[mat.indices[k]], i] = True
    return inc


def incidence_weights(inc, lipschitz):
    """w_i = sum of the constants of the components touching block i, added
    in component order."""
    return [sum(float(lipschitz[j]) for j in range(inc.shape[0]) if inc[j, i])
            for i in range(inc.shape[1])]


def all_subsets_of_size(n, k):
    return list(itertools.combinations(range(n), k))


def solve_tiny_qp(sigmas, centers, a_mat, rhs):
    """Exact minimizer of sum_j sigma_j/2 (u_j - c_j)^2 s.t. A u <= rhs.

    Exhaustive active-set enumeration; only for very small instances.
    Returns (u*, value*).
    """
    sig = np.asarray(sigmas, dtype=float)
    cen = np.asarray(centers, dtype=float)
    a_mat = np.asarray(a_mat, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    m = a_mat.shape[0]
    best = None
    for r in range(m + 1):
        for active in itertools.combinations(range(m), r):
            act = list(active)
            if act:
                a_k = a_mat[act]
                gram = a_k @ (a_k / sig).T
                try:
                    nu = np.linalg.solve(gram, a_k @ cen - rhs[act])
                except np.linalg.LinAlgError:
                    continue
                if np.any(nu < -1e-9):
                    continue
                u = cen - (a_k.T @ nu) / sig
            else:
                u = cen.copy()
            if np.any(a_mat @ u > rhs + 1e-9):
                continue
            val = 0.5 * float(sig @ (u - cen) ** 2)
            if best is None or val < best[1]:
                best = (u, val)
    return best



def min_sum_two_var_lp(a, b, c):
    """Minimize p + q over p, q >= 0 subject to a*p + b*q >= c (vectors).

    Exhaustive enumeration of the vertices: the origin, each row's axis
    intercepts and every pairwise intersection, kept when feasible to
    feas_tol.  O(m^2); a, b nonnegative.  Returns (p, q, feas_tol).
    """
    cands = [(0.0, 0.0)]
    pos_a = a > 0.0
    pos_b = b > 0.0
    cands.extend((ci / ai, 0.0) for ai, ci in zip(a[pos_a], c[pos_a]))
    cands.extend((0.0, ci / bi) for bi, ci in zip(b[pos_b], c[pos_b]))
    m = a.size
    for s in range(m):
        for t in range(s + 1, m):
            det = a[s] * b[t] - a[t] * b[s]
            scale = max(abs(a[s] * b[t]), abs(a[t] * b[s]), 1e-300)
            if abs(det) <= 1e-12 * scale:
                continue
            p = (c[s] * b[t] - c[t] * b[s]) / det
            q = (a[s] * c[t] - a[t] * c[s]) / det
            if p >= -1e-12 and q >= -1e-12:
                cands.append((max(p, 0.0), max(q, 0.0)))
    feas_tol = 1e-9 * max(1.0, float(np.max(c)) if c.size else 1.0)
    best = None
    for p, q in cands:
        if np.all(p * a + q * b >= c - feas_tol):
            if best is None or p + q < best[0] + best[1]:
                best = (p, q)
    if best is None:
        big = float(np.max(np.where(a > 0, c / np.maximum(a, 1e-300), 0.0)))
        best = (big, 0.0)
    return float(best[0]), float(best[1]), feas_tol

# -- per-component reference for the smooth part and the sampled step ---------
#
# Each smooth component is held as (family, dense rows x n matrix, per-row
# parameters, scale) and evaluated on its own, with the family formulas
# written out here independently of pbcd.smooth.

def component_value(kind, z, p, s):
    if kind == RESIDUAL:
        return float((z - p) @ (z - p)) / (2.0 * s)
    if kind == LOGISTIC:
        return float(np.sum(np.log1p(np.exp(-p * z)))) / s
    return float(z @ z) / (2.0 * s) - float(p @ z)


def component_deriv(kind, z, p, s):
    if kind == RESIDUAL:
        return (z - p) / s
    if kind == LOGISTIC:
        return -p / (1.0 + np.exp(p * z)) / s
    return z / s - p


def dense_operator(comps, lin):
    """SmoothOperator holding the nonzeros of per-component dense tuples
    (family, rows x n matrix, per-row parameters, scale), for building the
    problem under test from the same data the oracle reads."""
    mats = [np.atleast_2d(np.asarray(mat, dtype=float)) for _, mat, _, _ in comps]
    stacked, sizes = np.vstack(mats), [mat.shape[0] for mat in mats]
    rows, cols = np.nonzero(stacked)
    return SmoothOperator.from_entries(
        len(lin), rows, cols, stacked[rows, cols],
        np.repeat([c[0] for c in comps], sizes),
        np.concatenate([np.atleast_1d(c[2]) for c in comps]),
        np.repeat([float(c[3]) for c in comps], sizes),
        np.repeat(np.arange(len(comps)), sizes), lin)


def normalized_hessian_min_eig(comps, coord_weights):
    """Smallest eigenvalue, clipped to [0, 1], of the Hessian of residual and
    dual tuples scaled by the coordinate weights w on both sides:
    D^-1/2 (sum_j mat_j' mat_j / s_j) D^-1/2 with D = diag(w) and s_j the
    tuple's scale (sigma_j for a dual one), from a dense eigensolve."""
    n = len(coord_weights)
    hess = np.zeros((n, n))
    for kind, mat, _, s in comps:
        if kind == LOGISTIC:
            raise ValueError("logistic components have no constant Hessian")
        mat = np.atleast_2d(np.asarray(mat, dtype=float))
        hess += mat.T @ mat / float(s)
    scale = 1.0 / np.sqrt(np.asarray(coord_weights, dtype=float))
    low = np.linalg.eigvalsh(scale[:, None] * hess * scale[None, :])[0]
    return min(max(float(low), 0.0), 1.0)


def value_and_gradient(comps, lin, x):
    """Smooth value and gradient summed component by component."""
    value, grad = float(lin @ x), lin.copy()
    for kind, mat, p, s in comps:
        z = mat @ x
        value += component_value(kind, z, p, s)
        grad += mat.T @ component_deriv(kind, z, p, s)
    return value, grad


def run_component_oracle(comps, lin, reg, partition, weights, draws, x0):
    """The synchronous sampled step, one block and one component at a time.

    Every block in a draw takes its proximal step from the iteration-start
    component caches z_j = M_j x; then the updates are written, the caches
    advanced by their summed deltas, and F tracked incrementally.  Returns
    the final iterate and the objective after every iteration (first entry:
    the start).  `reg` is the (lam, lb, ub) triple of per-coordinate arrays.
    """
    lam, lb, ub = reg
    x = np.array(x0, dtype=float)
    touch = [[j for j, c in enumerate(comps)
              if np.any(c[1][:, partition.slice(i)] != 0.0)]
             for i in range(partition.num_blocks)]
    states = [mat @ x for _, mat, _, _ in comps]
    f = (sum(component_value(k, z, p, s) for (k, _, p, s), z in zip(comps, states))
         + float(lin @ x) + float(lam @ np.abs(x)))
    trace = [f]
    for idx in draws:
        updates = []
        for i in idx:
            sl = partition.slice(int(i))
            g = lin[sl].copy()
            for j in touch[i]:
                kind, mat, p, s = comps[j]
                g += mat[:, sl].T @ component_deriv(kind, states[j], p, s)
            w = weights[i]
            v = x[sl] - g / w
            new = np.sign(v) * np.maximum(np.abs(v) - lam[sl] / w, 0.0)
            updates.append((i, sl, np.clip(new, lb[sl], ub[sl])))
        deltas = {}
        for i, sl, new in updates:
            dx = new - x[sl]
            f += float(lin[sl] @ dx) + float(lam[sl] @ (np.abs(new) - np.abs(x[sl])))
            for j in touch[i]:
                deltas[j] = deltas.get(j, 0.0) + comps[j][1][:, sl] @ dx
            x[sl] = new
        for j in sorted(deltas):
            kind, _, p, s = comps[j]
            old = component_value(kind, states[j], p, s)
            states[j] = states[j] + deltas[j]
            f += component_value(kind, states[j], p, s) - old
        trace.append(f)
    return x, trace


def proximal_gradient_reference(problem, tol=1e-10, max_iters=500000, x0=None):
    """Deterministic full proximal-gradient solve to a tight mapping norm.

    Returns (x*, F*, converged).  Each iteration's candidate doubles as the
    next iterate, so the mapping norm is a free byproduct.  F* comes from
    problem.objective, the same function the solver starts from.
    """
    x = problem.project_domain(np.zeros(problem.n) if x0 is None
                               else np.asarray(x0, float))
    cw = problem.coord_weights
    converged = False
    for _ in range(max_iters):
        step_to = problem.prox(x - problem.smooth_gradient(x) / cw)
        gap = x - step_to
        x = step_to
        if np.sqrt(float((cw * gap) @ gap)) <= tol:
            converged = True
            break
    return x, float(problem.objective(x)), converged


def lasso_duality_gap(mat, rhs, scale, lam, x):
    """Duality gap F(x) - D(u) of sum_r (Mx - p)_r^2 / (2 s_r) + sum_c lam_c |x_c|.

    The dual point is u = (Mx - p) / s, rescaled by min(1, min_c lam_c /
    |M'u|_c) into the dual feasible set |M'u|_c <= lam_c, and D(u) =
    -sum_r (s_r u_r^2 / 2 + p_r u_r).  By weak duality the gap bounds
    F(x) - F* from above.  Dense `mat`; scale and lam broadcast.
    """
    mat = np.asarray(mat, dtype=float)
    resid = mat @ x - rhs
    scale = np.broadcast_to(np.asarray(scale, dtype=float), resid.shape)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), x.shape)
    u = resid / scale
    corr = np.abs(mat.T @ u)
    ratio = np.divide(lam, corr, out=np.full(x.shape, np.inf), where=corr > 0.0)
    u = u * min(1.0, float(ratio.min()))
    primal = float(np.sum(resid * resid / (2.0 * scale)) + lam @ np.abs(x))
    dual = -float(np.sum(scale * u * u / 2.0 + rhs * u))
    return primal - dual


# -- one draw at a time --------------------------------------------------------
#
# The sampler, step and run loop as they were before draws came in chunks and
# a step's gather was planned once per chunk: one rng.integers call or one
# permutation slice per draw, and one SmoothOperator.columns call per step.

class PerCallSampler:
    """BlockSampler with one generator call per uniform-subset draw."""

    def __init__(self, config, num_blocks):
        self.config = config
        self.num_blocks = num_blocks
        self._rng = np.random.Generator(np.random.Philox(config.seed))
        self._perm = np.arange(num_blocks, dtype=np.int64)
        self._cell = 0

    def draw(self):
        tau = self.config.batch_size
        n = self.num_blocks
        if self.config.scheme == "uniform-subset":
            ranks = self._rng.integers(np.arange(tau), n).tolist()
            moved, out = {}, []
            for t, r in enumerate(ranks):
                out.append(moved.get(r, r))
                moved[r] = moved.get(t, t)
            return np.sort(np.array(out, dtype=np.int64))
        if self._cell == 0:
            self._rng.shuffle(self._perm)
        out = np.sort(self._perm[self._cell * tau:(self._cell + 1) * tau].copy())
        self._cell = (self._cell + 1) % (n // tau)
        return out


def per_draw_step(problem, state, idx, weights=None, enforce_descent=True):
    """One sampled step that gathers M[:, S] and the step data on every call."""
    idx = np.asarray(idx, dtype=np.int64).ravel()
    if idx.size == 0:
        return state
    if int(idx.min()) < 0 or int(idx.max()) >= problem.num_blocks:
        raise InputError("block index out of range in update set")
    wdiag = problem.weights if weights is None else weights
    part, op = problem.partition, problem.smooth
    cols = part.coords(idx)
    rows, vals, local = op.columns(cols)
    g = np.bincount(local, weights=vals * op.derivs(state.z[rows], rows),
                    minlength=cols.size)
    g = g + op.lin[cols]
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


def per_draw_run(problem, config, x0):
    """pbcd.solver.run's loop over PerCallSampler draws and per_draw_step
    (a valid config assumed)."""
    state = init_solver_state(problem, problem.project_domain(x0))
    num_blocks = problem.num_blocks
    full_set = np.arange(num_blocks, dtype=np.int64)
    if config.mode == "full":
        sampler = None
        batch = num_blocks
    else:
        sampler = PerCallSampler(config.sampler, num_blocks)
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

    def mapping_norm():
        return problem.prox_grad_mapping(state.x)[1]

    def record(k, s_size):
        g = mapping_norm() if config.trace_mapping_norm else np.nan
        trace.record(k, state.f_value, g, s_size, 0.0)

    record(0, 0)
    converged = False
    status = "max-iters"
    while state.k < config.max_iters:
        idx = full_set if sampler is None else sampler.draw()
        per_draw_step(problem, state, idx, weights=weights, enforce_descent=enforce)
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
