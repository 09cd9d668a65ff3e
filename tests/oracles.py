"""Independent numerical oracles used by the test suite.

These deliberately avoid the closed forms under test: gradients come from
central differences, scalar proximal values from golden-section search,
tiny constrained quadratic programs from exhaustive active-set enumeration,
the strong convexity modulus from a dense symmetric eigensolve,
the smooth part and the sampled step from a per-component evaluation that
keeps one cache per component, and the block incidence from a dense
component x block table filled one stored entry at a time.  Each test writes
its per-component tuples itself; dense_operator turns them into the operator
under test, and the value, gradient and step oracles never read that
operator back.
"""

import itertools
import math

import numpy as np

from pbcd.smooth import LOGISTIC, RESIDUAL, SmoothOperator

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
