"""Correctness checks computed from the raw generated data.

Nothing here calls a pbcd evaluation path: each model below rebuilds the
objective, gradient, step weights and proximal map from the raw matrix and
vectors with numpy and scipy.  Every check returns a list of error strings;
an empty list means the output passed.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog, minimize
from scipy.special import expit

# Relative tolerances, each set well above floating-point noise and well
# below the perturbations the self-tests apply.
KKT_TOL = 1e-7            # l1 KKT residual, in gradient units times max(1, lam)
VALUE_RTOL = 1e-11        # objective recomputed at the reference point
CACHE_RTOL = 1e-9         # reported objective against the raw recomputation
DESCENT_RTOL = 1e-10      # allowed rise between consecutive trace entries
CERT_RTOL = 1e-7          # primal-recovery certificate
FIT_RTOL = 1e-7           # error-bound coefficients against the LP
BOUND_RTOL = 1e-9         # rate-bound values against the closed forms


def _soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


class RawModel:
    """Composite objective rebuilt from raw data.

    Subclasses set `n`, `lam` (l1 weight), `w` (per-coordinate step weights,
    the sum of the Lipschitz constants of the components touching each
    block) and implement `smooth`, `grad` and `project`.
    """

    lam = 0.0

    def value(self, x):
        return self.smooth(x) + self.lam * float(np.abs(x).sum())

    def prox(self, v):
        return self.project(_soft(v, self.lam / self.w))

    def mapping_norm(self, x):
        m = x - self.prox(x - self.grad(x) / self.w)
        return math.sqrt(float((self.w * m) @ m))

    def norm_w(self, x):
        return math.sqrt(float((self.w * x) @ x))

    def project(self, x):
        return x


def _block_weights(pattern_rows, lipschitz, block_size):
    """Per-coordinate weights from a component x column incidence pattern."""
    cols = pattern_rows.tocoo()
    nb = -(-pattern_rows.shape[1] // block_size)
    touch = sp.csr_matrix((np.ones(cols.nnz), (cols.row, cols.col // block_size)),
                          shape=(pattern_rows.shape[0], nb))
    touch.data[:] = 1.0          # duplicates summed above; incidence is 0/1
    per_block = touch.T @ lipschitz
    return np.repeat(per_block, block_size)[:pattern_rows.shape[1]]


class LassoModel(RawModel):
    """0.5 ||A x - b||^2 + lam ||x||_1, one component per row of A."""

    def __init__(self, rows, cols, vals, shape, b, lam, block_size=1):
        self.A = sp.csr_matrix((vals, (rows, cols)), shape=shape)
        self.b = np.asarray(b, float)
        self.lam = float(lam)
        self.n = shape[1]
        lip = np.asarray(self.A.multiply(self.A).sum(axis=1)).ravel()
        self.w = _block_weights(self.A, lip, block_size)

    def smooth(self, x):
        r = self.A @ x - self.b
        return 0.5 * float(r @ r)

    def grad(self, x):
        return self.A.T @ (self.A @ x - self.b)

    def hessian(self):
        dense = self.A.toarray()
        return dense.T @ dense


class LogisticModel(RawModel):
    """(1/m) sum_j log(1 + exp(-y_j a_j'x)) + lam ||x||_1."""

    def __init__(self, rows, cols, vals, shape, y, lam, block_size=1):
        self.A = sp.csr_matrix((vals, (rows, cols)), shape=shape)
        self.y = np.asarray(y, float)
        self.m = shape[0]
        self.lam = float(lam)
        self.n = shape[1]
        lip = np.asarray(self.A.multiply(self.A).sum(axis=1)).ravel() / (4.0 * self.m)
        self.w = _block_weights(self.A, lip, block_size)

    def smooth(self, x):
        return float(np.logaddexp(0.0, -self.y * (self.A @ x)).sum()) / self.m

    def grad(self, x):
        return -(self.A.T @ (self.y * expit(-self.y * (self.A @ x)))) / self.m

    def lam_max(self):
        """Smallest l1 weight at which x = 0 is optimal."""
        return float(np.max(np.abs(self.grad(np.zeros(self.n)))))


class DualModel(RawModel):
    """Dual of  min sum_j sigma_j/2 ||u_j - c_j||^2  s.t.  A u <= rhs, over x >= 0.

    `parts[j]` lists the columns of A that belong to primal part j.
    """

    def __init__(self, dense, rhs, sigmas, centers, parts):
        self.A = np.asarray(dense, float)
        self.rhs = np.asarray(rhs, float)
        self.parts = [np.asarray(p) for p in parts]
        self.sig = np.concatenate([np.full(p.size, s) for p, s in zip(self.parts, sigmas)])
        self.cen = np.concatenate([np.atleast_1d(c) for c in centers])
        self.n = self.A.shape[0]
        self.w = np.zeros(self.n)
        for p, s in zip(self.parts, sigmas):
            block = self.A[:, p]
            lip = np.linalg.norm(block, 2) ** 2 / s
            self.w[np.any(block != 0.0, axis=1)] += lip

    def smooth(self, x):
        z = self.A.T @ x
        return float(z @ (z / self.sig)) / 2.0 - float(self.cen @ z) + float(self.rhs @ x)

    def grad(self, x):
        return self.A @ (self.A.T @ x / self.sig - self.cen) + self.rhs

    def project(self, x):
        return np.maximum(x, 0.0)

    def hessian(self):
        return self.A @ (self.A.T / self.sig[:, None])

    def min_value(self):
        """Independent bounded QP solve: minimize over x >= 0."""
        res = minimize(self.value, np.zeros(self.n), jac=self.grad,
                       method="L-BFGS-B", bounds=[(0.0, None)] * self.n,
                       options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10000})
        return float(res.fun)


# -- checks ---------------------------------------------------------------------


def kkt_l1(model, x):
    """l1 KKT conditions: grad_i = -lam sign(x_i) on the support, |grad_i| <= lam off it."""
    g = model.grad(x)
    tol = KKT_TOL * max(1.0, model.lam)
    on = x != 0.0
    worst_on = float(np.max(np.abs(g[on] + model.lam * np.sign(x[on])), initial=0.0))
    worst_off = float(np.max(np.abs(g[~on]) - model.lam, initial=-np.inf))
    errors = []
    if worst_on > tol:
        errors.append(f"KKT: support residual {worst_on:.3e} > {tol:.1e}")
    if worst_off > tol:
        errors.append(f"KKT: off-support |grad| exceeds lam by {worst_off:.3e}")
    return errors


def reference_value(model, x, fstar):
    """The reported optimal value equals the objective recomputed at x*."""
    f = model.value(x)
    if abs(f - fstar) > VALUE_RTOL * max(1.0, abs(f)):
        return [f"F* {fstar!r} differs from recomputed F(x*) {f!r}"]
    return []


def cell_result(model, x, reported, fstar, gap0, gap_rtol):
    """Final objective agrees with the raw recomputation, is not below F*, and
    (unless gap_rtol is None, for fixed-iteration cells) is within tolerance."""
    f = model.value(x)
    errors = []
    if abs(f - reported) > CACHE_RTOL * max(1.0, abs(f)):
        errors.append(f"reported objective {reported!r} != recomputed {f!r}")
    slack = CACHE_RTOL * max(1.0, abs(fstar))
    if f < fstar - slack:
        errors.append(f"objective {f!r} below F* {fstar!r}")
    if gap_rtol is not None and f - fstar > gap_rtol * gap0 + slack:
        errors.append(f"final gap {f - fstar:.3e} above {gap_rtol:g} x initial gap {gap0:.3e}")
    return errors


def monotone(objectives):
    """A descent-guaranteed trace never increases."""
    f = np.asarray(objectives, float)
    rise = np.diff(f) - DESCENT_RTOL * (1.0 + np.abs(f[:-1]))
    if rise.size and float(rise.max()) > 0.0:
        k = int(rise.argmax())
        return [f"trace rises at entry {k + 1}: {f[k]!r} -> {f[k + 1]!r}"]
    return []


def dual_certificate(model, x, fstar):
    """Primal recovery from multipliers: feasibility, complementary slackness, zero gap."""
    u = model.cen - (model.A.T @ x) / model.sig
    primal = 0.5 * float(model.sig @ (u - model.cen) ** 2)
    slack = model.rhs - model.A @ u
    tol = CERT_RTOL * max(1.0, abs(fstar))
    errors = []
    if float(x.min()) < 0.0:
        errors.append(f"negative multiplier {float(x.min())!r}")
    if float(-slack.min()) > tol:
        errors.append(f"recovered primal violates a constraint by {float(-slack.min()):.3e}")
    if abs(float(x @ slack)) > tol:
        errors.append(f"complementary slackness {float(x @ slack):.3e}")
    if abs(primal + fstar) > tol:
        errors.append(f"duality gap {primal + fstar:.3e}")
    return errors


def error_bound_fit(model, xstar, points, fit):
    """Distances and residuals match, the coefficients solve the LP, no sample is violated."""
    d = np.array([model.norm_w(p - xstar) for p in points])
    g = np.array([model.mapping_norm(p) for p in points])
    errors = []
    for label, mine, theirs in (("distance", d, fit.distances),
                                ("residual", g, fit.residual_norms)):
        if not np.allclose(theirs, mine, rtol=1e-8, atol=1e-12):
            errors.append(f"{label} norms differ from the raw recomputation")
    keep = g > 0.0
    lp = linprog([1.0, 1.0], A_ub=-np.column_stack([g[keep], d[keep] ** 2 * g[keep]]),
                 b_ub=-d[keep], bounds=[(0.0, None)] * 2, method="highs")
    if lp.status != 0:
        return errors + [f"reference LP failed: {lp.message}"]
    for label, mine, theirs in (("const", lp.x[0], fit.const_coeff),
                                ("quad", lp.x[1], fit.quad_coeff)):
        if abs(mine - theirs) > FIT_RTOL * max(1.0, abs(mine)):
            errors.append(f"{label} coefficient {theirs!r} != LP optimum {mine!r}")
    worst = float(np.max(d - (fit.const_coeff + fit.quad_coeff * d ** 2) * g))
    if worst > 1e-8 * max(1.0, float(d.max())):
        errors.append(f"fitted bound violated by {worst:.3e}")
    return errors


def strong_convexity(model, value):
    """Smallest eigenvalue of the weight-normalized Hessian, clipped to [0, 1]."""
    scale = 1.0 / np.sqrt(model.w)
    m = model.hessian() * scale[:, None] * scale[None, :]
    expected = min(max(float(np.linalg.eigvalsh(0.5 * (m + m.T))[0]), 0.0), 1.0)
    if abs(value - expected) > 1e-4 * expected + 1e-10:
        return [f"strong convexity {value!r} != eigenvalue {expected!r}"]
    return []


def closed_form_bounds(num_blocks, batch, radius, gap0, eps, rho, ks,
                       strong=None, eb=None):
    """The rate bounds, written out from their formulas.

    Returns a dict of floats (and real-valued iteration counts, before the
    ceiling) keyed like the values the benchmark reads from pbcd.analysis.
    """
    nb, tau = float(num_blocks), float(batch)
    ratio = nb / tau
    out = {f"sublinear@{k}": nb * (0.5 * radius ** 2 + gap0) / (tau * k + nb) for k in ks}
    c = 2.0 * ratio * max(radius ** 2, gap0)
    log_arg = ratio * (radius ** 2 + 2.0 * gap0) / (4.0 * c * rho)
    out["iters_sublinear"] = (c / eps) * (1.0 + math.log(log_arg)) + 2.0 - nb
    if strong is not None:
        out["linear_strongly_convex"] = 1.0 - tau * strong / nb
    if eb is not None:
        k1, k2 = eb
        kappa = (k1 + (k2 * radius ** 2 if k2 else 0.0)) * math.sqrt(ratio)
        c1 = 1.0 + kappa
        c2 = c1 + 0.5 * (1.0 - 1.0 / ratio) * kappa ** 2 + kappa * math.sqrt(1.0 / ratio)
        c3 = ratio * (2.0 * c2 + (1.0 - 1.0 / ratio))
        theta = c3 / (1.0 + c3)
        out.update({"eb_coupling": kappa, "eb_c1": c1, "eb_c2": c2, "eb_c3": c3,
                    "eb_theta": theta,
                    "iters_error_bound": math.log(gap0 / (eps * rho)) / (1.0 - theta)})
    return out


def bounds_match(program, expected):
    """Each program value equals its closed form; iteration counts are ceilings."""
    errors = []
    for key, want in expected.items():
        got = program.get(key)
        if key.startswith("iters_"):
            ceil = max(0, math.ceil(want))
            near = abs(want - round(want)) <= 1e-6 * max(1.0, abs(want))
            ok = got == ceil or (near and got in (ceil - 1, ceil + 1))
        else:
            ok = got is not None and abs(got - want) <= BOUND_RTOL * max(1e-300, abs(want))
        if not ok:
            errors.append(f"bound {key}: program {got!r}, closed form {want!r}")
    return errors
