"""Evaluates the solver's theoretical rate guarantees and error-bound diagnostics.

All quantities live in the weighted norm induced by the problem's per-block
step weights.  A RateBundle collects the scalars the guarantees consume:

* radius        -- bound on the weighted distance from the initial sublevel
                   set to the optimal set (in practice the surrogate
                   ||x0 - x*||_w from a reference solve)
* initial_gap   -- F(x0) - F*
* strong_convexity -- modulus of the smooth part in the weighted norm
                   (at most 1, since the weighted gradient Lipschitz
                   constant is 1 by construction)
* eb_const / eb_quad -- generalized error bound coefficients: the distance
                   to the optimal set is bounded by
                   (eb_const + eb_quad * distance^2) * residual-mapping norm.

The generalized error bound extends the classical single-constant bound;
strongly convex smooth parts satisfy it with eb_const = 2 / strong_convexity
and eb_quad = 0.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ErrorBoundWitnessError, InputError
from .smooth import LOGISTIC


@dataclass(frozen=True)
class RateBundle:
    num_blocks: int
    batch_size: int
    radius: float = None
    initial_gap: float = None
    strong_convexity: float = None
    eb_const: float = None
    eb_quad: float = None

    def __post_init__(self):
        if not 1 <= self.batch_size <= self.num_blocks:
            raise InputError("batch size must lie in [1, num_blocks]")
        for name in ("radius", "initial_gap"):
            v = getattr(self, name)
            if v is not None and not (v >= 0.0 and np.isfinite(v)):
                raise InputError(f"{name} must be finite and >= 0")


def sublinear_gap_bound(bundle, k):
    """Expected-gap bound after k iterations under convexity alone:

        num_blocks * (radius^2 / 2 + initial_gap) / (batch * k + num_blocks).
    """
    if bundle.radius is None or bundle.initial_gap is None:
        raise InputError("sublinear bound needs radius and initial_gap")
    if k < 0:
        raise InputError("iteration count must be >= 0")
    n_b = bundle.num_blocks
    return n_b * (0.5 * bundle.radius ** 2 + bundle.initial_gap) \
        / (bundle.batch_size * k + n_b)


def _sublinear_confidence_rhs(bundle, eps, rho):
    ratio = bundle.num_blocks / bundle.batch_size
    c = 2.0 * ratio * max(bundle.radius ** 2, bundle.initial_gap)
    log_arg = ratio * (bundle.radius ** 2 + 2.0 * bundle.initial_gap) \
        / (4.0 * c * rho)
    return (c / eps) * (1.0 + math.log(log_arg)) + 2.0 - bundle.num_blocks


def _check_confidence_args(bundle, eps, rho):
    if bundle.initial_gap is None:
        raise InputError("confidence iteration counts need initial_gap")
    if not 0.0 < rho < 1.0:
        raise InputError("confidence level rho must lie in (0, 1)")
    if not eps > 0.0:
        raise InputError("suboptimality eps must be > 0")
    if eps >= bundle.initial_gap:
        raise InputError("suboptimality eps must be smaller than the initial gap")


def iters_to_confidence_sublinear(bundle, eps, rho):
    """Iterations guaranteeing an eps-suboptimal iterate with probability 1-rho
    under convexity alone (smallest integer at or above the bound)."""
    if bundle.radius is None:
        raise InputError("confidence iteration count needs radius")
    _check_confidence_args(bundle, eps, rho)
    return max(0, math.ceil(_sublinear_confidence_rhs(bundle, eps, rho)))


def linear_rate_strongly_convex(bundle):
    """Per-iteration expected-gap contraction factor under strong convexity:
    1 - batch * strong_convexity / num_blocks."""
    s = bundle.strong_convexity
    if s is None:
        raise InputError("strongly convex rate needs the strong convexity modulus")
    if not 0.0 < s <= 1.0:
        raise InputError("strong convexity modulus must lie in (0, 1]")
    return 1.0 - bundle.batch_size * s / bundle.num_blocks


def error_bound_chain(bundle):
    """Intermediate constants of the linear rate under the generalized
    error bound; returns (coupling, c1, c2, c3, contraction)."""
    k1, k2 = bundle.eb_const, bundle.eb_quad
    if k1 is None or k2 is None:
        raise InputError("error-bound rate needs both coefficients")
    if k1 < 0.0 or k2 < 0.0:
        raise InputError("error-bound coefficients must be >= 0")
    if k1 == 0.0 and k2 == 0.0:
        raise InputError("error-bound coefficients cannot both be zero")
    if k2 > 0.0 and bundle.radius is None:
        raise InputError("quadratic error-bound coefficient needs radius")
    r_sq = 0.0 if k2 == 0.0 else bundle.radius ** 2
    ratio = bundle.num_blocks / bundle.batch_size
    coupling = (k1 + k2 * r_sq) * math.sqrt(ratio)
    c1 = 1.0 + coupling
    c2 = c1 + 0.5 * (1.0 - 1.0 / ratio) * coupling ** 2 \
        + coupling * math.sqrt(1.0 / ratio)
    c3 = ratio * (2.0 * c2 + (1.0 - 1.0 / ratio))
    return coupling, c1, c2, c3, c3 / (1.0 + c3)


def linear_rate_error_bound(bundle):
    """Per-iteration expected-gap contraction factor under the generalized
    error bound; always in (0, 1)."""
    return error_bound_chain(bundle)[-1]


def iters_to_confidence_error_bound(bundle, eps, rho):
    """Iterations guaranteeing an eps-suboptimal iterate with probability
    1-rho under the generalized error bound."""
    _check_confidence_args(bundle, eps, rho)
    theta = linear_rate_error_bound(bundle)
    rhs = math.log(bundle.initial_gap / (eps * rho)) / (1.0 - theta)
    return max(0, math.ceil(rhs))


def bundle_from_reference(problem, x0, xstar, fstar, batch_size, **extra):
    """RateBundle with the distance surrogate ||x0 - x*||_w and measured gap."""
    x0 = np.asarray(x0, dtype=float)
    radius = problem.norm_w(x0 - xstar)
    gap = problem.objective(x0) - fstar
    return RateBundle(num_blocks=problem.num_blocks, batch_size=batch_size,
                      radius=radius, initial_gap=max(gap, 0.0), **extra)


# -- strong convexity estimation ---------------------------------------------


def estimate_strong_convexity(problem, tol=1e-12, max_iters=500):
    """Smallest eigenvalue of the weighted-normalized Hessian for quadratic
    smooth parts, by inverse power iteration.

    Non-quadratic components have no constant Hessian; supply the modulus
    explicitly for those problems.  Returns 0.0 when the Hessian is
    numerically singular (not strongly convex).
    """
    n = problem.n
    op = problem.smooth
    if np.any(op.family == LOGISTIC):
        raise InputError(
            "strong convexity estimation supports quadratic smooth parts "
            "only; supply the modulus for logistic problems")
    # residual and dual rows both have phi'' = 1 / scale, so the normalized
    # Hessian is B'B with B = diag(scale)^-1/2 M diag(w)^-1/2; building B
    # and its Gram directly needs no separate Hessian or scaled copies
    mat = op.matrix
    dense = np.zeros(mat.shape)
    dense[mat.indices, op.entry_cols] = mat.data / np.sqrt(
        op.scale[mat.indices] * problem.coord_weights[op.entry_cols])
    m = dense.T @ dense
    del dense
    try:
        factor = scipy.linalg.cho_factor(m)
    except scipy.linalg.LinAlgError:
        return 0.0
    v = np.ones(n) / math.sqrt(n)
    lam = float(v @ (m @ v))
    for _ in range(max_iters):
        y = scipy.linalg.cho_solve(factor, v)
        nrm = np.linalg.norm(y)
        if not np.isfinite(nrm) or nrm == 0.0:
            return 0.0
        v = y / nrm
        new_lam = float(v @ (m @ v))
        if abs(new_lam - lam) <= tol * max(1.0, abs(new_lam)):
            lam = new_lam
            break
        lam = new_lam
    return float(min(max(lam, 0.0), 1.0))


# -- generalized error bound fitting ------------------------------------------


@dataclass(frozen=True)
class ErrorBoundFit:
    """Fitted error-bound coefficients over a sample of points.

    max_violation is the largest signed slack of
    distance - (const + quad * distance^2) * residual_norm over the samples;
    nonpositive (up to rounding) when the fit succeeded.
    """

    const_coeff: float
    quad_coeff: float
    max_violation: float
    distances: np.ndarray
    residual_norms: np.ndarray

    @property
    def classical_ratios(self):
        """distance / residual-norm per sample (inf where the residual is 0)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.residual_norms > 0.0,
                            self.distances / self.residual_norms, np.inf)


def _min_sum_two_var_lp(a, b, c):
    """Minimize p + q over p, q >= 0 subject to a*p + b*q >= c (vectors).

    Exact constraint-intersection enumeration; a, b are nonnegative so the
    feasible set is nonempty and the optimum is attained at a vertex.
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
        # unreachable for nonnegative data; guard with a generous cover
        big = float(np.max(np.where(a > 0, c / np.maximum(a, 1e-300), 0.0)))
        best = (big, 0.0)
    return best


def fit_error_bound_constants(problem, minimizer, points, zero_tol=1e-12):
    """Fit the smallest-sum error-bound coefficients over sample points.

    Parameters
    ----------
    minimizer : array or callable
        The unique minimizer (strongly convex case) or a callable returning
        the weighted-norm projection of a point onto the optimal set.
    points : iterable of vectors

    Raises ErrorBoundWitnessError when a sample has zero residual mapping
    but positive distance to the optimal set (no error bound can hold).
    """
    project = minimizer if callable(minimizer) \
        else (lambda _x, m=np.asarray(minimizer, dtype=float): m)
    dists, gnorms, witnesses = [], [], []
    for idx, x in enumerate(points):
        x = np.asarray(x, dtype=float)
        _, gnorm = problem.prox_grad_mapping(x)
        d = problem.norm_w(x - project(x))
        if gnorm <= zero_tol * (1.0 + d) and d > 1e-9:
            witnesses.append((idx, d, gnorm))
        dists.append(d)
        gnorms.append(gnorm)
    if witnesses:
        raise ErrorBoundWitnessError(
            f"{len(witnesses)} sample(s) have zero residual mapping but "
            "positive distance to the optimal set", witnesses=witnesses)
    d = np.asarray(dists)
    g = np.asarray(gnorms)
    keep = g > 0.0
    const_c, quad_c = _min_sum_two_var_lp(g[keep], d[keep] ** 2 * g[keep], d[keep])
    violation = d - (const_c + quad_c * d ** 2) * g
    return ErrorBoundFit(const_coeff=float(const_c), quad_coeff=float(quad_c),
                         max_violation=float(np.max(violation)) if d.size else 0.0,
                         distances=d, residual_norms=g)
