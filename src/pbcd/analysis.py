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

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


def estimate_strong_convexity(problem):
    """Smallest eigenvalue of the weighted-normalized Hessian for quadratic
    smooth parts, clipped to [0, 1].

    Residual and dual rows both have phi'' = 1 / scale, so the normalized
    Hessian is B'B with B = diag(scale)^-1/2 M diag(w)^-1/2.  Returns 0.0
    (not strongly convex) without forming it when the structural rank of M,
    an upper bound on rank(B'B), is below n; every M with fewer rows than
    columns is such a case.  Otherwise B shares M's sparsity pattern, its
    Gram comes from one sparse product, and a dense symmetric eigensolve
    gives its spectrum; a smallest eigenvalue within rounding of zero
    (at most n * eps * the largest) also returns 0.0.

    Non-quadratic components have no constant Hessian; supply the modulus
    explicitly for those problems.
    """
    n = problem.n
    op = problem.smooth
    if np.any(op.family == LOGISTIC):
        raise InputError(
            "strong convexity estimation supports quadratic smooth parts "
            "only; supply the modulus for logistic problems")
    # imported here: csgraph adds about 2 MB resident to every process
    # that imports pbcd, and only this estimate needs it
    from scipy.sparse.csgraph import structural_rank

    mat = op.matrix
    if structural_rank(mat) < n:
        return 0.0
    scaled = mat.data / np.sqrt(op.scale[mat.indices]
                                * problem.coord_weights[op.entry_cols])
    b = sp.csc_matrix((scaled, mat.indices, mat.indptr), shape=mat.shape)
    eig = np.linalg.eigvalsh((b.T @ b).toarray())
    if eig[0] <= n * np.finfo(float).eps * eig[-1]:
        return 0.0
    return float(min(eig[0], 1.0))


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

    Exact in O(m log m) for nonnegative a, b.  Rows with c <= 0 hold at the
    origin and drop out; rows with b = 0 bound p below by p_lo = max c / a.
    Every other row is the line q >= (c - a p) / b, and the upper envelope
    E of those lines and q >= 0 is convex and nonincreasing, so p + E(p) is
    smallest at the first p >= 0 where E's slope reaches -1, or at p_lo if
    that is larger.  The envelope is one monotone stack over the lines
    sorted by slope.  q is then E(p), the largest (c - a p) / b over the
    rows of slope >= -1, taken directly at p rather than from the vertex.
    """
    pos = c > 0.0
    a, b, c = a[pos], b[pos], c[pos]
    if c.size == 0:
        return 0.0, 0.0
    on_p = b == 0.0
    if np.any(on_p & (a == 0.0)):
        # no (p, q) covers c > 0 with a = b = 0; return a generous cover
        return float(np.max(np.where(a > 0, c / np.maximum(a, 1e-300), 0.0))), 0.0
    p_lo = float(np.max(c[on_p] / a[on_p])) if on_p.any() else 0.0
    # the lines, then q >= 0 as the row (0, 1, 0)
    line = ~on_p
    a, b, c = np.r_[a[line], 0.0], np.r_[b[line], 1.0], np.r_[c[line], 0.0]
    slope, icept = -a / b, c / b
    order = np.lexsort((icept, slope))
    # of lines with one slope only the highest can reach the envelope
    order = order[np.r_[slope[order[1:]] != slope[order[:-1]], True]]
    sl, ic = slope.tolist(), icept.tolist()
    hull = []
    for k in order.tolist():
        # drop the top line while line k overtakes the one below it no
        # later than the top line does
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (ic[i] - ic[k]) * (sl[j] - sl[i]) > (ic[i] - ic[j]) * (sl[k] - sl[i]):
                break
            hull.pop()
        hull.append(k)
    # slopes rise along the hull and end at 0, so some line has slope >= -1;
    # the breakpoint before it is the vertex of two rows, by Cramer's rule
    at = next(n for n, k in enumerate(hull) if sl[k] >= -1.0)
    p_break = 0.0
    if at:
        i, j = hull[at - 1], hull[at]
        p_break = max(0.0, float((c[i] * b[j] - c[j] * b[i])
                                 / (a[i] * b[j] - a[j] * b[i])))
    p = max(p_lo, p_break)
    # past the breakpoint E is the largest line of slope >= -1 (the zero row
    # among them); a steeper line lies below it there, and evaluated at the
    # rounded p it would scale p's rounding error by its slope
    flat = slope >= -1.0
    return p, float(np.max((c[flat] - a[flat] * p) / b[flat]))


def fit_error_bound_constants(problem, minimizer, points, zero_tol=1e-12):
    """Fit the smallest-sum error-bound coefficients over sample points.

    Parameters
    ----------
    minimizer : array or callable
        The unique minimizer (strongly convex case) or a callable returning
        the weighted-norm projection of a point onto the optimal set.
    points : iterable of vectors, read once and lazily (a generator works)

    Cost and memory for k points: points are read problem.chunk_rows at a
    time, and each chunk's residual mapping norms come from one stacked
    problem.mapping_norms pass, so ceil(k / chunk_rows) gradient
    evaluations in all, plus one projection and one weighted norm per point
    for its distance.  The coefficients then solve the two-variable LP
    exactly in O(k log k).  Memory is one chunk of points and its pass's
    temporaries, O(CHUNK_ELEMENTS) (see pbcd.problem), plus O(k) for the
    distances and norms; the points are never held all at once.

    Raises ErrorBoundWitnessError when a sample has zero residual mapping
    but positive distance to the optimal set (no error bound can hold).
    """
    project = minimizer if callable(minimizer) \
        else (lambda _x, m=np.asarray(minimizer, dtype=float): m)
    n = problem.n
    points = iter(points)
    dists, gnorms = [], []
    while chunk := [np.asarray(x, dtype=float)
                    for x in itertools.islice(points, problem.chunk_rows)]:
        for x in chunk:
            if x.shape != (n,) or not np.all(np.isfinite(x)):
                raise InputError(f"sample point {len(dists)} is not a finite "
                                 f"vector of length {n}")
            dists.append(problem.norm_w(x - project(x)))
        gnorms.extend(problem.mapping_norms(np.array(chunk)).tolist())
    d = np.asarray(dists)
    g = np.asarray(gnorms)
    witnesses = [(int(i), float(d[i]), float(g[i])) for i in
                 np.flatnonzero((g <= zero_tol * (1.0 + d)) & (d > 1e-9))]
    if witnesses:
        raise ErrorBoundWitnessError(
            f"{len(witnesses)} sample(s) have zero residual mapping but "
            "positive distance to the optimal set", witnesses=witnesses)
    keep = g > 0.0
    const_c, quad_c = _min_sum_two_var_lp(g[keep], d[keep] ** 2 * g[keep], d[keep])
    violation = d - (const_c + quad_c * d ** 2) * g
    return ErrorBoundFit(const_coeff=float(const_c), quad_coeff=float(quad_c),
                         max_violation=float(np.max(violation)) if d.size else 0.0,
                         distances=d, residual_norms=g)
