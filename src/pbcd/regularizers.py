"""Separable regularizers and their exact proximal maps in the weighted norm.

Every supported regularizer is "l1 weight plus box" on each coordinate,

    psi_c(u) = lam_c * |u| + indicator(lb_c <= u <= ub_c),

so a problem stores its regularizer as three per-coordinate arrays (which
pbcd.problem.CompositeProblem validates) and the prox of the full vector
splits into independent scalar problems

    min_u  psi_c(u) + w/2 * (u - v)^2,

all solved in closed form: soft-threshold at lam/w, then clamp to [lb, ub].
That composition is exact for separable one-dimensional problems: the
unconstrained minimizer of the convex function psi(u) + w/2 (u-v)^2 is the
soft-threshold value, and clipping a one-dimensional convex function's
minimizer into an interval yields the constrained minimizer because the
function is nonincreasing left of the minimizer and nondecreasing right of
it.  Ties at the threshold boundary (|v| == lam/w) map to 0.  A plain l1
term (infinite bounds), a box (lam = 0), the nonnegative orthant (lam = 0,
lb = 0, ub = inf) and no regularizer (lam = 0, infinite bounds) are special
cases.
"""

import numpy as np


def soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def prox(v, lam, lb, ub, weight):
    """Coordinatewise argmin_u lam|u| + box(u) + weight/2 (u - v)^2."""
    return np.minimum(np.maximum(soft_threshold(v, lam / weight), lb), ub)


def value(x, lam, lb, ub):
    """sum_c psi_c(x_c); +inf when a box constraint is violated."""
    if np.any(x < lb) or np.any(x > ub):
        return np.inf
    return float(np.dot(np.broadcast_to(lam, x.shape), np.abs(x)))
