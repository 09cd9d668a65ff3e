"""Separable regularizers and their exact proximal maps in the weighted norm.

Every supported regularizer is "l1 weight plus box" on each coordinate,

    psi_c(u) = lam_c * |u| + indicator(lb_c <= u <= ub_c),

so a problem stores its regularizer as three per-coordinate arrays and the
prox of the full vector splits into independent scalar problems

    min_u  psi_c(u) + w/2 * (u - v)^2,

all solved in closed form: soft-threshold at lam/w, then clamp to [lb, ub].
That composition is exact for separable one-dimensional problems: the
unconstrained minimizer of the convex function psi(u) + w/2 (u-v)^2 is the
soft-threshold value, and clipping a one-dimensional convex function's
minimizer into an interval yields the constrained minimizer because the
function is nonincreasing left of the minimizer and nondecreasing right of
it.  Ties at the threshold boundary (|v| == lam/w) map to 0.

`L1Box` is the one per-block spec; `Zero`, `L1`, `Box` and `NonnegOrthant`
are constructors of its special cases.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class L1Box:
    """lam * ||x||_1 plus the indicator of {lb <= x <= ub} on one block.

    lb and ub are componentwise; scalars broadcast over the block.
    """

    lam: float = 0.0
    lb: object = -np.inf
    ub: object = np.inf

    def __post_init__(self):
        if not (self.lam >= 0.0):
            raise InputError("l1 weight must be >= 0")
        lb = np.asarray(self.lb, dtype=float)
        ub = np.asarray(self.ub, dtype=float)
        if np.any(lb > ub):
            raise InputError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)


def Zero():
    """No regularization on this block."""
    return L1Box()


def L1(lam):
    """lam * ||x||_1 on this block."""
    return L1Box(lam=lam)


def Box(lb, ub):
    """Indicator of {lb <= x <= ub} (componentwise, scalars broadcast)."""
    return L1Box(lb=lb, ub=ub)


def NonnegOrthant():
    """Indicator of {x >= 0}."""
    return L1Box(lb=0.0)


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


def prox_block(spec, v, weight):
    """argmin_u psi_i(u) + weight/2 * ||u - v||^2 for one block."""
    if weight <= 0.0:
        raise InputError("prox weight must be > 0")
    return prox(np.asarray(v, dtype=float), spec.lam, spec.lb, spec.ub, weight)


def value_block(spec, x):
    """psi_i(x) for one block; +inf when an indicator is violated."""
    return value(np.asarray(x, dtype=float), spec.lam, spec.lb, spec.ub)


def project_block(spec, x):
    """Euclidean projection of one block onto dom psi_i."""
    return np.clip(np.asarray(x, dtype=float), spec.lb, spec.ub)


def coordinate_params(spec, size):
    """(lam, lb, ub) arrays of length `size` describing the block."""
    return tuple(np.broadcast_to(np.asarray(a, dtype=float), (size,)).copy()
                 for a in (spec.lam, spec.lb, spec.ub))
