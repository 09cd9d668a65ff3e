"""Composite problem: partially separable smooth part plus separable regularizer.

F(x) = sum_r phi_r((M x)_r) + <lin, x> + sum_c psi_c(x_c),

with the smooth part stored as one sparse operator (see pbcd.smooth) and the
regularizer as three per-coordinate arrays lam, lb, ub (see
pbcd.regularizers).  Every problem is built one way: a SmoothOperator (from
SmoothOperator.from_entries, or from the pbcd.generators builders
lasso_from_matrix, logistic_from_matrix and dual_from_data) and the three
arrays go into CompositeProblem, which validates them.  Value, gradient,
partial gradient and objective each have one implementation here, shared by
the solver, the reference solve and the diagnostics.  The gradient and the
proximal step take one point or a (k, n) stack of points, one point per row,
through the same expression; mapping_norms evaluates a stack a chunk of
rows at a time.

The object is immutable after construction and all evaluation methods are
read-only, so one instance can be shared freely across threads.
"""

from functools import cached_property

import numpy as np

from . import regularizers as reg
from .blocks import weighted_norm, weighted_norm_inv
from .errors import InputError, StructureError
from .smooth import SmoothOperator

# Elements of the largest (rows, m) or (rows, n) array that one stacked
# evaluation forms: 256 KB of float64, so a chunk's temporaries stay a few
# hundred KB whatever the number of points.
CHUNK_ELEMENTS = 1 << 15


def _check_finite(x, n, stacked=False):
    """x as a float vector of length n, or with `stacked` also as a (k, n)
    stack of such vectors; NaN and infinite entries are rejected."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (n,) or x.ndim > (2 if stacked else 1):
        raise InputError(f"expected a vector of length {n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("input vector contains NaN or infinite entries")
    return x


class CompositeProblem:
    """Assembled problem instance.

    Parameters
    ----------
    partition : BlockPartition
    smooth : SmoothOperator over the partition's n coordinates
    lam, lb, ub : per-coordinate l1 weights and box bounds (scalars broadcast);
        lam finite and >= 0, lb <= ub, lb < +inf, ub > -inf, no NaN
    weights : array, optional
        Override for the per-block step weights.  By default the weights
        aggregate the component Lipschitz constants (w_i = sum of the
        constants of the components touching block i), which is the rule
        all rate guarantees assume; pass an override only when a custom
        descent inequality is known to hold.

    The block incidence is read off M's stored entries (explicit zeros
    included): component j touches block i when some row of j has an entry
    in a column of i.  It gives the two separability measures
    max_blocks_per_component (omega) and max_components_per_block.
    """

    def __init__(self, partition, smooth, lam=0.0, lb=-np.inf, ub=np.inf,
                 weights=None):
        n, nb = partition.n, partition.num_blocks
        if smooth.matrix.shape[1] != n:
            raise InputError("smooth operator and partition disagree on dimension")
        if smooth.num_components < 1:
            raise InputError("need at least one smooth component")
        try:
            lam, lb, ub = (np.broadcast_to(np.asarray(a, dtype=float), (n,)).copy()
                           for a in (lam, lb, ub))
        except ValueError:
            raise InputError(f"lam, lb and ub need a scalar or {n} values") from None
        if not np.all(np.isfinite(lam) & (lam >= 0.0)):
            raise InputError("l1 weight must be finite and >= 0")
        if not (np.all(lb < np.inf) and np.all(ub > -np.inf)):
            raise InputError("box bounds must not be NaN, lb = +inf or ub = -inf")
        if np.any(lb > ub):
            raise InputError("box lower bound exceeds upper bound")
        self.partition = partition
        self.smooth = smooth
        self.lam, self.lb, self.ub = lam, lb, ub
        # unique (component, block) pairs, sorted by component
        comp, blk = np.divmod(np.unique(
            smooth.component[smooth.matrix.indices] * nb
            + partition.block_of[smooth.entry_cols]), nb)
        blocks_per_comp = np.bincount(comp, minlength=smooth.num_components)
        if np.any(blocks_per_comp == 0):
            raise StructureError(
                f"component {int(np.argmin(blocks_per_comp))} touches no block")
        comps_per_block = np.bincount(blk, minlength=nb)
        self.max_blocks_per_component = int(blocks_per_comp.max())
        self.max_components_per_block = int(comps_per_block.max())
        if weights is None:
            lip = smooth.lipschitz
            bad = np.flatnonzero(~(np.isfinite(lip) & (lip > 0.0)))
            if bad.size:
                raise InputError(
                    f"component {bad[0]} has Lipschitz constant "
                    f"{float(lip[bad[0]])!r}, not positive and finite; drop "
                    "degenerate components before assembly")
            if np.any(comps_per_block == 0):
                raise StructureError(
                    f"block {int(np.argmin(comps_per_block))} is touched by no "
                    "component, weight 0")
            # bincount adds in pair order, so each block sums in component order
            weights = np.bincount(blk, weights=lip[comp], minlength=nb)
        else:
            weights = np.array(weights, dtype=float)
            if weights.shape != (nb,):
                raise InputError("weight override needs one value per block")
            if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
                raise InputError("weight override entries must be positive and finite")
        self.weights = weights

    # -- basic shapes -------------------------------------------------------

    @property
    def n(self):
        return self.partition.n

    @property
    def num_blocks(self):
        return self.partition.num_blocks

    @property
    def num_components(self):
        return self.smooth.num_components

    @cached_property
    def coord_weights(self):
        return self.partition.expand(self.weights)

    @property
    def chunk_rows(self):
        """Rows of a stack that one evaluation in mapping_norms takes."""
        return max(1, CHUNK_ELEMENTS // max(self.smooth.matrix.shape[0], self.n))

    # -- evaluation ---------------------------------------------------------

    def smooth_value(self, x):
        x = np.asarray(x, dtype=float)
        op = self.smooth
        return float(np.sum(op.values(op.matrix @ x))) + float(op.lin @ x)

    def smooth_gradient(self, x):
        """Full gradient M' phi'(M x) + lin of the smooth part, at one point
        or at each row of a (k, n) stack.

        Each row's gradient is bitwise the gradient of that row alone: the
        sparse products accumulate every output entry in the same order for
        one vector as for a stack, and the rest is elementwise.
        """
        x = np.asarray(x, dtype=float)
        op = self.smooth
        return (op.transpose @ op.derivs((op.matrix @ x.T).T).T).T + op.lin

    def gathered_gradient(self, z, rows, vals, local, lin):
        """Gradient entries at a set of coordinates, from the row values z = M x.

        rows, vals and local are the entries of M in those coordinates'
        columns and each entry's position in the set, as
        SmoothOperator.columns returns them; lin is the linear term at the
        coordinates.
        """
        op = self.smooth
        return np.bincount(local, weights=vals * op.derivs(z[rows], rows),
                           minlength=lin.size) + lin

    def partial_gradient(self, x, i):
        """Gradient of the smooth part restricted to block i."""
        x = _check_finite(x, self.n)
        if not 0 <= i < self.num_blocks:
            raise InputError(f"block index {i} out of range")
        op = self.smooth
        cols = self.partition.coords(np.array([i]))
        return self.gathered_gradient(op.matrix @ x, *op.columns(cols), op.lin[cols])

    def reg_value(self, x):
        return reg.value(np.asarray(x, dtype=float), self.lam, self.lb, self.ub)

    def objective(self, x):
        """F(x); +inf when an indicator constraint is violated."""
        x = _check_finite(x, self.n)
        psi = self.reg_value(x)
        if psi == np.inf:
            return np.inf
        return self.smooth_value(x) + psi

    # -- proximal machinery -------------------------------------------------

    def prox(self, v):
        """Prox of the full regularizer in the weighted norm at v."""
        return reg.prox(v, self.lam, self.lb, self.ub, self.coord_weights)

    def proximal_step(self, x):
        """Full-dimensional candidate: prox of a weighted gradient step, at
        one point or at each row of a (k, n) stack."""
        x = _check_finite(x, self.n, stacked=True)
        return self.prox(x - self.smooth_gradient(x) / self.coord_weights)

    def prox_grad_mapping(self, x):
        """Residual mapping x - proximal_step(x) and its weighted norm.

        Zero exactly at the optima of the composite problem.
        """
        x = _check_finite(x, self.n)
        m = x - self.proximal_step(x)
        return m, weighted_norm(m, self.coord_weights)

    def mapping_norms(self, xs):
        """prox_grad_mapping(x)[1] for each row x of a (k, n) stack, bitwise.

        The stack is taken chunk_rows rows at a time, one gradient and one
        prox per chunk, so the temporaries stay O(CHUNK_ELEMENTS) however
        large k is; each norm is weighted_norm of its row.  Each chunk is
        checked for NaN and infinite entries as it is taken.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.n:
            raise InputError(f"expected a (k, {self.n}) stack, got shape {xs.shape}")
        rows, cw = self.chunk_rows, self.coord_weights
        out = np.empty(len(xs))
        for start in range(0, len(xs), rows):
            chunk = xs[start:start + rows]
            maps = chunk - self.proximal_step(chunk)
            out[start:start + rows] = [weighted_norm(m, cw) for m in maps]
        return out

    def upper_model(self, x, y):
        """Separable quadratic upper model of F around x, evaluated at y."""
        x = _check_finite(x, self.n)
        y = _check_finite(y, self.n)
        d = y - x
        psi = self.reg_value(y)
        if psi == np.inf:
            return np.inf
        return (self.smooth_value(x) + float(self.smooth_gradient(x) @ d)
                + 0.5 * weighted_norm(d, self.coord_weights) ** 2 + psi)

    def project_domain(self, x):
        """Projection onto the regularizer domains (the boxes)."""
        return np.clip(_check_finite(x, self.n), self.lb, self.ub)

    # -- norms ---------------------------------------------------------------

    def norm_w(self, x):
        return weighted_norm(np.asarray(x, dtype=float), self.coord_weights)

    def norm_w_inv(self, x):
        return weighted_norm_inv(np.asarray(x, dtype=float), self.coord_weights)

