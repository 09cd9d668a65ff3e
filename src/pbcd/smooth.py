"""The smooth part as one sparse operator.

Every supported smooth part has the form (Richtarik & Takac, Math. Prog.
2016)

    f(x) = sum_r phi_r((M x)_r) + <lin, x>

for one sparse matrix M whose rows carry a family code, a parameter p_r and
a scale s_r:

* RESIDUAL  phi(z) = (z - p)^2 / (2 s)       one row per data row a' of a
            least-squares / lasso objective; p is the observation, s = 1
            for the lasso (s weights a row by 1/s).
* LOGISTIC  phi(z) = log(1 + exp(-p z)) / s  one row per sample of an
            averaged logistic loss; p is the +/-1 label, s the sample count.
* DUAL      phi(z) = z^2 / (2 s) - p z       the conjugate of the primal term
            s/2 ||u - center||^2 of a linearly constrained problem, one row
            per primal coordinate (z = A'x); p is the center entry, s sigma.
            The dual's <rhs, x> term is the vector `lin`.

Rows are grouped into smooth components by a row -> component map: one row
per residual or logistic component, the coordinates of one primal part per
dual component.  All rows of a component share a family and a scale, so
phi'' <= 1/d with curvature divisor d = 1, 4s, s per family, and component
j's gradient Lipschitz constant is ||M_j||_2^2 / d_j, M_j its rows.

SmoothOperator.from_entries is the one constructor; pbcd.generators feeds it
the coordinate arrays of lasso, logistic and dual data.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .blocks import concat_ranges
from .errors import InputError

RESIDUAL, LOGISTIC, DUAL = 0, 1, 2


def spectral_norm_sq(mat):
    """Largest squared singular value, from the SVD (exact to rounding)."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.size == 0:
        return 0.0
    return float(np.square(np.linalg.norm(mat, 2)))


def _phi(code, z, p, s):
    if code == RESIDUAL:
        return (z - p) ** 2 / (2.0 * s)
    if code == LOGISTIC:
        return np.logaddexp(0.0, -p * z) / s
    return z * z / (2.0 * s) - p * z


def _dphi(code, z, p, s):
    if code == RESIDUAL:
        return (z - p) / s
    if code == LOGISTIC:
        return -p * expit(-p * z) / s
    return z / s - p


@dataclass(frozen=True, eq=False)
class SmoothOperator:
    """M in CSC form plus the per-row family data and the linear term."""

    matrix: sp.csc_matrix
    family: np.ndarray
    param: np.ndarray
    scale: np.ndarray
    component: np.ndarray
    lin: np.ndarray
    num_components: int

    @classmethod
    def from_entries(cls, n, rows, cols, vals, family, param, scale,
                     component, lin=None):
        """Build from coordinate entries (row, col, value) of M.

        family, param, scale and component hold one value per row of M.
        Explicit zero entries are kept: they mark which blocks a component
        reads.
        """
        rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
        vals = np.asarray(vals, float)
        family = np.asarray(family, np.int8)
        m = family.size
        param, scale = np.asarray(param, float), np.asarray(scale, float)
        component = np.asarray(component, np.int64)
        if not (rows.shape == cols.shape == vals.shape
                and param.shape == scale.shape == component.shape == (m,)):
            raise InputError("smooth operator arrays disagree in length")
        if rows.size and (rows.min() < 0 or rows.max() >= m
                          or cols.min() < 0 or cols.max() >= n):
            raise InputError("smooth operator entry out of range")
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(param))):
            raise InputError("smooth operator data contain NaN or infinite values")
        if np.any((family < 0) | (family > DUAL)) or np.any(~(scale > 0.0)):
            raise InputError("smooth rows need a known family and a scale > 0")
        if np.any((family == LOGISTIC) & (np.abs(param) != 1.0)):
            raise InputError("logistic label must be -1 or +1")
        ncomp = int(component.max()) + 1 if m else 0
        if m and component.min() < 0:
            raise InputError("negative component index")
        first = np.full(ncomp, m)
        np.minimum.at(first, component, np.arange(m))
        lead = first[component]
        if np.any(family[lead] != family) or np.any(scale[lead] != scale):
            raise InputError("rows of one component must share family and scale")
        order = np.lexsort((rows, cols))
        rows, cols = rows[order], cols[order]
        if np.any((np.diff(rows) == 0) & (np.diff(cols) == 0)):
            raise InputError("duplicate entry in the smooth operator")
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        matrix = sp.csc_matrix((vals[order], rows, indptr), shape=(m, n))
        lin = np.zeros(n) if lin is None else np.asarray(lin, float)
        if lin.shape != (n,) or not np.all(np.isfinite(lin)):
            raise InputError(f"linear term must be a finite vector of length {n}")
        return cls(matrix, family, param, scale, component, lin, ncomp)

    @cached_property
    def codes(self):
        """Family codes present, ascending."""
        return tuple(int(c) for c in np.unique(self.family))

    @cached_property
    def transpose(self):
        return self.matrix.T.tocsr()

    @cached_property
    def entry_cols(self):
        """Column index of every stored entry, in CSC order."""
        return np.repeat(np.arange(self.matrix.shape[1]), np.diff(self.matrix.indptr))

    @cached_property
    def divisor(self):
        """Per-row curvature divisor d with phi'' <= 1/d."""
        return np.where(self.family == LOGISTIC, 4.0, 1.0) * self.scale

    def _by_family(self, fn, z, rows):
        if rows is None:
            rows = slice(None)
        p, s = self.param[rows], self.scale[rows]
        if len(self.codes) == 1:
            return fn(self.codes[0], z, p, s)
        fam = self.family[rows]
        out = np.empty_like(z)
        for code in self.codes:
            sel = fam == code
            out[..., sel] = fn(code, z[..., sel], p[sel], s[sel])
        return out

    def values(self, z, rows=None):
        """phi_r(z) for every row r (or for the listed rows); z may also be
        a stack with the rows on its last axis."""
        return self._by_family(_phi, z, rows)

    def derivs(self, z, rows=None):
        """phi_r'(z) for every row r (or for the listed rows); z may also be
        a stack with the rows on its last axis."""
        return self._by_family(_dphi, z, rows)

    def columns(self, cols):
        """Rows, values and positions in `cols` of the entries of M[:, cols]."""
        indptr = self.matrix.indptr
        start = indptr[cols]
        count = indptr[cols + 1] - start
        pos = concat_ranges(start, count)
        local = np.arange(cols.size).repeat(count)
        return self.matrix.indices[pos], self.matrix.data[pos], local

    @cached_property
    def lipschitz(self):
        """Per-component constants ||M_j||_2^2 / d_j."""
        m = self.matrix
        norms = grouped_norm_sq(self.component[m.indices], m.indices,
                                self.entry_cols, m.data, self.num_components)
        div = np.ones(self.num_components)
        div[self.component] = self.divisor
        return norms / div


@np.errstate(over="ignore")
def grouped_norm_sq(keys, rows, cols, vals, num_groups):
    """Squared spectral norm of the submatrix formed by each key's entries.

    A group whose entries share one row or one column is a vector, whose
    norm is the root of its sum of squares; other groups go through
    spectral_norm_sq on their dense submatrix.  A norm too large for a
    float comes out as inf, which CompositeProblem rejects.
    """
    out = np.zeros(num_groups)
    if keys.size == 0:
        return out
    order = np.argsort(keys, kind="stable")
    keys, rows, cols, vals = keys[order], rows[order], cols[order], vals[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    bounds = np.r_[starts, keys.size]
    out[keys[starts]] = np.add.reduceat(vals * vals, starts)
    line = ((np.minimum.reduceat(rows, starts) == np.maximum.reduceat(rows, starts))
            | (np.minimum.reduceat(cols, starts) == np.maximum.reduceat(cols, starts)))
    for g in np.flatnonzero(~line):
        sl = slice(bounds[g], bounds[g + 1])
        _, ri = np.unique(rows[sl], return_inverse=True)
        _, ci = np.unique(cols[sl], return_inverse=True)
        dense = np.zeros((ri.max() + 1, ci.max() + 1))
        dense[ri, ci] = vals[sl]
        out[keys[starts[g]]] = spectral_norm_sq(dense)
    return out


def coordinatewise_constants(problem):
    """Per-block coordinate-wise gradient Lipschitz constants.

    Used by the reference stepsize rule that scales per-block constants
    instead of aggregating per-component ones.  Per family: residual rows
    contribute jointly the squared spectral norm of the block's column slice
    of their data matrix (the largest eigenvalue of the stacked row Gram);
    logistic and dual components contribute additive per-block terms
    ||a_i||^2/(4 m) and ||A_ij||^2 / sigma_j.
    """
    op = problem.smooth
    nb = problem.num_blocks
    rows = op.matrix.indices
    blk = problem.partition.block_of[op.entry_cols]
    owner = np.where(op.family[rows] == RESIDUAL, -1, op.component[rows])
    groups, key = np.unique((owner + 1) * nb + blk, return_inverse=True)
    norms = grouped_norm_sq(key.ravel(), rows, op.entry_cols, op.matrix.data,
                            groups.size)
    div = np.ones(op.num_components + 1)
    div[op.component + 1] = op.divisor
    return np.bincount(groups % nb, weights=norms / div[groups // nb],
                       minlength=nb)
