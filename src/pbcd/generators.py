"""Problem generation and ingestion for the benchmark harness.

Generators produce reproducible random instances of the three supported
problem shapes (constrained lasso, sparse logistic regression, and the dual
of a linearly constrained strongly convex quadratic primal) together with
the data they were built from.  Builders turn coordinate-format data
straight into the smooth operator and regularizer arrays of a problem, so
generated and loaded instances share one path.
"""

from dataclasses import dataclass

import numpy as np

from .blocks import BlockPartition
from .errors import InputError
from .matrixio import MatrixFile
from .problem import CompositeProblem
from .smooth import DUAL, LOGISTIC, RESIDUAL, SmoothOperator


@dataclass
class GeneratedProblem:
    problem: object
    matrix: MatrixFile
    rhs: np.ndarray
    extras: dict


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _row_support(rng, n, sparsity):
    while True:
        nnz = int(rng.binomial(n, sparsity))
        if nnz >= 1:
            return np.sort(rng.choice(n, nnz, replace=False))


def _touch_isolated_columns(rng, rows, cols, vals, m, n):
    """Give every untouched column one entry in a random row.

    A column no row reads would carry zero curvature and zero step weight;
    such variables cannot participate in the iteration, so the generators
    keep the incidence structure connected instead of producing instances
    the model rejects.
    """
    touched = np.zeros(n, dtype=bool)
    touched[np.asarray(cols, dtype=np.int64)] = True
    for c in np.nonzero(~touched)[0]:
        rows.append(int(rng.integers(m)))
        cols.append(int(c))
        vals.append(float(rng.normal()))


def _row_problem(mat, family, param, scale, block_size, lam, lb=-np.inf,
                 ub=np.inf):
    """One smooth component per data row, read straight from the entries."""
    empty = np.flatnonzero(np.bincount(mat.row_idx, minlength=mat.rows) == 0)
    if empty.size:
        raise InputError(f"row {empty[0] + 1} of the data matrix is all zero; "
                         "drop empty rows before building the problem")
    rows = np.arange(mat.rows)
    op = SmoothOperator.from_entries(
        mat.cols, mat.row_idx, mat.col_idx, mat.values,
        np.full(mat.rows, family), param, np.full(mat.rows, float(scale)), rows)
    return CompositeProblem(BlockPartition.uniform(mat.cols, block_size), op,
                            lam, lb, ub)


def lasso_from_matrix(mat, rhs, lam, box=None, block_size=1):
    """Constrained lasso problem from a data matrix and observation vector.

    Rows with no entry are rejected; drop them during ingestion.
    box is None or a (lb, ub) pair applied to every coordinate.
    """
    rhs = np.asarray(rhs, float)
    if rhs.shape != (mat.rows,):
        raise InputError(f"need one observation per row ({mat.rows}), "
                         f"got {rhs.shape}")
    lb, ub = (-np.inf, np.inf) if box is None else box
    return _row_problem(mat, RESIDUAL, rhs, 1.0, block_size, lam, lb, ub)


def generate_lasso(m, n, sparsity, lam=1.0, box=None, seed=0, block_size=1,
                   noise=0.01, plant_density=0.1):
    """Random sparse lasso instance with a planted sparse signal.

    Each row draws a Binomial(n, sparsity) support (redrawn while empty) with
    standard normal values; observations are the planted signal's image plus
    Gaussian noise.
    """
    if m < 1 or n < 1:
        raise InputError("dimensions must be >= 1")
    if not 0.0 < sparsity <= 1.0:
        raise InputError("sparsity must lie in (0, 1]")
    if n * sparsity < 1.0:
        raise InputError(f"expected nonzeros per row n*sparsity = {n * sparsity} "
                         "< 1; no nonempty rows can be drawn reliably")
    rng = _rng(seed)
    rows, cols, vals = [], [], []
    for j in range(m):
        support = _row_support(rng, n, sparsity)
        rows.extend([j] * support.size)
        cols.extend(support.tolist())
        vals.extend(rng.normal(size=support.size).tolist())
    _touch_isolated_columns(rng, rows, cols, vals, m, n)
    mat = MatrixFile(rows=m, cols=n, row_idx=rows, col_idx=cols, values=vals)
    planted = np.zeros(n)
    support = rng.choice(n, max(1, int(round(plant_density * n))), replace=False)
    planted[support] = rng.normal(size=support.size)
    rhs = np.zeros(m)
    np.add.at(rhs, np.asarray(rows), np.asarray(vals) * planted[np.asarray(cols)])
    rhs += noise * rng.normal(size=m)
    problem = lasso_from_matrix(mat, rhs, lam, box=box, block_size=block_size)
    return GeneratedProblem(
        problem=problem,
        matrix=mat, rhs=rhs, extras={"planted": planted})


def logistic_from_matrix(mat, labels, lam, num_samples=None, block_size=1):
    """Sparse logistic regression from a sample matrix and +/-1 labels."""
    labels = np.asarray(labels)
    if labels.shape != (mat.rows,):
        raise InputError("need one label per sample row")
    return _row_problem(mat, LOGISTIC, labels, num_samples or mat.rows,
                        block_size, lam)


def generate_logistic(num_samples, n, sparsity, lam=0.1, seed=0, block_size=1,
                      flip=0.05):
    """Random sparse logistic instance: labels from a planted separator with
    a small flip probability."""
    if num_samples < 1 or n < 1:
        raise InputError("dimensions must be >= 1")
    if not 0.0 < sparsity <= 1.0:
        raise InputError("sparsity must lie in (0, 1]")
    if n * sparsity < 1.0:
        raise InputError("expected nonzeros per sample below 1")
    rng = _rng(seed)
    rows, cols, vals = [], [], []
    for j in range(num_samples):
        support = _row_support(rng, n, sparsity)
        rows.extend([j] * support.size)
        cols.extend(support.tolist())
        vals.extend(rng.normal(size=support.size).tolist())
    _touch_isolated_columns(rng, rows, cols, vals, num_samples, n)
    mat = MatrixFile(rows=num_samples, cols=n, row_idx=rows, col_idx=cols,
                     values=vals)
    separator = rng.normal(size=n)
    scores = mat.to_dense() @ separator if n * num_samples <= 10 ** 6 else None
    if scores is None:
        scores = np.zeros(num_samples)
        np.add.at(scores, np.asarray(rows),
                  np.asarray(vals) * separator[np.asarray(cols)])
    labels = np.where(scores >= 0.0, 1, -1)
    flips = rng.random(num_samples) < flip
    labels[flips] *= -1
    problem = logistic_from_matrix(mat, labels, lam, block_size=block_size)
    return GeneratedProblem(
        problem=problem,
        matrix=mat, rhs=labels.astype(float), extras={"separator": separator})


def dual_from_data(mat, rhs, sigmas, centers, block_size=1):
    """Dual of  min sum_j sigma_j/2 ||u_j - c_j||^2  s.t.  A u <= rhs.

    `mat` is the constraint matrix A in coordinate form; its columns are
    grouped into one column block per primal part, with widths given by the
    center vectors.  The dual variable (the multiplier) lives in the
    nonnegative orthant, partitioned into blocks of `block_size`.  The
    smooth operator is A' (one row per primal coordinate, one component per
    part) and the linear term is <x, rhs>.
    """
    sigmas = np.asarray(sigmas, float)
    centers = [np.atleast_1d(np.asarray(c, float)) for c in centers]
    rhs = np.asarray(rhs, float)
    if rhs.shape != (mat.rows,):
        raise InputError("need one rhs value per constraint row")
    if sigmas.size != len(centers):
        raise InputError("need one strong convexity parameter per primal part")
    widths = [c.size for c in centers]
    if sum(widths) != mat.cols:
        raise InputError("primal part widths must tile the matrix columns")
    if not np.all(sigmas > 0.0):
        raise InputError("strong convexity parameter sigma must be > 0")
    part_of = np.repeat(np.arange(len(widths)), widths)
    nz = mat.values != 0.0
    rows, cols, vals = mat.col_idx[nz], mat.row_idx[nz], mat.values[nz]
    empty = np.flatnonzero(np.bincount(part_of[rows], minlength=len(widths)) == 0)
    if empty.size:
        raise InputError(f"primal part {empty[0]} has an all-zero column block; "
                         "drop it before building the dual")
    partition = BlockPartition.uniform(mat.rows, block_size)
    unowned = np.setdiff1d(np.arange(partition.num_blocks),
                           partition.block_of[cols])
    if unowned.size:
        raise InputError(f"constraint block {unowned[0]} touches no primal part")
    op = SmoothOperator.from_entries(
        mat.rows, rows, cols, vals, np.full(mat.cols, DUAL),
        np.concatenate(centers), sigmas[part_of], part_of, lin=rhs)
    return CompositeProblem(partition, op, lb=0.0)


def generate_dual(num_parts, seed=0, block_size=1, coupling_scale=1.0,
                  sigma_range=(0.5, 2.0), slack=0.1):
    """Column-linked block-angular dual instance.

    The constraint matrix has one dense leading column (its primal variable
    appears in every constraint row) and one diagonal column per remaining
    part, so each dual block is touched by at most two components while the
    leading component touches all of them.  The right-hand side is drawn
    with a strictly feasible primal point, which keeps the dual optimal set
    compact.
    """
    if num_parts < 2:
        raise InputError("need at least two primal parts")
    rng = _rng(seed)
    n = num_parts * block_size
    partition = BlockPartition.uniform(n, block_size)
    rows, cols, vals = [], [], []
    # entries are kept away from zero so block-level incidence is stable
    lead = coupling_scale * rng.normal(size=n)
    small = np.abs(lead) < 1e-3
    lead[small] = np.where(lead[small] >= 0.0, 1.0, -1.0)
    for i in range(n):
        rows.append(i)
        cols.append(0)
        vals.append(float(lead[i]))
    for j in range(1, num_parts):
        sl = partition.slice(j)
        for i in range(sl.start, sl.stop):
            v = float(rng.normal())
            if abs(v) < 1e-3:
                v = 1.0
            rows.append(i)
            cols.append(j)
            vals.append(v)
    mat = MatrixFile(rows=n, cols=num_parts, row_idx=rows, col_idx=cols,
                     values=vals)
    sigmas = rng.uniform(*sigma_range, size=num_parts)
    centers = [np.array([float(rng.normal())]) for _ in range(num_parts)]
    feasible = np.array([c[0] for c in centers]) + 0.5 * rng.normal(size=num_parts)
    rhs = mat.to_dense() @ feasible + slack * rng.uniform(0.2, 1.0, size=n)
    problem = dual_from_data(mat, rhs, sigmas, centers, block_size=block_size)
    return GeneratedProblem(
        problem=problem,
        matrix=mat, rhs=rhs,
        extras={"sigmas": sigmas, "centers": centers})
