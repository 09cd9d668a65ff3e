"""Coordinate-format sparse matrix and plain-text vector files.

Matrix grammar (MatrixMarket coordinate subset):

    %%MatrixMarket matrix coordinate real general
    % optional comment lines
    <rows> <cols> <nnz>
    <i> <j> <value>        (1-based indices, one entry per line, no duplicates)

Vector files hold one number per line; blank lines and %-comments are
skipped.  Writers emit shortest round-trip float representations, so a
write/read cycle reproduces values exactly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

MATRIX_HEADER = "%%MatrixMarket matrix coordinate real general"


@dataclass(frozen=True)
class MatrixFile:
    """Sparse matrix in coordinate form (0-based indices in memory)."""

    rows: int
    cols: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row_idx", np.asarray(self.row_idx, np.int64))
        object.__setattr__(self, "col_idx", np.asarray(self.col_idx, np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, float))

    @property
    def nnz(self):
        return int(self.values.size)

    def to_dense(self):
        out = np.zeros((self.rows, self.cols))
        out[self.row_idx, self.col_idx] = self.values
        return out


def load_matrix(path):
    """Parse a coordinate-format matrix file; errors carry line numbers."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    if not lines or not lines[0].strip().startswith("%%MatrixMarket"):
        raise InputError(f"{path}: line 1: missing MatrixMarket header")
    head = lines[0].strip().lower().split()
    if head[1:] != ["matrix", "coordinate", "real", "general"]:
        raise InputError(f"{path}: line 1: unsupported format {lines[0].strip()!r}"
                         f"; only {MATRIX_HEADER!r} is read")
    body = [(no, ln.strip()) for no, ln in enumerate(lines[1:], start=2)
            if ln.strip() and not ln.strip().startswith("%")]
    if not body:
        raise InputError(f"{path}: missing size line")
    no, size_line = body[0]
    parts = size_line.split()
    if len(parts) != 3:
        raise InputError(f"{path}: line {no}: size line needs 'rows cols nnz'")
    try:
        rows, cols, nnz = (int(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"{path}: line {no}: bad size line: {exc}") from None
    if rows < 1 or cols < 1 or nnz < 0:
        raise InputError(f"{path}: line {no}: nonpositive dimensions")
    if len(body) - 1 != nnz:
        raise InputError(
            f"{path}: header declares {nnz} entries, file has {len(body) - 1}")
    ri = np.empty(nnz, np.int64)
    ci = np.empty(nnz, np.int64)
    vals = np.empty(nnz)
    seen = set()
    for k, (no, line) in enumerate(body[1:]):
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"{path}: line {no}: entry needs 'i j value'")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise InputError(f"{path}: line {no}: bad entry: {exc}") from None
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise InputError(
                f"{path}: line {no}: index ({i}, {j}) outside "
                f"{rows} x {cols} (indices are 1-based)")
        if (i, j) in seen:
            raise InputError(f"{path}: line {no}: duplicate entry ({i}, {j})")
        seen.add((i, j))
        ri[k], ci[k], vals[k] = i - 1, j - 1, v
    return MatrixFile(rows=rows, cols=cols, row_idx=ri, col_idx=ci, values=vals)


def save_matrix(path, mat):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(MATRIX_HEADER + "\n")
        handle.write(f"{mat.rows} {mat.cols} {mat.nnz}\n")
        for i, j, v in zip(mat.row_idx, mat.col_idx, mat.values):
            handle.write(f"{i + 1} {j + 1} {float(v)!r}\n")


def load_vector(path):
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for no, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("%"):
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise InputError(f"{path}: line {no}: not a number: "
                                 f"{text!r}") from None
    return np.array(values)


def save_vector(path, vec):
    with open(path, "w", encoding="utf-8") as handle:
        for v in np.asarray(vec, float):
            handle.write(f"{float(v)!r}\n")
