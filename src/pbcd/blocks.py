"""Block partition and weighted norms.

The variable vector x in R^n is split into contiguous blocks x_i.  Per-block
weights w_i (see pbcd.problem, which reads them off the smooth operator)
induce the weighted norm ||x||_w^2 = sum_i w_i ||x_i||^2 that governs
stepsizes and all rate estimates.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError


def concat_ranges(starts, counts):
    """Concatenation of arange(starts[k], starts[k] + counts[k]) over k."""
    if counts.size == 0:
        return np.zeros(0, np.int64)
    ends = counts.cumsum()
    return np.arange(ends[-1]) + (starts - ends + counts).repeat(counts)


@dataclass(frozen=True)
class BlockPartition:
    """Partition of R^n into contiguous blocks.

    block i occupies x[offsets[i]:offsets[i+1]].
    """

    block_sizes: np.ndarray
    offsets: np.ndarray
    n: int

    @classmethod
    def from_sizes(cls, sizes):
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.ndim != 1 or sizes.size == 0:
            raise InputError("block sizes must be a nonempty 1-d sequence")
        if np.any(sizes < 1):
            raise InputError("every block size must be >= 1")
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return cls(block_sizes=sizes, offsets=offsets, n=int(offsets[-1]))

    @classmethod
    def uniform(cls, n, block_size):
        """Blocks of `block_size`, with a smaller trailing block if needed."""
        if n < 1 or block_size < 1:
            raise InputError("dimension and block size must be >= 1")
        sizes = [block_size] * (n // block_size)
        if n % block_size:
            sizes.append(n % block_size)
        return cls.from_sizes(sizes)

    @property
    def num_blocks(self):
        return int(self.block_sizes.size)

    def slice(self, i):
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def block(self, x, i):
        return x[self.offsets[i]:self.offsets[i + 1]]

    @property
    def block_of(self):
        """Block index of every coordinate."""
        return np.repeat(np.arange(self.num_blocks), self.block_sizes)

    def coords(self, idx):
        """Coordinates of the blocks in `idx`, block by block."""
        if self.n == self.num_blocks:
            return idx
        return concat_ranges(self.offsets[idx], self.block_sizes[idx])

    def expand(self, per_block):
        """Repeat a per-block value across the coordinates of each block."""
        return np.repeat(np.asarray(per_block, dtype=float), self.block_sizes)


def weighted_norm(x, coord_weights):
    """||x||_w with per-coordinate weights (use BlockPartition.expand).

    A strided x is copied first: np.dot sums a strided vector in another
    order, so a view and its contiguous copy would differ in the last bits.
    """
    x = np.ascontiguousarray(x)
    return float(np.sqrt(np.dot(coord_weights * x, x)))


def weighted_norm_inv(x, coord_weights):
    """||x||_{w^-1}, the dual norm of the weighted norm (strided x as above)."""
    x = np.ascontiguousarray(x)
    return float(np.sqrt(np.dot(x / coord_weights, x)))
