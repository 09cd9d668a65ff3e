"""Block partition, component/block incidence structure, and diagonal step weights.

The variable vector x in R^n is split into contiguous blocks x_i.  A smooth
objective is a sum of components f_j, each reading only a few blocks; the
incidence structure records which.  The per-block weights w_i aggregate the
component gradient-Lipschitz constants touching block i and induce the
weighted norm ||x||_w^2 = sum_i w_i ||x_i||^2 that governs stepsizes and all
rate estimates.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, StructureError


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


@dataclass(frozen=True)
class BipartiteStructure:
    """Incidence between smooth components and variable blocks.

    blocks_of[j] lists the blocks component j reads; components_of[i] lists
    the components touching block i.  The two views are transposes of each
    other.  max_blocks_per_component and max_components_per_block are the
    separability measures that enter the rate estimates.
    """

    num_blocks: int
    num_components: int
    blocks_of: tuple
    components_of: tuple
    max_blocks_per_component: int
    max_components_per_block: int


def build_structure(pairs, num_blocks, num_components):
    """Build a BipartiteStructure from (component, block) incidence pairs.

    Raises InputError for out-of-range indices or duplicate pairs, and
    StructureError for a component that touches no block.
    """
    if num_blocks < 1 or num_components < 1:
        raise InputError("num_blocks and num_components must be >= 1")
    blocks_of = [[] for _ in range(num_components)]
    components_of = [[] for _ in range(num_blocks)]
    seen = set()
    for j, i in pairs:
        j = int(j)
        i = int(i)
        if not 0 <= j < num_components:
            raise InputError(f"component index {j} out of range [0, {num_components})")
        if not 0 <= i < num_blocks:
            raise InputError(f"block index {i} out of range [0, {num_blocks})")
        if (j, i) in seen:
            raise InputError(f"duplicate incidence pair (component {j}, block {i})")
        seen.add((j, i))
        blocks_of[j].append(i)
        components_of[i].append(j)
    for j, blocks in enumerate(blocks_of):
        if not blocks:
            raise StructureError(f"component {j} touches no block")
    blocks_of = tuple(np.array(sorted(b), dtype=np.int64) for b in blocks_of)
    components_of = tuple(np.array(sorted(c), dtype=np.int64) for c in components_of)
    return BipartiteStructure(
        num_blocks=num_blocks,
        num_components=num_components,
        blocks_of=blocks_of,
        components_of=components_of,
        max_blocks_per_component=max(len(b) for b in blocks_of),
        max_components_per_block=max((len(c) for c in components_of), default=0),
    )


@dataclass(frozen=True)
class BlockWeights:
    """Diagonal step weights: w_i multiplies the identity on block i."""

    diag: np.ndarray


def compute_block_weights(structure, lipschitz):
    """Aggregate component Lipschitz constants into per-block weights.

    w_i is the sum of the constants of all components touching block i.
    Every constant must be strictly positive; zero-curvature components
    (e.g. an all-zero data row) must be dropped by the caller beforehand.
    """
    lipschitz = np.asarray(lipschitz, dtype=float)
    if lipschitz.size != structure.num_components:
        raise InputError("need one Lipschitz constant per smooth component")
    if np.any(~np.isfinite(lipschitz)) or np.any(lipschitz <= 0.0):
        bad = int(np.argmin(lipschitz))
        raise InputError(
            f"component {bad} has non-positive Lipschitz constant "
            f"{lipschitz[bad]!r}; drop degenerate components before assembly"
        )
    diag = np.zeros(structure.num_blocks)
    for j, blocks in enumerate(structure.blocks_of):
        diag[blocks] += lipschitz[j]
    if np.any(diag <= 0.0):
        bad = int(np.argmin(diag))
        raise StructureError(f"block {bad} is touched by no component, weight 0")
    return BlockWeights(diag=diag)


def weighted_norm(x, coord_weights):
    """||x||_w with per-coordinate weights (use BlockPartition.expand)."""
    return float(np.sqrt(np.dot(coord_weights * x, x)))


def weighted_norm_inv(x, coord_weights):
    """||x||_{w^-1}, the dual norm of the weighted norm."""
    return float(np.sqrt(np.dot(x / coord_weights, x)))
