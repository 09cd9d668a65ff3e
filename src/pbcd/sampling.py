"""Random block-index set generation for the sampled descent iterations.

Two schemes, both with marginal inclusion probability batch_size / num_blocks:

* "uniform-subset" -- every subset of the requested size is equiprobable,
  drawn by a partial Fisher-Yates shuffle (O(batch) amortized, exactly
  uniform).
* "shuffle-partition" -- a random permutation of the blocks is cut into
  consecutive cells of the batch size; draws cycle through the cells and the
  permutation is reshuffled at every epoch.  Requires the batch size to
  divide the block count.

The generator is counter-based (Philox) with published constants, so draw
sequences are reproducible bit-for-bit across platforms for a fixed seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

SCHEMES = ("uniform-subset", "shuffle-partition")


@dataclass(frozen=True)
class SamplerConfig:
    batch_size: int
    scheme: str = "uniform-subset"
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InputError(f"unknown sampling scheme {self.scheme!r}")
        if self.batch_size < 1:
            raise InputError("batch size must be >= 1")


class BlockSampler:
    """Single-owner mutable sampler; one instance per solver run."""

    def __init__(self, config, num_blocks):
        if config.batch_size > num_blocks:
            raise InputError(
                f"batch size {config.batch_size} exceeds block count {num_blocks}")
        if config.scheme == "shuffle-partition" and num_blocks % config.batch_size:
            raise InputError(
                "shuffle-partition sampling needs the batch size to divide "
                f"the block count ({config.batch_size} does not divide {num_blocks})")
        self.config = config
        self.num_blocks = num_blocks
        self._rng = np.random.Generator(np.random.Philox(config.seed))
        self._perm = np.arange(num_blocks, dtype=np.int64)
        self._cell = 0

    def draw(self):
        """Next index set, sorted ascending, of size batch_size."""
        tau = self.config.batch_size
        n = self.num_blocks
        if self.config.scheme == "uniform-subset":
            # partial Fisher-Yates on the identity: step t swaps positions t
            # and ranks[t] >= t; `moved` holds the displaced entries
            ranks = self._rng.integers(np.arange(tau), n).tolist()
            moved, out = {}, []
            for t, r in enumerate(ranks):
                out.append(moved.get(r, r))
                moved[r] = moved.get(t, t)
            return np.sort(np.array(out, dtype=np.int64))
        if self._cell == 0:
            self._rng.shuffle(self._perm)
        out = np.sort(self._perm[self._cell * tau:(self._cell + 1) * tau].copy())
        self._cell = (self._cell + 1) % (n // tau)
        return out
