"""Random block-index set generation for the sampled descent iterations.

Two schemes, both with marginal inclusion probability batch_size / num_blocks:

* "uniform-subset" -- every subset of the requested size is equiprobable,
  drawn by a partial Fisher-Yates shuffle (O(batch) amortized, exactly
  uniform).
* "shuffle-partition" -- a random permutation of the blocks is cut into
  consecutive cells of the batch size; draws cycle through the cells and the
  permutation is reshuffled at every epoch.  Requires the batch size to
  divide the block count.

Draws come in chunks, so a caller can prepare a whole chunk at once:
draw_chunk() returns the rest of the current chunk as one array, draw() its
next row.  A shuffle-partition chunk is one epoch.  A uniform-subset chunk
is ceil(num_blocks / batch_size) draws whose ranks come from one
rng.integers call, which uses up the generator's stream exactly as one call
per draw does; so the draw sequence of a seed does not depend on how it is
split into draw() and draw_chunk() calls.

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
        self._chunk = np.zeros((0, config.batch_size), dtype=np.int64)
        self._next = 0

    def _new_chunk(self):
        tau = self.config.batch_size
        n = self.num_blocks
        if self.config.scheme == "shuffle-partition":
            self._rng.shuffle(self._perm)
            return np.sort(self._perm.reshape(-1, tau), axis=1)
        # partial Fisher-Yates on the identity, per draw: step t swaps
        # positions t and ranks[t] >= t; `moved` holds the displaced entries
        count = -(-n // tau)
        ranks = self._rng.integers(np.tile(np.arange(tau), count), n)
        out = []
        for row in ranks.reshape(count, tau).tolist():
            moved = {}
            for t, r in enumerate(row):
                out.append(moved.get(r, r))
                moved[r] = moved.get(t, t)
        return np.sort(np.array(out, dtype=np.int64).reshape(count, tau), axis=1)

    def _rest(self):
        if self._next == len(self._chunk):
            self._chunk, self._next = self._new_chunk(), 0
        return self._chunk[self._next:]

    def draw_chunk(self):
        """The rest of the current chunk: a (C, batch_size) array, one
        sorted index set per row, in draw order."""
        out = self._rest()
        self._next = len(self._chunk)
        return out

    def draw(self):
        """Next index set, sorted ascending, of size batch_size."""
        out = self._rest()[0]
        self._next += 1
        return out
