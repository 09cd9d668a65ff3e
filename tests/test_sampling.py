import numpy as np
import pytest

from pbcd.errors import InputError
from pbcd.sampling import SCHEMES, BlockSampler, SamplerConfig

from oracles import PerCallSampler, all_subsets_of_size


def test_full_batch_always_everything():
    s = BlockSampler(SamplerConfig(batch_size=4, seed=3), num_blocks=4)
    for _ in range(10):
        assert np.array_equal(s.draw(), [0, 1, 2, 3])


# First uniform-subset draws of seed 5 on 10 blocks (and of seed 9 at batch
# 17 of 37), as produced by one rng.integers(t, n) call per rank; drawing
# all ranks in one call must consume the Philox stream the same way.
PINNED_DRAWS = {
    (10, 1, 5): [[8], [8], [1], [9]],
    (10, 3, 5): [[0, 3, 8], [5, 8, 9], [1, 2, 6], [2, 5, 6]],
    (10, 10, 5): [list(range(10))] * 4,
    (37, 17, 9): [[0, 1, 3, 4, 8, 10, 14, 16, 19, 21, 26, 27, 28, 29, 32, 34, 36],
                  [2, 3, 4, 6, 7, 8, 10, 12, 15, 16, 21, 22, 27, 28, 29, 30, 36]],
}


@pytest.mark.parametrize("n,tau,seed", sorted(PINNED_DRAWS))
def test_uniform_subset_pinned_draws(n, tau, seed):
    s = BlockSampler(SamplerConfig(tau, seed=seed), n)
    want = PINNED_DRAWS[(n, tau, seed)]
    assert [s.draw().tolist() for _ in want] == want


def test_same_seed_same_sequence():
    for scheme in ("uniform-subset", "shuffle-partition"):
        a = BlockSampler(SamplerConfig(2, scheme, seed=42), 6)
        b = BlockSampler(SamplerConfig(2, scheme, seed=42), 6)
        draws_a = [a.draw() for _ in range(50)]
        draws_b = [b.draw() for _ in range(50)]
        assert all(np.array_equal(x, y) for x, y in zip(draws_a, draws_b))
        c = BlockSampler(SamplerConfig(2, scheme, seed=43), 6)
        draws_c = [c.draw() for _ in range(50)]
        assert any(not np.array_equal(x, y)
                   for x, y in zip(draws_a, draws_c))


def test_draws_are_sorted_unique_correct_size():
    for scheme in ("uniform-subset", "shuffle-partition"):
        s = BlockSampler(SamplerConfig(3, scheme, seed=0), 9)
        for _ in range(200):
            out = s.draw()
            assert out.size == 3
            assert np.all(np.diff(out) > 0)
            assert out.min() >= 0 and out.max() < 9


def test_single_block_marginals():
    n, draws = 8, 20000
    s = BlockSampler(SamplerConfig(1, seed=7), n)
    counts = np.zeros(n)
    for _ in range(draws):
        counts[s.draw()[0]] += 1
    p = 1.0 / n
    sigma = np.sqrt(p * (1 - p) / draws)
    assert np.all(np.abs(counts / draws - p) <= 3 * sigma)


def test_pairs_uniform_over_enumerated_subsets():
    # brute-force enumeration gives 6 pairs for 4 blocks taken 2 at a time
    pairs = all_subsets_of_size(4, 2)
    assert len(pairs) == 6
    draws = 30000
    s = BlockSampler(SamplerConfig(2, seed=5), 4)
    counts = {p: 0 for p in pairs}
    for _ in range(draws):
        counts[tuple(s.draw())] += 1
    p = 1.0 / 6.0
    sigma = np.sqrt(p * (1 - p) / draws)
    for c in counts.values():
        assert abs(c / draws - p) <= 3 * sigma


def test_expected_sum_identity():
    # E[sum_{i in S} theta_i] = (batch/n) * sum theta_i
    rng = np.random.default_rng(11)
    n, batch, draws = 10, 3, 20000
    theta = rng.normal(size=n)
    s = BlockSampler(SamplerConfig(batch, seed=13), n)
    vals = np.empty(draws)
    for d in range(draws):
        vals[d] = theta[s.draw()].sum()
    want = batch / n * theta.sum()
    se = vals.std(ddof=1) / np.sqrt(draws)
    assert abs(vals.mean() - want) <= 3 * se


def test_shuffle_partition_covers_each_epoch():
    n, batch = 12, 3
    s = BlockSampler(SamplerConfig(batch, "shuffle-partition", seed=1), n)
    for _ in range(5):
        seen = np.concatenate([s.draw() for _ in range(n // batch)])
        assert np.array_equal(np.sort(seen), np.arange(n))


def test_shuffle_partition_marginals():
    n, batch, draws = 8, 2, 4000
    s = BlockSampler(SamplerConfig(batch, "shuffle-partition", seed=3), n)
    counts = np.zeros(n)
    for _ in range(draws):
        counts[s.draw()] += 1
    p = batch / n
    sigma = np.sqrt(p * (1 - p) / draws)
    assert np.all(np.abs(counts / draws - p) <= 4 * sigma)


def test_invalid_configs():
    with pytest.raises(InputError):
        SamplerConfig(0)
    with pytest.raises(InputError):
        SamplerConfig(2, "bogus")
    with pytest.raises(InputError):
        BlockSampler(SamplerConfig(5), 4)
    with pytest.raises(InputError):
        BlockSampler(SamplerConfig(3, "shuffle-partition"), 8)


# -- chunks of draws -----------------------------------------------------------

STREAM_CASES = [(10, 1, 5), (10, 5, 5), (10, 10, 5), (12, 3, 1), (12, 4, 7),
                (36, 6, 11), (40, 4, 23), (1000, 200, 3)]


def chunk_size(scheme, n, tau):
    return n // tau if scheme == "shuffle-partition" else -(-n // tau)


@pytest.mark.parametrize("scheme,n,tau,seed", [
    (scheme,) + case for scheme in SCHEMES for case in STREAM_CASES
] + [("uniform-subset", 10, 3, 5), ("uniform-subset", 37, 17, 9)])
def test_chunk_rows_continue_the_draw_stream(scheme, n, tau, seed):
    chunked = BlockSampler(SamplerConfig(tau, scheme, seed=seed), n)
    single = BlockSampler(SamplerConfig(tau, scheme, seed=seed), n)
    full = chunk_size(scheme, n, tau)
    # whole chunks, draw() calls between chunks (also right at a chunk's
    # end), and chunks that return a chunk's rest after a draw(): the
    # sequence runs over several epochs of shuffle-partition
    pattern = ["chunk", "draw", "chunk", "chunk", "draw", "draw", "chunk"] * 3
    used = 0
    for call in pattern:
        if call == "draw":
            rows = chunked.draw()[None, :]
        else:
            rows = chunked.draw_chunk()
            assert rows.shape == (full - used % full, tau)
        assert rows.dtype == np.int64
        assert np.all(np.diff(rows, axis=1) > 0)
        for row in rows:
            assert np.array_equal(row, single.draw())
        used += len(rows)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n,tau,seed", STREAM_CASES)
def test_draw_sequence_unchanged_from_one_call_per_draw(scheme, n, tau, seed):
    sampler = BlockSampler(SamplerConfig(tau, scheme, seed=seed), n)
    oracle = PerCallSampler(SamplerConfig(tau, scheme, seed=seed), n)
    chunks = [sampler.draw_chunk() for _ in range(4)]
    assert [len(c) for c in chunks] == [chunk_size(scheme, n, tau)] * 4
    for row in np.concatenate(chunks):
        assert np.array_equal(row, oracle.draw())


def test_shuffle_partition_chunk_is_the_rest_of_an_epoch():
    n, tau = 12, 3
    s = BlockSampler(SamplerConfig(tau, "shuffle-partition", seed=4), n)
    for _ in range(3):
        first = s.draw()
        rest = s.draw_chunk()
        assert len(rest) == n // tau - 1
        assert np.array_equal(np.sort(np.concatenate([first, rest.ravel()])),
                              np.arange(n))
