"""Block partitions, weighted norms, and the block incidence, separability
measures and step weights that CompositeProblem reads off the operator M."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbcd.blocks import BlockPartition, weighted_norm, weighted_norm_inv
from pbcd.errors import InputError, StructureError
from pbcd.problem import CompositeProblem
from pbcd.smooth import DUAL, RESIDUAL, SmoothOperator

from oracles import dense_incidence, incidence_weights


def test_partition_from_sizes():
    part = BlockPartition.from_sizes([2, 3, 1])
    assert part.n == 6
    assert part.num_blocks == 3
    assert np.array_equal(part.offsets, [0, 2, 5, 6])
    x = np.arange(6.0)
    assert np.array_equal(part.block(x, 1), [2.0, 3.0, 4.0])
    assert np.all(np.diff(part.offsets) > 0)


def test_partition_uniform_remainder():
    part = BlockPartition.uniform(7, 3)
    assert np.array_equal(part.block_sizes, [3, 3, 1])


def test_partition_rejects_bad_sizes():
    with pytest.raises(InputError):
        BlockPartition.from_sizes([])
    with pytest.raises(InputError):
        BlockPartition.from_sizes([2, 0])


def entries_operator(entries, n, num_rows=None, scale=None):
    """Residual operator with one component per row from (row, col, value)
    entries; a row's constant is its squared norm over its scale."""
    rows, cols, vals = (list(a) for a in zip(*entries))
    m = num_rows or max(rows) + 1
    scale = np.ones(m) if scale is None else scale
    return SmoothOperator.from_entries(n, rows, cols, vals, np.full(m, RESIDUAL),
                                       np.zeros(m), scale, np.arange(m))


def entries_problem(entries, num_blocks, block_size=1, **kw):
    part = BlockPartition.uniform(num_blocks * block_size, block_size)
    return CompositeProblem(part, entries_operator(entries, part.n, **kw))


def test_structure_diagonal():
    prob = entries_problem([(0, 0, 2.0), (1, 1, 3.0)], num_blocks=2)
    assert prob.max_blocks_per_component == 1
    assert prob.max_components_per_block == 1


def test_structure_single_wide_component():
    # one component reading both blocks: hand count 2
    prob = entries_problem([(0, 0, 1.0), (0, 1, 1.0)], num_blocks=2)
    assert prob.max_blocks_per_component == 2
    assert prob.max_components_per_block == 1


def test_structure_column_linked_block_angular():
    # component 0 reads every block (its first column), component j >= 1
    # only block j (its last column)
    nbar = 5
    for size in (1, 3):
        entries = ([(0, i * size, 1.0) for i in range(nbar)]
                   + [(j, j * size + size - 1, 1.0) for j in range(1, nbar)])
        prob = entries_problem(entries, num_blocks=nbar, block_size=size)
        assert prob.max_components_per_block == 2
        assert prob.max_blocks_per_component == 5


def test_structure_errors():
    # component 1 has a row but no entry
    with pytest.raises(StructureError, match="component 1"):
        entries_problem([(0, 0, 1.0)], num_blocks=1, num_rows=2)
    with pytest.raises(InputError, match="out of range"):
        entries_operator([(0, 5, 1.0)], n=2)
    with pytest.raises(InputError, match="out of range"):
        entries_operator([(2, 0, 1.0)], n=2, num_rows=1)
    with pytest.raises(InputError, match="duplicate"):
        entries_operator([(0, 0, 1.0), (0, 0, 2.0)], n=1)
    empty = SmoothOperator.from_entries(1, [], [], [], [], [], [], [])
    with pytest.raises(InputError, match="at least one smooth component"):
        CompositeProblem(BlockPartition.uniform(1, 1), empty)


def test_weights_diagonal():
    prob = entries_problem([(0, 0, 2.0), (1, 1, 3.0)], num_blocks=2)
    assert np.array_equal(prob.weights, [4.0, 9.0])


def test_weights_shared_component():
    prob = entries_problem([(0, 0, 1.0), (0, 1, 1.0)], num_blocks=2)
    assert np.array_equal(prob.weights, [2.0, 2.0])


def test_weights_sum_on_shared_block():
    # pairs (0,0) (1,0) (2,0) (1,1) (2,2), every constant 1
    entries = [(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]
    prob = entries_problem(entries, num_blocks=3, scale=np.array([1.0, 2.0, 2.0]))
    assert np.array_equal(prob.smooth.lipschitz, [1.0, 1.0, 1.0])
    assert prob.weights[0] == 3.0


def test_weights_reject_nonpositive():
    # an explicit zero touches block 1 but gives component 1 no curvature
    with pytest.raises(InputError, match="component 1"):
        entries_problem([(0, 0, 1.0), (1, 1, 0.0)], num_blocks=2)
    # a squared norm that overflows is not a usable constant either, for a
    # one-row component and for the dense spectral norm of a two-row one
    with pytest.raises(InputError, match="component 1"):
        entries_problem([(0, 0, 1.0), (1, 1, 1e200)], num_blocks=2)
    op = SmoothOperator.from_entries(2, [0, 0, 1, 1], [0, 1, 0, 1],
                                     [1e200, 1.0, 1.0, 2.0], np.full(2, RESIDUAL),
                                     np.zeros(2), np.ones(2), [0, 0])
    with pytest.raises(InputError, match="component 0"):
        CompositeProblem(BlockPartition.uniform(2, 1), op)


def test_weights_reject_untouched_block():
    with pytest.raises(StructureError, match="block 1"):
        entries_problem([(0, 0, 1.0)], num_blocks=2)


def test_weight_bound_by_block_degree():
    rng = np.random.default_rng(3)
    for _ in range(20):
        nb, nc = int(rng.integers(2, 8)), int(rng.integers(2, 10))
        pairs = {(j, int(rng.integers(nb))) for j in range(nc)}
        for i in range(nb):
            pairs.add((int(rng.integers(nc)), i))
        prob = entries_problem([(j, i, float(rng.uniform(0.3, 2.2)))
                                for j, i in sorted(pairs)], nb)
        bound = prob.max_components_per_block * prob.smooth.lipschitz.max()
        assert np.all(prob.weights <= bound + 1e-12)


@st.composite
def incidence_patterns(draw):
    """Random operators: blocks of one or more columns, components of one or
    two rows, explicit zeros, and blocks shared between components.  Most
    patterns give every row and every block an entry; the rest may leave a
    component or a block without one."""
    num_blocks, size = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    num_comps = draw(st.integers(1, 5))
    component = np.repeat(np.arange(num_comps), draw(st.lists(
        st.integers(1, 2), min_size=num_comps, max_size=num_comps)))
    m, n = component.size, num_blocks * size
    row, col = st.integers(0, m - 1), st.integers(0, n - 1)
    cells = draw(st.sets(st.tuples(row, col), min_size=1, max_size=n + 2))
    if draw(st.integers(0, 3)):
        cells |= {(r, draw(col)) for r in range(m)}
        cells |= {(draw(row), i * size + draw(st.integers(0, size - 1)))
                  for i in range(num_blocks)}
    cells = sorted(cells)
    vals = draw(st.lists(st.sampled_from((0.0, 1.0, -2.0, 0.375, 1.5, -0.5)),
                         min_size=len(cells), max_size=len(cells)))
    family = np.array(draw(st.lists(st.sampled_from((RESIDUAL, DUAL)),
                                    min_size=num_comps, max_size=num_comps)))
    scale = np.array(draw(st.lists(st.sampled_from((0.5, 1.0, 3.0)),
                                   min_size=num_comps, max_size=num_comps)))
    rows, cols = zip(*cells)
    op = SmoothOperator.from_entries(n, rows, cols, vals, family[component],
                                     np.ones(m), scale[component], component)
    return BlockPartition.uniform(n, size), op


@settings(max_examples=200, deadline=None)
@given(pattern=incidence_patterns())
def test_incidence_matches_dense_oracle(pattern):
    part, op = pattern
    inc = dense_incidence(op, part)
    if not inc.any(axis=1).all():
        with pytest.raises(StructureError, match="component"):
            CompositeProblem(part, op)
        return
    if not np.all(op.lipschitz > 0.0):
        with pytest.raises(InputError, match="Lipschitz"):
            CompositeProblem(part, op)
        return
    if not inc.any(axis=0).all():
        with pytest.raises(StructureError, match="block"):
            CompositeProblem(part, op)
        return
    prob = CompositeProblem(part, op)
    assert prob.max_blocks_per_component == inc.sum(axis=1).max()
    assert prob.max_components_per_block == inc.sum(axis=0).max()
    assert prob.weights.tolist() == incidence_weights(inc, op.lipschitz)


def test_weighted_norms():
    part = BlockPartition.from_sizes([1, 2])
    cw = part.expand([4.0, 9.0])
    x = np.array([1.0, 2.0, -1.0])
    assert weighted_norm(x, cw) == pytest.approx(np.sqrt(4 + 36 + 9), rel=1e-15)
    assert weighted_norm_inv(x, cw) == pytest.approx(
        np.sqrt(1 / 4 + 4 / 9 + 1 / 9), rel=1e-15)


def test_weighted_norms_do_not_depend_on_memory_layout():
    rng = np.random.default_rng(0)
    cw = rng.uniform(0.5, 2.0, size=300)
    for row in np.asfortranarray(rng.normal(size=(200, 300))):
        assert not row.flags.c_contiguous
        copy = row.copy()
        assert weighted_norm(row, cw) == weighted_norm(copy, cw)
        assert weighted_norm_inv(row, cw) == weighted_norm_inv(copy, cw)
        # contiguous input is summed as it always was, with no copy
        assert weighted_norm(copy, cw) == float(np.sqrt(np.dot(cw * copy, copy)))
        assert weighted_norm_inv(copy, cw) == float(np.sqrt(np.dot(copy / cw, copy)))
