"""Gradient, optimizer, and checkpoint contracts of the compute core."""

import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatshare import diffcore as dc
from threatshare.diffcore import checkpoint as ckpt
from threatshare.diffcore.tensor import _result

import diffcore_reference as ref


def rel_err(a, b):
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def fd_check(build_loss, leaves, h=1e-5, tol=1e-5):
    """Central-difference oracle against the taped gradients."""
    for leaf in leaves:
        leaf.grad = None
    dc.backward(build_loss())
    for leaf in leaves:
        flat = leaf.data.reshape(-1)
        grad = leaf.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = build_loss().data.item()
            flat[i] = orig - h
            down = build_loss().data.item()
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            assert rel_err(grad[i], numeric) <= tol, (
                f"entry {i}: analytic {grad[i]}, numeric {numeric}"
            )


def _weighted(t, rng):
    w = dc.Tensor(rng.normal(size=t.shape))
    flat = dc.reshape(dc.mul(t, w), (1, int(np.prod(t.shape))))
    return dc.mse(flat, np.zeros((1, flat.shape[1])))


class TestPrimitiveGradients:
    """Finite differences against every primitive at random points."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def leaf(self, *shape):
        return dc.Tensor(self.rng.normal(size=shape) + 0.1, requires_grad=True)

    def test_add_mul(self):
        a, b = self.leaf(3, 4), self.leaf(3, 4)
        fd_check(lambda: _weighted(dc.add(a, b), np.random.default_rng(1)), [a, b])
        fd_check(lambda: _weighted(dc.mul(a, b), np.random.default_rng(3)), [a, b])

    def test_broadcast_add(self):
        a, b = self.leaf(3, 4), self.leaf(1, 4)
        fd_check(lambda: _weighted(dc.add(a, b), np.random.default_rng(4)), [a, b])

    def test_matmul(self):
        a, b = self.leaf(3, 5), self.leaf(5, 2)
        fd_check(lambda: _weighted(dc.matmul(a, b), np.random.default_rng(5)), [a, b])

    def test_reshape_concat(self):
        a, b = self.leaf(3, 4), self.leaf(3, 2)
        fd_check(lambda: _weighted(dc.reshape(a, (4, 3)), np.random.default_rng(7)), [a])
        fd_check(
            lambda: _weighted(dc.concat([a, b], axis=1), np.random.default_rng(8)),
            [a, b],
        )

    def test_relu_leaky(self):
        a = self.leaf(4, 4)
        fd_check(lambda: _weighted(dc.relu(a), np.random.default_rng(9)), [a])
        fd_check(lambda: _weighted(dc.leaky_relu(a, 0.2), np.random.default_rng(10)), [a])

    def test_softmax_plain_and_masked(self):
        # row softmax of a (4, 5) matrix: four blocks of 5 rows, the first
        # row of each the query of a pair with every row of its block
        a = self.leaf(20, 2)
        queries, keys = np.repeat(5 * np.arange(4), 5), np.arange(20)
        blocks = dc.Blocks([5] * 4, 2)
        plan = _pair_plan(blocks, queries, keys)
        fd_check(lambda: _weighted(dc.pair_softmax(a, plan), np.random.default_rng(11)), [a])
        # masked: only the kept pairs of each query form its segment
        keep = np.random.default_rng(0).uniform(size=20) > 0.4
        keep[::5] = True
        masked = _pair_plan(blocks, queries[keep], keys[keep])
        fd_check(
            lambda: _weighted(
                dc.pair_softmax(dc.gather_rows(a, np.flatnonzero(keep)), masked),
                np.random.default_rng(12),
            ),
            [a],
        )

    def test_linear(self):
        x, w, b = self.leaf(4, 3), self.leaf(3, 2), self.leaf(1, 2)
        fd_check(lambda: _weighted(dc.linear(x, w, b), np.random.default_rng(6)), [x, w, b])

    def test_layer_norm(self):
        a, r = self.leaf(3, 6), self.leaf(3, 6)
        g, b = self.leaf(1, 6), self.leaf(1, 6)
        fd_check(
            lambda: _weighted(dc.layer_norm(a, r, g, b), np.random.default_rng(13)),
            [a, r, g, b],
        )

    def test_reductions(self):
        a = self.leaf(5, 3)
        # segment 1 is empty and segment 3 has one row
        seg = np.array([0, 0, 2, 2, 3])
        fd_check(lambda: _weighted(dc.segment_sum(a, seg, 4), np.random.default_rng(14)), [a])

    def test_gather_rows(self):
        a = self.leaf(4, 3)
        idx = np.array([2, 0, 2, 3, 2])  # repeats, and row 1 never read
        fd_check(lambda: _weighted(dc.gather_rows(a, idx), np.random.default_rng(15)), [a])

    # blocks of 3, 0, 1 and 2 rows; all but the first are padded to 3 rows
    SIZES = [3, 0, 1, 2]

    def test_block_scores(self):
        q, k, bias = self.leaf(6, 6), self.leaf(6, 6), self.leaf(9 + 1 + 4, 3)
        blocks = dc.Blocks(self.SIZES, 3)
        fd_check(
            lambda: _weighted(dc.block_scores(q, k, bias, blocks, 0.5), np.random.default_rng(16)),
            [q, k, bias],
        )

    def test_block_softmax(self):
        # the padded rows and keys are read too: their weights are finite
        a = self.leaf(4, 2, 3, 3)
        blocks = dc.Blocks(self.SIZES, 2)
        fd_check(lambda: _weighted(dc.block_softmax(a, blocks), np.random.default_rng(18)), [a])

    def test_block_mix(self):
        alpha, v = self.leaf(4, 2, 3, 3), self.leaf(6, 4)
        blocks = dc.Blocks(self.SIZES, 2)
        fd_check(
            lambda: _weighted(dc.block_mix(alpha, v, blocks), np.random.default_rng(17)), [alpha, v]
        )

    def test_losses(self):
        a, t = self.leaf(2, 3), self.leaf(2, 3)
        fd_check(lambda: dc.mse(a, t), [a, t])


class TestOpValues:
    def test_relu_values(self):
        assert dc.relu(dc.Tensor([[-1.0, 2.0]])).data.tolist() == [[0.0, 2.0]]

    def test_activation_zero_signs_and_slope_contract(self):
        # the select forms: relu(-0.0) is +0.0, leaky_relu(-0.0) is slope * -0.0
        assert not np.signbit(dc.relu(dc.Tensor([[-0.0]])).data[0, 0])
        assert np.signbit(dc.leaky_relu(dc.Tensor([[-0.0]]), 0.2).data[0, 0])
        # max(a, slope * a) is the select form only for a slope in [0, 1]
        for slope in (1.5, -0.1, float("nan")):
            with pytest.raises(dc.NumericError, match="leaky_relu: slope"):
                dc.leaky_relu(dc.Tensor([[-1.0, 2.0]]), slope)

    def test_softmax_single_unmasked_entry(self):
        blocks = dc.Blocks([1, 2], 1)
        out = dc.pair_softmax(dc.Tensor([[5.0], [-1.0], [2.0]]), _pair_plan(blocks, [0, 1, 1], [0, 1, 2]))
        assert out.data[0, 0, 0, 0] == 1.0
        out = dc.block_softmax(dc.Tensor(np.full((2, 1, 2, 2), 3.0)), blocks)
        assert out.data[0, 0, 0].tolist() == [1.0, 0.0]

    def test_mse_zero(self):
        assert dc.mse(dc.Tensor([[1.0, 2.0]]), dc.Tensor([[1.0, 2.0]])).data.item() == 0.0

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        # 30 blocks of 1-8 rows; each pair of rows of a block kept at random
        sizes = rng.integers(1, 9, size=30)
        q_idx, k_idx = _all_pairs(sizes)
        keep = rng.uniform(size=q_idx.size) < 0.6
        blocks = dc.Blocks(sizes, 4)
        plan = _pair_plan(blocks, q_idx[keep], k_idx[keep])
        y = dc.pair_softmax(dc.Tensor(rng.normal(size=(keep.sum(), 4)) * 5), plan)
        # each query's row sums to 1, and a row without pairs to 0
        sums = blocks.unpad(y.data.sum(axis=3)[..., None])
        has_pairs = np.isin(np.arange(sizes.sum()), q_idx[keep])
        np.testing.assert_allclose(sums[has_pairs], 1.0, atol=1e-12)
        assert not sums[~has_pairs].any()
        y = dc.block_softmax(dc.Tensor(rng.normal(size=y.shape) * 5), blocks)
        np.testing.assert_allclose(y.data.sum(axis=3), 1.0, atol=1e-12)

    def test_layer_norm_constant_row_is_zero(self):
        # the row and its residual sum to a constant row
        out = dc.layer_norm(
            dc.Tensor([[1.0, 2.0, 3.0, 4.0]]),
            dc.Tensor([[2.0, 1.0, 0.0, -1.0]]),
            dc.Tensor([[1.0] * 4]),
            dc.Tensor([[0.0] * 4]),
        )
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_linear_is_matmul_plus_bias(self):
        rng = np.random.default_rng(4)
        x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 2)), rng.normal(size=(1, 2))
        np.testing.assert_array_equal(dc.linear(x, w, b).data, x @ w + b)

    def test_shape_mismatch_names_op(self):
        with pytest.raises(dc.ShapeError, match="matmul"):
            dc.matmul(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((2, 3))))
        with pytest.raises(dc.ShapeError, match="mse"):
            dc.mse(dc.Tensor(np.ones((2, 2))), dc.Tensor(np.ones((1, 2))))
        x, w = np.ones((4, 3)), np.ones((3, 2))
        with pytest.raises(dc.ShapeError, match="linear: shapes"):
            dc.linear(x, w.T, np.ones((1, 2)))
        for bias in (np.ones((1, 3)), np.ones(2), np.ones((4, 2))):
            with pytest.raises(dc.ShapeError, match="linear: bias"):
                dc.linear(x, w, bias)
        ones = np.ones((1, 3))
        with pytest.raises(dc.ShapeError, match="layer_norm: data .* residual"):
            dc.layer_norm(x, np.ones((4, 1)), ones, ones)
        with pytest.raises(dc.ShapeError, match="layer_norm: data .* gain"):
            dc.layer_norm(x, x, np.ones((1, 2)), ones)

    def test_non_finite_output_raises(self):
        big = dc.Tensor(np.full((2, 2), 1e200), requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(dc.NumericError):
            dc.mul(big, big)


def _all_pairs(sizes):
    """Every ordered (query, key) pair of rows inside each block, sorted by query."""
    sizes = np.asarray(sizes)
    offsets = np.cumsum(sizes) - sizes
    q = np.concatenate([o + np.repeat(np.arange(n), n) for o, n in zip(offsets, sizes)] + [[]])
    k = np.concatenate([o + np.tile(np.arange(n), n) for o, n in zip(offsets, sizes)] + [[]])
    return q.astype(np.intp), k.astype(np.intp)


def _pair_plan(blocks, q_idx, k_idx):
    """The ``PairPlan`` of the mask set at the row pairs (q_idx, k_idx) of
    the pack, which must be distinct, each inside one block and sorted by
    query then key: the plan's pairs are then these, in this order."""
    q, k = np.asarray(q_idx, dtype=np.intp), np.asarray(k_idx, dtype=np.intp)
    block = np.repeat(np.arange(blocks.n_blocks), blocks.sizes)
    local = np.arange(blocks.n_rows) - (np.cumsum(blocks.sizes) - blocks.sizes)[block]
    w = blocks.width
    cells = (block[q] * w + local[q]) * w + local[k]
    assert (block[k] == block[q]).all() and (np.diff(cells) > 0).all()
    mask = np.zeros(blocks.n_blocks * w * w, bool)
    mask[cells] = True
    return dc.PairPlan(blocks, mask.reshape(blocks.n_blocks, w, w))


class TestIndexOps:
    """The pack ops against loops over their definitions."""

    def test_pair_ops_match_loops(self):
        rng = np.random.default_rng(21)
        q, k, v = (rng.normal(size=(7, 6)) for _ in range(3))
        sizes = [4, 3]  # the second block is padded to 4 rows
        blocks = dc.Blocks(sizes, 2)
        q_idx, k_idx = _all_pairs(sizes)
        bias = rng.normal(size=(q_idx.size, 2))
        alpha = rng.normal(size=(2, 2, 4, 4))
        scores = dc.block_scores(q, k, bias, blocks, 0.5).data
        mixed = dc.block_mix(alpha, v, blocks).data
        local = np.array([0, 1, 2, 3, 0, 1, 2])
        want_mix = np.zeros((7, 6))
        for p, (i, j) in enumerate(zip(q_idx, k_idx)):
            b, li, lj = int(i >= 4), local[i], local[j]
            for h, c in enumerate((slice(0, 3), slice(3, 6))):
                want = (q[i, c] @ k[j, c] + bias[p, h]) * 0.5
                assert scores[b, h, li, lj] == pytest.approx(want, abs=1e-14)
                want_mix[i, c] += alpha[b, h, li, lj] * v[j, c]
        np.testing.assert_allclose(mixed, want_mix, atol=1e-14, rtol=0)
        # the cells of the padded row and key score 0
        assert not scores[1, :, 3].any() and not scores[1, :, :, 3].any()

    def test_segment_softmax_rows_equal_dense_softmax(self):
        x = np.random.default_rng(22).normal(size=(6, 6)) * 3
        e = np.exp(x - x.max(axis=1, keepdims=True))
        dense = e / e.sum(axis=1, keepdims=True)
        blocks = dc.Blocks([6], 1)
        out = dc.pair_softmax(dc.Tensor(x.reshape(-1, 1)), dc.PairPlan(blocks, np.ones((1, 6, 6), bool)))
        np.testing.assert_array_equal(out.data[0, 0], dense)
        np.testing.assert_array_equal(dc.block_softmax(x[None, None], blocks).data[0, 0], dense)

    def test_softmax_over_no_pairs_is_all_zero(self):
        blocks = dc.Blocks([2, 0, 3], 2)
        a = dc.Tensor(np.zeros((0, 2)), requires_grad=True)
        plan = dc.PairPlan(blocks, np.zeros((3, 3, 3), bool))
        out = dc.pair_softmax(a, plan)
        assert out.shape == (3, 2, 3, 3) and not out.data.any()
        dc.backward(_weighted(dc.block_mix(out, np.ones((5, 4)), blocks), np.random.default_rng(2)))
        assert a.grad.shape == (0, 2)

    def test_gather_gradient_adds_repeats_and_segment_sum_fills_empty(self):
        a = dc.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        total = dc.segment_sum(dc.gather_rows(a, [2, 0, 2]), [0, 0, 2], 4)
        np.testing.assert_array_equal(total.data, [[4.0, 6.0], [0.0, 0.0], [4.0, 5.0], [0.0, 0.0]])
        dc.backward(dc.mse(dc.reshape(total, (1, 8)), np.zeros((1, 8))))
        # d(mean of squares)/d(total) = total / 4; row 2 is read twice, row 1 never
        np.testing.assert_array_equal(a.grad, [[1.0, 1.5], [0.0, 0.0], [2.0, 2.75]])

    def test_bad_indices_raise(self):
        a = dc.Tensor(np.ones((3, 2)))
        with pytest.raises(dc.ShapeError, match="sorted"):
            dc.segment_sum(a, [1, 0, 1], 2)
        with pytest.raises(dc.ShapeError, match="gather_rows"):
            dc.gather_rows(a, [3])
        with pytest.raises(dc.ShapeError, match="blocks: heads must be >= 1"):
            dc.Blocks([3], 0)
        # a plan's mask is the layout's (blocks, w, w)
        blocks = dc.Blocks([2, 1], 2)
        for shape in ((2, 2, 3), (1, 2, 2), (2, 2)):
            with pytest.raises(dc.ShapeError, match=r"pair plan: mask \(.*\) for blocks of \(2, 2, 2\)"):
                dc.PairPlan(blocks, np.ones(shape, bool))
        # an op refuses operands the layout's rows, pairs or heads do not fit
        plan = _pair_plan(blocks, [0, 1, 2], [1, 0, 2])
        stack = np.ones((2, 2, 2, 2))
        with pytest.raises(dc.ShapeError, match="block_mix: shape"):
            dc.block_mix(np.ones((2, 1, 2, 2)), a, blocks)
        with pytest.raises(dc.ShapeError, match="block_mix: shape"):
            dc.block_mix(stack, np.ones((2, 2)), blocks)
        with pytest.raises(dc.ShapeError, match="block_scores: shape"):
            dc.block_scores(np.ones((2, 2)), np.ones((2, 2)), np.ones((5, 2)), blocks, 1.0)
        with pytest.raises(dc.ShapeError, match="block_scores: 3 columns do not split into 2 heads"):
            dc.block_scores(np.ones((3, 3)), np.ones((3, 3)), np.ones((5, 2)), blocks, 1.0)
        with pytest.raises(dc.ShapeError, match="block_scores: bias"):
            dc.block_scores(a, a, np.ones((4, 2)), blocks, 1.0)
        with pytest.raises(dc.ShapeError, match="block_softmax: shape"):
            dc.block_softmax(np.ones((2, 1, 2, 2)), blocks)
        with pytest.raises(dc.ShapeError, match="pair_softmax: shape"):
            dc.pair_softmax(np.ones((2, 2)), plan)

    def test_pair_ops_cost_per_block_not_per_pack(self):
        """100 graphs of 20 rows: one dense (2000 x 2000) product would take
        32 MB per head; block by block, forward and backward stay far below."""
        rng = np.random.default_rng(23)
        sizes, heads = [20] * 100, 4
        q, k, v = (dc.Tensor(rng.normal(size=(2000, 16)), requires_grad=True) for _ in range(3))
        bias = dc.Tensor(rng.normal(size=(100 * 20 * 20, heads)), requires_grad=True)
        tracemalloc.start()
        try:
            blocks = dc.Blocks(sizes, heads)
            alpha = dc.block_softmax(dc.block_scores(q, k, bias, blocks, 0.5), blocks)
            out = dc.block_mix(alpha, v, blocks)
            dc.backward(dc.mse(dc.reshape(out, (1, out.data.size)), np.zeros((1, out.data.size))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(t.grad is not None for t in (q, k, v, bias))
        assert peak < 16 * 2**20, peak


class _Layout(NamedTuple):
    sizes: list
    q: np.ndarray  # the kept pairs, sorted by query
    k: np.ndarray
    gather: list  # rows read, repeats allowed
    seg: list  # sorted segment ids, some segments empty
    n_seg: int
    heads: int
    dh: int
    slope: float
    seed: int


@st.composite
def pack_layouts(draw):
    """Blocks of 0-5 rows (at least one row in all), or blocks of one row
    each, or one block and so no padding; a random subset of each block's
    pairs (maybe none; some rows are in no pair), a gather of as many rows
    with repeats, and sorted segment ids over up to 6 segments."""
    sizes = draw(
        st.one_of(
            st.lists(st.integers(0, 5), min_size=1, max_size=5).filter(any),
            st.lists(st.just(1), min_size=1, max_size=5),
            st.integers(1, 5).map(lambda n: [n]),
        )
    )
    q_all, k_all = _all_pairs(sizes)
    keep = np.array(draw(st.lists(st.booleans(), min_size=q_all.size, max_size=q_all.size)), bool)
    n = sum(sizes)
    rows = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    n_seg = draw(st.integers(1, 6))
    seg = sorted(draw(st.lists(st.integers(0, n_seg - 1), min_size=n, max_size=n)))
    return _Layout(
        sizes, q_all[keep], k_all[keep], draw(rows), seg, n_seg,
        draw(st.integers(1, 3)), draw(st.integers(1, 3)),
        draw(st.sampled_from([0.0, 0.2, 1.0])), draw(st.integers(0, 2**32 - 1)),
    )


SCALE = 3**-0.5


def _transformer_chain(module, lay, leaves):
    """Scores of every pair of each block, their softmax and the weighted sum,
    between a gather and a segment sum, so the backward sweep runs through
    each; returns every op's output, with a (pairs, heads) form of the pair
    ops' outputs to compare."""
    x, bias, z, _ = leaves
    gx = module.gather_rows(x, lay.gather)
    q, k = _all_pairs(lay.sizes)
    if module is dc:
        blocks = dc.Blocks(lay.sizes, lay.heads)
        scores = dc.block_scores(gx, x, bias, blocks, SCALE)
        alpha = dc.block_softmax(scores, blocks)
        mixed = dc.block_mix(alpha, x, blocks)
        pair_outs = [_at_pairs(t.data, lay.sizes, q, k) for t in (scores, alpha)]
    else:
        scores = dc.mul(ref.pair_dot(gx, x, q, k, lay.heads, lay.sizes) + bias, SCALE)
        alpha = ref.segment_softmax(scores, q)
        mixed = ref.pair_mix(alpha, x, q, k, lay.sizes)
        pair_outs = [scores.data, alpha.data]
    out = module.segment_sum(module.relu(mixed + z), lay.seg, lay.n_seg)
    return [gx.data, *pair_outs, mixed.data, out]


def _gat_chain(module, lay, leaves):
    """gat's mixing over the kept pairs: gathered and activated pair scores,
    their softmax over each query's pairs and the weighted sum."""
    x, _, z, s = leaves
    gx = module.gather_rows(x, lay.gather)
    scores = module.leaky_relu(module.gather_rows(s, lay.q) + module.gather_rows(s, lay.k), lay.slope)
    if module is dc:
        blocks = dc.Blocks(lay.sizes, lay.heads)
        alpha = dc.pair_softmax(scores, _pair_plan(blocks, lay.q, lay.k))
        mixed = dc.block_mix(alpha, gx, blocks)
        alpha_pairs = _at_pairs(alpha.data, lay.sizes, lay.q, lay.k)
        assert np.count_nonzero(alpha.data) == np.count_nonzero(alpha_pairs)  # 0 off the pairs
    else:
        alpha = ref.segment_softmax(scores, lay.q)
        mixed = ref.pair_mix(alpha, gx, lay.q, lay.k, lay.sizes)
        alpha_pairs = alpha.data
    out = module.segment_sum(module.relu(mixed + z), lay.seg, lay.n_seg)
    return [gx.data, scores.data, alpha_pairs, mixed.data, out]


def _at_pairs(stack, sizes, q, k):
    """The (pairs, heads) entries of a (blocks, heads, w, w) stack at the
    row pairs (q, k) of the pack."""
    block = np.repeat(np.arange(len(sizes)), sizes)
    local = np.arange(sum(sizes)) - (np.cumsum(sizes) - sizes)[block]
    return stack[block[q], :, local[q], local[k]]


class TestIndexOpsAgainstReference:
    """The take forms, the block ops and the maxima against the fancy-index,
    pair and select forms of ``diffcore_reference``, byte for byte."""

    @given(lay=pack_layouts())
    @settings(max_examples=150, deadline=None)
    def test_outputs_and_gradients_are_bitwise_equal(self, lay):
        for chain in (_transformer_chain, _gat_chain):
            self.check_chain(chain, lay)

    def test_rows_wider_than_eight_keep_their_sum_order(self):
        """numpy sums a row of 9 or more entries pairwise, in blocks of 8,
        so these rows pin where each softmax sums: gat over each query's
        own pairs (its dense row has gaps), the transformer over whole rows."""
        rng = np.random.default_rng(24)
        sizes = [12, 3, 10]
        q_all, k_all = _all_pairs(sizes)
        keep = rng.uniform(size=q_all.size) < 0.85
        n = sum(sizes)
        lay = _Layout(
            sizes, q_all[keep], k_all[keep], list(rng.integers(0, n, n)), list(range(n)), n,
            3, 2, 0.2, 25,
        )
        assert np.bincount(lay.q).max() >= 9 and not keep[:144].all()
        for chain in (_transformer_chain, _gat_chain):
            self.check_chain(chain, lay)

    @staticmethod
    def check_chain(chain, lay):
        rng = np.random.default_rng(lay.seed)
        n, width = sum(lay.sizes), lay.heads * lay.dh
        x = rng.normal(size=(n, width))
        x[rng.uniform(size=x.shape) < 0.2] = 0.0
        x[rng.uniform(size=x.shape) < 0.2] = -0.0
        n_pairs = sum(m * m for m in lay.sizes)
        start = (
            x,
            rng.normal(size=(n_pairs, lay.heads)),
            rng.normal(size=(n, width)),
            rng.normal(size=(n, lay.heads)),
        )
        weights = rng.normal(size=(lay.n_seg, width))
        results = []
        for module in (dc, ref):
            leaves = [dc.Tensor(a.copy(), requires_grad=True) for a in start]
            outs = chain(module, lay, leaves)
            dc.backward(_weighted(dc.mul(outs[-1], weights), np.random.default_rng(0)))
            results.append((outs[:-1] + [outs[-1].data], [t.grad for t in leaves]))
        (outs, grads), (want_outs, want_grads) = results
        for got, want in zip(outs + grads, want_outs + want_grads, strict=True):
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_activations_on_signed_zeros_are_bitwise_equal(self):
        values = np.array([[-0.0, 0.0, -1.5, 2.0, -1e-310, 1e-310, 3.0, -4.0]])
        for slope in (0.0, 0.2, 1.0):
            leaky = (lambda a: dc.leaky_relu(a, slope), lambda a: ref.leaky_relu(a, slope))
            for ops in ((dc.relu, ref.relu), leaky):
                grads = []
                for op in ops:
                    a = dc.Tensor(values.copy(), requires_grad=True)
                    out = op(a)
                    # shifted by 1, so a zero output still passes back a
                    # nonzero gradient and the derivative at 0 shows
                    dc.backward(_weighted(dc.add(out, 1.0), np.random.default_rng(1)))
                    grads.append((out.data.tobytes(), a.grad.tobytes()))
                assert grads[0] == grads[1]


class TestFusedAgainstReference:
    """The layer norm and the backward sweep against ``diffcore_reference``'s
    forms with one new array per step, byte for byte."""

    @pytest.mark.parametrize("shape", [(64, 7), (3, 1)])
    def test_layer_norm_output_and_gradients_are_bitwise_equal(self, shape):
        rng = np.random.default_rng(shape[1])
        start = [
            rng.normal(size=shape),
            rng.normal(size=shape),
            rng.normal(size=(1, shape[1])),
            rng.normal(size=(1, shape[1])),
        ]
        start[0][0], start[1][0] = 1.5, 0.25  # a constant row
        results = []
        for op in (dc.layer_norm, ref.layer_norm):
            leaves = [dc.Tensor(a.copy(), requires_grad=True) for a in start]
            out = op(*leaves)
            dc.backward(_weighted(out, np.random.default_rng(5)))
            results.append([out.data.tobytes()] + [t.grad.tobytes() for t in leaves])
        assert results[0] == results[1]

    def test_accumulation_leaves_a_passed_through_gradient_alone(self):
        """h gets three contributions; the first to arrive is the gradient
        ``add`` passes through unchanged, which z receives too."""
        rng = np.random.default_rng(8)
        start = [rng.normal(size=(3, 4)) for _ in range(3)]
        results = []
        for sweep in (dc.backward, ref.backward):
            passed = []

            def doubled(a):
                def back(g):
                    out = g * 2.0
                    passed.append((out, out.copy()))
                    return out

                return _result(a.data * 2.0, [(a, back)])

            x, y, z = (dc.Tensor(a.copy(), requires_grad=True) for a in start)
            h = dc.mul(x, y)
            r, m = dc.relu(h), dc.mul(h, 3.0)
            a = doubled(dc.add(h, z))
            sweep(_weighted(dc.add(dc.add(a, m), r), np.random.default_rng(9)))
            ((out, snapshot),) = passed
            assert out.tobytes() == snapshot.tobytes()
            results.append([t.grad.tobytes() for t in (x, y, z)])
        assert results[0] == results[1]


class TestBackward:
    def test_square_gradient(self):
        w = dc.Tensor([[1.0]], requires_grad=True)
        dc.backward(dc.mul(w, w))
        assert w.grad.tolist() == [[2.0]]

    def test_accumulation_doubles(self):
        w = dc.Tensor([[1.5]], requires_grad=True)
        dc.backward(dc.mul(w, w))
        first = w.grad.copy()
        dc.backward(dc.mul(w, w))
        np.testing.assert_allclose(w.grad, 2 * first)

    def test_backward_without_forward_raises(self):
        leaf = dc.Tensor([[1.0]], requires_grad=True)
        with pytest.raises(dc.NumericError):
            dc.backward(leaf)

    def test_backward_needs_scalar(self):
        w = dc.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(dc.ShapeError):
            dc.backward(dc.add(w, w))

    def test_shared_subexpression(self):
        # d/dw of (w*w + w*w) = 4w
        w = dc.Tensor([[3.0]], requires_grad=True)
        sq = dc.mul(w, w)
        dc.backward(dc.add(sq, sq))
        assert w.grad.tolist() == [[12.0]]

    def test_diamond_with_unequal_paths(self):
        # s = 2w reaches the loss directly and through four more ops; it may
        # pass its gradient on only once both contributions have arrived
        w = dc.Tensor([[1.5]], requires_grad=True)
        s = dc.mul(w, 2.0)
        long = s
        for _ in range(4):
            long = dc.add(dc.mul(long, 3.0), 1.0)
        dc.backward(dc.add(s, long))
        # d/ds = 1 + 3^4, and ds/dw = 2
        assert w.grad.tolist() == [[2.0 * (1 + 3**4)]]

    def test_long_chain_does_not_recurse(self):
        w = dc.Tensor([[1.0]], requires_grad=True)
        x = w
        for _ in range(10_000):
            x = dc.add(x, w)
        dc.backward(x)
        assert w.grad.tolist() == [[10_001.0]]

    def test_sweep_consumes_the_tape(self):
        w = dc.Tensor([[2.0]], requires_grad=True)
        sq = dc.mul(w, w)
        loss = dc.mul(sq, 3.0)
        dc.backward(loss)
        assert w.grad.tolist() == [[12.0]]
        assert sq.is_leaf and loss.is_leaf and w.requires_grad
        with pytest.raises(dc.NumericError):
            dc.backward(loss)


class TestInit:
    def make_params(self, seed):
        return dc.ParamSet.draw(
            seed,
            [("fc.W", (256, 256), "xavier"), ("fc.b", (1, 256), "zeros"),
             ("conv.W", (64, 64), "kaiming"), ("ln.gain", (1, 8), "ones")],
        )

    def test_bias_zero_gain_one(self):
        p = self.make_params(seed=0)
        assert np.all(p["fc.b"].data == 0.0)
        assert np.all(p["ln.gain"].data == 1.0)

    def test_deterministic_under_seed(self):
        a = self.make_params(seed=9)
        b = self.make_params(seed=9)
        for name, t in a.items():
            np.testing.assert_array_equal(t.data, b[name].data)
        c = self.make_params(seed=10)
        assert not np.array_equal(a["fc.W"].data, c["fc.W"].data)

    def test_xavier_variance(self):
        # sample variance of a 256x256 draw should sit near 2/(fan_in+fan_out)
        p = self.make_params(seed=1)
        target = 2.0 / (256 + 256)
        var = p["fc.W"].data.var()
        assert abs(var - target) / target < 0.2

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter name: w"):
            dc.ParamSet.draw(0, [("w", (2, 2), "xavier"), ("v", (1, 2), "zeros"), ("w", (2, 2), "ones")])

    def test_every_tensor_views_the_flat_buffer(self):
        p = self.make_params(seed=2)
        values = {name: t.data.copy() for name, t in p.items()}
        np.testing.assert_array_equal(p.flat, np.concatenate(list(values.values()), axis=None))
        p.flat += 1.0
        for name, t in p.items():
            np.testing.assert_array_equal(t.data, values[name] + 1.0)

    def test_from_state_takes_exactly_the_named_parameters(self):
        state = {name: t.data.copy() for name, t in self.make_params(seed=2).items()}
        shapes = {name: value.shape for name, value in state.items()}
        with pytest.raises(ValueError, match=r"state missing parameters: \['fc.b'\]"):
            dc.ParamSet.from_state(shapes, {k: v for k, v in state.items() if k != "fc.b"})
        with pytest.raises(ValueError, match=r"unknown parameters: \['extra'\]"):
            dc.ParamSet.from_state(shapes, {**state, "extra": np.zeros(1)})
        with pytest.raises(dc.ShapeError, match="fc.b"):
            dc.ParamSet.from_state(shapes, {**state, "fc.b": np.zeros((256, 1))})
        p = dc.ParamSet.from_state(shapes, state)
        assert [name for name, _ in p.items()] == list(shapes)
        for name, value in state.items():
            np.testing.assert_array_equal(p[name].data, value)
            assert not np.shares_memory(p[name].data, value)


class TestAdam:
    def test_first_step_hand_computed(self):
        # grad=1, fresh state: m_hat=1, v_hat=1 => step = lr/(1+eps)
        p = dc.ParamSet({"w": np.array([[1.0]])})
        w = p["w"]
        w.grad = np.array([[1.0]])
        state = dc.AdamState(lr=1e-4)
        dc.adam_step(state, p)
        expected = 1.0 - 1e-4 * (1.0 / (1.0 + 1e-8))
        np.testing.assert_allclose(w.data, [[expected]], rtol=0, atol=1e-18)

    def test_zero_grad_zero_decay_unchanged(self):
        p = dc.ParamSet({"w": np.full((2, 2), 0.7)})
        w = p["w"]
        w.grad = np.zeros((2, 2))
        dc.adam_step(dc.AdamState(lr=1e-4, weight_decay=0.0), p)
        np.testing.assert_array_equal(w.data, np.full((2, 2), 0.7))

    def test_decoupled_decay_scales_param(self):
        p = dc.ParamSet({"w": np.array([[1.0]])})
        w = p["w"]
        w.grad = np.zeros((1, 1))
        dc.adam_step(dc.AdamState(lr=1e-4, weight_decay=1e-4), p)
        np.testing.assert_allclose(w.data, [[1.0 - 1e-8]], rtol=0, atol=1e-20)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_flat_step_equals_the_per_tensor_step_bitwise(self, weight_decay):
        """Parameters, moments and their order over 6 steps, one parameter
        never given a gradient, the lr halved after step 2 and the values
        after step 1 written back into the flat buffer after step 4."""
        params = dc.ParamSet.draw(
            3,
            [("a.W", (3, 4), "xavier"), ("a.b", (1, 4), "zeros"), ("idle", (2, 2), "kaiming"),
             ("c.W", (5, 1), "kaiming")],
        )
        tensors = {name: dc.Tensor(t.data.copy(), requires_grad=True) for name, t in params.items()}
        state = dc.AdamState(lr=1e-2, weight_decay=weight_decay)
        want = ref.AdamState(lr=1e-2, weight_decay=weight_decay)
        rng = np.random.default_rng(4)
        for step in range(1, 7):
            for name, t in params.items():
                grad = None if name == "idle" else rng.normal(size=t.shape)
                t.grad, tensors[name].grad = grad, grad
            dc.adam_step(state, params)
            ref.adam_step(want, tensors)
            for name, t in params.items():
                assert t.data.tobytes() == tensors[name].data.tobytes(), (step, name)
            for got, by_name in ((state.m, want.m), (state.v, want.v)):
                assert got.tobytes() == np.concatenate(list(by_name.values()), axis=None).tobytes()
            if step == 1:
                earlier = params.flat.copy()
            if step == 2:
                state.lr = want.lr = state.lr * 0.5
            if step == 4:
                params.flat[...] = earlier
                for name, t in params.items():
                    tensors[name].data = t.data.copy()


class TestSchedule:
    def test_halves_on_schedule_epochs(self):
        history = list(np.linspace(1.0, 0.5, 25))
        for epoch in range(1, 26):
            mult, stop = dc.schedule_and_stop(epoch, history[:epoch])
            assert mult == (0.5 if epoch in (10, 20) else 1.0)
            assert not stop

    def test_plateau_stops_after_exactly_five(self):
        history = [0.5]
        stopped_at = None
        for epoch in range(2, 12):
            history.append(0.5)
            _, stop = dc.schedule_and_stop(epoch, history)
            if stop:
                stopped_at = epoch
                break
        # epoch 1 sets the best; epochs 2..6 are the 5 non-improving ones
        assert stopped_at == 6

    def test_strictly_decreasing_never_stops(self):
        history = []
        for epoch in range(1, 26):
            history.append(1.0 / epoch)
            _, stop = dc.schedule_and_stop(epoch, history)
            assert not stop

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_stop_matches_streak_definition(self, history):
        _, stop = dc.schedule_and_stop(len(history), history)
        best = np.inf
        streak = 0
        for v in history:
            if v < best:
                best, streak = v, 0
            else:
                streak += 1
        assert stop == (streak >= 5)


class TestCheckpointContainer:
    def test_round_trip(self, tmp_path):
        arrays = {
            "a.W": np.arange(6, dtype=np.float64).reshape(2, 3),
            "b": np.array([[1.5]]),
        }
        path = tmp_path / "model.ckpt"
        ckpt.save_container(path, {"kind": "test", "seed": 3}, arrays)
        manifest, loaded = ckpt.load_container(path)
        assert manifest["kind"] == "test" and manifest["seed"] == 3
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])

    def test_deterministic_bytes(self, tmp_path):
        arrays = {"w": np.ones((3, 3)) * 0.25}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ckpt.save_container(p1, {"seed": 1}, arrays)
        ckpt.save_container(p2, {"seed": 1}, arrays)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "x.ckpt"
        ckpt.save_container(path, {}, {"w": np.ones(2)})
        import json
        import zipfile

        with zipfile.ZipFile(path) as zf:
            manifest = json.loads(zf.read("manifest.json"))
        manifest["container_version"] = 99
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("manifest.json", json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            ckpt.load_container(path)
