"""Gradient, optimizer, and checkpoint contracts of the compute core."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatshare import diffcore as dc
from threatshare.diffcore import checkpoint as ckpt


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
        # row softmax of a (4, 5) matrix: every row one segment of 5 entries
        a = self.leaf(20, 2)
        rows = np.repeat(np.arange(4), 5)
        fd_check(lambda: _weighted(dc.segment_softmax(a, rows), np.random.default_rng(11)), [a])
        # masked: only the kept entries of each row form its segment
        keep = np.random.default_rng(0).uniform(size=20) > 0.4
        keep[::5] = True
        fd_check(
            lambda: _weighted(
                dc.segment_softmax(dc.gather_rows(a, np.flatnonzero(keep)), rows[keep]),
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

    # blocks of 3, 1 and 2 rows; the last two are padded to 3 rows
    SIZES = [3, 1, 2]

    def test_pair_dot(self):
        q, k = self.leaf(6, 6), self.leaf(6, 6)
        q_idx = np.array([0, 0, 1, 2, 4, 5, 5])  # row 3 is in no pair
        k_idx = np.array([0, 2, 1, 1, 5, 4, 5])
        fd_check(
            lambda: _weighted(
                dc.pair_dot(q, k, q_idx, k_idx, 3, self.SIZES), np.random.default_rng(16)
            ),
            [q, k],
        )

    def test_pair_mix(self):
        alpha, v = self.leaf(7, 2), self.leaf(6, 4)
        q_idx = np.array([0, 0, 2, 2, 3, 4, 4])  # rows 1 and 5 receive nothing
        k_idx = np.array([0, 2, 1, 0, 3, 4, 5])
        fd_check(
            lambda: _weighted(
                dc.pair_mix(alpha, v, q_idx, k_idx, self.SIZES), np.random.default_rng(17)
            ),
            [alpha, v],
        )

    def test_losses(self):
        a, t = self.leaf(2, 3), self.leaf(2, 3)
        fd_check(lambda: dc.mse(a, t), [a, t])


class TestOpValues:
    def test_relu_values(self):
        assert dc.relu(dc.Tensor([[-1.0, 2.0]])).data.tolist() == [[0.0, 2.0]]

    def test_softmax_single_unmasked_entry(self):
        out = dc.segment_softmax(dc.Tensor([[5.0], [-1.0], [2.0]]), [0, 1, 1])
        assert out.data[0, 0] == 1.0

    def test_mse_zero(self):
        assert dc.mse(dc.Tensor([[1.0, 2.0]]), dc.Tensor([[1.0, 2.0]])).data.item() == 0.0

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        seg = np.sort(rng.integers(0, 30, size=150))
        x = dc.Tensor(rng.normal(size=(150, 4)) * 5)
        y = dc.segment_softmax(x, seg)
        sums = np.zeros((30, 4))
        np.add.at(sums, seg, y.data)
        np.testing.assert_allclose(sums[np.unique(seg)], 1.0, atol=1e-12)

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


class TestIndexOps:
    """The pack ops against loops over their definitions."""

    def test_pair_ops_match_loops(self):
        rng = np.random.default_rng(21)
        q, k, v = (rng.normal(size=(7, 6)) for _ in range(3))
        sizes = [4, 3]  # the second block is padded to 4 rows
        q_idx = np.array([0, 0, 1, 3, 3, 4, 5, 6, 6])
        k_idx = np.array([1, 3, 0, 0, 2, 6, 5, 4, 6])
        alpha = rng.normal(size=(9, 2))
        dots = dc.pair_dot(q, k, q_idx, k_idx, 2, sizes).data
        mixed = dc.pair_mix(alpha, v, q_idx, k_idx, sizes).data
        want_mix = np.zeros((7, 6))
        for p, (i, j) in enumerate(zip(q_idx, k_idx)):
            for h, c in enumerate((slice(0, 3), slice(3, 6))):
                assert dots[p, h] == pytest.approx(q[i, c] @ k[j, c], abs=1e-14)
                want_mix[i, c] += alpha[p, h] * v[j, c]
        np.testing.assert_allclose(mixed, want_mix, atol=1e-14, rtol=0)

    def test_segment_softmax_rows_equal_dense_softmax(self):
        x = np.random.default_rng(22).normal(size=(6, 6)) * 3
        e = np.exp(x - x.max(axis=1, keepdims=True))
        dense = e / e.sum(axis=1, keepdims=True)
        out = dc.segment_softmax(dc.Tensor(x.reshape(-1, 1)), np.repeat(np.arange(6), 6))
        np.testing.assert_array_equal(out.data.reshape(6, 6), dense)

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
        with pytest.raises(dc.ShapeError, match="sorted"):
            dc.segment_softmax(a, [0, 1, 0])
        with pytest.raises(dc.ShapeError, match="gather_rows"):
            dc.gather_rows(a, [3])
        with pytest.raises(dc.ShapeError, match="pair_mix"):
            dc.pair_mix(np.ones((2, 1)), a, [0, 1], [0, 1], [1])
        # a repeated pair would be summed once, not twice
        with pytest.raises(dc.ShapeError, match="pair_mix: pairs must be distinct"):
            dc.pair_mix(np.ones((2, 1)), a, [0, 0], [1, 1], [3])
        with pytest.raises(dc.ShapeError, match="pair_dot: a pair crosses blocks"):
            dc.pair_dot(a, a, [0, 1], [1, 2], 1, [2, 1])
        with pytest.raises(dc.ShapeError, match="pair_mix: a pair crosses blocks"):
            dc.pair_mix(np.ones((1, 1)), a, [2], [0], [2, 1])

    def test_pair_ops_cost_per_block_not_per_pack(self):
        """100 graphs of 20 rows: one dense (2000 x 2000) product would take
        32 MB per head; block by block, forward and backward stay far below."""
        rng = np.random.default_rng(23)
        sizes, heads = [20] * 100, 4
        local = np.arange(20)
        q_idx = np.concatenate([20 * b + np.repeat(local, 20) for b in range(100)])
        k_idx = np.concatenate([20 * b + np.tile(local, 20) for b in range(100)])
        q, k, v = (dc.Tensor(rng.normal(size=(2000, 16)), requires_grad=True) for _ in range(3))
        tracemalloc.start()
        try:
            alpha = dc.pair_dot(q, k, q_idx, k_idx, heads, sizes)
            out = dc.pair_mix(alpha, v, q_idx, k_idx, sizes)
            dc.backward(dc.mse(dc.reshape(out, (1, out.data.size)), np.zeros((1, out.data.size))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.grad is not None and k.grad is not None and v.grad is not None
        assert peak < 16 * 2**20, peak


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
        p = dc.ParamSet(seed)
        p.add("fc.W", (256, 256), "xavier")
        p.add("fc.b", (1, 256), "zeros")
        p.add("conv.W", (64, 64), "kaiming")
        p.add("ln.gain", (1, 8), "ones")
        return p

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
        p = dc.ParamSet(0)
        p.add("w", (2, 2), "xavier")
        with pytest.raises(ValueError):
            p.add("w", (2, 2), "xavier")

    def test_load_state_takes_exactly_its_parameters(self):
        p = self.make_params(seed=2)
        state = p.state()
        with pytest.raises(ValueError, match=r"state missing parameters: \['fc.b'\]"):
            p.load_state({k: v for k, v in state.items() if k != "fc.b"})
        with pytest.raises(ValueError, match=r"unknown parameters: \['extra'\]"):
            p.load_state({**state, "extra": np.zeros(1)})
        with pytest.raises(dc.ShapeError, match="fc.b"):
            p.load_state({**state, "fc.b": np.zeros((256, 1))})
        p.load_state({k: v + 1.0 for k, v in state.items()})
        np.testing.assert_array_equal(p["ln.gain"].data, np.full((1, 8), 2.0))


class TestAdam:
    def test_first_step_hand_computed(self):
        # grad=1, fresh state: m_hat=1, v_hat=1 => step = lr/(1+eps)
        p = dc.ParamSet(0)
        w = p.add("w", (1, 1), "zeros")
        w.data = np.array([[1.0]])
        w.grad = np.array([[1.0]])
        state = dc.AdamState(lr=1e-4)
        dc.adam_step(state, p)
        expected = 1.0 - 1e-4 * (1.0 / (1.0 + 1e-8))
        np.testing.assert_allclose(w.data, [[expected]], rtol=0, atol=1e-18)

    def test_zero_grad_zero_decay_unchanged(self):
        p = dc.ParamSet(0)
        w = p.add("w", (2, 2), "zeros")
        w.data = np.full((2, 2), 0.7)
        w.grad = np.zeros((2, 2))
        dc.adam_step(dc.AdamState(lr=1e-4, weight_decay=0.0), p)
        np.testing.assert_array_equal(w.data, np.full((2, 2), 0.7))

    def test_decoupled_decay_scales_param(self):
        p = dc.ParamSet(0)
        w = p.add("w", (1, 1), "zeros")
        w.data = np.array([[1.0]])
        w.grad = np.zeros((1, 1))
        dc.adam_step(dc.AdamState(lr=1e-4, weight_decay=1e-4), p)
        np.testing.assert_allclose(w.data, [[1.0 - 1e-8]], rtol=0, atol=1e-20)


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
