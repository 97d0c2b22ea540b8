"""The three architectures against independent dense re-implementations."""

import gc
import tracemalloc
import zlib
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatshare import diffcore as dc
from threatshare import models
from threatshare.graphs import MAX_NODES, EventGraph, split_dataset

from graph_factories import planted_linear_dataset, random_event_graph, validate

D_NODE = 10


def graph_with(n_nodes, edge_list, features=None, rng=None):
    rng = rng or np.random.default_rng(0)
    feats = features if features is not None else rng.uniform(0, 1, (n_nodes, D_NODE))
    return EventGraph(
        event_id="t",
        node_ids=list(range(1, n_nodes + 1)),
        node_features=np.asarray(feats, dtype=np.float64),
        edge_ends=np.array(edge_list, dtype=np.int64),
        edge_features=rng.uniform(0, 1, (len(edge_list), 10)),
        label=0.05,
        node_xy=rng.uniform(0, 1, (n_nodes, 2)),
        node_roles=rng.integers(0, 5, n_nodes),
        cross_team=False,
        meta={"match_id": 1, "event_index": 0, "k": 1, "n_imputed": 0, "actor_id": 1},
    )


# ── independent numpy re-implementations ──────────────────────────────────


def np_edge_mlp(P, e):
    h = np.maximum(e @ P["edge_mlp.W1"] + P["edge_mlp.b1"], 0.0)
    return np.maximum(h @ P["edge_mlp.W2"] + P["edge_mlp.b2"], 0.0)


def np_head(P, z):
    return np.maximum(z @ P["head.W1"] + P["head.b1"], 0.0) @ P["head.W2"] + P["head.b2"]


def np_adjacency(graph):
    """Dense row-normalized adjacency: self-loops plus one indicator per
    (dst, src) pair that an edge joins; row = destination."""
    a = np.eye(graph.n_nodes)
    for src, dst in graph.edge_ends.tolist():
        a[dst, src] = 1.0
    return a / a.sum(axis=1, keepdims=True)


def np_incidence_mean(graph):
    n, e = graph.n_nodes, len(graph.edge_ends)
    m = np.zeros((n, e))
    for j, (src, dst) in enumerate(graph.edge_ends.tolist()):
        m[src, j] = 1.0
        m[dst, j] = 1.0
    counts = m.sum(axis=1, keepdims=True)
    counts[counts == 0] = 1.0
    return m / counts


def np_node_inputs(P, graph):
    ep = np_edge_mlp(P, graph.edge_features)
    return np.hstack([graph.node_features, np_incidence_mean(graph) @ ep])


def np_gcn(P, graph, cfg, attention=None):
    h = np_node_inputs(P, graph)
    for layer in range(cfg.n_layers):
        h = np.maximum(
            np_adjacency(graph) @ (h @ P[f"gcn.L{layer}.W"]) + P[f"gcn.L{layer}.b"], 0.0
        )
        if attention is not None:
            attention.append(np_adjacency(graph)[None])
    z = h.mean(axis=0, keepdims=True)
    return float(np_head(P, z)[0, 0]), h, z


def np_gat(P, graph, cfg, attention=None):
    n = graph.n_nodes
    neighbors = {v: {v} for v in range(n)}
    for src, dst in graph.edge_ends.tolist():
        neighbors[dst].add(src)
    h = np_node_inputs(P, graph)
    dh = cfg.head_dim
    for layer in range(cfg.n_layers):
        head_outs = []
        alphas = np.zeros((cfg.n_heads, n, n))
        for m in range(cfg.n_heads):
            w = P[f"gat.L{layer}.W"][:, m * dh : (m + 1) * dh]
            a = P[f"gat.L{layer}.a"][:, m]
            proj = h @ w
            out = np.zeros((n, dh))
            for v in range(n):
                nbrs = sorted(neighbors[v])
                scores = []
                for u in nbrs:
                    cat = np.concatenate([proj[u], proj[v]])
                    s = float(a @ cat)
                    scores.append(s if s > 0 else 0.2 * s)
                scores = np.array(scores)
                alpha = np.exp(scores - scores.max())
                alpha /= alpha.sum()
                alphas[m, v, nbrs] = alpha
                out[v] = sum(alpha[i] * proj[u] for i, u in enumerate(nbrs))
            head_outs.append(out)
        h = np.maximum(np.hstack(head_outs), 0.0)
        if attention is not None:
            attention.append(alphas)
    z = h.mean(axis=0, keepdims=True)
    return float(np_head(P, z)[0, 0]), h, z


def np_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def np_transformer(P, graph, cfg, attention=None):
    n = graph.n_nodes
    ep = np_edge_mlp(P, graph.edge_features)
    pair_feats = {}
    for j, (src, dst) in enumerate(graph.edge_ends.tolist()):
        pair_feats.setdefault((src, dst), []).append(ep[j])
    onehot = np.zeros((n, 5))
    onehot[np.arange(n), graph.node_roles] = 1.0
    pos = onehot @ P["pos.roles"] + graph.node_xy @ P["pos.coords"]
    h = np.hstack([graph.node_features, pos]) @ P["input.W"] + P["input.b"]
    dh = cfg.head_dim
    for layer in range(cfg.n_layers):
        head_outs = []
        alphas = []
        for m in range(cfg.n_heads):
            cols = slice(m * dh, (m + 1) * dh)
            q = h @ P[f"tf.L{layer}.Wq"][:, cols]
            k = h @ P[f"tf.L{layer}.Wk"][:, cols]
            v = h @ P[f"tf.L{layer}.Wv"][:, cols]
            w_rel = P[f"tf.L{layer}.rel_w"][:, m]
            no_edge = float(P[f"tf.L{layer}.rel_noedge"][0, m])
            rel = np.full((n, n), no_edge)
            for (src, dst), vecs in pair_feats.items():
                rel[src, dst] = np.mean(vecs, axis=0) @ w_rel
            scores = (q @ k.T + rel) / np.sqrt(dh)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            alpha = e / e.sum(axis=1, keepdims=True)
            alphas.append(alpha)
            head_outs.append(alpha @ v)
        if attention is not None:
            attention.append(np.stack(alphas))
        att = np.hstack(head_outs)
        h = np_layer_norm(h + att, P[f"tf.L{layer}.ln1.gain"], P[f"tf.L{layer}.ln1.bias"])
        ffn = np.maximum(h @ P[f"tf.L{layer}.ffn.W1"] + P[f"tf.L{layer}.ffn.b1"], 0.0)
        ffn = ffn @ P[f"tf.L{layer}.ffn.W2"] + P[f"tf.L{layer}.ffn.b2"]
        h = np_layer_norm(h + ffn, P[f"tf.L{layer}.ln2.gain"], P[f"tf.L{layer}.ln2.bias"])
    z = h.mean(axis=0, keepdims=True)
    return float(np_head(P, z)[0, 0]), h, z


_ORACLES = {"gcn": np_gcn, "gat": np_gat, "transformer": np_transformer}


def values(params):
    """A copy of every parameter's array, by name."""
    return {name: t.data.copy() for name, t in params.items()}


def init_both(cfg, d_node=D_NODE):
    params = models.init_model(cfg, d_node)
    return params, values(params)


class GraphOutput(NamedTuple):
    prediction: float
    node_embeddings: np.ndarray  # (n, hidden)
    attention: list  # per mixing layer: (heads, n, n)


def forward_with_weights(graphs, params, cfg):
    """``models.forward`` over ``graphs`` as one pack, and the weights each
    mixing layer passes to ``dc.block_mix``: per layer one (graphs, heads,
    w, w) stack, padded to the largest graph, w."""
    weights, mix = [], dc.block_mix
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dc, "block_mix", lambda alpha, *rest: weights.append(alpha.data) or mix(alpha, *rest))
        y, h = models.forward(graphs, params, cfg)
    return y, h, weights


def graph_outputs(graphs, params, cfg) -> list[GraphOutput]:
    """``models.forward`` over ``graphs`` as one pack, split per graph: its
    prediction, its rows of the node embeddings, and per layer its (heads,
    n, n) block of mixing weights (0 off the pairs for gcn and gat)."""
    y, h, layers = forward_with_weights(graphs, params, cfg)
    out, lo = [], 0
    for b, g in enumerate(graphs):
        n = g.n_nodes
        blocks = [alpha[b, :, :n, :n] for alpha in layers]
        out.append(GraphOutput(float(y.data[b, 0]), h[lo : lo + n], blocks))
        lo += n
    return out


def assert_same_outputs(out: GraphOutput, ref: GraphOutput):
    """One graph's prediction, embeddings and mixing weights agree within 1e-12."""
    assert abs(out.prediction - ref.prediction) <= 1e-12
    np.testing.assert_allclose(out.node_embeddings, ref.node_embeddings, atol=1e-12, rtol=0)
    assert len(out.attention) == len(ref.attention)
    for alpha, ref_alpha in zip(out.attention, ref.attention):
        np.testing.assert_allclose(alpha, ref_alpha, atol=1e-12, rtol=0)


def read_pooled_column(params, column):
    """Make the head output relu(pooled[column])."""
    for name in ("head.W1", "head.b1", "head.W2", "head.b2"):
        params[name].data[...] = 0.0
    params["head.W1"].data[column, 0] = 1.0
    params["head.W2"].data[0, 0] = 1.0


# ── edge MLP ──────────────────────────────────────────────────────────────


class TestParameterLayout:
    def test_tensor_counts(self):
        counts = {
            variant: len(models.init_model(models.ModelConfig(variant=variant), D_NODE).items())
            for variant in models.VARIANTS
        }
        assert counts == {"gcn": 12, "gat": 12, "transformer": 38}

    @pytest.mark.parametrize(
        "variant,name",
        [("gat", "gat.L0.W"), ("gat", "gat.L0.a"), ("transformer", "tf.L0.Wq"),
         ("transformer", "tf.L0.rel_w")],
    )
    def test_head_block_is_the_per_head_draw(self, variant, name):
        # block m is drawn as the tensor <prefix>.H<m>.<leaf> of the block's
        # shape would be: kaiming from its own (seed, crc32(name)) stream
        cfg = models.ModelConfig(variant=variant, seed=3)
        fused = models.init_model(cfg, D_NODE)[name].data
        rows, width = fused.shape[0], fused.shape[1] // cfg.n_heads
        prefix, leaf = name.rsplit(".", 1)
        for m in range(cfg.n_heads):
            stream = zlib.crc32(f"{prefix}.H{m}.{leaf}".encode("utf-8"))
            draw = np.random.default_rng([cfg.seed, stream]).normal(
                0.0, np.sqrt(2.0 / rows), size=(rows, width)
            )
            np.testing.assert_array_equal(fused[:, m * width : (m + 1) * width], draw)


class TestEdgeMlp:
    def test_zero_input_zero_bias_gives_zero(self):
        cfg = models.ModelConfig(seed=0)
        params = models.init_model(cfg, D_NODE)
        out = models.edge_mlp(params, np.zeros((3, 10)))
        np.testing.assert_array_equal(out.data, np.zeros((3, 16)))

    def test_identity_square_config_passes_nonnegative_input(self):
        cfg = models.ModelConfig(edge_mlp_dims=(10, 10, 10), seed=0)
        params = models.init_model(cfg, D_NODE)
        params["edge_mlp.W1"].data[...] = np.eye(10)
        params["edge_mlp.W2"].data[...] = np.eye(10)
        x = np.random.default_rng(0).uniform(0, 1, (4, 10))
        out = models.edge_mlp(params, x)
        np.testing.assert_allclose(out.data, x, atol=0)

    def test_matches_direct_recomputation(self):
        cfg = models.ModelConfig(seed=5)
        params, state = init_both(cfg)
        x = np.random.default_rng(1).normal(size=(6, 10))
        out = models.edge_mlp(params, x)
        np.testing.assert_allclose(out.data, np_edge_mlp(state, x), atol=1e-12, rtol=0)


# ── forward passes vs oracles ─────────────────────────────────────────────


class TestGcnForward:
    def test_single_node_identity_layer(self):
        g = graph_with(1, [(0, 0)])
        cfg = models.ModelConfig(variant="gcn", hidden_dim=26, head_hidden_dim=4, seed=0)
        params = models.init_model(cfg, D_NODE)
        params["gcn.L0.W"].data[...] = np.eye(26)
        params["gcn.L1.W"].data[...] = np.eye(26)
        params["edge_mlp.W1"].data[:] = 0.0  # edge block contributes zeros
        out = graph_outputs([g], params, cfg)[0]
        np.testing.assert_allclose(out.node_embeddings[:, :10], g.node_features, atol=1e-12)

    def test_mean_pooling(self):
        # two isolated nodes, identity layers: pooled = mean of embeddings
        feats = np.zeros((2, D_NODE))
        feats[0, 0], feats[0, 1] = 1.0, 3.0
        feats[1, 0], feats[1, 1] = 3.0, 1.0
        g = graph_with(2, [(0, 0), (1, 1)], features=feats)
        cfg = models.ModelConfig(variant="gcn", hidden_dim=26, head_hidden_dim=4, seed=0)
        params = models.init_model(cfg, D_NODE)
        params["gcn.L0.W"].data[...] = np.eye(26)
        params["gcn.L1.W"].data[...] = np.eye(26)
        params["edge_mlp.W1"].data[:] = 0.0
        for column in (0, 1):
            read_pooled_column(params, column)
            assert models.forward([g], params, cfg)[0].data.item() == pytest.approx(2.0)

    def test_random_graph_matches_oracle(self):
        rng = np.random.default_rng(7)
        g = graph_with(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)], rng=rng)
        cfg = models.ModelConfig(variant="gcn", seed=3)
        params, state = init_both(cfg)
        out = graph_outputs([g], params, cfg)[0]
        y, h, z = np_gcn(state, g, cfg)
        assert out.prediction == pytest.approx(y, abs=1e-12)
        np.testing.assert_allclose(out.node_embeddings, h, atol=1e-12, rtol=0)


class TestGatForward:
    def test_self_loop_only_node(self):
        g = graph_with(1, [(0, 0)])
        cfg = models.ModelConfig(variant="gat", seed=1)
        params, state = init_both(cfg)
        out = graph_outputs([g], params, cfg)[0]
        for layer_alpha in out.attention:
            np.testing.assert_allclose(layer_alpha, 1.0, atol=0)
        # embedding = relu of concatenated per-head projections
        y, h, _ = np_gat(state, g, cfg)
        np.testing.assert_allclose(out.node_embeddings, h, atol=1e-12)

    def test_identical_neighbors_get_uniform_attention(self):
        feats = np.tile(np.linspace(0.1, 1.0, D_NODE), (3, 1))
        g = graph_with(3, [(0, 2), (1, 2)], features=feats)
        g.edge_features = np.tile(g.edge_features[0], (2, 1))
        cfg = models.ModelConfig(variant="gat", seed=2)
        params = models.init_model(cfg, D_NODE)
        out = graph_outputs([g], params, cfg)[0]
        alpha = out.attention[0]  # (heads, n, n); node 2 attends {0, 1, 2}
        np.testing.assert_allclose(alpha[:, 2, :], 1.0 / 3.0, atol=1e-12)

    def test_three_nodes_two_heads_matches_bruteforce(self):
        rng = np.random.default_rng(9)
        g = graph_with(3, [(0, 1), (1, 2), (0, 2)], rng=rng)
        cfg = models.ModelConfig(variant="gat", hidden_dim=8, n_heads=2, seed=4)
        params, state = init_both(cfg)
        out = graph_outputs([g], params, cfg)[0]
        y, h, _ = np_gat(state, g, cfg)
        assert out.prediction == pytest.approx(y, abs=1e-12)
        np.testing.assert_allclose(out.node_embeddings, h, atol=1e-12)
        for layer_alpha in out.attention:
            sums = layer_alpha.sum(axis=2)
            mask = np.eye(3, dtype=bool)
            for src, dst in g.edge_ends.tolist():
                mask[dst, src] = True
            np.testing.assert_allclose(sums[:, :], 1.0, atol=1e-12)
            assert np.all(layer_alpha[:, ~mask] == 0.0)


class TestTransformerForward:
    def test_single_node_attention_is_one(self):
        g = graph_with(1, [(0, 0)])
        cfg = models.ModelConfig(variant="transformer", seed=1)
        params, state = init_both(cfg)
        out = graph_outputs([g], params, cfg)[0]
        for layer_alpha in out.attention:
            np.testing.assert_allclose(layer_alpha, 1.0, atol=0)
        y, h, _ = np_transformer(state, g, cfg)
        assert out.prediction == pytest.approx(y, abs=1e-12)

    def test_zero_relational_single_head_is_plain_attention(self):
        rng = np.random.default_rng(3)
        g = graph_with(4, [(0, 1), (2, 3)], rng=rng)
        cfg = models.ModelConfig(variant="transformer", n_heads=1, n_layers=1, seed=5)
        params, state = init_both(cfg)
        params["tf.L0.rel_w"].data[:] = 0.0
        params["tf.L0.rel_noedge"].data[:] = 0.0
        state = values(params)
        out = graph_outputs([g], params, cfg)[0]
        onehot = np.zeros((4, 5))
        onehot[np.arange(4), g.node_roles] = 1.0
        pos = onehot @ state["pos.roles"] + g.node_xy @ state["pos.coords"]
        h = np.hstack([g.node_features, pos]) @ state["input.W"] + state["input.b"]
        q, k = h @ state["tf.L0.Wq"], h @ state["tf.L0.Wk"]
        scores = q @ k.T / np.sqrt(cfg.head_dim)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        plain = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(out.attention[0][0], plain)

    def test_four_nodes_two_layers_matches_oracle(self):
        rng = np.random.default_rng(11)
        g = graph_with(4, [(0, 1), (1, 2), (2, 3), (0, 1)], rng=rng)  # parallel edge
        cfg = models.ModelConfig(variant="transformer", seed=6)
        params, state = init_both(cfg)
        out = graph_outputs([g], params, cfg)[0]
        y, h, z = np_transformer(state, g, cfg)
        assert out.prediction == pytest.approx(y, abs=1e-10)
        np.testing.assert_allclose(out.node_embeddings, h, atol=1e-10)
        for layer_alpha in out.attention:
            np.testing.assert_allclose(layer_alpha.sum(axis=2), 1.0, atol=1e-12)


# ── shared properties ─────────────────────────────────────────────────────


def permute_graph(g: EventGraph, perm):
    inv = np.empty(len(perm), dtype=int)
    for new, old in enumerate(perm):
        inv[old] = new
    return EventGraph(
        event_id=g.event_id,
        node_ids=[g.node_ids[p] for p in perm],
        node_features=g.node_features[perm],
        edge_ends=inv[g.edge_ends],
        edge_features=g.edge_features,
        label=g.label,
        node_xy=g.node_xy[perm],
        node_roles=g.node_roles[perm],
        cross_team=g.cross_team,
        meta=g.meta,
    )


class TestPermutationEquivariance:
    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_relabeling_nodes(self, variant):
        rng = np.random.default_rng(13)
        cfg = models.ModelConfig(variant=variant, seed=2)
        params = models.init_model(cfg, D_NODE)
        for _ in range(10):
            g = random_event_graph(rng)
            perm = rng.permutation(g.n_nodes)
            out = graph_outputs([g], params, cfg)[0]
            out_p = graph_outputs([permute_graph(g, perm)], params, cfg)[0]
            assert abs(out.prediction - out_p.prediction) < 1e-9
            np.testing.assert_allclose(
                out_p.node_embeddings, out.node_embeddings[perm], atol=1e-9
            )


class TestGradients:
    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_loss_gradient_matches_finite_differences(self, variant):
        rng = np.random.default_rng(17)
        g = random_event_graph(rng, n_nodes=5)
        cfg = models.ModelConfig(variant=variant, hidden_dim=8, n_heads=2,
                                 ffn_dim=16, head_hidden_dim=4,
                                 edge_mlp_dims=(10, 8, 6), seed=8)
        params = models.init_model(cfg, D_NODE)

        def loss_value():
            pred = models.forward([g], params, cfg)[0]
            return dc.mse(pred, np.full((1, 1), g.label))

        params.zero_grad()
        dc.backward(loss_value())
        h = 1e-5
        checked = 0
        for name, tensor in params.items():
            flat = tensor.data.reshape(-1)
            grad = tensor.grad.reshape(-1) if tensor.grad is not None else None
            idxs = rng.choice(flat.size, size=min(6, flat.size), replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value().data.item()
                flat[i] = orig - h
                down = loss_value().data.item()
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                analytic = grad[i] if grad is not None else 0.0
                err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
                assert err <= 1e-4, f"{name}[{i}]: {analytic} vs {numeric}"
                checked += 1
        assert checked >= 50


# ── packs ─────────────────────────────────────────────────────────────────


def with_edges(g, edge_list, rng):
    g.edge_ends = np.array(edge_list, dtype=np.int64)
    g.edge_features = rng.uniform(0, 1, (len(edge_list), 10))
    validate(g)
    return g


def mixed_graphs():
    """Random graphs plus the edge cases: one node, self-edges only,
    parallel edges, and the 22-node maximum."""
    rng = np.random.default_rng(31)
    gs = [random_event_graph(rng, n_nodes=1, event_id="one")]
    gs.append(with_edges(random_event_graph(rng, n_nodes=3), [(0, 0), (1, 1), (2, 2)], rng))
    gs.append(with_edges(random_event_graph(rng, n_nodes=4), [(0, 1), (2, 3), (0, 1), (0, 1), (1, 1)], rng))
    gs.append(random_event_graph(rng, n_nodes=22, event_id="full"))
    gs.extend(random_event_graph(rng, event_id=f"r{i}") for i in range(6))
    return gs


def pack_of(graphs):
    """``graphs`` as one pack, under a default model's edge MLP."""
    return models._pack(graphs, models.init_model(models.ModelConfig(), D_NODE))


class TestPacks:
    def test_packs_keep_order_within_the_node_budget(self):
        class Sized:
            def __init__(self, n):
                self.n_nodes = n

        sizes = (30, 30, 5, 70, 1, 64, 2)
        got = [[g.n_nodes for g in pack] for pack in models.packs([Sized(n) for n in sizes], 64)]
        assert got == [[30, 30], [5], [70], [1], [64], [2]]

    def test_adjacency_mask_is_the_nonzeros_of_the_dense_adjacency(self):
        """Inside each block the mask is where the dense adjacency is
        nonzero, on padding it is False, and gcn's constant block is the
        dense adjacency byte for byte: for mixed graphs, and for a 1-node
        graph beside a MAX_NODES one (its block padded by 21 rows)."""
        rng = np.random.default_rng(48)
        one = random_event_graph(rng, n_nodes=1, event_id="one")
        widest = random_event_graph(rng, n_nodes=MAX_NODES, event_id="widest")
        cfg = models.ModelConfig(seed=18)
        params = models.init_model(cfg, D_NODE)
        for gs in (mixed_graphs(), [one, widest]):
            pack = pack_of(gs)
            mask = dc.Blocks(pack.sizes, 1).adjacency(pack.src, pack.dst)
            weights = forward_with_weights(gs, params, cfg)[2]
            w = max(g.n_nodes for g in gs)
            assert mask.shape == (len(gs), w, w) and mask.dtype == bool
            assert len(weights) == cfg.n_layers and weights[0].shape == (len(gs), 1, w, w)
            for b, g in enumerate(gs):
                n, a = g.n_nodes, np_adjacency(g)
                assert mask[b, :n, :n].tolist() == (a != 0).tolist()
                assert not mask[b, n:].any() and not mask[b, :, n:].any()
                assert weights[0][b, 0, :n, :n].tobytes() == a.tobytes()
                assert not weights[0][b, 0, n:].any() and not weights[0][b, 0, :, n:].any()

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_pack_matches_single_graphs_and_oracle(self, variant):
        gs = mixed_graphs()
        cfg = models.ModelConfig(variant=variant, seed=12)
        params, state = init_both(cfg)
        pred, h_pack = models.forward(gs, params, cfg)
        assert pred.shape == (len(gs), 1)
        assert h_pack.shape == (sum(g.n_nodes for g in gs), cfg.hidden_dim)
        for g, out in zip(gs, graph_outputs(gs, params, cfg), strict=True):
            (single,) = graph_outputs([g], params, cfg)
            oracle_attention = []
            y, h, _ = _ORACLES[variant](state, g, cfg, attention=oracle_attention)
            # the oracle mean-pools, so equal predictions check the pooling
            for ref in (single, GraphOutput(y, h, oracle_attention)):
                assert_same_outputs(out, ref)
            assert len(out.attention) == cfg.n_layers

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_padding_extremes_match_packs_of_one(self, variant):
        """A 1-node graph beside a MAX_NODES one (its block padded by 21
        rows), and a pack of 1-node graphs (no padding), at 4 heads: forward
        and backward raise no NumericError, every gradient is finite, and
        each graph's outputs and mixing weights are those of its pack of
        one."""
        rng = np.random.default_rng(47)
        ones = [random_event_graph(rng, n_nodes=1, event_id=f"one{i}") for i in range(5)]
        widest = random_event_graph(rng, n_nodes=MAX_NODES, event_id="widest")
        cfg = models.ModelConfig(variant=variant, n_heads=4, seed=19)
        params = models.init_model(cfg, D_NODE)
        for gs in ([ones[0], widest], ones):
            params.zero_grad()
            pred = models.forward(gs, params, cfg)[0]
            dc.backward(dc.mse(pred, np.array([[g.label] for g in gs])))
            assert all(np.isfinite(t.grad).all() for _, t in params.items())
            for g, out in zip(gs, graph_outputs(gs, params, cfg), strict=True):
                assert_same_outputs(out, graph_outputs([g], params, cfg)[0])

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_each_pack_builds_one_pair_plan(self, variant, monkeypatch):
        """The rows of a pack are laid out in blocks once, gcn's and gat's
        adjacency masked once and gat's pairs planned once, for every layer
        and for both directions of the sweep."""
        gs = mixed_graphs()
        cfg = models.ModelConfig(variant=variant, seed=16)
        params = models.init_model(cfg, D_NODE)
        built = {"Blocks": [], "PairPlan": [], "adjacency": []}
        adjacency = dc.Blocks.adjacency

        def counted_adjacency(blocks, *args):
            built["adjacency"].append(blocks)
            return adjacency(blocks, *args)

        def counting(name):
            make = getattr(dc, name)

            def counted(*args, **kwargs):
                built[name].append(make(*args, **kwargs))
                return built[name][-1]

            return counted

        monkeypatch.setattr(dc.Blocks, "adjacency", counted_adjacency)
        for name in ("Blocks", "PairPlan"):
            monkeypatch.setattr(dc, name, counting(name))
        per_pack = (1, variant == "gat", variant != "transformer")

        def counts():
            return tuple(len(made) for made in built.values())

        dc.backward(dc.mse(models.forward(gs, params, cfg)[0], np.array([[g.label] for g in gs])))
        assert counts() == per_pack
        monkeypatch.setattr(models, "PREDICT_NODES", 30)
        models.predict(gs, params, cfg)
        n_packs = 1 + len(models.packs(gs, 30))
        assert n_packs > 2
        assert counts() == tuple(n_packs * count for count in per_pack)

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_pack_gradient_is_the_sum_of_single_graph_gradients(self, variant):
        gs = mixed_graphs()
        cfg = models.ModelConfig(variant=variant, seed=13)
        params = models.init_model(cfg, D_NODE)
        pred = models.forward(gs, params, cfg)[0]
        params.zero_grad()
        # mean squared error times B: the sum of the per-graph losses
        dc.backward(dc.mse(pred, np.array([[g.label] for g in gs])) * len(gs))
        packed = {name: t.grad for name, t in params.items()}
        params.zero_grad()
        for g in gs:
            single = models.forward([g], params, cfg)[0]
            dc.backward(dc.mse(single, np.full((1, 1), g.label)))
        for name, t in params.items():
            assert packed[name] is not None and t.grad is not None, name
            scale = np.abs(t.grad).max()
            assert np.abs(packed[name] - t.grad).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_predict_is_forward_only_over_one_large_pack(self, variant, monkeypatch):
        gs = mixed_graphs()
        assert len(models.packs(gs, models.PREDICT_NODES)) == 1
        cfg = models.ModelConfig(variant=variant, seed=15)
        params = models.init_model(cfg, D_NODE)
        calls = []
        forward = models.forward

        def recorded(*args):
            result = forward(*args)
            calls.append(result[0])
            return result

        monkeypatch.setattr(models, "forward", recorded)
        predictions, norms = models.predict(gs, params, cfg)
        assert len(calls) == 1
        assert not calls[0].requires_grad and calls[0].is_leaf
        assert all(t.grad is None for _, t in params.items())
        monkeypatch.undo()
        assert predictions.shape == (len(gs),)
        assert norms.shape == (sum(g.n_nodes for g in gs),)
        lo = 0
        for g, prediction in zip(gs, predictions, strict=True):
            y, h = models.forward([g], params, cfg)
            assert abs(prediction - y.data.item()) <= 1e-12
            np.testing.assert_allclose(
                norms[lo : lo + g.n_nodes], np.linalg.norm(h, axis=1), atol=1e-12, rtol=0
            )
            lo += g.n_nodes

    def test_kept_outputs_hold_no_tape(self):
        rng = np.random.default_rng(41)
        gs = [random_event_graph(rng, event_id=f"k{i}") for i in range(40)]
        cfg = models.ModelConfig(variant="transformer", seed=14)
        params = models.init_model(cfg, D_NODE)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            # the embeddings of each forward, and predict's arrays
            kept = [models.forward([g], params, cfg)[1] for g in gs]
            kept.append(models.predict(gs, params, cfg))
            # a full collection also empties the interpreter's free lists,
            # whose cached tuples and floats are not held by the outputs
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        arrays = sum(h.nbytes for h in kept[:-1]) + sum(a.nbytes for a in kept[-1])
        # the arrays themselves plus object overhead, not a tape per graph
        assert retained <= arrays + 2_000 * len(kept), (retained, arrays)

    def test_training_chunk_tape_stays_small(self):
        """A 64-graph transformer chunk (379 nodes) forward and backward as
        one pack. Its tracemalloc peak is 9.48 MB; the tape of unfused
        matmul, bias and residual ops, swept without freeing, peaks at
        12.0 MB."""
        rng = np.random.default_rng(0)
        chunk = [random_event_graph(rng, event_id=f"c{i}") for i in range(64)]
        cfg = models.ModelConfig(variant="transformer", seed=3)
        params = models.init_model(cfg, chunk[0].node_features.shape[1])
        labels = np.array([[g.label] for g in chunk])
        tracemalloc.start()
        try:
            pred = models.forward(chunk, params, cfg)[0]
            dc.backward(dc.mse(pred, labels))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(t.grad is not None for _, t in params.items())
        assert peak <= 10 * 2**20, peak


# ── training and evaluation ───────────────────────────────────────────────


class TestTraining:
    def test_constant_labels_converge(self):
        gs = planted_linear_dataset(n_graphs=60, seed=4)
        for g in gs:
            g.label = 0.01
        train_set, val_set = split_dataset(gs, 0.8, seed=0)
        cfg = models.ModelConfig(variant="gcn", seed=1)
        res = models.train(cfg, train_set, val_set, models.TrainingConfig())
        assert min(r.val_mse for r in res.log) <= 1e-3

    def test_lr_log_shows_halving_schedule(self):
        data = planted_linear_dataset(n_graphs=120, seed=5)
        train_set, val_set = split_dataset(data, 0.8, seed=0)
        cfg = models.ModelConfig(variant="gcn", hidden_dim=16, head_hidden_dim=8, seed=2)
        res = models.train(cfg, train_set, val_set, models.TrainingConfig(patience=30))
        lrs = [r.lr for r in res.log]
        assert set(lrs) == {1e-4, 5e-5, 2.5e-5}
        assert lrs[0] == 1e-4 and lrs[10] == 5e-5 and lrs[20] == 2.5e-5

    def test_early_stop_flag_recorded(self):
        rng = np.random.default_rng(2)
        gs = []
        for i in range(30):
            g = random_event_graph(rng, event_id=f"e{i}")
            g.label = 0.0
            gs.append(g)
        train_set, val_set = split_dataset(gs, 0.8, seed=0)
        cfg = models.ModelConfig(variant="gcn", hidden_dim=8, head_hidden_dim=4, seed=3)
        # zero labels plateau almost immediately at machine-level MSE
        res = models.train(cfg, train_set, val_set, models.TrainingConfig(epochs=25, patience=3))
        assert not any(r.stopped_early for r in res.log[:-1])
        if res.log[-1].stopped_early:
            assert len(res.log) < 25

    def test_divergence_raises_naming_its_epoch(self):
        rng = np.random.default_rng(3)
        gs = [random_event_graph(rng, event_id=f"d{i}") for i in range(20)]
        train_set, val_set = split_dataset(gs, 0.8, seed=0)
        cfg = models.ModelConfig(variant="gcn", hidden_dim=8, head_hidden_dim=4, seed=4)
        with pytest.raises(dc.NumericError, match="^training diverged in epoch 1: "):
            models.train(cfg, train_set, val_set, models.TrainingConfig(lr=1e150, epochs=5))

    @staticmethod
    def record_epoch_ends(monkeypatch, offsets):
        """Every parameter's values as training validates each epoch, in a
        list that fills as it runs. Epoch e's validation predictions are
        each graph's label plus ``offsets[e - 1]``, so the offsets alone
        decide the val MSE, and equal offsets give equal val MSEs. The model
        still runs, so a diverged model still raises."""
        ends, predict = [], models.predict

        def recorded(graphs, params, cfg):
            ends.append(values(params))
            _, norms = predict(graphs, params, cfg)
            return np.array([g.label for g in graphs]) + offsets[len(ends) - 1], norms

        monkeypatch.setattr(models, "predict", recorded)
        return ends

    def small_run(self):
        rng = np.random.default_rng(5)
        gs = [random_event_graph(rng, event_id=f"b{i}") for i in range(20)]
        cfg = models.ModelConfig(variant="gcn", hidden_dim=8, head_hidden_dim=4, seed=4)
        return cfg, *split_dataset(gs, 0.8, seed=0)

    def test_checkpoint_holds_the_best_epoch_not_the_last(self, monkeypatch):
        cfg, train_set, val_set = self.small_run()
        ends = self.record_epoch_ends(monkeypatch, [1.0, 0.0, 2.0, 3.0])
        res = models.train(cfg, train_set, val_set, models.TrainingConfig(epochs=4, patience=10))
        val_mse = [r.val_mse for r in res.log]
        assert len(val_mse) == 4 and np.argmin(val_mse) == 1
        kept = values(res.checkpoint.params)
        for name, value in ends[1].items():
            np.testing.assert_array_equal(kept[name], value)
        assert any(not np.array_equal(kept[name], value) for name, value in ends[3].items())

    def test_divergence_in_a_later_epoch_raises_naming_it(self):
        cfg, train_set, val_set = self.small_run()
        # the lr grows by 1e150 after epoch 2, so epoch 3 diverges
        tcfg = models.TrainingConfig(epochs=5, lr_step=2, lr_gamma=1e150)
        with pytest.raises(dc.NumericError, match="^training diverged in epoch 3: "):
            models.train(cfg, train_set, val_set, tcfg)

    def test_plateau_stops_after_exactly_patience_epochs(self, monkeypatch):
        cfg, train_set, val_set = self.small_run()
        # epoch 4 beats epoch 1's best after two worse epochs, so the run
        # goes on until epochs 5, 6 and 7 have not beaten it
        self.record_epoch_ends(monkeypatch, [2.0, 3.0, 3.0, 1.0, 3.0, 2.0, 1.5, 0.5])
        res = models.train(cfg, train_set, val_set, models.TrainingConfig(epochs=8, patience=3))
        assert [r.stopped_early for r in res.log] == [False] * 6 + [True]

    def test_strictly_falling_val_mse_never_stops(self, monkeypatch):
        cfg, train_set, val_set = self.small_run()
        self.record_epoch_ends(monkeypatch, [1.0 / epoch for epoch in range(1, 9)])
        res = models.train(cfg, train_set, val_set, models.TrainingConfig(epochs=8, patience=1))
        val_mse = [r.val_mse for r in res.log]
        assert len(val_mse) == 8 and all(a > b for a, b in zip(val_mse, val_mse[1:]))
        assert not any(r.stopped_early for r in res.log)

    def test_val_mse_equal_to_the_best_is_no_improvement(self, monkeypatch):
        cfg, train_set, val_set = self.small_run()
        ends = self.record_epoch_ends(monkeypatch, [2.0, 1.0, 1.0, 1.0, 0.5])
        res = models.train(cfg, train_set, val_set, models.TrainingConfig(epochs=5, patience=2))
        # epochs 3 and 4 tie epoch 2's best: the counter runs on to the stop
        val_mse = [r.val_mse for r in res.log]
        assert len(val_mse) == 4 and val_mse[1] == val_mse[2] == val_mse[3]
        assert res.log[-1].stopped_early
        # and the checkpoint stays at epoch 2
        kept = values(res.checkpoint.params)
        for name, value in ends[1].items():
            np.testing.assert_array_equal(kept[name], value)
        for later in ends[2:]:
            assert any(not np.array_equal(kept[name], value) for name, value in later.items())

    @given(
        offsets=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=10),
        patience=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_stop_matches_streak_definition(self, offsets, patience):
        cfg, train_set, val_set = self.small_run()
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.record_epoch_ends(monkeypatch, offsets)
            tcfg = models.TrainingConfig(epochs=len(offsets), patience=patience)
            res = models.train(cfg, train_set, val_set, tcfg)
        best, streak, expected = np.inf, 0, []
        for record in res.log:
            if record.val_mse < best:
                best, streak = record.val_mse, 0
            else:
                streak += 1
            expected.append(streak >= patience)
        assert [r.stopped_early for r in res.log] == expected
        assert not any(expected[:-1])
        assert expected[-1] or len(res.log) == len(offsets)

    def test_lr_steps_at_multiples_of_lr_step(self):
        cfg, train_set, val_set = self.small_run()
        tcfg = models.TrainingConfig(epochs=7, patience=10, lr_step=3, lr_gamma=0.5)
        res = models.train(cfg, train_set, val_set, tcfg)
        assert [r.lr for r in res.log] == [1e-4] * 3 + [5e-5] * 3 + [2.5e-5]

    def test_one_forward_backward_and_adam_step_per_chunk(self, monkeypatch):
        rng = np.random.default_rng(12)
        gs = [random_event_graph(rng, event_id=f"s{i}") for i in range(50)]
        cfg = models.ModelConfig(variant="gat", hidden_dim=8, n_heads=2, seed=6)
        tcfg = models.TrainingConfig(epochs=2, batch_size=16)
        calls = {"forward": [], "backward": 0, "adam_step": 0}
        forward, backward, adam_step = models.forward, dc.backward, dc.adam_step

        def counted_forward(graphs, params, model_cfg):
            result = forward(graphs, params, model_cfg)
            calls["forward"].append((len(graphs), result[0].requires_grad))
            return result

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(models, "forward", counted_forward)
        monkeypatch.setattr(dc, "backward", counted("backward", backward))
        monkeypatch.setattr(dc, "adam_step", counted("adam_step", adam_step))
        res = models.train(cfg, gs[:40], gs[40:], tcfg)
        assert len(res.log) == 2
        # per epoch: taped chunks of 16, 16 and 8 graphs, then one
        # forward-only pass over the 10 validation graphs
        epoch = [(16, True), (16, True), (8, True), (10, False)]
        assert calls == {"forward": epoch * 2, "backward": 6, "adam_step": 6}

        # one graph a chunk: a step per graph
        calls.update(forward=[], backward=0, adam_step=0)
        models.train(cfg, gs[:5], gs[5:8], models.TrainingConfig(epochs=1, batch_size=1))
        assert calls == {"forward": [(1, True)] * 5 + [(3, False)], "backward": 5, "adam_step": 5}

    def test_deterministic_trajectory(self):
        data = planted_linear_dataset(n_graphs=60, seed=9)
        train_set, val_set = split_dataset(data, 0.8, seed=1)
        cfg = models.ModelConfig(variant="gcn", hidden_dim=8, head_hidden_dim=4, seed=5)
        tcfg = models.TrainingConfig(epochs=3)
        r1 = models.train(cfg, train_set, val_set, tcfg)
        r2 = models.train(cfg, train_set, val_set, tcfg)
        for name, t in r1.checkpoint.params.items():
            np.testing.assert_array_equal(t.data, r2.checkpoint.params[name].data)
        assert [r.val_mse for r in r1.log] == [r.val_mse for r in r2.log]


class TestEvaluate:
    def test_metric_arithmetic(self):
        m = models.score([0.0, 0.0], [1.0, 1.0])
        assert m == {"mse": 1.0, "mae": 1.0, "combined": 2.0}
        assert models.score([1.0, 2.0], [1.0, 2.0])["mse"] == 0.0

    def test_dataset_metric_is_mean_of_per_graph(self):
        rng = np.random.default_rng(6)
        gs = [random_event_graph(rng, event_id=f"m{i}") for i in range(10)]
        cfg = models.ModelConfig(variant="gcn", hidden_dim=8, head_hidden_dim=4, seed=6)
        params = models.init_model(cfg, D_NODE)
        ckpt = models.Checkpoint(model_cfg=cfg, d_node=D_NODE, params=params)
        predictions, _ = models.evaluate(ckpt, gs)
        metrics = models.score(predictions, [g.label for g in gs])
        per_graph = [models.score([models.forward([g], params, cfg)[0].data.item()], [g.label]) for g in gs]
        assert metrics["mse"] == pytest.approx(np.mean([m["mse"] for m in per_graph]), abs=1e-15)
        assert metrics["mae"] == pytest.approx(np.mean([m["mae"] for m in per_graph]), abs=1e-15)

    def test_evaluate_is_pure(self):
        rng = np.random.default_rng(7)
        gs = [random_event_graph(rng, event_id=f"p{i}") for i in range(5)]
        cfg = models.ModelConfig(variant="gat", hidden_dim=8, n_heads=2, seed=7)
        params = models.init_model(cfg, D_NODE)
        ckpt = models.Checkpoint(model_cfg=cfg, d_node=D_NODE, params=params)
        for first, again in zip(models.evaluate(ckpt, gs), models.evaluate(ckpt, gs), strict=True):
            np.testing.assert_array_equal(first, again)

    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        g = random_event_graph(rng)
        cfg = models.ModelConfig(variant="transformer", hidden_dim=8, n_heads=2,
                                 ffn_dim=16, head_hidden_dim=4, seed=8)
        params = models.init_model(cfg, D_NODE)
        ckpt = models.Checkpoint(model_cfg=cfg, d_node=D_NODE, params=params)
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        loaded = models.Checkpoint.load(path)
        assert loaded.model_cfg == cfg
        p2 = loaded.params
        before = models.forward([g], params, cfg)[0].data.item()
        after = models.forward([g], p2, cfg)[0].data.item()
        assert before == after

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_checkpoint_load_draws_nothing(self, variant, tmp_path, monkeypatch):
        from threatshare.diffcore import optim

        cfg = models.ModelConfig(variant=variant, seed=9)
        params = models.init_model(cfg, D_NODE)
        models.Checkpoint(model_cfg=cfg, d_node=D_NODE, params=params).save(tmp_path / "model.ckpt")

        def forbidden(*args):
            raise AssertionError("a stored parameter was drawn")

        monkeypatch.setattr(optim, "_draw", forbidden)
        loaded = models.Checkpoint.load(tmp_path / "model.ckpt").params
        assert [name for name, _ in loaded.items()] == [name for name, _ in params.items()]
        for name, t in params.items():
            np.testing.assert_array_equal(loaded[name].data, t.data)
            assert loaded[name].requires_grad
