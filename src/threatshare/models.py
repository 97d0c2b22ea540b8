"""The three graph architectures predicting per-event threat change.

All variants share the same skeleton: transform raw edge vectors through a
two-layer ReLU MLP, mix node representations through the graph, mean-pool
into one event vector, and regress the threat change through a two-layer
head. They differ in the mixing step:

    gcn         — two graph convolutions over the row-normalized adjacency
    gat         — per-neighbor attention coefficients, multi-head, heads
                  concatenated at every layer
    transformer — global scaled dot-product self-attention over all node
                  pairs with an additive relational bias derived from edge
                  vectors, residual + LayerNorm blocks with a position-wise
                  feed-forward

For gcn/gat the transformed edge vectors enter as extra node inputs (mean
over incident edges, concatenated to the node statistics). The transformer
instead routes edge information through the attention bias and augments
node inputs with positional encodings: a learned role embedding plus a
linear map of the player's latest touch coordinates.

Training minimizes MSE with Adam (decoupled weight decay), halves the
learning rate on the epoch schedule, and early-stops on a validation
plateau. The best-validation parameters are what lands in the checkpoint.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from threatshare import diffcore as dc
from threatshare.diffcore import checkpoint as ckpt_io
from threatshare.graphs import (
    EDGE_FEATURE_DIM,
    N_ROLES,
    SCHEMA_VERSION,
    EventGraph,
    batch as make_batches,
)

log = logging.getLogger(__name__)

VARIANTS = ("gcn", "gat", "transformer")

LEAKY_SLOPE = 0.2


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "gcn"
    hidden_dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ffn_dim: int = 128
    edge_mlp_dims: tuple = (EDGE_FEATURE_DIM, 32, 16)
    head_hidden_dim: int = 32
    role_embedding_dim: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant in ("gat", "transformer") and self.hidden_dim % self.n_heads:
            raise ValueError(
                f"n_heads={self.n_heads} must divide hidden_dim={self.hidden_dim}"
            )

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.n_heads

    @property
    def edge_out_dim(self) -> int:
        return self.edge_mlp_dims[-1]


@dataclass(frozen=True)
class TrainingConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-4
    epochs: int = 25
    batch_size: int = 64
    split_frac: float = 0.8
    patience: int = 5
    lr_step: int = 10
    lr_gamma: float = 0.5


@dataclass
class ModelOutput:
    """Forward-pass result; attention rows are exposed for inspection."""

    prediction: float
    node_embeddings: np.ndarray  # (n, hidden), final layer before pooling
    pooled: np.ndarray  # (hidden,)
    attention: list = field(default_factory=list)  # per layer: (heads, n, n)
    prediction_tensor: object = None  # live Tensor for training


# ── parameter construction ────────────────────────────────────────────────


def build_params(cfg: ModelConfig, d_node: int) -> dc.ParamSet:
    """Declare every trainable tensor with its init scheme (uninitialized)."""
    p = dc.ParamSet()
    d_e, m1, m2 = cfg.edge_mlp_dims
    p.add("edge_mlp.W1", (d_e, m1), "xavier")
    p.add("edge_mlp.b1", (1, m1), "zeros")
    p.add("edge_mlp.W2", (m1, m2), "xavier")
    p.add("edge_mlp.b2", (1, m2), "zeros")

    h = cfg.hidden_dim
    p.add("head.W1", (h, cfg.head_hidden_dim), "xavier")
    p.add("head.b1", (1, cfg.head_hidden_dim), "zeros")
    p.add("head.W2", (cfg.head_hidden_dim, 1), "xavier")
    p.add("head.b2", (1, 1), "zeros")

    if cfg.variant == "gcn":
        d_in = d_node + m2
        for layer in range(cfg.n_layers):
            p.add(f"gcn.L{layer}.W", (d_in, h), "kaiming")
            p.add(f"gcn.L{layer}.b", (1, h), "zeros")
            d_in = h
    elif cfg.variant == "gat":
        d_in = d_node + m2
        dh = cfg.head_dim
        for layer in range(cfg.n_layers):
            for m in range(cfg.n_heads):
                p.add(f"gat.L{layer}.H{m}.W", (d_in, dh), "kaiming")
                p.add(f"gat.L{layer}.H{m}.a", (2 * dh, 1), "kaiming")
            d_in = h
    else:
        p.add("pos.roles", (N_ROLES, cfg.role_embedding_dim), "xavier")
        p.add("pos.coords", (2, cfg.role_embedding_dim), "xavier")
        p.add("input.W", (d_node + cfg.role_embedding_dim, h), "xavier")
        p.add("input.b", (1, h), "zeros")
        dh = cfg.head_dim
        for layer in range(cfg.n_layers):
            for m in range(cfg.n_heads):
                p.add(f"tf.L{layer}.H{m}.Wq", (h, dh), "kaiming")
                p.add(f"tf.L{layer}.H{m}.Wk", (h, dh), "kaiming")
                p.add(f"tf.L{layer}.H{m}.Wv", (h, dh), "kaiming")
                p.add(f"tf.L{layer}.H{m}.rel_w", (cfg.edge_out_dim, 1), "kaiming")
                p.add(f"tf.L{layer}.H{m}.rel_noedge", (1, 1), "zeros")
            p.add(f"tf.L{layer}.ln1.gain", (1, h), "ones")
            p.add(f"tf.L{layer}.ln1.bias", (1, h), "zeros")
            p.add(f"tf.L{layer}.ffn.W1", (h, cfg.ffn_dim), "xavier")
            p.add(f"tf.L{layer}.ffn.b1", (1, cfg.ffn_dim), "zeros")
            p.add(f"tf.L{layer}.ffn.W2", (cfg.ffn_dim, h), "xavier")
            p.add(f"tf.L{layer}.ffn.b2", (1, h), "zeros")
            p.add(f"tf.L{layer}.ln2.gain", (1, h), "ones")
            p.add(f"tf.L{layer}.ln2.bias", (1, h), "zeros")
    return p


def init_model(cfg: ModelConfig, d_node: int) -> dc.ParamSet:
    return dc.init_params(build_params(cfg, d_node), cfg.seed)


# ── per-graph constant structure ──────────────────────────────────────────


def _incidence_mean(n: int, edge_list) -> np.ndarray:
    """(n, n_edges) matrix averaging the edge vectors touching each node."""
    m = np.zeros((n, len(edge_list)))
    for j, (src, dst) in enumerate(edge_list):
        m[src, j] = 1.0
        m[dst, j] = 1.0
    counts = m.sum(axis=1, keepdims=True)
    return m / np.where(counts > 0, counts, 1.0)


def _neighbor_mask(n: int, edge_list) -> np.ndarray:
    """mask[v, u] — u feeds v: a directed edge u -> v exists, or u == v."""
    mask = np.eye(n, dtype=bool)
    for src, dst in edge_list:
        mask[dst, src] = True
    return mask


def _pair_average(n: int, edge_list) -> tuple[np.ndarray, np.ndarray]:
    """(n*n, n_edges) averaging matrix over ordered pairs, plus the pair
    connectivity mask (n, n). Parallel edges between a pair are averaged."""
    b = np.zeros((n * n, len(edge_list)))
    for j, (src, dst) in enumerate(edge_list):
        b[src * n + dst, j] = 1.0
    counts = b.sum(axis=1, keepdims=True)
    connected = (counts.reshape(n, n) > 0)
    return b / np.where(counts > 0, counts, 1.0), connected


# ── forward passes ────────────────────────────────────────────────────────


def edge_mlp(params: dc.ParamSet, edge_features) -> dc.Tensor:
    """Two ReLU layers over raw edge vectors: (n_edges, d_e) -> (n_edges, m2)."""
    e = edge_features if isinstance(edge_features, dc.Tensor) else dc.Tensor(edge_features)
    h1 = dc.relu(e @ params["edge_mlp.W1"] + params["edge_mlp.b1"])
    return dc.relu(h1 @ params["edge_mlp.W2"] + params["edge_mlp.b2"])


def _head(params: dc.ParamSet, z: dc.Tensor) -> dc.Tensor:
    hidden = dc.relu(z @ params["head.W1"] + params["head.b1"])
    return hidden @ params["head.W2"] + params["head.b2"]


def _node_inputs_with_edges(graph: EventGraph, params: dc.ParamSet) -> dc.Tensor:
    ep = edge_mlp(params, graph.edge_features)
    agg = dc.Tensor(_incidence_mean(graph.n_nodes, graph.edge_list)) @ ep
    return dc.concat([dc.Tensor(graph.node_features), agg], axis=1)


def _finish(graph, params, h: dc.Tensor, attention) -> ModelOutput:
    z = dc.mean_rows(h)
    y = _head(params, z)
    return ModelOutput(
        prediction=y.item(),
        node_embeddings=h.data.copy(),
        pooled=z.data.reshape(-1).copy(),
        attention=attention,
        prediction_tensor=y,
    )


def gcn_forward(graph: EventGraph, params: dc.ParamSet, cfg: ModelConfig) -> ModelOutput:
    a_hat = dc.Tensor(graph.adjacency)
    h = _node_inputs_with_edges(graph, params)
    for layer in range(cfg.n_layers):
        h = dc.relu(a_hat @ (h @ params[f"gcn.L{layer}.W"]) + params[f"gcn.L{layer}.b"])
    return _finish(graph, params, h, [])


def gat_forward(graph: EventGraph, params: dc.ParamSet, cfg: ModelConfig) -> ModelOutput:
    n = graph.n_nodes
    mask = _neighbor_mask(n, graph.edge_list)
    h = _node_inputs_with_edges(graph, params)
    attention = []
    dh = cfg.head_dim
    for layer in range(cfg.n_layers):
        head_outs = []
        layer_alphas = []
        for m in range(cfg.n_heads):
            proj = h @ params[f"gat.L{layer}.H{m}.W"]  # (n, dh)
            a_vec = params[f"gat.L{layer}.H{m}.a"]
            # score[v, u] = a[:dh] . proj[u] + a[dh:] . proj[v]
            su = proj @ _slice_rows(a_vec, 0, dh)  # (n, 1), source term
            sv = proj @ _slice_rows(a_vec, dh, 2 * dh)  # (n, 1), destination term
            scores = dc.leaky_relu(dc.transpose(su) + sv, LEAKY_SLOPE)
            alpha = dc.softmax(scores, axis=1, mask=mask)
            head_outs.append(alpha @ proj)
            layer_alphas.append(alpha.data)
        h = dc.relu(dc.concat(head_outs, axis=1))
        attention.append(np.stack(layer_alphas))
    return _finish(graph, params, h, attention)


def _slice_rows(t: dc.Tensor, lo: int, hi: int) -> dc.Tensor:
    """Rows lo:hi of a 2-D tensor via a constant selector (keeps the tape)."""
    n = t.shape[0]
    sel = np.zeros((hi - lo, n))
    sel[np.arange(hi - lo), np.arange(lo, hi)] = 1.0
    return dc.Tensor(sel) @ t


def transformer_forward(
    graph: EventGraph, params: dc.ParamSet, cfg: ModelConfig
) -> ModelOutput:
    n = graph.n_nodes
    ep = edge_mlp(params, graph.edge_features)
    pair_avg, connected = _pair_average(n, graph.edge_list)
    pair_avg_t = dc.Tensor(pair_avg)
    edge_mask = dc.Tensor(connected.astype(np.float64))
    no_edge_mask = dc.Tensor(1.0 - connected.astype(np.float64))

    onehot_roles = np.zeros((n, N_ROLES))
    onehot_roles[np.arange(n), graph.node_roles] = 1.0
    pos = dc.Tensor(onehot_roles) @ params["pos.roles"] + dc.Tensor(graph.node_xy) @ params["pos.coords"]
    x = dc.concat([dc.Tensor(graph.node_features), pos], axis=1)
    h = x @ params["input.W"] + params["input.b"]

    dh = cfg.head_dim
    scale = 1.0 / np.sqrt(dh)
    attention = []
    for layer in range(cfg.n_layers):
        head_outs = []
        layer_alphas = []
        for m in range(cfg.n_heads):
            q = h @ params[f"tf.L{layer}.H{m}.Wq"]
            k = h @ params[f"tf.L{layer}.H{m}.Wk"]
            v = h @ params[f"tf.L{layer}.H{m}.Wv"]
            rel_pairs = pair_avg_t @ (ep @ params[f"tf.L{layer}.H{m}.rel_w"])
            rel = dc.reshape(rel_pairs, (n, n)) * edge_mask + (
                params[f"tf.L{layer}.H{m}.rel_noedge"] * no_edge_mask
            )
            scores = (q @ dc.transpose(k) + rel) * scale
            alpha = dc.softmax(scores, axis=1)
            head_outs.append(alpha @ v)
            layer_alphas.append(alpha.data)
        att = dc.concat(head_outs, axis=1)
        h = dc.layer_norm(
            h + att, params[f"tf.L{layer}.ln1.gain"], params[f"tf.L{layer}.ln1.bias"]
        )
        ffn = dc.relu(h @ params[f"tf.L{layer}.ffn.W1"] + params[f"tf.L{layer}.ffn.b1"])
        ffn = ffn @ params[f"tf.L{layer}.ffn.W2"] + params[f"tf.L{layer}.ffn.b2"]
        h = dc.layer_norm(
            h + ffn, params[f"tf.L{layer}.ln2.gain"], params[f"tf.L{layer}.ln2.bias"]
        )
        attention.append(np.stack(layer_alphas))
    return _finish(graph, params, h, attention)


_FORWARDS = {
    "gcn": gcn_forward,
    "gat": gat_forward,
    "transformer": transformer_forward,
}


def forward(graph: EventGraph, params: dc.ParamSet, cfg: ModelConfig) -> ModelOutput:
    return _FORWARDS[cfg.variant](graph, params, cfg)


# ── training and evaluation ───────────────────────────────────────────────


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_mse: float
    train_mae: float
    train_combined: float
    val_mse: float
    val_mae: float
    val_combined: float
    stopped_early: bool = False


@dataclass
class Checkpoint:
    variant: str
    model_cfg: ModelConfig
    d_node: int
    seed: int
    params_state: dict
    optimizer_scalars: dict
    graph_schema_version: int = SCHEMA_VERSION

    def save(self, path) -> None:
        manifest = {
            "kind": "threatshare-model",
            "variant": self.variant,
            "model_cfg": asdict(self.model_cfg),
            "d_node": self.d_node,
            "seed": self.seed,
            "optimizer": self.optimizer_scalars,
            "graph_schema_version": self.graph_schema_version,
        }
        ckpt_io.save_container(path, manifest, self.params_state)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        manifest, arrays = ckpt_io.load_container(path)
        raw_cfg = dict(manifest["model_cfg"])
        raw_cfg["edge_mlp_dims"] = tuple(raw_cfg["edge_mlp_dims"])
        return cls(
            variant=manifest["variant"],
            model_cfg=ModelConfig(**raw_cfg),
            d_node=manifest["d_node"],
            seed=manifest["seed"],
            params_state=arrays,
            optimizer_scalars=manifest["optimizer"],
            graph_schema_version=manifest["graph_schema_version"],
        )

    def build(self) -> tuple[dc.ParamSet, ModelConfig]:
        params = build_params(self.model_cfg, self.d_node)
        params.load_state(self.params_state)
        return params, self.model_cfg


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log: list
    stopped_early: bool
    aborted: bool = False


def _metrics_from_pairs(pairs) -> dict:
    preds = np.array([p for p, _ in pairs])
    labels = np.array([t for _, t in pairs])
    mse = float(np.mean((preds - labels) ** 2))
    mae = float(np.mean(np.abs(preds - labels)))
    return {"mse": mse, "mae": mae, "combined": mae + mse}


def evaluate(checkpoint: Checkpoint, graphs) -> dict:
    """Metrics of a stored model over a dataset; pure and deterministic."""
    if checkpoint.graph_schema_version != SCHEMA_VERSION:
        raise ValueError(
            f"checkpoint schema {checkpoint.graph_schema_version} != "
            f"dataset schema {SCHEMA_VERSION}"
        )
    graphs = list(graphs)
    for g in graphs:
        if g.node_features.shape[1] != checkpoint.d_node:
            raise ValueError(
                f"graph {g.event_id}: {g.node_features.shape[1]} node features, "
                f"checkpoint expects {checkpoint.d_node}"
            )
    params, cfg = checkpoint.build()
    pairs = [(forward(g, params, cfg).prediction, g.label) for g in graphs]
    return _metrics_from_pairs(pairs)


def train(
    cfg: ModelConfig,
    train_graphs,
    val_graphs,
    tcfg: TrainingConfig = TrainingConfig(),
) -> TrainResult:
    """MSE training with Adam, the step scheduler, and plateau early stopping.

    The checkpoint keeps whichever epoch scored the best validation MSE. A
    non-finite loss aborts and returns the last good state.
    """
    train_graphs, val_graphs = list(train_graphs), list(val_graphs)
    if not train_graphs or not val_graphs:
        raise ValueError("train: both splits must be non-empty")
    d_node = train_graphs[0].node_features.shape[1]
    params = init_model(cfg, d_node)
    adam = dc.AdamState(lr=tcfg.lr, weight_decay=tcfg.weight_decay)

    best_state = params.state()
    best_val = np.inf
    best_scalars = adam.scalars()
    records: list[EpochRecord] = []
    val_history: list[float] = []
    stopped_early = False
    aborted = False

    for epoch in range(1, tcfg.epochs + 1):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(train_graphs))
        shuffled = [train_graphs[i] for i in order]
        train_pairs = []
        try:
            for chunk in make_batches(shuffled, tcfg.batch_size):
                params.zero_grad()
                for g in chunk:
                    out = forward(g, params, cfg)
                    loss = dc.mse(out.prediction_tensor, np.full((1, 1), g.label))
                    dc.backward(loss * (1.0 / len(chunk)))
                    train_pairs.append((out.prediction, g.label))
                dc.adam_step(adam, params)
            val_pairs = [
                (forward(g, params, cfg).prediction, g.label) for g in val_graphs
            ]
        except dc.NumericError as exc:
            log.error("training aborted at epoch %d: %s", epoch, exc)
            aborted = True
            break

        tm = _metrics_from_pairs(train_pairs)
        vm = _metrics_from_pairs(val_pairs)
        records.append(
            EpochRecord(
                epoch=epoch,
                lr=adam.lr,
                train_mse=tm["mse"],
                train_mae=tm["mae"],
                train_combined=tm["combined"],
                val_mse=vm["mse"],
                val_mae=vm["mae"],
                val_combined=vm["combined"],
            )
        )
        val_history.append(vm["mse"])
        if vm["mse"] < best_val:
            best_val = vm["mse"]
            best_state = params.state()
            best_scalars = adam.scalars()

        multiplier, stop = dc.schedule_and_stop(
            epoch,
            val_history,
            patience=tcfg.patience,
            lr_step=tcfg.lr_step,
            lr_gamma=tcfg.lr_gamma,
        )
        adam.lr *= multiplier
        if stop:
            stopped_early = True
            records[-1].stopped_early = True
            break

    checkpoint = Checkpoint(
        variant=cfg.variant,
        model_cfg=cfg,
        d_node=d_node,
        seed=cfg.seed,
        params_state=best_state,
        optimizer_scalars=best_scalars,
    )
    return TrainResult(
        checkpoint=checkpoint,
        log=records,
        stopped_early=stopped_early,
        aborted=aborted,
    )


def write_train_log(records, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = (
        "epoch,lr,train_mse,train_mae,train_combined,"
        "val_mse,val_mae,val_combined,stopped_early"
    )
    lines = [cols]
    for r in records:
        lines.append(
            f"{r.epoch},{r.lr!r},{r.train_mse!r},{r.train_mae!r},"
            f"{r.train_combined!r},{r.val_mse!r},{r.val_mae!r},"
            f"{r.val_combined!r},{int(r.stopped_early)}"
        )
    path.write_text("\n".join(lines) + "\n")
