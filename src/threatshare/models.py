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

Every pass runs over a pack: the disjoint union of several graphs, stacked
into one node matrix and one edge matrix, so one taped op serves the whole
pack. Each mixer lays the pack out once as ``diffcore.Blocks``, every
graph padded to the largest, w, and mixes on (graphs, heads, w, w) arrays
with the one ``diffcore.block_mix``. Graph structure enters only as cells of
that layout: the stacked edge endpoints become one (graphs, w, w)
``Blocks.adjacency`` mask. gcn's weights are that mask divided by its row
counts, gat's a softmax over each node's neighbours (one
``diffcore.PairPlan`` of the mask per pack, which also gives each pair's
pack rows), and the transformer's a softmax over its scaled scores plus an
edge bias read at each edge's cell; attention never crosses from one graph
to another. A layer's weights live only for its ``block_mix``.
An attention layer keeps all its heads in one array per weight, head m in
column block m (and so does the checkpoint), so one product runs every head.
A single graph is a pack of one, and ``forward`` is the one pass that
training, validation and evaluation all run; it returns the predictions and
the node embeddings, nothing else. A training chunk of
``batch_size`` graphs is one pack: one forward, one backward sweep of the
chunk's mean squared error and one Adam step. Its tape stays small because
the affine maps and the residual norms are fused diffcore ops and the sweep
frees the tape as it goes. Forward-only passes (``predict``: validation and
evaluation) read the parameters as constants, so they record no tape, run
over packs of at most PREDICT_NODES nodes, and keep one prediction per graph
and one embedding norm per node, which attribution splits the threat change
by.

Training minimizes MSE with Adam (decoupled weight decay), halves the
learning rate on the epoch schedule, and early-stops on a validation
plateau. The best-validation parameters are what lands in the checkpoint.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import asdict, dataclass

import numpy as np

from threatshare import diffcore as dc
from threatshare.diffcore import checkpoint as ckpt_io
from threatshare.graphs import (
    EDGE_FEATURE_DIM,
    N_ROLES,
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
        # a head count below 1 is the config check's to name
        if self.variant in ("gat", "transformer") and self.n_heads >= 1 and self.hidden_dim % self.n_heads:
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


# ── parameter construction ────────────────────────────────────────────────


def _declared(cfg: ModelConfig, d_node: int):
    """Every trainable tensor of the variant, in order, as the specs of
    ``ParamSet.draw``: name, shape, init scheme and, for a tensor of several
    attention heads, the head count."""
    d_e, m1, m2 = cfg.edge_mlp_dims
    yield "edge_mlp.W1", (d_e, m1), "xavier"
    yield "edge_mlp.b1", (1, m1), "zeros"
    yield "edge_mlp.W2", (m1, m2), "xavier"
    yield "edge_mlp.b2", (1, m2), "zeros"

    h = cfg.hidden_dim
    yield "head.W1", (h, cfg.head_hidden_dim), "xavier"
    yield "head.b1", (1, cfg.head_hidden_dim), "zeros"
    yield "head.W2", (cfg.head_hidden_dim, 1), "xavier"
    yield "head.b2", (1, 1), "zeros"

    if cfg.variant == "gcn":
        d_in = d_node + m2
        for layer in range(cfg.n_layers):
            yield f"gcn.L{layer}.W", (d_in, h), "kaiming"
            yield f"gcn.L{layer}.b", (1, h), "zeros"
            d_in = h
    elif cfg.variant == "gat":
        d_in = d_node + m2
        heads = cfg.n_heads
        for layer in range(cfg.n_layers):
            yield f"gat.L{layer}.W", (d_in, h), "kaiming", heads
            # column m: head m's attention vector, source half first
            yield f"gat.L{layer}.a", (2 * cfg.head_dim, heads), "kaiming", heads
            d_in = h
    else:
        yield "pos.roles", (N_ROLES, cfg.role_embedding_dim), "xavier"
        yield "pos.coords", (2, cfg.role_embedding_dim), "xavier"
        yield "input.W", (d_node + cfg.role_embedding_dim, h), "xavier"
        yield "input.b", (1, h), "zeros"
        heads = cfg.n_heads
        for layer in range(cfg.n_layers):
            for name in ("Wq", "Wk", "Wv"):
                yield f"tf.L{layer}.{name}", (h, h), "kaiming", heads
            yield f"tf.L{layer}.rel_w", (cfg.edge_out_dim, heads), "kaiming", heads
            yield f"tf.L{layer}.rel_noedge", (1, heads), "zeros", heads
            yield f"tf.L{layer}.ln1.gain", (1, h), "ones"
            yield f"tf.L{layer}.ln1.bias", (1, h), "zeros"
            yield f"tf.L{layer}.ffn.W1", (h, cfg.ffn_dim), "xavier"
            yield f"tf.L{layer}.ffn.b1", (1, cfg.ffn_dim), "zeros"
            yield f"tf.L{layer}.ffn.W2", (cfg.ffn_dim, h), "xavier"
            yield f"tf.L{layer}.ffn.b2", (1, h), "zeros"
            yield f"tf.L{layer}.ln2.gain", (1, h), "ones"
            yield f"tf.L{layer}.ln2.bias", (1, h), "zeros"


def init_model(cfg: ModelConfig, d_node: int) -> dc.ParamSet:
    """Every trainable tensor of the variant, drawn from ``cfg.seed``."""
    return dc.ParamSet.draw(cfg.seed, _declared(cfg, d_node))


# ── packs ─────────────────────────────────────────────────────────────────

# Node budget of one forward-only pack. It records no tape, so only one
# layer's arrays are alive at a time; beyond this size, packs no longer save
# time but still cost memory.
PREDICT_NODES = 512


def packs(graphs, budget: int) -> list[list[EventGraph]]:
    """Split ``graphs``, in order, into packs of at most ``budget`` nodes in
    total; a larger graph is a pack on its own."""
    out: list[list[EventGraph]] = []
    nodes = 0
    for g in graphs:
        if not out or nodes + g.n_nodes > budget:
            out.append([])
            nodes = 0
        out[-1].append(g)
        nodes += g.n_nodes
    return out


@dataclass
class _Pack:
    """A disjoint union of graphs: their nodes stacked graph after graph in
    every node matrix, and their edges in graph order, endpoints in pack rows."""

    graphs: list
    sizes: np.ndarray  # nodes per graph
    n_nodes: int
    node_graph: np.ndarray  # graph of each row, sorted
    src: np.ndarray  # edge endpoints, in pack rows
    dst: np.ndarray
    edges: dc.Tensor  # transformed edge vectors (n_edges, edge_out_dim)

    def nodes(self, attr: str) -> np.ndarray:
        """A per-node array attribute of every graph, stacked."""
        return np.concatenate([getattr(g, attr) for g in self.graphs])


def _pack(graphs, params: dc.ParamSet) -> _Pack:
    sizes = np.array([g.n_nodes for g in graphs])
    ends = np.concatenate([g.edge_ends for g in graphs])
    ends += np.repeat(np.cumsum(sizes) - sizes, [len(g.edge_ends) for g in graphs])[:, None]
    return _Pack(
        graphs=graphs,
        sizes=sizes,
        n_nodes=int(sizes.sum()),
        node_graph=np.repeat(np.arange(len(graphs)), sizes),
        src=ends[:, 0],
        dst=ends[:, 1],
        edges=edge_mlp(params, np.concatenate([g.edge_features for g in graphs])),
    )


# ── forward pass ──────────────────────────────────────────────────────────


def edge_mlp(params: dc.ParamSet, edge_features) -> dc.Tensor:
    """Two ReLU layers over raw edge vectors: (n_edges, d_e) -> (n_edges, m2)."""
    e = edge_features if isinstance(edge_features, dc.Tensor) else dc.Tensor(edge_features)
    h1 = dc.relu(dc.linear(e, params["edge_mlp.W1"], params["edge_mlp.b1"]))
    return dc.relu(dc.linear(h1, params["edge_mlp.W2"], params["edge_mlp.b2"]))


def _head(params: dc.ParamSet, z: dc.Tensor) -> dc.Tensor:
    hidden = dc.relu(dc.linear(z, params["head.W1"], params["head.b1"]))
    return dc.linear(hidden, params["head.W2"], params["head.b2"])


def _node_inputs_with_edges(pack: _Pack) -> dc.Tensor:
    """Node statistics beside the mean transformed vector of the edges
    touching each node (a self-edge counts once)."""
    e = np.arange(pack.src.size)
    loop = pack.src == pack.dst
    nodes = np.concatenate([pack.src, pack.dst[~loop]])
    edges = np.concatenate([e, e[~loop]])
    order = np.lexsort((edges, nodes))
    count = np.bincount(nodes, minlength=pack.n_nodes)
    total = dc.segment_sum(dc.gather_rows(pack.edges, edges[order]), nodes[order], pack.n_nodes)
    mean = total * (1.0 / np.maximum(count, 1))[:, None]
    return dc.concat([dc.Tensor(pack.nodes("node_features")), mean], axis=1)


def _gcn(pack: _Pack, params: dc.ParamSet, cfg: ModelConfig):
    blocks = dc.Blocks(pack.sizes, heads=1)
    # each row of the adjacency divided by its neighbour count (a padded row is 0)
    mask = blocks.adjacency(pack.src, pack.dst)
    a_hat = dc.Tensor((mask / np.maximum(mask.sum(axis=2, keepdims=True), 1))[:, None])
    h = _node_inputs_with_edges(pack)
    for layer in range(cfg.n_layers):
        xw = h @ params[f"gcn.L{layer}.W"]
        h = dc.relu(dc.block_mix(a_hat, xw, blocks) + params[f"gcn.L{layer}.b"])
    return h


def _gat(pack: _Pack, params: dc.ParamSet, cfg: ModelConfig):
    h = _node_inputs_with_edges(pack)
    dh, heads = cfg.head_dim, cfg.n_heads
    blocks = dc.Blocks(pack.sizes, heads)
    plan = dc.PairPlan(blocks, blocks.adjacency(pack.src, pack.dst))
    head_sum = np.kron(np.eye(heads), np.ones((dh, 1)))  # adds up each head's columns
    # a's entries in the order that reads it as two rows, every head's source
    # half then every head's destination half
    halves = np.arange(2 * dh * heads).reshape(2, dh, heads).transpose(0, 2, 1).reshape(-1)
    for layer in range(cfg.n_layers):
        prefix = f"gat.L{layer}"
        proj = h @ params[f"{prefix}.W"]
        a = dc.reshape(dc.gather_rows(dc.reshape(params[f"{prefix}.a"], (-1, 1)), halves), (2, -1))
        # score(v <- u) = a[:dh] . proj[u] + a[dh:] . proj[v], per head, for
        # each pair's key u and query v
        s_src = (proj * dc.gather_rows(a, [0])) @ head_sum
        s_dst = (proj * dc.gather_rows(a, [1])) @ head_sum
        scores = dc.leaky_relu(
            dc.gather_rows(s_src, plan.key_row) + dc.gather_rows(s_dst, plan.query_row), LEAKY_SLOPE
        )
        alpha = dc.pair_softmax(scores, plan)
        h = dc.relu(dc.block_mix(alpha, proj, blocks))
    return h


def _transformer(pack: _Pack, params: dc.ParamSet, cfg: ModelConfig):
    blocks = dc.Blocks(pack.sizes, cfg.n_heads)
    # ``block_scores`` reads its bias per pair of ``Blocks.every_cell``. Edge
    # u -> v biases the pair at cell (u, v); parallel edges average, and pairs
    # without an edge take the learned no-edge bias
    cells, pair_at = blocks.every_cell()
    n_pairs, w = cells.size, blocks.width
    edge_pair = np.take(pair_at, np.take(blocks.slot, pack.src) * w + np.take(blocks.slot, pack.dst) % w)
    order = np.argsort(edge_pair, kind="stable")
    count = np.bincount(edge_pair, minlength=n_pairs)
    edge_weight = (1.0 / count[edge_pair[order]])[:, None]
    no_edge = (count == 0).astype(np.float64)[:, None]

    pos = dc.gather_rows(params["pos.roles"], pack.nodes("node_roles")) + dc.Tensor(
        pack.nodes("node_xy")
    ) @ params["pos.coords"]
    x = dc.concat([dc.Tensor(pack.nodes("node_features")), pos], axis=1)
    h = dc.linear(x, params["input.W"], params["input.b"])

    scale = 1.0 / np.sqrt(cfg.head_dim)
    for layer in range(cfg.n_layers):
        prefix = f"tf.L{layer}"
        q, k, v = (h @ params[f"{prefix}.{name}"] for name in ("Wq", "Wk", "Wv"))
        edge_bias = dc.gather_rows(pack.edges @ params[f"{prefix}.rel_w"], order)
        rel = dc.segment_sum(edge_bias * edge_weight, edge_pair[order], n_pairs) + (
            params[f"{prefix}.rel_noedge"] * no_edge
        )
        alpha = dc.block_softmax(dc.block_scores(q, k, rel, blocks, scale), blocks)
        att = dc.block_mix(alpha, v, blocks)
        h = dc.layer_norm(att, h, params[f"{prefix}.ln1.gain"], params[f"{prefix}.ln1.bias"])
        ffn = dc.relu(dc.linear(h, params[f"{prefix}.ffn.W1"], params[f"{prefix}.ffn.b1"]))
        ffn = dc.linear(ffn, params[f"{prefix}.ffn.W2"], params[f"{prefix}.ffn.b2"])
        h = dc.layer_norm(ffn, h, params[f"{prefix}.ln2.gain"], params[f"{prefix}.ln2.bias"])
    return h


_MIXERS = {"gcn": _gcn, "gat": _gat, "transformer": _transformer}


def forward(graphs, params: dc.ParamSet, cfg: ModelConfig) -> tuple[dc.Tensor, np.ndarray]:
    """One pass over a pack of graphs; a single graph is ``[g]``.

    ``params`` maps each parameter name to a tensor. Returns the (B, 1)
    prediction tensor, whose tape reaches every parameter that requires
    grad, and the final node embeddings, one (sum n, hidden) array, graph
    after graph. Each mixing layer's weights live only for its
    ``dc.block_mix``.
    """
    pack = _pack(list(graphs), params)
    h = _MIXERS[cfg.variant](pack, params, cfg)
    z = dc.segment_sum(h, pack.node_graph, len(pack.graphs)) * (1.0 / pack.sizes)[:, None]
    return _head(params, z), h.data


@contextlib.contextmanager
def _float_errors_raised():
    """numpy's overflow, division by zero and invalid results inside raise
    dc.NumericError, where numpy would warn and go on."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise dc.NumericError(str(exc)) from None


def predict(graphs, params: dc.ParamSet, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Forward-only pass over ``graphs``, in packs of PREDICT_NODES nodes:
    two flat arrays in graph order, one prediction per graph and the L2 norm
    of every node's final embedding. Each parameter enters as a constant
    tensor over its array, so no op records a tape and no gradient reaches
    ``params``.
    """
    fixed = {name: dc.Tensor(t.data) for name, t in params.items()}
    predictions, norms = [], []
    with _float_errors_raised():
        for pack in packs(graphs, PREDICT_NODES):
            y, h = forward(pack, fixed, cfg)
            predictions.append(y.data[:, 0])
            norms.append(np.linalg.norm(h, axis=1))
    return np.concatenate(predictions), np.concatenate(norms)


# ── training and evaluation ───────────────────────────────────────────────


@dataclass
class EpochRecord:
    """One epoch's scores; the CLI's train log has one column per field, in this order."""

    epoch: int
    lr: float
    train_mse: float
    train_mae: float
    train_combined: float
    val_mse: float
    val_mae: float
    val_combined: float
    stopped_early: bool = False


# Part of the config train and evaluate record, so a checkpoint of an earlier
# layout is trained again, not skipped as fresh. Layout 1 stored each head's
# weights as tensors of their own; 2 stores one array per layer weight.
PARAMS_LAYOUT = 2


@dataclass
class Checkpoint:
    """A trained model: its config (variant and seed included), the node
    width it was trained on and its parameters. What graphs it was trained
    on is the run manifest's to record."""

    model_cfg: ModelConfig
    d_node: int
    params: dc.ParamSet

    def save(self, path) -> None:
        manifest = {"kind": "threatshare-model", "model_cfg": asdict(self.model_cfg), "d_node": self.d_node}
        ckpt_io.save_container(path, manifest, {name: t.data for name, t in self.params.items()})

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Raises ValueError unless the stored arrays are exactly the
        parameters of the stored config, each of its shape. Other manifest
        keys (those of a checkpoint written before) are ignored."""
        manifest, arrays = ckpt_io.load_container(path)
        raw_cfg = dict(manifest["model_cfg"])
        raw_cfg["edge_mlp_dims"] = tuple(raw_cfg["edge_mlp_dims"])
        model_cfg = ModelConfig(**raw_cfg)
        shapes = {name: shape for name, shape, *_ in _declared(model_cfg, manifest["d_node"])}
        params = dc.ParamSet.from_state(shapes, arrays)
        return cls(model_cfg=model_cfg, d_node=manifest["d_node"], params=params)


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log: list
    stopped_early: bool
    aborted: bool = False


class CheckpointMismatch(ValueError):
    """A checkpoint was trained on graphs of another node width."""


def score(predictions, labels) -> dict:
    """MSE, MAE and their sum ("combined") of predictions against labels."""
    err = np.asarray(predictions, dtype=np.float64) - np.asarray(labels, dtype=np.float64)
    mse = float(np.mean(err**2))
    mae = float(np.mean(np.abs(err)))
    return {"mse": mse, "mae": mae, "combined": mae + mse}


def evaluate(checkpoint: Checkpoint, graphs) -> tuple[np.ndarray, np.ndarray]:
    """``predict`` of a stored model over ``graphs``: the predictions and the
    node-embedding norms, in graph order; pure and deterministic.

    Raises CheckpointMismatch when the graphs are not of the node width the
    checkpoint was trained on.
    """
    graphs = list(graphs)
    for g in graphs:
        if g.node_features.shape[1] != checkpoint.d_node:
            raise CheckpointMismatch(
                f"graph {g.event_id}: {g.node_features.shape[1]} node features, "
                f"checkpoint expects {checkpoint.d_node}"
            )
    return predict(graphs, checkpoint.params, checkpoint.model_cfg)


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

    best = params.flat.copy()
    best_val = np.inf
    records: list[EpochRecord] = []
    val_history: list[float] = []
    stopped_early = False
    aborted = False

    for epoch in range(1, tcfg.epochs + 1):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(train_graphs))
        shuffled = [train_graphs[i] for i in order]
        train_predictions = []
        try:
            with _float_errors_raised():
                for chunk in make_batches(shuffled, tcfg.batch_size):
                    params.zero_grad()
                    pred = forward(chunk, params, cfg)[0]
                    dc.backward(dc.mse(pred, np.array([[g.label] for g in chunk])))
                    dc.adam_step(adam, params)
                    train_predictions.append(pred.data[:, 0])
            val_predictions, _ = predict(val_graphs, params, cfg)
        except dc.NumericError as exc:
            log.error("training aborted at epoch %d: %s", epoch, exc)
            aborted = True
            break

        tm = score(np.concatenate(train_predictions), [g.label for g in shuffled])
        vm = score(val_predictions, [g.label for g in val_graphs])
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
            best = params.flat.copy()

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

    params.flat[...] = best
    return TrainResult(
        checkpoint=Checkpoint(model_cfg=cfg, d_node=d_node, params=params),
        log=records,
        stopped_early=stopped_early,
        aborted=aborted,
    )

