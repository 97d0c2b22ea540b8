"""Synthetic event graphs for the tests: random graphs and a planted dataset.

Everything here is seeded and deterministic. The planted-signal generator
produces event graphs whose labels are a fixed linear function of the pooled
node features, which any of the model variants should be able to regress.
"""

import numpy as np

from threatshare.graphs import EDGE_FEATURE_DIM, MAX_NODES, NODE_FEATURE_DIM, EventGraph


def validate(graph: EventGraph) -> None:
    """The checks ``graphs.match_windows`` makes of its windows, for one
    graph built by hand."""
    n = graph.n_nodes
    if n == 0 or n > MAX_NODES:
        raise ValueError(f"graph {graph.event_id}: {n} nodes")
    if graph.node_features.shape[0] != n:
        raise ValueError(f"graph {graph.event_id}: feature/node count mismatch")
    if not np.all(np.isfinite(graph.node_features)):
        raise ValueError(f"graph {graph.event_id}: non-finite node features")
    if not np.isfinite(graph.label):
        raise ValueError(f"graph {graph.event_id}: non-finite label")
    if graph.edge_features.shape != (len(graph.edge_ends), EDGE_FEATURE_DIM):
        raise ValueError(f"graph {graph.event_id}: edge feature shape")


def random_event_graph(
    rng: np.random.Generator,
    n_nodes: int | None = None,
    event_id: str = "synthetic",
) -> EventGraph:
    """A structurally valid random event graph (features in [0, 1])."""
    n = int(n_nodes or rng.integers(2, 11))
    node_ids = sorted(rng.choice(np.arange(100, 900), size=n, replace=False).tolist())
    n_edges = int(rng.integers(1, 2 * n + 1))
    edge_ends = np.array(
        [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(n_edges)], dtype=np.int64
    )
    edge_features = rng.uniform(0.0, 1.0, size=(n_edges, EDGE_FEATURE_DIM))
    edge_features[:, 7] = rng.uniform(-0.5, 0.5, size=n_edges)  # delta slot is signed
    graph = EventGraph(
        event_id=event_id,
        node_ids=node_ids,
        node_features=rng.uniform(0.0, 1.0, size=(n, NODE_FEATURE_DIM)),
        edge_ends=edge_ends,
        edge_features=edge_features,
        label=float(rng.uniform(-0.3, 0.3)),
        node_xy=rng.uniform(0.0, 1.0, size=(n, 2)),
        node_roles=rng.integers(0, 5, size=n),
        cross_team=bool(rng.uniform() < 0.2),
        meta={"match_id": 0, "event_index": 0, "k": 0, "n_imputed": 0, "actor_id": node_ids[0],
              "actor_team": 0},
    )
    validate(graph)
    return graph


def planted_linear_dataset(
    n_graphs: int = 500,
    seed: int = 11,
    noise: float = 0.01,
    n_nodes: int = 4,
    signal_gain: float = 0.35,
) -> list[EventGraph]:
    """Graphs whose labels are a fixed linear read-out of the pooled node
    features plus Gaussian noise.

    Built to be learnable inside a tiny optimization budget (a few hundred
    Adam steps at lr 1e-4): the structure is a fixed ring, nine features sit
    at a constant, and all label variance comes from the pooled value of the
    remaining feature. Anything the model has to unlearn (init offsets,
    passthrough of non-signal variation) eats directly into that budget.
    """
    rng = np.random.default_rng([seed, 0x1EAF])
    ring = np.array([(i, (i + 1) % n_nodes) for i in range(n_nodes)], dtype=np.int64)
    graphs = []
    for i in range(n_graphs):
        feats = np.full((n_nodes, NODE_FEATURE_DIM), 0.1)
        feats[:, 0] = rng.uniform(0.0, 1.0, n_nodes)
        label = (feats[:, 0].mean() - 0.5) * signal_gain + rng.normal(0.0, noise)
        g = EventGraph(
            event_id=f"planted:{i}",
            node_ids=list(range(1, n_nodes + 1)),
            node_features=feats,
            edge_ends=ring,
            edge_features=np.zeros((n_nodes, EDGE_FEATURE_DIM)),
            label=float(label),
            node_xy=np.full((n_nodes, 2), 0.5),
            node_roles=np.full(n_nodes, 4, dtype=np.int64),
            cross_team=False,
            meta={"match_id": 0, "event_index": i, "k": 0, "n_imputed": 0, "actor_id": 1,
                  "actor_team": 0},
        )
        validate(g)
        graphs.append(g)
    return graphs


# widths that keep the planted signal reachable within the small step budget
# (wider layers move the function further per optimizer step)
SMOKE_HIDDEN_DIM = 128
SMOKE_HEAD_HIDDEN_DIM = 64
SMOKE_FFN_DIM = 256
