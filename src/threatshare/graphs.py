"""Event graphs over temporal windows of SPADL actions.

One graph per event: its nodes are every player touching the ball in the
current action or the ``k`` before it, and each action in that window
contributes one directed edge from actor to recipient (or a self-edge when
nobody receives). The SPADL interchange rows carry no receiver column, so
recipients are recovered the standard way: a successful pass-like action
whose next action belongs to the same team and a different player passes
to that player.

Node features are the per-90 normalized season statistics; edge features
are a fixed 10-slot layout mixing what happened (type, result, geometry)
with when (match clock, gap to the window's newest action) and how much it
mattered (end-zone threat and its change).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from threatshare import credit
from threatshare.ingest import PASS_LIKE_SPADL, PITCH_LENGTH, PITCH_WIDTH, SPADL_ACTION_TYPES
from threatshare.xt import XtLabel, label_stream

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

MAX_NODES = 22
NODE_FEATURE_DIM = 10
EDGE_FEATURE_DIM = 10

HALF_NOMINAL_S = 2700.0
MATCH_NOMINAL_S = 5400.0
DT_CLIP_S = 60.0

ROLE_CODES = {"GK": 0, "DF": 1, "MF": 2, "FW": 3}
ROLE_UNKNOWN = 4
N_ROLES = 5

_TYPE_INDEX = {t: i for i, t in enumerate(SPADL_ACTION_TYPES)}


@dataclass
class EventGraph:
    """One labeled event graph (players as nodes, interactions as edges)."""

    event_id: str
    node_ids: list  # sorted player ids
    node_features: np.ndarray  # (n, d)
    adjacency: np.ndarray  # row-normalized (indicators + self-loops); row = destination
    edge_list: list  # (src_idx, dst_idx) per in-window interaction
    edge_features: np.ndarray  # (n_edges, 10)
    label: float
    node_xy: np.ndarray  # (n, 2) latest touch location, normalized
    node_roles: np.ndarray  # (n,) role codes; 4 = unknown
    cross_team: bool
    meta: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def validate(self) -> None:
        n = self.n_nodes
        if n == 0 or n > MAX_NODES:
            raise ValueError(f"graph {self.event_id}: {n} nodes")
        if self.node_features.shape[0] != n:
            raise ValueError(f"graph {self.event_id}: feature/node count mismatch")
        if not np.all(np.isfinite(self.node_features)):
            raise ValueError(f"graph {self.event_id}: non-finite node features")
        if not np.isfinite(self.label):
            raise ValueError(f"graph {self.event_id}: non-finite label")
        if self.edge_features.shape != (len(self.edge_list), EDGE_FEATURE_DIM):
            raise ValueError(f"graph {self.event_id}: edge feature shape")


def normalized_adjacency(n: int, edge_list) -> np.ndarray:
    """Row-normalize directed indicators plus self-loops; rows index the
    destination node, so information flows along the pass direction."""
    a = np.eye(n)
    for src, dst in edge_list:
        a[dst, src] = 1.0
    return a / a.sum(axis=1, keepdims=True)


def infer_recipients(actions) -> list:
    """Recipient player id per action, or None. Stream-adjacency rule."""
    recipients: list = [None] * len(actions)
    for i, a in enumerate(actions):
        if (
            a.action_type in PASS_LIKE_SPADL
            and a.result == "success"
            and i + 1 < len(actions)
        ):
            nxt = actions[i + 1]
            if nxt.team_id == a.team_id and nxt.player_id != a.player_id:
                recipients[i] = nxt.player_id
    return recipients


def encode_edges(actions, labels: list[XtLabel], clock: np.ndarray) -> np.ndarray:
    """Edge rows of one match stream, shape (N, 10), one row per action.

    Slots: 0 type index / vocabulary size; 1 result (1 success, 0 fail);
    2-5 start x, start y, end x, end y normalized to [0, 1] by the pitch
    size; 6 end-zone xT; 7 labeled xT change; 8 match clock / 5400;
    9 gap to the window's newest action, clipped at 60 s and scaled to
    [0, 1]. Slot 9 depends on the window, so it is 0 here and each graph
    fills it for its own slice.
    """
    return np.array(
        [
            (
                _TYPE_INDEX[a.action_type] / len(SPADL_ACTION_TYPES),
                1.0 if a.result == "success" else 0.0,
                a.start_x / PITCH_LENGTH,
                a.start_y / PITCH_WIDTH,
                a.end_x / PITCH_LENGTH,
                a.end_y / PITCH_WIDTH,
                label.xt_value,
                label.delta_xt,
                t / MATCH_NOMINAL_S,
                0.0,
            )
            for a, label, t in zip(actions, labels, clock)
        ],
        dtype=np.float64,
    ).reshape(-1, EDGE_FEATURE_DIM)


def build_match_graphs(actions, k, stats, grid, roles=None, centrality=False):
    """One graph per event of a single match stream.

    The graph of the event at index i covers the window of the k actions
    before it (clamped at the stream start) and the event itself. Its nodes
    are every actor and recipient in the window, sorted by player id; each
    action adds one directed edge from actor to recipient, or a self-edge
    when nobody receives.

    ``stats`` maps player id to the d=10 feature vector; players without an
    entry are imputed with the population mean and counted in meta.
    ``centrality=True`` appends each player's three normalized passing-network
    centralities of this match (degree, betweenness, closeness) to the stats.
    Labels, recipients, player rows and edge rows are computed once for the
    match; each event's graph slices its window out of them.
    """
    if k < 0:
        raise ValueError("window size k must be >= 0")
    labels = label_stream(actions, grid)
    recipients = infer_recipients(actions)
    extra = {}
    if centrality:
        pg = credit.build_passing_graph(actions, recipients)
        extra = credit.normalized_centrality_features(credit.centralities(pg), len(pg.nodes))
    clock = np.array([(a.period - 1) * HALF_NOMINAL_S + a.time_s for a in actions])
    edge_rows = encode_edges(actions, labels, clock)

    if stats:
        mean_vec = np.array(list(stats.values()), dtype=np.float64).mean(axis=0)
    else:
        mean_vec = np.zeros(NODE_FEATURE_DIM)
    extra_dim = len(next(iter(extra.values()))) if extra else 0
    players = sorted({a.player_id for a in actions} | {r for r in recipients if r is not None})
    player_index = {pid: j for j, pid in enumerate(players)}
    player_rows = np.zeros((len(players), len(mean_vec) + extra_dim))
    imputed = np.zeros(len(players), dtype=bool)
    role_codes = np.full(len(players), ROLE_UNKNOWN, dtype=np.int64)
    for j, pid in enumerate(players):
        vec = stats.get(pid)
        imputed[j] = vec is None
        player_rows[j, : len(mean_vec)] = mean_vec if vec is None else vec
        if pid in extra:
            player_rows[j, len(mean_vec) :] = extra[pid]
        if roles:
            role_codes[j] = ROLE_CODES.get(str(roles.get(pid, "")).upper(), ROLE_UNKNOWN)
    src_all = [player_index[a.player_id] for a in actions]
    dst_all = [s if r is None else player_index[r] for s, r in zip(src_all, recipients)]
    src_all, dst_all = np.array(src_all, dtype=np.int64), np.array(dst_all, dtype=np.int64)

    graphs = []
    for index, a in enumerate(actions):
        lo = max(0, index - k)
        src, dst = src_all[lo : index + 1], dst_all[lo : index + 1]
        nodes = np.unique(np.concatenate([src, dst]))
        edge_list = list(
            zip(np.searchsorted(nodes, src).tolist(), np.searchsorted(nodes, dst).tolist())
        )
        edges = edge_rows[lo : index + 1].copy()
        window_clock = clock[lo : index + 1]
        edges[:, 9] = np.minimum(window_clock.max() - window_clock, DT_CLIP_S) / DT_CLIP_S
        node_xy = np.zeros((len(nodes), 2))
        for (s, d), xy in zip(edge_list, edges[:, 4:6]):
            # latest touch wins: actor at the action end, recipient at the pass end
            node_xy[s] = xy
            node_xy[d] = xy
        graph = EventGraph(
            event_id=labels[index].event_id,
            node_ids=[players[j] for j in nodes.tolist()],
            node_features=player_rows[nodes],
            adjacency=normalized_adjacency(len(nodes), edge_list),
            edge_list=edge_list,
            edge_features=edges,
            label=labels[index].delta_xt,
            node_xy=node_xy,
            node_roles=role_codes[nodes],
            cross_team=labels[index].cross_team,
            meta={
                "match_id": a.game_id,
                "event_index": index,
                "k": k,
                "n_imputed": int(imputed[nodes].sum()),
                "actor_id": a.player_id,
            },
        )
        graph.validate()
        graphs.append(graph)
    return graphs


def split_dataset(graphs, split_frac: float, seed: int, unit: str = "graph"):
    """Deterministic shuffle + split; train size rounds up.

    ``unit="match"`` assigns whole matches so no match straddles the split.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("split_dataset: empty corpus")
    if not 0.0 < split_frac < 1.0:
        raise ValueError(f"split_frac must be in (0, 1), got {split_frac}")
    rng = np.random.default_rng([seed, 0x5EED])
    if unit == "graph":
        order = rng.permutation(len(graphs))
        n_train = int(np.ceil(len(graphs) * split_frac))
        train_idx = sorted(order[:n_train].tolist())
        val_idx = sorted(order[n_train:].tolist())
        return [graphs[i] for i in train_idx], [graphs[i] for i in val_idx]
    if unit == "match":
        matches = sorted({g.meta["match_id"] for g in graphs})
        order = rng.permutation(len(matches))
        n_train = int(np.ceil(len(matches) * split_frac))
        train_matches = {matches[i] for i in order[:n_train]}
        train = [g for g in graphs if g.meta["match_id"] in train_matches]
        val = [g for g in graphs if g.meta["match_id"] not in train_matches]
        return train, val
    raise ValueError(f"unknown split unit {unit!r}")


def batch(graphs, batch_size: int):
    """Order-preserving chunks of ``batch_size`` graphs (one optimizer step each)."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    graphs = list(graphs)
    return [graphs[i : i + batch_size] for i in range(0, len(graphs), batch_size)]


# ── persistence ───────────────────────────────────────────────────────────


def write_graphs(graphs, path) -> None:
    """One EventGraph per line; adjacency is rebuilt from edges on load."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for g in graphs:
            record = {
                "schema_version": SCHEMA_VERSION,
                "event_id": g.event_id,
                "node_ids": list(g.node_ids),
                "node_features": g.node_features.tolist(),
                "edge_list": [list(e) for e in g.edge_list],
                "edge_features": g.edge_features.tolist(),
                "label": g.label,
                "node_xy": g.node_xy.tolist(),
                "node_roles": g.node_roles.tolist(),
                "cross_team": g.cross_team,
                "meta": g.meta,
            }
            f.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            f.write("\n")


def read_graphs(path) -> list[EventGraph]:
    graphs = []
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            version = d.get("schema_version")
            if version != SCHEMA_VERSION:
                raise ValueError(f"{path}:{line_no}: schema version {version}")
            edge_list = [tuple(e) for e in d["edge_list"]]
            n = len(d["node_ids"])
            g = EventGraph(
                event_id=d["event_id"],
                node_ids=list(d["node_ids"]),
                node_features=np.array(d["node_features"], dtype=np.float64),
                adjacency=normalized_adjacency(n, edge_list),
                edge_list=edge_list,
                edge_features=np.array(d["edge_features"], dtype=np.float64).reshape(
                    len(edge_list), EDGE_FEATURE_DIM
                ),
                label=float(d["label"]),
                node_xy=np.array(d["node_xy"], dtype=np.float64).reshape(n, 2),
                node_roles=np.array(d["node_roles"], dtype=np.int64),
                cross_team=bool(d["cross_team"]),
                meta=d["meta"],
            )
            g.validate()
            graphs.append(g)
    return graphs
