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

The store (``graphs.ndjson``) keeps one compact line per action rather than
every window in full; ``read_graphs`` cuts the windows again with
``match_windows``, the same function ``build_match_graphs`` uses, and
``read_events`` reads each line's event facts without cutting any window.
"""

from __future__ import annotations

import json
import logging
import operator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from threatshare.ingest import (
    PASS_LIKE_SPADL,
    PITCH_LENGTH,
    PITCH_WIDTH,
    SPADL_ACTION_TYPES,
    action_columns,
)
from threatshare.xt import label_stream

log = logging.getLogger(__name__)

# The layout of a ``graphs.ndjson`` line, its ``schema_version`` field.
STORE_SCHEMA_VERSION = 2

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

# One line of graphs.ndjson and one of its first-seen players, their keys
# in sorted order at every level, filled as json's C encoder fills them:
# floats by float.__repr__, ints by int.__repr__, strings by
# encode_basestring_ascii. Every float is finite: match_windows checks the
# labels and player rows, and each edge's xT is a term of its label.
_STORE_LINE = (
    '{"cross_team":%s,"edge":[%s],"event_id":%s,"label":%s,"meta":{"actor_id":%s,'
    '"actor_team":%s,"clock":%s,"event_index":%s,"k":%s,"match_id":%s,"n_imputed":%s},'
    '"node_ids":[%s],"players":[%s],"recipient":%s,"schema_version":%d}\n'
)
_STORE_PLAYER = '{"features":[%s],"id":%s,"role":%s}'
_META_VALUES = operator.itemgetter(
    "actor_id", "actor_team", "clock", "event_index", "k", "match_id", "n_imputed"
)  # a graph's meta, in the line's key order


class WindowTooLarge(ValueError):
    """An event's window holds more players than a graph may (MAX_NODES)."""


@dataclass
class EventGraph:
    """One labeled event graph (players as nodes, interactions as edges)."""

    event_id: str
    node_ids: list  # sorted player ids
    node_features: np.ndarray  # (n, d)
    edge_ends: np.ndarray  # (n_edges, 2) int (src, dst) node indices, one row per in-window action
    edge_features: np.ndarray  # (n_edges, 10), row for row with edge_ends
    label: float
    node_xy: np.ndarray  # (n, 2) latest touch location, normalized
    node_roles: np.ndarray  # (n,) role codes; 4 = unknown
    cross_team: bool
    meta: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)


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


def encode_edges(actions, xt_value, delta_xt, clock: np.ndarray) -> np.ndarray:
    """Edge rows of one match stream, shape (N, 10), one row per action.

    Slots: 0 type index / vocabulary size; 1 result (1 success, 0 fail);
    2-5 start x, start y, end x, end y normalized to [0, 1] by the pitch
    size; 6 end-zone xT; 7 labeled xT change; 8 match clock / 5400;
    9 gap to the window's newest action, clipped at 60 s and scaled to
    [0, 1]. Slot 9 depends on the window, so it is 0 here and each graph
    fills it for its own slice. ``xt_value`` and ``delta_xt`` are the
    ``label_stream`` arrays of the stream, ``clock`` each action's match clock.
    """
    cols = action_columns(actions)
    n = len(actions)
    type_index = np.fromiter(map(_TYPE_INDEX.__getitem__, cols.action_type), np.float64, n)
    success = np.fromiter(map("success".__eq__, cols.result), np.float64, n)
    xy = np.array([cols.start_x, cols.start_y, cols.end_x, cols.end_y], dtype=np.float64).T
    return np.column_stack(
        [
            type_index / len(SPADL_ACTION_TYPES),
            success,
            xy / (PITCH_LENGTH, PITCH_WIDTH, PITCH_LENGTH, PITCH_WIDTH),
            xt_value,
            delta_xt,
            clock / MATCH_NOMINAL_S,
            np.zeros(n),
        ]
    )


def build_match_graphs(actions, k, stats, grid, roles=None, centrality=False):
    """One graph per event of a single match stream.

    The graph of the event at index i covers the window of the k actions
    before it (clamped at the stream start) and the event itself. Its nodes
    are every actor and recipient in the window, sorted by player id; each
    action adds one directed edge from actor to recipient, or a self-edge
    when nobody receives.

    ``stats`` maps player id to the d=10 feature vector; players without an
    entry are imputed with the population mean and counted in meta.
    ``centrality=True`` appends each player's ``passing_centralities`` of
    this match (degree, betweenness, closeness) to the stats.
    Labels, recipients, player rows and edge rows are computed once for the
    match; ``match_windows`` cuts every event's graph out of them.
    """
    if k < 0:
        raise ValueError("window size k must be >= 0")
    xt_value, delta_xt, cross_team = label_stream(actions, grid)
    recipients = infer_recipients(actions)
    cols = action_columns(actions)
    period = np.asarray(cols.period, dtype=np.float64)
    clock = (period - 1) * HALF_NOMINAL_S + np.asarray(cols.time_s, dtype=np.float64)
    edge_rows = encode_edges(actions, xt_value, delta_xt, clock)

    if stats:
        mean_vec = np.array(list(stats.values()), dtype=np.float64).mean(axis=0)
    else:
        mean_vec = np.zeros(NODE_FEATURE_DIM)
    players = sorted({a.player_id for a in actions} | {r for r in recipients if r is not None})
    player_index = {pid: j for j, pid in enumerate(players)}
    player_rows = np.zeros((len(players), len(mean_vec)))
    imputed = np.zeros(len(players), dtype=bool)
    role_codes = np.full(len(players), ROLE_UNKNOWN, dtype=np.int64)
    for j, pid in enumerate(players):
        vec = stats.get(pid)
        imputed[j] = vec is None
        player_rows[j] = mean_vec if vec is None else vec
        if roles:
            role_codes[j] = ROLE_CODES.get(str(roles.get(pid, "")).upper(), ROLE_UNKNOWN)
    src = [player_index[a.player_id] for a in actions]
    dst = [s if r is None else player_index[r] for s, r in zip(src, recipients)]
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    if centrality:
        player_rows = np.hstack([player_rows, passing_centralities(src, dst, len(players))])
    members = _window_members(src, dst, k, len(players))
    n_imputed = (members & imputed).sum(axis=1).tolist()
    events = [
        (
            f"{a.game_id}:{index}",
            delta,
            cross,
            {
                "match_id": a.game_id,
                "event_index": index,
                "k": k,
                "n_imputed": n,
                "actor_id": a.player_id,
                "actor_team": a.team_id,
                "clock": t,
            },
        )
        for index, (a, delta, cross, n, t) in enumerate(
            zip(actions, delta_xt.tolist(), cross_team.tolist(), n_imputed, clock.tolist())
        )
    ]
    return match_windows(players, player_rows, role_codes, src, dst, members, edge_rows, events, k)


def passing_centralities(src, dst, n: int) -> np.ndarray:
    """(n, 3) normalized degree, betweenness and closeness of each player on
    one match's passing network.

    ``src``/``dst`` are each action's actor and recipient player indices (the
    actor again when nobody receives). Every completed pass, ``src != dst``,
    links its two players by one undirected edge, however often they pass.
    Breadth-first search runs from every player at once, one matrix product
    per distance layer, counting shortest paths; Brandes' dependencies
    (Brandes 2001) then accumulate farthest layer first, each unordered pair
    counted once. Degree is scaled by n - 1 and betweenness by the
    (n - 1)(n - 2) / 2 pairs; closeness is the players a player reaches over
    the sum of their distances, 0 when it reaches none.
    """
    passed = src != dst
    adj = np.zeros((n, n))
    adj[src[passed], dst[passed]] = 1.0
    adj = np.maximum(adj, adj.T)
    sigma = np.eye(n)  # row s: the shortest-path counts from player s
    dist = np.zeros((n, n), dtype=np.int64)
    layers = [np.eye(n, dtype=bool)]  # layer d, per source: the players at distance d
    reached = layers[0].copy()
    while layers[-1].any():
        paths = np.where(layers[-1], sigma, 0.0) @ adj
        new = (paths > 0) & ~reached
        sigma[new], dist[new] = paths[new], len(layers)
        reached |= new
        layers.append(new)
    delta = np.zeros((n, n))  # row s: each player's dependency of source s
    for d in range(len(layers) - 2, 1, -1):
        ratio = np.divide(1.0 + delta, sigma, out=np.zeros((n, n)), where=layers[d])
        delta += np.where(layers[d - 1], sigma * (ratio @ adj), 0.0)
    reach = reached.sum(axis=1) - 1
    closeness = np.divide(reach, dist.sum(axis=1), out=np.zeros(n), where=reach > 0)
    max_b = (n - 1) * (n - 2) / 2.0 if n > 2 else 1.0
    return np.column_stack(
        [adj.sum(axis=1) / max(n - 1, 1), delta.sum(axis=0) / 2.0 / max_b, closeness]
    )


def _window_members(src, dst, k: int, n_players: int) -> np.ndarray:
    """(N, n_players) bool: whether player j acts or receives in the window
    of event i, the k actions before it (clamped at the stream start) and
    the event itself. ``src``/``dst`` are each action's player indices."""
    rows = np.arange(1, len(src) + 1)
    touched = np.zeros((len(src) + 1, n_players), dtype=np.int64)
    touched[rows, src] = 1
    touched[rows, dst] = 1
    touched = touched.cumsum(axis=0)  # row t: touches among the first t actions
    return touched[rows] > touched[np.maximum(rows - 1 - k, 0)]


def match_windows(players, player_rows, role_codes, src, dst, members, edge_rows, events, k):
    """Every event graph of one match, cut from its per-match columns.

    ``players`` are the match's player ids, sorted, with their feature rows
    and role codes; ``src``/``dst`` index each action's actor and recipient
    (the actor again when nobody receives); ``members`` is their
    ``_window_members`` mask for window size ``k``; ``edge_rows`` is the (N, 10)
    ``encode_edges`` matrix, slot 9 filled here per window from
    ``meta["clock"]``. ``events`` holds (event_id, label, cross_team, meta)
    per action. ``build_match_graphs`` and ``read_graphs`` both cut windows here.

    Every window is checked once for the match: 1..``MAX_NODES`` nodes,
    finite player rows, labels, edge rows and clocks, and one row per player
    and per action.
    A failed check raises ValueError naming the first offending event,
    WindowTooLarge when that event's window holds more than MAX_NODES.
    """
    if not events:
        return []
    n = len(events)
    n_nodes = members.sum(axis=1)
    clock = np.array([meta["clock"] for _, _, _, meta in events], dtype=np.float64)
    _check_windows(events, n_nodes, player_rows, members, edge_rows, clock)
    local = members.cumsum(axis=1) - 1  # each player's node index in each window
    _, cols = np.nonzero(members)  # every window's nodes in turn, in player order
    node_start = np.cumsum(n_nodes) - n_nodes
    lo = np.maximum(np.arange(n) - k, 0)
    n_edges = np.arange(n) - lo + 1
    edge_start = np.cumsum(n_edges) - n_edges
    owner = np.repeat(np.arange(n), n_edges)  # the window of each gathered edge
    action = np.arange(n_edges.sum()) - edge_start[owner] + lo[owner]
    ends = np.stack([local[owner, src[action]], local[owner, dst[action]]], axis=1)
    edges = edge_rows[action]
    window_clock = clock[action]
    newest = np.maximum.reduceat(window_clock, edge_start)
    edges[:, 9] = np.minimum(newest[owner] - window_clock, DT_CLIP_S) / DT_CLIP_S
    # latest touch wins: actor at the action end, recipient at the pass end
    last = np.full(len(cols), -1)
    for side in (0, 1):
        np.maximum.at(last, node_start[owner] + ends[:, side], np.arange(len(action)))
    node_xy = edges[last, 4:6]
    node_features, node_roles = player_rows[cols], role_codes[cols]
    node_ids = np.asarray(players, dtype=np.int64)[cols].tolist()

    graphs = []
    bounds = zip(node_start.tolist(), n_nodes.tolist(), edge_start.tolist(), n_edges.tolist())
    for (event_id, label, cross_team, meta), (a, size, e, width) in zip(events, bounds):
        b, f = a + size, e + width
        graph = EventGraph(
            event_id=event_id,
            node_ids=node_ids[a:b],
            node_features=node_features[a:b],
            edge_ends=ends[e:f],
            edge_features=edges[e:f],
            label=label,
            node_xy=node_xy[a:b],
            node_roles=node_roles[a:b],
            cross_team=cross_team,
            meta=meta,
        )
        graphs.append(graph)
    return graphs


def _check_windows(events, n_nodes, player_rows, members, edge_rows, clock) -> None:
    """The checks of ``match_windows``, over all of a match's windows at once.
    An action's edge row and clock enter its own window first."""
    first = events[0][0]
    if player_rows.ndim != 2 or player_rows.shape[0] != members.shape[1]:
        raise ValueError(f"graph {first}: feature/node count mismatch")
    if edge_rows.shape != (len(events), EDGE_FEATURE_DIM):
        raise ValueError(f"graph {first}: edge feature shape")
    # the first failing window across the checks; on a tie, the first check
    # in the order of a per-graph check
    faults = []
    oversized = np.flatnonzero((n_nodes < 1) | (n_nodes > MAX_NODES))
    if oversized.size:
        n = n_nodes[oversized[0]]
        faults.append((oversized[0], f"{n} nodes", WindowTooLarge if n > MAX_NODES else ValueError))
    bad_rows = ~np.isfinite(player_rows).all(axis=1)
    holding = np.flatnonzero(members[:, bad_rows].any(axis=1))
    if holding.size:
        faults.append((holding[0], "non-finite node features", ValueError))
    labels = np.array([label for _, label, _, _ in events], dtype=np.float64)
    for values, problem in (
        (labels, "non-finite label"),
        (edge_rows, "non-finite edge features"),
        (clock, "non-finite clock"),
    ):
        bad = np.flatnonzero(~np.isfinite(values.reshape(len(events), -1)).all(axis=1))
        if bad.size:
            faults.append((bad[0], problem, ValueError))
    if faults:
        i, problem, error = min(faults, key=lambda fault: fault[0])
        raise error(f"graph {events[i][0]}: {problem}")


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


# ── persistence ───────────────────────────────────────────────────────────


def write_graphs(graphs, path) -> None:
    """One line per action, in match and event order.

    A line holds what ``read_graphs`` needs to cut the windows again: the
    event id, the window's sorted ``node_ids``, label, ``cross_team`` and
    ``meta`` (with the action's exact match clock), the action's edge row
    (slots 0-8), its recipient id or null, and the feature row and role
    code of each player that first appears in the match on this line.
    ``graphs`` must be whole matches as ``build_match_graphs`` returns them.
    Each line is the bytes ``json.JSONEncoder(sort_keys=True,
    separators=(",", ":"))`` gives for that record, written line by line
    from ``_STORE_LINE``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    num, whole = float.__repr__, int.__repr__
    match, seen = None, set()
    with open(path, "w") as f:
        for g in graphs:
            ids = g.node_ids
            actor, team, clock, index, k, match_id, n_imputed = _META_VALUES(g.meta)
            if match_id != match:
                match, seen = match_id, set()
            src, dst = g.edge_ends[-1].tolist()  # the event's own action
            new = [j for j in dict.fromkeys((src, dst)) if ids[j] not in seen]
            players = ""
            if new:
                seen.update(ids[j] for j in new)
                players = ",".join(
                    _STORE_PLAYER % (",".join(map(num, g.node_features[j].tolist())),
                                     whole(ids[j]), whole(int(g.node_roles[j])))
                    for j in new
                )
            f.write(
                _STORE_LINE % (
                    "true" if g.cross_team else "false",
                    ",".join(map(num, g.edge_features[-1, :9].tolist())),
                    encode_basestring_ascii(g.event_id), num(g.label), whole(actor), whole(team),
                    num(clock), whole(index), whole(k), whole(match_id), whole(n_imputed),
                    ",".join(map(whole, ids)), players, "null" if dst == src else whole(ids[dst]),
                    STORE_SCHEMA_VERSION,
                )
            )


def _match_graphs(path, lines) -> list[EventGraph]:
    """The graphs of one match's stored lines, as (line number, record)."""
    table = {}
    for line_no, d in lines:
        for p in d["players"]:
            if p["id"] in table:
                raise ValueError(f"{path}:{line_no}: player {p['id']} stored twice")
            table[p["id"]] = p
    players = sorted(table)
    index = {pid: j for j, pid in enumerate(players)}
    try:
        src = [index[d["meta"]["actor_id"]] for _, d in lines]
        dst = [s if d["recipient"] is None else index[d["recipient"]] for s, (_, d) in zip(src, lines)]
    except KeyError as exc:
        raise ValueError(f"{path}: player {exc} of match {lines[0][1]['meta']['match_id']} "
                         "has no feature row") from None
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    k = lines[0][1]["meta"]["k"]
    edge_rows = np.zeros((len(lines), EDGE_FEATURE_DIM))
    edge_rows[:, :9] = np.array([d["edge"] for _, d in lines], dtype=np.float64)
    graphs = match_windows(
        players,
        np.array([table[pid]["features"] for pid in players], dtype=np.float64),
        np.array([table[pid]["role"] for pid in players], dtype=np.int64),
        src,
        dst,
        _window_members(src, dst, k, len(players)),
        edge_rows,
        [(d["event_id"], float(d["label"]), bool(d["cross_team"]), d["meta"]) for _, d in lines],
        k,
    )
    for g, (line_no, d) in zip(graphs, lines):
        if g.node_ids != d["node_ids"]:
            raise ValueError(f"{path}:{line_no}: node_ids differ from the rebuilt window")
    return graphs


def _stored_matches(path, take):
    """Each match of the store in turn, as ``take(line number, record)`` of
    each of its lines; nothing else of a record is kept.

    A store without lines, a line of another schema, a match whose event
    indices do not run 0..N-1 or whose k changes, a match stored in two
    runs, or a line whose meta match, actor or actor team id is not an
    integer or whose ``node_ids`` are not a non-empty list of integers
    raises ValueError naming the line."""
    done, taken, first = set(), [], None
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            version = d.get("schema_version") if isinstance(d, dict) else None
            if version != STORE_SCHEMA_VERSION:
                raise ValueError(f"{path}:{line_no}: schema version {version}")
            meta = d["meta"]
            for key in ("match_id", "actor_id", "actor_team"):
                if type(meta[key]) is not int:
                    raise ValueError(f"{path}:{line_no}: meta {key} {meta[key]!r} is not an integer")
            if set(map(type, d["node_ids"])) != {int}:
                raise ValueError(f"{path}:{line_no}: node_ids {d['node_ids']!r} are not player ids")
            if taken and meta["match_id"] != first["match_id"]:
                yield taken
                done.add(first["match_id"])
                taken = []
            if meta["match_id"] in done:
                raise ValueError(f"{path}:{line_no}: match {meta['match_id']} stored in two runs")
            if meta["event_index"] != len(taken):
                raise ValueError(
                    f"{path}:{line_no}: event {meta['event_index']} of match {meta['match_id']} "
                    f"where event {len(taken)} was due"
                )
            if not taken:
                first = meta
            elif meta["k"] != first["k"]:
                raise ValueError(f"{path}:{line_no}: k changes within match {meta['match_id']}")
            taken.append(take(line_no, d))
    if not taken:
        raise ValueError(f"{path}: no graphs")
    yield taken


def read_graphs(path) -> list[EventGraph]:
    """The graphs ``write_graphs`` stored, every window cut again by
    ``match_windows``. Besides the line checks of ``_stored_matches``, a
    window that does not rebuild to its stored ``node_ids`` raises
    ValueError."""
    graphs = []
    for lines in _stored_matches(path, lambda line_no, d: (line_no, d)):
        graphs.extend(_match_graphs(path, lines))
        del lines  # one match's records at a time: drop these before the next are read
    return graphs


class StoredEvent(NamedTuple):
    """What a stored line says of its event graph without cutting the
    window: the ``EventGraph`` fields of the same names."""

    event_id: str
    node_ids: list
    label: float
    cross_team: bool
    meta: dict


def read_events(path) -> list[StoredEvent]:
    """Each stored line's event id, ``node_ids``, label, cross-team flag and
    meta, in stored order, under the line checks of ``_stored_matches``."""
    matches = _stored_matches(
        path,
        lambda _, d: StoredEvent(
            d["event_id"], d["node_ids"], float(d["label"]), bool(d["cross_team"]), d["meta"]
        ),
    )
    return [e for events in matches for e in events]
