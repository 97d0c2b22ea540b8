"""Credit distribution: threat shares per player, centralities, rankings.

An event's threat change is split across every node of its graph in
proportion to the L2 norm of the node's final-layer embedding, so the
split is invariant to rescaling all embeddings and always sums back to
the event delta. Classical passing-network centralities (degree,
betweenness, closeness) are computed per match as a complementary static
view and can optionally feed back into node features.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

NEGATIVE_SHARE_MODES = ("prorata", "actor")


def attribute(
    node_ids,
    norms,
    delta: float,
    *,
    actor=None,
    negative_mode: str = "prorata",
) -> tuple[dict[int, float], bool]:
    """Split ``delta`` over an event graph's players by embedding magnitude.

    ``norms`` holds |h_v|, the L2 norm of each node's final embedding, in
    the order of ``node_ids``: share_v = (|h_v| / sum_u |h_u|) * delta.
    All-zero embeddings degrade to a uniform split. ``negative_mode="actor"``
    instead hands a negative delta entirely to the event's acting player
    ``actor`` (by default the first node). Returns the shares and whether the
    split fell back to uniform.
    """
    if negative_mode not in NEGATIVE_SHARE_MODES:
        raise ValueError(f"unknown negative_mode {negative_mode!r}")
    node_ids = list(node_ids)
    if negative_mode == "actor" and delta < 0:
        actor = node_ids[0] if actor is None else actor
        return {pid: (delta if pid == actor else 0.0) for pid in node_ids}, False

    total = norms.sum()
    uniform = total == 0.0
    weights = np.full(len(node_ids), 1.0 / len(node_ids)) if uniform else norms / total
    return {pid: float(w * delta) for pid, w in zip(node_ids, weights)}, bool(uniform)


# ── passing-network centralities ──────────────────────────────────────────


@dataclass
class PassingGraph:
    """Players as nodes, completed passes as weighted undirected edges."""

    nodes: list
    weights: dict = field(default_factory=dict)  # (u, v) sorted pair -> pass count

    def add_pass(self, u, v) -> None:
        if u == v:
            return
        key = (u, v) if u <= v else (v, u)
        self.weights[key] = self.weights.get(key, 0) + 1

    def neighbors(self) -> dict:
        adj = {v: set() for v in self.nodes}
        for u, v in self.weights:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def build_passing_graph(actions, recipients) -> PassingGraph:
    """Per-match passing network from a SPADL stream plus inferred receivers."""
    nodes = sorted({a.player_id for a in actions})
    pg = PassingGraph(nodes=nodes)
    for a, rec in zip(actions, recipients):
        if rec is not None and a.result == "success":
            pg.add_pass(a.player_id, rec)
    return pg


@dataclass
class CentralityReport:
    """Per-player structural measures on one match's passing network."""

    degree: dict
    betweenness: dict
    closeness: dict


def centralities(pg: PassingGraph) -> CentralityReport:
    """Degree, Brandes betweenness (unordered pairs), normalized closeness.

    Closeness is (|C|-1) / sum of distances within the node's component,
    which keeps it in [0, 1]; isolated nodes score 0.
    """
    adj = pg.neighbors()
    nodes = list(pg.nodes)
    degree = {v: len(adj[v]) for v in nodes}
    betweenness = {v: 0.0 for v in nodes}
    closeness = {}

    for s in nodes:
        # single-source BFS with shortest-path counting
        dist = {s: 0}
        sigma = {v: 0 for v in nodes}
        sigma[s] = 1
        preds = {v: [] for v in nodes}
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        # dependency accumulation
        delta = {v: 0.0 for v in nodes}
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                betweenness[w] += delta[w]
        reach = len(dist) - 1
        closeness[s] = reach / sum(dist.values()) if reach > 0 else 0.0

    # Brandes over all sources counts each unordered pair twice
    betweenness = {v: b / 2.0 for v, b in betweenness.items()}
    return CentralityReport(degree=degree, betweenness=betweenness, closeness=closeness)


def normalized_centrality_features(report: CentralityReport, n_nodes: int) -> dict:
    """Scale the three measures to [0, 1] for use as extra node features."""
    max_b = (n_nodes - 1) * (n_nodes - 2) / 2.0 if n_nodes > 2 else 1.0
    return {
        v: [
            report.degree[v] / max(n_nodes - 1, 1),
            report.betweenness[v] / max_b,
            report.closeness[v],
        ]
        for v in report.degree
    }


# ── season ledger and rankings ────────────────────────────────────────────


@dataclass
class CreditLedger:
    """Event-level shares plus season aggregates per player."""

    shares: dict = field(default_factory=dict)  # (event_id, player_id) -> share
    event_cross_team: dict = field(default_factory=dict)
    player_total: dict = field(default_factory=dict)
    player_team: dict = field(default_factory=dict)
    player_matches: dict = field(default_factory=dict)  # player -> set of match ids
    player_minutes: dict = field(default_factory=dict)
    uniform_fallbacks: int = 0  # events split uniformly: all embeddings were zero

    def add_event(self, event_id, match_id, cross_team, shares: dict) -> None:
        self.event_cross_team[event_id] = cross_team
        for pid, share in shares.items():
            self.shares[(event_id, pid)] = share
            self.player_total[pid] = self.player_total.get(pid, 0.0) + share
            self.player_matches.setdefault(pid, set()).add(match_id)

    def per90(self, pid) -> float:
        minutes = self.player_minutes.get(pid, 0.0)
        if minutes <= 0:
            return 0.0
        return self.player_total.get(pid, 0.0) * 90.0 / minutes


def build_ledger(
    events,
    predictions,
    norms,
    *,
    source: str = "predicted",
    stats=None,
    player_team=None,
    negative_mode: str = "prorata",
) -> CreditLedger:
    """Attribute every event and aggregate into a season ledger.

    ``events`` are event graphs or the stored events ``graphs.read_events``
    returns: each has an ``event_id``, ``node_ids``, ``label``, ``cross_team``
    and a ``meta`` with its ``match_id`` and ``actor_id``. ``predictions``
    holds the model's delta per event and ``norms`` every event's node
    embedding norms in turn, as ``evaluate`` stores them in
    ``outputs_<variant>``. ``source`` picks the delta that gets distributed:
    the model prediction (default) or the labeled value. Events whose
    embeddings are all zero fall back to a uniform split; their count is
    logged once.
    """
    if source not in ("predicted", "labeled"):
        raise ValueError(f"unknown attribution source {source!r}")
    deltas = predictions.tolist() if source == "predicted" else [e.label for e in events]
    ledger = CreditLedger()
    end = 0
    for e, delta in zip(events, deltas, strict=True):
        start, end = end, end + len(e.node_ids)
        shares, uniform = attribute(
            e.node_ids, norms[start:end], delta,
            actor=e.meta["actor_id"], negative_mode=negative_mode,
        )
        ledger.uniform_fallbacks += uniform
        ledger.add_event(e.event_id, e.meta["match_id"], e.cross_team, shares)
    if ledger.uniform_fallbacks:
        log.warning(
            "%d of %d events had all-zero embeddings; their deltas were split uniformly",
            ledger.uniform_fallbacks,
            len(events),
        )
    if stats:
        for pid, s in stats.items():
            ledger.player_minutes[pid] = s.minutes_played
    if player_team:
        ledger.player_team.update(player_team)
    return ledger


@dataclass(frozen=True)
class RankRow:
    rank: int
    player_id: int
    team_id: object
    metric: float


def rank(ledger: CreditLedger, mode: str = "total", scope: str = "overall") -> list[RankRow]:
    """Order players by season credit; ties break on the lower player id.

    ``scope="by_team"`` keeps only the top player of each team, ordered by
    the same metric.
    """
    if mode not in ("total", "per90"):
        raise ValueError(f"unknown rank mode {mode!r}")
    if scope not in ("overall", "by_team"):
        raise ValueError(f"unknown rank scope {scope!r}")

    def metric(pid):
        return ledger.player_total.get(pid, 0.0) if mode == "total" else ledger.per90(pid)

    players = sorted(ledger.player_total, key=lambda pid: (-metric(pid), pid))
    if scope == "by_team":
        seen_teams = set()
        kept = []
        for pid in players:
            team = ledger.player_team.get(pid)
            if team in seen_teams:
                continue
            seen_teams.add(team)
            kept.append(pid)
        players = kept
    return [
        RankRow(rank=i + 1, player_id=pid, team_id=ledger.player_team.get(pid), metric=metric(pid))
        for i, pid in enumerate(players)
    ]


def case_report(actions, first_index: int, ledger: CreditLedger):
    """Attributed threat change of the acting player for each action of one
    contiguous in-match sequence starting at stream index ``first_index``."""
    rows = []
    for offset, a in enumerate(actions):
        event_id = f"{a.game_id}:{first_index + offset}"
        key = (event_id, a.player_id)
        if key not in ledger.shares:
            raise KeyError(f"event {event_id} (player {a.player_id}) not in ledger")
        rows.append((a, ledger.shares[key]))
    return rows
