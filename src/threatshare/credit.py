"""Credit distribution: threat shares per player, season totals, rankings.

An event's threat change is split across every node of its graph in
proportion to the L2 norm of the node's final-layer embedding, so the
split is invariant to rescaling all embeddings and always sums back to
the event delta. The shares are totalled per player over the season and
ranked by total or per-90 credit.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

NEGATIVE_SHARE_MODES = ("prorata", "actor")


def split(norms, sizes, deltas, actor=None) -> tuple[np.ndarray, np.ndarray]:
    """Split every event's ``delta`` over its nodes by embedding magnitude.

    ``norms`` holds |h_v|, the L2 norm of each node's final embedding, for
    every event's nodes in turn; ``sizes`` is each event's node count:
    share_v = (|h_v| / sum_u |h_u|) * delta, summed over the event's own
    nodes. An event whose norms are all zero is split uniformly. ``actor``,
    a mask over the nodes marking each event's acting player, instead hands
    a negative delta entirely to that player (the ``"actor"`` negative-share
    mode). Returns every node's share and, per event, whether its split fell
    back to uniform.
    """
    norms = np.asarray(norms, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.float64)
    starts = np.cumsum(sizes) - sizes
    totals = np.empty(len(sizes))
    # events of one size as the rows of one array: each row sums as its own slice would
    for n in set(sizes.tolist()):
        rows = np.flatnonzero(sizes == n)
        totals[rows] = norms[starts[rows, None] + np.arange(n)].sum(axis=1)
    uniform = totals == 0.0
    node_uniform = np.repeat(uniform, sizes)
    weights = np.where(
        node_uniform,
        np.repeat(1.0 / sizes, sizes),
        norms / np.repeat(np.where(uniform, 1.0, totals), sizes),
    )
    node_deltas = np.repeat(deltas, sizes)
    shares = weights * node_deltas
    if actor is not None:
        negative = deltas < 0
        shares = np.where(np.repeat(negative, sizes), np.where(actor, node_deltas, 0.0), shares)
        uniform &= ~negative
    return shares, uniform


# ── season ledger and rankings ────────────────────────────────────────────


class PlayerTotal(NamedTuple):
    """One player's season credit, as ``player_totals.csv`` holds it."""

    player_id: int
    team_id: int | None  # the team it acted for most often; None if it never acted
    total: float
    per90: float
    matches: int
    minutes: float


def build_ledger(
    events,
    predictions,
    norms,
    *,
    source: str = "predicted",
    stats=None,
    negative_mode: str = "prorata",
) -> tuple[np.ndarray, list[PlayerTotal], int]:
    """Split every event and total the shares per player.

    ``events`` are event graphs or the stored events ``graphs.read_events``
    returns: each has ``node_ids``, a ``label`` and a ``meta`` with its
    ``match_id``, ``actor_id`` and ``actor_team``. ``predictions`` and
    ``norms`` are what ``evaluate`` stores in ``outputs_<variant>``: one
    delta per event, and every event's node embedding norms in turn.
    ``source`` picks the delta that gets split: the model prediction
    (default) or the labeled value; ``stats`` gives the minutes for per90.

    Returns every node's share in event order, one ``PlayerTotal`` per
    player in id order, and how many events fell back to a uniform split
    (logged once).
    """
    if source not in ("predicted", "labeled"):
        raise ValueError(f"unknown attribution source {source!r}")
    if negative_mode not in NEGATIVE_SHARE_MODES:
        raise ValueError(f"unknown negative_mode {negative_mode!r}")
    sizes = np.array([len(e.node_ids) for e in events], dtype=np.int64)
    node_ids = np.array([pid for e in events for pid in e.node_ids], dtype=np.int64)
    deltas = predictions if source == "predicted" else [e.label for e in events]
    actor = None
    if negative_mode == "actor":
        actor = node_ids == np.repeat([e.meta["actor_id"] for e in events], sizes)
    shares, uniform = split(norms, sizes, deltas, actor)
    fallbacks = int(uniform.sum())
    if fallbacks:
        log.warning(
            "%d of %d events had all-zero embeddings; their deltas were split uniformly",
            fallbacks,
            len(events),
        )

    players = sorted(set(node_ids.tolist()))
    column = np.searchsorted(players, node_ids)
    # bincount adds in node order, as a running sum per player would
    totals = np.bincount(column, weights=shares, minlength=len(players)).tolist()
    node_matches = np.repeat([e.meta["match_id"] for e in events], sizes)
    played = [c for c, _ in set(zip(column.tolist(), node_matches.tolist()))]
    matches = np.bincount(played, minlength=len(players)).tolist()
    acted = Counter((e.meta["actor_id"], e.meta["actor_team"]) for e in events)
    # a player's last pair in (count, -team) order: its most frequent team, ties to the lower id
    by_count = sorted(acted.items(), key=lambda kv: (kv[1], -kv[0][1]))
    teams = {pid: team for (pid, team), _ in by_count}
    rows = []
    for pid, total, n_matches in zip(players, totals, matches):
        minutes = stats[pid].minutes_played if stats and pid in stats else 0.0
        per90 = 0.0 if minutes <= 0 else total * 90.0 / minutes
        rows.append(PlayerTotal(pid, teams.get(pid), total, per90, n_matches, minutes))
    return shares, rows, fallbacks


@dataclass(frozen=True)
class RankRow:
    rank: int
    player_id: int
    team_id: object
    metric: float


def rank(players, mode: str = "total", scope: str = "overall") -> list[RankRow]:
    """Order ``PlayerTotal`` rows by their ``total`` or ``per90`` credit;
    ties break on the lower player id.

    ``scope="by_team"`` keeps only the top player of each team, ordered by
    the same metric.
    """
    if mode not in ("total", "per90"):
        raise ValueError(f"unknown rank mode {mode!r}")
    if scope not in ("overall", "by_team"):
        raise ValueError(f"unknown rank scope {scope!r}")
    ordered = sorted(players, key=lambda p: (-getattr(p, mode), p.player_id))
    if scope == "by_team":
        top = {}
        for p in ordered:
            top.setdefault(p.team_id, p)
        ordered = list(top.values())
    return [
        RankRow(rank=i + 1, player_id=p.player_id, team_id=p.team_id, metric=getattr(p, mode))
        for i, p in enumerate(ordered)
    ]


def case_report(actions, first_index: int, shares: dict):
    """Attributed threat change of the acting player for each action of one
    contiguous in-match sequence starting at stream index ``first_index``;
    ``shares`` maps ``(event_id, player_id)`` to a share."""
    rows = []
    for offset, a in enumerate(actions):
        key = (f"{a.game_id}:{first_index + offset}", a.player_id)
        if key not in shares:
            raise KeyError(f"event {key[0]} (player {a.player_id}) has no share")
        rows.append((a, shares[key]))
    return rows
