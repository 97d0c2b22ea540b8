"""Offline season slice for the ``season-graphs`` workload.

``fixtures.generate_match_events`` plays two synthetic teams (ids 1001 and
1002, players 101-111 and 201-211). This module replays it for a league of
20 teams with 28-player squads: every match pairs two league teams, and the
two synthetic elevens are remapped onto a seeded lineup of each squad. The
stats and roles CSVs cover the whole league, because graph building scans
the full stats population for every event, so a per-graph cost measured on
the 28-player fixture would hide that term.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from threatshare import fixtures, ingest

N_TEAMS = 20
SQUAD_SIZE = 28
LINEUP_SIZE = 11
TEAM_ID_BASE = 5000
MATCH_ID_BASE = 700000
ROLES_BY_SQUAD_SLOT = ("GK", "DF", "DF", "DF", "DF", "MF", "MF", "MF", "FW", "FW", "FW", "MF", "DF", "FW")


def squad(team: int) -> list[int]:
    """Player ids of league team ``team`` (0-based)."""
    base = (team + 1) * 1000
    return [base + i for i in range(1, SQUAD_SIZE + 1)]


def fixture_list(n_matches: int) -> list[tuple[int, int]]:
    """(home, away) team indices of a circle-method round robin, in order."""
    teams = list(range(N_TEAMS))
    pairs = []
    while len(pairs) < n_matches:
        for i in range(N_TEAMS // 2):
            pairs.append((teams[i], teams[N_TEAMS - 1 - i]))
        teams = [teams[0], teams[-1]] + teams[1:-1]
    return pairs[:n_matches]


def _remap(rows: list[dict], team_map: dict, player_map: dict) -> None:
    for row in rows:
        team = team_map[row["team"]["id"]]
        row["team"] = {"id": team, "name": f"League {team}"}
        row["player"] = {"id": player_map[row["player"]["id"]]}
        recipient = row.get("pass", {}).get("recipient")
        if recipient is not None:
            recipient["id"] = player_map[recipient["id"]]


def _stats_rows(rng: np.random.Generator) -> list[dict]:
    rows = []
    for team in range(N_TEAMS):
        for slot, pid in enumerate(squad(team)):
            role = ROLES_BY_SQUAD_SLOT[slot % len(ROLES_BY_SQUAD_SLOT)]
            attacking = {"FW": 1.0, "MF": 0.6, "DF": 0.25, "GK": 0.05}[role]
            rows.append(
                {
                    "player_id": pid,
                    "goals": int(rng.poisson(8 * attacking)),
                    "successful_dribbles": int(rng.poisson(25 * attacking + 5)),
                    "tackles": int(rng.poisson(40 * (1.2 - attacking))),
                    "accurate_pass_pct": round(float(rng.uniform(0.6, 0.95)), 3),
                    "rating": round(float(rng.uniform(6.2, 8.2)), 2),
                    "goal_conversion_pct": round(float(rng.uniform(0.0, 0.3) * attacking), 3),
                    "interceptions": int(rng.poisson(30 * (1.2 - attacking))),
                    "clearances": int(rng.poisson(45 * (1.1 - attacking))),
                    "accurate_passes": int(rng.integers(300, 1800)),
                    "key_passes": int(rng.poisson(20 * attacking + 2)),
                    "minutes_played": float(rng.integers(300, 3000)),
                }
            )
    return rows


def write_season(dest, seed: int, match_lengths) -> None:
    """Write one event JSON per match plus league-wide stats and roles CSVs.

    ``match_lengths`` gives the event count of each match in schedule order.
    """
    dest = Path(dest)
    events_dir = dest / "events"
    events_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x5EA5])
    for m, ((home, away), n_events) in enumerate(zip(fixture_list(len(match_lengths)), match_lengths)):
        match_id = MATCH_ID_BASE + m
        rows = fixtures.generate_match_events(match_id, seed, n_events=int(n_events))
        team_map = {1001: TEAM_ID_BASE + home, 1002: TEAM_ID_BASE + away}
        player_map = {}
        for synthetic_team, league_team in ((1001, home), (1002, away)):
            lineup = rng.choice(squad(league_team), size=LINEUP_SIZE, replace=False)
            base = 100 if synthetic_team == 1001 else 200
            for slot, pid in enumerate(lineup.tolist()):
                player_map[base + 1 + slot] = int(pid)
        _remap(rows, team_map, player_map)
        (events_dir / f"{match_id}.json").write_text(json.dumps(rows, sort_keys=True))

    stats_path = dest / "player_stats.csv"
    with open(stats_path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(ingest.STATS_CSV_COLUMNS))
        writer.writeheader()
        writer.writerows(_stats_rows(rng))
    roles_path = dest / "player_roles.csv"
    with open(roles_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["player_id", "role"])
        for team in range(N_TEAMS):
            for slot, pid in enumerate(squad(team)):
                writer.writerow([pid, ROLES_BY_SQUAD_SLOT[slot % len(ROLES_BY_SQUAD_SLOT)]])


def tree_digest(root) -> str:
    """SHA-256 over the relative paths and bytes of every file under ``root``."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
