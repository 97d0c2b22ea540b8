"""Synthetic data: the bundled sample matches and season-sized corpora.

Everything here is seeded and deterministic. The matches are written in the
provider event layout (120x80 coordinates, period-relative clocks) so the
full ingest path gets exercised offline.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from threatshare.ingest import PITCH_LENGTH, PITCH_WIDTH, PROVIDER_LENGTH, PROVIDER_WIDTH

FIXTURE_MATCH_IDS = (9001, 9002)

_TEAMS = {1001: "Harbor Town", 1002: "Northfield Rovers"}

_ROLES_BY_SLOT = ("GK", "DF", "DF", "DF", "DF", "MF", "MF", "MF", "FW", "FW", "FW", "MF", "DF", "FW")


def _squad(team_id: int) -> list[int]:
    base = 100 if team_id == 1001 else 200
    return [base + i for i in range(1, 15)]


def _roles() -> dict[int, str]:
    roles = {}
    for team_id in _TEAMS:
        for slot, pid in enumerate(_squad(team_id)):
            roles[pid] = _ROLES_BY_SLOT[slot]
    return roles


def _fmt_clock(seconds: float) -> str:
    h = int(seconds // 3600)
    m = int(seconds % 3600 // 60)
    s = seconds % 60
    return f"{h:02d}:{m:02d}:{s:06.3f}"


def _provider_xy(x_m: float, y_m: float) -> list[float]:
    return [
        round(x_m * PROVIDER_LENGTH / PITCH_LENGTH, 2),
        round(y_m * PROVIDER_WIDTH / PITCH_WIDTH, 2),
    ]


def generate_match_events(match_id: int, seed: int, n_events: int = 200) -> list[dict]:
    """One synthetic match in provider layout: possession chains of passes
    and carries punctuated by shots, tackles, and interceptions."""
    rng = np.random.default_rng([seed, match_id])
    squads = {tid: _squad(tid)[:11] for tid in _TEAMS}
    rows: list[dict] = []
    event_counter = 0

    for period in (1, 2):
        clock = 0.0
        team_id = 1001 if period == 1 else 1002
        target = n_events // 2
        produced = 0
        possession_player = int(rng.choice(squads[team_id]))
        # attack left-to-right in meters; flip per team
        x = 30.0 if team_id == 1001 else 75.0
        y = 34.0
        while produced < target:
            clock += float(rng.uniform(4.0, 18.0))
            direction = 1.0 if team_id == 1001 else -1.0
            step = float(rng.uniform(3.0, 18.0))
            end_x = min(max(x + direction * step, 1.0), 104.0)
            end_y = min(max(y + float(rng.uniform(-12.0, 12.0)), 1.0), 67.0)
            near_goal = end_x > 85.0 if team_id == 1001 else end_x < 20.0
            roll = rng.uniform()

            event_counter += 1
            row = {
                "id": f"fx-{match_id}-{event_counter:04d}",
                "period": period,
                "timestamp": _fmt_clock(clock),
                "minute": int(clock // 60),
                "second": int(clock % 60),
                "team": {"id": team_id, "name": _TEAMS[team_id]},
                "player": {"id": possession_player},
                "location": _provider_xy(x, y),
            }

            if near_goal and roll < 0.5:
                goal = bool(rng.uniform() < 0.3)
                row["type"] = {"name": "Shot"}
                goal_x = PITCH_LENGTH if team_id == 1001 else 0.0
                row["shot"] = {
                    "end_location": _provider_xy(goal_x, 34.0 + float(rng.uniform(-3, 3))),
                    "outcome": {"name": "Goal" if goal else "Off T"},
                }
                # restart with the other team from their own half
                team_id = 1002 if team_id == 1001 else 1001
                possession_player = int(rng.choice(squads[team_id]))
                x = 30.0 if team_id == 1001 else 75.0
                y = 34.0
            elif roll < 0.12:
                # possession lost to a defensive action by the other side
                other = 1002 if team_id == 1001 else 1001
                winner = int(rng.choice(squads[other]))
                kind = "Interception" if rng.uniform() < 0.5 else "Duel"
                row["type"] = {"name": kind}
                row["team"] = {"id": other, "name": _TEAMS[other]}
                row["player"] = {"id": winner}
                row["location"] = _provider_xy(end_x, end_y)
                if kind == "Duel":
                    row["duel"] = {"type": {"name": "Tackle"}, "outcome": {"name": "Won"}}
                else:
                    row["interception"] = {"outcome": {"name": "Success In Play"}}
                team_id = other
                possession_player = winner
                x, y = end_x, end_y
            elif roll < 0.35:
                row["type"] = {"name": "Carry"}
                row["carry"] = {"end_location": _provider_xy(end_x, end_y)}
                x, y = end_x, end_y
            elif roll < 0.42:
                row["type"] = {"name": "Dribble"}
                row["dribble"] = {"outcome": {"name": "Complete"}}
                x, y = end_x, end_y
            else:
                receiver = possession_player
                while receiver == possession_player:
                    receiver = int(rng.choice(squads[team_id]))
                complete = bool(rng.uniform() < 0.85)
                row["type"] = {"name": "Pass"}
                row["pass"] = {
                    "recipient": {"id": receiver},
                    "end_location": _provider_xy(end_x, end_y),
                }
                if not complete:
                    row["pass"]["outcome"] = {"name": "Incomplete"}
                    other = 1002 if team_id == 1001 else 1001
                    team_id = other
                    possession_player = int(rng.choice(squads[other]))
                else:
                    possession_player = receiver
                x, y = end_x, end_y

            rows.append(row)
            produced += 1
    return rows


def generate_player_stats(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 0xCAFE])
    roles = _roles()
    rows = []
    for pid, role in sorted(roles.items()):
        minutes = float(rng.integers(900, 3000))
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
                "minutes_played": minutes,
            }
        )
    return rows


def write_fixture(dest_dir, seed: int = 20240901) -> dict:
    """Write the bundled sample: two provider-layout matches, a stats CSV,
    and a roles CSV. Returns the paths."""
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    event_paths = []
    for match_id in FIXTURE_MATCH_IDS:
        rows = generate_match_events(match_id, seed)
        path = dest / f"{match_id}.json"
        path.write_text(json.dumps(rows, indent=1, sort_keys=True))
        event_paths.append(path)

    stats_rows = generate_player_stats(seed)
    stats_path = dest / "player_stats.csv"
    with open(stats_path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(stats_rows[0]))
        writer.writeheader()
        writer.writerows(stats_rows)

    roles_path = dest / "player_roles.csv"
    with open(roles_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["player_id", "role"])
        for pid, role in sorted(_roles().items()):
            writer.writerow([pid, role])
    return {"events": event_paths, "stats": stats_path, "roles": roles_path}
