"""Event-data ingestion: open-data fetch, parsing provider rows into SPADL
actions, and player season statistics.

Provider event files arrive in the open-data JSON layout with coordinates
on a 120x80 grid; everything downstream works in meters on a 105x68 pitch,
so parsing rescales once and the rest of the pipeline never thinks about
provider units again. Each kept row is parsed straight into its SPADL
action, in SPADL's own types and results. Actions leave this module as
newline-delimited JSON (one action per line, exactly 12 named fields) — the
interchange format every later stage reads.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import operator
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

log = logging.getLogger(__name__)

PITCH_LENGTH = 105.0
PITCH_WIDTH = 68.0

PROVIDER_LENGTH = 120.0
PROVIDER_WIDTH = 80.0

# provider rows that never describe an on-the-ball action
_OFF_BALL_TYPES = frozenset(
    {
        "starting xi",
        "half start",
        "half end",
        "substitution",
        "tactical shift",
        "injury stoppage",
        "player on",
        "player off",
        "referee ball-drop",
        "bad behaviour",
        "camera on",
        "camera off",
        "pressure",
    }
)

# provider type -> SPADL type. SPADL's "dribble" is a ball carry; a
# dribble past an opponent is a "take_on". A duel is a tackle when its own
# type says so; any other on-ball type is a "non_action".
_SPADL_TYPE_OF = {
    "pass": "pass",
    "shot": "shot",
    "carry": "dribble",
    "dribble": "take_on",
    "clearance": "clearance",
    "interception": "interception",
    "tackle": "tackle",
}

_SUCCESS_OUTCOMES = frozenset(
    {"goal", "complete", "won", "success", "success in play", "success out"}
)

# the published SPADL action vocabulary (22 types, closed)
SPADL_ACTION_TYPES = (
    "pass",
    "cross",
    "throw_in",
    "freekick_crossed",
    "freekick_short",
    "corner_crossed",
    "corner_short",
    "take_on",
    "foul",
    "tackle",
    "interception",
    "shot",
    "shot_penalty",
    "shot_freekick",
    "keeper_save",
    "keeper_claim",
    "keeper_punch",
    "keeper_pick_up",
    "clearance",
    "bad_touch",
    "non_action",
    "dribble",
)

# SPADL types that move the ball to a teammate, so may have a recipient
PASS_LIKE_SPADL = frozenset(
    {
        "pass",
        "cross",
        "throw_in",
        "freekick_crossed",
        "freekick_short",
        "corner_crossed",
        "corner_short",
    }
)

DEFAULT_BODY_PART = "foot"


class SchemaError(ValueError):
    """An input file does not match its documented layout."""


def _utf8_text(path: Path) -> str:
    """The text of ``path``, its newlines as written, without the byte-order
    mark spreadsheet tools put first; a file that is not UTF-8 raises
    SchemaError naming it."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from None


class FetchError(RuntimeError):
    """Open-data download failed and the cache cannot cover it."""


class SpadlAction(NamedTuple):
    """One SPADL row; exactly the 12 canonical attributes, nothing else."""

    game_id: int
    period: int
    time_s: float  # seconds since the period start
    team_id: int
    player_id: int
    action_type: str
    body_part: str
    result: str  # success | fail
    start_x: float
    start_y: float
    end_x: float
    end_y: float


class RawEvent(NamedTuple):
    """One kept provider row: its SPADL action, and what SPADL has no
    column for."""

    event_id: str
    action: SpadlAction
    recipient_id: int | None = None  # a pass's recipient, as the provider names it


SPADL_ATTRIBUTE_COUNT = len(SpadlAction._fields)
assert SPADL_ATTRIBUTE_COUNT == 12

# The codec of actions.ndjson. A line is written from one fixed template,
# its keys in sorted order, filled as json's C encoder fills them: floats by
# float.__repr__ (every coordinate and time is finite), ints by int.__repr__
# and strings by encode_basestring_ascii. One decoder reads the lines back,
# in field order.
_ACTION_LINE = (
    '{"action_type":%s,"body_part":%s,"end_x":%s,"end_y":%s,"game_id":%s,"period":%s,'
    '"player_id":%s,"result":%s,"start_x":%s,"start_y":%s,"team_id":%s,"time_s":%s}\n'
)
_ACTION_KEY_SET = frozenset(SpadlAction._fields)
_ACTION_VALUES = operator.itemgetter(*SpadlAction._fields)  # a record's values, in field order
_ACTION_DECODER = json.JSONDecoder()
# the values a row must hold: 64-bit ints (not bools), finite numbers, SPADL words
_ACTION_INT_KEYS = ("game_id", "period", "team_id", "player_id")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1  # the graph store keeps ids as int64
_ACTION_NUMBER_KEYS = ("time_s", "start_x", "start_y", "end_x", "end_y")
_SPADL_TYPE_SET = frozenset(SPADL_ACTION_TYPES)
_SPADL_RESULTS = frozenset({"success", "fail"})


class PlayerSeasonStats(NamedTuple):
    """Season aggregates for one player: the ten node statistics plus minutes."""

    player_id: int
    goals: float
    successful_dribbles: float
    tackles: float
    accurate_pass_pct: float
    rating: float
    goal_conversion_pct: float
    interceptions: float
    clearances: float
    accurate_passes: float
    key_passes: float
    minutes_played: float


# canonical node-feature order (d = 10)
STAT_FEATURES = (
    "goals",
    "successful_dribbles",
    "tackles",
    "accurate_pass_pct",
    "rating",
    "goal_conversion_pct",
    "interceptions",
    "clearances",
    "accurate_passes",
    "key_passes",
)
COUNT_FEATURES = frozenset(
    {
        "goals",
        "successful_dribbles",
        "tackles",
        "interceptions",
        "clearances",
        "accurate_passes",
        "key_passes",
    }
)
STATS_CSV_COLUMNS = ("player_id",) + STAT_FEATURES + ("minutes_played",)


@dataclass
class ParseSummary:
    """Row accounting for one parsed match file."""

    total_rows: int = 0
    kept: int = 0
    dropped_off_ball: int = 0
    dropped_missing_coords: int = 0
    unknown_type_count: int = 0


@dataclass
class ParseResult:
    events: list
    summary: ParseSummary


# ── open-data fetch ───────────────────────────────────────────────────────

OPEN_DATA_BASE = "https://raw.githubusercontent.com/statsbomb/open-data/master/data"


def _looks_like_json_array(path: Path) -> bool:
    try:
        with open(path, "rb") as f:
            head = f.read(64).lstrip()
            if not head.startswith(b"["):
                return False
            f.seek(max(0, os.path.getsize(path) - 64))
            return f.read().rstrip().endswith(b"]")
    except OSError:
        return False


def _download(url: str, dest: Path, session) -> None:
    import requests

    sess = session or requests
    resp = sess.get(url, timeout=60)
    resp.raise_for_status()
    tmp = dest.with_suffix(dest.suffix + ".tmp")
    tmp.write_bytes(resp.content)
    os.replace(tmp, dest)  # atomic per file


def _index_match_ids(matches, index_path: Path) -> list[int]:
    """The sorted ids of a match index: a JSON array of objects each with an
    integer ``match_id``, or a string of one."""
    corrupt = SchemaError(
        f"corrupt match index {index_path}: not a JSON array of objects with an integer match_id"
    )
    if not isinstance(matches, list):
        raise corrupt
    ids = []
    for m in matches:
        mid = m.get("match_id") if isinstance(m, dict) else None
        if isinstance(mid, str):
            try:
                mid = int(mid)
            except ValueError:
                pass
        if type(mid) is not int:
            raise corrupt
        ids.append(mid)
    return sorted(ids)


def fetch_open_data(
    competition_id: int,
    season_id: int,
    cache_dir,
    *,
    session=None,
) -> list[Path]:
    """Ensure all event files for one competition season exist on disk.

    Cached files are never re-downloaded. Returns event-file paths in
    ascending match-id order. A cached event file that is not a JSON array,
    or a match index that is not UTF-8 text or not an array of objects each
    with an integer ``match_id``, fails fast with its name; downloads that
    fail are collected and reported together.
    """
    cache_dir = Path(cache_dir)
    events_dir = cache_dir / "events"
    events_dir.mkdir(parents=True, exist_ok=True)

    index_path = cache_dir / f"matches_{competition_id}_{season_id}.json"
    if not index_path.exists():
        url = f"{OPEN_DATA_BASE}/matches/{competition_id}/{season_id}.json"
        try:
            _download(url, index_path, session)
        except Exception as exc:
            raise FetchError(f"could not fetch match index {url}: {exc}") from exc
    try:
        matches = json.loads(_utf8_text(index_path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"corrupt match index {index_path}: {exc}") from exc
    match_ids = _index_match_ids(matches, index_path)
    paths: list[Path] = []
    failures: list[str] = []
    for mid in match_ids:
        dest = events_dir / f"{mid}.json"
        if dest.exists():
            if not _looks_like_json_array(dest):
                raise SchemaError(f"corrupt cached event file: {dest}")
        else:
            url = f"{OPEN_DATA_BASE}/events/{mid}.json"
            try:
                _download(url, dest, session)
            except Exception as exc:
                failures.append(f"{mid}: {exc}")
                continue
        paths.append(dest)
    if failures:
        raise FetchError(
            f"{len(failures)} match file(s) missing and not downloadable: "
            + "; ".join(failures[:5])
            + ("..." if len(failures) > 5 else "")
        )
    return paths


# ── event parsing ─────────────────────────────────────────────────────────


def _rescale(loc, what: str) -> tuple:
    x = float(loc[0]) * PITCH_LENGTH / PROVIDER_LENGTH
    y = float(loc[1]) * PITCH_WIDTH / PROVIDER_WIDTH
    # the clamp below would keep a NaN and pin an infinity to the touchline
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"{what} {list(loc)} is not finite")
    x = min(max(x, 0.0), PITCH_LENGTH)
    y = min(max(y, 0.0), PITCH_WIDTH)
    return (x, y)


def _timestamp_seconds(row) -> float | None:
    ts = row.get("timestamp")
    if isinstance(ts, str) and ts.count(":") == 2:
        hh, mm, ss = ts.split(":")
        return int(hh) * 3600.0 + int(mm) * 60.0 + float(ss)
    if "minute" in row and "second" in row:
        return float(row["minute"]) * 60.0 + float(row["second"])
    return None


def _row_result(action_type: str, detail: dict) -> str:
    # provider convention: a pass, carry or clearance without an outcome is complete
    outcome = detail.get("outcome")
    if outcome is None:
        return "success" if action_type in ("pass", "dribble", "clearance") else "fail"
    name = str(outcome.get("name", "")).lower()
    return "success" if name in _SUCCESS_OUTCOMES else "fail"


def parse_events(match_file) -> ParseResult:
    """Parse one open-data event file into sorted events, each holding its
    SPADL action.

    Off-the-ball and administrative rows are dropped; unknown on-ball types
    become ``non_action`` with a warning count; rows lacking coordinates or a
    player are dropped and counted. Output is sorted by (period, time);
    action times stay the provider's seconds since the period start.
    """
    match_file = Path(match_file)
    try:
        rows = json.loads(_utf8_text(match_file))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"could not parse {match_file}: {exc}") from exc
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise SchemaError(f"{match_file}: not a JSON array of event objects")

    match_id = int(match_file.stem) if match_file.stem.isdigit() else 0
    summary = ParseSummary(total_rows=len(rows))
    staged = []  # (period, period_time, row_index, event)

    try:
        for idx, row in enumerate(rows):
            provider_type = str(row.get("type", {}).get("name", "")).lower()
            if provider_type in _OFF_BALL_TYPES:
                summary.dropped_off_ball += 1
                continue
            if row.get("player") is None or row.get("team") is None:
                summary.dropped_off_ball += 1
                continue

            action_type = _SPADL_TYPE_OF.get(provider_type)
            if action_type is None and provider_type == "duel":
                duel = str(row.get("duel", {}).get("type", {}).get("name", "")).lower()
                action_type = "tackle" if duel == "tackle" else "non_action"
            if action_type is None:
                action_type = "non_action"
                summary.unknown_type_count += 1

            loc = row.get("location")
            t = _timestamp_seconds(row)
            if loc is None or len(loc) < 2 or t is None:
                summary.dropped_missing_coords += 1
                continue
            if not math.isfinite(t):
                raise ValueError(f"timestamp {t} is not finite")

            detail = row.get(provider_type, {}) if isinstance(row.get(provider_type), dict) else {}
            end_loc = detail.get("end_location")
            start_xy = _rescale(loc, "location")
            end_xy = _rescale(end_loc, "end_location") if end_loc and len(end_loc) >= 2 else start_xy

            recipient = None
            if action_type in PASS_LIKE_SPADL:
                rec = detail.get("recipient")
                if isinstance(rec, dict) and "id" in rec:
                    recipient = int(rec["id"])

            period = int(row.get("period", 1))
            action = SpadlAction(
                int(row.get("match_id", match_id)),
                period,
                t,
                int(row["team"]["id"]),
                int(row["player"]["id"]),
                action_type,
                DEFAULT_BODY_PART,
                _row_result(action_type, detail),
                *start_xy,
                *end_xy,
            )
            event_id = str(row.get("id", f"{match_id}-{idx}"))
            staged.append((period, t, idx, RawEvent(event_id, action, recipient)))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{match_file}: row {idx}: {type(exc).__name__}: {exc}") from None

    staged.sort(key=lambda s: (s[0], s[1], s[2]))
    summary.kept = len(staged)
    if summary.unknown_type_count:
        log.warning(
            "%s: %d rows of unknown type mapped to 'non_action'",
            match_file.name,
            summary.unknown_type_count,
        )

    return ParseResult(events=[event for *_, event in staged], summary=summary)


# ── SPADL conversion ──────────────────────────────────────────────────────


def to_spadl(events) -> list[SpadlAction]:
    """The 12-attribute SPADL rows of one match's sorted events."""
    return [e.action for e in events]


def write_actions(actions, path) -> None:
    """Write actions as newline-delimited JSON, one 12-field record per line,
    keys sorted: the bytes ``json.JSONEncoder(sort_keys=True,
    separators=(",", ":"))`` gives for each action's dict, written line by
    line from ``_ACTION_LINE``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text, num, whole = encode_basestring_ascii, float.__repr__, int.__repr__
    with open(path, "w") as f:
        f.writelines(
            _ACTION_LINE % (
                text(action_type), text(body_part), num(end_x), num(end_y), whole(game_id),
                whole(period), whole(player_id), text(result), num(start_x), num(start_y),
                whole(team_id), num(time_s),
            )
            for (game_id, period, time_s, team_id, player_id, action_type, body_part, result,
                 start_x, start_y, end_x, end_y) in actions
        )


def _action_value_error(record: dict) -> str | None:
    """What is wrong with the values of one 12-key action row, or None. An
    integral time or coordinate is made the float it stands for, in place."""
    for key in _ACTION_INT_KEYS:
        value = record[key]
        if type(value) is not int or not _INT64_MIN <= value <= _INT64_MAX:
            return f"{key} {value!r} is not a 64-bit integer"
    for key in _ACTION_NUMBER_KEYS:
        value = record[key]
        if type(value) is not float or not _finite(value):
            if type(value) is not int or not _finite(value):
                return f"{key} {value!r} is not a finite number"
            record[key] = float(value)  # as write_actions formats it
    action_type, result = record["action_type"], record["result"]
    if type(action_type) is not str or action_type not in _SPADL_TYPE_SET:
        return f"action_type {action_type!r} is not a SPADL action type"
    if type(result) is not str or result not in _SPADL_RESULTS:
        return f"result {result!r} is neither success nor fail"
    if type(record["body_part"]) is not str:
        return f"body_part {record['body_part']!r} is not a string"
    return None


def _finite(value: int | float) -> bool:
    """Whether a number is finite as a float; an int too large for a float
    is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def read_actions(path) -> list[SpadlAction]:
    """The actions ``write_actions`` stored. A line that is not a JSON object
    of exactly the 12 SPADL keys, or a row whose values are mistyped or
    outside the SPADL vocabulary, raises SchemaError naming its line."""
    actions = []
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = _ACTION_DECODER.decode(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{line_no}: not JSON ({exc})") from None
            if not isinstance(record, dict) or record.keys() != _ACTION_KEY_SET:
                raise SchemaError(f"{path}:{line_no}: not a 12-attribute action row")
            problem = _action_value_error(record)
            if problem is not None:
                raise SchemaError(f"{path}:{line_no}: {problem}")
            actions.append(SpadlAction(*_ACTION_VALUES(record)))
    return actions


def action_columns(actions) -> SpadlAction:
    """The actions field by field: a SpadlAction each of whose fields is
    the tuple of that field's values, in action order."""
    if not actions:
        return SpadlAction._make([()] * SPADL_ATTRIBUTE_COUNT)
    return SpadlAction._make(zip(*actions))


def group_by_match(actions) -> dict[int, list[SpadlAction]]:
    """Split a combined action list back into per-match streams (file order)."""
    by_match: dict[int, list[SpadlAction]] = {}
    for a in actions:
        by_match.setdefault(a.game_id, []).append(a)
    return by_match


# ── player season statistics ──────────────────────────────────────────────


def _player_id(row: dict, csv_path: Path, line_no: int) -> int:
    """The ``player_id`` cell of a CSV row as an integer; a cell that is not
    one (``101.7``, ``1e3``) raises SchemaError naming its line."""
    try:
        return int(row["player_id"])
    except (TypeError, ValueError):
        raise SchemaError(
            f"{csv_path}:{line_no}: player_id {row['player_id']!r} is not an integer"
        ) from None


def load_player_stats(csv_path) -> dict[int, PlayerSeasonStats]:
    """Load the documented 12-column stats CSV; a player id that is not an
    integer, or a duplicate one, is rejected."""
    csv_path = Path(csv_path)
    with io.StringIO(_utf8_text(csv_path), newline="") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        missing = [c for c in STATS_CSV_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{csv_path}: missing column(s) {', '.join(missing)}")
        out: dict[int, PlayerSeasonStats] = {}
        for line_no, row in enumerate(reader, start=2):
            try:
                values = {c: float(row[c]) for c in STATS_CSV_COLUMNS}
            except (TypeError, ValueError):
                raise SchemaError(f"{csv_path}:{line_no}: non-numeric cell") from None
            for column, value in values.items():
                if not math.isfinite(value):
                    raise SchemaError(f"{csv_path}:{line_no}: {column}={value} is not finite")
            pid = _player_id(row, csv_path, line_no)
            if pid in out:
                raise SchemaError(f"{csv_path}:{line_no}: duplicate player id {pid}")
            for pct in ("accurate_pass_pct", "goal_conversion_pct"):
                if not 0.0 <= values[pct] <= 1.0:
                    raise SchemaError(
                        f"{csv_path}:{line_no}: {pct}={values[pct]} outside [0, 1]"
                    )
            out[pid] = PlayerSeasonStats(
                player_id=pid, **{k: values[k] for k in STATS_CSV_COLUMNS[1:]}
            )
    return out


def load_player_roles(csv_path) -> dict[int, str]:
    """Optional (player_id, role) CSV; roles outside GK/DF/MF/FW read as
    unknown; duplicate ids are rejected."""
    csv_path = Path(csv_path)
    with io.StringIO(_utf8_text(csv_path), newline="") as f:
        reader = csv.DictReader(f)
        if not reader.fieldnames or "player_id" not in reader.fieldnames or "role" not in reader.fieldnames:
            raise SchemaError(f"{csv_path}: expected columns player_id, role")
        roles = {}
        for line_no, row in enumerate(reader, start=2):
            pid = _player_id(row, csv_path, line_no)
            if pid in roles:
                raise SchemaError(f"{csv_path}:{line_no}: duplicate player id {pid}")
            roles[pid] = str(row["role"]).strip()
        return roles


def normalize_per90(stats_by_player) -> dict[int, list[float]]:
    """Per-90 scale the count statistics, then min-max every feature to [0, 1].

    Percentages and the rating are min-max scaled only. Players with zero
    minutes are excluded (with one warning for all of them). A feature with
    no spread across the population maps to 0.0 for everyone.
    """
    import numpy as np

    included = [(pid, s) for pid, s in stats_by_player.items() if s.minutes_played > 0]
    excluded = [pid for pid, s in stats_by_player.items() if s.minutes_played <= 0]
    if excluded:
        log.warning(
            "%d players excluded from features: zero minutes (%s%s)",
            len(excluded),
            ", ".join(map(str, excluded[:5])),
            ", ..." if len(excluded) > 5 else "",
        )
    if not included:
        return {}
    matrix = np.array(
        [[getattr(s, name) for name in STAT_FEATURES] for _, s in included], dtype=np.float64
    )
    minutes = np.array([s.minutes_played for _, s in included])
    counts = [i for i, name in enumerate(STAT_FEATURES) if name in COUNT_FEATURES]
    matrix[:, counts] = matrix[:, counts] * 90.0 / minutes[:, None]
    lo = matrix.min(axis=0)
    hi = matrix.max(axis=0)
    span = hi - lo
    degenerate = span == 0
    scaled = np.where(
        degenerate, 0.0, (matrix - lo) / np.where(degenerate, 1.0, span)
    )
    return {pid: scaled[i].tolist() for i, (pid, _) in enumerate(included)}
