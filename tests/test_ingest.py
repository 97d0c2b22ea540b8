"""Provider parsing, SPADL conversion, stats loading, fetch cache behavior."""

import json
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatshare import ingest


def provider_row(
    idx,
    type_name="Pass",
    period=1,
    timestamp="00:00:10.000",
    team=1001,
    player=101,
    location=(60.0, 40.0),
    **extra,
):
    row = {
        "id": f"ev-{idx}",
        "period": period,
        "timestamp": timestamp,
        "type": {"name": type_name},
        "team": {"id": team},
        "player": {"id": player},
        "location": list(location),
    }
    row.update(extra)
    return row


def write_match(tmp_path, rows, name="7777.json"):
    path = tmp_path / name
    path.write_text(json.dumps(rows))
    return path


class TestParseEvents:
    def test_fixture_counts_match_independent_scan(self, fixture_dir):
        for path in sorted(fixture_dir.glob("*.json")):
            raw_rows = json.loads(path.read_text())  # independent scan
            result = ingest.parse_events(path)
            s = result.summary
            assert s.total_rows == len(raw_rows)
            assert len(result.events) == s.total_rows - s.dropped_off_ball - s.dropped_missing_coords
            assert len(result.events) == s.kept

    def test_output_sorted_even_if_input_shuffled(self, tmp_path):
        rows = [
            provider_row(1, timestamp="00:10:00.000"),
            provider_row(2, timestamp="00:02:00.000"),
            provider_row(3, timestamp="00:05:00.000", period=2),
            provider_row(4, timestamp="00:01:00.000"),
        ]
        events = ingest.parse_events(write_match(tmp_path, rows)).events
        keys = [(e.action.period, e.action.time_s) for e in events]
        assert keys == sorted(keys)

    def test_empty_event_array(self, tmp_path):
        result = ingest.parse_events(write_match(tmp_path, []))
        assert result.events == [] and result.summary.total_rows == 0

    def test_unknown_type_maps_to_non_action_with_counter(self, tmp_path):
        rows = [provider_row(1, type_name="Mystery Move")]
        result = ingest.parse_events(write_match(tmp_path, rows))
        assert result.events[0].action.action_type == "non_action"
        assert result.summary.unknown_type_count == 1

    def test_missing_coordinates_dropped_and_counted(self, tmp_path):
        rows = [provider_row(1), provider_row(2)]
        del rows[1]["location"]
        result = ingest.parse_events(write_match(tmp_path, rows))
        assert len(result.events) == 1
        assert result.summary.dropped_missing_coords == 1

    def test_off_ball_rows_dropped(self, tmp_path):
        rows = [provider_row(1, type_name="Half Start"), provider_row(2, type_name="Pressure")]
        result = ingest.parse_events(write_match(tmp_path, rows))
        assert result.events == []
        assert result.summary.dropped_off_ball == 2

    def test_coordinates_rescaled_to_meters(self, tmp_path):
        rows = [provider_row(1, location=(60.0, 40.0))]  # provider pitch center
        ev = ingest.parse_events(write_match(tmp_path, rows)).events[0]
        assert (ev.action.start_x, ev.action.start_y) == (52.5, 34.0)

    def test_recipient_only_for_passes(self, tmp_path):
        rows = [
            provider_row(
                1,
                "Pass",
                **{"pass": {"recipient": {"id": 102}, "end_location": [80.0, 40.0]}},
            ),
            provider_row(2, "Carry", carry={"end_location": [90.0, 40.0]}),
        ]
        events = ingest.parse_events(write_match(tmp_path, rows)).events
        assert events[0].recipient_id == 102
        assert events[1].recipient_id is None

    def test_timestamps_nondecreasing_across_halves(self, tmp_path):
        # first half runs long (stoppage): the second half still comes after it,
        # each timed from its own period start
        rows = [
            provider_row(2, timestamp="00:00:05.000", period=2),
            provider_row(1, timestamp="00:47:30.000"),
        ]
        events = ingest.parse_events(write_match(tmp_path, rows)).events
        assert [(e.action.period, e.action.time_s) for e in events] == [(1, 47 * 60 + 30.0), (2, 5.0)]
        actions = ingest.to_spadl(events)
        assert [(a.period, a.time_s) for a in actions] == [(1, 47 * 60 + 30.0), (2, 5.0)]

    def test_action_times_are_the_providers_period_seconds(self, fixture_dir):
        for path in sorted(fixture_dir.glob("*.json")):
            rows = {row["id"]: row for row in json.loads(path.read_text())}
            events = ingest.parse_events(path).events
            assert [a.time_s for a in ingest.to_spadl(events)] == [
                ingest._timestamp_seconds(rows[e.event_id]) for e in events
            ]

    def test_corrupt_file_raises_with_name(self, tmp_path):
        path = tmp_path / "9999.json"
        path.write_text("not json at all")
        with pytest.raises(ingest.SchemaError, match="9999.json"):
            ingest.parse_events(path)

    @pytest.mark.parametrize("content", ['{"a": 1}', "[1, 2]", '"rows"', "[{}, 3]", "null"])
    def test_not_an_array_of_objects_raises_with_name(self, tmp_path, content):
        path = tmp_path / "config.json"
        path.write_text(content)
        with pytest.raises(ingest.SchemaError, match="config.json: not a JSON array of event objects"):
            ingest.parse_events(path)

    @pytest.mark.parametrize(
        "change",
        [
            {"team": {"id": "home"}},
            {"team": "home"},
            {"player": {"id": None}},
            {"player": {"name": "no id"}},
            {"location": ["a", 40.0]},
            {"location": 60.0},
            {"period": "second"},
            {"timestamp": "aa:bb:cc"},
        ],
    )
    def test_unconvertible_row_raises_naming_file_and_row(self, tmp_path, change):
        rows = [provider_row(0), {**provider_row(1), **change}]
        with pytest.raises(ingest.SchemaError, match="7777.json: row 1: "):
            ingest.parse_events(write_match(tmp_path, rows))

    @pytest.mark.parametrize(
        "change,named",
        [
            ({"location": [float("nan"), 40.0]}, "location [nan, 40.0] is not finite"),
            ({"location": [60.0, float("inf")]}, "location [60.0, inf] is not finite"),
            ({"pass": {"end_location": [float("-inf"), 40.0]}},
             "end_location [-inf, 40.0] is not finite"),
            ({"timestamp": "00:00:nan"}, "timestamp nan is not finite"),
        ],
    )
    def test_non_finite_number_raises_naming_file_and_row(self, tmp_path, change, named):
        rows = [provider_row(0), {**provider_row(1), **change}]
        with pytest.raises(ingest.SchemaError, match=f"7777.json: row 1: ValueError: {re.escape(named)}"):
            ingest.parse_events(write_match(tmp_path, rows))

    def test_shot_outcome_mapping(self, tmp_path):
        rows = [
            provider_row(1, "Shot", shot={"end_location": [118, 40], "outcome": {"name": "Goal"}}),
            provider_row(2, "Shot", shot={"end_location": [118, 41], "outcome": {"name": "Off T"}}),
        ]
        events = ingest.parse_events(write_match(tmp_path, rows)).events
        assert events[0].action.result == "success"
        assert events[1].action.result == "fail"


# provider type, its duel type, the SPADL type, and the result of a row
# without an outcome
PROVIDER_TO_SPADL = [
    ("Pass", None, "pass", "success"),
    ("Shot", None, "shot", "fail"),
    ("Dribble", None, "take_on", "fail"),
    ("Carry", None, "dribble", "success"),
    ("Clearance", None, "clearance", "success"),
    ("Interception", None, "interception", "fail"),
    ("Tackle", None, "tackle", "fail"),
    ("Duel", "Tackle", "tackle", "fail"),
    ("Duel", "Aerial Lost", "non_action", "fail"),
    ("Mystery Move", None, "non_action", "fail"),
]


class TestToSpadl:
    @pytest.mark.parametrize("outcome,result", [(None, None), ("Won", "success"), ("Incomplete", "fail")])
    @pytest.mark.parametrize("type_name,duel,action_type,without_outcome", PROVIDER_TO_SPADL)
    def test_provider_type_maps_to_spadl(
        self, tmp_path, type_name, duel, action_type, without_outcome, outcome, result
    ):
        detail = {} if duel is None else {"type": {"name": duel}}
        if outcome is not None:
            detail["outcome"] = {"name": outcome}
        rows = [provider_row(1, type_name, **{type_name.lower(): detail})]
        [action] = ingest.to_spadl(ingest.parse_events(write_match(tmp_path, rows)).events)
        assert (action.action_type, action.result) == (action_type, result or without_outcome)

    def test_every_row_has_exactly_12_attributes(self, fixture_actions):
        assert len(ingest.SpadlAction._fields) == 12
        for a in fixture_actions:
            assert len(a._asdict()) == 12

    def test_successful_pass_mapping(self, tmp_path):
        rows = [
            provider_row(
                1, "Pass", **{"pass": {"recipient": {"id": 5}, "end_location": [80.0, 40.0]}}
            )
        ]
        events = ingest.parse_events(write_match(tmp_path, rows)).events
        action = ingest.to_spadl(events)[0]
        assert action.action_type == "pass"
        assert action.result == "success"
        assert (action.start_x, action.start_y) == (52.5, 34.0)
        assert (action.end_x, action.end_y) == (70.0, 34.0)

    def test_zero_events_zero_actions(self):
        assert ingest.to_spadl([]) == []

    def test_missing_end_point_copies_start(self, tmp_path):
        rows = [provider_row(1, "Shot", shot={"outcome": {"name": "Off T"}})]
        events = ingest.parse_events(write_match(tmp_path, rows)).events
        action = events[0].action
        assert (action.end_x, action.end_y) == (action.start_x, action.start_y)
        assert ingest.to_spadl(events) == [action]

    def test_action_types_within_closed_vocabulary(self, fixture_actions):
        assert len(ingest.SPADL_ACTION_TYPES) == 22
        for a in fixture_actions:
            assert a.action_type in ingest.SPADL_ACTION_TYPES

    def test_time_is_period_relative(self, tmp_path):
        rows = [
            provider_row(1, timestamp="00:47:30.000"),
            provider_row(2, timestamp="00:00:05.000", period=2),
        ]
        actions = ingest.to_spadl(ingest.parse_events(write_match(tmp_path, rows)).events)
        assert actions[0].time_s == pytest.approx(47 * 60 + 30)
        assert actions[1].time_s == pytest.approx(5.0)

    def test_parse_to_spadl_byte_deterministic(self, fixture_dir, tmp_path):
        outputs = []
        for run in range(2):
            actions = []
            for path in sorted(fixture_dir.glob("*.json")):
                actions.extend(ingest.to_spadl(ingest.parse_events(path).events))
            out = tmp_path / f"run{run}.ndjson"
            ingest.write_actions(actions, out)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_ndjson_round_trip(self, fixture_actions, tmp_path):
        path = tmp_path / "actions.ndjson"
        ingest.write_actions(fixture_actions, path)
        loaded = ingest.read_actions(path)
        assert loaded == fixture_actions
        first = json.loads(path.read_text().splitlines()[0])
        assert len(first) == 12

    def test_generated_two_match_slice_round_trips(self, tmp_path):
        from threatshare import fixtures

        actions = []
        for match_id in (11, 12):
            path = tmp_path / f"{match_id}.json"
            path.write_text(json.dumps(fixtures.generate_match_events(match_id, 4, n_events=300)))
            actions.extend(ingest.to_spadl(ingest.parse_events(path).events))
        first, second = tmp_path / "first.ndjson", tmp_path / "second.ndjson"
        ingest.write_actions(actions, first)
        loaded = ingest.read_actions(first)
        assert loaded == actions
        assert {a.game_id for a in loaded} == {11, 12}
        ingest.write_actions(loaded, second)
        assert second.read_bytes() == first.read_bytes()
        for line, a in zip(first.read_text().splitlines(), actions):
            assert line == json.dumps(a._asdict(), sort_keys=True, separators=(",", ":"))

    def test_ordering_invariant(self, fixture_actions):
        from threatshare.ingest import group_by_match

        for stream in group_by_match(fixture_actions).values():
            keys = [(a.period, a.time_s) for a in stream]
            assert keys == sorted(keys)


def _without(key):
    return lambda d: json.dumps({k: v for k, v in d.items() if k != key})


def _with(**changes):
    return lambda d: json.dumps({**d, **changes})


# damage to one line of actions.ndjson -> what the SchemaError says after "<path>:<line>: "
DAMAGED_ACTION_ROWS = {
    "missing-key": (_without("start_x"), "not a 12-attribute action row"),
    "extra-key": (_with(receiver_id=5), "not a 12-attribute action row"),
    "json-array": (lambda d: json.dumps(list(d.values())), "not a 12-attribute action row"),
    "json-string": (lambda d: json.dumps("pass"), "not a 12-attribute action row"),
    "not-json": (lambda d: "{game_id: 1", "not JSON"),
    "null-coordinate": (_with(start_x=None), "start_x None is not a finite number"),
    "nan-coordinate": (_with(end_y=float("nan")), "end_y nan is not a finite number"),
    "string-time": (_with(time_s="12"), "time_s '12' is not a finite number"),
    "bool-time": (_with(time_s=True), "time_s True is not a finite number"),
    "huge-int-coordinate": (_with(start_y=10**400), f"start_y {10**400} is not a finite number"),
    "float-player": (_with(player_id=101.0), "player_id 101.0 is not a 64-bit integer"),
    "bool-period": (_with(period=True), "period True is not a 64-bit integer"),
    "huge-player": (_with(player_id=2**63), f"player_id {2**63} is not a 64-bit integer"),
    "unknown-action-type": (
        _with(action_type="kick"), "action_type 'kick' is not a SPADL action type"),
    "list-result": (_with(result=["success"]), "result ['success'] is neither success nor fail"),
    "numeric-body-part": (_with(body_part=3), "body_part 3 is not a string"),
}


class TestReadActions:
    @pytest.mark.parametrize("case", sorted(DAMAGED_ACTION_ROWS))
    def test_damaged_row_raises_schema_error_naming_its_line(self, case, fixture_actions, tmp_path):
        damage, message = DAMAGED_ACTION_ROWS[case]
        path = tmp_path / "actions.ndjson"
        ingest.write_actions(fixture_actions[:10], path)
        lines = path.read_text().splitlines()
        lines[6] = damage(json.loads(lines[6]))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ingest.SchemaError) as err:
            ingest.read_actions(path)
        assert str(err.value).startswith(f"{path}:7: {message}"), str(err.value)

    def test_integral_coordinates_are_numbers(self, fixture_actions, tmp_path):
        path = tmp_path / "actions.ndjson"
        ingest.write_actions(fixture_actions[:1], path)
        path.write_text(_with(start_x=50, time_s=0)(json.loads(path.read_text())) + "\n")
        action = ingest.read_actions(path)[0]
        assert (action.start_x, action.time_s) == (50, 0)

    def test_integral_coordinates_write_back_as_floats(self, fixture_actions, tmp_path):
        path = tmp_path / "actions.ndjson"
        ingest.write_actions(fixture_actions[:1], path)
        record = json.loads(path.read_text())
        integral = {"time_s": 0, "start_x": 50, "start_y": 34, "end_x": 60, "end_y": 0}
        path.write_text(json.dumps({**record, **integral}) + "\n")
        (action,) = ingest.read_actions(path)
        assert [type(getattr(action, key)) for key in integral] == [float] * 5
        again = tmp_path / "again.ndjson"
        ingest.write_actions([action], again)
        assert json.loads(again.read_text()) == {**record, **{k: float(v) for k, v in integral.items()}}
        assert ingest.read_actions(again) == [action]


class TestPlayerStats:
    def test_fixture_loads_all_players(self, fixture_dir):
        stats = ingest.load_player_stats(fixture_dir / "player_stats.csv")
        assert len(stats) == 28

    def test_header_only_means_empty(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text(",".join(ingest.STATS_CSV_COLUMNS) + "\n")
        assert ingest.load_player_stats(path) == {}

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "stats.csv"
        row = "5,1,2,3,0.5,7.0,0.1,4,5,600,7,900"
        path.write_text(",".join(ingest.STATS_CSV_COLUMNS) + f"\n{row}\n{row}\n")
        with pytest.raises(ingest.SchemaError, match="duplicate player id 5"):
            ingest.load_player_stats(path)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "stats.csv"
        cols = [c for c in ingest.STATS_CSV_COLUMNS if c != "rating"]
        path.write_text(",".join(cols) + "\n")
        with pytest.raises(ingest.SchemaError, match="rating"):
            ingest.load_player_stats(path)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text(
            ",".join(ingest.STATS_CSV_COLUMNS)
            + "\n5,1,2,3,0.5,7.0,0.1,4,5,600,7,900\n6,one,2,3,0.5,7.0,0.1,4,5,600,7,900\n"
        )
        with pytest.raises(ingest.SchemaError, match=":3"):
            ingest.load_player_stats(path)

    @pytest.mark.parametrize("column", ["player_id", "goals", "rating", "minutes_played"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_line(self, tmp_path, column, cell):
        path = tmp_path / "stats.csv"
        row = dict(zip(ingest.STATS_CSV_COLUMNS, "5,1,2,3,0.5,7.0,0.1,4,5,600,7,900".split(",")))
        row[column] = cell
        path.write_text(
            ",".join(ingest.STATS_CSV_COLUMNS) + "\n6,1,2,3,0.5,7.0,0.1,4,5,600,7,900\n"
            + ",".join(row.values()) + "\n"
        )
        with pytest.raises(ingest.SchemaError, match=f"stats.csv:3: {column}={cell} is not finite"):
            ingest.load_player_stats(path)

    def test_percentage_range_enforced(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text(
            ",".join(ingest.STATS_CSV_COLUMNS) + "\n5,1,2,3,85.0,7.0,0.1,4,5,600,7,900\n"
        )
        with pytest.raises(ingest.SchemaError, match="accurate_pass_pct"):
            ingest.load_player_stats(path)


@pytest.mark.parametrize(
    "name, read",
    [
        ("player_stats.csv", ingest.load_player_stats),
        ("player_roles.csv", ingest.load_player_roles),
        ("9001.json", ingest.parse_events),
    ],
)
def test_byte_order_mark_reads_as_without(name, read, fixture_dir, tmp_path):
    """Spreadsheet tools save UTF-8 text with a byte-order mark first."""
    marked = tmp_path / name
    marked.write_bytes(b"\xef\xbb\xbf" + (fixture_dir / name).read_bytes())
    assert read(marked) == read(fixture_dir / name)


def make_stats(pid, minutes=900.0, **kw):
    base = dict(
        goals=0.0,
        successful_dribbles=0.0,
        tackles=0.0,
        accurate_pass_pct=0.5,
        rating=7.0,
        goal_conversion_pct=0.1,
        interceptions=0.0,
        clearances=0.0,
        accurate_passes=0.0,
        key_passes=0.0,
    )
    base.update(kw)
    return ingest.PlayerSeasonStats(player_id=pid, minutes_played=minutes, **base)


class TestNormalization:
    def test_per90_arithmetic(self):
        # per 90 minutes: 1, 0 and 2 goals; the pass percentage is not rescaled
        stats = {
            1: make_stats(1, minutes=180.0, goals=2.0, accurate_pass_pct=0.5),
            2: make_stats(2, minutes=90.0, goals=0.0, accurate_pass_pct=0.0),
            3: make_stats(3, minutes=90.0, goals=2.0, accurate_pass_pct=1.0),
        }
        feats = ingest.normalize_per90(stats)
        assert feats[1][ingest.STAT_FEATURES.index("goals")] == 0.5
        assert feats[1][ingest.STAT_FEATURES.index("accurate_pass_pct")] == 0.5

    def test_population_max_maps_to_one(self):
        stats = {
            1: make_stats(1, goals=10.0, minutes=900.0),
            2: make_stats(2, goals=1.0, minutes=900.0),
        }
        feats = ingest.normalize_per90(stats)
        gi = ingest.STAT_FEATURES.index("goals")
        assert feats[1][gi] == 1.0
        assert feats[2][gi] == 0.0

    def test_degenerate_feature_all_zero(self):
        stats = {1: make_stats(1, rating=7.0), 2: make_stats(2, rating=7.0)}
        feats = ingest.normalize_per90(stats)
        ri = ingest.STAT_FEATURES.index("rating")
        assert feats[1][ri] == 0.0 and feats[2][ri] == 0.0

    def test_zero_minutes_excluded(self):
        stats = {1: make_stats(1), 2: make_stats(2, minutes=0.0)}
        feats = ingest.normalize_per90(stats)
        assert 2 not in feats and 1 in feats

    def test_zero_minute_players_give_one_warning(self, caplog):
        stats = {pid: make_stats(pid, minutes=0.0 if pid > 1 else 900.0) for pid in range(1, 8)}
        with caplog.at_level(logging.WARNING, logger="threatshare.ingest"):
            feats = ingest.normalize_per90(stats)
        assert list(feats) == [1]
        assert [r.getMessage() for r in caplog.records] == [
            "6 players excluded from features: zero minutes (2, 3, 4, 5, 6, ...)"
        ]

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=50),  # goals
                st.floats(min_value=0, max_value=1),  # pass pct
                st.floats(min_value=30, max_value=3000),  # minutes
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_outputs_in_unit_interval(self, rows):
        stats = {
            i: make_stats(i, minutes=m, goals=g, accurate_pass_pct=p)
            for i, (g, p, m) in enumerate(rows)
        }
        feats = ingest.normalize_per90(stats)
        for vec in feats.values():
            arr = np.array(vec)
            assert arr.shape == (10,)
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)


class FakeResponse:
    def __init__(self, payload):
        self.content = payload.encode()

    def raise_for_status(self):
        pass


class FakeSession:
    """Serves canned open-data URLs; optionally fails everything."""

    def __init__(self, files=None, down=False):
        self.files = files or {}
        self.down = down
        self.calls = 0

    def get(self, url, timeout=None):
        self.calls += 1
        if self.down or url not in self.files:
            raise ConnectionError(f"unreachable: {url}")
        return FakeResponse(self.files[url])


class TestFetch:
    def index_url(self):
        return f"{ingest.OPEN_DATA_BASE}/matches/2/27.json"

    def test_downloads_then_reads_cache(self, tmp_path):
        files = {
            self.index_url(): json.dumps([{"match_id": 12}, {"match_id": 11}]),
            f"{ingest.OPEN_DATA_BASE}/events/11.json": "[]",
            f"{ingest.OPEN_DATA_BASE}/events/12.json": "[]",
        }
        session = FakeSession(files)
        paths = ingest.fetch_open_data(2, 27, tmp_path, session=session)
        assert [p.name for p in paths] == ["11.json", "12.json"]  # sorted by match id
        assert session.calls == 3

        # warmed cache with the network down: same list, zero downloads
        down = FakeSession(down=True)
        again = ingest.fetch_open_data(2, 27, tmp_path, session=down)
        assert again == paths
        assert down.calls == 0

    def test_index_ids_may_be_strings_of_integers(self, tmp_path):
        files = {
            self.index_url(): json.dumps([{"match_id": "12"}, {"match_id": 11}]),
            f"{ingest.OPEN_DATA_BASE}/events/11.json": "[]",
            f"{ingest.OPEN_DATA_BASE}/events/12.json": "[]",
        }
        paths = ingest.fetch_open_data(2, 27, tmp_path, session=FakeSession(files))
        assert [p.name for p in paths] == ["11.json", "12.json"]

    @pytest.mark.parametrize("mid", ["twelve", "", 12.0, None, True, [12]])
    def test_index_id_not_an_integer_named(self, tmp_path, mid):
        files = {self.index_url(): json.dumps([{"match_id": 11}, {"match_id": mid}])}
        session = FakeSession(files)
        with pytest.raises(ingest.SchemaError, match="matches_2_27.json: not a JSON array"):
            ingest.fetch_open_data(2, 27, tmp_path, session=session)
        assert session.calls == 1

    def test_corrupted_cache_file_named(self, tmp_path):
        files = {self.index_url(): json.dumps([{"match_id": 7}])}
        (tmp_path / "events").mkdir(parents=True)
        (tmp_path / "events" / "7.json").write_text("definitely not a json array")
        session = FakeSession(files)
        with pytest.raises(ingest.SchemaError, match="7.json"):
            ingest.fetch_open_data(2, 27, tmp_path, session=session)

    def test_network_down_without_cache_lists_missing(self, tmp_path):
        files = {self.index_url(): json.dumps([{"match_id": 3}, {"match_id": 4}])}
        session = FakeSession(files)  # index only; event downloads fail
        with pytest.raises(ingest.FetchError, match="2 match file"):
            ingest.fetch_open_data(2, 27, tmp_path, session=session)
