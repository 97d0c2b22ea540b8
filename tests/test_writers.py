"""The two line writers against the encoder they replaced.

``ingest.write_actions`` and ``graphs.write_graphs`` fill fixed line
templates. Each line must be the bytes ``json.JSONEncoder(sort_keys=True,
separators=(",", ":"))`` gives for the record the line stands for, kept
here as the reference: the records below are the dicts the writers encoded
before the templates.
"""

import json

import numpy as np
import pytest

from threatshare import fixtures, graphs, ingest, xt

REFERENCE = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# a signed zero, the exponent forms at both ends of float.__repr__'s
# positional range, the smallest subnormal and a value with 17 digits
SPECIAL_FLOATS = (-0.0, 1e-05, 1e16, 5e-324, 0.1 + 0.2)


def reference_actions(actions) -> bytes:
    """actions.ndjson as the encoder wrote it: one 12-key dict per action."""
    return "".join(REFERENCE.encode(a._asdict()) + "\n" for a in actions).encode()


def store_records(gs) -> list[dict]:
    """The record each graphs.ndjson line stands for."""
    records, match, seen = [], None, set()
    for g in gs:
        if g.meta["match_id"] != match:
            match, seen = g.meta["match_id"], set()
        src, dst = g.edge_ends[-1].tolist()
        new = [j for j in dict.fromkeys((src, dst)) if g.node_ids[j] not in seen]
        seen.update(g.node_ids[j] for j in new)
        records.append(
            {
                "schema_version": graphs.STORE_SCHEMA_VERSION,
                "event_id": g.event_id,
                "node_ids": list(g.node_ids),
                "label": g.label,
                "cross_team": g.cross_team,
                "meta": g.meta,
                "edge": g.edge_features[-1, :9].tolist(),
                "recipient": None if dst == src else g.node_ids[dst],
                "players": [
                    {
                        "id": g.node_ids[j],
                        "features": g.node_features[j].tolist(),
                        "role": int(g.node_roles[j]),
                    }
                    for j in new
                ],
            }
        )
    return records


def reference_store(gs) -> bytes:
    return "".join(REFERENCE.encode(r) + "\n" for r in store_records(gs)).encode()


def written_actions(actions, tmp_path) -> bytes:
    ingest.write_actions(actions, tmp_path / "actions.ndjson")
    return (tmp_path / "actions.ndjson").read_bytes()


def written_store(gs, tmp_path) -> bytes:
    graphs.write_graphs(gs, tmp_path / "graphs.ndjson")
    return (tmp_path / "graphs.ndjson").read_bytes()


@pytest.fixture(scope="module")
def generated_match(tmp_path_factory):
    """The actions of one 1,600-event generated match."""
    path = tmp_path_factory.mktemp("events") / "77.json"
    path.write_text(json.dumps(fixtures.generate_match_events(77, 5, n_events=1600)))
    return ingest.to_spadl(ingest.parse_events(path).events)


def built(actions, fixture_features, fixture_roles, k=7):
    grid = xt.fit_grid(actions, 16, 12)
    # every fifth player without stats, so imputed rows are written too
    stats = {pid: vec for pid, vec in fixture_features.items() if pid % 5}
    return graphs.build_match_graphs(actions, k, stats, grid, roles=fixture_roles)


def with_ids(actions, mapping):
    """``actions`` with each player and team id looked up in ``mapping``."""
    return [
        a._replace(
            player_id=mapping.get(a.player_id, a.player_id),
            team_id=mapping.get(a.team_id, a.team_id),
        )
        for a in actions
    ]


class TestActions:
    def test_generated_match_matches_the_reference(self, generated_match, tmp_path):
        assert written_actions(generated_match, tmp_path) == reference_actions(generated_match)

    @pytest.mark.parametrize("cast", [float, np.float64], ids=["float", "np.float64"])
    @pytest.mark.parametrize("value", SPECIAL_FLOATS)
    def test_special_floats_match_the_reference(self, value, cast, fixture_actions, tmp_path):
        actions = [
            a._replace(time_s=cast(value), start_x=cast(value), end_y=cast(-value))
            for a in fixture_actions[:3]
        ]
        written = written_actions(actions, tmp_path)
        assert written == reference_actions(actions)
        assert b"np." not in written

    def test_int64_ids_match_the_reference(self, fixture_actions, tmp_path):
        first = fixture_actions[0]
        actions = with_ids(
            fixture_actions[:4], {first.player_id: INT64_MIN, first.team_id: INT64_MAX}
        )
        actions[1] = actions[1]._replace(game_id=INT64_MIN)
        actions[2] = actions[2]._replace(game_id=INT64_MAX)
        assert written_actions(actions, tmp_path) == reference_actions(actions)


class TestStore:
    def test_generated_match_matches_the_reference(
        self, generated_match, fixture_features, fixture_roles, tmp_path
    ):
        gs = built(generated_match, fixture_features, fixture_roles)
        records = store_records(gs)
        assert len(records) == 1600
        # lines with no, one and two first-seen players, and lines without a recipient
        assert {len(r["players"]) for r in records} == {0, 1, 2}
        assert any(r["recipient"] is None for r in records)
        assert written_store(gs, tmp_path) == reference_store(gs)

    @pytest.mark.parametrize("cast", [float, np.float64], ids=["float", "np.float64"])
    @pytest.mark.parametrize("value", SPECIAL_FLOATS)
    def test_special_floats_match_the_reference(
        self, value, cast, fixture_actions, fixture_features, fixture_roles, tmp_path
    ):
        gs = built(fixture_actions[:30], fixture_features, fixture_roles, k=3)
        for g in gs:
            g.label = cast(value)
            g.meta = {**g.meta, "clock": cast(-value)}
            g.edge_features = np.full_like(g.edge_features, value)
            g.node_features = np.full_like(g.node_features, -value)
        written = written_store(gs, tmp_path)
        assert written == reference_store(gs)
        assert b"np." not in written

    def test_int64_ids_match_the_reference(
        self, fixture_actions, fixture_features, fixture_roles, tmp_path
    ):
        stream = fixture_actions[:40]
        first = stream[0]
        receiver = next(
            a.player_id for a in stream if a.team_id == first.team_id and a.player_id != first.player_id
        )
        actions = with_ids(
            stream, {first.player_id: INT64_MIN, receiver: INT64_MAX, first.team_id: INT64_MIN}
        )
        gs = built(actions, fixture_features, fixture_roles, k=3)
        ids = {pid for g in gs for pid in g.node_ids}
        assert {INT64_MIN, INT64_MAX} <= ids
        assert any(r["recipient"] in (INT64_MIN, INT64_MAX) for r in store_records(gs))
        assert written_store(gs, tmp_path) == reference_store(gs)
