"""Window construction, edge encoding, dataset splitting, batching."""

import numpy as np
import pytest

from threatshare import graphs, xt
from threatshare.ingest import SpadlAction


def action(player, team=1, t=0.0, action_type="pass", result="success",
           start=(10.0, 10.0), end=(30.0, 30.0), period=1, game=1):
    return SpadlAction(
        game_id=game,
        period=period,
        time_s=t,
        team_id=team,
        player_id=player,
        action_type=action_type,
        body_part="foot",
        result=result,
        start_x=float(start[0]),
        start_y=float(start[1]),
        end_x=float(end[0]),
        end_y=float(end[1]),
    )


@pytest.fixture(scope="module")
def tiny_grid():
    return xt.XtGrid(
        n_x=2,
        n_y=1,
        shot_prob=np.array([0.0, 1.0]),
        goal_prob_given_shot=np.array([0.0, 0.3]),
        move_prob=np.array([1.0, 0.0]),
        transition=np.array([[0.0, 1.0], [0.0, 0.0]]),
        value=np.array([0.3, 0.3]),
    )


def stats_for(*pids):
    rng = np.random.default_rng(5)
    return {pid: rng.uniform(0, 1, 10).tolist() for pid in pids}


class TestRecipientInference:
    def test_pass_chain(self):
        acts = [
            action(1, t=0.0),  # 1 passes ... next actor 2, same team
            action(2, t=4.0),  # 2 passes ... next actor 3
            action(3, t=8.0, action_type="dribble"),
        ]
        assert graphs.infer_recipients(acts) == [2, 3, None]

    def test_failed_pass_has_no_recipient(self):
        acts = [action(1, result="fail"), action(9, team=2)]
        assert graphs.infer_recipients(acts) == [None, None]

    def test_non_pass_types_never_get_recipients(self):
        acts = [action(1, action_type="tackle"), action(2)]
        assert graphs.infer_recipients(acts) == [None, None]


def graph_at(acts, index, k, stats, grid):
    return graphs.build_match_graphs(acts, k, stats, grid)[index]


# slots of the 10-wide edge row
RESULT, START_X, START_Y, END_X, END_Y, XT, DELTA_XT, T_SINCE_START, DT_PREV = range(1, 10)


class TestBuildGraph:
    def test_two_passes_window_enumeration(self, tiny_grid):
        # A(1) -> B(2), then B(2) -> C(3); k=1 at index 1
        acts = [
            action(1, t=0.0),
            action(2, t=5.0),
            action(3, t=9.0, action_type="dribble"),
        ]
        g = graph_at(acts, 1, 1, stats_for(1, 2, 3), tiny_grid)
        assert g.node_ids == [1, 2, 3]
        idx = {pid: i for i, pid in enumerate(g.node_ids)}
        assert set(g.edge_list) == {(idx[1], idx[2]), (idx[2], idx[3])}
        np.testing.assert_allclose(g.adjacency.sum(axis=1), 1.0, atol=1e-12)
        # self-loops on the diagonal wherever no incoming edge exists
        assert g.adjacency[idx[1], idx[1]] > 0

    def test_one_graph_per_event_in_stream_order(self, tiny_grid):
        acts = [action(1, t=0.0), action(2, t=5.0), action(3, t=9.0, action_type="dribble")]
        gs = graphs.build_match_graphs(acts, 1, stats_for(1, 2, 3), tiny_grid)
        assert [g.meta["event_index"] for g in gs] == [0, 1, 2]
        assert [g.event_id for g in gs] == ["1:0", "1:1", "1:2"]
        assert [g.meta["actor_id"] for g in gs] == [1, 2, 3]
        assert [len(g.edge_list) for g in gs] == [1, 2, 2]

    def test_k_zero_only_current_participants(self, tiny_grid):
        acts = [action(1, t=0.0), action(2, t=5.0), action(3, t=9.0, action_type="dribble")]
        g = graph_at(acts, 1, 0, stats_for(1, 2, 3), tiny_grid)
        assert g.node_ids == [2, 3]

    def test_window_clamps_at_stream_start(self, tiny_grid):
        acts = [action(4, action_type="dribble")]
        g = graph_at(acts, 0, 5, stats_for(4), tiny_grid)
        assert g.node_ids == [4]
        assert g.edge_list == [(0, 0)]  # no recipient -> self-edge

    def test_negative_k_rejected(self, tiny_grid):
        with pytest.raises(ValueError, match="k must be >= 0"):
            graphs.build_match_graphs([action(1)], -1, stats_for(1), tiny_grid)

    def test_window_monotone_in_k(self, fixture_actions, fixture_grid, fixture_features):
        from threatshare.ingest import group_by_match

        stream = list(group_by_match(fixture_actions).values())[0]
        by_k = [graphs.build_match_graphs(stream, k, fixture_features, fixture_grid) for k in range(6)]
        for index in (5, 40, 120):
            prev_nodes = set()
            for gs in by_k:
                nodes = set(gs[index].node_ids)
                assert prev_nodes <= nodes
                prev_nodes = nodes

    def test_dims_and_caps_on_fixture(self, fixture_actions, fixture_grid, fixture_features):
        from threatshare.ingest import group_by_match

        for stream in group_by_match(fixture_actions).values():
            gs = graphs.build_match_graphs(stream, 7, fixture_features, fixture_grid)
            for g in gs:
                assert 1 <= g.n_nodes <= 22
                assert g.node_features.shape[1] == 10
                assert g.edge_features.shape[1] == 10
                assert g.node_ids == sorted(g.node_ids)
                np.testing.assert_allclose(g.adjacency.sum(axis=1), 1.0, atol=1e-12)

    def test_missing_stats_imputed_with_mean(self, tiny_grid):
        stats = stats_for(1, 2)
        acts = [action(1, t=0.0), action(7, t=3.0, team=1, action_type="dribble")]
        g = graph_at(acts, 1, 1, stats, tiny_grid)
        mean_vec = np.array(list(stats.values())).mean(axis=0)
        j = g.node_ids.index(7)
        np.testing.assert_allclose(g.node_features[j], mean_vec)
        assert g.meta["n_imputed"] == 1

    def test_label_is_event_delta(self, tiny_grid):
        acts = [action(1, end=(80, 30)), action(2, end=(20, 30))]
        labels = xt.label_stream(acts, tiny_grid)
        g = graph_at(acts, 1, 1, stats_for(1, 2), tiny_grid)
        assert g.label == labels[1].delta_xt
        assert g.cross_team == labels[1].cross_team
        assert g.edge_features[-1, DELTA_XT] == labels[1].delta_xt
        assert g.edge_features[-1, XT] == labels[1].xt_value


class TestEdgeEncoding:
    def test_center_coordinates_normalize_to_half(self, tiny_grid):
        a = action(1, start=(52.5, 34.0), end=(52.5, 34.0))
        g = graph_at([a], 0, 0, stats_for(1), tiny_grid)
        row = g.edge_features[0]
        assert (row[START_X], row[START_Y], row[END_X], row[END_Y]) == (0.5, 0.5, 0.5, 0.5)
        assert g.node_xy.tolist() == [[0.5, 0.5]]

    def test_latest_action_has_zero_gap(self, tiny_grid):
        acts = [action(1, t=80.0), action(2, t=100.0)]
        g = graph_at(acts, 1, 1, stats_for(1, 2), tiny_grid)
        assert g.edge_features[-1, DT_PREV] == 0.0
        assert g.edge_features[0, DT_PREV] == 20.0 / 60.0

    def test_gap_clipped_at_sixty_seconds(self, tiny_grid):
        acts = [action(1, t=0.0), action(2, t=500.0)]
        g = graph_at(acts, 1, 1, stats_for(1, 2), tiny_grid)
        assert g.edge_features[0, DT_PREV] == 1.0

    def test_failed_tackle_result_zero(self, tiny_grid):
        acts = [action(1), action(2, action_type="tackle", result="fail")]
        g = graph_at(acts, 1, 1, stats_for(1, 2), tiny_grid)
        assert g.edge_features[0, RESULT] == 1.0
        assert g.edge_features[1, RESULT] == 0.0

    def test_vector_layout_is_ten_wide(self, tiny_grid):
        acts = [action(1, t=0.0), action(2, t=4.0), action(3, t=9.0, action_type="dribble")]
        for g in graphs.build_match_graphs(acts, 2, stats_for(1, 2, 3), tiny_grid):
            assert g.edge_features.shape == (len(g.edge_list), 10)
            assert np.all(np.isfinite(g.edge_features))

    def test_match_clock_uses_period_offset(self, tiny_grid):
        acts = [action(1, t=40.0), action(2, t=30.0, period=2)]
        g = graph_at(acts, 1, 1, stats_for(1, 2), tiny_grid)
        assert g.edge_features[0, T_SINCE_START] == 40.0 / 5400.0
        assert g.edge_features[1, T_SINCE_START] == (2700.0 + 30.0) / 5400.0
        # the second-half action is the window's newest, 2,690 s later
        assert g.edge_features[0, DT_PREV] == 1.0


class TestSplitAndBatch:
    def graphs_n(self, n):
        rng = np.random.default_rng(0)
        from threatshare.fixtures import random_event_graph

        out = []
        for i in range(n):
            g = random_event_graph(rng, event_id=f"g{i}")
            g.meta["match_id"] = i % 5
            out.append(g)
        return out

    def test_eighty_twenty(self):
        train, val = graphs.split_dataset(self.graphs_n(100), 0.8, seed=1)
        assert len(train) == 80 and len(val) == 20

    def test_same_seed_same_membership(self):
        gs = self.graphs_n(50)
        t1, v1 = graphs.split_dataset(gs, 0.8, seed=4)
        t2, v2 = graphs.split_dataset(gs, 0.8, seed=4)
        assert [g.event_id for g in t1] == [g.event_id for g in t2]
        assert [g.event_id for g in v1] == [g.event_id for g in v2]
        t3, _ = graphs.split_dataset(gs, 0.8, seed=5)
        assert [g.event_id for g in t3] != [g.event_id for g in t1]

    def test_train_rounds_up(self):
        train, val = graphs.split_dataset(self.graphs_n(3), 0.5, seed=0)
        assert (len(train), len(val)) == (2, 1)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            graphs.split_dataset([], 0.8, seed=0)

    def test_match_unit_keeps_matches_whole(self):
        train, val = graphs.split_dataset(self.graphs_n(50), 0.6, seed=2, unit="match")
        train_matches = {g.meta["match_id"] for g in train}
        val_matches = {g.meta["match_id"] for g in val}
        assert train_matches.isdisjoint(val_matches)
        assert len(train) + len(val) == 50

    def test_batch_sizes(self):
        chunks = graphs.batch(self.graphs_n(130), 64)
        assert [len(c) for c in chunks] == [64, 64, 2]
        singles = graphs.batch(self.graphs_n(3), 1)
        assert [len(c) for c in singles] == [1, 1, 1]

    def test_one_graph_per_event_then_split(self, fixture_actions, fixture_grid, fixture_features):
        from threatshare.ingest import group_by_match

        matches = group_by_match(fixture_actions)
        gs = []
        for match_id in sorted(matches):
            gs.extend(graphs.build_match_graphs(matches[match_id], 2, fixture_features, fixture_grid))
        train, val = graphs.split_dataset(gs, 0.8, seed=3)
        total = sum(len(stream) for stream in matches.values())
        assert len(train) + len(val) == total
        assert len(train) == int(np.ceil(total * 0.8))
        assert {g.meta["k"] for g in train + val} == {2}

    def test_batched_equals_unbatched(self):
        from threatshare import models

        gs = self.graphs_n(10)
        cfg = models.ModelConfig(variant="gcn", hidden_dim=8, seed=2)
        params = models.init_model(cfg, gs[0].node_features.shape[1])
        unbatched = [models.forward([g], params, cfg)[0].item() for g in gs]
        batched = []
        for chunk in graphs.batch(gs, 4):
            batched.extend(models.forward(chunk, params, cfg)[0].data[:, 0])
        np.testing.assert_allclose(batched, unbatched, atol=1e-12, rtol=0)


class TestPersistence:
    def test_round_trip(self, fixture_actions, fixture_grid, fixture_features, tmp_path):
        from threatshare.ingest import group_by_match

        stream = list(group_by_match(fixture_actions).values())[0][:40]
        gs = graphs.build_match_graphs(stream, 3, fixture_features, fixture_grid)
        path = tmp_path / "graphs.ndjson"
        graphs.write_graphs(gs, path)
        loaded = graphs.read_graphs(path)
        assert len(loaded) == len(gs)
        for a, b in zip(gs, loaded):
            assert a.event_id == b.event_id
            assert a.node_ids == b.node_ids
            np.testing.assert_array_equal(a.node_features, b.node_features)
            np.testing.assert_array_equal(a.edge_features, b.edge_features)
            np.testing.assert_allclose(a.adjacency, b.adjacency, atol=0)
            assert a.label == b.label

    def test_schema_version_enforced(self, tmp_path):
        path = tmp_path / "graphs.ndjson"
        import json

        record = {"schema_version": 99}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="schema version"):
            graphs.read_graphs(path)


# sha256 of graphs.ndjson for the bundled fixture with the default grid and
# roles, keyed by (window_k, append_centrality_features). Pins the graph store
# byte for byte, so any change to windowing, encoding or float formatting shows.
GOLDEN_GRAPHS_SHA256 = {
    (0, False): "94666437d428c59531d2968a288b4750d61354b4f9c8d2b9861a11ba9f9fbd44",
    (0, True): "9076c79325165bbf457dc3d16cec400c45737eae87803f516dfab85f82963815",
    (7, False): "4b30bfd17c2fb03d80ffe47102cf78521abd371519515aede7ffa118b790a9a8",
    (7, True): "8725383e122c85927c1300d21879097b71b88138305e9b5ab46c97cc9ca3b5e5",
    (50, False): "1da4d62cf7bd1f896a47f7495555e7b3f25c92092e72a0743b96af42e8845870",
    (50, True): "0c0b4a57ec0e97466f4fdcbec762d245c218bf43f42e6dee9633024ef7942b8d",
}


def build_fixture_graphs(tmp_path, fixture_dir, k, centrality):
    """Run ingest, xt-fit and build-graphs through the CLI; return graphs.ndjson."""
    import json

    from threatshare import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "paths": {
            "cache_dir": str(tmp_path / "cache"),
            "data_dir": str(fixture_dir),
            "artifacts_dir": str(tmp_path / "artifacts"),
            "stats_csv": str(fixture_dir / "player_stats.csv"),
            "roles_csv": str(fixture_dir / "player_roles.csv"),
        },
        "window_k": k,
        "append_centrality_features": centrality,
    }))
    for stage in ("ingest", "xt-fit", "build-graphs"):
        assert cli.main(["--config", str(config), "--quiet", stage]) == 0
    return tmp_path / "artifacts" / "graphs.ndjson"


@pytest.mark.parametrize("k,centrality", sorted(GOLDEN_GRAPHS_SHA256))
def test_graph_store_is_byte_identical_to_golden(k, centrality, tmp_path, fixture_dir):
    import hashlib

    store = build_fixture_graphs(tmp_path, fixture_dir, k, centrality)
    digest = hashlib.sha256(store.read_bytes()).hexdigest()
    assert digest == GOLDEN_GRAPHS_SHA256[(k, centrality)]


def test_recipient_rule_runs_once_per_match_with_centrality(tmp_path, fixture_dir, monkeypatch):
    calls = []
    rule = graphs.infer_recipients
    monkeypatch.setattr(graphs, "infer_recipients", lambda acts: calls.append(1) or rule(acts))
    build_fixture_graphs(tmp_path, fixture_dir, 7, True)
    assert len(calls) == len(list(fixture_dir.glob("*.json"))) == 2
