"""Window construction, edge encoding, passing-network centralities,
dataset splitting, batching."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatshare import graphs, xt
from threatshare.ingest import PITCH_LENGTH, PITCH_WIDTH, SpadlAction


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
    return xt.XtGrid(n_x=2, n_y=1, value=np.array([0.3, 0.3]))


def _nan_zone_grid():
    """A 2x1 grid whose second zone's value is NaN, set past the grid's own
    check so that only the graph builder's label check can catch it."""
    grid = xt.XtGrid(n_x=2, n_y=1, value=np.array([0.3, 0.3]))
    grid.value = np.array([0.3, np.nan])
    return grid


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


def assert_same_graphs(got, expected):
    """Equal graph for graph: ids, meta and flags exactly, arrays bitwise."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.event_id, a.node_ids, a.meta) == (b.event_id, b.node_ids, b.meta)
        assert (a.label, a.cross_team) == (b.label, b.cross_team)
        for name in ("node_features", "edge_ends", "edge_features", "node_xy", "node_roles"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


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
        assert g.edge_ends.tolist() == [[idx[1], idx[2]], [idx[2], idx[3]]]

    def test_one_graph_per_event_in_stream_order(self, tiny_grid):
        acts = [action(1, t=0.0), action(2, t=5.0), action(3, t=9.0, action_type="dribble")]
        gs = graphs.build_match_graphs(acts, 1, stats_for(1, 2, 3), tiny_grid)
        assert [g.meta["event_index"] for g in gs] == [0, 1, 2]
        assert [g.event_id for g in gs] == ["1:0", "1:1", "1:2"]
        assert [g.meta["actor_id"] for g in gs] == [1, 2, 3]
        assert [len(g.edge_ends) for g in gs] == [1, 2, 2]

    def test_k_zero_only_current_participants(self, tiny_grid):
        acts = [action(1, t=0.0), action(2, t=5.0), action(3, t=9.0, action_type="dribble")]
        g = graph_at(acts, 1, 0, stats_for(1, 2, 3), tiny_grid)
        assert g.node_ids == [2, 3]

    def test_window_clamps_at_stream_start(self, tiny_grid):
        acts = [action(4, action_type="dribble")]
        g = graph_at(acts, 0, 5, stats_for(4), tiny_grid)
        assert g.node_ids == [4]
        assert g.edge_ends.tolist() == [[0, 0]]  # no recipient -> self-edge

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
                assert g.edge_ends.shape == (len(g.edge_features), 2)
                assert 0 <= g.edge_ends.min() and g.edge_ends.max() < g.n_nodes

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
        xt_value, delta_xt, cross_team = xt.label_stream(acts, tiny_grid)
        g = graph_at(acts, 1, 1, stats_for(1, 2), tiny_grid)
        assert g.label == delta_xt[1]
        assert g.cross_team == cross_team[1]
        assert g.edge_features[-1, DELTA_XT] == delta_xt[1]
        assert g.edge_features[-1, XT] == xt_value[1]


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
            assert g.edge_features.shape == (len(g.edge_ends), 10)
            assert np.all(np.isfinite(g.edge_features))

    def test_match_clock_uses_period_offset(self, tiny_grid):
        acts = [action(1, t=40.0), action(2, t=30.0, period=2)]
        g = graph_at(acts, 1, 1, stats_for(1, 2), tiny_grid)
        assert g.edge_features[0, T_SINCE_START] == 40.0 / 5400.0
        assert g.edge_features[1, T_SINCE_START] == (2700.0 + 30.0) / 5400.0
        # the second-half action is the window's newest, 2,690 s later
        assert g.edge_features[0, DT_PREV] == 1.0


class TestWindows:
    # 1 -> 2, 2 -> 1, 1 -> 2 again, 2 -> 3, then 3 carries; the graph of the
    # carry (k=4) holds every action
    def stream(self):
        passes = zip((1, 2, 1, 2), (20.0, 30.0, 40.0, 50.0))
        acts = [action(p, t=4.0 * i, end=(x, x)) for i, (p, x) in enumerate(passes)]
        return acts + [action(3, t=16.0, action_type="dribble", end=(60.0, 60.0))]

    def test_latest_touch_wins_node_xy(self, tiny_grid):
        g = graph_at(self.stream(), 4, 4, stats_for(1, 2, 3), tiny_grid)
        assert g.node_ids == [1, 2, 3]
        # 1 last acts in the third action, 2 in the fourth (after receiving in
        # the third), 3 carries last after receiving in the fourth
        expected = [[x / PITCH_LENGTH, x / PITCH_WIDTH] for x in (40.0, 50.0, 60.0)]
        assert g.node_xy.tolist() == expected

    def test_repeated_pass_pair_is_one_indicator(self, tiny_grid):
        from test_models import pack_of

        g = graph_at(self.stream(), 4, 4, stats_for(1, 2, 3), tiny_grid)
        assert g.edge_ends.tolist() == [[0, 1], [1, 0], [0, 1], [1, 2], [2, 2]]
        dst, src, weight = pack_of([g]).adjacency_pairs()
        adjacency = np.zeros((3, 3))
        adjacency[dst, src] = weight
        np.testing.assert_array_equal(
            adjacency, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]
        )

    @pytest.mark.parametrize("k", [0, 3, 50])
    def test_windows_match_a_per_window_loop(self, k, fixture_actions, fixture_grid, fixture_features):
        from threatshare.ingest import group_by_match

        stream = list(group_by_match(fixture_actions).values())[1]
        recipients = graphs.infer_recipients(stream)
        clock = np.array([(a.period - 1) * graphs.HALF_NOMINAL_S + a.time_s for a in stream])
        xt_value, delta_xt, _ = xt.label_stream(stream, fixture_grid)
        rows = graphs.encode_edges(stream, xt_value, delta_xt, clock)
        built = graphs.build_match_graphs(stream, k, fixture_features, fixture_grid)
        for index, g in enumerate(built):
            window = range(max(0, index - k), index + 1)
            ends = [(a.player_id, a.player_id if r is None else r)
                    for a, r in zip(stream[window.start : index + 1], recipients[window.start : index + 1])]
            nodes = sorted({pid for pair in ends for pid in pair})
            edge_ends = [[nodes.index(s), nodes.index(d)] for s, d in ends]
            edges = rows[window.start : index + 1].copy()
            gap = clock[window.start : index + 1].max() - clock[window.start : index + 1]
            edges[:, 9] = np.minimum(gap, graphs.DT_CLIP_S) / graphs.DT_CLIP_S
            node_xy = np.zeros((len(nodes), 2))
            for (s, d), row in zip(edge_ends, edges):
                node_xy[s] = node_xy[d] = row[4:6]
            assert (g.node_ids, g.edge_ends.tolist()) == (nodes, edge_ends)
            assert g.edge_features.tobytes() == edges.tobytes()
            assert g.node_xy.tobytes() == node_xy.tobytes()


class TestWindowChecks:
    """``match_windows`` checks a match's windows once; a failure names the
    first offending event, as a per-graph check in stream order would."""

    def test_window_over_22_nodes_names_its_event(self, tiny_grid):
        # 30 carries by 30 players: at k=25 the window of event 22 is the first
        # to hold 23 players
        acts = [action(p, t=2.0 * p, action_type="dribble") for p in range(1, 31)]
        with pytest.raises(ValueError, match=r"^graph 1:22: 23 nodes$"):
            graphs.build_match_graphs(acts, 25, stats_for(*range(1, 31)), tiny_grid)
        assert len(graphs.build_match_graphs(acts, 21, stats_for(*range(1, 31)), tiny_grid)) == 30

    def test_non_finite_stats_row_names_the_first_window_holding_it(self, tiny_grid):
        # player 3 first enters a window as the recipient of event 1's pass
        acts = [action(1, action_type="dribble"), action(2, t=2.0), action(3, t=4.0),
                action(4, t=6.0, action_type="dribble")]
        stats = stats_for(1, 2, 3, 4)
        stats[3][0] = float("nan")
        with pytest.raises(ValueError, match=r"^graph 1:1: non-finite node features$"):
            graphs.build_match_graphs(acts, 0, stats, tiny_grid)
        stats[3][0] = float("inf")
        with pytest.raises(ValueError, match=r"^graph 1:1: non-finite node features$"):
            graphs.build_match_graphs(acts, 2, stats, tiny_grid)

    def test_nan_label_names_its_event(self):
        grid = _nan_zone_grid()
        # events 0 and 1 end in the finite zone, event 2 in the NaN one
        acts = [action(1, end=(30, 30)), action(2, t=2.0, end=(30, 30)),
                action(3, t=4.0, end=(80, 30), action_type="dribble")]
        with pytest.raises(ValueError, match=r"^graph 1:2: non-finite label$"):
            graphs.build_match_graphs(acts, 1, stats_for(1, 2, 3), grid)

    def test_two_faults_name_the_earlier_event(self):
        grid = _nan_zone_grid()
        # a NaN label at event 1, then a NaN stats row first held at event 3
        acts = [action(p, t=2.0 * p, end=(80, 30) if p == 2 else (30, 30), action_type="dribble")
                for p in (1, 2, 3, 4)]
        stats = stats_for(1, 2, 3, 4)
        stats[4][0] = float("nan")
        with pytest.raises(ValueError, match=r"^graph 1:1: non-finite label$"):
            graphs.build_match_graphs(acts, 0, stats, grid)
        # and with the two the other way round
        stats = stats_for(1, 2, 3, 4)
        stats[1][0] = float("nan")
        with pytest.raises(ValueError, match=r"^graph 1:0: non-finite node features$"):
            graphs.build_match_graphs(acts, 0, stats, grid)

    @pytest.mark.parametrize("k", [0, 7, 50])
    def test_fixture_windows_pass_the_per_graph_checks(
        self, k, fixture_actions, fixture_grid, fixture_features
    ):
        from graph_factories import validate
        from threatshare.ingest import group_by_match

        for stream in group_by_match(fixture_actions).values():
            for g in graphs.build_match_graphs(stream, k, fixture_features, fixture_grid):
                validate(g)


def centralities_of(nodes, edges):
    """``graphs.passing_centralities`` of the completed passes ``edges``
    between ``nodes``, one row per node in order."""
    index = {v: i for i, v in enumerate(nodes)}
    src = np.array([index[u] for u, _ in edges], dtype=np.int64)
    dst = np.array([index[v] for _, v in edges], dtype=np.int64)
    return graphs.passing_centralities(src, dst, len(nodes))


def oracle_centralities(nodes, edges):
    """Matrix-power shortest-path oracle, independent of the BFS code.

    Distances come from boolean reachability powers; shortest-path counts
    from integer adjacency powers (a walk of exactly the shortest length
    cannot revisit vertices, so the count is exact). Returns the raw degree,
    betweenness (unordered pairs) and closeness of each node.
    """
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        if u != v:
            adj[index[u], index[v]] = 1
            adj[index[v], index[u]] = 1
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0)
    counts = {0: np.eye(n, dtype=object)}
    power = np.eye(n, dtype=object)
    for d in range(1, n):
        power = power @ adj.astype(object)
        counts[d] = power
        newly = (dist == np.inf) & (np.asarray(power, dtype=float) > 0)
        dist[newly] = d

    def sigma(s, t):
        d = dist[s, t]
        return 0 if np.isinf(d) else int(counts[int(d)][s, t])

    degree = {v: int(adj[index[v]].sum()) for v in nodes}
    betweenness = {}
    for v in nodes:
        i = index[v]
        total = 0.0
        for s, t in itertools.combinations(range(n), 2):
            if s == i or t == i or np.isinf(dist[s, t]):
                continue
            if dist[s, i] + dist[i, t] == dist[s, t]:
                total += sigma(s, i) * sigma(i, t) / sigma(s, t)
        betweenness[v] = total
    closeness = {}
    for v in nodes:
        i = index[v]
        reachable = [dist[i, j] for j in range(n) if j != i and not np.isinf(dist[i, j])]
        closeness[v] = len(reachable) / sum(reachable) if reachable else 0.0
    return degree, betweenness, closeness


def normalized_oracle(nodes, edges):
    """The oracle's measures scaled as ``passing_centralities`` scales them."""
    n = len(nodes)
    deg, bet, clo = oracle_centralities(nodes, edges)
    max_b = (n - 1) * (n - 2) / 2.0 if n > 2 else 1.0
    return np.array([[deg[v] / max(n - 1, 1), bet[v] / max_b, clo[v]] for v in nodes])


class TestCentralities:
    def test_star_center_degree(self):
        c = centralities_of([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
        assert c[0, 0] * 3 == 3
        assert c[0, 1] * 3 == pytest.approx(3.0)  # 3 leaf pairs
        assert c[0, 2] == pytest.approx(1.0)

    def test_path_graph_betweenness(self):
        nodes = ["a", "b", "c", "d", "e"]
        c = centralities_of(nodes, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
        max_b = 6.0  # 4 * 3 / 2 pairs
        assert c[2, 1] * max_b == pytest.approx(4.0)
        assert c[1, 1] * max_b == pytest.approx(3.0)
        assert c[0, 1] * max_b == pytest.approx(0.0)
        assert c[2, 2] == pytest.approx(4.0 / 6.0)

    def test_disconnected_nodes_have_zero_closeness(self):
        c = centralities_of([1, 2], [])
        assert c[:, 2].tolist() == [0.0, 0.0]
        assert c[:, 0].tolist() == [0.0, 0.0]

    def test_parallel_passes_collapse_to_simple_graph(self):
        c = centralities_of([1, 2], [(1, 2), (2, 1), (1, 2)])
        assert c[:, 0].tolist() == [1.0, 1.0]
        np.testing.assert_array_equal(c, centralities_of([1, 2], [(1, 2)]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_small_graphs_match_oracle(self, n):
        nodes = list(range(n))
        pairs = list(itertools.combinations(nodes, 2))
        for bits in range(2 ** len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            c = centralities_of(nodes, edges)
            expected = normalized_oracle(nodes, edges)
            assert c[:, 0].tolist() == expected[:, 0].tolist()
            np.testing.assert_allclose(c[:, 1:], expected[:, 1:], rtol=0, atol=1e-12)

    def test_normalized_features_in_unit_interval(self):
        rng = np.random.default_rng(3)
        nodes = list(range(8))
        edges = [tuple(sorted(rng.choice(8, 2, replace=False))) for _ in range(12)]
        c = centralities_of(nodes, edges)
        assert c.shape == (8, 3)
        assert ((0.0 <= c) & (c <= 1.0)).all()

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_networks_match_oracle_and_relabel_as_rows(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        node = st.integers(0, n - 1)
        # repeats make parallel passes, (u, u) a pass nobody received; few
        # passes leave the network disconnected
        edges = data.draw(st.lists(st.tuples(node, node), max_size=3 * n), label="edges")
        relabel = data.draw(st.permutations(range(n)), label="relabel")
        nodes = list(range(n))
        c = centralities_of(nodes, edges)
        expected = normalized_oracle(nodes, edges)
        np.testing.assert_allclose(c, expected, rtol=0, atol=1e-12)
        moved = centralities_of(nodes, [(relabel[u], relabel[v]) for u, v in edges])
        np.testing.assert_array_equal(moved[relabel][:, [0, 2]], c[:, [0, 2]])
        np.testing.assert_allclose(moved[relabel][:, 1], c[:, 1], rtol=0, atol=1e-12)


class TestSplitAndBatch:
    def graphs_n(self, n):
        rng = np.random.default_rng(0)
        from graph_factories import random_event_graph

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
        unbatched = [models.forward([g], params, cfg)[0].data.item() for g in gs]
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
            np.testing.assert_array_equal(a.edge_ends, b.edge_ends)
            assert a.label == b.label

    def test_generated_two_match_slice_round_trips(self, tmp_path, fixture_features, fixture_roles):
        import json

        from threatshare import fixtures, ingest

        actions = []
        for match_id in (11, 12):
            path = tmp_path / f"{match_id}.json"
            path.write_text(json.dumps(fixtures.generate_match_events(match_id, 4, n_events=300)))
            actions.extend(ingest.to_spadl(ingest.parse_events(path).events))
        grid = xt.fit_grid(actions, 16, 12)
        by_match = ingest.group_by_match(actions)
        # every fifth player without stats, so imputation is stored too
        stats = {pid: vec for pid, vec in fixture_features.items() if pid % 5}
        for k, centrality in ((0, False), (7, True), (50, False)):
            built = [
                g
                for m in sorted(by_match)
                for g in graphs.build_match_graphs(
                    by_match[m], k, stats, grid, roles=fixture_roles, centrality=centrality
                )
            ]
            assert sum(g.meta["n_imputed"] for g in built) > 0
            graphs.write_graphs(built, tmp_path / "graphs.ndjson")
            assert_same_graphs(graphs.read_graphs(tmp_path / "graphs.ndjson"), built)

    def test_reader_reruns_no_per_match_rule(
        self, fixture_actions, fixture_grid, fixture_features, tmp_path, monkeypatch
    ):
        from threatshare.ingest import group_by_match

        stream = list(group_by_match(fixture_actions).values())[0]
        built = graphs.build_match_graphs(stream, 7, fixture_features, fixture_grid, centrality=True)
        graphs.write_graphs(built, tmp_path / "graphs.ndjson")

        def forbidden(*args, **kwargs):
            raise AssertionError("read_graphs re-ran a per-match rule")

        for name in ("infer_recipients", "label_stream", "passing_centralities"):
            monkeypatch.setattr(graphs, name, forbidden)
        assert_same_graphs(graphs.read_graphs(tmp_path / "graphs.ndjson"), built)

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
# Recorded for the per-action store (schema 2) once its read-back equalled the
# graphs of build_match_graphs (test_graph_store_reads_back_the_built_graphs);
# re-recorded, with the actions digest below, when ingest kept the provider's
# period-relative seconds instead of rebasing them onto a match clock and back.
# The centrality digests were re-recorded when the centralities became one
# array function: against the dict-based Brandes they replace, only one
# player's betweenness in the fixture moved, by 8.7e-19; degree and closeness
# and every other byte stayed the same.
GOLDEN_GRAPHS_SHA256 = {
    (0, False): "509a663d3e754c27e6f56cbb80cb9d5c5c65a8cae0096b56ab0cacbe02bbb62a",
    (0, True): "cbf2bfb26a444ec7fba794faa60f2ec355cdbf0cfd055d261ffecb994d29d743",
    (7, False): "d75606b3d56854530b9aef6afb917af9febd823a1f49eb714922156585b413ca",
    (7, True): "5811c8f6d10fce1c0277d290ff1810f36a8a0b0b0b6cd0886f461d14f805605d",
    (50, False): "89b0b73e30654073183210014cb9432801e6f82dfb28d569a6cd7b672e19bef3",
    (50, True): "1012df304ca38c188254983a7e420d217699769352b4b561ea3fedd713bb46f9",
}

# sha256 of actions.ndjson, the SPADL interchange ingest writes for the bundled
# fixture (400 actions). Pins the action codec byte for byte, as the digests
# above pin the graph store.
GOLDEN_ACTIONS_SHA256 = "c826984e45bc1316a3590f9a478b70f49be0eed42c417611463c9eda151dfd4d"

# sha256 of xt_grid.json, the grid xt-fit writes for the bundled fixture at the
# default 16x12 grid. Pins the zone counts and the value solve byte for byte.
GOLDEN_GRID_SHA256 = "abbd529d90e38269a19fe4513ab38955451ac24a515dc3d6553052f518b5a033"


def build_fixture_graphs(tmp_path, fixture_dir, k, centrality,
                         stages=("ingest", "xt-fit", "build-graphs")):
    """Run ``stages`` through the CLI; return graphs.ndjson."""
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
    for stage in stages:
        assert cli.main(["--config", str(config), "--quiet", stage]) == 0
    return tmp_path / "artifacts" / "graphs.ndjson"


@pytest.mark.parametrize("k", [None, 50])
def test_stored_events_match_the_graphs_field_for_field(k, tmp_path, fixture_dir):
    store = build_fixture_graphs(tmp_path, fixture_dir, k, False)
    events, gs = graphs.read_events(store), graphs.read_graphs(store)
    assert len(events) == len(gs) == 400
    for e, g in zip(events, gs):
        assert (e.event_id, e.node_ids, e.label, e.cross_team, e.meta) == (
            g.event_id, g.node_ids, g.label, g.cross_team, g.meta
        )
        assert type(e.label) is float and type(e.cross_team) is bool


@pytest.mark.parametrize("k,centrality", sorted(GOLDEN_GRAPHS_SHA256))
def test_graph_store_reads_back_the_built_graphs(k, centrality, tmp_path, fixture_dir):
    from threatshare import cli

    store = build_fixture_graphs(tmp_path, fixture_dir, k, centrality)
    built = cli._build_all_graphs(cli.load_config(tmp_path / "config.json"), k)
    assert_same_graphs(graphs.read_graphs(store), built)


@pytest.mark.parametrize("k,centrality", sorted(GOLDEN_GRAPHS_SHA256))
def test_graph_store_is_byte_identical_to_golden(k, centrality, tmp_path, fixture_dir):
    import hashlib

    store = build_fixture_graphs(tmp_path, fixture_dir, k, centrality)
    digest = hashlib.sha256(store.read_bytes()).hexdigest()
    assert digest == GOLDEN_GRAPHS_SHA256[(k, centrality)]


def test_actions_file_is_byte_identical_to_golden(tmp_path, fixture_dir):
    import hashlib

    store = build_fixture_graphs(tmp_path, fixture_dir, 7, False, stages=("ingest",))
    actions = store.with_name("actions.ndjson").read_bytes()
    assert hashlib.sha256(actions).hexdigest() == GOLDEN_ACTIONS_SHA256


def test_grid_file_is_byte_identical_to_golden(tmp_path, fixture_dir):
    import hashlib

    store = build_fixture_graphs(tmp_path, fixture_dir, 7, False, stages=("ingest", "xt-fit"))
    grid = store.with_name("xt_grid.json").read_bytes()
    assert hashlib.sha256(grid).hexdigest() == GOLDEN_GRID_SHA256


def test_recipient_rule_runs_once_per_match_with_centrality(tmp_path, fixture_dir, monkeypatch):
    calls = []
    rule = graphs.infer_recipients
    monkeypatch.setattr(graphs, "infer_recipients", lambda acts: calls.append(1) or rule(acts))
    build_fixture_graphs(tmp_path, fixture_dir, 7, True)
    assert len(calls) == len(list(fixture_dir.glob("*.json"))) == 2
