"""Share attribution, passing-network centralities, season rankings."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatshare import credit
from threatshare.ingest import SpadlAction

from graph_factories import random_event_graph


def norms(embeddings):
    """The L2 norm of each row: what attribution splits by."""
    return np.linalg.norm(np.asarray(embeddings, dtype=np.float64), axis=1)


class TestAttribute:
    def test_norm_ratio_arithmetic(self):
        shares = credit.attribute([10, 20], norms([[3.0, 0.0], [1.0, 0.0]]), 0.04)[0]
        assert shares[10] == pytest.approx(0.03)
        assert shares[20] == pytest.approx(0.01)

    def test_single_node_gets_everything(self):
        assert credit.attribute([5], norms([[1.0, 2.0]]), -0.2)[0] == {5: -0.2}

    def test_zero_embeddings_fall_back_to_uniform(self):
        shares, uniform = credit.attribute([1, 2, 3, 4], norms(np.zeros((4, 8))), 0.08)
        assert uniform
        assert all(s == pytest.approx(0.02) for s in shares.values())

    def test_actor_mode_routes_negative_delta(self):
        weights = norms(np.ones((3, 4)))
        shares = credit.attribute([1, 2, 3], weights, -0.06, actor=2, negative_mode="actor")[0]
        assert shares == {1: 0.0, 2: -0.06, 3: 0.0}
        # positive delta still splits pro rata
        shares = credit.attribute([1, 2, 3], weights, 0.06, actor=2, negative_mode="actor")[0]
        assert shares[1] == pytest.approx(0.02)

    @given(
        n=st.integers(min_value=1, max_value=12),
        delta=st.floats(min_value=-1.5, max_value=1.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_conservation_and_scale_invariance(self, n, delta, seed):
        rng = np.random.default_rng(seed)
        node_ids = sorted(rng.choice(1000, size=n, replace=False).astype(int).tolist())
        emb = rng.normal(size=(n, 6))
        base = credit.attribute(node_ids, norms(emb), delta)[0]
        assert sum(base.values()) == pytest.approx(delta, abs=1e-12)
        for c in (0.1, 10.0):
            scaled = credit.attribute(node_ids, norms(emb * c), delta)[0]
            for pid in base:
                assert scaled[pid] == pytest.approx(base[pid], abs=1e-12)

    def test_shares_carry_delta_sign(self):
        shares = credit.attribute([1, 2], norms([[1.0], [2.0]]), -0.09)[0]
        assert all(s <= 0 for s in shares.values())


def pg_from_edges(nodes, edges):
    pg = credit.PassingGraph(nodes=list(nodes))
    for u, v in edges:
        pg.add_pass(u, v)
    return pg


def oracle_centralities(nodes, edges):
    """Matrix-power shortest-path oracle, independent of the BFS code.

    Distances come from boolean reachability powers; shortest-path counts
    from integer adjacency powers (a walk of exactly the shortest length
    cannot revisit vertices, so the count is exact).
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


class TestCentralities:
    def test_star_center_degree(self):
        pg = pg_from_edges([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
        report = credit.centralities(pg)
        assert report.degree[0] == 3
        assert report.betweenness[0] == pytest.approx(3.0)  # 3 leaf pairs
        assert report.closeness[0] == pytest.approx(1.0)

    def test_path_graph_betweenness(self):
        nodes = ["a", "b", "c", "d", "e"]
        pg = pg_from_edges(nodes, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
        report = credit.centralities(pg)
        assert report.betweenness["c"] == pytest.approx(4.0)
        assert report.betweenness["b"] == pytest.approx(3.0)
        assert report.betweenness["a"] == pytest.approx(0.0)
        assert report.closeness["c"] == pytest.approx(4.0 / 6.0)

    def test_disconnected_nodes_have_zero_closeness(self):
        pg = pg_from_edges([1, 2], [])
        report = credit.centralities(pg)
        assert report.closeness == {1: 0.0, 2: 0.0}
        assert report.degree == {1: 0, 2: 0}

    def test_parallel_passes_collapse_to_simple_graph(self):
        pg = pg_from_edges([1, 2], [(1, 2), (2, 1), (1, 2)])
        assert pg.weights[(1, 2)] == 3
        report = credit.centralities(pg)
        assert report.degree == {1: 1, 2: 1}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_small_graphs_match_oracle(self, n):
        nodes = list(range(n))
        pairs = list(itertools.combinations(nodes, 2))
        for bits in range(2 ** len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            report = credit.centralities(pg_from_edges(nodes, edges))
            deg, bet, clo = oracle_centralities(nodes, edges)
            for v in nodes:
                assert report.degree[v] == deg[v]
                assert report.betweenness[v] == pytest.approx(bet[v], abs=1e-12)
                assert report.closeness[v] == pytest.approx(clo[v], abs=1e-12)

    def test_normalized_features_in_unit_interval(self):
        rng = np.random.default_rng(3)
        nodes = list(range(8))
        edges = [tuple(sorted(rng.choice(8, 2, replace=False))) for _ in range(12)]
        report = credit.centralities(pg_from_edges(nodes, edges))
        feats = credit.normalized_centrality_features(report, len(nodes))
        for vec in feats.values():
            assert len(vec) == 3
            assert all(0.0 <= x <= 1.0 for x in vec)


def ledger_with(totals, teams=None, minutes=None):
    ledger = credit.CreditLedger()
    ledger.player_total = dict(totals)
    ledger.player_team = dict(teams or {})
    ledger.player_minutes = dict(minutes or {})
    return ledger


class TestRank:
    def test_descending_order(self):
        rows = credit.rank(ledger_with({1: 1.2, 2: 0.8}))
        assert [(r.rank, r.player_id) for r in rows] == [(1, 1), (2, 2)]

    def test_tie_breaks_on_lower_id(self):
        rows = credit.rank(ledger_with({7: 0.5, 3: 0.5}))
        assert [r.player_id for r in rows] == [3, 7]

    def test_per90_beats_raw_total(self):
        ledger = ledger_with({1: 0.9, 2: 1.0}, minutes={1: 90.0, 2: 180.0})
        rows = credit.rank(ledger, mode="per90")
        assert rows[0].player_id == 1
        assert rows[0].metric == pytest.approx(0.9)
        assert rows[1].metric == pytest.approx(0.5)

    def test_by_team_keeps_top_per_team(self):
        ledger = ledger_with(
            {1: 3.0, 2: 2.0, 3: 1.5}, teams={1: "A", 2: "A", 3: "B"}
        )
        rows = credit.rank(ledger, scope="by_team")
        assert [r.player_id for r in rows] == [1, 3]

    def test_scale_invariant_ordering(self):
        totals = {1: 0.31, 2: 0.07, 3: 0.19, 4: -0.04}
        base = [r.player_id for r in credit.rank(ledger_with(totals))]
        scaled = [r.player_id for r in credit.rank(ledger_with({k: v * 7.3 for k, v in totals.items()}))]
        assert base == scaled

    def test_empty_ledger(self):
        assert credit.rank(ledger_with({})) == []


def make_action(game, player, team=1):
    return SpadlAction(
        game_id=game, period=1, time_s=0.0, team_id=team, player_id=player,
        action_type="pass", body_part="foot", result="success",
        start_x=10.0, start_y=10.0, end_x=20.0, end_y=20.0,
    )


class TestLedgerAndCaseReport:
    def build(self):
        rng = np.random.default_rng(5)
        graphs, node_norms = [], []
        for i in range(6):
            g = random_event_graph(rng, n_nodes=3, event_id=f"1:{i}")
            g.meta["match_id"] = 1
            graphs.append(g)
            node_norms.append(norms(rng.uniform(0.1, 1.0, (3, 4))))
        # predictions as the model makes them: one per graph, flat
        return graphs, rng.uniform(-0.1, 0.1, len(graphs)), node_norms

    @staticmethod
    def ledger(graphs, predictions, node_norms, **kwargs):
        return credit.build_ledger(graphs, predictions, np.concatenate(node_norms), **kwargs)

    def test_totals_reproduce_sum_of_deltas(self):
        graphs, predictions, node_norms = self.build()
        ledger = self.ledger(graphs, predictions, node_norms, source="labeled")
        assert sum(ledger.player_total.values()) == pytest.approx(
            sum(g.label for g in graphs), abs=1e-9
        )
        for g in graphs:
            event_sum = sum(
                share for (event_id, _), share in ledger.shares.items() if event_id == g.event_id
            )
            assert event_sum == pytest.approx(g.label, abs=1e-9)

    def test_uniform_fallbacks_counted_and_logged_once(self, caplog):
        graphs, predictions, node_norms = self.build()
        for i in (1, 4):
            node_norms[i] = norms(np.zeros((3, 4)))
        with caplog.at_level("WARNING", logger="threatshare.credit"):
            ledger = self.ledger(graphs, predictions, node_norms, source="labeled")
        assert ledger.uniform_fallbacks == 2
        assert [r.getMessage() for r in caplog.records] == [
            "2 of 6 events had all-zero embeddings; their deltas were split uniformly"
        ]

    def test_source_validation(self):
        graphs, predictions, node_norms = self.build()
        with pytest.raises(ValueError):
            self.ledger(graphs, predictions, node_norms, source="oracle")

    def test_actor_mode_hands_negative_deltas_to_each_events_actor(self):
        graphs, predictions, node_norms = self.build()
        for g in graphs:
            g.meta["actor_id"] = g.node_ids[-1]
        assert min(predictions) < 0 < max(predictions)
        ledger = self.ledger(graphs, predictions, node_norms, negative_mode="actor")
        for g, prediction in zip(graphs, predictions):
            if prediction < 0:
                assert ledger.shares[(g.event_id, g.node_ids[-1])] == prediction
                assert all(ledger.shares[(g.event_id, pid)] == 0.0 for pid in g.node_ids[:-1])

    def test_case_report_single_action(self):
        ledger = credit.CreditLedger()
        ledger.shares[("9:4", 55)] = 0.07
        rows = credit.case_report([make_action(9, 55)], 4, ledger)
        assert rows == [(make_action(9, 55), 0.07)]

    def test_case_report_empty(self):
        assert credit.case_report([], 0, credit.CreditLedger()) == []

    def test_case_report_missing_event_named(self):
        with pytest.raises(KeyError, match="9:4"):
            credit.case_report([make_action(9, 55)], 4, credit.CreditLedger())
