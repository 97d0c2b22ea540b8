"""Share attribution, season totals, rankings."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatshare import credit
from threatshare.ingest import SpadlAction

from credit_reference import attribute
from graph_factories import random_event_graph


def norms(embeddings):
    """The L2 norm of each row: what attribution splits by."""
    return np.linalg.norm(np.asarray(embeddings, dtype=np.float64), axis=1)


def split_one(norms_, delta, actor=None):
    """``credit.split`` of a single event: its shares and whether it fell back."""
    shares, uniform = credit.split(norms_, [len(norms_)], [delta], actor)
    return shares.tolist(), bool(uniform[0])


class TestAttribute:
    def test_norm_ratio_arithmetic(self):
        shares = split_one(norms([[3.0, 0.0], [1.0, 0.0]]), 0.04)[0]
        assert shares[0] == pytest.approx(0.03)
        assert shares[1] == pytest.approx(0.01)

    def test_single_node_gets_everything(self):
        assert split_one(norms([[1.0, 2.0]]), -0.2)[0] == [-0.2]

    def test_zero_embeddings_fall_back_to_uniform(self):
        shares, uniform = split_one(norms(np.zeros((4, 8))), 0.08)
        assert uniform
        assert all(s == pytest.approx(0.02) for s in shares)

    def test_actor_mode_routes_negative_delta(self):
        weights = norms(np.ones((3, 4)))
        actor = np.array([False, True, False])
        shares, uniform = split_one(weights, -0.06, actor)
        assert shares == [0.0, -0.06, 0.0] and not uniform
        # positive delta still splits pro rata
        shares = split_one(weights, 0.06, actor)[0]
        assert shares[0] == pytest.approx(0.02)

    @given(
        n=st.integers(min_value=1, max_value=12),
        delta=st.floats(min_value=-1.5, max_value=1.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_conservation_and_scale_invariance(self, n, delta, seed):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(n, 6))
        base = split_one(norms(emb), delta)[0]
        assert sum(base) == pytest.approx(delta, abs=1e-12)
        for c in (0.1, 10.0):
            scaled = split_one(norms(emb * c), delta)[0]
            for share, base_share in zip(scaled, base):
                assert share == pytest.approx(base_share, abs=1e-12)

    def test_shares_carry_delta_sign(self):
        shares = split_one(norms([[1.0], [2.0]]), -0.09)[0]
        assert all(s <= 0 for s in shares)


@st.composite
def event_packs(draw):
    """Events of 1-22 nodes with their norms, deltas and actor positions;
    some events all-zero, some deltas negative or zero."""
    sizes = draw(st.lists(st.integers(1, 22), min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for n in sizes:
        kind = draw(st.sampled_from(["normal", "zero", "tiny", "huge"]))
        scale = {"normal": 1.0, "zero": 0.0, "tiny": 1e-300, "huge": 1e150}[kind]
        parts.append(rng.uniform(0.0, 3.0, n) * scale)
    deltas = [
        draw(st.one_of(st.floats(-2.0, 2.0, allow_nan=False), st.sampled_from([0.0, -0.0])))
        for _ in sizes
    ]
    actors = [draw(st.integers(0, n - 1)) for n in sizes]
    return sizes, parts, deltas, actors


class TestSplit:
    @given(pack=event_packs(), mode=st.sampled_from(credit.NEGATIVE_SHARE_MODES))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_the_per_event_reference(self, pack, mode):
        sizes, parts, deltas, actors = pack
        node_ids = [list(range(100, 100 + n)) for n in sizes]
        actor = None
        if mode == "actor":
            actor = np.concatenate([np.arange(n) == a for n, a in zip(sizes, actors)])
        shares, uniform = credit.split(np.concatenate(parts), sizes, deltas, actor)
        assert shares.dtype == np.float64 and uniform.shape == (len(sizes),)
        end = 0
        for ids, part, delta, a, fell_back in zip(node_ids, parts, deltas, actors, uniform):
            start, end = end, end + len(ids)
            expected, expected_uniform = attribute(
                ids, part, delta, actor=ids[a], negative_mode=mode
            )
            got = shares[start:end].tolist()
            # bitwise: the same float, sign of zero included
            assert [np.float64(v).tobytes() for v in got] == [
                np.float64(v).tobytes() for v in expected.values()
            ]
            assert bool(fell_back) == expected_uniform
        assert end == len(shares)


def ledger_with(totals, teams=None, minutes=None):
    """``PlayerTotal`` rows as attribute writes them, per90 included."""
    rows = []
    for pid, total in totals.items():
        played = (minutes or {}).get(pid, 0.0)
        per90 = 0.0 if played <= 0 else total * 90.0 / played
        rows.append(credit.PlayerTotal(pid, (teams or {}).get(pid), total, per90, 1, played))
    return rows


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
        shares, players, _ = self.ledger(graphs, predictions, node_norms, source="labeled")
        assert sum(p.total for p in players) == pytest.approx(
            sum(g.label for g in graphs), abs=1e-9
        )
        end = 0
        for g in graphs:
            start, end = end, end + len(g.node_ids)
            assert shares[start:end].sum() == pytest.approx(g.label, abs=1e-9)
        assert end == len(shares)

    def test_uniform_fallbacks_counted_and_logged_once(self, caplog):
        graphs, predictions, node_norms = self.build()
        for i in (1, 4):
            node_norms[i] = norms(np.zeros((3, 4)))
        with caplog.at_level("WARNING", logger="threatshare.credit"):
            _, _, fallbacks = self.ledger(graphs, predictions, node_norms, source="labeled")
        assert fallbacks == 2
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
        shares, _, _ = self.ledger(graphs, predictions, node_norms, negative_mode="actor")
        end = 0
        for g, prediction in zip(graphs, predictions):
            start, end = end, end + len(g.node_ids)
            if prediction < 0:
                assert shares[end - 1] == prediction
                assert all(share == 0.0 for share in shares[start : end - 1])

    def test_case_report_single_action(self):
        rows = credit.case_report([make_action(9, 55)], 4, {("9:4", 55): 0.07})
        assert rows == [(make_action(9, 55), 0.07)]

    def test_case_report_empty(self):
        assert credit.case_report([], 0, {}) == []

    def test_case_report_missing_event_named(self):
        with pytest.raises(KeyError, match="9:4"):
            credit.case_report([make_action(9, 55)], 4, {})

    def test_player_rows_total_count_matches_and_rate_each_player(self):
        graphs, predictions, node_norms = self.build()
        graphs[-1].meta["match_id"] = 2
        stats = {pid: SimpleNamespace(minutes_played=45.0 * (pid % 3)) for g in graphs for pid in g.node_ids}
        shares, players, _ = self.ledger(graphs, predictions, node_norms, stats=stats)
        keys = [(g.meta["match_id"], pid) for g in graphs for pid in g.node_ids]
        assert [p.player_id for p in players] == sorted({pid for _, pid in keys})
        for p in players:
            mine = [share for (_, pid), share in zip(keys, shares.tolist()) if pid == p.player_id]
            total = 0.0
            for share in mine:
                total += share
            assert p.total == total
            assert p.matches == len({match for match, pid in keys if pid == p.player_id})
            assert p.minutes == stats[p.player_id].minutes_played
            assert p.per90 == (0.0 if p.minutes <= 0 else total * 90.0 / p.minutes)
