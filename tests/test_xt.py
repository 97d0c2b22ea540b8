"""Expected-threat surface fitting, lookups, and threat-change labels."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatshare import xt
from threatshare.ingest import SpadlAction


def toy_grid_inputs():
    """1x2 pitch: zone A always moves to B, zone B always shoots at 0.3."""
    shot = np.array([0.0, 1.0])
    goal = np.array([0.0, 0.3])
    move = np.array([1.0, 0.0])
    transition = np.array([[0.0, 1.0], [0.0, 0.0]])
    return shot, goal, move, transition


def iterate_oracle(shot, goal, move, transition, steps):
    """Independent fixed-point iteration, written out longhand."""
    value = np.zeros_like(shot)
    for _ in range(steps):
        new = np.zeros_like(value)
        for z in range(len(value)):
            flow = sum(transition[z, z2] * value[z2] for z2 in range(len(value)))
            new[z] = shot[z] * goal[z] + move[z] * flow
        value = new
    return value


def make_action(action_type="pass", result="success", start=(10, 10), end=(30, 30), **kw):
    defaults = dict(
        game_id=1,
        period=1,
        time_s=kw.pop("time_s", 0.0),
        team_id=kw.pop("team_id", 1001),
        player_id=kw.pop("player_id", 1),
        action_type=action_type,
        body_part="foot",
        result=result,
        start_x=float(start[0]),
        start_y=float(start[1]),
        end_x=float(end[0]),
        end_y=float(end[1]),
    )
    defaults.update(kw)
    return SpadlAction(**defaults)


class TestSolveValues:
    def test_toy_grid_matches_oracle(self):
        shot, goal, move, transition = toy_grid_inputs()
        value, iterations = xt.solve_values(shot, goal, move, transition, tol=1e-8)
        oracle = iterate_oracle(shot, goal, move, transition, steps=50)
        np.testing.assert_allclose(value, [0.3, 0.3], atol=1e-8)
        np.testing.assert_allclose(value, oracle, atol=1e-12)
        assert iterations < 20

    def test_all_shoot_closed_form(self):
        n = 6
        g = 0.11
        value, _ = xt.solve_values(
            np.ones(n), np.full(n, g), np.zeros(n), np.zeros((n, n))
        )
        np.testing.assert_allclose(value, g, atol=1e-12)

    def test_residual_below_tol(self):
        shot, goal, move, transition = toy_grid_inputs()
        tol = 1e-8
        value, _ = xt.solve_values(shot, goal, move, transition, tol=tol)
        residual = np.max(np.abs(shot * goal + move * (transition @ value) - value))
        assert residual < tol

    def test_monotone_from_zero_on_random_grids(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 12))
            shot = rng.uniform(0, 1, n)
            move = 1.0 - shot
            goal = rng.uniform(0, 1, n)
            transition = rng.uniform(0, 1, (n, n))
            transition /= transition.sum(axis=1, keepdims=True)
            value = np.zeros(n)
            prev = value
            for _ in range(200):
                value = shot * goal + move * (transition @ value)
                assert np.all(value >= prev - 1e-15)
                prev = value
            assert np.all(value <= 1.0 + 1e-12)

    def test_nonconvergence_raises_with_residual(self):
        # a pure cycle with an injected payoff that keeps oscillating mass
        shot = np.array([0.5, 0.0])
        goal = np.array([1.0, 0.0])
        move = np.array([0.5, 1.0])
        transition = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(xt.XtFitError, match="residual"):
            xt.solve_values(shot, goal, move, transition, tol=1e-8, max_iter=2)


class TestZoneLookup:
    def grid(self):
        return xt.XtGrid(n_x=2, n_y=1, value=np.array([0.25, 0.75]))

    def test_boundary_belongs_to_larger_index(self):
        grid = self.grid()
        zone, clamped = xt.zone_of(grid.n_x, grid.n_y, (52.5, 34.0))
        assert zone == 1 and not clamped
        assert xt.xt_of(grid, (52.5, 34.0)) == 0.75

    def test_interior_lookup(self):
        grid = self.grid()
        assert xt.xt_of(grid, (10.0, 34.0)) == 0.25

    def test_out_of_bounds_clamps(self):
        grid = self.grid()
        zone, clamped = xt.zone_of(grid.n_x, grid.n_y, (-1.0, 34.0))
        assert zone == 0 and clamped
        zone, clamped = xt.zone_of(grid.n_x, grid.n_y, (200.0, 34.0))
        assert zone == 1 and clamped
        assert xt.xt_of(grid, (105.0, 68.0)) == 0.75  # far corner stays in range


class TestFitGrid:
    def test_fit_on_synthetic_actions(self):
        actions = [
            make_action("pass", "success", start=(10, 34), end=(80, 34)),
            make_action("shot", "success", start=(80, 34), end=(104, 34)),
            make_action("shot", "fail", start=(80, 34), end=(104, 30)),
        ]
        grid = xt.fit_grid(actions, n_x=2, n_y=1, tol=1e-10)
        # zone B: 2 shots, 1 goal -> value 0.5; zone A always moves to B
        np.testing.assert_allclose(grid.value, [0.5, 0.5], atol=1e-9)
        assert grid.meta["iterations"] >= 1

    def test_empty_zone_flagged(self):
        actions = [make_action("shot", "success", start=(80, 34), end=(104, 34))]
        grid = xt.fit_grid(actions, n_x=2, n_y=1)
        assert grid.meta["empty_zones"] == [0]
        # an empty zone moves to itself: its value stays 0
        assert grid.value[0] == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            xt.fit_grid([], 2, 1)

    def test_invariant_validation(self):
        with pytest.raises(ValueError, match="shape"):
            xt.XtGrid(n_x=2, n_y=1, value=np.array([0.1]))
        for bad in (-0.1, 1.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite numbers in \\[0, 1\\]"):
                xt.XtGrid(n_x=2, n_y=1, value=np.array([0.1, bad]))

    def test_json_round_trip(self, tmp_path, fixture_actions):
        grid = xt.fit_grid(fixture_actions, 4, 3)
        path = tmp_path / "grid.json"
        grid.save(path)
        loaded = xt.XtGrid.load(path)
        np.testing.assert_array_equal(loaded.value, grid.value)
        assert loaded.meta == grid.meta
        raw = json.loads(path.read_text())
        assert set(raw) == {"n_x", "n_y", "value", "meta"}
        # a grid written with the fit's probabilities beside its values
        raw.update(shot_prob=[0.0] * 12, move_prob=[1.0] * 12, transition=[0.0] * 144)
        earlier = xt.XtGrid.from_json(json.dumps(raw))
        np.testing.assert_array_equal(earlier.value, grid.value)
        assert earlier.meta == grid.meta


class TestDeltaLabels:
    def test_same_team_difference(self):
        lab = xt.label_delta_xt("e", 1, 0.05, 1, 0.02)
        assert lab.delta_xt == pytest.approx(0.03)
        assert not lab.cross_team

    def test_cross_team_sum(self):
        lab = xt.label_delta_xt("e", 1, 0.05, 2, 0.02)
        assert lab.delta_xt == pytest.approx(0.07)
        assert lab.cross_team

    def test_equal_values_zero(self):
        assert xt.label_delta_xt("e", 1, 0.04, 1, 0.04).delta_xt == 0.0

    def test_half_start_uses_zero_baseline(self):
        lab = xt.label_delta_xt("e", 1, 0.05, None, 0.99)
        assert lab.delta_xt == 0.05 and not lab.cross_team

    @given(
        prev=st.floats(min_value=0.0, max_value=1.0),
        cur=st.floats(min_value=0.0, max_value=1.0),
        same=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_both_branches_reproduce_formula(self, prev, cur, same):
        lab = xt.label_delta_xt("e", 1, cur, 1 if same else 2, prev)
        expected = cur - prev if same else cur + prev
        assert lab.delta_xt == expected
        assert abs(lab.delta_xt) <= 2.0

    def test_label_stream_resets_each_half(self):
        actions = [
            make_action(start=(10, 10), end=(100, 34), team_id=1, time_s=5.0),
            make_action(start=(100, 34), end=(100, 34), team_id=2, time_s=9.0),
            make_action(start=(10, 10), end=(100, 34), team_id=2, time_s=2.0, period=2),
        ]
        grid = xt.fit_grid(actions + [make_action("shot", "success", start=(90, 34))], 2, 1)
        labels = xt.label_stream(actions, grid)
        v_b = grid.value[1]
        assert labels[0].delta_xt == pytest.approx(v_b)  # half start, zero baseline
        assert labels[1].cross_team
        assert labels[1].delta_xt == pytest.approx(2 * v_b)
        assert labels[2].delta_xt == pytest.approx(v_b)  # second half resets
        assert [l.event_id for l in labels] == ["1:0", "1:1", "1:2"]
