"""Expected-threat surface fitting, lookups, and threat-change labels."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatshare import graphs, xt
from threatshare.ingest import PITCH_LENGTH, PITCH_WIDTH, SpadlAction


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


def zone_oracle(n_x, n_y, x, y):
    """The documented zone rule for one point, in Python scalars: each axis
    bins at floor(v / size * n), half-open, the far edge closing the last
    bin; a point off the pitch takes the nearest bin."""

    def bin_of(v, size, n):
        scaled = v / size * n  # a float overflow reads inf, beyond the last bin
        if scaled >= n:
            return n - 1
        if scaled < 0:
            return 0
        return math.floor(scaled)

    clamped = not (0.0 <= x <= PITCH_LENGTH and 0.0 <= y <= PITCH_WIDTH)
    return bin_of(y, PITCH_WIDTH, n_y) * n_x + bin_of(x, PITCH_LENGTH, n_x), clamped


def _lookup(grid, x, y):
    zone, clamped = xt.zones(grid.n_x, grid.n_y, [x], [y])
    return int(zone[0]), bool(clamped[0])


@st.composite
def coordinate(draw, size, n):
    """A coordinate on one axis of ``n`` bins over ``size`` meters: anywhere
    near the pitch, on an interior boundary, on either edge, off the pitch,
    or an extreme finite value."""
    return draw(
        st.one_of(
            st.floats(min_value=-2 * size, max_value=3 * size),
            st.integers(min_value=1, max_value=max(1, n - 1)).map(lambda i: i * size / n),
            st.sampled_from([0.0, -0.0, size, -1e-12, size + 1e-12]),
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 5e-324]),
        )
    )


@st.composite
def grid_points(draw):
    n_x = draw(st.integers(min_value=1, max_value=200))
    n_y = draw(st.integers(min_value=1, max_value=200))
    points = draw(
        st.lists(
            st.tuples(coordinate(PITCH_LENGTH, n_x), coordinate(PITCH_WIDTH, n_y)),
            min_size=1,
            max_size=20,
        )
    )
    return n_x, n_y, points


class TestZoneLookup:
    def grid(self):
        return xt.XtGrid(n_x=2, n_y=1, value=np.array([0.25, 0.75]))

    def test_boundary_belongs_to_larger_index(self):
        grid = self.grid()
        zone, clamped = _lookup(grid, 52.5, 34.0)
        assert zone == 1 and not clamped
        assert grid.value[zone] == 0.75

    def test_interior_lookup(self):
        grid = self.grid()
        assert grid.value[_lookup(grid, 10.0, 34.0)[0]] == 0.25

    def test_out_of_bounds_clamps(self):
        grid = self.grid()
        zone, clamped = _lookup(grid, -1.0, 34.0)
        assert zone == 0 and clamped
        zone, clamped = _lookup(grid, 200.0, 34.0)
        assert zone == 1 and clamped
        assert grid.value[_lookup(grid, 105.0, 68.0)[0]] == 0.75  # far corner stays in range

    def test_extreme_coordinate_clips_before_the_integer_cast(self):
        # the bin of x is inf as a float; cast first, it would wrap to zone 0
        zone, clamped = xt.zones(200, 12, [1.5e308, -1.5e308], [30.0, 30.0])
        assert zone.tolist() == [5 * 200 + 199, 5 * 200] and clamped.all()

    @given(grid_points())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scalar_rule(self, case):
        n_x, n_y, points = case
        x, y = zip(*points)
        zone, clamped = xt.zones(n_x, n_y, x, y)
        expected = [zone_oracle(n_x, n_y, px, py) for px, py in points]
        assert list(zip(zone.tolist(), clamped.tolist())) == expected


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
        path.write_text(json.dumps(raw))
        earlier = xt.XtGrid.load(path)
        np.testing.assert_array_equal(earlier.value, grid.value)
        assert earlier.meta == grid.meta


def two_branch(cur, prev, cross):
    """The documented label rule: a change of possession adds the two
    values, the same team keeps the difference."""
    return cur + prev if cross else cur - prev


def two_step_labels(prev, cur, team=1, period=1):
    """Labels of two actions on a 2x1 grid valued (prev, cur): the first by
    team 1 in period 1 ends in zone 0, the second by ``team`` in ``period``
    ends in zone 1."""
    grid = xt.XtGrid(n_x=2, n_y=1, value=np.array([prev, cur]))
    actions = [
        make_action(end=(10, 34), team_id=1),
        make_action(end=(80, 34), team_id=team, period=period),
    ]
    return xt.label_stream(actions, grid)


class TestDeltaLabels:
    def test_same_team_difference(self):
        _, delta, cross = two_step_labels(0.02, 0.05)
        assert delta[1] == pytest.approx(0.03)
        assert not cross[1]

    def test_cross_team_sum(self):
        _, delta, cross = two_step_labels(0.02, 0.05, team=2)
        assert delta[1] == pytest.approx(0.07)
        assert cross[1]

    def test_equal_values_zero(self):
        assert two_step_labels(0.04, 0.04)[1][1] == 0.0

    def test_half_start_uses_zero_baseline(self):
        _, delta, cross = two_step_labels(0.99, 0.05, team=2, period=2)
        assert delta[1] == 0.05 and not cross[1]

    @given(
        prev=st.floats(min_value=0.0, max_value=1.0),
        cur=st.floats(min_value=0.0, max_value=1.0),
        same=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_both_branches_reproduce_formula(self, prev, cur, same):
        delta = two_step_labels(prev, cur, team=1 if same else 2)[1][1]
        expected = cur - prev if same else cur + prev
        assert delta == expected
        assert abs(delta) <= 2.0

    def test_label_stream_resets_each_half(self):
        actions = [
            make_action(start=(10, 10), end=(100, 34), team_id=1, time_s=5.0),
            make_action(start=(100, 34), end=(100, 34), team_id=2, time_s=9.0),
            make_action(start=(10, 10), end=(100, 34), team_id=2, time_s=2.0, period=2),
        ]
        grid = xt.fit_grid(actions + [make_action("shot", "success", start=(90, 34))], 2, 1)
        _, delta, cross = xt.label_stream(actions, grid)
        v_b = grid.value[1]
        assert delta[0] == pytest.approx(v_b)  # half start, zero baseline
        assert cross[1]
        assert delta[1] == pytest.approx(2 * v_b)
        assert delta[2] == pytest.approx(v_b)  # second half resets
        built = graphs.build_match_graphs(actions, 0, {}, grid)
        assert [g.event_id for g in built] == ["1:0", "1:1", "1:2"]


class TestLabelStream:
    """Each case against the two-branch rule, zone values (0.2, 0.7)."""

    grid = xt.XtGrid(n_x=2, n_y=1, value=np.array([0.2, 0.7]))

    def test_empty_stream(self):
        value, delta, cross = xt.label_stream([], self.grid)
        assert value.shape == delta.shape == cross.shape == (0,)

    def test_single_action(self):
        value, delta, cross = xt.label_stream([make_action(end=(80, 34))], self.grid)
        assert value.tolist() == [0.7]
        assert delta.tolist() == [two_branch(0.7, 0.0, False)]
        assert cross.tolist() == [False]

    def test_period_change_by_the_same_team(self):
        actions = [make_action(end=(80, 34)), make_action(end=(10, 34), period=2)]
        value, delta, cross = xt.label_stream(actions, self.grid)
        assert value.tolist() == [0.7, 0.2]
        assert delta.tolist() == [two_branch(0.7, 0.0, False), two_branch(0.2, 0.0, False)]
        assert cross.tolist() == [False, False]

    def test_possession_change(self):
        actions = [
            make_action(end=(80, 34), team_id=1),
            make_action(end=(10, 34), team_id=1),
            make_action(end=(80, 34), team_id=2),
        ]
        value, delta, cross = xt.label_stream(actions, self.grid)
        assert value.tolist() == [0.7, 0.2, 0.7]
        assert delta.tolist() == [
            two_branch(0.7, 0.0, False),
            two_branch(0.2, 0.7, False),
            two_branch(0.7, 0.2, True),
        ]
        assert cross.tolist() == [False, False, True]
