"""Expected-threat (xT) surface and per-event threat-change labels.

The pitch is cut into n_x * n_y zones. Each zone carries empirical
probabilities of shooting, scoring given a shot, and moving the ball, plus
a transition distribution over destination zones. Zone values solve the
fixed point

    value(z) = shot_prob(z) * goal_prob(z)
             + move_prob(z) * sum_z' transition(z -> z') * value(z')

iterated from zero until the max per-zone change drops below ``tol``. The
map is monotone from the zero start and bounded by the best goal
probability, so values live in [0, 1].

The per-event regression label compares the threat of consecutive events:
same team keeps the difference, a change of possession adds the two values
(the new event both erases the opponent's threat and creates its own).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from threatshare.ingest import PASS_LIKE_SPADL, PITCH_LENGTH, PITCH_WIDTH, action_columns

log = logging.getLogger(__name__)

# which SPADL types count as shots / ball moves when estimating the surface
SHOT_TYPES = frozenset({"shot", "shot_penalty", "shot_freekick"})
MOVE_TYPES = PASS_LIKE_SPADL | {"dribble", "take_on"}

MAX_ITERATIONS = 1000

# The most zones a grid may have. The fit keeps dense zones x zones matrices
# (counts and transition probabilities), so its memory grows with the square:
# an xt-fit of the bundled fixture peaks at 36 MB of RSS with 192 zones and
# 128 MB with 2,500; 40,000 zones would need some 20 GB.
MAX_ZONES = 2500


class XtFitError(RuntimeError):
    """Value iteration failed to converge within the iteration cap."""


@dataclass
class XtGrid:
    """Fitted expected-threat surface: one value per zone (zone
    ``iy * n_x + ix``) and what the fit recorded in ``meta``. The fit's
    probabilities and transition matrix stay in ``fit_grid``: only the
    values reach the labels."""

    n_x: int
    n_y: int
    value: np.ndarray  # (n_x * n_y,)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.n_x * self.n_y
        self.value = np.asarray(self.value, dtype=np.float64)
        if self.value.shape != (n,):
            raise ValueError(f"value: expected shape ({n},), got {self.value.shape}")
        if not np.all((self.value >= 0) & (self.value <= 1)):
            raise ValueError("zone values must be finite numbers in [0, 1]")

    def save(self, path) -> None:
        payload = {"n_x": self.n_x, "n_y": self.n_y, "value": self.value.tolist(), "meta": self.meta}
        Path(path).write_text(json.dumps(payload, sort_keys=True))

    @classmethod
    def load(cls, path) -> "XtGrid":
        """The grid ``save`` wrote; other keys (a grid written with the fit's
        probabilities beside its values) are ignored."""
        d = json.loads(Path(path).read_text())
        return cls(n_x=d["n_x"], n_y=d["n_y"], value=np.array(d["value"]), meta=d.get("meta", {}))


def zones(n_x: int, n_y: int, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Index of the zone of an ``n_x`` by ``n_y`` grid containing each point
    ``(x[i], y[i])``, and whether the point was clamped onto the pitch.

    Binning is half-open: a point exactly on an interior boundary belongs to
    the zone with the larger index. The far pitch edge closes the last zone.
    A point off the pitch takes the nearest zone; the bin is clipped as a
    float, before the integer cast, so an extreme coordinate cannot wrap.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    clamped = ~((0.0 <= x) & (x <= PITCH_LENGTH) & (0.0 <= y) & (y <= PITCH_WIDTH))
    with np.errstate(over="ignore"):  # a bin beyond the float range clips like any other
        ix = np.clip(np.floor(x / PITCH_LENGTH * n_x), 0, n_x - 1).astype(np.int64)
        iy = np.clip(np.floor(y / PITCH_WIDTH * n_y), 0, n_y - 1).astype(np.int64)
    return iy * n_x + ix, clamped


def solve_values(
    shot_prob: np.ndarray,
    goal_prob_given_shot: np.ndarray,
    move_prob: np.ndarray,
    transition: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = MAX_ITERATIONS,
) -> tuple[np.ndarray, int]:
    """Iterate the zone-value fixed point from zero until residual < tol."""
    payoff = shot_prob * goal_prob_given_shot
    value = np.zeros_like(payoff)
    for iteration in range(1, max_iter + 1):
        new = payoff + move_prob * (transition @ value)
        residual = float(np.max(np.abs(new - value)))
        value = new
        if residual < tol:
            return value, iteration
    raise XtFitError(
        f"value iteration did not converge in {max_iter} iterations "
        f"(residual {residual:.3e}, tol {tol:.1e})"
    )


def fit_grid(actions, n_x: int, n_y: int, tol: float = 1e-8) -> XtGrid:
    """Estimate zone probabilities from a SPADL corpus and solve for values.

    Shots and moves are counted at their start zone; transitions use the move
    end zone regardless of result (a failed pass still relocates the ball).
    ``meta["clamped_coordinates"]`` counts the off-pitch start points of all
    actions and the off-pitch end points of moves.
    Zones with no observed actions get shot_prob 0, move_prob 1, and a
    self-transition, which pins their value at 0; they are flagged in meta.
    """
    actions = list(actions)
    if not actions:
        raise ValueError("fit_grid: empty corpus")
    if n_x < 1 or n_y < 1:
        raise ValueError("fit_grid: n_x and n_y must be >= 1")

    n = n_x * n_y
    cols = action_columns(actions)
    start, start_clamped = zones(n_x, n_y, cols.start_x, cols.start_y)
    end, end_clamped = zones(n_x, n_y, cols.end_x, cols.end_y)
    is_shot = np.fromiter(map(SHOT_TYPES.__contains__, cols.action_type), bool, len(actions))
    is_move = np.fromiter(map(MOVE_TYPES.__contains__, cols.action_type), bool, len(actions))
    is_goal = is_shot & np.fromiter(map("success".__eq__, cols.result), bool, len(actions))

    def counts(index, size):  # as floats, weighing each entry 1.0: no integer copy
        return np.bincount(index, np.ones(len(index)), minlength=size)

    shots = counts(start[is_shot], n)
    goals = counts(start[is_goal], n)
    moves = counts(start[is_move], n)
    trans_counts = counts(start[is_move] * n + end[is_move], n * n).reshape(n, n)
    clamp_count = int(start_clamped.sum() + end_clamped[is_move].sum())

    totals = shots + moves
    empty = totals == 0
    shot_prob = np.where(empty, 0.0, shots / np.where(empty, 1.0, totals))
    move_prob = 1.0 - shot_prob
    goal_prob = np.where(shots > 0, goals / np.where(shots > 0, shots, 1.0), 0.0)

    transition = np.zeros((n, n))
    move_row = trans_counts.sum(axis=1)
    has_moves = move_row > 0
    transition[has_moves] = trans_counts[has_moves] / move_row[has_moves, None]
    # zones with attempted data but no recorded move end (or none at all):
    # self-transition keeps the row stochastic and the value at its payoff
    needs_self = (move_prob > 0) & ~has_moves
    transition[needs_self, needs_self] = 1.0

    if np.any(empty):
        log.warning("fit_grid: %d of %d zones had no observed actions", int(empty.sum()), n)

    value, iterations = solve_values(shot_prob, goal_prob, move_prob, transition, tol=tol)
    return XtGrid(
        n_x=n_x,
        n_y=n_y,
        value=value,
        meta={
            "tol": tol,
            "iterations": iterations,
            "empty_zones": np.flatnonzero(empty).tolist(),
            "clamped_coordinates": clamp_count,
            "n_actions": len(actions),
        },
    )


def label_stream(actions, grid: XtGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label one match's action stream in order: each action's end-zone xT,
    its threat change and whether possession changed, as three arrays.

    The change compares each action with the one before it: the same team
    keeps the difference, a change of possession adds the two values. The
    first action of each period has no predecessor: its baseline is zero
    and it changes no possession.
    """
    cols = action_columns(actions)
    zone, _ = zones(grid.n_x, grid.n_y, cols.end_x, cols.end_y)
    xt_value = grid.value[zone]
    period, team = np.asarray(cols.period), np.asarray(cols.team_id)
    opens = np.ones(len(zone), dtype=bool)  # the first action of its period
    opens[1:] = period[1:] != period[:-1]
    prev = np.zeros(len(zone))
    prev[1:] = xt_value[:-1]
    prev[opens] = 0.0
    cross_team = np.zeros(len(zone), dtype=bool)
    cross_team[1:] = team[1:] != team[:-1]
    cross_team &= ~opens
    delta_xt = np.where(cross_team, xt_value + prev, xt_value - prev)
    return xt_value, delta_xt, cross_team
