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

from threatshare.ingest import PASS_LIKE_SPADL, PITCH_LENGTH, PITCH_WIDTH

log = logging.getLogger(__name__)

# which SPADL types count as shots / ball moves when estimating the surface
SHOT_TYPES = frozenset({"shot", "shot_penalty", "shot_freekick"})
MOVE_TYPES = PASS_LIKE_SPADL | {"dribble", "take_on"}

MAX_ITERATIONS = 1000


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

    def to_json(self) -> str:
        payload = {"n_x": self.n_x, "n_y": self.n_y, "value": self.value.tolist(), "meta": self.meta}
        return json.dumps(payload, sort_keys=True)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "XtGrid":
        """The grid ``to_json`` wrote; other keys (a grid written with the
        fit's probabilities beside its values) are ignored."""
        d = json.loads(text)
        return cls(n_x=d["n_x"], n_y=d["n_y"], value=np.array(d["value"]), meta=d.get("meta", {}))

    @classmethod
    def load(cls, path) -> "XtGrid":
        return cls.from_json(Path(path).read_text())


@dataclass(frozen=True)
class XtLabel:
    """Threat state of one event: end-location xT and the signed change."""

    event_id: str
    xt_value: float
    delta_xt: float
    cross_team: bool = False


def zone_of(n_x: int, n_y: int, xy) -> tuple[int, bool]:
    """Index of the zone of an ``n_x`` by ``n_y`` grid containing ``xy``;
    the flag marks out-of-bounds clamping.

    Binning is half-open: a point exactly on an interior boundary belongs to
    the zone with the larger index. The far pitch edge closes the last zone.
    """
    x, y = float(xy[0]), float(xy[1])
    clamped = not (0.0 <= x <= PITCH_LENGTH and 0.0 <= y <= PITCH_WIDTH)
    ix = int(np.floor(x / PITCH_LENGTH * n_x))
    iy = int(np.floor(y / PITCH_WIDTH * n_y))
    ix = min(max(ix, 0), n_x - 1)
    iy = min(max(iy, 0), n_y - 1)
    return iy * n_x + ix, clamped


def xt_of(grid: XtGrid, xy) -> float:
    """xT value of the zone containing ``xy`` (out-of-bounds points clamp)."""
    zone, _ = zone_of(grid.n_x, grid.n_y, xy)
    return float(grid.value[zone])


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
    Zones with no observed actions get shot_prob 0, move_prob 1, and a
    self-transition, which pins their value at 0; they are flagged in meta.
    """
    actions = list(actions)
    if not actions:
        raise ValueError("fit_grid: empty corpus")
    if n_x < 1 or n_y < 1:
        raise ValueError("fit_grid: n_x and n_y must be >= 1")

    n = n_x * n_y
    shots = np.zeros(n)
    goals = np.zeros(n)
    moves = np.zeros(n)
    trans_counts = np.zeros((n, n))
    clamp_count = 0

    for a in actions:
        start_zone, clamped = zone_of(n_x, n_y, (a.start_x, a.start_y))
        clamp_count += clamped
        if a.action_type in SHOT_TYPES:
            shots[start_zone] += 1
            if a.result == "success":
                goals[start_zone] += 1
        elif a.action_type in MOVE_TYPES:
            moves[start_zone] += 1
            end_zone, clamped = zone_of(n_x, n_y, (a.end_x, a.end_y))
            clamp_count += clamped
            trans_counts[start_zone, end_zone] += 1

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


def label_delta_xt(
    event_id: str,
    cur_team,
    cur_xt: float,
    prev_team,
    prev_xt: float,
) -> XtLabel:
    """Two-branch threat change for one event given its predecessor.

    ``prev_team=None`` marks the first event of a half: the previous threat
    is taken as zero on the same-team branch.
    """
    if prev_team is None:
        prev_xt = 0.0
        cross = False
    else:
        cross = cur_team != prev_team
    delta = cur_xt + prev_xt if cross else cur_xt - prev_xt
    return XtLabel(event_id=event_id, xt_value=cur_xt, delta_xt=delta, cross_team=cross)


def label_stream(actions, grid: XtGrid) -> list[XtLabel]:
    """Label one match's action stream in order; halves reset the baseline."""
    labels: list[XtLabel] = []
    prev_team = None
    prev_xt = 0.0
    prev_period = None
    for i, a in enumerate(actions):
        cur_xt = xt_of(grid, (a.end_x, a.end_y))
        if a.period != prev_period:
            prev_team = None
        labels.append(
            label_delta_xt(f"{a.game_id}:{i}", a.team_id, cur_xt, prev_team, prev_xt)
        )
        prev_team, prev_xt, prev_period = a.team_id, cur_xt, a.period
    return labels
