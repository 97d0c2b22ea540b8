"""Pitch rendering of a case sequence as a deterministic SVG.

The SVG is assembled by hand (no plotting library) so identical input
yields byte-identical output. One arrow per action from start to end
coordinates, labeled with the acting player and their attributed threat
change to three decimals. Out-of-pitch coordinates are clamped and the
clamp is announced in the legend.
"""

from __future__ import annotations

from threatshare.ingest import PITCH_LENGTH, PITCH_WIDTH

_SCALE = 8.0
_MARGIN = 30.0


def _px(x_m: float, y_m: float) -> tuple[float, float]:
    return (_MARGIN + x_m * _SCALE, _MARGIN + (PITCH_WIDTH - y_m) * _SCALE)


def _f(v: float) -> str:
    return f"{v:.2f}"


def _clamp(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


def _pitch_elements() -> list[str]:
    w, h = PITCH_LENGTH * _SCALE, PITCH_WIDTH * _SCALE
    parts = [
        f'<rect x="{_f(_MARGIN)}" y="{_f(_MARGIN)}" width="{_f(w)}" height="{_f(h)}" '
        'fill="#2e7d46" stroke="white" stroke-width="2"/>'
    ]
    mid_x, _ = _px(PITCH_LENGTH / 2, 0)
    parts.append(
        f'<line x1="{_f(mid_x)}" y1="{_f(_MARGIN)}" x2="{_f(mid_x)}" '
        f'y2="{_f(_MARGIN + h)}" stroke="white" stroke-width="2"/>'
    )
    cx, cy = _px(PITCH_LENGTH / 2, PITCH_WIDTH / 2)
    parts.append(
        f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(9.15 * _SCALE)}" '
        'fill="none" stroke="white" stroke-width="2"/>'
    )
    # penalty and goal areas at both ends
    for x0, depth in ((0.0, 16.5), (PITCH_LENGTH - 16.5, 16.5)):
        top_x, top_y = _px(x0, PITCH_WIDTH / 2 + 20.16)
        parts.append(
            f'<rect x="{_f(top_x)}" y="{_f(top_y)}" width="{_f(depth * _SCALE)}" '
            f'height="{_f(40.32 * _SCALE)}" fill="none" stroke="white" stroke-width="2"/>'
        )
    for x0, depth in ((0.0, 5.5), (PITCH_LENGTH - 5.5, 5.5)):
        top_x, top_y = _px(x0, PITCH_WIDTH / 2 + 9.16)
        parts.append(
            f'<rect x="{_f(top_x)}" y="{_f(top_y)}" width="{_f(depth * _SCALE)}" '
            f'height="{_f(18.32 * _SCALE)}" fill="none" stroke="white" stroke-width="2"/>'
        )
    return parts


def _arrow(x1, y1, x2, y2, color) -> list[str]:
    parts = [
        f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
        f'stroke="{color}" stroke-width="3"/>'
    ]
    # arrowhead: a small triangle oriented along the segment
    import math

    angle = math.atan2(y2 - y1, x2 - x1)
    size = 10.0
    left = (
        x2 - size * math.cos(angle - 0.45),
        y2 - size * math.sin(angle - 0.45),
    )
    right = (
        x2 - size * math.cos(angle + 0.45),
        y2 - size * math.sin(angle + 0.45),
    )
    parts.append(
        f'<polygon points="{_f(x2)},{_f(y2)} {_f(left[0])},{_f(left[1])} '
        f'{_f(right[0])},{_f(right[1])}" fill="{color}"/>'
    )
    return parts


def render_case_svg(report_rows) -> str:
    """Render (action, attributed delta) rows onto a 105x68 pitch."""
    width = PITCH_LENGTH * _SCALE + 2 * _MARGIN
    height = PITCH_WIDTH * _SCALE + 2 * _MARGIN + 24
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
        f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}">',
        f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" fill="#1b4027"/>',
    ]
    parts.extend(_pitch_elements())

    clamped_any = False
    for i, (action, share) in enumerate(report_rows):
        sx = _clamp(action.start_x, 0.0, PITCH_LENGTH)
        sy = _clamp(action.start_y, 0.0, PITCH_WIDTH)
        ex = _clamp(action.end_x, 0.0, PITCH_LENGTH)
        ey = _clamp(action.end_y, 0.0, PITCH_WIDTH)
        if (sx, sy, ex, ey) != (action.start_x, action.start_y, action.end_x, action.end_y):
            clamped_any = True
        x1, y1 = _px(sx, sy)
        x2, y2 = _px(ex, ey)
        if (x1, y1) == (x2, y2):
            x2 += 1.0  # zero-displacement action still gets a visible glyph
        color = "#ffd54d" if share >= 0 else "#ff6e6e"
        parts.extend(_arrow(x1, y1, x2, y2, color))
        label = f"P{action.player_id} {share:+.3f}"
        lx, ly = (x1 + x2) / 2, (y1 + y2) / 2 - 8
        parts.append(
            f'<text x="{_f(lx)}" y="{_f(ly)}" font-family="monospace" font-size="14" '
            f'fill="white" text-anchor="middle">{label}</text>'
        )

    legend = f"{len(report_rows)} actions"
    if clamped_any:
        legend += " (some coordinates clamped to the pitch)"
    parts.append(
        f'<text x="{_f(_MARGIN)}" y="{_f(height - 8)}" font-family="monospace" '
        f'font-size="14" fill="white">{legend}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
