"""The per-event split that ``credit.split`` does for all events at once,
kept as the reference it is checked against."""

import numpy as np


def attribute(node_ids, norms, delta: float, *, actor=None, negative_mode: str = "prorata"):
    """Split ``delta`` over one event graph's players by embedding magnitude.

    ``norms`` holds |h_v| in the order of ``node_ids``:
    share_v = (|h_v| / sum_u |h_u|) * delta. All-zero embeddings degrade to
    a uniform split. ``negative_mode="actor"`` instead hands a negative
    delta entirely to the acting player ``actor`` (by default the first
    node). Returns the shares and whether the split fell back to uniform.
    """
    if negative_mode not in ("prorata", "actor"):
        raise ValueError(f"unknown negative_mode {negative_mode!r}")
    node_ids = list(node_ids)
    if negative_mode == "actor" and delta < 0:
        actor = node_ids[0] if actor is None else actor
        return {pid: (delta if pid == actor else 0.0) for pid in node_ids}, False

    total = norms.sum()
    uniform = total == 0.0
    weights = np.full(len(node_ids), 1.0 / len(node_ids)) if uniform else norms / total
    return {pid: float(w * delta) for pid, w in zip(node_ids, weights)}, bool(uniform)
