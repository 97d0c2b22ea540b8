"""In-memory spans around the pipeline's public functions, and the per-layer
metrics computed from them.

``install`` runs inside the process that executes the pipeline stages. It
replaces each traced function on the module its caller reads it from (for
example ``threatshare.models.forward``, which ``models.train`` calls by
global name and the CLI calls as ``models.forward``), and counts
``Tensor`` constructions. Nothing inside ``src/`` is edited: the spans sit
at the layer boundaries, seen from outside.

A span is ``[name, start, end, parent, step, attrs]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``step`` the ``variant/stage``
the benchmark was running, and ``attrs`` what the span measured about its
result (graph counts, file sizes, iterations). Start and end are readings
of the tracer's clock: the benchmark passes its reference-speed CPU clock
(``refclock``), so spans and stage timings share one scale.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from pathlib import Path

VARIANTS = ("gcn", "gat", "transformer")

# Matches at or above this many actions count as the long (1,600-event) class.
LONG_MATCH_ACTIONS = 1200


def _graph_attrs(graphs) -> dict:
    return {"graphs": len(graphs), "nodes": sum(len(g.node_ids) for g in graphs)}


def _build_attrs(args, kwargs, result) -> dict:
    return {"actions": len(args[0]), **_graph_attrs(result)}


def _write_graphs_attrs(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, span name, attrs(args, kwargs, result) or None)
TARGETS = (
    ("threatshare.ingest", "parse_events", "ingest.parse_events", None),
    ("threatshare.ingest", "to_spadl", "ingest.to_spadl", None),
    ("threatshare.ingest", "write_actions", "ingest.write_actions", None),
    ("threatshare.ingest", "read_actions", "ingest.read_actions", None),
    ("threatshare.xt", "fit_grid", "xt.fit_grid", lambda a, k, r: {"iterations": r.meta["iterations"]}),
    ("threatshare.graphs", "label_stream", "xt.label_stream", None),
    ("threatshare.graphs", "build_match_graphs", "graphs.build_match_graphs", _build_attrs),
    ("threatshare.graphs", "infer_recipients", "graphs.infer_recipients", None),
    ("threatshare.graphs", "write_graphs", "graphs.write_graphs", _write_graphs_attrs),
    ("threatshare.graphs", "read_graphs", "graphs.read_graphs", lambda a, k, r: _graph_attrs(r)),
    ("threatshare.models", "train", "models.train", None),
    ("threatshare.models", "evaluate", "models.evaluate", None),
    ("threatshare.models", "forward", "models.forward", None),
    ("threatshare.models", "edge_mlp", "models.edge_mlp", None),
    ("threatshare.diffcore", "backward", "diffcore.backward", None),
    ("threatshare.diffcore", "adam_step", "diffcore.adam_step", None),
    ("threatshare.diffcore.checkpoint", "save_container", "diffcore.save_container", None),
    ("threatshare.diffcore.checkpoint", "load_container", "diffcore.load_container", None),
    ("threatshare.credit", "build_ledger", "credit.build_ledger", None),
    ("threatshare.credit", "rank", "credit.rank", None),
    ("threatshare.cli", "run_stage", "cli.run_stage", None),
)

class Tracer:
    """Spans and per-step ``Tensor`` construction counts of one process."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step = ""
        self.tensors: dict[str, int] = {}

    def wrap(self, name, fn, attrs):
        spans, stack = self.spans, self.stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.step, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target and the ``Tensor`` constructor in this process."""
        for module_name, attr, name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), attrs))

        from threatshare.diffcore.tensor import Tensor

        init = Tensor.__init__
        counts = self.tensors

        def counted_init(tensor, *args, **kwargs):
            counts[self.step] = counts.get(self.step, 0) + 1
            init(tensor, *args, **kwargs)

        Tensor.__init__ = counted_init

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "tensors": self.tensors}))


def _variant(step: str) -> str:
    return step.split("/", 1)[0]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run of the stages (see ``PER_LAYER``)."""
    spans, tensors = trace["spans"], trace["tensors"]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr_sums: dict[str, float] = {}
    for name, start, end, _, step, attrs in spans:
        keys = (name, f"{name}.{_variant(step)}")
        for key in keys:
            total[key] = total.get(key, 0.0) + (end - start)
            calls[key] = calls.get(key, 0) + 1
        for attr, value in (attrs or {}).items():
            key = f"{name}:{attr}"
            attr_sums[key] = attr_sums.get(key, 0.0) + value

    def s(key):
        return total.get(key, 0.0)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    out = {
        "ingest.parse_events_s": s("ingest.parse_events"),
        "ingest.to_spadl_s": s("ingest.to_spadl"),
        "ingest.write_actions_s": s("ingest.write_actions"),
        "ingest.read_actions_s": s("ingest.read_actions"),
        "xt.fit_grid_s": s("xt.fit_grid"),
        "xt.iterations": attr_sums.get("xt.fit_grid:iterations", 0.0),
        "xt.label_stream_s": s("xt.label_stream"),
        "graphs.build_match_graphs_s": s("graphs.build_match_graphs"),
        "graphs.infer_recipients_calls": float(calls.get("graphs.infer_recipients", 0)),
        "graphs.infer_recipients_s": s("graphs.infer_recipients"),
        "graphs.write_graphs_s": s("graphs.write_graphs"),
        "graphs.store_bytes": attr_sums.get("graphs.write_graphs:bytes", 0.0),
        "graphs.read_graphs_s": s("graphs.read_graphs"),
        "diffcore.save_container_s": s("diffcore.save_container"),
        "diffcore.load_container_s": s("diffcore.load_container"),
        "credit.rank_s": s("credit.rank"),
    }
    for length in ("m800", "m1600"):
        by_length = [
            (sp[2] - sp[1], sp[5]["graphs"])
            for sp in spans
            if sp[0] == "graphs.build_match_graphs"
            and sp[5] is not None
            and (sp[5]["actions"] >= LONG_MATCH_ACTIONS) == (length == "m1600")
        ]
        out[f"graphs.ms_per_graph.{length}"] = ratio(
            sum(d for d, _ in by_length), sum(n for _, n in by_length), 1000.0
        )
    node_sum = attr_sums.get("graphs.build_match_graphs:nodes", 0.0) + attr_sums.get(
        "graphs.read_graphs:nodes", 0.0
    )
    graph_sum = attr_sums.get("graphs.build_match_graphs:graphs", 0.0) + attr_sums.get(
        "graphs.read_graphs:graphs", 0.0
    )
    out["graphs.mean_nodes"] = ratio(node_sum, graph_sum)

    for v in VARIANTS:
        # every Tensor built while the variant's stages ran (forward, loss,
        # parameters), per forward pass
        forwards = calls.get(f"models.forward.{v}", 0)
        variant_tensors = sum(n for step, n in tensors.items() if _variant(step) == v)
        out[f"models.train_s.{v}"] = s(f"models.train.{v}")
        out[f"models.edge_mlp_s.{v}"] = s(f"models.edge_mlp.{v}")
        out[f"models.forward_calls.{v}"] = float(forwards)
        out[f"models.forward_ms_per_graph.{v}"] = ratio(s(f"models.forward.{v}"), forwards, 1000.0)
        out[f"models.evaluate_s.{v}"] = s(f"models.evaluate.{v}")
        out[f"diffcore.tensors_per_graph.{v}"] = ratio(variant_tensors, forwards)
        out[f"diffcore.backward_s.{v}"] = s(f"diffcore.backward.{v}")
        out[f"diffcore.backward_calls.{v}"] = float(calls.get(f"diffcore.backward.{v}", 0))
        out[f"diffcore.adam_step_s.{v}"] = s(f"diffcore.adam_step.{v}")
        out[f"diffcore.adam_step_calls.{v}"] = float(calls.get(f"diffcore.adam_step.{v}", 0))
        out[f"credit.build_ledger_s.{v}"] = s(f"credit.build_ledger.{v}")

    own = self_times(spans)
    out["cli.run_stage_self_s"] = sum(t for sp, t in zip(spans, own) if sp[0] == "cli.run_stage")
    return out


TRAIN, SEASON, WIDE = "train", "season-graphs", "wide-attribute"


def _per_variant(stem, unit, better, workloads, moves):
    return tuple(
        (f"{stem}.{v}", unit, better, workloads, moves.replace("<v>", v)) for v in VARIANTS
    )


# name, unit, better, workloads where it is measured, end-to-end metric it should move
PER_LAYER = (
    ("ingest.parse_events_s", "s", "lower", (SEASON,), "ingest_s"),
    ("ingest.to_spadl_s", "s", "lower", (SEASON,), "ingest_s"),
    ("ingest.write_actions_s", "s", "lower", (SEASON,), "ingest_s"),
    ("ingest.read_actions_s", "s", "lower", (SEASON, WIDE), "xt_fit_s, build_graphs_s, inference_graphs_per_s.*"),
    ("xt.fit_grid_s", "s", "lower", (SEASON,), "xt_fit_s"),
    ("xt.iterations", "count", "lower", (SEASON,), "xt_fit_s"),
    ("xt.label_stream_s", "s", "lower", (SEASON,), "build_graphs_s"),
    ("graphs.build_match_graphs_s", "s", "lower", (SEASON,), "build_graphs_s"),
    ("graphs.ms_per_graph.m800", "ms", "lower", (SEASON,), "build_graphs_s"),
    ("graphs.ms_per_graph.m1600", "ms", "lower", (SEASON,), "build_graphs_s"),
    ("graphs.infer_recipients_calls", "count", "lower", (SEASON,), "build_graphs_s"),
    ("graphs.infer_recipients_s", "s", "lower", (SEASON,), "build_graphs_s"),
    ("graphs.write_graphs_s", "s", "lower", (SEASON,), "build_graphs_s, peak_rss_mb"),
    ("graphs.store_bytes", "bytes", "lower", (SEASON,), "build_graphs_s, peak_rss_mb"),
    ("graphs.read_graphs_s", "s", "lower", (TRAIN, WIDE), "train_graphs_per_s.*, inference_graphs_per_s.*"),
    ("graphs.mean_nodes", "nodes", "lower", (TRAIN, SEASON, WIDE), "none (input descriptor)"),
    *_per_variant("models.train_s", "s", "lower", (TRAIN,), "train_graphs_per_s.<v>"),
    *_per_variant("models.edge_mlp_s", "s", "lower", (TRAIN, WIDE), "train_graphs_per_s.<v>, inference_graphs_per_s.<v>"),
    *_per_variant("models.forward_calls", "count", "lower", (TRAIN, WIDE), "train_graphs_per_s.<v>, inference_graphs_per_s.<v>"),
    *_per_variant("models.forward_ms_per_graph", "ms", "lower", (TRAIN, WIDE), "train_graphs_per_s.<v>, inference_graphs_per_s.<v>"),
    *_per_variant("models.evaluate_s", "s", "lower", (WIDE,), "inference_graphs_per_s.<v>"),
    *_per_variant("diffcore.tensors_per_graph", "count", "lower", (TRAIN, WIDE), "train_graphs_per_s.<v>, inference_graphs_per_s.<v>"),
    *_per_variant("diffcore.backward_s", "s", "lower", (TRAIN,), "train_graphs_per_s.<v>"),
    *_per_variant("diffcore.backward_calls", "count", "lower", (TRAIN,), "train_graphs_per_s.<v>"),
    *_per_variant("diffcore.adam_step_s", "s", "lower", (TRAIN,), "train_graphs_per_s.<v>"),
    *_per_variant("diffcore.adam_step_calls", "count", "lower", (TRAIN,), "train_graphs_per_s.<v>"),
    ("diffcore.save_container_s", "s", "lower", (TRAIN,), "ref_cpu_s"),
    ("diffcore.load_container_s", "s", "lower", (WIDE,), "ref_cpu_s"),
    *_per_variant("credit.build_ledger_s", "s", "lower", (WIDE,), "inference_graphs_per_s.<v>, ref_cpu_s"),
    ("credit.rank_s", "s", "lower", (WIDE,), "ref_cpu_s"),
    ("cli.run_stage_self_s", "s", "lower", (TRAIN, SEASON, WIDE), "ref_cpu_s, build_graphs_s"),
    ("trace_overhead_s", "s", "lower", (TRAIN, SEASON, WIDE), "none (traced minus untraced ref_cpu_s)"),
)

# Spans each workload's stages must fire; a refactor that bypasses one of
# these lookups would silently zero a layer.
EXPECTED_SPANS = {
    TRAIN: ("cli.run_stage", "graphs.read_graphs", "models.train", "models.forward",
            "models.edge_mlp", "diffcore.backward", "diffcore.adam_step", "diffcore.save_container"),
    SEASON: ("cli.run_stage", "ingest.parse_events", "ingest.to_spadl", "ingest.write_actions",
             "ingest.read_actions", "xt.fit_grid", "xt.label_stream", "graphs.build_match_graphs",
             "graphs.infer_recipients", "graphs.write_graphs"),
    WIDE: ("cli.run_stage", "ingest.read_actions", "graphs.read_graphs", "models.evaluate",
           "models.forward", "models.edge_mlp", "diffcore.load_container", "credit.build_ledger",
           "credit.rank"),
}
