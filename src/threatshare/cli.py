"""Pipeline driver: one JSON config, one subcommand per stage.

    fetch -> ingest -> xt-fit -> build-graphs -> train -> evaluate
          -> attribute -> rank        (plus: ablate, plot-case)

Every stage writes its artifacts under the configured artifacts directory
and records input digests in ``manifest.json``; re-running a stage whose
inputs and config are unchanged is a no-op. ``evaluate`` is the one stage
that runs a trained model: it stores what the model computed, each graph's
prediction and node embedding norms, with the digest of the graphs.
``attribute`` splits the threat change from that file, the facts of each
event line of ``graphs.ndjson`` (event and node ids, label, match, actor and
actor team, the cross-team flag; no window is cut) and the stats CSV.
Exit codes: 0 success, 2 config error, 3 missing, unreadable or stale input
file or artifact (or failed fetch), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import sys
import zipfile
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import Callable, get_args, get_type_hints

import numpy as np

from threatshare import credit, graphs as graphs_mod, ingest, models, viz, xt
from threatshare.diffcore import NumericError
from threatshare.diffcore import checkpoint as ckpt_io

log = logging.getLogger("threatshare")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4

DEFAULT_K = {"gcn": 7, "gat": 7, "transformer": 5}
DEFAULT_ABLATION_K = (1, 3, 5, 7, 9)

# What ``outputs_<variant>`` and ``graphs.ndjson`` hold; part of evaluate's
# and build-graphs' manifest keys, so artifacts of an earlier layout are
# rebuilt rather than skipped as fresh.
OUTPUTS_LAYOUT = 4
GRAPHS_LAYOUT = graphs_mod.STORE_SCHEMA_VERSION


class ConfigError(ValueError):
    """The run configuration is malformed or out of range."""


class MissingArtifactError(FileNotFoundError):
    """A stage input is absent or unreadable; the message says which stage or
    key makes it."""


# ── configuration ─────────────────────────────────────────────────────────
#
# The dataclasses below are the config schema: their nesting is the JSON
# layout, their defaults are the defaults and their annotations the types.


@dataclass(frozen=True)
class PathsConfig:
    cache_dir: Path = Path("cache")
    data_dir: Path = Path("data/fixture")
    artifacts_dir: Path = Path("artifacts")
    stats_csv: Path = Path("data/fixture/player_stats.csv")
    roles_csv: Path | None = Path("data/fixture/player_roles.csv")


@dataclass(frozen=True)
class GridConfig:
    n_x: int = 16
    n_y: int = 12
    tol: float = 1e-8


@dataclass(frozen=True)
class TrainingSection(models.TrainingConfig):
    split_unit: str = "graph"


@dataclass(frozen=True)
class FetchConfig:
    competition_id: int = 2
    season_id: int = 27


@dataclass
class RunConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    window_k: int | None = None
    model: models.ModelConfig = field(default_factory=models.ModelConfig)
    training: TrainingSection = field(default_factory=TrainingSection)
    seed: int = 7
    attribution_source: str = "predicted"
    negative_share_mode: str = "prorata"
    append_centrality_features: bool = False
    fetch: FetchConfig = field(default_factory=FetchConfig)

    @property
    def resolved_k(self) -> int:
        if self.window_k is not None:
            return self.window_k
        return DEFAULT_K[self.model.variant]

    def _as_json(self) -> dict:
        """The configuration as JSON values, ``window_k`` unresolved. The
        model seed is not a key: training takes it from ``seed``."""
        data = json.loads(json.dumps(asdict(self), default=str))
        del data["model"]["seed"]
        return data

    def effective_dict(self) -> dict:
        """Full configuration with every default resolved (round-trips)."""
        return {**self._as_json(), "window_k": self.resolved_k}

    def config_hash(self) -> str:
        return _sha_text(json.dumps(self.effective_dict(), sort_keys=True))


def _coerce(hint, value):
    """``value`` as the annotated type; ``X | None`` also takes null."""
    if get_args(hint):
        if value is None:
            return None
        (hint,) = [a for a in get_args(hint) if a is not type(None)]
    if hint is tuple:
        return tuple(int(v) for v in value)
    return hint(value)


def _overlay(defaults, keys: dict, data, where: str):
    """Copy of the dataclass ``defaults`` with the keys of ``data`` coerced in."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'config root'} must be a JSON object")
    hints = get_type_hints(type(defaults))
    changes = {}
    for key, value in data.items():
        dotted = f"{where}.{key}" if where else key
        if key not in keys:
            raise ConfigError(f"unknown key {dotted!r}")
        current = getattr(defaults, key)
        if is_dataclass(current):
            changes[key] = _overlay(current, keys[key], value, dotted)
            continue
        try:
            changes[key] = _coerce(hints[key], value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{dotted}: {exc}") from None
    try:
        return replace(defaults, **changes)
    except (ValueError, ArithmeticError) as exc:  # a section's own check
        raise ConfigError(f"{where}: {exc}") from None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def parse_config(data: dict) -> RunConfig:
    """Validate a raw config dict (every field range-checked) into RunConfig."""
    defaults = RunConfig()
    cfg = _overlay(defaults, defaults._as_json(), data, "")
    g, m, t = cfg.grid, cfg.model, cfg.training
    _require(1 <= g.n_x <= 200 and 1 <= g.n_y <= 200, "grid: n_x, n_y must be in [1, 200]")
    _require(0.0 < g.tol < 1.0, "grid.tol must be in (0, 1)")
    _require(cfg.window_k is None or 0 <= cfg.window_k <= 50, "window_k must be in [0, 50]")
    _require(m.hidden_dim >= 1, "model.hidden_dim must be >= 1")
    _require(m.n_layers >= 1, "model.n_layers must be >= 1")
    _require(len(m.edge_mlp_dims) == 3, "model.edge_mlp_dims must have 3 entries")
    _require(t.lr > 0, "training.lr must be > 0")
    _require(t.weight_decay >= 0, "training.weight_decay must be >= 0")
    _require(1 <= t.epochs <= 1000, "training.epochs must be in [1, 1000]")
    _require(t.batch_size >= 1, "training.batch_size must be >= 1")
    _require(0.0 < t.split_frac < 1.0, "training.split_frac must be in (0, 1)")
    _require(t.patience >= 1, "training.patience must be >= 1")
    _require(t.lr_step >= 1, "training.lr_step must be >= 1")
    _require(0.0 < t.lr_gamma <= 1.0, "training.lr_gamma must be in (0, 1]")
    _require(t.split_unit in ("graph", "match"), "training.split_unit must be graph|match")
    _require(cfg.seed >= 0, "seed must be >= 0")
    _require(
        cfg.attribution_source in ("predicted", "labeled"),
        "attribution_source must be predicted|labeled",
    )
    _require(
        cfg.negative_share_mode in credit.NEGATIVE_SHARE_MODES,
        "negative_share_mode must be prorata|actor",
    )
    return cfg


def load_config(path=None, *, seed=None, stage_dir=None) -> RunConfig:
    if path is None:
        data = {}
    else:
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if seed is not None and isinstance(data, dict):
        data = {**data, "seed": seed}
    cfg = parse_config(data)
    if stage_dir is not None:
        cfg.paths = replace(cfg.paths, artifacts_dir=Path(stage_dir))
    return cfg


# ── artifact paths and the run manifest ───────────────────────────────────


def _sha_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sha_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def artifact_paths(cfg: RunConfig) -> dict:
    a = cfg.paths.artifacts_dir
    v = cfg.model.variant
    return {
        "fetched": a / "fetched.json",
        "actions": a / "actions.ndjson",
        "ingest_summary": a / "ingest_summary.json",
        "grid": a / "xt_grid.json",
        "graphs": a / "graphs.ndjson",
        "checkpoint": a / f"model_{v}.ckpt",
        "train_log": a / f"train_log_{v}.csv",
        "metrics": a / f"metrics_{v}.csv",
        "outputs": a / f"outputs_{v}",
        "shares": a / "shares.csv",
        "totals": a / "player_totals.csv",
        "manifest": a / "manifest.json",
    }


def _load_manifest(cfg: RunConfig) -> dict:
    """The recorded manifest; a missing or unreadable one reads as empty."""
    path = artifact_paths(cfg)["manifest"]
    try:
        manifest = json.loads(path.read_text())
        if isinstance(manifest, dict) and isinstance(manifest.get("stages"), dict):
            return manifest
        raise ValueError("no stages table")
    except FileNotFoundError:
        pass
    except ValueError as exc:
        log.warning("%s is unreadable (%s); every stage runs again", path, exc)
    return {"config": None, "config_hash": None, "seed": None, "stages": {}}


def _save_manifest(cfg: RunConfig, manifest: dict) -> None:
    manifest["config"] = cfg.effective_dict()
    manifest["config_hash"] = cfg.config_hash()
    manifest["seed"] = cfg.seed
    _write_text(artifact_paths(cfg)["manifest"], json.dumps(manifest, sort_keys=True, indent=1))


def _write_atomic(path: Path, write: Callable[[Path], object]) -> Path:
    """``write`` a temporary sibling of ``path``, then move it into place, so
    a crash leaves the previous file or none, never a partial one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _write_text(path: Path, text: str) -> Path:
    return _write_atomic(path, lambda tmp: tmp.write_text(text))


# The stage that writes each artifact another stage reads.
_PRODUCER = {
    "actions": "ingest",
    "grid": "xt-fit",
    "graphs": "build-graphs",
    "checkpoint": "train",
    "outputs": "evaluate",
    "shares": "attribute",
    "totals": "attribute",
}

# What a reader raises on a truncated or garbled artifact.
_UNREADABLE = (ValueError, KeyError, TypeError, IndexError, EOFError, zipfile.BadZipFile)


def _read(cfg: RunConfig, name: str, reader: Callable[[Path], object]):
    """``reader`` applied to one artifact; an unreadable file is a one-line
    error naming the stage that writes it."""
    path = artifact_paths(cfg)[name]
    try:
        return reader(path)
    except _UNREADABLE as exc:
        detail = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        raise MissingArtifactError(
            f"unreadable {path} ({detail}); run {_PRODUCER[name]} again"
        ) from None


def _require_inputs(declared) -> list[Path]:
    """Paths of the declared ``(path, how to make it)`` inputs, all present."""
    for path, remedy in declared:
        if not Path(path).is_file():
            raise MissingArtifactError(f"missing {path}; {remedy}")
    return [Path(path) for path, _ in declared]


def _check_unchanged(manifest: dict, digests: dict[Path, str]) -> None:
    """Each input a recorded stage wrote must still hold what it wrote."""
    for stage, entry in manifest["stages"].items():
        for path, digest in entry.get("outputs", {}).items():
            if digests.get(Path(path), digest) != digest:
                raise MissingArtifactError(
                    f"{path} changed since {stage} wrote it; run {stage} again"
                )


def _stage_key(cfg_subset: dict, digests: dict[Path, str]) -> str:
    parts = [json.dumps(cfg_subset, sort_keys=True)]
    for p in sorted(digests):
        parts.append(f"{p}:{digests[p]}")
    return _sha_text("|".join(parts))


def _outputs_fresh(entry: dict | None, key: str) -> bool:
    if not entry or entry.get("key") != key:
        return False
    for path_str, digest in entry.get("outputs", {}).items():
        p = Path(path_str)
        if not p.exists() or _sha_file(p) != digest:
            return False
    return True


# ── stage implementations ─────────────────────────────────────────────────


def _stage_fetch(cfg: RunConfig, digests: dict[Path, str]) -> list[Path]:
    paths = ingest.fetch_open_data(
        cfg.fetch.competition_id, cfg.fetch.season_id, cfg.paths.cache_dir
    )
    out = _write_text(artifact_paths(cfg)["fetched"], json.dumps([str(p) for p in paths], indent=1))
    log.info("fetch: %d event files available", len(paths))
    return [out]


def _event_files(cfg: RunConfig) -> list[Path]:
    return sorted(cfg.paths.data_dir.glob("*.json"))


def _stage_ingest(cfg: RunConfig, digests: dict[Path, str]) -> list[Path]:
    ap = artifact_paths(cfg)
    files = _event_files(cfg)
    all_actions = []
    summaries = {}
    for path in files:
        result = ingest.parse_events(path)
        actions = ingest.to_spadl(result.events)
        all_actions.extend(actions)
        summaries[path.name] = asdict(result.summary)
    _write_atomic(ap["actions"], lambda tmp: ingest.write_actions(all_actions, tmp))
    _write_text(ap["ingest_summary"], json.dumps(summaries, sort_keys=True, indent=1))
    log.info("ingest: %d actions from %d matches", len(all_actions), len(files))
    return [ap["actions"], ap["ingest_summary"]]


def _stage_xt_fit(cfg: RunConfig, digests: dict[Path, str]) -> list[Path]:
    ap = artifact_paths(cfg)
    actions = _read(cfg, "actions", ingest.read_actions)
    grid = xt.fit_grid(actions, cfg.grid.n_x, cfg.grid.n_y, tol=cfg.grid.tol)
    _write_atomic(ap["grid"], grid.save)
    log.info(
        "xt-fit: %dx%d grid converged in %d iterations",
        cfg.grid.n_x,
        cfg.grid.n_y,
        grid.meta["iterations"],
    )
    return [ap["grid"]]


def _build_all_graphs(cfg: RunConfig, k: int) -> list:
    grid = _read(cfg, "grid", xt.XtGrid.load)
    features = ingest.normalize_per90(ingest.load_player_stats(cfg.paths.stats_csv))
    roles = None if cfg.paths.roles_csv is None else ingest.load_player_roles(cfg.paths.roles_csv)
    by_match = ingest.group_by_match(_read(cfg, "actions", ingest.read_actions))
    return [
        g
        for match_id in sorted(by_match)
        for g in graphs_mod.build_match_graphs(
            by_match[match_id], k, features, grid, roles=roles,
            centrality=cfg.append_centrality_features,
        )
    ]


def _stage_build_graphs(cfg: RunConfig, digests: dict[Path, str]) -> list[Path]:
    ap = artifact_paths(cfg)
    all_graphs = _build_all_graphs(cfg, cfg.resolved_k)
    _write_atomic(ap["graphs"], lambda tmp: graphs_mod.write_graphs(all_graphs, tmp))
    log.info("build-graphs: %d graphs at k=%d", len(all_graphs), cfg.resolved_k)
    return [ap["graphs"]]


def _split_from_config(cfg: RunConfig, all_graphs):
    t = cfg.training
    train_set, val_set = graphs_mod.split_dataset(all_graphs, t.split_frac, cfg.seed, unit=t.split_unit)
    if not train_set or not val_set:
        raise ConfigError(
            f"training.split_frac {t.split_frac} by training.split_unit {t.split_unit!r} "
            f"splits {len(all_graphs)} graphs into {len(train_set)} train and "
            f"{len(val_set)} val; both must be non-empty"
        )
    return train_set, val_set


def _split_scores(all_graphs, train_set, val_set, predictions) -> dict:
    """``predictions``, one per graph of ``all_graphs``, scored on each split."""
    row = {id(g): i for i, g in enumerate(all_graphs)}
    return {
        name: models.score(predictions[[row[id(g)] for g in subset]], [g.label for g in subset])
        for name, subset in (("train", train_set), ("val", val_set))
    }


def _train_mean(all_graphs, train_set) -> np.ndarray:
    """The reference predictor: the train split's mean label, for every graph."""
    return np.full(len(all_graphs), np.mean([g.label for g in train_set]))


def _stage_train(cfg: RunConfig, digests: dict[Path, str]) -> list[Path]:
    ap = artifact_paths(cfg)
    train_set, val_set = _split_from_config(cfg, _read(cfg, "graphs", graphs_mod.read_graphs))
    model_cfg = replace(cfg.model, seed=cfg.seed)
    result = models.train(model_cfg, train_set, val_set, cfg.training)
    _write_atomic(ap["checkpoint"], result.checkpoint.save)
    _write_text(ap["train_log"], models.train_log_csv(result.log))
    log.info(
        "train[%s]: %d epochs, best val MSE %s%s",
        cfg.model.variant,
        len(result.log),
        min((r.val_mse for r in result.log), default=float("nan")),
        " (early stop)" if result.stopped_early else "",
    )
    if result.aborted:
        raise NumericError("training diverged; last good checkpoint was saved")
    return [ap["checkpoint"], ap["train_log"]]


def _stage_evaluate(cfg: RunConfig, digests: dict[Path, str]) -> list[Path]:
    ap = artifact_paths(cfg)
    ckpt = _read(cfg, "checkpoint", models.Checkpoint.load)
    all_graphs = _read(cfg, "graphs", graphs_mod.read_graphs)
    train_set, val_set = _split_from_config(cfg, all_graphs)
    try:
        predictions, norms = models.evaluate(ckpt, all_graphs)
    except models.CheckpointMismatch as exc:
        raise MissingArtifactError(
            f"{ap['checkpoint']} does not fit the graphs; run train again ({exc})"
        ) from None
    scores = _split_scores(all_graphs, train_set, val_set, predictions)
    const = _split_scores(all_graphs, train_set, val_set, _train_mean(all_graphs, train_set))
    scores.update({f"{name}_const": m for name, m in const.items()})
    lines = ["split,mse,mae,combined"]
    for name, m in scores.items():
        lines.append(f"{name},{m['mse']!r},{m['mae']!r},{m['combined']!r}")
    _write_text(ap["metrics"], "\n".join(lines) + "\n")
    manifest = {"kind": "threatshare-outputs", "graphs_sha256": digests[ap["graphs"]]}
    arrays = {"predictions": predictions, "norms": norms}
    _write_atomic(ap["outputs"], lambda tmp: ckpt_io.save_container(tmp, manifest, arrays))
    log.info("evaluate[%s]: %s; %s", cfg.model.variant, lines[2], lines[4])
    return [ap["metrics"], ap["outputs"]]


def _load_outputs(path: Path) -> tuple[str, np.ndarray, np.ndarray]:
    """(digest of the graphs they were computed from, predictions, norms)
    that evaluate stored."""
    manifest, arrays = ckpt_io.load_container(path)
    if arrays.keys() != {"predictions", "norms"}:
        raise ValueError(f"holds {', '.join(sorted(arrays))}, not predictions and norms")
    return manifest["graphs_sha256"], arrays["predictions"], arrays["norms"]


def _player_teams(events) -> dict:
    """Each actor's team: the one it acted for most often, ties to the lower id."""
    counts: dict = {}
    for e in events:
        pid, team = e.meta["actor_id"], e.meta["actor_team"]
        counts.setdefault(pid, {}).setdefault(team, 0)
        counts[pid][team] += 1
    return {
        pid: max(teams.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        for pid, teams in counts.items()
    }


def _stage_attribute(cfg: RunConfig, digests: dict[Path, str]) -> list[Path]:
    ap = artifact_paths(cfg)
    graphs_digest, predictions, norms = _read(cfg, "outputs", _load_outputs)
    if graphs_digest != digests[ap["graphs"]]:
        raise MissingArtifactError(
            f"{ap['outputs']} was computed from other graphs; run evaluate again"
        )
    events = _read(cfg, "graphs", graphs_mod.read_events)
    n_nodes = sum(len(e.node_ids) for e in events)
    for name, values, n, unit in (
        ("predictions", predictions, len(events), "events"), ("norms", norms, n_nodes, "nodes")
    ):
        if values.shape != (n,):
            raise MissingArtifactError(
                f"unreadable {ap['outputs']} ({name}: {values.size} entries for {n} {unit}); "
                "run evaluate again"
            )
    stats_raw = ingest.load_player_stats(cfg.paths.stats_csv)
    ledger = credit.build_ledger(
        events,
        predictions,
        norms,
        source=cfg.attribution_source,
        stats=stats_raw,
        player_team=_player_teams(events),
        negative_mode=cfg.negative_share_mode,
    )

    share_lines = ["event_id,player_id,share,cross_team"]
    for (event_id, pid), share in sorted(ledger.shares.items()):
        cross = int(ledger.event_cross_team.get(event_id, False))
        share_lines.append(f"{event_id},{pid},{share!r},{cross}")
    _write_text(ap["shares"], "\n".join(share_lines) + "\n")

    total_lines = ["player_id,team_id,total,per90,matches,minutes"]
    for pid in sorted(ledger.player_total):
        total_lines.append(
            f"{pid},{ledger.player_team.get(pid, '')},{ledger.player_total[pid]!r},"
            f"{ledger.per90(pid)!r},{len(ledger.player_matches.get(pid, ()))},"
            f"{ledger.player_minutes.get(pid, 0.0)!r}"
        )
    _write_text(ap["totals"], "\n".join(total_lines) + "\n")
    log.info("attribute: %d share rows, %d players", len(ledger.shares), len(ledger.player_total))
    return [ap["shares"], ap["totals"]]


def _ranking_paths(cfg: RunConfig) -> dict:
    a = cfg.paths.artifacts_dir
    out = {}
    for mode in ("total", "per90"):
        for scope in ("overall", "by_team"):
            out[(mode, scope)] = a / f"rankings_{mode}_{scope}.csv"
    out["text"] = a / "rankings.txt"
    return out


def _render_rank_text(title: str, rows) -> list[str]:
    lines = [title, "-" * len(title), f"{'#':>3}  {'player':>8}  {'team':>6}  metric"]
    for r in rows:
        lines.append(f"{r.rank:>3}  {r.player_id:>8}  {str(r.team_id):>6}  {r.metric:+.4f}")
    lines.append("")
    return lines


def _load_totals_ledger(path: Path) -> credit.CreditLedger:
    ledger = credit.CreditLedger()
    for line in path.read_text().splitlines()[1:]:
        pid_s, team_s, total_s, _per90, _matches, minutes_s = line.split(",")
        pid = int(pid_s)
        ledger.player_total[pid] = float(total_s)
        ledger.player_team[pid] = int(team_s) if team_s else None
        ledger.player_minutes[pid] = float(minutes_s)
    return ledger


def _stage_rank(cfg: RunConfig, digests: dict[Path, str]) -> list[Path]:
    ledger = _read(cfg, "totals", _load_totals_ledger)

    rank_paths = _ranking_paths(cfg)
    written = []
    text_blocks: list[str] = []
    for mode in ("total", "per90"):
        for scope in ("overall", "by_team"):
            rows = credit.rank(ledger, mode=mode, scope=scope)
            lines = ["rank,player_id,team_id,metric"]
            for r in rows:
                lines.append(f"{r.rank},{r.player_id},{r.team_id},{r.metric!r}")
            written.append(_write_text(rank_paths[(mode, scope)], "\n".join(lines) + "\n"))
            if mode == "total":
                text_blocks.extend(_render_rank_text(f"{mode} credit, {scope}", rows[:20]))
    written.append(_write_text(rank_paths["text"], "\n".join(text_blocks)))
    log.info("rank: wrote %d tables", len(written) - 1)
    return written


# ── the stage table ───────────────────────────────────────────────────────


@dataclass(frozen=True)
class Stage:
    """A pipeline stage: its runner, its declared ``(path, how to make it)``
    inputs, and the part of the effective config its manifest key covers.
    The runner receives the config and the digest of every declared input,
    taken once by ``run_stage``."""

    run: Callable[[RunConfig, dict[Path, str]], list[Path]]
    inputs: Callable[[RunConfig], list[tuple[Path, str]]]
    config: Callable[[dict], dict]


def _pick(*keys):
    return lambda full: {k: full[k] for k in keys}


def _model_key(full: dict) -> dict:
    """The config train and evaluate depend on, and the checkpoint layout."""
    return {**_pick("model", "training", "seed")(full), "params_layout": models.PARAMS_LAYOUT}


def _inputs(*artifacts, files=()):
    """Inputs function: the named artifacts, then the files named by
    ``paths`` keys (a null path declares nothing)."""

    def declared(cfg: RunConfig) -> list[tuple[Path, str]]:
        ap = artifact_paths(cfg)
        out = [(ap[name], f"run {_PRODUCER[name]} first") for name in artifacts]
        for key in files:
            if getattr(cfg.paths, key) is not None:
                out.append((getattr(cfg.paths, key), f"check paths.{key}"))
        return out

    return declared


def _ingest_inputs(cfg: RunConfig) -> list[tuple[Path, str]]:
    remedy = "run fetch first or point paths.data_dir at a directory of event JSON files"
    files = _event_files(cfg) or [cfg.paths.data_dir / "*.json"]
    return [(p, remedy) for p in files]


# In pipeline order; each stage's manifest key digests its config subset and inputs.
STAGES = {
    "fetch": Stage(
        _stage_fetch,
        _inputs(),
        lambda full: {"fetch": full["fetch"], "paths": full["paths"]["cache_dir"]},
    ),
    "ingest": Stage(
        _stage_ingest, _ingest_inputs, lambda full: {"data_dir": full["paths"]["data_dir"]}
    ),
    "xt-fit": Stage(_stage_xt_fit, _inputs("actions"), _pick("grid")),
    "build-graphs": Stage(
        _stage_build_graphs,
        _inputs("actions", "grid", files=("stats_csv", "roles_csv")),
        lambda full: {
            **_pick("window_k", "append_centrality_features")(full),
            "graphs_layout": GRAPHS_LAYOUT,
        },
    ),
    "train": Stage(_stage_train, _inputs("graphs"), _model_key),
    "evaluate": Stage(
        _stage_evaluate,
        _inputs("graphs", "checkpoint"),
        lambda full: {**_model_key(full), "outputs_layout": OUTPUTS_LAYOUT},
    ),
    "attribute": Stage(
        _stage_attribute,
        _inputs("graphs", "outputs", files=("stats_csv",)),
        _pick("attribution_source", "negative_share_mode"),
    ),
    "rank": Stage(_stage_rank, _inputs("totals"), _pick()),
}


def run_stage(cfg: RunConfig, stage: str, *, manifest: dict | None = None) -> bool:
    """Run one stage unless its recorded inputs and config are unchanged.

    Returns True when work happened, False on a fresh-skip.
    """
    own_manifest = manifest is None
    if own_manifest:
        manifest = _load_manifest(cfg)
    spec = STAGES[stage]
    digests = {p: _sha_file(p) for p in _require_inputs(spec.inputs(cfg))}
    _check_unchanged(manifest, digests)
    key = _stage_key({"stage": stage, "config": spec.config(cfg.effective_dict())}, digests)
    entry = manifest["stages"].get(stage)
    if _outputs_fresh(entry, key):
        log.info("%s: up to date, skipping", stage)
        return False

    outputs = spec.run(cfg, digests)
    manifest["stages"][stage] = {
        "key": key,
        "outputs": {str(p): _sha_file(p) for p in outputs},
    }
    if own_manifest:
        _save_manifest(cfg, manifest)
    return True


def run_pipeline(cfg: RunConfig, stages) -> dict:
    """Run the requested pipeline stages in canonical order."""
    stages = list(stages)
    unknown = [s for s in stages if s not in STAGES]
    if unknown:
        raise ConfigError(f"unknown stage(s): {', '.join(unknown)}")
    manifest = _load_manifest(cfg)
    ran = {}
    for stage in STAGES:
        if stage in stages:
            ran[stage] = run_stage(cfg, stage, manifest=manifest)
    _save_manifest(cfg, manifest)
    return ran


# ── ablation over the temporal window ─────────────────────────────────────


def ablate(cfg: RunConfig, k_values=DEFAULT_ABLATION_K) -> dict:
    """Train every (variant, k) cell with a shared seed and emit the three
    loss tables (rows = models, columns = k, train/val blocks). Each table
    ends with a ``train_mean`` row: the train split's mean label as a
    constant prediction, the baseline a model has to beat.

    A failing cell is recorded as ``failed`` and the sweep continues.
    """
    k_values = list(k_values)
    if not k_values:
        raise ConfigError("ablate: k_values must be non-empty")
    _require_inputs(STAGES["build-graphs"].inputs(cfg))

    cells: dict = {}
    baseline: dict = {}
    for k in k_values:
        all_graphs = _build_all_graphs(cfg, k)
        train_set, val_set = _split_from_config(cfg, all_graphs)
        baseline[("train_mean", k)] = _split_scores(
            all_graphs, train_set, val_set, _train_mean(all_graphs, train_set)
        )
        for variant in models.VARIANTS:
            model_cfg = replace(cfg.model, variant=variant, seed=cfg.seed)
            try:
                result = models.train(model_cfg, train_set, val_set, cfg.training)
                predictions, _ = models.evaluate(result.checkpoint, all_graphs)
                cells[(variant, k)] = _split_scores(all_graphs, train_set, val_set, predictions)
            except (NumericError, ValueError) as exc:
                log.error("ablate cell (%s, k=%d) failed: %s", variant, k, exc)
                cells[(variant, k)] = None
            log.info("ablate: finished %s k=%d", variant, k)

    rows = {**cells, **baseline}
    written = []
    for metric in ("mae", "mse", "combined"):
        header = ["model"]
        header += [f"train_k{k}" for k in k_values]
        header += [f"val_k{k}" for k in k_values]
        lines = [",".join(header)]
        for name in (*models.VARIANTS, "train_mean"):
            row = [name]
            for block in ("train", "val"):
                for k in k_values:
                    cell = rows[(name, k)]
                    row.append("failed" if cell is None else repr(cell[block][metric]))
            lines.append(",".join(row))
        path = cfg.paths.artifacts_dir / f"ablation_{metric}.csv"
        written.append(_write_text(path, "\n".join(lines) + "\n"))

    manifest = _load_manifest(cfg)
    manifest["stages"]["ablate"] = {
        "key": _sha_text(json.dumps({"k_values": k_values, "config": cfg.config_hash()})),
        "outputs": {str(p): _sha_file(p) for p in written},
    }
    _save_manifest(cfg, manifest)
    return cells


# ── case plots ────────────────────────────────────────────────────────────


def load_shares_ledger(path) -> credit.CreditLedger:
    ledger = credit.CreditLedger()
    for line in Path(path).read_text().splitlines()[1:]:
        event_id, pid_s, share_s, cross_s = line.rsplit(",", 3)
        ledger.shares[(event_id, int(pid_s))] = float(share_s)
        ledger.event_cross_team[event_id] = bool(int(cross_s))
    return ledger


def plot_case(cfg: RunConfig, match_id: int, start: int, end: int, out=None) -> Path:
    """Render the attributed deltas of one in-match action range to SVG."""
    ap = artifact_paths(cfg)
    _require_inputs(_inputs("actions", "shares")(cfg))
    ledger = _read(cfg, "shares", load_shares_ledger)
    stream = ingest.group_by_match(_read(cfg, "actions", ingest.read_actions)).get(match_id)
    if stream is None:
        raise MissingArtifactError(f"match {match_id} not present in {ap['actions']}")
    if not 0 <= start <= end < len(stream):
        raise ConfigError(
            f"action range [{start}, {end}] outside match stream of {len(stream)}"
        )
    rows = credit.case_report(stream[start : end + 1], start, ledger)
    out = Path(out) if out else cfg.paths.artifacts_dir / f"case_{match_id}_{start}_{end}.svg"
    return _write_atomic(out, lambda tmp: viz.plot_case(rows, tmp))


# ── command line ──────────────────────────────────────────────────────────


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threatshare",
        description="Event-graph player valuation pipeline",
    )
    parser.add_argument("--config", type=Path, default=None, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--stage-dir", type=Path, default=None, help="override the artifacts directory"
    )
    parser.add_argument("--quiet", action="store_true", help="warnings only")
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES:
        sub.add_parser(stage, help=f"run the {stage} stage")
    ab = sub.add_parser("ablate", help="sweep the temporal window size")
    ab.add_argument(
        "--k-values",
        type=_int_list,
        default=",".join(str(k) for k in DEFAULT_ABLATION_K),
        help="comma-separated window sizes",
    )
    pc = sub.add_parser("plot-case", help="render one action sequence to SVG")
    pc.add_argument("--match", type=int, required=True)
    pc.add_argument("--start", type=int, required=True)
    pc.add_argument("--end", type=int, required=True)
    pc.add_argument("--out", type=Path, default=None)
    rk = sub.choices["rank"]
    rk.add_argument("--mode", choices=("total", "per90"), default="total")
    rk.add_argument("--scope", choices=("overall", "by_team"), default="overall")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config, seed=args.seed, stage_dir=args.stage_dir)
        if args.command in STAGES:
            run_pipeline(cfg, [args.command])
            if args.command == "rank" and not args.quiet:
                path = _ranking_paths(cfg)[(args.mode, args.scope)]
                sys.stdout.write(path.read_text())
        elif args.command == "ablate":
            ablate(cfg, args.k_values)
        elif args.command == "plot-case":
            plot_case(cfg, args.match, args.start, args.end, args.out)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except (MissingArtifactError, ingest.SchemaError) as exc:
        log.error("%s", exc)
        return EXIT_MISSING
    except ingest.FetchError as exc:
        log.error("fetch failed: %s", exc)
        return EXIT_MISSING
    except (NumericError, xt.XtFitError) as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
