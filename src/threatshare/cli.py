"""Pipeline driver: one JSON config, one subcommand per stage.

    fetch -> ingest -> xt-fit -> build-graphs -> train -> evaluate
          -> attribute -> rank        (plus: ablate, plot-case)

Every stage writes its artifacts under the configured artifacts directory
and records input digests in ``manifest.json``; re-running a stage whose
inputs and config are unchanged is a no-op. Exit codes: 0 success,
2 config error, 3 missing upstream artifact (or failed fetch), 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from threatshare import credit, graphs as graphs_mod, ingest, models, viz, xt
from threatshare.diffcore import NumericError

log = logging.getLogger("threatshare")

PIPELINE_STAGES = (
    "fetch",
    "ingest",
    "xt-fit",
    "build-graphs",
    "train",
    "evaluate",
    "attribute",
    "rank",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4

DEFAULT_K = {"gcn": 7, "gat": 7, "transformer": 5}
DEFAULT_ABLATION_K = (1, 3, 5, 7, 9)


class ConfigError(ValueError):
    """The run configuration is malformed or out of range."""


class MissingArtifactError(FileNotFoundError):
    """A stage input is absent; the message names the stage to run first."""


# ── configuration ─────────────────────────────────────────────────────────

_CONFIG_SHAPE = {
    "paths": {"cache_dir", "data_dir", "artifacts_dir", "stats_csv", "roles_csv"},
    "grid": {"n_x", "n_y", "tol"},
    "window_k": None,
    "model": {
        "variant",
        "hidden_dim",
        "n_layers",
        "n_heads",
        "ffn_dim",
        "edge_mlp_dims",
        "head_hidden_dim",
        "role_embedding_dim",
    },
    "training": {
        "lr",
        "weight_decay",
        "epochs",
        "batch_size",
        "split_frac",
        "patience",
        "lr_step",
        "lr_gamma",
        "split_unit",
    },
    "seed": None,
    "attribution_source": None,
    "negative_share_mode": None,
    "append_centrality_features": None,
    "fetch": {"competition_id", "season_id"},
}


@dataclass
class RunConfig:
    cache_dir: Path = Path("cache")
    data_dir: Path = Path("data/fixture")
    artifacts_dir: Path = Path("artifacts")
    stats_csv: Path = Path("data/fixture/player_stats.csv")
    roles_csv: Path | None = Path("data/fixture/player_roles.csv")
    n_x: int = 16
    n_y: int = 12
    tol: float = 1e-8
    window_k: int | None = None
    model: models.ModelConfig = field(default_factory=models.ModelConfig)
    training: models.TrainingConfig = field(default_factory=models.TrainingConfig)
    split_unit: str = "graph"
    seed: int = 7
    attribution_source: str = "predicted"
    negative_share_mode: str = "prorata"
    append_centrality_features: bool = False
    competition_id: int = 2
    season_id: int = 27

    @property
    def resolved_k(self) -> int:
        if self.window_k is not None:
            return self.window_k
        return DEFAULT_K[self.model.variant]

    def effective_dict(self) -> dict:
        """Full configuration with every default resolved (round-trips)."""
        return {
            "paths": {
                "cache_dir": str(self.cache_dir),
                "data_dir": str(self.data_dir),
                "artifacts_dir": str(self.artifacts_dir),
                "stats_csv": str(self.stats_csv),
                "roles_csv": None if self.roles_csv is None else str(self.roles_csv),
            },
            "grid": {"n_x": self.n_x, "n_y": self.n_y, "tol": self.tol},
            "window_k": self.resolved_k,
            "model": {
                "variant": self.model.variant,
                "hidden_dim": self.model.hidden_dim,
                "n_layers": self.model.n_layers,
                "n_heads": self.model.n_heads,
                "ffn_dim": self.model.ffn_dim,
                "edge_mlp_dims": list(self.model.edge_mlp_dims),
                "head_hidden_dim": self.model.head_hidden_dim,
                "role_embedding_dim": self.model.role_embedding_dim,
            },
            "training": {
                "lr": self.training.lr,
                "weight_decay": self.training.weight_decay,
                "epochs": self.training.epochs,
                "batch_size": self.training.batch_size,
                "split_frac": self.training.split_frac,
                "patience": self.training.patience,
                "lr_step": self.training.lr_step,
                "lr_gamma": self.training.lr_gamma,
                "split_unit": self.split_unit,
            },
            "seed": self.seed,
            "attribution_source": self.attribution_source,
            "negative_share_mode": self.negative_share_mode,
            "append_centrality_features": self.append_centrality_features,
            "fetch": {"competition_id": self.competition_id, "season_id": self.season_id},
        }

    def config_hash(self) -> str:
        return _sha_text(json.dumps(self.effective_dict(), sort_keys=True))


def _reject_unknown(data: dict, shape: dict, where: str = "config") -> None:
    for key in data:
        if key not in shape:
            raise ConfigError(f"{where}: unknown key {key!r}")
        sub = shape[key]
        if isinstance(sub, set):
            if not isinstance(data[key], dict):
                raise ConfigError(f"{where}.{key}: expected an object")
            for inner in data[key]:
                if inner not in sub:
                    raise ConfigError(f"{where}.{key}: unknown key {inner!r}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def parse_config(data: dict) -> RunConfig:
    """Validate a raw config dict (every field range-checked) into RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(data, _CONFIG_SHAPE)
    cfg = RunConfig()

    paths = data.get("paths", {})
    if "cache_dir" in paths:
        cfg.cache_dir = Path(paths["cache_dir"])
    if "data_dir" in paths:
        cfg.data_dir = Path(paths["data_dir"])
    if "artifacts_dir" in paths:
        cfg.artifacts_dir = Path(paths["artifacts_dir"])
    if "stats_csv" in paths:
        cfg.stats_csv = Path(paths["stats_csv"])
    if "roles_csv" in paths:
        cfg.roles_csv = None if paths["roles_csv"] is None else Path(paths["roles_csv"])

    grid = data.get("grid", {})
    cfg.n_x = int(grid.get("n_x", cfg.n_x))
    cfg.n_y = int(grid.get("n_y", cfg.n_y))
    cfg.tol = float(grid.get("tol", cfg.tol))
    _require(1 <= cfg.n_x <= 200 and 1 <= cfg.n_y <= 200, "grid: n_x, n_y must be in [1, 200]")
    _require(0.0 < cfg.tol < 1.0, "grid.tol must be in (0, 1)")

    if "window_k" in data and data["window_k"] is not None:
        cfg.window_k = int(data["window_k"])
        _require(0 <= cfg.window_k <= 50, "window_k must be in [0, 50]")

    m = data.get("model", {})
    try:
        cfg.model = models.ModelConfig(
            variant=m.get("variant", "gcn"),
            hidden_dim=int(m.get("hidden_dim", 64)),
            n_layers=int(m.get("n_layers", 2)),
            n_heads=int(m.get("n_heads", 4)),
            ffn_dim=int(m.get("ffn_dim", 128)),
            edge_mlp_dims=tuple(m.get("edge_mlp_dims", (10, 32, 16))),
            head_hidden_dim=int(m.get("head_hidden_dim", 32)),
            role_embedding_dim=int(m.get("role_embedding_dim", 8)),
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    _require(cfg.model.hidden_dim >= 1, "model.hidden_dim must be >= 1")
    _require(cfg.model.n_layers >= 1, "model.n_layers must be >= 1")
    _require(len(cfg.model.edge_mlp_dims) == 3, "model.edge_mlp_dims must have 3 entries")

    t = data.get("training", {})
    cfg.training = models.TrainingConfig(
        lr=float(t.get("lr", 1e-4)),
        weight_decay=float(t.get("weight_decay", 1e-4)),
        epochs=int(t.get("epochs", 25)),
        batch_size=int(t.get("batch_size", 64)),
        split_frac=float(t.get("split_frac", 0.8)),
        patience=int(t.get("patience", 5)),
        lr_step=int(t.get("lr_step", 10)),
        lr_gamma=float(t.get("lr_gamma", 0.5)),
    )
    cfg.split_unit = t.get("split_unit", "graph")
    _require(cfg.training.lr > 0, "training.lr must be > 0")
    _require(cfg.training.weight_decay >= 0, "training.weight_decay must be >= 0")
    _require(1 <= cfg.training.epochs <= 1000, "training.epochs must be in [1, 1000]")
    _require(cfg.training.batch_size >= 1, "training.batch_size must be >= 1")
    _require(0.0 < cfg.training.split_frac < 1.0, "training.split_frac must be in (0, 1)")
    _require(cfg.training.patience >= 1, "training.patience must be >= 1")
    _require(cfg.training.lr_step >= 1, "training.lr_step must be >= 1")
    _require(0.0 < cfg.training.lr_gamma <= 1.0, "training.lr_gamma must be in (0, 1]")
    _require(cfg.split_unit in ("graph", "match"), "training.split_unit must be graph|match")

    if "seed" in data:
        cfg.seed = int(data["seed"])
        _require(cfg.seed >= 0, "seed must be >= 0")
    cfg.attribution_source = data.get("attribution_source", cfg.attribution_source)
    _require(
        cfg.attribution_source in ("predicted", "labeled"),
        "attribution_source must be predicted|labeled",
    )
    cfg.negative_share_mode = data.get("negative_share_mode", cfg.negative_share_mode)
    _require(
        cfg.negative_share_mode in credit.NEGATIVE_SHARE_MODES,
        "negative_share_mode must be prorata|actor",
    )
    if "append_centrality_features" in data:
        cfg.append_centrality_features = bool(data["append_centrality_features"])

    f = data.get("fetch", {})
    cfg.competition_id = int(f.get("competition_id", cfg.competition_id))
    cfg.season_id = int(f.get("season_id", cfg.season_id))
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
    cfg = parse_config(data)
    if seed is not None:
        cfg.seed = int(seed)
    if stage_dir is not None:
        cfg.artifacts_dir = Path(stage_dir)
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
    a = cfg.artifacts_dir
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
        "shares": a / "shares.csv",
        "totals": a / "player_totals.csv",
        "manifest": a / "manifest.json",
    }


def _load_manifest(cfg: RunConfig) -> dict:
    path = artifact_paths(cfg)["manifest"]
    if path.exists():
        return json.loads(path.read_text())
    return {"config": None, "config_hash": None, "seed": None, "stages": {}}


def _save_manifest(cfg: RunConfig, manifest: dict) -> None:
    manifest["config"] = cfg.effective_dict()
    manifest["config_hash"] = cfg.config_hash()
    manifest["seed"] = cfg.seed
    path = artifact_paths(cfg)["manifest"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1))


def _require_input(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(f"missing {path}; run {producer} first")
    return path


def _stage_key(cfg_subset: dict, input_paths: list[Path]) -> str:
    parts = [json.dumps(cfg_subset, sort_keys=True)]
    for p in sorted(input_paths):
        parts.append(f"{p}:{_sha_file(p)}")
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


def _stage_fetch(cfg: RunConfig) -> list[Path]:
    paths = ingest.fetch_open_data(cfg.competition_id, cfg.season_id, cfg.cache_dir)
    out = artifact_paths(cfg)["fetched"]
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps([str(p) for p in paths], indent=1))
    log.info("fetch: %d event files available", len(paths))
    return [out]


def _event_files(cfg: RunConfig) -> list[Path]:
    return sorted(cfg.data_dir.glob("*.json"))


def _stage_ingest(cfg: RunConfig) -> list[Path]:
    files = _event_files(cfg)
    if not files:
        raise MissingArtifactError(
            f"no event files in {cfg.data_dir}; run fetch first or point "
            "paths.data_dir at a directory of event JSON files"
        )
    ap = artifact_paths(cfg)
    all_actions = []
    summaries = {}
    for path in files:
        result = ingest.parse_events(path)
        actions = ingest.to_spadl(result.events)
        all_actions.extend(actions)
        summaries[path.name] = asdict(result.summary)
    ingest.write_actions(all_actions, ap["actions"])
    ap["ingest_summary"].write_text(json.dumps(summaries, sort_keys=True, indent=1))
    log.info("ingest: %d actions from %d matches", len(all_actions), len(files))
    return [ap["actions"], ap["ingest_summary"]]


def _stage_xt_fit(cfg: RunConfig) -> list[Path]:
    ap = artifact_paths(cfg)
    actions = ingest.read_actions(_require_input(ap["actions"], "ingest"))
    grid = xt.fit_grid(actions, cfg.n_x, cfg.n_y, tol=cfg.tol)
    grid.save(ap["grid"])
    log.info(
        "xt-fit: %dx%d grid converged in %d iterations",
        cfg.n_x,
        cfg.n_y,
        grid.meta["iterations"],
    )
    return [ap["grid"]]


def _build_all_graphs(cfg: RunConfig, k: int):
    ap = artifact_paths(cfg)
    actions = ingest.read_actions(_require_input(ap["actions"], "ingest"))
    grid = xt.XtGrid.load(_require_input(ap["grid"], "xt-fit"))
    stats_raw = ingest.load_player_stats(_require_input(cfg.stats_csv, "nothing (provide paths.stats_csv)"))
    features = ingest.normalize_per90(stats_raw)
    roles = ingest.load_player_roles(cfg.roles_csv) if cfg.roles_csv else None

    by_match = ingest.group_by_match(actions)
    out = []
    for match_id in sorted(by_match):
        stream = by_match[match_id]
        extra = None
        if cfg.append_centrality_features:
            pg = credit.build_passing_graph(stream, graphs_mod.infer_recipients(stream))
            report = credit.centralities(pg)
            extra = credit.normalized_centrality_features(report, len(pg.nodes))
        out.extend(
            graphs_mod.build_match_graphs(
                stream, k, features, grid, roles=roles, extra_node_features=extra
            )
        )
    return out, stats_raw


def _stage_build_graphs(cfg: RunConfig) -> list[Path]:
    ap = artifact_paths(cfg)
    all_graphs, _ = _build_all_graphs(cfg, cfg.resolved_k)
    graphs_mod.write_graphs(all_graphs, ap["graphs"])
    log.info("build-graphs: %d graphs at k=%d", len(all_graphs), cfg.resolved_k)
    return [ap["graphs"]]


def _split_from_config(cfg: RunConfig, all_graphs):
    return graphs_mod.split_dataset(
        all_graphs, cfg.training.split_frac, cfg.seed, unit=cfg.split_unit
    )


def _stage_train(cfg: RunConfig) -> list[Path]:
    ap = artifact_paths(cfg)
    all_graphs = graphs_mod.read_graphs(_require_input(ap["graphs"], "build-graphs"))
    train_set, val_set = _split_from_config(cfg, all_graphs)
    model_cfg = replace(cfg.model, seed=cfg.seed)
    result = models.train(model_cfg, train_set, val_set, cfg.training)
    result.checkpoint.save(ap["checkpoint"])
    models.write_train_log(result.log, ap["train_log"])
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


def _stage_evaluate(cfg: RunConfig) -> list[Path]:
    ap = artifact_paths(cfg)
    ckpt = models.Checkpoint.load(_require_input(ap["checkpoint"], "train"))
    all_graphs = graphs_mod.read_graphs(_require_input(ap["graphs"], "build-graphs"))
    train_set, val_set = _split_from_config(cfg, all_graphs)
    lines = ["split,mse,mae,combined"]
    for name, subset in (("train", train_set), ("val", val_set)):
        m = models.evaluate(ckpt, subset)
        lines.append(f"{name},{m['mse']!r},{m['mae']!r},{m['combined']!r}")
    ap["metrics"].write_text("\n".join(lines) + "\n")
    log.info("evaluate[%s]: %s", cfg.model.variant, lines[-1])
    return [ap["metrics"]]


def _player_teams(actions) -> dict:
    counts: dict = {}
    for a in actions:
        counts.setdefault(a.player_id, {}).setdefault(a.team_id, 0)
        counts[a.player_id][a.team_id] += 1
    return {
        pid: max(teams.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        for pid, teams in counts.items()
    }


def _stage_attribute(cfg: RunConfig) -> list[Path]:
    ap = artifact_paths(cfg)
    ckpt = models.Checkpoint.load(_require_input(ap["checkpoint"], "train"))
    all_graphs = graphs_mod.read_graphs(_require_input(ap["graphs"], "build-graphs"))
    actions = ingest.read_actions(_require_input(ap["actions"], "ingest"))
    stats_raw = ingest.load_player_stats(cfg.stats_csv)
    params, model_cfg = ckpt.build()
    outputs = [models.forward(g, params, model_cfg) for g in all_graphs]
    ledger = credit.build_ledger(
        all_graphs,
        outputs,
        source=cfg.attribution_source,
        stats=stats_raw,
        player_team=_player_teams(actions),
        negative_mode=cfg.negative_share_mode,
    )

    share_lines = ["event_id,player_id,share,cross_team"]
    for (event_id, pid), share in sorted(ledger.shares.items()):
        cross = int(ledger.event_cross_team.get(event_id, False))
        share_lines.append(f"{event_id},{pid},{share!r},{cross}")
    ap["shares"].write_text("\n".join(share_lines) + "\n")

    total_lines = ["player_id,team_id,total,per90,matches,minutes"]
    for pid in sorted(ledger.player_total):
        total_lines.append(
            f"{pid},{ledger.player_team.get(pid, '')},{ledger.player_total[pid]!r},"
            f"{ledger.per90(pid)!r},{len(ledger.player_matches.get(pid, ()))},"
            f"{ledger.player_minutes.get(pid, 0.0)!r}"
        )
    ap["totals"].write_text("\n".join(total_lines) + "\n")
    log.info("attribute: %d share rows, %d players", len(ledger.shares), len(ledger.player_total))
    return [ap["shares"], ap["totals"]]


def _ranking_paths(cfg: RunConfig) -> dict:
    a = cfg.artifacts_dir
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


def _stage_rank(cfg: RunConfig) -> list[Path]:
    ap = artifact_paths(cfg)
    totals_path = _require_input(ap["totals"], "attribute")
    ledger = credit.CreditLedger()
    for line in totals_path.read_text().splitlines()[1:]:
        pid_s, team_s, total_s, _per90, _matches, minutes_s = line.split(",")
        pid = int(pid_s)
        ledger.player_total[pid] = float(total_s)
        ledger.player_team[pid] = int(team_s) if team_s else None
        ledger.player_minutes[pid] = float(minutes_s)

    rank_paths = _ranking_paths(cfg)
    written = []
    text_blocks: list[str] = []
    for mode in ("total", "per90"):
        for scope in ("overall", "by_team"):
            rows = credit.rank(ledger, mode=mode, scope=scope)
            lines = ["rank,player_id,team_id,metric"]
            for r in rows:
                lines.append(f"{r.rank},{r.player_id},{r.team_id},{r.metric!r}")
            path = rank_paths[(mode, scope)]
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
            if mode == "total":
                text_blocks.extend(_render_rank_text(f"{mode} credit, {scope}", rows[:20]))
    rank_paths["text"].write_text("\n".join(text_blocks))
    written.append(rank_paths["text"])
    log.info("rank: wrote %d tables", len(written) - 1)
    return written


_STAGE_RUNNERS = {
    "fetch": _stage_fetch,
    "ingest": _stage_ingest,
    "xt-fit": _stage_xt_fit,
    "build-graphs": _stage_build_graphs,
    "train": _stage_train,
    "evaluate": _stage_evaluate,
    "attribute": _stage_attribute,
    "rank": _stage_rank,
}


def _stage_inputs(cfg: RunConfig, stage: str) -> list[Path]:
    ap = artifact_paths(cfg)
    if stage == "fetch":
        return []
    if stage == "ingest":
        return _event_files(cfg)
    if stage == "xt-fit":
        return [ap["actions"]]
    if stage == "build-graphs":
        extra = [cfg.roles_csv] if cfg.roles_csv and Path(cfg.roles_csv).exists() else []
        return [ap["actions"], ap["grid"], cfg.stats_csv] + extra
    if stage == "train":
        return [ap["graphs"]]
    if stage == "evaluate":
        return [ap["graphs"], ap["checkpoint"]]
    if stage == "attribute":
        return [ap["graphs"], ap["checkpoint"], ap["actions"], cfg.stats_csv]
    if stage == "rank":
        return [ap["totals"]]
    raise ValueError(f"unknown stage {stage!r}")


def _stage_config_subset(cfg: RunConfig, stage: str) -> dict:
    full = cfg.effective_dict()
    subsets = {
        "fetch": {"fetch": full["fetch"], "paths": full["paths"]["cache_dir"]},
        "ingest": {"data_dir": full["paths"]["data_dir"]},
        "xt-fit": {"grid": full["grid"]},
        "build-graphs": {
            "window_k": full["window_k"],
            "append_centrality_features": full["append_centrality_features"],
        },
        "train": {
            "model": full["model"],
            "training": full["training"],
            "seed": full["seed"],
        },
        "evaluate": {
            "model": full["model"],
            "training": full["training"],
            "seed": full["seed"],
        },
        "attribute": {
            "attribution_source": full["attribution_source"],
            "negative_share_mode": full["negative_share_mode"],
        },
        "rank": {},
    }
    return {"stage": stage, "config": subsets[stage]}


_INPUT_PRODUCERS = {
    "actions.ndjson": "ingest",
    "xt_grid.json": "xt-fit",
    "graphs.ndjson": "build-graphs",
    "shares.csv": "attribute",
    "player_totals.csv": "attribute",
}


def run_stage(cfg: RunConfig, stage: str, *, manifest: dict | None = None) -> bool:
    """Run one stage unless its recorded inputs and config are unchanged.

    Returns True when work happened, False on a fresh-skip.
    """
    own_manifest = manifest is None
    if own_manifest:
        manifest = _load_manifest(cfg)

    inputs = []
    for p in _stage_inputs(cfg, stage):
        p = Path(p)
        if not p.exists():
            producer = _INPUT_PRODUCERS.get(p.name, "the upstream stage")
            raise MissingArtifactError(f"missing {p}; run {producer} first")
        inputs.append(p)
    if stage == "ingest" and not inputs:
        raise MissingArtifactError(
            f"no event files in {cfg.data_dir}; run fetch first or point "
            "paths.data_dir at a directory of event JSON files"
        )

    key = _stage_key(_stage_config_subset(cfg, stage), inputs)
    entry = manifest["stages"].get(stage)
    if _outputs_fresh(entry, key):
        log.info("%s: up to date, skipping", stage)
        return False

    outputs = _STAGE_RUNNERS[stage](cfg)
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
    unknown = [s for s in stages if s not in PIPELINE_STAGES]
    if unknown:
        raise ConfigError(f"unknown stage(s): {', '.join(unknown)}")
    ordered = [s for s in PIPELINE_STAGES if s in stages]
    manifest = _load_manifest(cfg)
    ran = {}
    for stage in ordered:
        ran[stage] = run_stage(cfg, stage, manifest=manifest)
    _save_manifest(cfg, manifest)
    return ran


# ── ablation over the temporal window ─────────────────────────────────────


def ablate(cfg: RunConfig, k_values=DEFAULT_ABLATION_K) -> dict:
    """Train every (variant, k) cell with a shared seed and emit the three
    loss tables (rows = models, columns = k, train/val blocks).

    A failing cell is recorded as ``failed`` and the sweep continues.
    """
    k_values = list(k_values)
    if not k_values:
        raise ConfigError("ablate: k_values must be non-empty")
    ap = artifact_paths(cfg)
    _require_input(ap["actions"], "ingest")
    _require_input(ap["grid"], "xt-fit")

    cells: dict = {}
    for k in k_values:
        all_graphs, _ = _build_all_graphs(cfg, k)
        train_set, val_set = _split_from_config(cfg, all_graphs)
        for variant in models.VARIANTS:
            model_cfg = replace(cfg.model, variant=variant, seed=cfg.seed)
            try:
                result = models.train(model_cfg, train_set, val_set, cfg.training)
                cells[(variant, k)] = {
                    "train": models.evaluate(result.checkpoint, train_set),
                    "val": models.evaluate(result.checkpoint, val_set),
                }
            except (NumericError, ValueError) as exc:
                log.error("ablate cell (%s, k=%d) failed: %s", variant, k, exc)
                cells[(variant, k)] = None
            log.info("ablate: finished %s k=%d", variant, k)

    written = []
    for metric in ("mae", "mse", "combined"):
        header = ["model"]
        header += [f"train_k{k}" for k in k_values]
        header += [f"val_k{k}" for k in k_values]
        lines = [",".join(header)]
        for variant in models.VARIANTS:
            row = [variant]
            for block in ("train", "val"):
                for k in k_values:
                    cell = cells[(variant, k)]
                    row.append("failed" if cell is None else repr(cell[block][metric]))
            lines.append(",".join(row))
        path = cfg.artifacts_dir / f"ablation_{metric}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

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
    actions = ingest.read_actions(_require_input(ap["actions"], "ingest"))
    ledger = load_shares_ledger(_require_input(ap["shares"], "attribute"))
    stream = ingest.group_by_match(actions).get(match_id)
    if stream is None:
        raise MissingArtifactError(f"match {match_id} not present in {ap['actions']}")
    if not 0 <= start <= end < len(stream):
        raise ConfigError(
            f"action range [{start}, {end}] outside match stream of {len(stream)}"
        )
    rows = credit.case_report(stream[start : end + 1], start, ledger)
    out = Path(out) if out else cfg.artifacts_dir / f"case_{match_id}_{start}_{end}.svg"
    return viz.plot_case(rows, out)


# ── command line ──────────────────────────────────────────────────────────


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
    for stage in PIPELINE_STAGES:
        sub.add_parser(stage, help=f"run the {stage} stage")
    ab = sub.add_parser("ablate", help="sweep the temporal window size")
    ab.add_argument(
        "--k-values",
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
        if args.command in PIPELINE_STAGES:
            run_pipeline(cfg, [args.command])
            if args.command == "rank" and not args.quiet:
                path = _ranking_paths(cfg)[(args.mode, args.scope)]
                sys.stdout.write(path.read_text())
        elif args.command == "ablate":
            k_values = [int(v) for v in str(args.k_values).split(",") if v.strip()]
            ablate(cfg, k_values)
        elif args.command == "plot-case":
            plot_case(cfg, args.match, args.start, args.end, args.out)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except MissingArtifactError as exc:
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
