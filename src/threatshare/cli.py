"""Pipeline driver: one JSON config, one subcommand per stage.

    fetch -> ingest -> xt-fit -> build-graphs -> train -> evaluate
          -> attribute -> rank        (plus: ablate, plot-case)

Every stage writes the artifacts it declares under the configured artifacts
directory and keeps in ``manifest.json``, under its own name, one record per
file it wrote: that file's digest, the digest of each file it read and the
digest of its part of the config. A stage whose outputs all have records of
this run's inputs and config, and still hold what they record, is skipped.
The same records are the one account of what each artifact was made from: a
stage refuses an input that changed since its stage wrote it, that was made
from another version of a file this stage reads too, or that its stage made
under another config. ``evaluate`` is the
one stage that runs a trained model: it stores what the model computed,
each graph's prediction and node embedding norms.
``attribute`` splits the threat change from that file, the facts of each
event line of ``graphs.ndjson`` (event and node ids, label, match, actor and
actor team, the cross-team flag; no window is cut) and the stats CSV.
Exit codes: 0 success, 2 config error, 3 missing, unreadable or stale input
file or artifact (or failed fetch, or an OS error on a path the run reads or
writes), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import logging
import os
import sys
import zipfile
from dataclasses import asdict, astuple, dataclass, field, fields, is_dataclass, replace
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
MAX_WINDOW_K = 50

# What ``outputs_<variant>`` and ``graphs.ndjson`` hold; part of the config
# evaluate and build-graphs record, so artifacts of an earlier layout are
# rebuilt rather than skipped as fresh.
OUTPUTS_LAYOUT = 5
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


# Every key a config may set, nested as the JSON layout nests them.
_CONFIG_KEYS = RunConfig()._as_json()


# What each annotated type takes, by JSON type: a bool is never a number,
# and a number never a string.
_JSON_TYPES = {
    bool: ("a boolean", (bool,)),
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    str: ("a string", (str,)),
    Path: ("a path string", (str,)),
}


def _coerce(hint, value):
    """``value`` as the annotated type, taken only from its own JSON type
    (a tuple from a list of integers); ``X | None`` also takes null."""
    if get_args(hint):
        if value is None:
            return None
        (hint,) = [a for a in get_args(hint) if a is not type(None)]
    if hint is tuple:
        if type(value) is not list or not all(type(v) is int for v in value):
            raise TypeError(f"expected a list of integers, got {value!r}")
        return tuple(value)
    expected, types = _JSON_TYPES[hint]
    if type(value) not in types:
        raise TypeError(f"expected {expected}, got {value!r}")
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
    cfg = _overlay(RunConfig(), _CONFIG_KEYS, data, "")
    g, m, t = cfg.grid, cfg.model, cfg.training
    _require(1 <= g.n_x <= 200 and 1 <= g.n_y <= 200, "grid: n_x, n_y must be in [1, 200]")
    _require(
        g.n_x * g.n_y <= xt.MAX_ZONES,
        f"grid: n_x * n_y must be at most {xt.MAX_ZONES} zones, got {g.n_x * g.n_y}",
    )
    _require(0.0 < g.tol < 1.0, "grid.tol must be in (0, 1)")
    _require(
        cfg.window_k is None or 0 <= cfg.window_k <= MAX_WINDOW_K,
        f"window_k must be in [0, {MAX_WINDOW_K}]",
    )
    for key in ("hidden_dim", "n_layers", "n_heads", "ffn_dim", "head_hidden_dim", "role_embedding_dim"):
        _require(getattr(m, key) >= 1, f"model.{key} must be >= 1")
    d_e = graphs_mod.EDGE_FEATURE_DIM
    _require(
        len(m.edge_mlp_dims) == 3 and m.edge_mlp_dims[0] == d_e and min(m.edge_mlp_dims[1:]) >= 1,
        f"model.edge_mlp_dims must be [{d_e}, >= 1, >= 1]",
    )
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
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as exc:
            raise ConfigError(f"config {path} is unreadable: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if seed is not None and isinstance(data, dict):
        data = {**data, "seed": seed}
    cfg = parse_config(data)
    if stage_dir is not None:
        cfg.paths = replace(cfg.paths, artifacts_dir=Path(stage_dir))
    return cfg


# ── artifact paths and the run manifest ───────────────────────────────────


def _sha_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# The (mode, scope) of each ranking table rank writes.
_RANKED = [(mode, scope) for mode in ("total", "per90") for scope in ("overall", "by_team")]


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
        **{f"rankings_{mode}_{scope}": a / f"rankings_{mode}_{scope}.csv" for mode, scope in _RANKED},
        "rankings": a / "rankings.txt",
        "manifest": a / "manifest.json",
    }


def _load_manifest(cfg: RunConfig) -> dict:
    """The recorded manifest; a missing or unreadable one reads as empty. A
    stage entry or file record of another shape than ``_record`` writes
    (a manifest of an earlier layout too) makes it unreadable."""
    path = artifact_paths(cfg)["manifest"]
    try:
        manifest = json.loads(path.read_text())
        if not isinstance(manifest, dict) or not isinstance(manifest.get("stages"), dict):
            raise ValueError("no stages table")
        for stage, entry in manifest["stages"].items():
            if not isinstance(entry, dict):
                raise ValueError(f"stage {stage} is not a table of file records")
            for recorded, record in entry.items():
                if not (isinstance(record, dict) and record.keys() == {"sha256", "inputs", "config"}
                        and isinstance(record["inputs"], dict)):
                    raise ValueError(f"{stage} entry {recorded} is not a file record")
        return manifest
    except FileNotFoundError:
        pass
    except ValueError as exc:
        log.warning("%s is unreadable (%s); every stage runs again", path, exc)
    return {"config": None, "config_hash": None, "seed": None, "stages": {}}


def _config_hash(config: dict) -> str:
    """Digest of the effective config, or of the part of it a stage records."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()


def _save_manifest(cfg: RunConfig, manifest: dict, full: dict) -> None:
    """Write ``manifest`` under ``cfg``'s effective config ``full``."""
    manifest["config"] = full
    manifest["config_hash"] = _config_hash(full)
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


def _write_table(path: Path, header, rows) -> Path:
    """``rows``, tuples of one value per ``header`` name, as CSV. A value
    prints as ``%s`` gives it: a float as its ``repr``."""
    line = ",".join(["%s"] * len(header)) + "\n"
    return _write_text(path, ",".join(header) + "\n" + "".join(map(line.__mod__, rows)))


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


def _check_unchanged(manifest: dict, digests: dict[str, str], full: dict) -> None:
    """Refuse an input of ``digests`` that no longer holds what the record
    of the stage that wrote it says, that was made from another version of
    a file ``digests`` holds too, or, after those, that its stage made
    under another config than the effective config ``full``. Recorded paths
    that are not in ``digests`` are never compared, nor the config of an
    ablation table (the sweep's own)."""
    stages = manifest["stages"]
    made_by = {path: (stage, record) for stage in stages for path, record in stages[stage].items()}
    recorded = [(path, *made_by[path]) for path in digests if path in made_by]
    for path, stage, record in recorded:
        if record["sha256"] != digests[path]:
            raise MissingArtifactError(f"{path} changed since {stage} wrote it; run {stage} again")
        for source, seen in record["inputs"].items():
            if digests.get(source, seen) != seen:
                raise MissingArtifactError(
                    f"{path} was made from another {source}; run {stage} again"
                )
    for path, stage, record in recorded:
        if stage in STAGES and record["config"] != _config_hash(STAGES[stage].config(full)):
            raise MissingArtifactError(
                f"{path} was made under another {stage} config; run {stage} again"
            )


def _checked_inputs(manifest: dict, declared, full: dict) -> dict[str, str]:
    """The digest of each declared ``(path, how to make it)`` input, by
    path, once every one is present and passes ``_check_unchanged``."""
    for path, remedy in declared:
        if not Path(path).is_file():
            raise MissingArtifactError(f"missing {path}; {remedy}")
    digests = {str(path): _sha_file(path) for path, _ in declared}
    _check_unchanged(manifest, digests, full)
    return digests


def _record(manifest: dict, stage: str, written, inputs: dict[str, str], config: str) -> None:
    """Record each ``written`` path under ``stage``: its digest, the digests
    of the ``inputs`` it was made from and the ``config`` digest it was
    made under. The stage's records of other files, such as another
    variant's checkpoint, stay."""
    entry = manifest["stages"].setdefault(stage, {})
    for path in written:
        entry[str(path)] = {"sha256": _sha_file(path), "inputs": inputs, "config": config}


# ── stage implementations ─────────────────────────────────────────────────


def _stage_fetch(cfg: RunConfig) -> None:
    paths = ingest.fetch_open_data(
        cfg.fetch.competition_id, cfg.fetch.season_id, cfg.paths.cache_dir
    )
    _write_text(artifact_paths(cfg)["fetched"], json.dumps([str(p) for p in paths], indent=1))
    log.info("fetch: %d event files available", len(paths))


def _event_files(cfg: RunConfig) -> list[Path]:
    return sorted(cfg.paths.data_dir.glob("*.json"))


def _stage_ingest(cfg: RunConfig) -> None:
    ap = artifact_paths(cfg)
    files = _event_files(cfg)
    all_actions = []
    summaries = {}
    file_of = {}  # match id -> the event file that yielded it
    for path in files:
        result = ingest.parse_events(path)
        actions = ingest.to_spadl(result.events)
        for match_id in sorted({a.game_id for a in actions}):
            if file_of.setdefault(match_id, path) != path:
                raise ingest.SchemaError(
                    f"paths.data_dir {cfg.paths.data_dir}: {file_of[match_id].name} and "
                    f"{path.name} both hold match {match_id}; name each event file by its match id"
                )
        all_actions.extend(actions)
        summaries[path.name] = asdict(result.summary)
    if not all_actions:
        raise ingest.SchemaError(
            f"paths.data_dir {cfg.paths.data_dir}: its event files hold no on-ball actions"
        )
    _write_atomic(ap["actions"], lambda tmp: ingest.write_actions(all_actions, tmp))
    _write_text(ap["ingest_summary"], json.dumps(summaries, sort_keys=True, indent=1))
    log.info("ingest: %d actions from %d matches", len(all_actions), len(files))


def _stage_xt_fit(cfg: RunConfig) -> None:
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


def _build_all_graphs(cfg: RunConfig, k: int) -> list:
    grid = _read(cfg, "grid", xt.XtGrid.load)
    features = ingest.normalize_per90(ingest.load_player_stats(cfg.paths.stats_csv))
    roles = None if cfg.paths.roles_csv is None else ingest.load_player_roles(cfg.paths.roles_csv)
    by_match = ingest.group_by_match(_read(cfg, "actions", ingest.read_actions))
    try:
        return [
            g
            for match_id in sorted(by_match)
            for g in graphs_mod.build_match_graphs(
                by_match[match_id], k, features, grid, roles=roles,
                centrality=cfg.append_centrality_features,
            )
        ]
    except graphs_mod.WindowTooLarge as exc:
        raise ConfigError(
            f"window_k {k}: {exc}, more than the {graphs_mod.MAX_NODES} a graph holds; lower window_k"
        ) from None


def _stage_build_graphs(cfg: RunConfig) -> None:
    ap = artifact_paths(cfg)
    all_graphs = _build_all_graphs(cfg, cfg.resolved_k)
    _write_atomic(ap["graphs"], lambda tmp: graphs_mod.write_graphs(all_graphs, tmp))
    log.info("build-graphs: %d graphs at k=%d", len(all_graphs), cfg.resolved_k)


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


def _stage_train(cfg: RunConfig) -> None:
    ap = artifact_paths(cfg)
    train_set, val_set = _split_from_config(cfg, _read(cfg, "graphs", graphs_mod.read_graphs))
    model_cfg = replace(cfg.model, seed=cfg.seed)
    result = models.train(model_cfg, train_set, val_set, cfg.training)
    _write_atomic(ap["checkpoint"], result.checkpoint.save)
    records = [astuple(replace(r, stopped_early=int(r.stopped_early))) for r in result.log]
    _write_table(ap["train_log"], [f.name for f in fields(models.EpochRecord)], records)
    log.info(
        "train[%s]: %d epochs, best val MSE %s%s",
        cfg.model.variant,
        len(result.log),
        min((r.val_mse for r in result.log), default=float("nan")),
        " (early stop)" if result.stopped_early else "",
    )
    if result.aborted:
        raise NumericError("training diverged; last good checkpoint was saved")


def _stage_evaluate(cfg: RunConfig) -> None:
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
    table = [(name, m["mse"], m["mae"], m["combined"]) for name, m in scores.items()]
    _write_table(ap["metrics"], ("split", "mse", "mae", "combined"), table)
    manifest = {"kind": "threatshare-outputs"}
    arrays = {"predictions": predictions, "norms": norms}
    _write_atomic(ap["outputs"], lambda tmp: ckpt_io.save_container(tmp, manifest, arrays))
    log.info("evaluate[%s]: val %s; val_const %s", cfg.model.variant, scores["val"], scores["val_const"])


def _load_outputs(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The predictions and norms that evaluate stored."""
    _, arrays = ckpt_io.load_container(path)
    if arrays.keys() != {"predictions", "norms"}:
        raise ValueError(f"holds {', '.join(sorted(arrays))}, not predictions and norms")
    return arrays["predictions"], arrays["norms"]


def _stage_attribute(cfg: RunConfig) -> None:
    ap = artifact_paths(cfg)
    predictions, norms = _read(cfg, "outputs", _load_outputs)
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
    shares, players, _ = credit.build_ledger(
        events,
        predictions,
        norms,
        source=cfg.attribution_source,
        stats=ingest.load_player_stats(cfg.paths.stats_csv),
        negative_mode=cfg.negative_share_mode,
    )

    # shares holds one value per node, in event then node order
    share = iter(shares.tolist())
    rows = sorted((e.event_id, pid, next(share), int(e.cross_team)) for e in events for pid in e.node_ids)
    _write_table(ap["shares"], ("event_id", "player_id", "share", "cross_team"), rows)
    totals = [p._replace(team_id="" if p.team_id is None else p.team_id) for p in players]
    _write_table(ap["totals"], credit.PlayerTotal._fields, totals)
    log.info("attribute: %d share rows, %d players", len(rows), len(players))


def _render_rank_text(title: str, rows) -> list[str]:
    lines = [title, "-" * len(title), f"{'#':>3}  {'player':>8}  {'team':>6}  metric"]
    for r in rows:
        lines.append(f"{r.rank:>3}  {r.player_id:>8}  {str(r.team_id):>6}  {r.metric:+.4f}")
    lines.append("")
    return lines


def _load_totals(path: Path) -> list[credit.PlayerTotal]:
    """The ``PlayerTotal`` rows attribute wrote; an empty team reads as None."""
    kinds = (int, lambda team: int(team) if team else None, float, float, int, float)
    return [
        credit.PlayerTotal(*(kind(v) for kind, v in zip(kinds, line.split(","), strict=True)))
        for line in path.read_text().splitlines()[1:]
    ]


def _stage_rank(cfg: RunConfig) -> None:
    ap = artifact_paths(cfg)
    players = _read(cfg, "totals", _load_totals)
    header = ("rank", "player_id", "team_id", "metric")
    text_blocks: list[str] = []
    for mode, scope in _RANKED:
        rows = credit.rank(players, mode=mode, scope=scope)
        table = [(r.rank, r.player_id, r.team_id, r.metric) for r in rows]
        _write_table(ap[f"rankings_{mode}_{scope}"], header, table)
        if mode == "total":
            text_blocks.extend(_render_rank_text(f"{mode} credit, {scope}", rows[:20]))
    _write_text(ap["rankings"], "\n".join(text_blocks))
    log.info("rank: wrote %d tables", len(_RANKED))


# ── the stage table ───────────────────────────────────────────────────────


@dataclass(frozen=True)
class Stage:
    """A pipeline stage: its runner, the ``artifact_paths`` names of what
    it writes, its declared ``(path, how to make it)`` inputs, and the part
    of the effective config that each record of what it wrote holds."""

    run: Callable[[RunConfig], None]
    writes: tuple[str, ...]
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


# In pipeline order.
STAGES = {
    "fetch": Stage(
        _stage_fetch,
        ("fetched",),
        _inputs(),
        lambda full: {"fetch": full["fetch"], "paths": full["paths"]["cache_dir"]},
    ),
    "ingest": Stage(
        _stage_ingest,
        ("actions", "ingest_summary"),
        _ingest_inputs,
        lambda full: {"data_dir": full["paths"]["data_dir"]},
    ),
    "xt-fit": Stage(_stage_xt_fit, ("grid",), _inputs("actions"), _pick("grid")),
    "build-graphs": Stage(
        _stage_build_graphs,
        ("graphs",),
        _inputs("actions", "grid", files=("stats_csv", "roles_csv")),
        lambda full: {
            **_pick("window_k", "append_centrality_features")(full),
            "graphs_layout": GRAPHS_LAYOUT,
        },
    ),
    "train": Stage(_stage_train, ("checkpoint", "train_log"), _inputs("graphs"), _model_key),
    "evaluate": Stage(
        _stage_evaluate,
        ("metrics", "outputs"),
        _inputs("graphs", "checkpoint"),
        lambda full: {**_model_key(full), "outputs_layout": OUTPUTS_LAYOUT},
    ),
    "attribute": Stage(
        _stage_attribute,
        ("shares", "totals"),
        _inputs("graphs", "outputs", files=("stats_csv",)),
        _pick("attribution_source", "negative_share_mode"),
    ),
    "rank": Stage(
        _stage_rank,
        (*(f"rankings_{mode}_{scope}" for mode, scope in _RANKED), "rankings"),
        _inputs("totals"),
        _pick(),
    ),
}

# The stage that writes each artifact.
_PRODUCER = {name: stage for stage, spec in STAGES.items() for name in spec.writes}


def run_stage(cfg: RunConfig, stage: str, *, manifest: dict, full: dict) -> bool:
    """Run one stage unless every file it writes has a record of this run's
    inputs and config and still holds what that record says, recording
    what it wrote in ``manifest``; the caller saves it. ``full`` is
    ``cfg.effective_dict()``.

    Returns True when work happened, False on a fresh-skip.
    """
    spec = STAGES[stage]
    inputs = _checked_inputs(manifest, spec.inputs(cfg), full)
    made_under = _config_hash(spec.config(full))
    written = [artifact_paths(cfg)[name] for name in spec.writes]
    entry = manifest["stages"].get(stage, {})
    records = [(path, entry.get(str(path))) for path in written]
    if all(
        record is not None and record["inputs"] == inputs and record["config"] == made_under
        and path.is_file() and _sha_file(path) == record["sha256"]
        for path, record in records
    ):
        log.info("%s: up to date, skipping", stage)
        return False

    spec.run(cfg)
    _record(manifest, stage, written, inputs, made_under)
    return True


def run_pipeline(cfg: RunConfig, stages) -> dict:
    """Run the requested pipeline stages in canonical order."""
    stages = list(stages)
    unknown = [s for s in stages if s not in STAGES]
    if unknown:
        raise ConfigError(f"unknown stage(s): {', '.join(unknown)}")
    manifest = _load_manifest(cfg)
    full = cfg.effective_dict()
    ran = {}
    for stage in STAGES:
        if stage in stages:
            ran[stage] = run_stage(cfg, stage, manifest=manifest, full=full)
    _save_manifest(cfg, manifest, full)
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
    for i, k in enumerate(k_values):
        _require(0 <= k <= MAX_WINDOW_K, f"ablate: k_values must be in [0, {MAX_WINDOW_K}], got {k}")
        _require(k not in k_values[:i], f"ablate: k_values must be distinct, got {k} again")
    full = cfg.effective_dict()
    manifest = _load_manifest(cfg)
    inputs = _checked_inputs(manifest, STAGES["build-graphs"].inputs(cfg), full)

    # every k's windows and split are checked before the first cell trains
    built = {k: _build_all_graphs(cfg, k) for k in k_values}
    splits = {k: _split_from_config(cfg, all_graphs) for k, all_graphs in built.items()}
    cells: dict = {}
    baseline: dict = {}
    for k, all_graphs in built.items():
        train_set, val_set = splits[k]
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

    scores = {**cells, **baseline}
    columns = [(block, k) for block in ("train", "val") for k in k_values]
    header = ["model", *(f"{block}_k{k}" for block, k in columns)]
    written = []
    for metric in ("mae", "mse", "combined"):
        rows = [
            (name, *("failed" if scores[(name, k)] is None else scores[(name, k)][block][metric]
                     for block, k in columns))
            for name in (*models.VARIANTS, "train_mean")
        ]
        written.append(_write_table(cfg.paths.artifacts_dir / f"ablation_{metric}.csv", header, rows))

    _record(manifest, "ablate", written, inputs, _config_hash({**full, "k_values": k_values}))
    _save_manifest(cfg, manifest, full)
    return cells


# ── case plots ────────────────────────────────────────────────────────────


def _load_shares(path: Path) -> dict:
    """Each ``(event_id, player_id)`` share that attribute wrote."""
    shares = {}
    for line in path.read_text().splitlines()[1:]:
        event_id, pid, share, _cross = line.rsplit(",", 3)
        shares[(event_id, int(pid))] = float(share)
    return shares


def plot_case(cfg: RunConfig, match_id: int, start: int, end: int, out=None) -> Path:
    """Render the attributed deltas of one in-match action range to SVG."""
    ap = artifact_paths(cfg)
    _checked_inputs(_load_manifest(cfg), _inputs("actions", "shares")(cfg), cfg.effective_dict())
    shares = _read(cfg, "shares", _load_shares)
    stream = ingest.group_by_match(_read(cfg, "actions", ingest.read_actions)).get(match_id)
    if stream is None:
        raise MissingArtifactError(f"match {match_id} not present in {ap['actions']}")
    if not 0 <= start <= end < len(stream):
        raise ConfigError(
            f"action range [{start}, {end}] outside match stream of {len(stream)}"
        )
    try:
        rows = credit.case_report(stream[start : end + 1], start, shares)
    except KeyError as exc:
        raise MissingArtifactError(f"{ap['shares']}: {exc.args[0]}; run attribute again") from None
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


def _keep_freed_memory() -> None:
    """Keep freed array buffers in the heap for the next allocation to reuse.

    By default glibc serves large buffers with fresh mappings and returns
    the freed top of the heap to the OS, so every training step faults in
    and zero-fills the same pages again. A C library without ``mallopt``
    keeps its own policy.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at the cap of glibc's dynamic threshold
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_memory()
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
                path = artifact_paths(cfg)[f"rankings_{args.mode}_{args.scope}"]
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
    except OSError as exc:
        log.error("%s: %s", exc.filename, exc.strerror or exc)
        return EXIT_MISSING
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
