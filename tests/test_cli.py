"""Pipeline wiring: config validation, stage artifacts, idempotence,
determinism, exit codes, ablation tables, and the case plot."""

import ctypes
import dataclasses
import json
import logging
import os
import subprocess
import sys
import typing
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from threatshare import cli, credit, graphs as graphs_mod, ingest, models, viz
from threatshare.diffcore import checkpoint as ckpt_io
from threatshare.ingest import SpadlAction

from credit_reference import attribute

FAST_OVERRIDES = {
    "model": {"variant": "gcn", "hidden_dim": 16, "n_heads": 2, "ffn_dim": 32,
              "head_hidden_dim": 8},
    "training": {"epochs": 2, "batch_size": 64},
    "window_k": 3,
    "grid": {"n_x": 8, "n_y": 6},
    "seed": 13,
}


def write_config(tmp_path, fixture_dir, overrides=None, name="config.json"):
    import copy

    data = {
        "paths": {
            "cache_dir": str(tmp_path / "cache"),
            "data_dir": str(fixture_dir),
            "artifacts_dir": str(tmp_path / "artifacts"),
            "stats_csv": str(fixture_dir / "player_stats.csv"),
            "roles_csv": str(fixture_dir / "player_roles.csv"),
        },
    }
    data.update(copy.deepcopy(FAST_OVERRIDES))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            data.setdefault(key, {}).update(value)
        else:
            data[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


ALL_STAGES = ["ingest", "xt-fit", "build-graphs", "train", "evaluate", "attribute", "rank"]


# Every key set away from its default.
FULL_CONFIG = {
    "paths": {"cache_dir": "run/cache", "data_dir": "run/events", "artifacts_dir": "run/art",
              "stats_csv": "run/stats.csv", "roles_csv": None},
    "grid": {"n_x": 10, "n_y": 8, "tol": 1e-6},
    "window_k": 4,
    "model": {"variant": "transformer", "hidden_dim": 12, "n_layers": 1, "n_heads": 3,
              "ffn_dim": 24, "edge_mlp_dims": [10, 8, 6], "head_hidden_dim": 6,
              "role_embedding_dim": 4},
    "training": {"lr": 0.003, "weight_decay": 0.0, "epochs": 2, "batch_size": 32,
                 "split_frac": 0.5, "patience": 2, "lr_step": 3, "lr_gamma": 0.9,
                 "split_unit": "match"},
    "seed": 21,
    "attribution_source": "labeled",
    "negative_share_mode": "actor",
    "append_centrality_features": True,
    "fetch": {"competition_id": 11, "season_id": 90},
}


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = cli.parse_config({})
        again = cli.parse_config(cfg.effective_dict())
        assert again.effective_dict() == cfg.effective_dict()
        assert cli._config_hash(cfg.effective_dict()) == (
            "853321a46ecb56dac7659e832663087c3427bf7c213b6c5d4786e2961243801b"
        )
        full = cli.parse_config(FULL_CONFIG)
        assert full.effective_dict() == FULL_CONFIG
        assert cli.parse_config(full.effective_dict()).effective_dict() == FULL_CONFIG
        # recorded before the config schema was declared once
        assert cli._config_hash(full.effective_dict()) == (
            "c641447781116501e083d80abbdf3cb8e62c66a5a6ce6ba7e918820fefd90510"
        )

    def test_byte_order_mark_reads_as_without(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(FULL_CONFIG).encode())
        assert cli.load_config(path).effective_dict() == FULL_CONFIG

    def test_window_default_depends_on_variant(self):
        assert cli.parse_config({}).resolved_k == 7
        assert cli.parse_config({"model": {"variant": "gat"}}).resolved_k == 7
        assert cli.parse_config({"model": {"variant": "transformer"}}).resolved_k == 5
        assert cli.parse_config({"window_k": 2}).resolved_k == 2

    def test_unknown_keys_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.parse_config({"learning_rate": 1e-4})
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.parse_config({"training": {"lr": 1e-4, "momentum": 0.9}})

    def test_range_validation(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config({"training": {"split_frac": 1.5}})
        with pytest.raises(cli.ConfigError):
            cli.parse_config({"grid": {"n_x": 0}})
        with pytest.raises(cli.ConfigError):
            cli.parse_config({"model": {"variant": "mlp"}})
        with pytest.raises(cli.ConfigError):
            cli.parse_config({"seed": -1})
        with pytest.raises(cli.ConfigError, match="seed"):
            cli.load_config(None, seed=-1)

    # every float key of the schema, as (section, key)
    FLOAT_KEYS = [
        (section.name, key)
        for section in dataclasses.fields(cli.RunConfig)
        if dataclasses.is_dataclass(section.default_factory)
        for key, hint in typing.get_type_hints(section.default_factory).items()
        if hint is float
    ]

    def test_float_keys_found(self):
        assert ("training", "lr") in self.FLOAT_KEYS and ("grid", "tol") in self.FLOAT_KEYS
        assert len(self.FLOAT_KEYS) == 5

    @pytest.mark.parametrize("section,key", FLOAT_KEYS)
    def test_infinite_float_refused(self, section, key, tmp_path, fixture_dir, caplog):
        # JSON's Infinity; training.lr and weight_decay used to pass and end the run at train
        config = write_config(tmp_path, fixture_dir, {section: {key: float("inf")}})
        assert "Infinity" in config.read_text()
        assert cli.main(["--config", str(config), "--quiet", "ingest"]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"config error: {section}.{key}: expected a finite number, got inf"]

    @pytest.mark.parametrize(
        "value", [float("-inf"), float("nan"), 10**400], ids=["-inf", "nan", "int-beyond-float"]
    )
    def test_other_non_finite_numbers_refused(self, value):
        with pytest.raises(cli.ConfigError, match="training.weight_decay: expected a finite number"):
            cli.parse_config({"training": {"weight_decay": value}})

    def test_effective_config_written_to_manifest(self, tmp_path, fixture_dir):
        config = write_config(tmp_path, fixture_dir)
        cfg = cli.load_config(config)
        cli.run_pipeline(cfg, ["ingest"])
        manifest = json.loads((tmp_path / "artifacts" / "manifest.json").read_text())
        assert manifest["config"] == cfg.effective_dict()
        assert manifest["config_hash"] == cli._config_hash(cfg.effective_dict())
        assert manifest["seed"] == 13


class TestPipeline:
    def test_full_pipeline_produces_all_artifacts(self, tmp_path, fixture_dir):
        config = write_config(tmp_path, fixture_dir)
        cfg = cli.load_config(config)
        ran = cli.run_pipeline(cfg, ALL_STAGES)
        assert all(ran.values())
        ap = cli.artifact_paths(cfg)
        for key in ("actions", "grid", "graphs", "checkpoint", "train_log",
                    "metrics", "outputs", "shares", "totals"):
            assert ap[key].exists(), key
        for mode in ("total", "per90"):
            for scope in ("overall", "by_team"):
                assert (tmp_path / "artifacts" / f"rankings_{mode}_{scope}.csv").exists()

    def test_evaluate_scores_the_train_mean_beside_the_model(self, tmp_path, fixture_dir):
        cfg = cli.load_config(write_config(tmp_path, fixture_dir))
        cli.run_pipeline(cfg, ALL_STAGES[:5])
        lines = cli.artifact_paths(cfg)["metrics"].read_text().splitlines()
        assert lines[0] == "split,mse,mae,combined"
        rows = {line.split(",")[0]: [float(v) for v in line.split(",")[1:]] for line in lines[1:]}
        assert list(rows) == ["train", "val", "train_const", "val_const"]
        train_set, val_set = cli._split_from_config(
            cfg, graphs_mod.read_graphs(cli.artifact_paths(cfg)["graphs"])
        )
        mean = np.mean([g.label for g in train_set])
        for name, subset in (("train_const", train_set), ("val_const", val_set)):
            err = np.array([g.label for g in subset]) - mean
            mse, mae = np.mean(err**2), np.mean(np.abs(err))
            assert rows[name] == pytest.approx([mse, mae, mse + mae], rel=1e-12)
        for mse, mae, combined in rows.values():
            assert combined == pytest.approx(mse + mae, abs=1e-12)

    def test_one_inference_pass_per_checkpoint(self, tmp_path, fixture_dir, monkeypatch):
        cfg = cli.load_config(write_config(tmp_path, fixture_dir))
        cli.run_pipeline(cfg, ALL_STAGES[:4])
        calls = {"forward": 0, "checkpoint loads": 0, "graphs hashes": 0, "graph store parses": 0}
        forward, load, sha = models.forward, models.Checkpoint.load, cli._sha_file
        read_graphs = graphs_mod.read_graphs
        graphs_path = cli.artifact_paths(cfg)["graphs"]

        def counted_forward(*args):
            calls["forward"] += 1
            return forward(*args)

        def counted_load(path):
            calls["checkpoint loads"] += 1
            return load(path)

        def counted_sha(path):
            calls["graphs hashes"] += path == graphs_path
            return sha(path)

        def counted_read_graphs(path):
            calls["graph store parses"] += 1
            return read_graphs(path)

        monkeypatch.setattr(models, "forward", counted_forward)
        monkeypatch.setattr(models.Checkpoint, "load", staticmethod(counted_load))
        monkeypatch.setattr(cli, "_sha_file", counted_sha)
        gs = read_graphs(graphs_path)
        monkeypatch.setattr(graphs_mod, "read_graphs", counted_read_graphs)
        one_pass = {
            "forward": len(models.packs(gs, models.PREDICT_NODES)),
            "checkpoint loads": 1,
            "graphs hashes": 1,  # run_stage's input digest
            "graph store parses": 1,  # evaluate's; attribute reads the store's lines, no windows
        }
        cli.run_pipeline(cfg, ["evaluate"])
        assert calls == one_pass
        calls["graphs hashes"] = 0
        cli.run_pipeline(cfg, ["attribute"])
        assert calls == one_pass

    def test_outputs_hold_only_predictions_and_norms(self, tmp_path, fixture_dir):
        cfg = cli.load_config(write_config(tmp_path, fixture_dir))
        cli.run_pipeline(cfg, ALL_STAGES[:5])
        ap = cli.artifact_paths(cfg)
        manifest, arrays = ckpt_io.load_container(ap["outputs"])
        assert set(arrays) == {"predictions", "norms"}
        assert set(manifest) == {"kind", "container_version", "tensors"}
        # what they were computed from is the run manifest's record
        recorded = json.loads(ap["manifest"].read_text())["stages"]["evaluate"][str(ap["outputs"])]
        assert recorded == {
            "sha256": cli._sha_file(ap["outputs"]),
            "inputs": {str(p): cli._sha_file(p) for p in (ap["graphs"], ap["checkpoint"])},
            "config": cli._config_hash(cli.STAGES["evaluate"].config(cfg.effective_dict())),
        }
        gs = graphs_mod.read_graphs(ap["graphs"])
        predictions, norms = models.evaluate(models.Checkpoint.load(ap["checkpoint"]), gs)
        assert arrays["predictions"].tolist() == predictions.tolist()
        assert arrays["norms"].tolist() == norms.tolist()

    @pytest.mark.parametrize("source,negative_mode", [("predicted", "prorata"), ("labeled", "actor")])
    def test_ledger_from_outputs_matches_one_built_from_the_graphs(
        self, tmp_path, fixture_dir, source, negative_mode
    ):
        overrides = {"attribution_source": source, "negative_share_mode": negative_mode}
        cfg = cli.load_config(write_config(tmp_path, fixture_dir, overrides))
        cli.run_pipeline(cfg, ALL_STAGES[:6])
        ap = cli.artifact_paths(cfg)
        stored_predictions, stored_norms = cli._load_outputs(ap["outputs"])
        shares, players, fallbacks = credit.build_ledger(
            graphs_mod.read_events(ap["graphs"]), stored_predictions, stored_norms,
            source=source, negative_mode=negative_mode,
        )
        # the reference: every graph of the store split on its own
        gs = graphs_mod.read_graphs(ap["graphs"])
        predictions, norms = models.evaluate(models.Checkpoint.load(ap["checkpoint"]), gs)
        reference_shares, reference_lines = [], []
        reference_totals, reference_matches = {}, {}
        reference_fallbacks = 0
        end = 0
        for g, prediction in zip(gs, predictions, strict=True):
            end += g.n_nodes
            delta = float(prediction) if source == "predicted" else g.label
            event_shares, uniform = attribute(
                g.node_ids, norms[end - g.n_nodes : end], delta,
                actor=g.meta["actor_id"], negative_mode=negative_mode,
            )
            reference_fallbacks += uniform
            for pid, share in event_shares.items():
                reference_shares.append(share)
                reference_lines.append((g.event_id, pid, share, int(g.cross_team)))
                reference_totals[pid] = reference_totals.get(pid, 0.0) + share
                reference_matches.setdefault(pid, set()).add(g.meta["match_id"])
        assert end == len(norms)
        assert shares.tolist() == reference_shares
        assert {p.player_id: p.total for p in players} == reference_totals
        assert {p.player_id: p.matches for p in players} == {
            pid: len(matches) for pid, matches in reference_matches.items()
        }
        assert fallbacks == reference_fallbacks
        # what attribute wrote: each share with its event's cross-team flag
        assert ap["shares"].read_text().splitlines()[1:] == [
            f"{event_id},{pid},{share!r},{cross}"
            for event_id, pid, share, cross in sorted(reference_lines)
        ]

    def test_tables_parse_back_to_the_exact_values_computed(self, tmp_path, fixture_dir, monkeypatch):
        cfg = cli.load_config(write_config(tmp_path, fixture_dir))
        runs, totals = [], []
        train, ledger = models.train, credit.build_ledger

        def ledger_with_a_teamless_player(*args, **kwargs):
            shares, players, fallbacks = ledger(*args, **kwargs)
            # as a player who never acted; the fixture has none
            totals.extend([*players[:-1], players[-1]._replace(team_id=None)])
            return shares, totals, fallbacks

        monkeypatch.setattr(models, "train", lambda *args: runs.append(train(*args)) or runs[-1])
        monkeypatch.setattr(credit, "build_ledger", ledger_with_a_teamless_player)
        cli.run_pipeline(cfg, ALL_STAGES[:6])
        ap = cli.artifact_paths(cfg)
        events = graphs_mod.read_events(ap["graphs"])
        shares, _, _ = ledger(
            events, *cli._load_outputs(ap["outputs"]),
            source=cfg.attribution_source,
            stats=ingest.load_player_stats(cfg.paths.stats_csv),
            negative_mode=cfg.negative_share_mode,
        )
        written = cli._load_shares(ap["shares"])
        keys = [(e.event_id, pid) for e in events for pid in e.node_ids]
        assert len(written) == len(keys) == len(shares)
        assert np.array([written[key] for key in keys]).tobytes() == shares.tobytes()
        # repr tells -0.0 from 0.0 and an int from a float
        assert repr(cli._load_totals(ap["totals"])) == repr(totals)
        (run,) = runs
        lines = ap["train_log"].read_text().splitlines()
        assert lines[0] == ",".join(f.name for f in dataclasses.fields(models.EpochRecord))
        parsed = [
            models.EpochRecord(int(epoch), *map(float, scores), stopped_early=bool(int(stop)))
            for epoch, *scores, stop in (line.split(",") for line in lines[1:])
        ]
        assert repr(parsed) == repr(run.log)

    def test_outputs_of_an_earlier_layout_are_rebuilt(self, tmp_path, fixture_dir):
        """Outputs recorded under the evaluate config of an earlier layout
        are refused by attribute until evaluate rebuilds them. Layout 3 also
        held what the graph store says of each event; layouts 1 (whose
        config had no layout) and 4 held the predictions and norms with the
        digest of the graphs, which evaluate rewrites without the digest."""
        config = write_config(tmp_path, fixture_dir)
        cfg = cli.load_config(config)
        cli.run_pipeline(cfg, ALL_STAGES[:5])
        ap = cli.artifact_paths(cfg)
        current = ap["outputs"].read_bytes()
        kept, arrays = ckpt_io.load_container(ap["outputs"])
        graphs_sha256 = {"graphs_sha256": cli._sha_file(ap["graphs"])}
        gs = graphs_mod.read_graphs(ap["graphs"])
        layout_3 = {
            "labels": [g.label for g in gs],
            "sizes": [g.n_nodes for g in gs],
            "match_ids": [g.meta["match_id"] for g in gs],
            "actor_ids": [g.meta["actor_id"] for g in gs],
            "actor_teams": [g.meta["actor_team"] for g in gs],
            "cross_team": [g.cross_team for g in gs],
            "player_ids": [pid for g in gs for pid in g.node_ids],
        }
        full = cfg.effective_dict()
        old_config = {"model": full["model"], "training": full["training"], "seed": full["seed"]}

        def record(layout, manifest_extra, arrays_extra):
            ckpt_io.save_container(
                ap["outputs"],
                {"kind": kept["kind"], **manifest_extra},
                {**arrays, **arrays_extra},
            )
            config_then = old_config if layout == 1 else {**old_config, "outputs_layout": layout}
            manifest = json.loads(ap["manifest"].read_text())
            for path in (ap["metrics"], ap["outputs"]):
                manifest["stages"]["evaluate"][str(path)].update(
                    sha256=cli._sha_file(path), config=cli._config_hash(config_then)
                )
            ap["manifest"].write_text(json.dumps(manifest))

        record(3, {**graphs_sha256, "event_ids": [g.event_id for g in gs]}, layout_3)
        assert cli.main(["--config", str(config), "--quiet", "attribute"]) == 3
        assert cli.run_pipeline(cfg, ["evaluate", "attribute"]) == {"evaluate": True, "attribute": True}
        assert ap["outputs"].read_bytes() == current
        for layout in (1, 4):
            record(layout, graphs_sha256, {})
            assert ap["outputs"].read_bytes() != current
            assert cli.main(["--config", str(config), "--quiet", "attribute"]) == 3
            # shares.csv was made from the outputs evaluate makes again
            assert cli.run_pipeline(cfg, ["evaluate", "attribute"]) == {"evaluate": True, "attribute": False}
            assert ap["outputs"].read_bytes() == current

    def test_attribute_takes_teams_from_the_outputs(self, tmp_path, fixture_dir, monkeypatch):
        cfg = cli.load_config(write_config(tmp_path, fixture_dir))
        cli.run_pipeline(cfg, ALL_STAGES[:5])
        ap = cli.artifact_paths(cfg)
        actions = ingest.read_actions(ap["actions"])

        def no_read(path):
            raise AssertionError(f"attribute parsed {path}")

        monkeypatch.setattr(ingest, "read_actions", no_read)
        assert cli.run_pipeline(cfg, ["attribute"]) == {"attribute": True}
        # each player's team: the one it acted for most often, ties to the lower id
        counts = Counter((a.player_id, a.team_id) for a in actions)
        teams = {}
        for (pid, team), n in sorted(counts.items(), key=lambda kv: (kv[1], -kv[0][1])):
            teams[pid] = team
        rows = [line.split(",") for line in ap["totals"].read_text().splitlines()[1:]]
        assert rows and {int(r[0]): r[1] for r in rows} == {
            int(r[0]): str(teams.get(int(r[0]), "")) for r in rows
        }

    def test_graph_store_of_an_earlier_layout_is_rebuilt(self, tmp_path, fixture_dir):
        """A schema-1 store recorded under a build-graphs config without the
        layout recovers with build-graphs, then train."""
        config = write_config(tmp_path, fixture_dir)
        cfg = cli.load_config(config)
        cli.run_pipeline(cfg, ALL_STAGES[:3])
        ap = cli.artifact_paths(cfg)
        ap["graphs"].write_text("".join(_schema_1_line(g) for g in graphs_mod.read_graphs(ap["graphs"])))
        full = cfg.effective_dict()
        old_config = {key: full[key] for key in ("window_k", "append_centrality_features")}
        manifest = json.loads(ap["manifest"].read_text())
        manifest["stages"]["build-graphs"][str(ap["graphs"])].update(
            sha256=cli._sha_file(ap["graphs"]), config=cli._config_hash(old_config)
        )
        ap["manifest"].write_text(json.dumps(manifest))
        assert cli.main(["--config", str(config), "--quiet", "train"]) == 3
        assert cli.run_pipeline(cfg, ["build-graphs"]) == {"build-graphs": True}
        assert cli.main(["--config", str(config), "--quiet", "train"]) == 0

    def test_rerun_skips_everything(self, tmp_path, fixture_dir):
        config = write_config(tmp_path, fixture_dir)
        cfg = cli.load_config(config)
        cli.run_pipeline(cfg, ALL_STAGES)
        again = cli.run_pipeline(cfg, ALL_STAGES)
        assert not any(again.values())

    def test_each_variant_keeps_its_own_records(self, tmp_path, fixture_dir):
        gcn = cli.load_config(write_config(tmp_path, fixture_dir))
        gat = cli.load_config(write_config(tmp_path, fixture_dir, {"model": {"variant": "gat"}}, "gat.json"))
        cli.run_pipeline(gcn, ALL_STAGES[:6])
        cli.run_pipeline(gat, ["train", "evaluate", "attribute"])
        assert cli.run_pipeline(gcn, ["train", "evaluate"]) == {"train": False, "evaluate": False}
        manifest = json.loads(cli.artifact_paths(gcn)["manifest"].read_text())
        assert set(manifest["stages"]["train"]) == {
            str(cli.artifact_paths(cfg)[name]) for cfg in (gcn, gat) for name in ("checkpoint", "train_log")
        }
        # shares.csv is one file for every variant: gat's attribute rewrote it
        assert cli.run_pipeline(gcn, ["attribute"]) == {"attribute": True}

    def test_manifest_of_the_earlier_layout_rebuilds_everything(self, tmp_path, fixture_dir, caplog):
        """A manifest with a key and an outputs table per stage and the file
        records in a ``made_from`` table reads as unreadable: one warning,
        then every stage runs again and writes the same bytes."""
        cfg = cli.load_config(write_config(tmp_path, fixture_dir))
        cli.run_pipeline(cfg, ALL_STAGES)
        ap = cli.artifact_paths(cfg)
        made = {p: p.read_bytes() for p in sorted(ap["manifest"].parent.iterdir()) if p != ap["manifest"]}
        manifest = json.loads(ap["manifest"].read_text())
        manifest["made_from"] = {
            path: {"stage": stage, **record} for stage, entry in manifest["stages"].items()
            for path, record in entry.items()
        }
        manifest["stages"] = {
            stage: {"key": "0" * 64, "outputs": {path: r["sha256"] for path, r in entry.items()}}
            for stage, entry in manifest["stages"].items()
        }
        ap["manifest"].write_text(json.dumps(manifest))
        caplog.clear()
        assert all(cli.run_pipeline(cfg, ALL_STAGES).values())
        warnings = [r.getMessage() for r in caplog.records if r.name == "threatshare"]
        assert len(warnings) == 1 and str(ap["manifest"]) in warnings[0], warnings
        assert {p: p.read_bytes() for p in made} == made
        assert "made_from" not in json.loads(ap["manifest"].read_text())

    def test_an_edited_or_removed_output_is_written_again(self, tmp_path, fixture_dir):
        cfg = cli.load_config(write_config(tmp_path, fixture_dir))
        cli.run_pipeline(cfg, ALL_STAGES)
        ap = cli.artifact_paths(cfg)
        made = {name: ap[name].read_bytes() for name in cli.STAGES["rank"].writes}
        ap["rankings"].write_text("edited")
        assert cli.run_pipeline(cfg, ["rank"]) == {"rank": True}
        ap["rankings_per90_by_team"].unlink()
        assert cli.run_pipeline(cfg, ["rank"]) == {"rank": True}
        assert {name: ap[name].read_bytes() for name in made} == made
        assert cli.run_pipeline(cfg, ["rank"]) == {"rank": False}

    def test_changed_config_invalidates_dependents(self, tmp_path, fixture_dir):
        config = write_config(tmp_path, fixture_dir)
        cfg = cli.load_config(config)
        cli.run_pipeline(cfg, ALL_STAGES)
        cfg2 = cli.load_config(config, seed=99)  # seed feeds split + init
        ran = cli.run_pipeline(cfg2, ALL_STAGES)
        assert not ran["ingest"] and not ran["xt-fit"] and not ran["build-graphs"]
        assert ran["train"] and ran["evaluate"]

    def test_manifest_digests_verify_against_rehashed_artifacts(self, tmp_path, fixture_dir):
        config = write_config(tmp_path, fixture_dir)
        cfg = cli.load_config(config)
        cli.run_pipeline(cfg, ALL_STAGES)
        manifest = json.loads((tmp_path / "artifacts" / "manifest.json").read_text())
        checked = 0
        for entry in manifest["stages"].values():
            for path_str, record in entry.items():
                assert cli._sha_file(Path(path_str)) == record["sha256"]
                checked += 1
        assert checked >= 8

    def test_missing_artifact_names_producer(self, tmp_path, fixture_dir):
        config = write_config(tmp_path, fixture_dir)
        cfg = cli.load_config(config)
        with pytest.raises(cli.MissingArtifactError, match="build-graphs"):
            cli.run_pipeline(cfg, ["train"])

    def test_exit_codes(self, tmp_path, fixture_dir, capsys):
        config = write_config(tmp_path, fixture_dir)
        assert cli.main(["--config", str(config), "--quiet", "ingest"]) == 0
        assert cli.main(["--config", str(config), "--quiet", "train"]) == 3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": 1}))
        assert cli.main(["--config", str(bad), "--quiet", "ingest"]) == 2
        assert cli.main(["--config", str(tmp_path / "absent.json"), "--quiet", "ingest"]) == 2

    def test_numeric_failure_exit_code(self, tmp_path, fixture_dir):
        config = write_config(
            tmp_path, fixture_dir, overrides={"training": {"lr": 1e150, "epochs": 2}}
        )
        cfg = cli.load_config(config)
        cli.run_pipeline(cfg, ["ingest", "xt-fit", "build-graphs"])
        assert cli.main(["--config", str(config), "--quiet", "train"]) == 4
        # no epoch finished: nothing a later stage could take for a model
        ap = cli.artifact_paths(cfg)
        assert not ap["checkpoint"].exists() and not ap["train_log"].exists()

    def test_divergence_after_an_epoch_leaves_the_earlier_run(self, tmp_path, fixture_dir, caplog):
        config = write_config(tmp_path, fixture_dir)
        cfg = cli.load_config(config)
        cli.run_pipeline(cfg, ["ingest", "xt-fit", "build-graphs", "train"])
        ap = cli.artifact_paths(cfg)
        earlier = {name: ap[name].read_bytes() for name in ("checkpoint", "train_log", "manifest")}
        # at this lr the fixture's gcn overflows in epoch 2
        diverging = write_config(
            tmp_path, fixture_dir, {"training": {"lr": 1e6, "epochs": 6}}, name="diverging.json"
        )
        caplog.clear()
        assert cli.main(["--config", str(diverging), "--quiet", "train"]) == 4
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1, errors
        assert errors[0].startswith("numeric failure in train: training diverged in epoch 2: ")
        assert {name: ap[name].read_bytes() for name in earlier} == earlier
        caplog.clear()
        assert cli.main(["--config", str(diverging), "--quiet", "evaluate"]) == 3
        assert "model_gcn.ckpt was made under another train config" in caplog.records[-1].getMessage()
        assert cli.main(["--config", str(config), "--quiet", "evaluate"]) == 0

    def test_stage_dir_override(self, tmp_path, fixture_dir):
        config = write_config(tmp_path, fixture_dir)
        other = tmp_path / "elsewhere"
        assert cli.main(["--config", str(config), "--stage-dir", str(other), "--quiet", "ingest"]) == 0
        assert (other / "actions.ndjson").exists()

    def test_centrality_flag_widens_node_features(self, tmp_path, fixture_dir):
        config = write_config(
            tmp_path, fixture_dir, overrides={"append_centrality_features": True}
        )
        cfg = cli.load_config(config)
        cli.run_pipeline(cfg, ["ingest", "xt-fit", "build-graphs"])
        from threatshare import graphs as graphs_mod

        gs = graphs_mod.read_graphs(cli.artifact_paths(cfg)["graphs"])
        assert gs[0].node_features.shape[1] == 13


def _bad_stats_cell(cell, player_id="101"):
    """Overrides: a copy of the fixture's stats CSV with ``cell`` as the
    first row's goals and ``player_id`` as its id, written as Latin-1."""

    def overrides(tmp_path, fixture_dir):
        lines = (fixture_dir / "player_stats.csv").read_text().splitlines()
        lines[1] = f"{player_id},{cell}" + lines[1][len("101,0"):]
        path = tmp_path / "bad.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        return {"paths": {"stats_csv": str(path)}}

    return overrides


def _events_dir(name, edit):
    """Overrides: a copy of the fixture's event files in which ``name`` holds
    the text ``edit`` makes of its rows (an empty list for a new file)."""

    def overrides(tmp_path, fixture_dir):
        events = tmp_path / "events"
        events.mkdir()
        for path in fixture_dir.glob("*.json"):
            (events / path.name).write_bytes(path.read_bytes())
        path = events / name
        path.write_text(edit(json.loads(path.read_text()) if path.exists() else []))
        return {"paths": {"data_dir": str(events)}}

    return overrides


def _events_only(content: bytes):
    """Overrides: a data_dir holding one event file, 9001.json, of ``content``."""

    def overrides(tmp_path, fixture_dir):
        events = tmp_path / "events"
        events.mkdir()
        (events / "9001.json").write_bytes(content)
        return {"paths": {"data_dir": str(events)}}

    return overrides


def _events_named(copies):
    """Overrides: a data_dir holding, for each ``(name, source)`` of
    ``copies``, the fixture's event file ``source`` under ``name``."""

    def overrides(tmp_path, fixture_dir):
        events = tmp_path / "events"
        events.mkdir()
        for name, source in copies:
            (events / name).write_bytes((fixture_dir / source).read_bytes())
        return {"paths": {"data_dir": str(events)}}

    return overrides


def _row_with(index, **changes):
    def edit(rows):
        rows[index].update(changes)
        return json.dumps(rows)

    return edit


def _forty_actors(**more):
    """Overrides ``more``, and a copy of the fixture's event files in which
    match 9001's actor ids cycle over 40 players: at window_k 30 its window
    of event 21 is the first to hold 23 players."""

    def cycle(rows):
        for i, row in enumerate(r for r in rows if "player" in r):
            row["player"]["id"] = 300 + i % 40
        return json.dumps(rows)

    return lambda tmp, fx: {**_events_dir("9001.json", cycle)(tmp, fx), **more}


def _bad_roles_row(row):
    """Overrides: a copy of the fixture's roles CSV with ``row`` as its first
    row, written as Latin-1."""

    def overrides(tmp_path, fixture_dir):
        lines = (fixture_dir / "player_roles.csv").read_text().splitlines()
        lines[1] = row
        path = tmp_path / "bad_roles.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        return {"paths": {"roles_csv": str(path)}}

    return overrides


def _truncate_manifest(tmp_path):
    path = tmp_path / "artifacts" / "manifest.json"
    path.write_bytes(path.read_bytes()[:50])


def _edit_manifest(edit):
    """Damage: each stage entry of the run manifest replaced by ``edit(entry)``."""

    def damage(tmp_path):
        path = tmp_path / "artifacts" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["stages"] = {stage: edit(entry) for stage, entry in manifest["stages"].items()}
        path.write_text(json.dumps(manifest))

    return damage


def _each_record(edit):
    """Edit: each file record of a stage entry replaced by ``edit(record)``."""
    return lambda entry: {path: edit(record) for path, record in entry.items()}


def _run_again(stage, changes):
    """Damage: run ``stage`` again, into the same artifacts, with the config
    that ``changes(tmp_path, config)`` makes of the run's."""

    def damage(tmp_path):
        data = json.loads((tmp_path / "config.json").read_text())
        other = tmp_path / "other.json"
        other.write_text(json.dumps(changes(tmp_path, data)))
        assert cli.main(["--config", str(other), "--quiet", stage]) == 0

    return damage


def _refused(stage, changes):
    """Damage: rewrite the run's config as ``changes(tmp_path, config)``
    makes it, and see ``stage`` refuse to run under it."""

    def damage(tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(changes(tmp_path, json.loads(path.read_text()))))
        assert cli.main(["--config", str(path), "--quiet", stage]) == 3

    return damage


def _no_on_ball_events(tmp_path, data):
    """The config with a ``data_dir`` of one event file without an on-ball action."""
    content = json.dumps([{"type": {"name": "Starting XI"}, "team": {"id": 1}}]).encode()
    return {**data, "paths": {**data["paths"], **_events_only(content)(tmp_path, None)["paths"]}}


def _as_variant(variant):
    """Changes: the config with model ``variant``."""
    return lambda tmp_path, data: {**data, "model": {**data["model"], "variant": variant}}


def _in_turn(*damages):
    """Damage: each of ``damages`` in turn."""

    def damage(tmp_path):
        for each in damages:
            each(tmp_path)

    return damage


def _rebuild_graphs(**changes):
    """Damage: run build-graphs again with ``changes`` made to the config."""
    return _run_again("build-graphs", lambda tmp_path, data: {**data, **changes})


def _one_match(tmp_path, data):
    """The config with a ``data_dir`` of the first fixture match alone."""
    events = tmp_path / "one_match"
    events.mkdir()
    first = sorted(Path(data["paths"]["data_dir"]).glob("*.json"))[0]
    (events / first.name).write_bytes(first.read_bytes())
    return {**data, "paths": {**data["paths"], "data_dir": str(events)}}


def _without_manifest(damage):
    """Damage: ``damage``, then remove the run manifest."""

    def remove(tmp_path):
        damage(tmp_path)
        (tmp_path / "artifacts" / "manifest.json").unlink()

    return remove


def _nan_grid_values(tmp_path):
    """Damage: write NaN as every zone value of xt_grid.json."""
    path = tmp_path / "artifacts" / "xt_grid.json"
    grid = json.loads(path.read_text())
    grid["value"] = [float("nan")] * len(grid["value"])
    path.write_text(json.dumps(grid))


def _match_index(text):
    """Overrides: none, with ``text`` (written as Latin-1) as the cached match
    index of the default competition season, so fetch reads it without a
    download."""

    def overrides(tmp_path, fixture_dir):
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "matches_2_27.json").write_bytes(text.encode("latin-1"))
        return {}

    return overrides


def _artifacts_under_a_file(tmp_path, fixture_dir):
    """Overrides: an artifacts directory whose parent is a regular file."""
    (tmp_path / "plain").write_text("")
    return {"paths": {"artifacts_dir": str(tmp_path / "plain" / "artifacts")}}


def _config_file(name, content):
    """Config: ``name`` in the test directory, holding ``content`` (bytes for
    a file, None for a directory)."""

    def config(tmp_path, fixture_dir):
        path = tmp_path / name
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        return path

    return config


def _record_digest(tmp_path, path):
    """Record ``path``'s current digest as the one its stage wrote, so only
    the reader can catch what was done to it."""
    run = tmp_path / "artifacts" / "manifest.json"
    data = json.loads(run.read_text())
    (record,) = [entry[str(path)] for entry in data["stages"].values() if str(path) in entry]
    record["sha256"] = cli._sha_file(path)
    run.write_text(json.dumps(data))


def _drop_parameter(name):
    """Damage: rewrite model_gcn.ckpt without parameter ``name`` and remove
    the run manifest."""

    def damage(tmp_path):
        path = tmp_path / "artifacts" / "model_gcn.ckpt"
        manifest, arrays = ckpt_io.load_container(path)
        del arrays[name]
        ckpt_io.save_container(path, manifest, arrays)
        (tmp_path / "artifacts" / "manifest.json").unlink()

    return damage


def _drop_last(name):
    """Damage: rewrite outputs_gcn as a valid container with the last entry
    of array ``name`` removed, and record its new digest as evaluate's."""

    def damage(tmp_path):
        path = tmp_path / "artifacts" / "outputs_gcn"
        manifest, arrays = ckpt_io.load_container(path)
        arrays[name] = arrays[name][:-1]
        ckpt_io.save_container(path, manifest, arrays)
        _record_digest(tmp_path, path)

    return damage


def _nan_entry(artifact, name):
    """Damage: rewrite container ``artifact`` as a valid container with NaN
    as the first entry of array ``name``, and record its new digest as its
    stage's, so only the reader can catch it."""

    def damage(tmp_path):
        path = tmp_path / "artifacts" / artifact
        manifest, arrays = ckpt_io.load_container(path)
        arrays[name].reshape(-1)[0] = np.nan
        ckpt_io.save_container(path, manifest, arrays)
        _record_digest(tmp_path, path)

    return damage


def _damage_store_under_outputs(edit):
    """Damage: edit the store, then record its new digest as the store
    evaluate read, so only attribute's reading of the store can catch the edit."""

    def damage(tmp_path):
        _damage_store(edit)(tmp_path)
        store = tmp_path / "artifacts" / "graphs.ndjson"
        run = tmp_path / "artifacts" / "manifest.json"
        data = json.loads(run.read_text())
        outputs = data["stages"]["evaluate"][str(tmp_path / "artifacts" / "outputs_gcn")]
        outputs["inputs"][str(store)] = cli._sha_file(store)
        run.write_text(json.dumps(data))

    return damage


def _schema_1_line(g) -> str:
    """``g`` as the earlier store wrote it: the whole window on one line."""
    record = {
        "schema_version": 1,
        "event_id": g.event_id,
        "node_ids": g.node_ids,
        "node_features": g.node_features.tolist(),
        "edge_list": g.edge_ends.tolist(),
        "edge_features": g.edge_features.tolist(),
        "label": g.label,
        "node_xy": g.node_xy.tolist(),
        "node_roles": g.node_roles.tolist(),
        "cross_team": g.cross_team,
        "meta": g.meta,
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _edit_lines(artifact, edit):
    """Damage: replace the lines of ``artifact`` by ``edit(lines)``."""

    def damage(tmp_path):
        path = tmp_path / "artifacts" / artifact
        path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))

    return damage


def _damage_lines(artifact, edit):
    """Damage: replace the lines of ``artifact`` by ``edit(lines)`` and
    record its new digest as the one its stage wrote."""

    def damage(tmp_path):
        _edit_lines(artifact, edit)(tmp_path)
        _record_digest(tmp_path, tmp_path / "artifacts" / artifact)

    return damage


def _without_event(event_id):
    """Edit: the shares.csv lines without those of ``event_id``."""
    return lambda lines: [line for line in lines if not line.startswith(f"{event_id},")]


def _damage_store(edit):
    return _damage_lines("graphs.ndjson", edit)


def _damage_actions(edit):
    return _damage_lines("actions.ndjson", edit)


def _edit_line(index, change):
    """Edit: line ``index`` of the store as ``change(record)`` makes it."""

    def edit(lines):
        lines[index] = change(json.loads(lines[index]))
        return lines

    return edit


def _relabel(**changes):
    return lambda d: json.dumps({**d, **changes}, sort_keys=True, separators=(",", ":")) + "\n"


def _drop_key(key):
    return lambda d: json.dumps({k: v for k, v in d.items() if k != key}) + "\n"


def _edit_meta(**changes):
    return lambda d: _relabel(meta={**d["meta"], **changes})(d)


def _nan_feature(d):
    d["players"][0]["features"][0] = float("nan")
    return json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n"


def _nan_edge(d):
    d["edge"][2] = float("nan")
    return json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n"


def _train_diverges(tmp_path):
    """Damage: train under the run's config, which must diverge (exit 4)."""
    assert cli.main(["--config", str(tmp_path / "config.json"), "--quiet", "train"]) == 4


TRAINED = ["ingest", "xt-fit", "build-graphs", "train"]


# (config overrides, or the config path, stages run first, damage done after
#  them, the command and its options, exit code, text the one ERROR line must
#  hold, "{art}" standing for the artifacts directory; for exit 0, the one
#  WARNING line)
FAILURE_CASES = {
    "null-value": (
        lambda tmp, fx: {"grid": {"n_x": None}}, [], None, "ingest", 2, "grid.n_x"),
    "non-numeric-string": (
        lambda tmp, fx: {"training": {"epochs": "abc"}}, [], None, "ingest", 2,
        "training.epochs"),
    "scalar-edge-mlp-dims": (
        lambda tmp, fx: {"model": {"edge_mlp_dims": 5}}, [], None, "ingest", 2,
        "model.edge_mlp_dims"),
    # model widths out of range: each used to end in a traceback or train a zero-width layer
    "negative-head-count": (
        lambda tmp, fx: {"model": {"variant": "transformer", "n_heads": -4}}, [], None, "ingest", 2,
        "model.n_heads must be >= 1"),
    "negative-role-embedding": (
        lambda tmp, fx: {"model": {"variant": "transformer", "role_embedding_dim": -1}}, [], None,
        "ingest", 2, "model.role_embedding_dim must be >= 1"),
    "edge-mlp-input-not-the-edge-width": (
        lambda tmp, fx: {"model": {"edge_mlp_dims": [5, 32, 16]}}, [], None, "ingest", 2,
        "model.edge_mlp_dims must be [10, >= 1, >= 1]"),
    "edge-mlp-zero-width": (
        lambda tmp, fx: {"model": {"edge_mlp_dims": [10, 0, 16]}}, [], None, "ingest", 2,
        "model.edge_mlp_dims must be [10, >= 1, >= 1]"),
    "zero-ffn-width": (
        lambda tmp, fx: {"model": {"ffn_dim": 0}}, [], None, "ingest", 2, "model.ffn_dim must be >= 1"),
    "zero-head-width": (
        lambda tmp, fx: {"model": {"head_hidden_dim": 0}}, [], None, "ingest", 2,
        "model.head_hidden_dim must be >= 1"),
    "grid-over-the-zone-bound": (
        lambda tmp, fx: {"grid": {"n_x": 200, "n_y": 200}}, [], None, "ingest", 2,
        "grid: n_x * n_y must be at most 2500 zones, got 40000"),
    # a value of another JSON type is refused, not converted
    "bool-as-a-string": (
        lambda tmp, fx: {"append_centrality_features": "false"}, [], None, "ingest", 2,
        "append_centrality_features: expected a boolean, got 'false'"),
    "int-as-a-fraction": (
        lambda tmp, fx: {"window_k": 7.9}, [], None, "ingest", 2,
        "window_k: expected an integer, got 7.9"),
    "float-as-a-bool": (
        lambda tmp, fx: {"training": {"lr": True}}, [], None, "ingest", 2,
        "training.lr: expected a number, got True"),
    "int-as-a-string": (
        lambda tmp, fx: {"grid": {"n_x": "16"}}, [], None, "ingest", 2,
        "grid.n_x: expected an integer, got '16'"),
    "edge-mlp-dims-with-a-fraction": (
        lambda tmp, fx: {"model": {"edge_mlp_dims": [10, 32.5, 16]}}, [], None, "ingest", 2,
        "model.edge_mlp_dims: expected a list of integers, got [10, 32.5, 16]"),
    "unknown-key": (lambda tmp, fx: {"nope": 1}, [], None, "ingest", 2, "'nope'"),
    "missing-config": (lambda tmp, fx: tmp / "absent.json", [], None, "ingest", 2, "absent.json"),
    "config-a-directory": (
        _config_file("config.d", None), [], None, "ingest", 2, "config.d is unreadable: Is a directory"),
    "config-not-utf-8": (
        _config_file("latin1.json", b'{"paths": {"data_dir": "caf\xe9"}}'), [], None, "ingest", 2,
        "latin1.json is not UTF-8 text"),
    # a cached match index of another shape: fetch reads it and downloads nothing
    "match-index-row-without-match-id": (
        _match_index('[{"x": 1}]'), [], None, "fetch", 3,
        "matches_2_27.json: not a JSON array of objects with an integer match_id"),
    "match-index-an-object": (
        _match_index('{"a": 1}'), [], None, "fetch", 3,
        "matches_2_27.json: not a JSON array of objects with an integer match_id"),
    "match-index-empty-object": (
        _match_index("{}"), [], None, "fetch", 3,
        "matches_2_27.json: not a JSON array of objects with an integer match_id"),
    "match-index-not-utf-8": (
        _match_index('[{"match_id": 1, "home_team": "Fran\xe7a"}]'), [], None, "fetch", 3,
        "matches_2_27.json is not UTF-8 text"),
    # an OS error on a path the run writes under
    "artifacts-dir-under-a-file": (
        _artifacts_under_a_file, [], None, "ingest", 3,
        "plain/artifacts/manifest.json: Not a directory"),
    "missing-artifact": (lambda tmp, fx: {}, ["ingest"], None, "train", 3, "build-graphs"),
    "missing-roles-csv": (
        lambda tmp, fx: {"paths": {"roles_csv": str(tmp / "absent_roles.csv")}},
        ["ingest", "xt-fit"], None, "build-graphs", 3, "absent_roles.csv"),
    "non-numeric-stats-cell": (
        _bad_stats_cell("n/a"), ["ingest", "xt-fit"], None, "build-graphs", 3, "bad.csv:2"),
    "non-finite-stats-cell": (
        _bad_stats_cell("nan"), ["ingest", "xt-fit"], None, "build-graphs", 3,
        "bad.csv:2: goals=nan is not finite"),
    # a stray JSON file among the event files, and an event row that does not convert
    "events-file-not-an-array": (
        _events_dir("config.json", lambda rows: '{"a": 1}'), [], None, "ingest", 3,
        "config.json: not a JSON array of event objects"),
    "events-file-array-of-numbers": (
        _events_dir("config.json", lambda rows: "[1, 2]"), [], None, "ingest", 3,
        "config.json: not a JSON array of event objects"),
    "events-row-team-id-not-a-number": (
        _events_dir("9001.json", _row_with(3, team={"id": "home"})), [], None, "ingest", 3,
        "9001.json: row 3: ValueError"),
    "events-row-location-nan": (
        _events_dir("9001.json", _row_with(0, location=[float("nan"), 40.0])), [], None, "ingest",
        3, "9001.json: row 0: ValueError: location [nan, 40.0] is not finite"),
    # inputs that are not UTF-8 text
    "events-file-not-utf-8": (
        _events_only(b'[{"type": {"name": "Pass"}, "player": {"name": "Jos\xe9"}}]'), [], None,
        "ingest", 3, "9001.json is not UTF-8 text"),
    "stats-csv-not-utf-8": (
        _bad_stats_cell("\xe9"), ["ingest", "xt-fit"], None, "build-graphs", 3,
        "bad.csv is not UTF-8 text"),
    "roles-csv-not-utf-8": (
        _bad_roles_row("101,D\xe9fenseur"), ["ingest", "xt-fit"], None, "build-graphs", 3,
        "bad_roles.csv is not UTF-8 text"),
    # event files without an on-ball row: nothing for xt-fit to fit
    "events-without-on-ball-actions": (
        _events_only(json.dumps([{"type": {"name": "Starting XI"}, "team": {"id": 1}}]).encode()),
        [], None, "ingest", 3, "events: its event files hold no on-ball actions"),
    # rows without a match_id take the file's: two files of one match id would merge
    "events-files-of-one-match-id": (
        _events_named([("a.json", "9001.json"), ("b.json", "9002.json")]), [], None, "ingest", 3,
        "a.json and b.json both hold match 0; name each event file by its match id"),
    "events-file-ids-with-a-leading-zero": (
        _events_named([("9001.json", "9001.json"), ("09001.json", "9002.json")]), [], None, "ingest",
        3, "09001.json and 9001.json both hold match 9001; name each event file by its match id"),
    "roles-player-id-not-an-integer": (
        _bad_roles_row("abc,GK"), ["ingest", "xt-fit"], None, "build-graphs", 3,
        "bad_roles.csv:2: player_id 'abc' is not an integer"),
    # the fixture's second row is player 102: a first row of 102 repeats it
    "roles-duplicate-player-id": (
        _bad_roles_row("102,FW"), ["ingest", "xt-fit"], None, "build-graphs", 3,
        "bad_roles.csv:3: duplicate player id 102"),
    # a stats id read through float would load as player 101 and player 1000
    "stats-player-id-a-fraction": (
        _bad_stats_cell("0", player_id="101.7"), ["ingest", "xt-fit"], None, "build-graphs", 3,
        "bad.csv:2: player_id '101.7' is not an integer"),
    "stats-player-id-in-exponent-form": (
        _bad_stats_cell("0", player_id="1e3"), ["ingest", "xt-fit"], None, "build-graphs", 3,
        "bad.csv:2: player_id '1e3' is not an integer"),
    "truncated-manifest": (
        lambda tmp, fx: {}, ["ingest", "xt-fit", "build-graphs"], _truncate_manifest,
        "build-graphs", 0, "manifest.json"),
    # a manifest that parses, with entries of another shape than a run writes
    "manifest-stage-entry-a-string": (
        lambda tmp, fx: {}, ["ingest", "xt-fit", "build-graphs"],
        _edit_manifest(lambda entry: "done"), "build-graphs", 0, "manifest.json"),
    # a stage entry is the table of its outputs' records: here a list of their paths
    "manifest-stage-outputs-a-list": (
        lambda tmp, fx: {}, ["ingest", "xt-fit", "build-graphs"], _edit_manifest(list),
        "build-graphs", 0, "manifest.json"),
    "manifest-record-without-sha256": (
        lambda tmp, fx: {}, ["ingest", "xt-fit", "build-graphs"],
        _edit_manifest(_each_record(lambda record: {k: v for k, v in record.items() if k != "sha256"})),
        "build-graphs", 0, "manifest.json"),
    "manifest-record-inputs-a-list": (
        lambda tmp, fx: {}, ["ingest", "xt-fit", "build-graphs"],
        _edit_manifest(_each_record(lambda record: {**record, "inputs": list(record["inputs"])})),
        "build-graphs", 0, "manifest.json"),
    # two fixture matches at split_frac 0.8: both land in train
    "empty-split": (
        lambda tmp, fx: {"training": {"split_unit": "match"}}, TRAINED[:3], None, "train", 2,
        "training.split_unit 'match' splits 400 graphs into 400 train and 0 val"),
    # no manifest to name the graphs it was trained on: the node width catches it
    "checkpoint-of-narrower-graphs": (
        lambda tmp, fx: {}, TRAINED, _without_manifest(_rebuild_graphs(append_centrality_features=True)),
        "evaluate", 3, "model_gcn.ckpt does not fit the graphs; run train again"),
    # an input made from another version of a file the stage reads too
    "checkpoint-of-other-graphs": (
        lambda tmp, fx: {}, TRAINED, _rebuild_graphs(window_k=5), "evaluate", 3,
        "{art}/model_gcn.ckpt was made from another {art}/graphs.ndjson; run train again"),
    # the other variant's run records its own files; gcn's records stay
    "checkpoint-of-other-graphs-after-gat": (
        lambda tmp, fx: {}, TRAINED,
        _in_turn(_run_again("train", _as_variant("gat")), _rebuild_graphs(window_k=5)), "evaluate", 3,
        "{art}/model_gcn.ckpt was made from another {art}/graphs.ndjson; run train again"),
    "outputs-of-other-graphs-after-gat": (
        lambda tmp, fx: {}, TRAINED + ["evaluate"],
        _in_turn(
            _run_again("train", _as_variant("gat")),
            _run_again("evaluate", _as_variant("gat")),
            _rebuild_graphs(append_centrality_features=True),
        ),
        "attribute", 3,
        "{art}/outputs_gcn was made from another {art}/graphs.ndjson; run evaluate again"),
    "grid-of-other-actions": (
        lambda tmp, fx: {}, TRAINED[:3], _run_again("ingest", _one_match), "build-graphs", 3,
        "{art}/xt_grid.json was made from another {art}/actions.ndjson; run xt-fit again"),
    # no recorded digest to catch it before the reader
    "grid-values-nan": (
        lambda tmp, fx: {}, TRAINED[:3], _without_manifest(_nan_grid_values), "build-graphs", 3,
        "xt_grid.json (zone values must be finite numbers in [0, 1]); run xt-fit again"),
    # a parameter gone, and no recorded digest to catch it before the reader
    "checkpoint-missing-a-parameter": (
        lambda tmp, fx: {}, TRAINED, _drop_parameter("gcn.L1.b"), "evaluate", 3,
        "model_gcn.ckpt (state missing parameters: ['gcn.L1.b']); run train again"),
    # a NaN payload used to leave evaluate with exit 4 and attribute with nan shares
    "checkpoint-weight-nan": (
        lambda tmp, fx: {}, TRAINED, _nan_entry("model_gcn.ckpt", "gcn.L0.W"), "evaluate", 3,
        "model_gcn.ckpt (tensor gcn.L0.W holds NaN or Inf); run train again"),
    "outputs-prediction-nan": (
        lambda tmp, fx: {}, TRAINED + ["evaluate"], _nan_entry("outputs_gcn", "predictions"),
        "attribute", 3, "outputs_gcn (tensor predictions holds NaN or Inf); run evaluate again"),
    "outputs-of-other-graphs": (
        lambda tmp, fx: {}, TRAINED + ["evaluate"], _rebuild_graphs(window_k=5), "attribute", 3,
        "{art}/outputs_gcn was made from another {art}/graphs.ndjson; run evaluate again"),
    # damaged stores whose digest build-graphs recorded: the reader must catch them
    "store-line-removed": (
        lambda tmp, fx: {}, TRAINED[:3], _damage_store(lambda lines: lines[:100] + lines[101:]),
        "train", 3, "event 101 of match 9001 where event 100 was due); run build-graphs again"),
    "store-node-ids-altered": (
        lambda tmp, fx: {}, TRAINED[:3], _damage_store(_edit_line(50, _relabel(node_ids=[101]))),
        "train", 3, "graphs.ndjson:51: node_ids differ from the rebuilt window); run build-graphs"),
    "store-emptied": (
        lambda tmp, fx: {}, TRAINED[:3], _damage_store(lambda lines: []),
        "train", 3, "graphs.ndjson: no graphs); run build-graphs again"),
    "store-schema-1-line": (
        lambda tmp, fx: {}, TRAINED[:3], _damage_store(_edit_line(10, _relabel(schema_version=1))),
        "train", 3, "graphs.ndjson:11: schema version 1); run build-graphs again"),
    "store-feature-row-not-finite": (
        lambda tmp, fx: {}, TRAINED[:3], _damage_store(_edit_line(0, _nan_feature)), "train", 3,
        "graphs.ndjson (graph 9001:0: non-finite node features); run build-graphs again"),
    # used to reach training and exit 4 naming no file
    "store-edge-row-not-finite": (
        lambda tmp, fx: {}, TRAINED[:3], _damage_store(_edit_line(3, _nan_edge)), "train", 3,
        "graphs.ndjson (graph 9001:3: non-finite edge features); run build-graphs again"),
    "store-clock-not-finite": (
        lambda tmp, fx: {}, TRAINED[:3],
        _damage_store(_edit_line(3, _edit_meta(clock=float("inf")))), "train", 3, "graphs.ndjson (graph 9001:3: non-finite clock); run build-graphs again"),
    # a run that diverged before its first epoch ended leaves no model to evaluate
    "train-diverged-in-its-first-epoch": (
        lambda tmp, fx: {"training": {"lr": 1e150}}, TRAINED[:3], _train_diverges, "evaluate", 3,
        "missing {art}/model_gcn.ckpt; run train first"),
    # nor does one that diverged after finishing an epoch (epoch 2 overflows at this lr)
    "train-diverged-in-a-later-epoch": (
        lambda tmp, fx: {"training": {"lr": 1e6, "epochs": 6}}, TRAINED[:3], _train_diverges,
        "evaluate", 3, "missing {art}/model_gcn.ckpt; run train first"),
    # damaged action rows whose digest ingest recorded: read_actions must catch them
    "actions-key-missing": (
        lambda tmp, fx: {}, TRAINED[:3], _damage_actions(_edit_line(7, _drop_key("end_x"))),
        "xt-fit", 3, "actions.ndjson:8: not a 12-attribute action row); run ingest again"),
    "actions-key-extra": (
        lambda tmp, fx: {}, TRAINED[:3], _damage_actions(_edit_line(7, _relabel(receiver_id=102))),
        "xt-fit", 3, "actions.ndjson:8: not a 12-attribute action row); run ingest again"),
    "actions-json-array-line": (
        lambda tmp, fx: {}, TRAINED[:3],
        _damage_actions(_edit_line(7, lambda d: json.dumps(list(d.values())) + "\n")),
        "xt-fit", 3, "actions.ndjson:8: not a 12-attribute action row); run ingest again"),
    "actions-null-coordinate": (
        lambda tmp, fx: {}, TRAINED[:3], _damage_actions(_edit_line(7, _relabel(start_x=None))),
        "xt-fit", 3, "actions.ndjson:8: start_x None is not a finite number); run ingest again"),
    "actions-unknown-action-type": (
        lambda tmp, fx: {}, TRAINED[:3],
        _damage_actions(_edit_line(7, _relabel(action_type="kick"))), "xt-fit", 3,
        "actions.ndjson:8: action_type 'kick' is not a SPADL action type); run ingest again"),
    "outputs-missing-a-prediction": (
        lambda tmp, fx: {}, TRAINED + ["evaluate"], _drop_last("predictions"), "attribute", 3,
        "outputs_gcn (predictions: 399 entries for 400 events); run evaluate again"),
    "outputs-missing-a-norm": (
        lambda tmp, fx: {}, TRAINED + ["evaluate"], _drop_last("norms"), "attribute", 3,
        "outputs_gcn (norms: 1383 entries for 1384 nodes); run evaluate again"),
    "store-actor-team-not-int": (
        lambda tmp, fx: {}, TRAINED + ["evaluate"],
        _damage_store_under_outputs(_edit_line(5, _edit_meta(actor_team=1001.0))), "attribute", 3,
        "graphs.ndjson:6: meta actor_team 1001.0 is not an integer); run build-graphs again"),
    # the window sizes a sweep may take are the ones window_k may
    "ablate-k-negative": (
        lambda tmp, fx: {}, TRAINED[:2], None, "ablate --k-values=-1", 2,
        "ablate: k_values must be in [0, 50], got -1"),
    "ablate-k-over-the-bound": (
        lambda tmp, fx: {}, TRAINED[:2], None, "ablate --k-values=3,60", 2,
        "ablate: k_values must be in [0, 50], got 60"),
    # a repeated window size would write each of its columns twice
    "ablate-k-repeated": (
        lambda tmp, fx: {}, TRAINED[:2], None, "ablate --k-values=1,1", 2,
        "ablate: k_values must be distinct, got 1 again"),
    # real matches with substitutes hold more players than a graph may
    "window-over-the-node-bound": (
        _forty_actors(window_k=30), TRAINED[:2], None, "build-graphs", 2,
        "window_k 30: graph 9001:21: 23 nodes, more than the 22 a graph holds; lower window_k"),
    "ablate-window-over-the-node-bound": (
        _forty_actors(), TRAINED[:2], None, "ablate --k-values=30", 2,
        "window_k 30: graph 9001:21: 23 nodes, more than the 22 a graph holds; lower window_k"),
    # refused before k=1 trains (test_ablate_refuses_a_later_window_before_any_training)
    "ablate-later-window-over-the-node-bound": (
        _forty_actors(), TRAINED[:2], None, "ablate --k-values=1,30", 2,
        "window_k 30: graph 9001:21: 23 nodes, more than the 22 a graph holds; lower window_k"),
    # ingest refused a new data_dir; the sweep must not run on the earlier corpus
    "ablate-actions-of-another-data-dir": (
        lambda tmp, fx: {}, TRAINED[:3], _refused("ingest", _no_on_ball_events),
        "ablate --k-values=1", 3,
        "{art}/actions.ndjson was made under another ingest config; run ingest again"),
    # plot-case refuses an edited input as a stage does, and names who writes a missing share
    "plot-case-shares-edited": (
        lambda tmp, fx: {}, ALL_STAGES, _edit_lines("shares.csv", _without_event("9001:12")),
        "plot-case --match 9001 --start 10 --end 14", 3,
        "{art}/shares.csv changed since attribute wrote it; run attribute again"),
    "plot-case-event-missing": (
        lambda tmp, fx: {}, ALL_STAGES, _damage_lines("shares.csv", _without_event("9001:12")),
        "plot-case --match 9001 --start 10 --end 14", 3,
        "{art}/shares.csv: event 9001:12 (player 103) has no share; run attribute again"),
    "store-node-ids-emptied": (
        lambda tmp, fx: {}, TRAINED + ["evaluate"],
        _damage_store_under_outputs(_edit_line(5, _relabel(node_ids=[]))), "attribute", 3,
        "graphs.ndjson:6: node_ids [] are not player ids); run build-graphs again"),
}


@pytest.mark.parametrize("case", sorted(FAILURE_CASES))
def test_failures_exit_with_their_code_and_one_line(case, tmp_path, fixture_dir, caplog):
    overrides, before, damage, stage, code, named = FAILURE_CASES[case]
    made = overrides(tmp_path, fixture_dir)
    config = made if isinstance(made, Path) else write_config(tmp_path, fixture_dir, made)
    named = named.replace("{art}", str(tmp_path / "artifacts"))
    for earlier in before:
        assert cli.main(["--config", str(config), "--quiet", earlier]) == 0
    graphs_before = (tmp_path / "artifacts" / "graphs.ndjson").read_bytes() if damage else None
    if damage:
        damage(tmp_path)
    caplog.clear()
    assert cli.main(["--config", str(config), "--quiet", *stage.split()]) == code
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    if code:
        assert len(errors) == 1 and named in errors[0], errors
        assert "\n" not in errors[0]
        return
    # exit 0: one warning, then a clean rebuild with an intact manifest
    assert errors == []
    warnings = [r.getMessage() for r in caplog.records if named in r.getMessage()]
    assert len(warnings) == 1, warnings
    manifest = json.loads((tmp_path / "artifacts" / "manifest.json").read_text())
    assert set(manifest["stages"]) == {stage}
    assert (tmp_path / "artifacts" / "graphs.ndjson").read_bytes() == graphs_before


def test_ablate_refuses_a_later_window_before_any_training(tmp_path, fixture_dir, monkeypatch):
    config = write_config(tmp_path, fixture_dir, _forty_actors()(tmp_path, fixture_dir))
    for stage in TRAINED[:2]:
        assert cli.main(["--config", str(config), "--quiet", stage]) == 0
    trained = []
    monkeypatch.setattr(models, "train", lambda *args: trained.append(args))
    assert cli.main(["--config", str(config), "--quiet", "ablate", "--k-values=1,30"]) == 2
    assert trained == []
    assert list((tmp_path / "artifacts").glob("ablation_*")) == []


def test_ingest_of_no_on_ball_actions_writes_no_actions_file(tmp_path, fixture_dir, caplog):
    overrides = FAILURE_CASES["events-without-on-ball-actions"][0](tmp_path, fixture_dir)
    config = write_config(tmp_path, fixture_dir, overrides)
    assert cli.main(["--config", str(config), "--quiet", "ingest"]) == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == [
        f"paths.data_dir {tmp_path / 'events'}: its event files hold no on-ball actions"
    ]
    assert not (tmp_path / "artifacts" / "actions.ndjson").exists()


def test_input_made_under_another_config_is_refused(tmp_path, fixture_dir, caplog):
    assert cli.main(["--config", str(write_config(tmp_path, fixture_dir)), "--quiet", "ingest"]) == 0
    overrides = FAILURE_CASES["events-without-on-ball-actions"][0](tmp_path, fixture_dir)
    other = write_config(tmp_path, fixture_dir, overrides, name="other.json")
    assert cli.main(["--config", str(other), "--quiet", "ingest"]) == 3
    # the earlier corpus is still on disk, made under the other data_dir
    caplog.clear()
    assert cli.main(["--config", str(other), "--quiet", "xt-fit"]) == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    actions = tmp_path / "artifacts" / "actions.ndjson"
    assert errors == [f"{actions} was made under another ingest config; run ingest again"]
    assert not (tmp_path / "artifacts" / "xt_grid.json").exists()


def test_config_change_trips_only_the_stages_it_covers(tmp_path, fixture_dir, caplog):
    config = write_config(tmp_path, fixture_dir)
    for stage in ("ingest", "xt-fit"):
        assert cli.main(["--config", str(config), "--quiet", stage]) == 0
    longer = write_config(tmp_path, fixture_dir, {"training": {"epochs": 3}}, name="longer.json")
    for stage in ("xt-fit", "build-graphs", "train"):
        assert cli.main(["--config", str(longer), "--quiet", stage]) == 0
    # the checkpoint was trained under the other epochs
    caplog.clear()
    assert cli.main(["--config", str(config), "--quiet", "evaluate"]) == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    ckpt = tmp_path / "artifacts" / "model_gcn.ckpt"
    assert errors == [f"{ckpt} was made under another train config; run train again"]


def test_grid_over_the_zone_bound_exits_before_any_fit(tmp_path, fixture_dir, monkeypatch):
    assert cli.main(["--config", str(write_config(tmp_path, fixture_dir)), "--quiet", "ingest"]) == 0
    fits = []
    monkeypatch.setattr(cli.xt, "fit_grid", lambda *args, **kwargs: fits.append(args))
    config = write_config(tmp_path, fixture_dir, {"grid": {"n_x": 200, "n_y": 200}}, name="big.json")
    assert cli.main(["--config", str(config), "--quiet", "xt-fit"]) == 2
    assert fits == []


# artifact, the stage that reads it, the stage that writes it
READ_ARTIFACTS = [
    ("actions.ndjson", "xt-fit", "ingest"),
    ("xt_grid.json", "build-graphs", "xt-fit"),
    ("graphs.ndjson", "train", "build-graphs"),
    ("model_gcn.ckpt", "evaluate", "train"),
    ("outputs_gcn", "attribute", "evaluate"),
    ("player_totals.csv", "rank", "attribute"),
]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory, fixture_dir):
    base = tmp_path_factory.mktemp("finished")
    config = write_config(base, fixture_dir)
    cli.run_pipeline(cli.load_config(config), ALL_STAGES)
    return config, base / "artifacts"


def _run_with(config, path, content, stage, caplog):
    """Exit code and ERROR lines of ``stage`` with ``path`` holding ``content``."""
    intact = path.read_bytes()
    path.write_bytes(content)
    caplog.clear()
    try:
        code = cli.main(["--config", str(config), "--quiet", stage])
    finally:
        path.write_bytes(intact)
    return code, [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]


@pytest.mark.parametrize("artifact,stage,producer", READ_ARTIFACTS)
@given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_truncated_artifact_exits_3_naming_its_stage(
    finished_run, artifact, stage, producer, fraction, caplog
):
    config, art = finished_run
    path = art / artifact
    cut = path.read_bytes()[: int(path.stat().st_size * fraction)]
    code, errors = _run_with(config, path, cut, stage, caplog)
    assert code == 3
    assert len(errors) == 1 and str(path) in errors[0], errors
    assert f"run {producer} again" in errors[0] and "\n" not in errors[0]


@pytest.mark.parametrize("artifact,stage,producer", READ_ARTIFACTS)
def test_unreadable_artifact_without_manifest_exits_3(
    finished_run, artifact, stage, producer, caplog
):
    config, art = finished_run
    manifest = art / "manifest.json"
    path = art / artifact
    half = path.read_bytes()[: path.stat().st_size // 2]
    kept = manifest.read_bytes()
    manifest.unlink()
    try:
        code, errors = _run_with(config, path, half, stage, caplog)
    finally:
        manifest.write_bytes(kept)
    assert code == 3
    assert len(errors) == 1 and f"unreadable {path}" in errors[0], errors
    assert f"run {producer} again" in errors[0] and "\n" not in errors[0]


def _split_heads(path, heads):
    """Rewrite a gat checkpoint in the per-head layout: column block m of
    ``gat.L<l>.<leaf>`` as its own tensor ``gat.L<l>.H<m>.<leaf>``."""
    manifest, arrays = ckpt_io.load_container(path)
    stored = {}
    for name, arr in arrays.items():
        if not name.startswith("gat."):
            stored[name] = arr
            continue
        prefix, leaf = name.rsplit(".", 1)
        for m, block in enumerate(np.split(arr, heads, axis=1)):
            stored[f"{prefix}.H{m}.{leaf}"] = block
    ckpt_io.save_container(path, manifest, stored)


def test_checkpoint_of_the_per_head_layout_is_trained_again(
    tmp_path, fixture_dir, monkeypatch, caplog
):
    config = write_config(tmp_path, fixture_dir, {"model": {"variant": "gat"}})
    cfg = cli.load_config(config)
    ap = cli.artifact_paths(cfg)
    # a run as the per-head layout left it: its records and its checkpoint
    monkeypatch.setattr(models, "PARAMS_LAYOUT", 1)
    cli.run_pipeline(cfg, ALL_STAGES[:5])
    outputs = ap["outputs"].read_bytes()
    _split_heads(ap["checkpoint"], cfg.model.n_heads)
    _record_digest(tmp_path, ap["checkpoint"])
    monkeypatch.undo()

    # the layout is part of train's config: the record's config digest catches it
    caplog.clear()
    assert cli.main(["--config", str(config), "--quiet", "evaluate"]) == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == [f"{ap['checkpoint']} was made under another train config; run train again"]

    # a manifest of that layout predates the records' config digest, so it reads as
    # unreadable and every stage runs again: the checkpoint reader catches it
    run = json.loads(ap["manifest"].read_text())
    for entry in run["stages"].values():
        for record in entry.values():
            del record["config"]
    ap["manifest"].write_text(json.dumps(run))
    caplog.clear()
    assert cli.main(["--config", str(config), "--quiet", "evaluate"]) == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == [
        f"unreadable {ap['checkpoint']} (state missing parameters: "
        "['gat.L0.W', 'gat.L0.a', 'gat.L1.W', 'gat.L1.a']); run train again"
    ]
    assert cli.run_pipeline(cfg, ["train"])["train"]
    assert cli.run_pipeline(cfg, ["evaluate"])["evaluate"]
    assert ap["outputs"].read_bytes() == outputs


def test_failed_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")

    def crash(tmp):
        tmp.write_text("half")
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError):
        cli._write_atomic(path, crash)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_player_team_is_the_most_frequent_ties_to_the_lower_id():
    from types import SimpleNamespace

    events = [
        SimpleNamespace(
            node_ids=[pid, 11], label=0.1, meta={"match_id": 1, "actor_id": pid, "actor_team": team}
        )
        for pid, team in zip([7, 7, 7, 7, 9, 9, 9], [2, 1, 2, 1, 4, 3, 4])
    ]
    _, players, _ = credit.build_ledger(events, np.zeros(7), np.ones(14))
    # a player who never acted has no team
    assert {p.player_id: p.team_id for p in players} == {7: 1, 9: 4, 11: None}


class TestDeterminism:
    def test_identical_runs_have_identical_ranking_bytes(self, tmp_path, fixture_dir):
        outputs = []
        for sub in ("one", "two"):
            base = tmp_path / sub
            base.mkdir()
            config = write_config(base, fixture_dir)
            cfg = cli.load_config(config)
            cli.run_pipeline(cfg, ALL_STAGES)
            svg = cli.plot_case(cfg, match_id=9001, start=10, end=13)
            rankings = (base / "artifacts" / "rankings_total_overall.csv").read_bytes()
            outputs.append((rankings, svg.read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]


class TestAblate:
    def test_single_k_tables(self, tmp_path, fixture_dir):
        config = write_config(tmp_path, fixture_dir, overrides={"training": {"epochs": 1}})
        cfg = cli.load_config(config)
        cli.run_pipeline(cfg, ["ingest", "xt-fit"])
        cells = cli.ablate(cfg, [1])
        assert set(cells) == {(v, 1) for v in ("gcn", "gat", "transformer")}
        for metric in ("mae", "mse", "combined"):
            path = tmp_path / "artifacts" / f"ablation_{metric}.csv"
            lines = path.read_text().splitlines()
            assert lines[0] == "model,train_k1,val_k1"
            assert [line.split(",")[0] for line in lines[1:]] == ["gcn", "gat", "transformer", "train_mean"]
            # the train-mean constant misses every label by something
            assert all(float(v) > 0 for v in lines[-1].split(",")[1:])
        # combined = mae + mse, cell by cell
        for (variant, k), cell in cells.items():
            for block in ("train", "val"):
                assert cell[block]["combined"] == pytest.approx(
                    cell[block]["mae"] + cell[block]["mse"], abs=1e-12
                )

    def test_diverged_cells_are_failed(self, tmp_path, fixture_dir, caplog):
        overrides = {"training": {"epochs": 1, "lr": 1e150}}
        config = write_config(tmp_path, fixture_dir, overrides=overrides)
        for stage in ("ingest", "xt-fit"):
            assert cli.main(["--config", str(config), "--quiet", stage]) == 0
        caplog.clear()
        assert cli.main(["--config", str(config), "--quiet", "ablate", "--k-values=1,3"]) == 0
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 6, errors  # one for each of three variants at each k
        assert all("failed: training diverged in epoch 1: " in e for e in errors), errors
        for metric in ("mae", "mse", "combined"):
            lines = (tmp_path / "artifacts" / f"ablation_{metric}.csv").read_text().splitlines()
            assert lines[1:4] == [f"{v},failed,failed,failed,failed" for v in models.VARIANTS]
            assert lines[4].startswith("train_mean,") and "failed" not in lines[4]

    def test_empty_k_values_rejected(self, tmp_path, fixture_dir):
        cfg = cli.load_config(write_config(tmp_path, fixture_dir))
        with pytest.raises(cli.ConfigError):
            cli.ablate(cfg, [])


def make_action(player=1, start=(10.0, 20.0), end=(40.0, 30.0)):
    return SpadlAction(
        game_id=1, period=1, time_s=0.0, team_id=1, player_id=player,
        action_type="pass", body_part="foot", result="success",
        start_x=start[0], start_y=start[1], end_x=end[0], end_y=end[1],
    )


class TestCasePlot:
    def test_four_actions_four_arrows_four_labels(self):
        rows = [(make_action(player=i), 0.01 * i) for i in range(1, 5)]
        text = viz.render_case_svg(rows)
        assert text.count("<polygon") == 4
        for i in range(1, 4):
            assert f"P{i} +0.0{i}0" in text

    def test_empty_sequence_is_pitch_only(self):
        text = viz.render_case_svg([])
        assert text.count("<polygon") == 0
        assert "<svg" in text and "0 actions" in text

    def test_byte_identical_for_identical_input(self):
        svgs = [viz.render_case_svg([(make_action(), 0.025)]) for _ in range(2)]
        assert svgs[0] == svgs[1]

    def test_out_of_pitch_coordinates_flagged(self):
        rows = [(make_action(start=(-5.0, 20.0)), 0.01)]
        text = viz.render_case_svg(rows)
        assert "clamped" in text

    def test_plot_case_range_validation(self, tmp_path, fixture_dir):
        config = write_config(tmp_path, fixture_dir)
        cfg = cli.load_config(config)
        cli.run_pipeline(cfg, ALL_STAGES)
        with pytest.raises(cli.ConfigError):
            cli.plot_case(cfg, match_id=9001, start=5, end=100000)
        with pytest.raises(cli.MissingArtifactError):
            cli.plot_case(cfg, match_id=1234, start=0, end=1)

    def test_case_report_values_in_labels(self, tmp_path, fixture_dir):
        config = write_config(tmp_path, fixture_dir)
        cfg = cli.load_config(config)
        cli.run_pipeline(cfg, ALL_STAGES)
        svg = cli.plot_case(cfg, match_id=9001, start=0, end=3)
        shares = cli._load_shares(cli.artifact_paths(cfg)["shares"])
        from threatshare import ingest

        actions = ingest.read_actions(cli.artifact_paths(cfg)["actions"])
        stream = ingest.group_by_match(actions)[9001]
        text = svg.read_text()
        for offset, action in enumerate(stream[0:4]):
            share = shares[(f"9001:{offset}", action.player_id)]
            assert f"P{action.player_id} {share:+.3f}" in text


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# A step's array freed as soon as it is made, as a training step frees its
# tape: under the default glibc policy each round faults its pages in again.
FAULT_PROBE = """
import resource, sys
import numpy as np
from threatshare import cli

assert cli.main(["--config", sys.argv[1], "--quiet", "ingest"]) == 2
rng = np.random.default_rng(0)
x = rng.standard_normal((500, 64))
w = rng.standard_normal((64, 128))
b = rng.standard_normal((1, 128))


def step():
    x @ w + b


for _ in range(10):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 200)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_main_keeps_freed_arrays_for_the_next_step(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE, str(tmp_path / "absent.json")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1.0


def _no_c_library(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize(
    "cdll", [_no_c_library, lambda name: object()], ids=["oserror", "no-mallopt"]
)
def test_main_runs_without_mallopt(cdll, tmp_path, fixture_dir, monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli.main(["--config", str(write_config(tmp_path, fixture_dir)), "--quiet", "ingest"]) == 0
    assert (tmp_path / "artifacts" / "actions.ndjson").is_file()
