"""The run manifest holds what the benchmark reads of it.

``bench/stages.py`` counts a timed step as run when the step's entry,
``manifest["stages"][stage]``, is present after the step and differs from
the one before it. Each timed stage runs for the first time in its
artifacts directory, so a layout change that left a stage's entry absent,
or in another place, would make every step read as skipped without an
error. After each stage's first run in a fresh directory, its entry must
name exactly the files the stage wrote, which are the ones it declares,
each with that file's digest.
"""

import json

from test_cli import ALL_STAGES, write_config

from threatshare import cli


def test_each_stage_records_exactly_the_files_it_declares(tmp_path, fixture_dir):
    config = write_config(tmp_path, fixture_dir, {"training": {"epochs": 1}})
    cfg = cli.load_config(config)
    ap = cli.artifact_paths(cfg)
    art = cfg.paths.artifacts_dir
    for stage in ALL_STAGES:
        if art.exists():
            assert stage not in json.loads(ap["manifest"].read_text())["stages"]
        before = {p: p.read_bytes() for p in art.glob("*")} if art.exists() else {}
        assert cli.main(["--config", str(config), "--quiet", stage]) == 0
        written = {p for p in art.glob("*") if before.get(p) != p.read_bytes()} - {ap["manifest"]}
        declared = {ap[name] for name in cli.STAGES[stage].writes}
        assert written == declared, stage
        entry = json.loads(ap["manifest"].read_text())["stages"][stage]
        assert {path: record["sha256"] for path, record in entry.items()} == {
            str(path): cli._sha_file(path) for path in declared
        }, stage
