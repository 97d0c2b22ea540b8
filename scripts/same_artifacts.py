#!/usr/bin/env python3
"""List the artifacts two checkouts make differently, byte for byte.

    python3 scripts/same_artifacts.py PARENT_ROOT CHANGE_ROOT

Each checkout's own command line (``python -m threatshare.cli`` over that
root's ``src/``) runs ingest -> rank and one ``plot-case`` for gcn, gat and
the transformer, at the default config, at ``window_k`` 50 and 0, without
weight decay (Adam's other branch) for 3 epochs, for 12 epochs at a short
patience and lr step, split by match, and with the config's other
branches (centrality features, labeled attribution, actor-borne negative
shares), and one ``ablate --k-values=1,3`` sweep at the default config (it
trains every variant itself, so it runs once, into gcn's artifacts), on a
copy of CHANGE_ROOT's bundled fixture. Both sides run in the same run
directory, one after the other, so every path they record is the same; each
side's artifacts are moved aside before the other runs. Every artifact is
compared byte for byte except ``manifest.json``, which is compared with the
run directory written as ``<run>``.

Prints one line per artifact that differs or that one side lacks, then a
count; exits 0 when all are identical, 1 when any differs, and 2 on a
usage error or when a stage fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

VARIANTS = ("gcn", "gat", "transformer")
# window_k 0 makes graphs of 1-2 nodes: the most padding per block in a pack;
# every other config trains with weight decay; sched is the one that does
# not train at the default patience, lr step and lr factor (gcn and the
# transformer stop early under it); alt widens node rows to 13; split is the
# one match split (at the default split_frac both fixture matches land in train)
CONFIGS = {
    "default": {},
    "k50": {"window_k": 50},
    "k0": {"window_k": 0},
    "wd0": {"training": {"weight_decay": 0.0, "epochs": 3}},
    "sched": {"training": {"epochs": 12, "patience": 2, "lr_step": 3, "lr_gamma": 0.9}},
    "split": {"training": {"split_unit": "match", "split_frac": 0.5}},
    "alt": {
        "append_centrality_features": True,
        "attribution_source": "labeled",
        "negative_share_mode": "actor",
    },
}
STAGES = ("ingest", "xt-fit", "build-graphs", "train", "evaluate", "attribute", "rank")
CASE = ("plot-case", "--match", "9001", "--start", "10", "--end", "14")
ABLATE = ("ablate", "--k-values=1,3")


def _fail(message: str) -> None:
    print(message, file=sys.stderr)
    sys.exit(2)


def _run_side(root: Path, run: Path) -> None:
    """Every config and variant through ``root``'s CLI, into ``run``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    fixture = run / "fixture"
    for name, overrides in CONFIGS.items():
        for variant in VARIANTS:
            config = {
                "paths": {
                    "cache_dir": str(run / "cache"),
                    "data_dir": str(fixture),
                    "artifacts_dir": str(run / f"{name}_{variant}"),
                    "stats_csv": str(fixture / "player_stats.csv"),
                    "roles_csv": str(fixture / "player_roles.csv"),
                },
                "model": {"variant": variant},
                **overrides,
            }
            path = run / f"{name}_{variant}.json"
            path.write_text(json.dumps(config))
            commands = [(stage,) for stage in STAGES] + [CASE]
            if (name, variant) == ("default", VARIANTS[0]):
                commands.append(ABLATE)
            for command in commands:
                argv = [sys.executable, "-m", "threatshare.cli", "--config", str(path), "--quiet"]
                done = subprocess.run(
                    [*argv, *command], cwd=run, env=env, capture_output=True, text=True
                )
                if done.returncode:
                    _fail(
                        f"{root}: {' '.join(command)} for {name}/{variant} exited "
                        f"{done.returncode}: {done.stderr.strip()}"
                    )


def _artifacts(side: Path) -> dict[str, Path]:
    return {str(p.relative_to(side)): p for p in sorted(side.rglob("*")) if p.is_file()}


def _content(path: Path, run: Path) -> bytes:
    if path.name == "manifest.json":
        return path.read_text().replace(str(run), "<run>").encode()
    return path.read_bytes()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        _fail(__doc__.split("\n\n")[1])
    parent, change = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as scratch:
        run = Path(scratch) / "run"
        sides = {}
        for label, root in (("parent", parent), ("change", change)):
            run.mkdir()
            shutil.copytree(change / "data" / "fixture", run / "fixture")
            _run_side(root, run)
            shutil.rmtree(run / "fixture")
            sides[label] = Path(scratch) / label
            run.rename(sides[label])
        made = {label: _artifacts(side) for label, side in sides.items()}
        names = sorted(set(made["parent"]) | set(made["change"]))
        differ = 0
        for name in names:
            if name not in made["parent"] or name not in made["change"]:
                side = "change" if name in made["change"] else "parent"
                print(f"{name}: only in {side}")
            elif _content(made["parent"][name], run) != _content(made["change"][name], run):
                print(f"{name}: differs")
            else:
                continue
            differ += 1
    print(f"{len(names) - differ} of {len(names)} artifacts byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
