"""Child process of the benchmark: prepares a workload or times its stages.

    python3 bench/stages.py SPEC.json

``SPEC.json`` names the ``kind`` (``setup`` or ``stages``), the workload,
the checkout root, the run directory, the seed, the workload parameters and
whether to trace; the result goes to the spec's ``out`` path as JSON. Every
stage goes through ``threatshare.cli.main`` exactly as a user would call it.
The module imports only the standard library at the top, so the parent
process can use the layout helpers without loading the pipeline.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

VARIANTS = ("gcn", "gat", "transformer")

# The train workload keeps the fixture config seed: run.VAL_MSE_REFERENCE was
# recorded with it.
TRAIN_MODEL_SEED = 7

TIMED_STAGES = {
    "train": ("train",),
    "season-graphs": ("ingest", "xt-fit", "build-graphs"),
    "wide-attribute": ("evaluate", "attribute", "rank"),
}


def fixture_dir(root) -> Path:
    return Path(root) / "data" / "fixture"


def _paths(data_dir, stats, roles, artifacts) -> dict:
    return {
        "data_dir": str(data_dir),
        "stats_csv": str(stats),
        "roles_csv": str(roles),
        "artifacts_dir": str(artifacts),
        "cache_dir": str(Path(artifacts) / "cache"),
    }


def config(workload: str, root, seed: int, params: dict, variant: str, artifacts: str) -> dict:
    """The CLI config of one variant's artifacts directory.

    Paths inside the run directory are relative: the child works from the
    run directory, so a copy of it is a complete, independent set-up.
    """
    if workload == "season-graphs":
        corpus = Path("corpus")
        return {
            "paths": _paths(
                corpus / "events", corpus / "player_stats.csv", corpus / "player_roles.csv", artifacts
            ),
            "seed": seed,
        }
    fx = fixture_dir(root)
    paths = _paths(fx, fx / "player_stats.csv", fx / "player_roles.csv", artifacts)
    if workload == "train":
        epochs = params["epochs"]
        return {
            "paths": paths,
            "model": {"variant": variant},
            "training": {"epochs": epochs, "patience": epochs + 1},
            "seed": TRAIN_MODEL_SEED,
        }
    return {
        "paths": paths,
        "window_k": params["window_k"],
        "model": {"variant": variant},
        "training": {"epochs": 1, "patience": 2, "split_frac": params["split_frac"]},
        "seed": seed,
    }


def artifact_dirs(workload: str, run_dir=".") -> dict[str, Path]:
    """Artifacts directory per variant (``-`` when the stages have no variant)."""
    run_dir = Path(run_dir)
    if workload == "season-graphs":
        return {"-": run_dir / "art"}
    return {v: run_dir / v for v in VARIANTS}


def steps(workload: str) -> list[tuple[str, str, Path]]:
    """The timed (variant, stage, config path) invocations, in order."""
    return [
        (variant, stage, art / "config.json")
        for variant, art in artifact_dirs(workload).items()
        for stage in TIMED_STAGES[workload]
    ]


# ── work done in the child ────────────────────────────────────────────────


def _write_config(spec: dict, variant: str, artifacts: Path) -> Path:
    artifacts.mkdir(parents=True, exist_ok=True)
    path = artifacts / "config.json"
    cfg = config(spec["workload"], spec["root"], spec["seed"], spec["params"], variant, str(artifacts))
    path.write_text(json.dumps(cfg, indent=1))
    return path


def _cli(cfg_path: Path, stage: str) -> int:
    from threatshare import cli

    return cli.main(["--config", str(cfg_path), "--quiet", stage])


def _must(cfg_path: Path, stage: str) -> None:
    rc = _cli(cfg_path, stage)
    if rc != 0:
        raise SystemExit(f"setup: {stage} exited {rc} for {cfg_path}")


def setup(spec: dict) -> dict:
    """Corpus generation, graph building and (wide-attribute) training."""
    import refclock
    import season

    workload = spec["workload"]
    clock = refclock.RefClock().start()
    cpu_start = refclock.cpu_seconds()
    if workload == "season-graphs":
        season.write_season("corpus", spec["seed"], spec["params"]["match_lengths"])
        _write_config(spec, "-", artifact_dirs(workload)["-"])
        inputs = Path("corpus")
    else:
        base = _write_config(spec, VARIANTS[0], Path("base"))
        _must(base, "ingest")
        _must(base, "xt-fit")
        if workload == "wide-attribute":
            _must(base, "build-graphs")
        for variant, art in artifact_dirs(workload).items():
            shutil.copytree("base", art)
            cfg = _write_config(spec, variant, art)
            _must(cfg, "train" if workload == "wide-attribute" else "build-graphs")
        shutil.rmtree("base")
        inputs = fixture_dir(spec["root"])
    setup_s, cpu_s = clock.now(), refclock.cpu_seconds() - cpu_start
    clock.stop()
    return {
        "setup_s": setup_s,
        "setup_cpu_s": cpu_s,
        "input_digest": season.tree_digest(inputs),
        "env": _environment(),
    }


def _environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name}


def _stage_entry(cfg_path: Path, stage: str):
    manifest = Path(json.loads(cfg_path.read_text())["paths"]["artifacts_dir"]) / "manifest.json"
    if not manifest.exists():
        return None
    return json.loads(manifest.read_text())["stages"].get(stage)


def run_stages(spec: dict) -> dict:
    """Time every step; a step ran when its manifest entry changed.

    Each step gets its reference-speed CPU seconds (``ref_cpu_s``, see
    ``refclock``), its raw CPU seconds (``cpu_s``, which include the
    clock's samples) and its wall seconds.
    """
    import refclock
    from threatshare import cli  # noqa: F401  (imports stay out of the timings)

    clock = refclock.RefClock()
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(clock.now)
        tracer.install()
    clock.start()
    results = []
    for variant, stage, cfg_path in steps(spec["workload"]):
        before = _stage_entry(cfg_path, stage)
        if tracer is not None:
            tracer.step = f"{variant}/{stage}"
        start, cpu_start, ref_start = time.perf_counter(), refclock.cpu_seconds(), clock.now()
        rc = _cli(cfg_path, stage)
        ref_cpu_s = clock.now() - ref_start
        cpu_s = refclock.cpu_seconds() - cpu_start
        seconds = time.perf_counter() - start
        after = _stage_entry(cfg_path, stage)
        results.append(
            {
                "variant": variant,
                "stage": stage,
                "rc": rc,
                "seconds": seconds,
                "ref_cpu_s": ref_cpu_s,
                "cpu_s": cpu_s,
                "ran": rc == 0 and after is not None and after != before,
            }
        )
    clock.stop()
    out = {
        "steps": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.dump("trace.json")
    return out


def main(argv) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    run_dir = Path(spec["dir"])
    run_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(run_dir)
    result = setup(spec) if spec["kind"] == "setup" else run_stages(spec)
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
