#!/usr/bin/env python3
"""Full garbage collections inside each timed stage of a benchmark workload.

    python3 scripts/gc_probe.py WORKLOAD [--seed N] [--runs N] [--root ROOT]

Prepares one set-up of WORKLOAD (``train``, ``season-graphs`` or
``wide-attribute``) in a temporary directory with ROOT's
``bench/stages.py``, exactly as the benchmark does (kind ``setup``, same
seed, parameters and environment). Then, per run, it copies that set-up
and runs the workload's timed stages in one fresh process through
``threatshare.cli.main``, as the benchmark's stage process calls them, with
a ``gc.callbacks`` hook: ``stages.run_stages`` runs them, as in the
benchmark's stage process, reference clock included. It prints one line
per stage: its exit code, its raw and reference-speed CPU seconds, the
generation-2 (full) collections that ran inside it with their raw CPU
seconds, and the interpreter's generation-2 counter against its threshold
when the stage ends; then the process's peak RSS.

A full collection costs tens of milliseconds on these heaps, and whether
one falls inside a timed stage depends on how many objects the stages
before it allocated; read a benchmark step of that size against this.
ROOT defaults to this checkout; point it at another checkout to probe that
one with its own ``src/`` and ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def _bench(root: Path):
    """ROOT's ``bench/run.py``, imported read-only."""
    sys.path.insert(0, str(root / "bench"))
    import run

    return run


def _env(root: Path, run) -> dict:
    """The environment the benchmark gives its child processes."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
    for var in run.BLAS_ENV:
        env[var] = "1"
    return env


def _set_up(root: Path, run, workload: str, seed: int, base: Path) -> None:
    out = base.parent / "setup.json"
    spec = {
        "kind": "setup",
        "workload": workload,
        "root": str(root),
        "dir": str(base),
        "seed": seed,
        "params": run.WORKLOADS[workload],
        "trace": False,
        "out": str(out),
    }
    spec_path = base.parent / "setup.spec.json"
    spec_path.write_text(json.dumps(spec))
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "stages.py"), str(spec_path)],
        cwd=root, env=_env(root, run), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if done.returncode:
        sys.exit(f"set-up of {workload} exited {done.returncode}: {done.stderr.strip()}")


def _probe(root: Path, workload: str, run_dir: Path) -> None:
    """Time the stages here, in this fresh process, as the benchmark's stage
    process does (``stages.run_stages``), and print a line per stage."""
    import gc
    import time

    sys.path.insert(0, str(root / "bench"))
    import stages

    os.chdir(run_dir)
    labels = iter([f"{variant}/{stage}" for variant, stage, _ in stages.steps(workload)])
    current = {"step": None, "start": 0.0}
    full: dict = {}
    counters = {}
    cli = stages._cli

    def labelled(cfg_path, stage):
        current["step"] = next(labels)
        try:
            return cli(cfg_path, stage)
        finally:
            counters[current["step"]] = gc.get_count()[2]

    def hook(phase, info):
        if info["generation"] != 2:
            return
        if phase == "start":
            current["start"] = time.process_time()
        else:
            full.setdefault(current["step"], []).append(time.process_time() - current["start"])

    stages._cli = labelled
    gc.callbacks.append(hook)
    result = stages.run_stages({"workload": workload, "trace": False})
    gc.callbacks.remove(hook)
    threshold = gc.get_threshold()[2]
    for step in result["steps"]:
        name = f"{step['variant']}/{step['stage']}"
        collections = full.get(name, [])
        print(
            f"{name}: rc {step['rc']}, cpu_s {step['cpu_s']:.4f}, ref_cpu_s {step['ref_cpu_s']:.4f}, "
            f"full collections {len(collections)} "
            f"({' '.join(f'{s:.4f}' for s in collections) or '-'} s), "
            f"gen-2 counter {counters[name]}/{threshold}"
        )
    print(f"peak_rss_mb {result['peak_rss_mb']:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("train", "season-graphs", "wide-attribute"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--root", type=Path, default=HERE)
    parser.add_argument("--probe-in", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.probe_in is not None:
        _probe(root, args.workload, args.probe_in)
        return 0
    run = _bench(root)
    with tempfile.TemporaryDirectory(prefix="gc_probe_") as tmp:
        base = Path(tmp) / "base"
        _set_up(root, run, args.workload, args.seed, base)
        for i in range(args.runs):
            run_dir = Path(tmp) / f"run{i}"
            shutil.copytree(base, run_dir)
            print(f"run {i + 1} of {args.runs} ({root}, {args.workload}, seed {args.seed})", flush=True)
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), args.workload,
                 "--root", str(root), "--probe-in", str(run_dir)],
                cwd=root, env=_env(root, run),
            )
            if done.returncode:
                return done.returncode
            shutil.rmtree(run_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
