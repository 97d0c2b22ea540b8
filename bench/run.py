"""threatshare benchmark: three workloads through the CLI stages.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (``src/`` and ``data/fixture`` must be
there; nothing is installed). Workloads:

* ``train``: the bundled fixture (400 graphs); ``train`` for gcn, gat and
  the transformer at their default window (7/7/5). Graph building is set-up.
  ``diffcore`` and ``models`` do almost all the work.
* ``season-graphs``: a 20-team season slice generated from the seed (one
  match of 800 events and one of 1,600, 560 players in the stats CSV);
  ``ingest -> xt-fit -> build-graphs``. ``ingest``, ``xt``, ``graphs`` and
  the CLI's hashing do the work; ``models`` does none.
* ``wide-attribute``: the fixture at ``window_k = 50`` (about 17 nodes a
  graph); ``evaluate -> attribute -> rank`` for each variant, checkpoints
  trained in set-up. Forward passes only, plus ``credit`` and checkpoint
  loads; costs that grow with nodes per graph show here.

Each repetition prepares a fresh run directory in one child process (timed
as ``setup_s``), then runs the timed stages in a second, fresh child (timed,
and its peak RSS taken). A repetition starts only if it should end within
``--seconds``, judged by the mean length of those before it; every metric
is the median over the repetitions. With ``--trace 1`` each repetition
also runs the stages traced, on a copy of the same set-up, and the run
reports the per-layer metrics of ``tracing.PER_LAYER`` plus the tracing
overhead. The last line of standard output is the JSON result; the full
record, and the spans of the first traced repetition, go to ``bench/results/``.

Times are reference-speed CPU seconds (``refclock``). On a shared virtual
machine wall time swings with vCPU steal, and the vCPU's own speed changes
by half within seconds as neighbours load the host; the clock samples a
fixed reference piece every 25 ms of CPU time and scales the pipeline's
CPU time by it, so both cancel. ``ref_cpu_s`` is the sum over the timed
stages of each stage's median over the repetitions. The raw ``cpu_s`` and
``wall_s`` (medians of the repetitions' totals) are printed and recorded,
not gated.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
sys.path.insert(0, str(BENCH_DIR))

import stages  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = {
    "train": {"epochs": 2},
    # one match of each length keeps a repetition short (see the module doc)
    "season-graphs": {"match_lengths": [800, 1600]},
    # a small training split keeps set-up short: only the checkpoints' shapes
    # matter to the timed forward passes
    "wide-attribute": {"window_k": 50, "split_frac": 0.05},
}

# (name, unit, better) of the metrics every workload reports; these are the
# end_to_end metrics of BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ref_cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Final validation MSE of each variant on the fixture, recorded at the
# commit that introduced this benchmark, keyed by epoch count. A later
# change must not make the model worse on the same training budget.
VAL_MSE_REFERENCE = {
    2: {
        "gcn": 0.1377743282677554,
        "gat": 0.10631888733646899,
        "transformer": 0.16631905823825904,
    }
}
VAL_MSE_RTOL = 1e-6
TRAIN_SPLIT = 0.8  # the CLI's default training.split_frac
SHARE_SUM_TOL = 1e-9

RUN_LIMIT_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, crashed child)."""


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _lines(path: Path) -> int:
    with open(path, "rb") as f:
        return sum(1 for line in f if line.strip())


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class Runner:
    """Spawns the child processes of one benchmark run, one at a time."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"
        for var in BLAS_ENV:
            self.env[var] = "1"

    def child(self, kind: str, workload: str, run_dir: Path, seed: int, trace: bool = False) -> dict:
        out = run_dir.parent / f"{run_dir.name}.{kind}{'.traced' if trace else ''}.json"
        spec = {
            "kind": kind,
            "workload": workload,
            "root": str(self.root),
            "dir": str(run_dir),
            "seed": seed,
            "params": WORKLOADS[workload],
            "trace": trace,
            "out": str(out),
        }
        spec_path = out.with_suffix(".spec.json")
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before a child process could start")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "stages.py"), str(spec_path)],
                cwd=self.root,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{kind} of {workload} did not finish in time") from None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise BenchError(f"{kind} of {workload} exited {proc.returncode}: {tail[0]}")
        return json.loads(out.read_text())


# ── output checks ─────────────────────────────────────────────────────────


def check_train(run_dir: Path) -> tuple[list, dict, dict]:
    """(failures, per-rep metrics, digests that must repeat across reps)."""
    epochs = WORKLOADS["train"]["epochs"]
    reference = VAL_MSE_REFERENCE.get(epochs, {})
    failures, metrics, digests = [], {}, {}
    for v, art in stages.artifact_dirs("train", run_dir).items():
        log_path = art / f"train_log_{v}.csv"
        if not log_path.exists():
            failures.append(((v, "train"), f"{log_path.name} missing"))
            continue
        rows = _read_csv(log_path)
        if [int(r["epoch"]) for r in rows] != list(range(1, epochs + 1)):
            failures.append(((v, "train"), f"{v}: trained {len(rows)} of {epochs} epochs"))
        elif any(r["stopped_early"] != "0" for r in rows):
            failures.append(((v, "train"), f"{v}: stopped early"))
        else:
            val_mse = float(rows[-1]["val_mse"])
            metrics[f"val_mse.{v}"] = val_mse
            if not math.isfinite(val_mse):
                failures.append(((v, "train"), f"{v}: val_mse {val_mse}"))
            elif v in reference and val_mse > reference[v] * (1 + VAL_MSE_RTOL):
                failures.append(((v, "train"), f"{v}: val_mse {val_mse!r} worse than {reference[v]!r}"))
        digests[f"train_log_{v}"] = _sha(log_path)
        metrics[f"_graphs.{v}"] = _lines(art / "graphs.ndjson")
    return failures, metrics, digests


def check_season(run_dir: Path) -> tuple[list, dict, dict]:
    art = stages.artifact_dirs("season-graphs", run_dir)["-"]
    expected = sum(WORKLOADS["season-graphs"]["match_lengths"])
    failures = []
    outputs = {name: art / name for name in ("actions.ndjson", "xt_grid.json", "graphs.ndjson")}
    missing = [name for name, p in outputs.items() if not p.exists()]
    if missing:
        return [(("-", "build-graphs"), f"missing {', '.join(missing)}")], {}, {}
    n_actions = _lines(outputs["actions.ndjson"])
    n_graphs = _lines(outputs["graphs.ndjson"])
    if n_actions != expected:
        failures.append((("-", "ingest"), f"{n_actions} actions from {expected} events"))
    if n_graphs != n_actions:
        failures.append((("-", "build-graphs"), f"{n_graphs} graphs for {n_actions} actions"))
    digests = {name: _sha(p) for name, p in outputs.items()}
    return failures, {"_graphs": n_graphs}, digests


def _check_shares(art: Path, v: str) -> list:
    """One share row per graph node; totals equal the per-player share sums."""
    nodes = set()
    with open(art / "graphs.ndjson") as f:
        for line in f:
            if line.strip():
                g = json.loads(line)
                nodes.update((g["event_id"], pid) for pid in g["node_ids"])
    share_rows = _read_csv(art / "shares.csv")
    keys = [(r["event_id"], int(r["player_id"])) for r in share_rows]
    failures = []
    if len(keys) != len(nodes) or set(keys) != nodes:
        failures.append(((v, "attribute"), f"{v}: {len(keys)} share rows for {len(nodes)} graph nodes"))
    by_player: dict[int, list[float]] = {}
    for r in share_rows:
        by_player.setdefault(int(r["player_id"]), []).append(float(r["share"]))
    totals = {int(r["player_id"]): float(r["total"]) for r in _read_csv(art / "player_totals.csv")}
    if set(totals) != set(by_player):
        failures.append(((v, "attribute"), f"{v}: totals and shares name different players"))
    for pid, total in totals.items():
        parts = by_player.get(pid, [])
        if abs(total - math.fsum(parts)) > SHARE_SUM_TOL * max(1.0, math.fsum(map(abs, parts))):
            failures.append(((v, "attribute"), f"{v}: player {pid} total {total!r} != share sum"))
            break
    ranked = _read_csv(art / "rankings_total_overall.csv")
    if sorted(int(r["player_id"]) for r in ranked) != sorted(totals):
        failures.append(((v, "rank"), f"{v}: overall ranking does not list every player"))
    return failures


def check_wide(run_dir: Path) -> tuple[list, dict, dict]:
    failures, metrics, digests = [], {}, {}
    for v, art in stages.artifact_dirs("wide-attribute", run_dir).items():
        needed = [f"metrics_{v}.csv", "shares.csv", "player_totals.csv", "rankings_total_overall.csv"]
        missing = [name for name in needed if not (art / name).exists()]
        if missing:
            failures.append(((v, "rank"), f"{v}: missing {', '.join(missing)}"))
            continue
        for row in _read_csv(art / f"metrics_{v}.csv"):
            if not all(math.isfinite(float(row[c])) for c in ("mse", "mae", "combined")):
                failures.append(((v, "evaluate"), f"{v}: non-finite {row['split']} metrics"))
        failures.extend(_check_shares(art, v))
        for path in sorted(art.glob("rankings_*.csv")):
            digests[f"{v}/{path.name}"] = _sha(path)
        metrics[f"_graphs.{v}"] = _lines(art / "graphs.ndjson")
    return failures, metrics, digests


CHECKS = {"train": check_train, "season-graphs": check_season, "wide-attribute": check_wide}


# ── metrics ───────────────────────────────────────────────────────────────


def stage_metrics(workload: str, steps: list, checked: dict) -> dict:
    """The end-to-end figures of one repetition, in reference-speed seconds.

    ``ref.<variant>/<stage>`` keys hold each stage's time; ``run_workload``
    sums their medians into ``ref_cpu_s``.
    """
    secs = {(s["variant"], s["stage"]): s["ref_cpu_s"] for s in steps}
    out = {f"ref.{v}/{stage}": sec for (v, stage), sec in secs.items()}
    out["cpu_s"] = sum(s["cpu_s"] for s in steps)
    out["wall_s"] = sum(s["seconds"] for s in steps)
    if workload == "season-graphs":
        out["ingest_s"] = secs[("-", "ingest")]
        out["xt_fit_s"] = secs[("-", "xt-fit")]
        out["build_graphs_s"] = secs[("-", "build-graphs")]
    elif workload == "train":
        epochs = WORKLOADS["train"]["epochs"]
        for v in stages.VARIANTS:
            n_train = math.ceil(checked.get(f"_graphs.{v}", 0) * TRAIN_SPLIT)
            out[f"train_graphs_per_s.{v}"] = n_train * epochs / secs[(v, "train")]
            if f"val_mse.{v}" in checked:
                out[f"val_mse.{v}"] = checked[f"val_mse.{v}"]
    else:
        for v in stages.VARIANTS:
            n_graphs = checked.get(f"_graphs.{v}", 0)
            out[f"inference_graphs_per_s.{v}"] = (
                2 * n_graphs / (secs[(v, "evaluate")] + secs[(v, "attribute")])
            )
    return out


def _unit(name: str) -> tuple[str, str]:
    if name.endswith("_per_s") or "_per_s." in name:
        return "1/s", "higher"
    if name.startswith("val_mse"):
        return "mse", "lower"
    if name == "peak_rss_mb":
        return "MB", "lower"
    return "s", "lower"


class Tally:
    """Operations attempted and failed over one benchmark run.

    An operation is one timed stage invocation. It fails when it exits
    non-zero, is skipped as fresh, or an output check blames it.
    """

    def __init__(self):
        self.attempted = 0
        self.failed: set = set()
        self.messages: list[str] = []
        self.digests = None

    def stages(self, runner: Runner, workload: str, run_dir: Path, seed: int, label: str, trace=False):
        result = runner.child("stages", workload, run_dir, seed, trace=trace)
        failures, checked, digests = CHECKS[workload](run_dir)
        for s in result["steps"]:
            self.attempted += 1
            if s["rc"] != 0 or not s["ran"]:
                why = f"exit {s['rc']}" if s["rc"] != 0 else "fresh-skip"
                failures.append(((s["variant"], s["stage"]), f"{s['variant']} {s['stage']}: {why}"))
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            last = result["steps"][-1]
            failures.append(((last["variant"], last["stage"]), "outputs differ from the first run of this seed"))
        for step, message in failures:
            self.failed.add((label, step))
            self.messages.append(f"{label}: {message}")
        return result, checked


def run_workload(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    tally = Tally()
    reps, traced = [], []
    # start a repetition only if one of average length still fits
    while not reps or (time.monotonic() - start) * (len(reps) + 1) / len(reps) <= seconds:
        run_dir = runner.work / f"{workload}-{len(reps)}"
        setup = runner.child("setup", workload, run_dir, seed)
        if trace:
            traced_dir = runner.work / f"{workload}-{len(reps)}-traced"
            shutil.copytree(run_dir, traced_dir)
        result, checked = tally.stages(runner, workload, run_dir, seed, f"rep {len(reps)}")
        shutil.rmtree(run_dir)
        if trace:
            traced_result, _ = tally.stages(runner, workload, traced_dir, seed, f"rep {len(reps)} traced", trace=True)
            spans = traced_dir / "trace.json"
            layers = tracing.layer_metrics(json.loads(spans.read_text()))
            layers.update((f"_ref.{s['variant']}/{s['stage']}", s["ref_cpu_s"]) for s in traced_result["steps"])
            traced.append(layers)
            if len(traced) == 1:
                shutil.copy(spans, RESULTS_DIR / f"{workload}-seed{seed}-spans.json")
            shutil.rmtree(traced_dir)
        reps.append(
            {
                "setup_s": setup["setup_s"],
                "setup_cpu_s": setup["setup_cpu_s"],
                "peak_rss_mb": result["peak_rss_mb"],
                "input_digest": setup["input_digest"],
                "env": setup["env"],
                **stage_metrics(workload, result["steps"], checked),
            }
        )

    figures = {
        key: statistics.median(r[key] for r in reps)
        for key, value in reps[0].items()
        if isinstance(value, float) and all(key in r for r in reps)
    }
    figures["ref_cpu_s"] = math.fsum(v for k, v in figures.items() if k.startswith("ref."))
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "repetitions": len(reps),
        "input_digest": reps[0]["input_digest"],
        "env": {**reps[0]["env"], "nproc": os.cpu_count()},
        "params": WORKLOADS[workload],
        "figures": figures,
        "reps": reps,
        "failures": tally.messages,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
    }
    if trace:
        per_layer = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
        traced_s = math.fsum(per_layer.pop(k) for k in list(per_layer) if k.startswith("_ref."))
        per_layer["trace_overhead_s"] = traced_s - figures["ref_cpu_s"]
        record["per_layer"] = per_layer
    return record


def report(record: dict) -> dict:
    """Print the human-readable table and return the contract result."""
    workload = record["workload"]
    print(f"# {workload}: seed {record['seed']}, {record['repetitions']} repetitions, "
          f"inputs {record['input_digest'][:16]}")
    for name, value in sorted(record["figures"].items()):
        unit, better = _unit(name)
        print(f"  {name:<36} {value:>14.6g} {unit:<5} ({better} is better)")
    for message in record["failures"]:
        print(f"  FAILED {message}")
    if record["trace"]:
        metrics = {
            name: {"value": record["per_layer"][name], "unit": unit}
            for name, unit, _better, _w, _m in tracing.PER_LAYER
        }
        for name, entry in metrics.items():
            print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    else:
        metrics = {name: {"value": record["figures"][name], "unit": unit} for name, unit, _ in END_TO_END}
    return {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def program_present(root: Path) -> bool:
    return (root / "src" / "threatshare" / "cli.py").is_file() and (
        stages.fixture_dir(root) / "player_stats.csv"
    ).is_file()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still kills its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not program_present(root):
        print(f"bench: no threatshare sources under {root}/src; run from a checkout root", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = BENCH_DIR / "_work" / f"run-{os.getpid()}"
    RESULTS_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    runner = Runner(root, work, deadline)
    try:
        work.mkdir(parents=True)
        for workload in workloads:
            record = run_workload(runner, workload, args.seed, args.seconds, bool(args.trace))
            result = report(record)
            out = RESULTS_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps({**record, "result": result}, indent=1))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
