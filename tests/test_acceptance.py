"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line when it survives its assertions (visible
under ``pytest -v -s`` or in the captured output). Criterion 11 touches the
network and only runs when THREATSHARE_NETWORK_TESTS=1.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatshare import cli, credit, diffcore as dc, ingest, models, xt
from threatshare.graphs import split_dataset

from graph_factories import planted_linear_dataset, random_event_graph
from graph_factories import SMOKE_FFN_DIM, SMOKE_HEAD_HIDDEN_DIM, SMOKE_HIDDEN_DIM
from test_graphs import centralities_of, normalized_oracle
from test_cli import ALL_STAGES, write_config


def report(n, text):
    print(f"\nACCEPTANCE {n:02d}: PASS — {text}")


# ── 1. gradient suite ─────────────────────────────────────────────────────


def test_criterion_01_gradient_suite():
    started = time.monotonic()
    h = 1e-5
    for variant in models.VARIANTS:
        rng = np.random.default_rng(101)
        graph = random_event_graph(rng, n_nodes=5)
        cfg = models.ModelConfig(variant=variant, seed=11)
        params = models.init_model(cfg, graph.node_features.shape[1])

        def loss():
            pred = models.forward([graph], params, cfg)[0]
            return dc.mse(pred, np.full((1, 1), graph.label))

        params.zero_grad()
        dc.backward(loss())
        names = [name for name, _ in params.items()]
        checked = 0
        while checked < 50:
            name = names[int(rng.integers(len(names)))]
            tensor = params[name]
            flat = tensor.data.reshape(-1)
            i = int(rng.integers(flat.size))
            orig = flat[i]
            flat[i] = orig + h
            up = loss().data.item()
            flat[i] = orig - h
            down = loss().data.item()
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            analytic = tensor.grad.reshape(-1)[i]
            err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            assert err <= 1e-4, f"{variant} {name}[{i}]: {analytic} vs {numeric}"
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(1, f"3 architectures x 50 sampled parameters, rel err <= 1e-4 in {elapsed:.1f}s")


# ── 2. attention normalization ────────────────────────────────────────────


def test_criterion_02_attention_normalization():
    from test_models import graph_outputs

    rng = np.random.default_rng(202)
    gat_cfg = models.ModelConfig(variant="gat", hidden_dim=16, n_heads=2, seed=3)
    tf_cfg = models.ModelConfig(
        variant="transformer", hidden_dim=16, n_heads=2, ffn_dim=32, seed=3
    )
    gat_params = models.init_model(gat_cfg, 10)
    tf_params = models.init_model(tf_cfg, 10)
    for i in range(1000):
        graph = random_event_graph(rng, event_id=f"att{i}")
        gat_out = graph_outputs([graph], gat_params, gat_cfg)[0]
        for layer_alpha in gat_out.attention:
            np.testing.assert_allclose(layer_alpha.sum(axis=2), 1.0, atol=1e-12)
        tf_out = graph_outputs([graph], tf_params, tf_cfg)[0]
        for layer_alpha in tf_out.attention:
            np.testing.assert_allclose(layer_alpha.sum(axis=2), 1.0, atol=1e-12)
    report(2, "1000 graphs: neighbor and global attention rows sum to 1 within 1e-12")


# ── 3. attribution conservation and ratio invariance ──────────────────────


def test_criterion_03_attribution_conservation():
    rng = np.random.default_rng(303)
    sizes, embeddings, deltas = [], [], []
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        sizes.append(n)
        embeddings.append(rng.normal(size=(n, 8)) * float(rng.uniform(0.01, 5.0)))
        deltas.append(float(rng.uniform(-1.0, 1.0)))
    emb = np.concatenate(embeddings)

    base = credit.split(np.linalg.norm(emb, axis=1), sizes, deltas)[0]
    starts = np.cumsum(sizes) - sizes
    for start, n, delta in zip(starts, sizes, deltas):
        assert abs(base[start : start + n].sum() - delta) <= 1e-9
    for c in (0.1, 10.0):
        scaled = credit.split(np.linalg.norm(emb * c, axis=1), sizes, deltas)[0]
        assert np.abs(scaled - base).max() <= 1e-12
    report(3, "1000 triples: shares sum to delta (1e-9) and are scale-invariant (1e-12)")


# ── 4. permutation property ───────────────────────────────────────────────


def test_criterion_04_permutation():
    from test_models import graph_outputs, permute_graph

    for variant in models.VARIANTS:
        rng = np.random.default_rng(404)
        cfg = models.ModelConfig(
            variant=variant, hidden_dim=16, n_heads=2, ffn_dim=32, seed=7
        )
        params = models.init_model(cfg, 10)
        for i in range(100):
            graph = random_event_graph(rng, event_id=f"perm{i}")
            perm = rng.permutation(graph.n_nodes)
            out = graph_outputs([graph], params, cfg)[0]
            out_p = graph_outputs([permute_graph(graph, perm)], params, cfg)[0]
            assert abs(out.prediction - out_p.prediction) < 1e-9
            np.testing.assert_allclose(
                out_p.node_embeddings, out.node_embeddings[perm], atol=1e-9
            )
    report(4, "100 graphs x 3 variants: relabeling permutes embeddings, output shift < 1e-9")


# ── 5. threat-change labeling ─────────────────────────────────────────────


def delta_label(cur, prev, same):
    """The labelled change of an action ending in a zone worth ``cur`` after
    one ending in a zone worth ``prev``, by the same team or the other."""
    grid = xt.XtGrid(n_x=2, n_y=1, value=np.array([prev, cur]))
    actions = [
        ingest.SpadlAction(1, 1, 0.0, 1, 1, "pass", "foot", "success", 10.0, 34.0, 10.0, 34.0),
        ingest.SpadlAction(1, 1, 1.0, 1 if same else 2, 2, "pass", "foot", "success", 10.0, 34.0, 80.0, 34.0),
    ]
    return xt.label_stream(actions, grid)[1][1]


@given(
    prev=st.floats(min_value=0.0, max_value=1.0),
    cur=st.floats(min_value=0.0, max_value=1.0),
    same=st.booleans(),
)
@settings(max_examples=500, deadline=None)
def test_criterion_05_delta_labeling_property(prev, cur, same):
    assert delta_label(cur, prev, same) == (cur - prev if same else cur + prev)


def test_criterion_05_delta_labeling_worked_examples():
    assert delta_label(0.05, 0.02, True) == pytest.approx(0.03)
    assert delta_label(0.05, 0.02, False) == pytest.approx(0.07)
    assert delta_label(0.04, 0.04, True) == 0.0
    report(5, "two-branch formula reproduced exhaustively; worked examples hold")


# ── 6. xT fixed point ─────────────────────────────────────────────────────


def test_criterion_06_xt_fixed_point():
    shot = np.array([0.0, 1.0])
    goal = np.array([0.0, 0.3])
    move = np.array([1.0, 0.0])
    transition = np.array([[0.0, 1.0], [0.0, 0.0]])
    value, _ = xt.solve_values(shot, goal, move, transition, tol=1e-8)
    # independent oracle: direct iteration written out longhand
    oracle = np.zeros(2)
    for _ in range(60):
        oracle = shot * goal + move * (transition @ oracle)
    np.testing.assert_allclose(value, [0.3, 0.3], atol=1e-8)
    np.testing.assert_allclose(value, oracle, atol=1e-10)

    for seed in range(20):
        rng = np.random.default_rng([606, seed])
        n = int(rng.integers(2, 15))
        shot = rng.uniform(0, 1, n)
        goal = rng.uniform(0, 1, n)
        move = 1.0 - shot
        transition = rng.uniform(0, 1, (n, n))
        transition /= transition.sum(axis=1, keepdims=True)
        prev = np.zeros(n)
        for _ in range(300):
            nxt = shot * goal + move * (transition @ prev)
            assert np.all(nxt >= prev - 1e-15)
            prev = nxt
    report(6, "toy grid converges to [0.3, 0.3] within 1e-8; monotone on 20 random grids")


# ── 7. centrality oracle ──────────────────────────────────────────────────


def _connected(nodes, edges):
    if len(nodes) <= 1:
        return True
    adj = {v: set() for v in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nodes)


def test_criterion_07_centrality_oracle():
    total = 0
    for n in range(1, 7):
        nodes = list(range(n))
        pairs = list(itertools.combinations(nodes, 2))
        for bits in range(2 ** len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            if not _connected(nodes, edges):
                continue
            got = centralities_of(nodes, edges)
            expected = normalized_oracle(nodes, edges)
            assert got[:, 0].tolist() == expected[:, 0].tolist()
            assert np.abs(got[:, 1:] - expected[:, 1:]).max() <= 1e-12
            total += 1
    report(7, f"{total} connected graphs on <= 6 nodes match the shortest-path oracle")


# ── 8. training smoke on the planted signal ───────────────────────────────


def test_criterion_08_training_smoke():
    started = time.monotonic()
    data = planted_linear_dataset(n_graphs=500, seed=11, noise=0.01)
    label_var = float(np.var([g.label for g in data]))  # oracle: variance of the set
    train_set, val_set = split_dataset(data, 0.8, seed=11)
    assert (len(train_set), len(val_set)) == (400, 100)

    tcfg = models.TrainingConfig()  # lr 1e-4, wd 1e-4, 25 epochs, batch 64, patience 5
    for variant in models.VARIANTS:
        cfg = models.ModelConfig(
            variant=variant,
            hidden_dim=SMOKE_HIDDEN_DIM,
            head_hidden_dim=SMOKE_HEAD_HIDDEN_DIM,
            ffn_dim=SMOKE_FFN_DIM,
            seed=11,
        )
        result = models.train(cfg, train_set, val_set, tcfg)
        best = min(r.val_mse for r in result.log)
        assert best <= 0.25 * label_var, f"{variant}: {best} > {0.25 * label_var}"
        lrs = [r.lr for r in result.log]
        assert lrs[:10] == [1e-4] * 10
        assert lrs[10:20] == [5e-5] * 10
        assert lrs[20:] == [2.5e-5] * len(lrs[20:])
        assert set(lrs) == {1e-4, 5e-5, 2.5e-5}

    # early stopping on a manufactured plateau: best at epoch 1, then five
    # consecutive epochs without improvement
    plateau = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5]
    for epoch in range(1, 6):
        _, stop = dc.schedule_and_stop(epoch, plateau[:epoch])
        assert not stop
    _, stop = dc.schedule_and_stop(6, plateau)
    assert stop

    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(8, f"3 variants reach <= 0.25 x label variance; LR halves after epochs 10 and 20; "
              f"plateau stops after exactly 5 non-improving epochs ({elapsed:.0f}s)")


# ── 9. ablation harness ───────────────────────────────────────────────────


def test_criterion_09_ablation_harness(tmp_path, fixture_dir):
    config = write_config(
        tmp_path,
        fixture_dir,
        overrides={"training": {"epochs": 1}, "model": {"hidden_dim": 8, "ffn_dim": 16,
                                                        "head_hidden_dim": 4}},
    )
    cfg = cli.load_config(config)
    cli.run_pipeline(cfg, ["ingest", "xt-fit"])
    k_values = [1, 3, 5, 7, 9]
    cells = cli.ablate(cfg, k_values)
    assert len(cells) == 15  # 3 models x 5 window sizes

    header = "model," + ",".join(
        [f"train_k{k}" for k in k_values] + [f"val_k{k}" for k in k_values]
    )
    for metric in ("mae", "mse", "combined"):
        lines = (tmp_path / "artifacts" / f"ablation_{metric}.csv").read_text().splitlines()
        assert lines[0] == header
        assert [line.split(",")[0] for line in lines[1:]] == [*models.VARIANTS, "train_mean"]
        # the train-mean constant: one value per block, the same at every k
        train_mean = lines[-1].split(",")[1:]
        assert len(set(train_mean[:5])) == 1 and len(set(train_mean[5:])) == 1
        assert all(len(line.split(",")) == 11 for line in lines[1:])
    for cell in cells.values():
        assert cell is not None
        for block in ("train", "val"):
            assert abs(cell[block]["combined"] - (cell[block]["mae"] + cell[block]["mse"])) <= 1e-12
    report(9, "15-cell sweep emits MAE/MSE/combined tables; combined = mae + mse per cell")


# ── 10. ingest determinism and the 12-attribute contract ──────────────────


def test_criterion_10_ingest(fixture_dir, tmp_path):
    outputs = []
    for run in range(2):
        actions = []
        for path in sorted(fixture_dir.glob("*.json")):
            actions.extend(ingest.to_spadl(ingest.parse_events(path).events))
        assert actions
        for a in actions:
            assert len(a._asdict()) == 12
        out = tmp_path / f"run{run}.ndjson"
        ingest.write_actions(actions, out)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    for line in outputs[0].decode().splitlines():
        assert len(json.loads(line)) == 12
    report(10, "every SPADL row carries exactly 12 attributes; conversion is byte-deterministic")


# ── 11. optional networked fetch ──────────────────────────────────────────


@pytest.mark.skipif(
    os.environ.get("THREATSHARE_NETWORK_TESTS") != "1",
    reason="networked check; set THREATSHARE_NETWORK_TESTS=1 to run",
)
def test_criterion_11_open_data_fetch(tmp_path):
    paths = ingest.fetch_open_data(2, 27, tmp_path / "cache")
    assert len(paths) == 380
    total = sum(ingest.parse_events(p).summary.total_rows for p in paths)
    reference = 758426
    drift = abs(total - reference) / reference
    print(f"\nACCEPTANCE 11: parsed event rows = {total} "
          f"(reference {reference}, drift {drift:.2%}; logged, not asserted)")
    report(11, f"380 match files fetched; {total} provider rows parsed")


# ── 12. end-to-end determinism ────────────────────────────────────────────


def test_criterion_12_end_to_end_determinism(tmp_path, fixture_dir):
    payloads = []
    for sub in ("first", "second"):
        base = tmp_path / sub
        base.mkdir()
        cfg = cli.load_config(write_config(base, fixture_dir))
        cli.run_pipeline(cfg, ALL_STAGES)
        svg = cli.plot_case(cfg, match_id=9001, start=20, end=24)
        rankings = sorted((base / "artifacts").glob("rankings_*.csv"))
        payloads.append(
            (b"".join(p.read_bytes() for p in rankings), svg.read_bytes())
        )
    assert payloads[0][0] == payloads[1][0]
    assert payloads[0][1] == payloads[1][1]
    report(12, "two identical runs produced byte-identical ranking CSVs and case SVG")
